"""Learning technology: cost families, the feasible-scale frontier, and
the coordination indices derived from it.

A learning-cost function ell maps mastery s in [0,1] to study effort, with
ell(0)=0, ell(1)=1, ell strictly increasing and strictly concave. Two
families ship, selected by config:

    rational(c):     ell(s) = (1+c)s / (1+cs),          c > 0
    exponential(lam): ell(s) = expm1(-lam*s) / expm1(-lam),      lam > 0

Both have finite slope at 0 and positive slope at 1, so every derived
regularity constant below is finite and positive.

Derived objects, for a direction pi on the simplex:

    H(pi)     largest scale t with sum_k ell(t*pi_k) <= 1 (frontier)
    lambda    1/H(pi), the relative inefficiency of a broad direction
    Gamma(z)  ||z||_1 * lambda(z/||z||_1), integrator labor per gap bundle

Constants: ell_bar = ell'(0), ell_under = ell'(1), the concavity gap
c_ell = inf over (0,1) of (ell(s)-s)/(s(1-s)), which is 1 - ell_under in
closed form (proved in `constants`), the Gamma Lipschitz constant
L_Gamma = ell_bar + 2*ell_bar**3/ell_under, and the coordination cutoff
theta_bar = min(c_ell/L_Gamma, 1/(2*L_Gamma)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, OracleError

FRONTIER_RESIDUAL = 1e-12
# Rows hugging a corner of a steep exponential cost take about ln(1/eps)
# ~ 36 near-linear Newton steps; 38 was the most seen for params 1e-8..1e6.
NEWTON_MAX_ITER = 60
_CORNER_SNAP = 1e-12
_EPS = float(np.finfo(float).eps)

FAMILIES = ("rational", "exponential")


@dataclass(frozen=True)
class LearningTech:
    """A member of one of the shipped learning-cost families."""

    family: str
    param: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown learning family {self.family!r}; choose one of {FAMILIES}"
            )
        if not (self.param > 0.0 and math.isfinite(self.param)):
            raise ConfigError("learning.param must be a positive finite number")

    def ell(self, s, param=None):
        """Learning cost of mastery s, elementwise (no domain check); with
        param, an (N,) column of learning.param values of this family, the
        cost of each row of an (N,K) stack s under its own param."""
        c, em1 = _param_terms(self, param)
        if self.family == "rational":
            return (1.0 + c) * s / (1.0 + c * np.asarray(s))
        return np.expm1(-c * np.asarray(s)) / em1

    def ell_prime(self, s: float) -> float:
        """Analytic derivative of the cost function at a mastery s in [0,1]."""
        c = self.param
        if self.family == "rational":
            # in np.float64, whose square of a steep cost overflows to inf
            # (under constants' errstate) where a Python float would raise
            return float((1.0 + c) / (1.0 + c * np.float64(s)) ** 2)
        # math.exp: np.exp's bits depend on numpy's SIMD dispatch, and
        # ell_under feeds c_ell, L_Gamma and theta_bar
        return c * math.exp(-c * s) / -math.expm1(-c)

    def _frontier_terms(self, t: np.ndarray, P: np.ndarray, c, em1):
        """Row sums sum_k ell(S_k) - 1 and sum_k P_k*ell'(S_k) at S = t*P,
        given _param_terms' c and expm1(-c) (floats, or per-row columns).

        The formulas of ell and ell_prime, in numpy's array kernels, on one
        (N,K) buffer, 1 + c*S or -c*S, plus the cost array, which is summed
        and freed before the slope is formed in the buffer.
        """
        S = t[:, None] * P
        if self.family == "rational":
            cost = (1.0 + c) * S
            S *= c
            S += 1.0
            cost /= S
            f = cost.sum(axis=1) - 1.0
            del cost
            np.square(S, out=S)
            np.divide(1.0 + c, S, out=S)
        else:
            S *= -c
            cost = np.expm1(S)
            cost /= em1
            f = cost.sum(axis=1) - 1.0
            del cost
            np.exp(S, out=S)
            S *= c
            S /= -em1
        S *= P
        return f, S.sum(axis=1)

    @cached_property
    def constants(self) -> LearningConstants:
        """Regularity constants, computed once per technology."""
        return constants(self)

    @cached_property
    def ell_bar(self) -> float:
        """Slope at zero, the steepest marginal learning cost."""
        return self.ell_prime(0.0)

    @property
    def ell_under(self) -> float:
        """Slope at one, the flattest marginal learning cost."""
        return self.ell_prime(1.0)

    def ell_inverse(self, y: float, param: float | None = None) -> float:
        """Mastery with cost y: y/(1+c(1-y)) or -log1p(y*expm1(-c))/c, at
        c = param (a learning.param of this family) or self.param."""
        if not (0.0 <= y <= 1.0):
            raise DomainError(f"cost outside [0,1]: {y!r}")
        c = self.param if param is None else param
        if self.family == "rational":
            return y / (1.0 + c * (1.0 - y))
        if y == 1.0:
            return 1.0
        return -math.log1p(y * math.expm1(-c)) / c


@dataclass(frozen=True)
class LearningConstants:
    """Regularity constants of a learning technology.

    c_ell is the infimum of the concavity gap (ell(s)-s)/(s(1-s)) over
    (0,1), in closed form; theta_bar is built from it.
    """

    c_ell: float
    L_Gamma: float
    theta_bar: float


def _param_terms(tech: LearningTech, param):
    """tech's cost parameter c and expm1(-c) as floats, or, given param, an
    (N,) column of learning.param values of tech's family, both as (N,1)
    columns. Each expm1 is math.expm1: np.expm1's bits depend on numpy's
    SIMD dispatch."""
    if param is None:
        return tech.param, math.expm1(-tech.param)
    params = np.asarray(param, dtype=float).tolist()
    return np.array(params)[:, None], np.array([math.expm1(-x) for x in params])[:, None]


def max_scale(tech: LearningTech, pi: np.ndarray) -> float:
    """Feasible-scale frontier H(pi): solves sum_k ell(H*pi_k) = 1.

    A one-row call of max_scale_batch, after checking that pi lies on the
    simplex. Exactly 1.0 at corners.
    """
    p = np.asarray(pi, dtype=float)
    if p.ndim != 1:
        raise DomainError("direction must be a 1-d vector")
    if abs(float(p.sum()) - 1.0) > 1e-9 or np.any(p < -1e-12):
        raise DomainError("direction must lie on the simplex")
    return float(max_scale_batch(tech, p[None, :])[0])


def max_scale_batch(tech: LearningTech, directions: np.ndarray, param=None) -> np.ndarray:
    """Frontier H() of each row of a (N,K) array of simplex directions,
    under tech, or with param, an (N,) column of learning.param values of
    tech's family, each row under its own param; a row has the bits of
    its one-row call under LearningTech(tech.family, param[i]).

    Newton's method on f(t) = sum_k ell(t*pi_k) - 1 from t0 = 1/ell_bar.
    ell(s) <= ell_bar*s makes f(t0) <= 0, and f is concave and increasing,
    so every step stays below the root and t rises monotonically. A row
    stops once its step is at most 4*eps*t (a round-off step may be
    negative); more than NEWTON_MAX_ITER iterations, or a final residual
    |f(H)| above 1e-12 on any non-corner row, raise OracleError.
    Rows with a coordinate above 1-1e-12 return exactly 1.0.
    """
    P = np.asarray(directions, dtype=float)
    c, em1 = _param_terms(tech, param)
    # 1/ell'(0), with the bits of ell_prime's 1 + c and c/-expm1(-c)
    t = np.full((P.shape[0], 1), 1.0 / (1.0 + c if tech.family == "rational" else c / -em1))[:, 0]
    for _ in range(NEWTON_MAX_ITER):
        f, slope = tech._frontier_terms(t, P, c, em1)
        step = -f / slope
        moving = step > 4.0 * _EPS * t
        if not moving.any():
            break
        t += np.where(moving, step, 0.0)
    else:
        raise OracleError(
            f"frontier Newton solve did not converge in {NEWTON_MAX_ITER} iterations"
        )
    corner = P.max(axis=1) > 1.0 - _CORNER_SNAP
    if np.any(np.abs(f[~corner]) > FRONTIER_RESIDUAL):
        raise OracleError("frontier residual too large")
    return np.where(corner, 1.0, np.minimum(t, 1.0))


def gamma_index(tech: LearningTech, z: np.ndarray) -> float:
    """Coordination index Gamma(z) of one gap bundle: a one-row call of
    gamma_index_batch, after checking that z is a nonnegative vector."""
    v = np.asarray(z, dtype=float)
    if v.ndim != 1:
        raise DomainError("gap bundle must be a 1-d vector")
    if np.any(v < -1e-12):
        raise DomainError("gap bundle must be componentwise nonnegative")
    return float(gamma_index_batch(tech, v[None, :])[0])


def gamma_index_batch(tech: LearningTech, Z: np.ndarray) -> np.ndarray:
    """Gamma(z) = ||z||_1 * (1/H(z/||z||_1)) of each row of a (N,K) array
    of gap bundles, 0 at z = 0; entries below 0 count as 0."""
    Z = np.clip(np.asarray(Z, dtype=float), 0.0, None)
    mass = Z.sum(axis=1)
    zero = mass == 0.0
    # normalize in place; a zero bundle becomes a corner, whose H is 1
    np.divide(Z, mass[:, None], out=Z, where=~zero[:, None])
    Z[zero, 0] = 1.0
    return mass * (1.0 / max_scale_batch(tech, Z))


def constants(tech: LearningTech) -> LearningConstants:
    """Regularity constants in closed form, or ConfigError naming
    learning.param.

    c_ell is the infimum of phi(s) = (ell(s)-s)/(s(1-s)) over (0,1). As
    ell(0) = 0 and ell(1) = 1, phi(s) = -ell[0,s,1], a second divided
    difference, so phi'(s) = -ell[0,s,s,1] = -ell'''(xi)/6 for some xi in
    (0,1). Both families have ell''' > 0: rational 6c^2(1+c)/(1+cs)^4,
    exponential c^3 e^{-cs}/(1-e^{-c}). So phi decreases from ell'(0) - 1
    to 1 - ell'(1), and c_ell = min(ell_bar - 1, 1 - ell_under); the min
    guards round-off. A cost with c_ell not positive is rejected, and so
    is a steep cost (exponential past ~700, rational past ~1e77) that takes
    L_Gamma out of the float range, where theta_bar would be 0.
    LearningTech.constants caches the result.
    """
    with np.errstate(over="ignore"):  # rational (1+c)**2 at s=1 may overflow
        ell_bar, ell_under = tech.ell_bar, tech.ell_under
    try:
        L = ell_bar + 2.0 * ell_bar**3 / ell_under
    except (OverflowError, ZeroDivisionError):  # ell_under may underflow to 0
        L = math.inf
    if not L < math.inf:
        raise ConfigError(
            f"learning.param={tech.param:g} is too steep for the {tech.family} "
            f"family: L_Gamma is not finite (ell_under={ell_under:.3g})"
        )
    c_ell = min(ell_bar - 1.0, 1.0 - ell_under)
    if not c_ell > 0.0:
        raise ConfigError(
            f"learning.param={tech.param:g} leaves the {tech.family} cost no concavity "
            "gap: ell'(0) - 1 and 1 - ell'(1) must both be positive"
        )
    theta_bar = min(c_ell / L, 1.0 / (2.0 * L))
    return LearningConstants(c_ell=c_ell, L_Gamma=L, theta_bar=theta_bar)
