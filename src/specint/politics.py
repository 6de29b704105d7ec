"""Electoral competition between two office-motivated candidates.

A platform is a governance quality e >= 0 and an integrator spending
share z. Effective resources are G(e,Y); per-capita services are
t_M = z*G/m and t_S = (1-z)*G/(1-m). A citizen in group g assesses
platforms through logit noise with scale Lambda0/B_g, so the vote share
of the proposing candidate in group g is

    Psi_g(t; t_bar) = t**beta_g / (t**beta_g + t_bar**beta_g),
    beta_g = B_g / Lambda0 in (0,1).

The unique equilibrium sets e to the maximizer of
B_soc*log G(e,Y) - 4*Lambda0*c(e), splits services t_g proportionally to
B_g, and targets z = m*B_M/B_soc.

The resource map is G(e,Y) = tau*Y*e**eta with cost c(e) = c0*e**2/2, so
the governance problem is solved in closed form:

    e* = sqrt(eta*B/(4*Lambda0*c0)),  R = tau*Y*(e*)**eta,
    R_Y = R/Y,  R_B = (eta/2)*R/B.

Two checks certify these without using the formulas: kkt_residuals
evaluates the first-order condition B*eta/e - 4*Lambda0*c0*e at e*, and
best_response_fixed_point reaches e* by golden-section best responses
(the `political-equilibrium` oracle). The `decomposition-residual`
oracle checks R_Y/R and R_B/R against finite differences of welfare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, ConvergenceError, DegenerateGroupError, DomainError
from .production import Allocation, accounts

if TYPE_CHECKING:
    from .economy import Economy


@dataclass(frozen=True)
class GovernanceTech:
    """Resource map G(e,Y) = tau*Y*e**eta and effort cost c(e) = c0*e**2/2."""

    eta: float
    c0: float
    tau: float
    lambda0: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ConfigError("gov.eta must lie in (0,1)")
        if not self.c0 > 0.0:
            raise ConfigError("gov.c0 must be positive")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(
                "gov.tau must lie in (0,1): a zero tax base makes effective "
                "resources vanish and log services undefined"
            )
        if not self.lambda0 >= 1.0:
            raise ConfigError("gov.lambda0 must be at least 1")

    def resources(self, e: float, Y: float) -> float:
        return self.tau * Y * e**self.eta

    def cost(self, e: float) -> float:
        return 0.5 * self.c0 * e**2


def governance_star(gov: GovernanceTech, Y: float, B: float) -> float:
    """Unique maximizer e* = sqrt(eta*B/(4*Lambda0*c0)) of
    B*log G(e,Y) - 4*Lambda0*c(e)."""
    if not (Y > 0.0 and B > 0.0):
        raise DomainError("governance problem needs Y > 0 and B > 0")
    return math.sqrt(gov.eta * B / (4.0 * gov.lambda0 * gov.c0))


def resource_sensitivities(gov: GovernanceTech, Y: float, B: float):
    """(R, dR/dY, dR/dB) at the governed optimum: (R, R/Y, eta*R/(2B))."""
    R = gov.resources(governance_star(gov, Y, B), Y)
    return R, R / Y, gov.eta * R / (2.0 * B)


def vote_share(t: float, t_bar: float, beta: float) -> float:
    """Probability the proposing candidate wins a group-g voter."""
    if not 0.0 < beta < 1.0:
        raise DomainError("responsiveness beta must lie in (0,1)")
    if t < 0.0 or t_bar < 0.0:
        raise DomainError("services must be nonnegative")
    if t == 0.0 and t_bar == 0.0:
        return 0.5
    if t == 0.0:
        return 0.0
    if t_bar == 0.0:
        return 1.0
    a = t**beta
    return a / (a + t_bar**beta)


def vote_share_slope(t: float, t_bar: float, beta: float) -> float:
    """d Psi / d t; at symmetry equals beta/(4t)."""
    a = t**beta
    b = t_bar**beta
    return beta * b * t ** (beta - 1.0) / (a + b) ** 2


def group_knowledge(alloc: Allocation, econ: Economy) -> tuple[float, float]:
    """Average system knowledge of specialists and of integrators."""
    acc = accounts(alloc, econ)
    return acc.B_S, acc.B_M


@dataclass(frozen=True)
class PoliticalOutcome:
    """Equilibrium platform, services, resources, and knowledge aggregates,
    solved at output Y."""

    Y: float
    e_pol: float
    z_pol: float
    t_S: float
    t_M: float
    R: float
    B_S: float
    B_M: float
    B_soc: float
    m: float


def equilibrium_from_groups(
    econ: Economy, Y: float, m: float, B_S: float, B_M: float
) -> PoliticalOutcome:
    """Equilibrium objects given output and the two group knowledge levels."""
    if not 0.0 < m < 1.0:
        raise DegenerateGroupError("voting game needs both groups populated")
    if not (B_S > 0.0 and B_M > 0.0):
        raise DegenerateGroupError("both groups need positive system knowledge")
    B_soc = (1.0 - m) * B_S + m * B_M
    e = governance_star(econ.gov, Y, B_soc)
    R = econ.gov.resources(e, Y)
    return PoliticalOutcome(
        Y=Y,
        e_pol=e,
        z_pol=m * B_M / B_soc,
        t_S=B_S / B_soc * R,
        t_M=B_M / B_soc * R,
        R=R,
        B_S=B_S,
        B_M=B_M,
        B_soc=B_soc,
        m=m,
    )


def political_equilibrium(econ: Economy, alloc: Allocation) -> PoliticalOutcome:
    """Unique platform equilibrium induced by an allocation."""
    acc = accounts(alloc, econ)
    return equilibrium_from_groups(econ, acc.Y, alloc.m, acc.B_S, acc.B_M)


def kkt_residuals(econ: Economy, out: PoliticalOutcome):
    """Residuals of the equilibrium first-order system.

    Returns |Psi'_S(t_S;t_S) - B_soc/(4*Lambda0*R)|, the same for M, and
    the governance residual |B_soc*eta/e - 4*Lambda0*c0*e|, written from
    the primitives rather than from the closed form for e*.
    """
    gov = econ.gov
    mu = out.B_soc / (4.0 * gov.lambda0 * out.R)
    res_S = abs(vote_share_slope(out.t_S, out.t_S, out.B_S / gov.lambda0) - mu)
    res_M = abs(vote_share_slope(out.t_M, out.t_M, out.B_M / gov.lambda0) - mu)
    e = out.e_pol
    res_e = abs(out.B_soc * gov.eta / e - 4.0 * gov.lambda0 * gov.c0 * e)
    return res_S, res_M, res_e


@dataclass(frozen=True)
class Platform:
    """A candidate platform with its implied per-group services."""

    e: float
    z: float
    t_S: float
    t_M: float


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BR_TOL = 1e-10  # golden-section bracket width on the governance level
FIXED_POINT_TOL = 1e-9  # change in (e, z) that ends best-response iteration
FIXED_POINT_MAX_ITER = 80


def _split_budget(R, m, beta_S, beta_M, tbar_S, tbar_M):
    """Allocate a service budget by equalizing marginal vote shares.

    Bisection on t_S, along which the specialist-side multiplier
    Psi'_S(t_S; tbar_S) falls monotonically while the integrator-side
    multiplier rises, so the balance point is unique.

    The loop stops once the midpoint is no longer strictly inside
    (lo, hi): it then equals an end, no later step can move it, and the
    result is the one all 100 steps return. The slopes are
    vote_share_slope written out with the same operations in the same
    order; their loop-invariant factors are computed once.
    """
    mass_S = 1.0 - m
    lo = 1e-14 * R
    hi = R / mass_S * (1.0 - 1e-14)
    b_S = tbar_S**beta_S
    b_M = tbar_M**beta_M
    k_S, k_M = beta_S * b_S, beta_M * b_M
    x_S, x_M = beta_S - 1.0, beta_M - 1.0
    for _ in range(100):
        t_S = 0.5 * (lo + hi)
        if not lo < t_S < hi:
            break
        t_M = (R - mass_S * t_S) / m
        slope_S = k_S * t_S**x_S / (t_S**beta_S + b_S) ** 2
        slope_M = k_M * t_M**x_M / (t_M**beta_M + b_M) ** 2
        if slope_S > slope_M:
            lo = t_S
        else:
            hi = t_S
    t_S = 0.5 * (lo + hi)
    return t_S, (R - mass_S * t_S) / m


def best_response(platform: Platform, econ: Economy, alloc: Allocation) -> Platform:
    """Exact best response to an opponent platform.

    Nested solver: for each governance level, the service budget is split
    by equalizing the two marginal vote-share multipliers (bisection);
    the governance level itself is then found by golden-section search
    to bracket width BR_TOL.
    """
    gov = econ.gov
    acc = accounts(alloc, econ)
    B_S, B_M, Y = acc.B_S, acc.B_M, acc.Y
    m = alloc.m
    if not 0.0 < m < 1.0:
        raise DegenerateGroupError("voting game needs both groups populated")
    beta_S = B_S / gov.lambda0
    beta_M = B_M / gov.lambda0

    e_bar, z_bar = platform.e, platform.z
    R_bar = gov.resources(e_bar, Y)
    tbar_S = (1.0 - z_bar) * R_bar / (1.0 - m)
    tbar_M = z_bar * R_bar / m
    if not (tbar_S > 0.0 and tbar_M > 0.0):
        raise DomainError("opponent services must be strictly positive")

    def value(e):
        if e <= 0.0:
            return 0.0
        R = gov.resources(e, Y)
        t_S, t_M = _split_budget(R, m, beta_S, beta_M, tbar_S, tbar_M)
        return (
            (1.0 - m) * vote_share(t_S, tbar_S, beta_S)
            + m * vote_share(t_M, tbar_M, beta_M)
            - gov.cost(e)
        )

    e_hi = 1.0
    while gov.cost(e_hi) < 1.5:
        e_hi *= 2.0
    lo, hi = 0.0, e_hi
    a = hi - _GOLDEN * (hi - lo)
    b = lo + _GOLDEN * (hi - lo)
    fa, fb = value(a), value(b)
    for _ in range(300):
        if hi - lo <= BR_TOL:
            break
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + _GOLDEN * (hi - lo)
            fb = value(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - _GOLDEN * (hi - lo)
            fa = value(a)
    else:
        raise ConvergenceError("golden-section budget exhausted in best_response")
    e = 0.5 * (lo + hi)

    # Golden section resolves e only down to the comparison noise floor of
    # the flat objective; polish on the envelope first-order condition
    # mu(e)*G_e(e,Y) = c'(e), i.e. mu(e)*eta*R/e = c0*e, where mu(e) is the
    # common multiplier of the inner split, computable to machine precision.
    # Like the split, the bisection stops once its midpoint reaches an end.
    def foc(e_val):
        R_val = gov.resources(e_val, Y)
        t_s, _ = _split_budget(R_val, m, beta_S, beta_M, tbar_S, tbar_M)
        mu = vote_share_slope(t_s, tbar_S, beta_S)
        return mu * gov.eta * R_val / e_val - gov.c0 * e_val

    pad = 1e-4 * (1.0 + e)
    a2, b2 = max(1e-12, e - pad), e + pad
    if foc(a2) > 0.0 > foc(b2):
        for _ in range(80):
            mid = 0.5 * (a2 + b2)
            if not a2 < mid < b2:
                break
            if foc(mid) > 0.0:
                a2 = mid
            else:
                b2 = mid
        e = 0.5 * (a2 + b2)
    R = gov.resources(e, Y)
    t_S, t_M = _split_budget(R, m, beta_S, beta_M, tbar_S, tbar_M)
    return Platform(e=e, z=m * t_M / R, t_S=t_S, t_M=t_M)


def best_response_fixed_point(
    start: tuple[float, float],
    econ: Economy,
    alloc: Allocation,
) -> Platform:
    """Iterate best responses from a starting (e, z) to a fixed point."""
    current = Platform(start[0], start[1], 0.0, 0.0)
    for _ in range(FIXED_POINT_MAX_ITER):
        nxt = best_response(current, econ, alloc)
        if max(abs(nxt.e - current.e), abs(nxt.z - current.z)) <= FIXED_POINT_TOL:
            return nxt
        current = nxt
    raise ConvergenceError("best-response iteration did not converge")
