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
best_response_fixed_point reaches e* by iterated best responses (the
`political-equilibrium` oracle). Each best response works from the
primitives: a safeguarded Newton split of the service budget at each
governance level, and one Illinois root solve of the envelope condition
for e, whose root is unique because the proposer's vote share net of
cost is strictly concave in e. The `decomposition-residual` oracle checks
R_Y/R and R_B/R against finite differences of welfare.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConfigError, DomainError, HypothesisError, OracleError
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


def vote_share_slope(t: float, t_bar: float, beta: float) -> float:
    """d Psi / d t; at symmetry equals beta/(4t). The denominator
    (a + b)**2 is divided out one factor at a time, so that it cannot
    overflow where a + b is finite (t of order 1e200, say)."""
    a = t**beta
    b = t_bar**beta
    s = a + b
    return beta * b * t ** (beta - 1.0) / s / s


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
        raise HypothesisError("voting game needs both groups populated")
    if not (B_S > 0.0 and B_M > 0.0):
        raise HypothesisError("both groups need positive system knowledge")
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


FIXED_POINT_TOL = 1e-9  # change in (e, z) that ends best-response iteration
FIXED_POINT_MAX_ITER = 80
# The split searches z in [1e-14, 1 - 1e-14*(1-m)], where each group gets at
# least 1e-14 of its full-budget services, as it always has. A Newton step
# below 1e-9 in w = logit(z) leaves an error of order its square, under
# float resolution.
_SPLIT_Z_MIN = 1e-14
_SPLIT_STEP_TOL = 1e-9
_SPLIT_MAX_ITER = 100
_FOC_MAX_ITER = 80  # bracket halvings, and Illinois steps, on the envelope condition


def _log_slope(k, beta, u):
    """log Psi'(t; t_bar) and its derivative in u = log(t/t_bar), given
    k = log(beta/t_bar): k + (beta-1)*u - 2*log(1 + e**(beta*u)), with the
    exponential taken of a nonpositive argument on either side of u = 0."""
    x = beta * u
    if x > 0.0:
        a = math.exp(-x)
        return k - (1.0 + beta) * u - 2.0 * math.log1p(a), 2.0 * beta * a / (1.0 + a) - 1.0 - beta
    a = math.exp(x)
    return k + (beta - 1.0) * u - 2.0 * math.log1p(a), beta - 1.0 - 2.0 * beta * a / (1.0 + a)


def _log_shares(w):
    """(log z, log(1-z)) at z = 1/(1 + e**-w), without cancellation."""
    if w > 0.0:
        lse = math.log1p(math.exp(-w))
        return -lse, -w - lse
    lse = math.log1p(math.exp(w))
    return w - lse, -lse


def _split_budget(R, m, beta_S, beta_M, tbar_S, tbar_M):
    """Allocate a service budget by equalizing marginal vote shares.

    With z = m*t_M/R the integrator share of the budget, the log multiplier
    gap g(w) = log Psi'_S(t_S; tbar_S) - log Psi'_M(t_M; tbar_M) rises
    strictly in w = logit(z), at slope between min(1-beta) and 2 and
    asymptotically linear in both tails, so its root is unique and Newton's
    method converges fast from the symmetric split z = m*beta_M/(mean beta).
    Safeguard (rtsafe): a step that leaves the bracket, or that does not
    halve the step before last, is replaced by bisection. A root outside
    the bracket returns its end.

    Both services come from the stable logs of the shares,
    t_S = R/(1-m) * exp(log(1-z)) and t_M = R/m * exp(log z), so neither is
    the difference of two near-equal numbers (R - (1-m)*t_S loses every
    digit of t_M when m is small). Folding log(R/m) into the exponent
    instead would cost up to 8 ulps of t_M to the rounding of a log near 20.
    """
    log_R = math.log(R)
    c_S = log_R - math.log1p(-m) - math.log(tbar_S)  # log t_S/tbar_S at z = 0
    c_M = log_R - math.log(m) - math.log(tbar_M)  # log t_M/tbar_M at z = 1
    k_S, k_M = math.log(beta_S / tbar_S), math.log(beta_M / tbar_M)
    lo = math.log(_SPLIT_Z_MIN) - math.log1p(-_SPLIT_Z_MIN)
    hi = math.log1p(-_SPLIT_Z_MIN * (1.0 - m)) - math.log(_SPLIT_Z_MIN * (1.0 - m))
    w = math.log(m * beta_M) - math.log((1.0 - m) * beta_S)
    w = min(max(w, lo), hi)
    step = step_old = hi - lo
    for _ in range(_SPLIT_MAX_ITER):
        log_z, log_1mz = _log_shares(w)
        lp_S, d_S = _log_slope(k_S, beta_S, c_S + log_1mz)
        lp_M, d_M = _log_slope(k_M, beta_M, c_M + log_z)
        g = lp_S - lp_M
        if g < 0.0:
            lo = w
        elif g > 0.0:
            hi = w
        else:
            break
        z = math.exp(log_z)
        slope = -d_S * z - d_M * (1.0 - z)
        newton = w - g / slope
        if lo <= newton <= hi and abs(2.0 * g) <= abs(step_old * slope):
            step_old, step = step, g / slope
            w = newton
        else:
            step_old = step
            step = 0.5 * (hi - lo)
            w = lo + step
            if not lo < w < hi:
                break
        if abs(step) <= _SPLIT_STEP_TOL:
            break
    else:
        raise OracleError("budget split did not converge")
    log_z, log_1mz = _log_shares(w)
    return R / (1.0 - m) * math.exp(log_1mz), R / m * math.exp(log_z)


def _illinois_root(f, a, b, fa, fb):
    """Root of f in [a, b] with f(a) > 0 > f(b), by regula falsi with the
    Illinois rule (an end kept twice in a row has its value halved), and
    bisection when the secant point is not strictly inside the bracket.
    Stops once the bracket has no float strictly inside it, and raises
    OracleError if _FOC_MAX_ITER steps do not get there."""
    side = 0
    for _ in range(_FOC_MAX_ITER):
        x = (fa * b - fb * a) / (fa - fb)
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                return x
        fx = f(x)
        if fx > 0.0:
            a, fa = x, fx
            if side == 1:
                fb *= 0.5
            side = 1
        elif fx < 0.0:
            b, fb = x, fx
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            return x
    raise OracleError("envelope condition did not converge in best_response")


def best_response(platform: Platform, econ: Economy, out: PoliticalOutcome) -> Platform:
    """Exact best response to an opponent platform in out's voting game.

    For each governance level e the service budget R = G(e,Y) is split by
    equalizing the two marginal vote shares (_split_budget), at the common
    multiplier mu(e). The vote share net of cost, v(e), is strictly
    concave: each Psi_g is concave in t because beta_g = B_g/Lambda0 < 1
    (B_g < 1 <= Lambda0), the best split of the concave budget R(e) is
    concave in e, and the cost is convex. So e is the unique root of the
    envelope condition f(e) = mu(e)*eta*R/e - c0*e, found by one
    _illinois_root solve on a bracket [a, b] with f(a) > 0 > f(b). First
    a doubles from 1 until c(a) >= 1.5 exceeds any vote share, so that
    v(a) < v(0) = 0 and f(a) < 0. Then a halves until f(a) > 0 (f grows
    without bound as e -> 0), and b is the last point it halved past. The
    halving and the root solve take at most _FOC_MAX_ITER steps each; a
    spent budget, a missing sign change or an opponent service that
    overflows to inf raises OracleError.
    """
    gov = econ.gov
    B_S, B_M, Y, m = out.B_S, out.B_M, out.Y, out.m
    beta_S = B_S / gov.lambda0
    beta_M = B_M / gov.lambda0

    e_bar, z_bar = platform.e, platform.z
    R_bar = gov.resources(e_bar, Y)
    tbar_S = (1.0 - z_bar) * R_bar / (1.0 - m)
    tbar_M = z_bar * R_bar / m
    if not (tbar_S > 0.0 and tbar_M > 0.0):
        raise DomainError("opponent services must be strictly positive")
    if not (math.isfinite(tbar_S) and math.isfinite(tbar_M)):
        raise OracleError("opponent services overflow; best_response cannot run at this scale")

    def foc(e):
        R = gov.resources(e, Y)
        t_S, _ = _split_budget(R, m, beta_S, beta_M, tbar_S, tbar_M)
        return vote_share_slope(t_S, tbar_S, beta_S) * gov.eta * R / e - gov.c0 * e

    a = 1.0
    while gov.cost(a) < 1.5:
        a *= 2.0
    f_a = f_b = foc(a)
    for _ in range(_FOC_MAX_ITER):
        if not f_a < 0.0:
            break
        b, f_b = a, f_a
        a *= 0.5
        f_a = foc(a)
    if not f_a > 0.0 > f_b:
        raise OracleError("no sign change of the envelope condition in best_response")
    e = _illinois_root(foc, a, b, f_a, f_b)
    R = gov.resources(e, Y)
    t_S, t_M = _split_budget(R, m, beta_S, beta_M, tbar_S, tbar_M)
    return Platform(e=e, z=m * t_M / R, t_S=t_S, t_M=t_M)


def best_response_fixed_point(
    start: tuple[float, float],
    econ: Economy,
    out: PoliticalOutcome,
) -> Platform:
    """Iterate best responses in out's voting game from (e, z) to a fixed point."""
    current = Platform(start[0], start[1], 0.0, 0.0)
    for _ in range(FIXED_POINT_MAX_ITER):
        nxt = best_response(current, econ, out)
        if max(abs(nxt.e - current.e), abs(nxt.z - current.z)) <= FIXED_POINT_TOL:
            return nxt
        current = nxt
    raise OracleError("best-response iteration did not converge")
