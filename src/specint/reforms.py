"""Reform families and comparative statics.

Broadening: a share 1-b of routine workers stay corner experts assigned
in proportions q_k; a share b take the broad profile H(q)q, which sits
proportional to the organizational mix and so creates no coordination
gaps. Integrators stay at the minimal feasible mass

    m(b) = theta*(1-b)*D(q) / (H(h*) + theta*(1-b)*D(q)),

and aggregate civic capacity follows the closed form

    B_soc(b) = (1-m(b)) * [(1-b)*(q.u) + b*H(q)**p*C(q,u)] + m(b)*B_M,

whose slope at b=0 is (1-m(0)) * [H(q)**p*C(q,u) - B_soc(0)]. The slope
is positive exactly below the civic cutoff

    theta_cut(q,u) = H(h*) * [H(q)**p*C(q,u) - q.u]
                     / (D(q) * [B_M - H(q)**p*C(q,u)])

whenever q.u < H(q)**p*C(q,u) < B_M (always/never positive outside that
band).

The welfare slope at b=0 is closed too. With m' = -m(0)(1-m(0)),
Y' = Y(0)*(H(q) - 1 + m(0)) at Y(0) = V(1-m(0)), B_S' = H(q)**p*C(q,u) - q.u
at B_S(0) = q.u, and B_M constant, the dispersion penalty moves at

    D' = B_soc'/B_soc - (1-m) B_S'/B_S + m' log(B_S/B_M).

As W = (1-tau)*Y + log R - D and log R = log Y + (eta/2)*log B_soc + const,
W'(0) = A + eta*B_soc'/(2*B_soc) with A = ((1-tau) + 1/Y(0))*Y' - D' free
of eta: a marginal broadening reform raises welfare exactly on one side of
eta* = -2*B_soc*A/B_soc' (above it when B_soc' > 0).

Interface intensity: the civic profile is tilted from q toward the gap
profile, u(alpha) = (1-alpha)*q + alpha*h*(q), at the fixed productive
allocation. Specialist knowledge falls at rate
[ (sum q^2)^2 - sum q^3 ] / D(q) <= 0 and integrator knowledge rises at
rate H(h*)**p * [1 - C(h*,q)] >= 0, both strict unless q is uniform.

Integration-cost statics: along theta the optimum moves only the integrator
share m = theta*D/(H + theta*D) and output Y = V*H/(H + theta*D), with
D = D(q) and H = H(h*). The corner specialists and the integrator profile
H*h* stay, and so do B_S and B_M, so dB_soc/dtheta = m'(theta)*(B_M - B_S):
civic capacity rises when integrators know more and falls when they know
less. theta_statics evaluates these closed forms from one optimum and one
accounts call per grid, each row's welfare at the Y it reports; `verify`
holds every row against the per-theta optimum and its welfare accounts.
Welfare carries no sign assertion.

Thresholds quoted "for small theta" are closed forms over the (always
well-defined) family constructions: theta_cut above, and theta_small of
interface_threshold, the least root of one quadratic per grid alpha. Only
bisect_broadening_cutoff still bisects, as the finite-difference oracle
that `verify` holds theta_cut against, and `verify` flags a cutoff above
the primitive cutoff where optimality of the organization is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import Economy
from .errors import DomainError, InfeasibleAllocationError, OracleError
from .knowledge import coverage, fragmentation, system_knowledge
from .learning import max_scale, max_scale_batch
from .politics import equilibrium_from_groups
from .production import (
    SpecialistDesign,
    _minimal_allocations,
    accounts,
    corner_design,
    gap_profile_star,
    minimal_allocation,
    productive_optimum,
    single_atom,
)
from .welfare import Family, decompose_along, service_welfare

CUTOFF_TOL = 1e-7  # theta bracket width of bisect_broadening_cutoff
FLAT_SLOPE = 1e-14  # interface slope taken as 0 (q uniform) up to this size


def broadening_allocation(b, econ: Economy):
    """Mixed corner/broad specialist organization at broadening share b.

    b is one share (an Allocation comes back) or a 1-d grid of shares (a
    list comes back, one per share). The atoms [I; q] are solved in one
    frontier batch, which gives H(q) too, and the integrator directions of
    all shares in one more; each allocation has the bits of its own call.
    """
    grid = np.asarray(b, dtype=float)
    if grid.ndim > 1:
        raise DomainError("broadening shares must be a number or a 1-d grid")
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise DomainError("broadening share must lie in [0,1]")
    q = econ.q
    K = q.size
    dirs = np.vstack([np.eye(K), q])
    scales = max_scale_batch(econ.tech, dirs)
    designs, atom_scales = [], []
    for share in grid.ravel().tolist():
        if share == 0.0:
            designs.append(corner_design(q))
            atom_scales.append(scales[:K])
        elif share == 1.0:
            designs.append(single_atom(q))
            atom_scales.append(scales[K:])
        else:
            raw = np.concatenate([(1.0 - share) * q, [share * scales[-1]]])
            designs.append(SpecialistDesign(directions=dirs, weights=raw / raw.sum()))
            atom_scales.append(scales)
    allocs = _minimal_allocations(designs, econ, atom_scales)
    return allocs[0] if grid.ndim == 0 else allocs


def broadening_family(econ: Economy) -> Family:
    """The broadening reform path of one economy."""
    return lambda b: (econ, broadening_allocation(b, econ))


@dataclass(frozen=True)
class BroadeningSlope:
    """Closed-form slopes at b=0 (civic capacity and welfare), the theta
    regime of the civic slope, and the eta* where the welfare slope flips."""

    value: float
    welfare: float
    eta_star: float | None  # None when the civic slope vanishes
    cutoff: float | None
    regime: str  # "cutoff", "always_positive", "never_positive"


def broadening_derivative(econ: Economy) -> BroadeningSlope:
    """dB_soc/db and dW/db at b=0, with the civic cutoff when one exists."""
    q, u = econ.q, econ.u
    h_star = gap_profile_star(q)
    H_h = max_scale(econ.tech, h_star)
    Hq = max_scale(econ.tech, q)
    B_broad = Hq**econ.p * coverage(q, u)
    B_M = system_knowledge(H_h * h_star, u, econ.p)
    qu = float(q @ u)
    D = fragmentation(q)
    m0 = econ.theta * D / (H_h + econ.theta * D)
    B_soc0 = (1.0 - m0) * qu + m0 * B_M
    value = (1.0 - m0) * (B_broad - B_soc0)
    Y0 = econ.V * (1.0 - m0)
    dY = Y0 * (Hq - 1.0 + m0)
    dm = -m0 * (1.0 - m0)
    dD = value / B_soc0 - (1.0 - m0) * (B_broad - qu) / qu + dm * math.log(qu / B_M)
    A = ((1.0 - econ.tau) + 1.0 / Y0) * dY - dD
    welfare = A + econ.gov.eta * value / (2.0 * B_soc0)
    eta_star = -2.0 * B_soc0 * A / value if value != 0.0 else None
    if B_broad >= B_M:
        regime, cutoff = "always_positive", None
    elif B_broad <= qu:
        regime, cutoff = "never_positive", None
    else:
        regime, cutoff = "cutoff", H_h * (B_broad - qu) / (D * (B_M - B_broad))
    return BroadeningSlope(value, welfare, eta_star, cutoff, regime)


def bisect_broadening_cutoff(econ: Economy) -> float:
    """Locate the theta where the finite-difference slope dB_soc/db at b=0
    (decompose_along, independent of the closed form) flips sign, bisected
    to width CUTOFF_TOL in theta."""

    def slope(theta: float) -> float:
        return decompose_along(broadening_family(econ.with_theta(theta)), 0.0).dB_soc

    lo = 1e-9
    if slope(lo) <= 0.0:
        raise OracleError("civic-capacity slope not positive at tiny theta")
    hi = max(econ.theta_bar, 1.0)
    while slope(hi) > 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise OracleError("civic-capacity slope never flips sign")
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < CUTOFF_TOL * 0.5:
            break
    return 0.5 * (lo + hi)


def interface_profile(q: np.ndarray, alpha: float) -> np.ndarray:
    """Civic profile tilted from q toward the gap profile h*(q)."""
    return (1.0 - alpha) * q + alpha * gap_profile_star(q)


def interface_family(econ: Economy) -> Family:
    """The interface-intensity path: the civic profile moves, the allocation
    stays the corner organization at mix q with minimal integrators. That
    equals the certified optimum below the cutoff and stays a well-defined
    feasible construction above it."""
    alloc = minimal_allocation(corner_design(econ.q), econ)
    return lambda alpha: (econ.with_u(interface_profile(econ.q, alpha)), alloc)


@dataclass(frozen=True)
class InterfaceStaticsReport:
    """Curves and slopes along the interface-intensity family."""

    alpha_grid: np.ndarray
    B_S: np.ndarray
    B_M: np.ndarray
    B_soc: np.ndarray
    welfare: np.ndarray
    dispersion: np.ndarray
    B_S_slope: float
    B_M_slope: float
    B_soc_slope: float
    dW: np.ndarray


def interface_closed_slopes(econ: Economy) -> tuple[float, float]:
    """(B_S'(alpha), B_M'(alpha)): constants of the affine coverage path."""
    q = econ.q
    h = gap_profile_star(q)
    s2 = float((q**2).sum())
    s3 = float((q**3).sum())
    B_S_slope = (s2**2 - s3) / fragmentation(q)
    B_M_slope = max_scale(econ.tech, h) ** econ.p * (1.0 - coverage(h, q))
    return B_S_slope, B_M_slope


def dispersion_slope(B_S, B_M, dB_S, dB_M, m) -> float:
    """Closed-form d D / d alpha for linear group-knowledge paths."""
    B_soc = (1.0 - m) * B_S + m * B_M
    return (
        m * (1.0 - m) * (B_M - B_S) / B_soc * (dB_M / B_M - dB_S / B_S)
    )


def interface_statics(econ: Economy, alpha_grid: np.ndarray) -> InterfaceStaticsReport:
    """Evaluate the interface-intensity comparative statics in one pass
    over the grid: each point's curves are the report at the centre of its
    welfare-slope stencil."""
    B_S_slope, B_M_slope = interface_closed_slopes(econ)
    fam = interface_family(econ)
    lo, hi = float(alpha_grid[0]), float(alpha_grid[-1])
    slopes = [decompose_along(fam, a, lo=lo, hi=hi) for a in alpha_grid]
    reports = [d.at for d in slopes]
    B_S = np.array([r.outcome.B_S for r in reports])
    B_M = np.array([r.outcome.B_M for r in reports])
    B_soc = np.array([r.outcome.B_soc for r in reports])
    W = np.array([r.welfare for r in reports])
    D = np.array([r.dispersion for r in reports])
    m = reports[0].outcome.m
    dB_soc = (1.0 - m) * B_S_slope + m * B_M_slope
    dW = np.array([d.fd_total for d in slopes])
    return InterfaceStaticsReport(
        alpha_grid=alpha_grid,
        B_S=B_S,
        B_M=B_M,
        B_soc=B_soc,
        welfare=W,
        dispersion=D,
        B_S_slope=B_S_slope,
        B_M_slope=B_M_slope,
        B_soc_slope=dB_soc,
        dW=dW,
    )


def interface_flat(s_S: float, s_M: float) -> bool:
    """Whether both interface slopes (B_S', B_M') vanish, as they do
    exactly when q is uniform; the results for small theta are then void."""
    return abs(s_S) <= FLAT_SLOPE and abs(s_M) <= FLAT_SLOPE


def interface_threshold(econ: Economy, alpha_grid: np.ndarray) -> float:
    """theta_small: the integration cost below which dB_soc/dalpha and
    dW/dalpha are both negative at every alpha of the grid (0.0 when q is
    uniform, where both curves are flat).

    Closed form. theta enters only through the integrator share
    m = theta*D/(H + theta*D) of the corner organization at mix q (D the
    fragmentation of q, H the frontier at h*), which rises from 0 toward
    1, so theta_small = m*H/((1-m)*D) at the threshold share m. Write
    s_S = B_S' < 0 < s_M = B_M' for the constant group slopes, strict
    unless q is uniform. Then dB_soc/dalpha = (1-m)s_S + m s_M is negative
    exactly for m < m_b = -s_S/(s_M - s_S) < 1. Output is fixed along
    alpha and R_B/R = eta/(2 B_soc) with B_soc > 0, so at each alpha
    dW/dalpha has the sign of

        Q(m) = (eta/2)((1-m)s_S + m s_M) - m(1-m)k
             = k m^2 + b m + c,    k = (B_M - B_S)(s_M/B_M - s_S/B_S),

    with c = Q(0) = eta*s_S/2 < 0 and Q(m_b) = -m_b(1-m_b)k. If k >= 0, Q
    is convex (or affine) with Q(0) < 0 and Q(m_b) <= 0, so it is negative
    on [0, m_b). If k < 0, Q(m_b) > 0: Q is concave with both roots
    positive (so b > 0), and the smaller one lies in (0, m_b). It is
    2c/(-b - sqrt(b^2 - 4kc)), the form free of cancellation (Higham,
    Accuracy and Stability of Numerical Algorithms, section 1.8). The
    threshold share is the least of m_b and those roots; it is below 1, so
    theta_small is finite.
    """
    s_S, s_M = interface_closed_slopes(econ)
    if interface_flat(s_S, s_M):
        return 0.0
    h_star = gap_profile_star(econ.q)
    H = max_scale(econ.tech, h_star)
    D = fragmentation(econ.q)
    Hp = H**econ.p
    half_eta = 0.5 * econ.gov.eta
    m_small = -s_S / (s_M - s_S)
    for a in alpha_grid:
        u_a = interface_profile(econ.q, float(a))
        B_S = float(econ.q @ u_a)
        B_M = Hp * coverage(h_star, u_a)
        k = (B_M - B_S) * (s_M / B_M - s_S / B_S)
        if k < 0.0:
            b = half_eta * (s_M - s_S) - k
            c = half_eta * s_S
            m_small = min(m_small, 2.0 * c / (-b - math.sqrt(b * b - 4.0 * k * c)))
    return m_small * H / ((1.0 - m_small) * D)


@dataclass(frozen=True)
class ThetaStaticsReport:
    """Curves of the productive optimum across integration costs."""

    theta_grid: np.ndarray
    m: np.ndarray
    Y: np.ndarray
    B_soc: np.ndarray
    welfare: np.ndarray
    dm_dtheta: np.ndarray
    welfare_monotone: bool


def theta_statics(econ: Economy, theta_grid: np.ndarray) -> ThetaStaticsReport:
    """Productive optimum and welfare across a theta grid in (0, theta_bar),
    from the closed forms of the module docstring. Verifies the monotonicity
    pattern (integrator share rising, output falling, civic capacity moving
    strictly in the direction of B_M - B_S) and raises if the pattern
    fails; welfare is reported without any sign assertion.
    """
    grid = np.asarray(theta_grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(grid >= econ.theta_bar):
        raise DomainError("theta grid must lie strictly inside (0, theta_bar)")

    first = econ.with_theta(float(grid[0]))
    opt, alloc = productive_optimum(first)
    acc = accounts(alloc, first)
    H, D = opt.H_hstar, fragmentation(econ.q)
    m = grid * D / (H + grid * D)
    Y = econ.V * H / (H + grid * D)
    if not np.all(m < 1.0 / 3.0):
        raise InfeasibleAllocationError("integrator share bound violated (bug)")
    outcomes = [
        equilibrium_from_groups(econ, y, share, acc.B_S, acc.B_M)
        for y, share in zip(Y.tolist(), m.tolist())
    ]
    B_soc = np.array([o.B_soc for o in outcomes])
    W = np.array([(1.0 - econ.tau) * o.Y + service_welfare(o, o.m) for o in outcomes])
    if not (np.all(np.diff(m) > 0.0) and np.all(np.diff(Y) < 0.0)):
        raise OracleError("integration-cost monotonicity violated (bug)")
    if not np.all(np.sign(acc.B_M - acc.B_S) * np.diff(B_soc) > 0.0):
        raise OracleError(
            "civic capacity not moving with sign(B_M - B_S) in integration cost (bug)"
        )
    w_diff = np.diff(W)
    return ThetaStaticsReport(
        theta_grid=grid,
        m=m,
        Y=Y,
        B_soc=B_soc,
        welfare=W,
        # the Python float `**`, which the array square can miss by an ulp
        dm_dtheta=np.array([D * H / (H + t * D) ** 2 for t in grid.tolist()]),
        welfare_monotone=bool(np.all(w_diff > 0.0) or np.all(w_diff < 0.0)),
    )
