"""Reform families and comparative statics.

Broadening: a share 1-b of routine workers stay corner experts assigned
in proportions q_k; a share b take the broad profile H(q)q, which sits
proportional to the organizational mix and so creates no coordination
gaps. Every share is one design on the atoms [I; q], with mastery
weights proportional to ((1-b)q, b*H(q)). Integrators stay at the
minimal feasible mass

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

The b sweep is one array pass: broadening_allocation's grid form gives the
family as arrays on the one atom set [I; q] (the atoms' scales and each
share's weights, integrator share m and integrator profile), and
broadening_statics reads every share's flat Accounts (gap bundle G and
mass g, Y and the group knowledge, once the share is feasible) from one
production.accounts_rows call, then each share's political equilibrium
and welfare_accounts, each value with the bits of the per-share path.
`verify` holds every cell it emits against that path
(broadening_family(econ) at each share). theta_statics composes its
welfare through welfare_accounts too.

Interface intensity: the civic profile is tilted from q toward the gap
profile, u(alpha) = (1-alpha)*q + alpha*h*(q), at the fixed productive
allocation. Specialist knowledge falls at rate
[ (sum q^2)^2 - sum q^3 ] / D(q) <= 0 and integrator knowledge rises at
rate H(h*)**p * [1 - C(h*,q)] >= 0, both strict unless q is uniform.
The alpha sweep is one array pass too (interface_statics), and `verify`
holds every cell it emits against the per-point path
(interface_family(econ) at each stencil point).

Integration-cost statics: along theta the optimum moves only the integrator
share m = theta*D/(H + theta*D) and output Y = V*H/(H + theta*D), with
D = D(q) and H = H(h*). The corner specialists and the integrator profile
H*h* stay, and so do B_S and B_M, so dB_soc/dtheta = m'(theta)*(B_M - B_S):
civic capacity rises when integrators know more and falls when they know
less. theta_statics evaluates these closed forms from one optimum, one
accounts call and one corner_shares call (the optimum's own m and Y) per
grid, each row's welfare at the Y it reports; `verify` holds every row
against the per-theta optimum and its welfare accounts. The curves may
tie between neighbouring grid points but never reverse. Welfare carries
no sign assertion.

A reform family maps its parameter straight to the WelfareReport of the
allocation (and economy) it describes: the per-point path `verify` reads.

Each of the three statics, broadening_statics, interface_statics and
theta_statics, returns the table that `sweep --axis {b,alpha,theta}`
writes: a plain dict from CSV column name to column (a list), in CSV
order. A blank cell is None, and a constant column (the alpha sweep's
closed-form slopes) repeats its value on every row. The CLI formats that
table as it is, and `verify` reads its columns by name.

Thresholds quoted "for small theta" are closed forms over the (always
well-defined) family constructions: theta_cut above, and theta_small of
interface_threshold, the least root of one quadratic per grid alpha.
`verify` certifies each by a sign bracket of its finite-difference slope
(oracles.sign_bracket) and flags a cutoff above the primitive cutoff
where optimality of the organization is certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import Economy
from .errors import DomainError, OracleError
from .knowledge import coverage, fragmentation, system_knowledge
from .learning import max_scale, max_scale_batch
from .politics import equilibrium_from_groups
from .production import (
    accounts,
    accounts_rows,
    civic_accounts,
    corner_design,
    corner_shares,
    gap_profile_star,
    minimal_allocation,
    minimal_rows,
    productive_optimum,
)
from .welfare import (
    DECOMPOSITION_RESIDUAL,
    Decomposition,
    Family,
    decompose_along,
    stencil_points,
    total_welfare,
    welfare_accounts,
)

FLAT_SLOPE = 1e-14  # interface slope taken as 0 (q uniform) up to this size


def broadening_allocation(b, econ: Economy):
    """Mixed corner/broad specialist organization at broadening share b.

    Every share is a design on the atoms [I; q], the corners and the broad
    atom H(q)q, with mastery weights proportional to ((1-b)q, b*H(q)); at
    b = 0 the broad atom, and at b = 1 the corners, have zero weight. b is
    one share (an Allocation comes back) or a strictly increasing 1-d grid
    of shares (the family's arrays come back, a DesignRows whose rows
    follow the grid). The atoms are solved in one frontier batch, which
    gives H(q) too, and the integrator directions of all shares in one
    more; each row has the bits of its own call.
    """
    grid = np.asarray(b, dtype=float)
    shares = grid.ravel()
    if grid.ndim > 1 or shares.size == 0:
        raise DomainError("broadening shares must be a number or a non-empty 1-d grid")
    if not np.all((shares >= 0.0) & (shares <= 1.0)):
        raise DomainError("broadening share must lie in [0,1]")
    if np.any(np.diff(shares) <= 0.0):
        raise DomainError("a grid of broadening shares must be strictly increasing")
    q = econ.q
    dirs = np.vstack([np.eye(q.size), q])
    scales = max_scale_batch(econ.tech, dirs)
    raw = np.concatenate([(1.0 - shares)[:, None] * q, (shares * scales[-1])[:, None]], axis=1)
    rows = minimal_rows(dirs, scales, raw / raw.sum(axis=1, keepdims=True), econ)
    return rows.allocation(0) if grid.ndim == 0 else rows


def broadening_family(econ: Economy) -> Family:
    """The broadening reform path of one economy: the welfare report of
    broadening_allocation(b) at each share b."""
    return lambda b: total_welfare(econ, broadening_allocation(b, econ))


def broadening_statics(econ: Economy, b_grid) -> dict[str, list]:
    """The table `sweep --axis b` writes: CSV column name to column, in
    CSV order, one row per share of a strictly increasing grid. One array
    pass over broadening_allocation's grid form
    (accounts_rows, which checks each share's feasibility as accounts
    does), then per share the political equilibrium and the welfare
    accounts. Where the integrator share m is 0 (or 1) there is no voting
    game: the row holds only m, Y and the group knowledge, and its eight
    political and welfare cells are blank (None). Each value has the bits
    of the per-share path, broadening_family(econ)(b) (or accounts where
    m = 0), which `verify` holds it against.
    """
    grid = np.asarray(b_grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError("broadening statics need a 1-d grid of shares")
    rows = []
    block = broadening_allocation(grid, econ)
    for share, acc in zip(block.m.tolist(), accounts_rows(block, econ)):
        if 0.0 < share < 1.0:
            outcome = equilibrium_from_groups(econ, acc.Y, share, acc.B_S, acc.B_M)
            rows.append(welfare_accounts(econ, outcome).columns())
        else:
            rows.append({"m": share, "Y": acc.Y, "B_S": acc.B_S, "B_M": acc.B_M,
                         "B_soc": (1.0 - share) * acc.B_S + share * acc.B_M})
    names = ("m", "Y", "B_S", "B_M", "B_soc", "e_pol", "z_pol", "t_S", "t_M", "R",
             "service_welfare", "dispersion", "welfare")
    return {"b": grid.tolist(), **{name: [row.get(name) for row in rows] for name in names}}


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


def interface_profile(q: np.ndarray, alpha, h_star: np.ndarray) -> np.ndarray:
    """Civic profile (1-alpha)*q + alpha*h_star, tilted from q toward its
    gap profile h_star = gap_profile_star(q), which the caller computes
    once for all the alphas it tilts q by. An (M, 1) column of alphas gives
    the (M, K) stack of their profiles, each row with the bits of its own
    call."""
    return (1.0 - alpha) * q + alpha * h_star


def interface_family(econ: Economy) -> Family:
    """The interface-intensity path: the civic profile moves, the allocation
    stays the corner organization at mix q with minimal integrators. That
    equals the certified optimum below the cutoff and stays a well-defined
    feasible construction above it. Each alpha maps to the welfare report
    of that allocation under the tilted economy."""
    alloc = minimal_allocation(corner_design(econ.q), econ)
    h_star = gap_profile_star(econ.q)
    return lambda a: total_welfare(econ.with_u(interface_profile(econ.q, a, h_star)), alloc)


def interface_closed_slopes(econ: Economy) -> tuple[float, float]:
    """(B_S'(alpha), B_M'(alpha)): constants of the affine coverage path."""
    h_star = gap_profile_star(econ.q)
    return _closed_slopes(econ, h_star, max_scale(econ.tech, h_star))


def _closed_slopes(econ: Economy, h_star: np.ndarray, H: float) -> tuple[float, float]:
    """interface_closed_slopes given h*(q) and its frontier H = H(h*)."""
    q = econ.q
    s2 = float((q**2).sum())
    s3 = float((q**3).sum())
    B_S_slope = (s2**2 - s3) / fragmentation(q)
    B_M_slope = H**econ.p * (1.0 - coverage(h_star, q))
    return B_S_slope, B_M_slope


def dispersion_slope(B_S, B_M, dB_S, dB_M, m) -> float:
    """Closed-form d D / d alpha for linear group-knowledge paths."""
    B_soc = (1.0 - m) * B_S + m * B_M
    return (
        m * (1.0 - m) * (B_M - B_S) / B_soc * (dB_M / B_M - dB_S / B_S)
    )


def residual_checked(d: Decomposition, alpha: float) -> Decomposition:
    """The alpha sweep's stop rule: d, unless its decomposition residual is
    not within DECOMPOSITION_RESIDUAL (a nan residual is not), which raises
    OracleError naming alpha."""
    if not d.residual <= DECOMPOSITION_RESIDUAL:
        raise OracleError(
            f"decomposition residual {d.residual:.3e} exceeds "
            f"{DECOMPOSITION_RESIDUAL:.1e} at alpha={alpha:.6g}; "
            "the step may be too large for this family"
        )
    return d


def interface_statics(econ: Economy, alpha_grid: np.ndarray) -> dict[str, list]:
    """The table `sweep --axis alpha` writes: CSV column name to column, in
    CSV order, one row per grid point, the constant closed-form slopes
    B_S_slope, B_M_slope and B_soc_slope repeated on every row. One array
    pass: the fixed allocation's accounts under the civic profiles of all
    3n welfare-slope stencil points of an n-point grid come from one
    civic_accounts call; then, grid point by grid point, each stencil
    point's political equilibrium and welfare accounts feed
    decompose_along, whose report at the stencil's centre gives the point's
    curves and whose slope is dW_dalpha. Each value has the bits of the
    per-point path, decompose_along over interface_family(econ), and the
    sweep stops where that path would (residual_checked), before any later
    point is evaluated."""
    # interface_family's allocation, with the corners' frontier and H(h*)
    # solved in one batch
    h_star = gap_profile_star(econ.q)
    corners = corner_design(econ.q)
    scales = max_scale_batch(econ.tech, np.vstack([corners.directions, h_star]))
    alloc = minimal_rows(corners.directions, scales[:-1], corners.weights[None, :], econ).allocation(0)
    B_S_slope, B_M_slope = _closed_slopes(econ, h_star, float(scales[-1]))
    grid = np.asarray(alpha_grid, dtype=float).tolist()
    stencils = [stencil_points(a)[0] for a in grid]
    column = np.array(stencils).reshape(-1, 1)
    accs = civic_accounts(alloc, econ, interface_profile(econ.q, column, h_star))
    slopes = []
    for i, (a, points) in enumerate(zip(grid, stencils)):
        at = dict(zip(points, accs[3 * i:3 * i + 3]))

        def welfare_at(x):
            acc = at[x]
            outcome = equilibrium_from_groups(econ, acc.Y, alloc.m, acc.B_S, acc.B_M)
            return welfare_accounts(econ, outcome)

        slopes.append(residual_checked(decompose_along(econ, welfare_at, a), a))
    reports = [d.at for d in slopes]
    m = reports[0].m
    n = len(grid)
    return {
        "alpha": grid,
        "B_S": [r.B_S for r in reports],
        "B_M": [r.B_M for r in reports],
        "B_soc": [r.B_soc for r in reports],
        "dispersion": [r.dispersion for r in reports],
        "welfare": [r.welfare for r in reports],
        "B_S_slope": [B_S_slope] * n,
        "B_M_slope": [B_M_slope] * n,
        "B_soc_slope": [(1.0 - m) * B_S_slope + m * B_M_slope] * n,
        "dW_dalpha": [d.fd_total for d in slopes],
    }


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
    h_star = gap_profile_star(econ.q)
    H = max_scale(econ.tech, h_star)
    s_S, s_M = _closed_slopes(econ, h_star, H)
    if interface_flat(s_S, s_M):
        return 0.0
    D = fragmentation(econ.q)
    Hp = H**econ.p
    half_eta = 0.5 * econ.gov.eta
    m_small = -s_S / (s_M - s_S)
    for a in alpha_grid:
        u_a = interface_profile(econ.q, float(a), h_star)
        B_S = float(econ.q @ u_a)
        B_M = Hp * coverage(h_star, u_a)
        k = (B_M - B_S) * (s_M / B_M - s_S / B_S)
        if k < 0.0:
            b = half_eta * (s_M - s_S) - k
            c = half_eta * s_S
            m_small = min(m_small, 2.0 * c / (-b - math.sqrt(b * b - 4.0 * k * c)))
    return m_small * H / ((1.0 - m_small) * D)


def theta_statics(econ: Economy, theta_grid: np.ndarray) -> dict[str, list]:
    """The table `sweep --axis theta` writes: CSV column name to column, in
    CSV order, one row per theta of a grid in (0, theta_bar), from the
    closed forms of the module docstring, each row's welfare at the Y it
    reports. Along an increasing grid the integrator share never falls,
    output never rises and civic capacity never moves against the sign of
    B_M - B_S; it raises if a curve reverses. Neighbouring points may round
    to one value, so strictness is left to the theta-statics check on the
    scenario's own grid. Welfare is reported without any sign assertion.
    """
    grid = np.asarray(theta_grid, dtype=float)
    if np.any(grid <= 0.0) or np.any(grid >= econ.theta_bar):
        raise DomainError("theta grid must lie strictly inside (0, theta_bar)")

    first = econ.with_theta(float(grid[0]))
    opt, alloc = productive_optimum(first)
    acc = accounts(alloc, first)
    H, D = opt.H_hstar, fragmentation(econ.q)
    m, Y = corner_shares(grid * D, H, econ.V)
    reports = [
        welfare_accounts(econ, equilibrium_from_groups(econ, y, share, acc.B_S, acc.B_M))
        for y, share in zip(Y.tolist(), m.tolist())
    ]
    B_soc = [r.B_soc for r in reports]
    # correctly rounded monotone operations can tie but never reverse
    if not (np.all(np.diff(m) >= 0.0) and np.all(np.diff(Y) <= 0.0)):
        raise OracleError("integration-cost monotonicity violated (bug)")
    if not np.all(np.sign(acc.B_M - acc.B_S) * np.diff(B_soc) >= 0.0):
        raise OracleError(
            "civic capacity not moving with sign(B_M - B_S) in integration cost (bug)"
        )
    thetas = grid.tolist()
    return {
        "theta": thetas,
        "m": m.tolist(),
        "Y": Y.tolist(),
        "B_soc": B_soc,
        "welfare": [r.welfare for r in reports],
        # the Python float `**`, which the array square can miss by an ulp
        "dm_dtheta": [D * H / (H + t * D) ** 2 for t in thetas],
    }
