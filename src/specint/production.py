"""Organization of production: specialist designs, coordination gaps,
the productive optimum, and the exhaustive design oracle.

A specialist design is a finite list of atoms (direction, mastery weight):
the mastery-weighted direction distribution of the specialist layer. The
population share of an atom is proportional to weight * lambda(direction),
since broader directions need more heads per unit of mastery. Specialists
run at full scale H(pi)*pi, so an allocation stores its atoms' scales H(pi_j),
solved once by the function that builds it. mean_rows and gap_bundle_rows
give the aggregate mix and the gap bundle of each design of a stack, and
SpecialistDesign.mean is a one-row call. minimal_rows() builds the
minimal-integrator allocations of a block of designs on one atom set, a
DesignRows; layer_rows summarizes the specialist layer of each row of such
a block, and accounts_rows() adds up each row's feasibility, output
and group knowledge in one economy; accounts() does the same on an
allocation's cached one-row layer, with the bits and the feasibility
errors that row has in any block, and civic_accounts() under each civic
profile of a stack. productive_optimum() is the one-row case of
optimum_rows(), which solves the corner optimum of a block of economies
of one K, and optimum_accounts() adds each row's accounts in its own
economy. h* (gap_profile_star) and m*, Y* (corner_shares, which
theta_statics shares) each have one implementation, for a row or a stack.

For an aggregate mix x, the minimal-integrator organization has

    m(x) = theta*Gamma(z) / (E_nu[lambda] + theta*Gamma(z)),
    Y(x) = V * C(x,q) / (E_nu[lambda] + theta*Gamma(z)),

with z = E_nu[(x - pi)^+] the gap bundle per unit of specialist mastery.
Corner designs give E_nu[lambda] = 1 and z = x*(1-x).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import learning
from .errors import DomainError, HypothesisError, OracleError
from .knowledge import SIMPLEX_SUM_TOL, SIMPLEX_TOL, feasible_bundle, fragmentation
from .knowledge import ProfileStack, profile_stack, system_knowledge

if TYPE_CHECKING:
    from .economy import Economy

FEAS_TOL = 1e-10
GAP_TOL = 1e-15  # a gap mass at most this is taken as no gap
ENUM_BATCH = 200_000  # atom sets per grid_designs batch


@dataclass(frozen=True)
class SpecialistDesign:
    """Mastery-weighted direction atoms of the specialist layer."""

    directions: np.ndarray  # (n_atoms, K), rows on the simplex
    weights: np.ndarray  # (n_atoms,), nonnegative, sums to 1

    def __post_init__(self):
        dirs, w = self.directions, self.weights
        if not (isinstance(dirs, np.ndarray) and isinstance(w, np.ndarray)):
            raise DomainError("design directions and weights must be numpy arrays")
        if dirs.ndim != 2:
            raise DomainError("design directions must be a 2-d (n_atoms, K) array")
        if dirs.shape[0] != w.size:
            raise DomainError("one weight per direction atom required")
        if np.any(w < -SIMPLEX_TOL):
            raise DomainError("mastery weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > SIMPLEX_SUM_TOL:
            raise DomainError("mastery weights must sum to one")
        off = np.abs(dirs.sum(axis=1) - 1.0) > SIMPLEX_SUM_TOL
        if dirs.shape[1] < 2 or np.any(dirs < -SIMPLEX_TOL) or np.any(off):
            raise DomainError("atom directions must lie on the simplex")

    def mean(self) -> np.ndarray:
        """Aggregate specialist mix implied by the atoms: the one-row call
        of mean_rows."""
        return mean_rows(self.weights[None, :], self.directions)[0]

    def is_corner(self) -> bool:
        return bool(np.all(self.directions.max(axis=1) > 1.0 - 1e-12))


def corner_design(mix: np.ndarray) -> SpecialistDesign:
    """All-corner design whose mastery weights reproduce the given mix."""
    return SpecialistDesign(directions=np.eye(mix.size), weights=mix)


@dataclass(frozen=True)
class Allocation:
    """Occupational structure: integrator mass, specialist design, the
    integrator knowledge profile, and the atoms' frontier scales H(pi_j)."""

    m: float
    design: SpecialistDesign
    integrator_profile: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        if not (0.0 <= self.m < 1.0 + 1e-12):
            raise DomainError("integrator mass must lie in [0,1)")
        prof, scales = self.integrator_profile, self.scales
        if not (isinstance(prof, np.ndarray) and isinstance(scales, np.ndarray)):
            raise DomainError("integrator profile and atom scales must be numpy arrays")
        if np.any(prof < -1e-12):
            raise DomainError("integrator profile must be nonnegative")
        if scales.shape != self.design.weights.shape:
            raise DomainError("one frontier scale per design atom required")

    @cached_property
    def layer(self) -> SpecialistLayer:
        """The specialist layer at the atoms' frontier scales, as the one
        row of a block (layer_rows). It depends on the allocation alone, so
        it is summarized once however many economies evaluate the
        allocation."""
        design = self.design
        return layer_rows(
            design.directions, self.scales, design.weights[None, :],
            np.array([self.m]), self.integrator_profile[None, :],
        )

    def fits_budget(self, tech: learning.LearningTech) -> bool:
        """Whether the integrator profile fits tech's learning budget,
        checked once per technology."""
        memo = self.__dict__.setdefault("_fits_budget", {})
        fits = memo.get(tech)
        if fits is None:
            fits = memo[tech] = feasible_bundle(self.integrator_profile, tech)
        return fits


@dataclass(frozen=True)
class SpecialistLayer:
    """The specialist layer of a block of designs on shared atoms, one row
    per design: head-count shares mu_j (N, n_atoms), atom profiles
    H(pi_j)*pi_j (n_atoms, K), aggregate specialist knowledge S (N, K) and
    its mass (N, 1), the aggregate gap bundle G (N, K), its mass g (N,)
    (0.0 where at most GAP_TOL) and the integration capacity J (N,) (inf
    where there is no gap, so that no capacity test fails there). stack
    holds the atoms' profiles, then the rows' integrator profiles, as
    system_knowledge's economy-free half."""

    mu: np.ndarray
    profiles: np.ndarray
    S: np.ndarray
    total: np.ndarray
    G: np.ndarray
    g: np.ndarray
    J: np.ndarray
    stack: ProfileStack


def layer_rows(directions, scales, weights, m, integrator) -> SpecialistLayer:
    """The specialist layer of each row of a block of designs on the atoms
    `directions` at frontier scales H(pi_j): per row its mastery weights
    (N, n_atoms), integrator share m (N,) and integrator profile (N, K).

    Atom j holds head-count share proportional to w_j/H(pi_j) and profile
    H(pi_j)*pi_j; gaps are taken against the realized mix. Every step is
    row-wise (row_products, row sums), so a row has the same bits in any
    block, the one-row block of Allocation.layer included.
    """
    mu = weights / scales
    mu /= mu.sum(axis=1, keepdims=True)
    profiles = scales[:, None] * directions
    specialists = (1.0 - m)[:, None]
    S = specialists * row_products(mu, profiles)
    total = S.sum(axis=1, keepdims=True)
    # a row with no specialists (m = 1) has no gap
    mix = np.divide(S, total, out=np.zeros_like(S), where=total > 0.0)
    shortfall = np.clip(profiles.sum(axis=1, keepdims=True) * mix[:, None, :] - profiles, 0.0, None)
    G = specialists * row_products(mu, shortfall)
    g = G.sum(axis=1)
    gap = g > GAP_TOL
    g[~gap] = 0.0
    J = np.full(g.shape, np.inf)
    J[gap] = m[gap] * integrator_capacity(integrator[gap], G[gap] / g[gap, None])
    stack = profile_stack(np.vstack([profiles, integrator]))
    return SpecialistLayer(mu=mu, profiles=profiles, S=S, total=total, G=G, g=g, J=J, stack=stack)


def integrator_capacity(s, h):
    """Bundles of gap profile h embedded in profile s: min s_k/h_k over
    h_k>0. Given (N,K) stacks it returns one value per row, as an array."""
    sv = np.maximum(np.asarray(s, dtype=float), 0.0)
    hv = np.asarray(h, dtype=float)
    mask = hv > 0.0
    if not mask.any(axis=-1).all():
        raise DomainError("gap profile has no positive coordinate")
    J = np.divide(sv, hv, out=np.full(hv.shape, np.inf), where=mask).min(axis=-1)
    return J if J.ndim else float(J)


@dataclass(frozen=True)
class Accounts:
    """What an allocation adds up to in one economy: the aggregate gap
    bundle G and its mass g (0.0 without a gap), output Y, and the group
    system knowledge of specialists (B_S) and integrators (B_M)."""

    G: np.ndarray
    g: float
    Y: float
    B_S: float
    B_M: float


def accounts(alloc: Allocation, econ: Economy) -> Accounts:
    """Evaluate a feasible allocation at its atoms' stored frontier scales.

    The specialist layer with its normalized knowledge profiles, and the
    budget check (per learning technology), are computed once per
    allocation; what depends on the rest of the economy is evaluated on
    every call. Raises DomainError unless the integrator profile fits the
    learning budget and integrators cover theta times the gap mass.
    """
    return _economy_accounts(alloc.layer, [alloc.fits_budget(econ.tech)], econ, econ.u[None, :])[0]


def accounts_rows(rows: DesignRows, econ: Economy) -> list[Accounts]:
    """accounts of every row of `rows`, each with the bits of
    accounts(rows.allocation(i), econ), from one layer_rows pass over the
    block. Like accounts it checks feasibility, row by row in order, and
    raises the DomainError of the first row that fails."""
    layer = layer_rows(rows.directions, rows.scales, rows.weights, rows.m, rows.integrator)
    fits = feasible_bundle(rows.integrator, econ.tech).tolist()
    return _economy_accounts(layer, fits, econ, econ.u[None, :])


def civic_accounts(alloc: Allocation, econ: Economy, civic: np.ndarray) -> list[Accounts]:
    """accounts of one allocation under each civic profile of an (M, K)
    stack, each with the bits of accounts(alloc, econ.with_u(civic[i])).
    The stack is checked row by row as with_u checks one profile, and
    feasibility (which no civic profile moves) once; the group knowledge of
    every row comes from one system_knowledge call."""
    econ.check_civic_stack(civic)
    return _economy_accounts(alloc.layer, [alloc.fits_budget(econ.tech)], econ, civic)


def _economy_accounts(
    layer: SpecialistLayer, fits: list[bool], econ: Economy, civic: np.ndarray
) -> list[Accounts]:
    """The Accounts of each row of a specialist layer in one economy under
    each civic profile of an (M, K) stack, civic profile by civic profile,
    given whether each row's integrator profile fits its learning budget:
    each row's feasibility in order, then the group knowledge from one
    system_knowledge call of the layer's stack against the civic stack (the
    atoms' values shared by every row)."""
    rows = len(fits)
    _check_feasible(layer, fits, [econ.theta] * rows)
    knowledge = system_knowledge(layer.stack, civic, econ.p)
    n_atoms = len(layer.profiles)
    return _add_up(layer, [econ.V] * rows, econ.q, knowledge[:, None, :n_atoms], knowledge[:, n_atoms:])


def _check_feasible(layer: SpecialistLayer, fits: list[bool], theta: list[float]) -> None:
    """Raise the DomainError of the first row of a layer, in order, whose
    integrator profile does not fit its learning budget or whose
    integrators do not cover its theta times the gap mass."""
    for ok, mass, J, t in zip(fits, layer.g.tolist(), layer.J.tolist(), theta):
        if not ok:
            raise DomainError("integrator profile exceeds the learning budget")
        if J < t * mass - FEAS_TOL:
            raise DomainError(f"integration capacity {J:.6e} below requirement {t * mass:.6e}")


def _add_up(layer: SpecialistLayer, V: list[float], q: np.ndarray, atoms, integrators) -> list[Accounts]:
    """The Accounts of each row of a feasible layer under each of M civic
    profiles, given each row's V and q ((K,) or (N, K)) and the system
    knowledge of the atoms ((M, N or 1, n_atoms)) and of the rows'
    integrator profiles ((M, N))."""
    g = layer.g.tolist()
    Y = [v * c for v, c in zip(V, np.minimum(layer.S, layer.total * q).sum(axis=1).tolist())]
    # B_S adds the atoms' terms left to right from 0, with the bits of a
    # Python sum (np.sum adds 8 or more terms pairwise, and a contraction
    # such as einsum rounds otherwise); + 0.0 gives the 0.0 that a sum from
    # 0 has where every term is -0.0
    B_S = np.add.accumulate(atoms * layer.mu, axis=-1)[..., -1] + 0.0
    return [
        Accounts(G=G, g=mass, Y=y, B_S=b_S, B_M=b_M)
        for S_row, M_row in zip(B_S.tolist(), integrators.tolist())
        for G, mass, y, b_S, b_M in zip(layer.G, g, Y, S_row, M_row)
    ]


@dataclass(frozen=True)
class ProductiveOptimum:
    """Closed-form optimum under the coordination cutoff."""

    h_star: np.ndarray
    m_star: float
    Y_star: float
    H_hstar: float


def gap_profile_star(q: np.ndarray) -> np.ndarray:
    """Optimal gap profile h*_k = q_k(1-q_k)/D(q). Given an (N,K) stack it
    returns one profile per row, each with the bits of its own 1-d call."""
    D = np.asarray(fragmentation(q))[..., None]
    if (D <= 0.0).any():
        raise DomainError("gap profile undefined for a corner requirement")
    return q * (1.0 - q) / D


def corner_shares(theta_D, H, V):
    """m* = theta*D/(H + theta*D) and Y* = V*H/(H + theta*D) of the corner
    organization, elementwise over an array theta*D(q) and H = H(h*), V; an
    m* of 1/3 or more raises DomainError (a bug: the cutoff keeps it below)."""
    m = theta_D / (H + theta_D)
    Y = V * H / (H + theta_D)
    if not (m < 1.0 / 3.0).all():
        raise DomainError("integrator share bound violated (bug)")
    return m, Y


def productive_optimum(econ: Economy) -> tuple[ProductiveOptimum, Allocation]:
    """Corner specialists aligned with q plus gap-matched integrators: the
    one-row case of optimum_rows.

    Requires a strictly interior q (DomainError otherwise) and theta below
    the coordination cutoff (HypothesisError otherwise).
    """
    rows = optimum_rows([econ])
    return rows.optimum(0), rows.allocation(0)


@dataclass(frozen=True)
class OptimumRows:
    """The productive optimum of each economy of a block of one K, one row
    per economy: q, h*, H(h*), m* and Y*."""

    q: np.ndarray  # (N, K)
    h_star: np.ndarray  # (N, K)
    H: np.ndarray  # (N,)
    m: np.ndarray  # (N,)
    Y: np.ndarray  # (N,)

    def optimum(self, i: int) -> ProductiveOptimum:
        """Row i as a ProductiveOptimum."""
        return ProductiveOptimum(
            h_star=self.h_star[i], m_star=float(self.m[i]), Y_star=float(self.Y[i]),
            H_hstar=float(self.H[i]),
        )

    def allocation(self, i: int) -> Allocation:
        """Row i as an Allocation: corner atoms (H = 1 exactly) weighted by
        q, and integrators at H(h*)*h*."""
        return Allocation(
            m=float(self.m[i]), design=corner_design(self.q[i]),
            integrator_profile=self.H[i] * self.h_star[i], scales=np.ones(self.q.shape[1]),
        )


def _by_family(econs):
    """Per learning family among econs: a technology of it, the indices of
    its economies and their per-row params (the param column of the
    frontier kernels)."""
    for family in learning.FAMILIES:
        index = [i for i, e in enumerate(econs) if e.tech.family == family]
        if index:
            yield econs[index[0]].tech, index, [econs[i].tech.param for i in index]


def optimum_rows(econs) -> OptimumRows:
    """productive_optimum of each economy of a non-empty sequence of one
    K, mixed learning families allowed, each row with the bits of its
    one-row call: the hypotheses row by row, raising the error of the first
    economy that fails them, then D(q) and h* of the stack, H(h*) from one
    frontier solve per family, and corner_shares' m* and Y*."""
    econs = tuple(econs)
    for econ in econs:
        if float(econ.q.min()) <= 0.0:
            raise DomainError("productive requirement must be strictly interior")
        if econ.theta >= econ.theta_bar:
            raise HypothesisError(
                f"theta={econ.theta:.6g} is not below the coordination cutoff "
                f"theta_bar={econ.theta_bar:.6g}; the corner organization is not "
                "certified optimal there"
            )
    q = np.array([e.q for e in econs])
    h_star = gap_profile_star(q)
    H = np.empty(len(econs))
    for tech, index, params in _by_family(econs):
        H[index] = learning.max_scale_batch(tech, h_star[index], params)
    theta_D = np.array([e.theta for e in econs]) * fragmentation(q)
    m, Y = corner_shares(theta_D, H, np.array([e.V for e in econs]))
    return OptimumRows(q=q, h_star=h_star, H=H, m=m, Y=Y)


def optimum_accounts(econs) -> tuple[OptimumRows, list[Accounts]]:
    """optimum_rows of a sequence of economies of one K and the accounts of
    each row's allocation in its own economy, each with the bits of
    accounts(productive_optimum(econ)[1], econ), from one layer_rows pass
    over the corner atoms that every row shares. Raises optimum_rows'
    hypothesis error, otherwise the budget or capacity error of the first
    row that fails."""
    econs = tuple(econs)
    rows = optimum_rows(econs)
    K = rows.q.shape[1]
    integrator = rows.H[:, None] * rows.h_star
    layer = layer_rows(np.eye(K), np.ones(K), rows.q, rows.m, integrator)
    fits = np.empty(len(econs), dtype=bool)
    for tech, index, params in _by_family(econs):
        fits[index] = feasible_bundle(integrator[index], tech, params)
    _check_feasible(layer, fits.tolist(), [e.theta for e in econs])
    # each row's system knowledge under its own u and p, with the bits
    # system_knowledge gives it. Corner atom k has unit mass and direction
    # e_k, so 1.0**p = 1.0 and its coverage adds zeros to min(1, u_k); an
    # integrator's is the float `**` of its mass H(h*) > 0 times its
    # coverage row sum
    u = np.array([e.u for e in econs])
    own = np.minimum(layer.stack.directions[K:], u).sum(axis=-1)
    integrators = np.array([x**e.p for x, e in zip(layer.stack.mass[K:], econs)]) * own
    accounts = _add_up(layer, [e.V for e in econs], rows.q, np.minimum(u, 1.0)[None], integrators[None])
    return rows, accounts


def minimal_allocation(design: SpecialistDesign, econ: Economy) -> Allocation:
    """Allocation with the smallest integrator layer that supports a design,
    at its atoms' frontier scales."""
    scales = learning.max_scale_batch(econ.tech, design.directions)
    return minimal_rows(design.directions, scales, design.weights[None, :], econ).allocation(0)


@dataclass(frozen=True)
class DesignRows:
    """Minimal-integrator allocations on one set of atoms, one per row: the
    atoms' directions and frontier scales H(pi_j), and per row the mastery
    weights of its design, its integrator share m and its integrator
    profile."""

    directions: np.ndarray  # (n_atoms, K)
    scales: np.ndarray  # (n_atoms,)
    weights: np.ndarray  # (N, n_atoms)
    m: np.ndarray  # (N,)
    integrator: np.ndarray  # (N, K)

    def allocation(self, i: int) -> Allocation:
        """Row i as an Allocation."""
        design = SpecialistDesign(directions=self.directions, weights=self.weights[i])
        return Allocation(
            m=float(self.m[i]), design=design,
            integrator_profile=self.integrator[i], scales=self.scales,
        )


def row_products(w: np.ndarray, M: np.ndarray) -> np.ndarray:
    """w[i] @ M for each row of w (N, n), or w[i] @ M[i] for a stack M
    (N, n, K): one matrix-vector product per row, so that each row has the
    bits of its own 1-d product (a contraction over the whole stack, such
    as einsum, rounds differently)."""
    return np.matmul(w[:, None, :], M)[:, 0, :]


def mean_rows(weights: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """The aggregate specialist mix of each design of a stack: mastery
    weights (N, n_atoms) on atom directions (N, n_atoms, K), or on
    (n_atoms, K) atoms that every row shares. A row has the bits of its
    one-row call, SpecialistDesign.mean."""
    return row_products(weights, directions)


def gap_bundle_rows(weights: np.ndarray, directions: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The gap per unit mastery E_nu[(x - pi)^+] of each design of a
    stack (mean_rows' weights and directions) against its target mix, a
    row of x (N, K). A row has the bits of its one-row call. The all-corner
    design of mix x has directions eye(K) and weights x, and its bundle
    against x is x*(1-x) up to round-off."""
    return row_products(weights, np.clip(x[:, None, :] - directions, 0.0, None))


def minimal_rows(directions, scales, weights, econ: Economy) -> DesignRows:
    """The minimal-integrator allocations of a block of designs on the
    atoms `directions` (n, K) at their frontier scales H(pi_j), one per
    row of weights (N, n), with the integrator directions of all rows
    solved in one frontier batch; a row of max_scale_batch gets the same
    bits in any batch, so each row has the bits of minimal_allocation of
    its design."""
    Z = gap_bundle_rows(weights, directions, mean_rows(weights, directions))
    mass = Z.sum(axis=1)
    gap = mass != 0.0
    h = Z[gap] / mass[gap, None]
    H = learning.max_scale_batch(econ.tech, h) if h.size else np.empty(0)
    gamma = np.zeros(mass.size)
    gamma[gap] = mass[gap] * (1.0 / H)  # gamma_index(z), from the one frontier solve
    theta_gamma = econ.theta * gamma
    m = theta_gamma / ((weights / scales).sum(axis=1) + theta_gamma)
    integrator = np.zeros(Z.shape)
    integrator[gap] = H[:, None] * h
    return DesignRows(directions=directions, scales=scales, weights=weights, m=m, integrator=integrator)


def simplex_grid(K: int, resolution: int) -> np.ndarray:
    """All simplex points with coordinates at multiples of 1/resolution."""
    pts = [
        np.array(c, dtype=float) / resolution
        for c in _compositions(resolution, K, minimum=0)
    ]
    return np.vstack(pts)


def _compositions(total: int, parts: int, minimum: int):
    """Integer compositions of total into `parts` parts, each >= minimum."""
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def design_space_size(K: int, resolution: int, max_atoms: int) -> int:
    """Number of (atom set, weight split) pairs the oracle enumerates."""
    P = math.comb(resolution + K - 1, K - 1)
    return sum(
        math.comb(P, a) * math.comb(resolution - 1, a - 1)
        for a in range(1, max_atoms + 1)
    )


def grid_designs(
    econ: Economy,
    resolution: int,
    max_atoms: int,
    max_designs: int,
    floor: Callable[[], float],
    dropped: list[int],
):
    """The minimal-integrator designs on the 1/resolution simplex grid whose
    theta*Gamma = 0 bound can still reach the incumbent output floor(), as
    the ingredients of that bound. Per level it appends to `dropped` the
    count of designs it drops with their atom sets, so the yielded and
    dropped designs add up to the space.

    Atom directions and mastery weights both live on the grid; designs use
    up to max_atoms atoms, single atoms first. Yields batches of atom sets
    sharing one weight split w, as (atom_dirs (C,a,K), w, X, E_lam, C(X,q)).
    The sets of a level come in lexicographic order, and a batch holds the
    surviving sets of one ENUM_BATCH-long run of that order. The space
    holds sum_a C(P,a)*C(n-1,a-1) designs; one larger than max_designs
    raises OracleError on the first batch request, before any
    table is built, and an empty grid (resolution or max_atoms below 1)
    raises DomainError. The tables that depend on K, resolution and a
    alone (grid points, weight splits, (a-1)-subsets, rank binomials) are
    built once per process and shared by every economy.

    The search is a two-level branch-and-bound (Land & Doig 1960), and
    exact: no bound drops a design that could win or tie. Per design,
    brute_force_design solves Gamma (grid_gamma) only when
    b = V*C(X,q)/E_lam reaches its incumbent Y. As theta*Gamma >= 0,
    fl(E_lam + fl(theta*Gamma)) >= E_lam, and correctly rounded division is
    monotone in its denominator, so a computed output never exceeds its
    computed b: a design it skips can neither win nor tie, and grid_gamma
    gives each kept design the bits it has in any batch. An OracleError
    from the frontier solver can fire only on a kept design.

    Per atom set, at the start of each level a with incumbent Y_a: with
    atoms d_j, scales lam_j, l = min_j lam_j and any grid weight split,
    C(X,q) <= S = sum_k max_j min(d_jk, q_k) <= sum_k q_k, and E_lam >=
    E_min = (sum_j lam_j + (n-a)*l)/n >= l with n = resolution: every split
    puts at least 1/n on each atom, so E_lam is least at the split with
    (n-a+1)/n on a cheapest atom and 1/n on each other one. In floating
    point, with u = eps/2 and g_m = m*u/(1-m*u): a float grid weight
    fl(c_j/n) is within a factor 1 +- u of c_j/n, so X_k, a sum of a
    products in any order, is at most (1+u)(1+g_a) max_j d_jk, and E_lam at
    least (1-u)(1-g_a) E_min; the K-term sums C(X,q), S and sum_k q_k are
    within a factor 1 +- g_(K-1) of their exact values, and b takes two
    roundings. So a computed b is at most F*V*S'/E_min for the computed S'
    (or sum_k q_k), F = (1+u)^3 (1+g_a)(1+g_(K-1)) / ((1-u)(1-g_a)(1-g_(K-1))).
    The computed E_min' adds a scales and the product (n-a)*l (a sum of
    a+1 nonnegative terms, one of them rounded once) and divides by n, so
    E_min' <= (1+u)^2 (1+g_a) E_min, and a computed b is at most
    G*V*S'/E_min' with G = F (1+u)^2 (1+g_a) < 1 + (3a+2K+5)u, as G's
    first-order term is (3a+2K+4)u and the rest is of order ((a+K)u)^2.
    The computed set bound fl(fl(fl(V*S')/E_min')*s) with slack
    s = 1 + 4(a+K+1)*eps = 1 + 8(a+K+1)u, exact in floating point, is at
    least (1-u)^3 s V*S'/E_min' > G*V*S'/E_min', as 8(a+K+1) - 3 exceeds
    3a+2K+5 by 5a+6K. A set whose bound is below Y_a thus holds only
    designs with b < Y_a <= Y, as the incumbent never falls, so dropping
    the set skips only designs the per-design test skips. With sum_k q_k in
    place of S' and the exact l <= E_min in place of E_min' (so F, not G)
    the bound depends on l alone: an atom is an anchor when
    V*sum_k q_k/lam_j (slackened) reaches Y_a, and a set without one, whose
    l is a non-anchor's lam_j, is dropped unbuilt. Each anchored set is
    built exactly once, from an (a-1)-subset and the anchor below all of
    that subset's anchors. The survivors are visited in the exhaustive
    order and batches, so the search keeps its incumbents, winner and count
    of Gamma solves as long as every design keeps its bits.

    That last step is an assumption, not part of the proof, and the
    exhaustive-reference tests check it. The kernel works on domain-major
    columns: a batch's atom rows are laid out domain by domain, so one BLAS
    matrix-vector product per weight split gives X as K contiguous columns
    X_k over the surviving sets, and a row is taken to round alike whatever
    the matrix size and its place in it (one matrix product over all splits,
    or the products written out elementwise, round differently). The K-term
    sums C(X,q) and S keep the bits of the row-major reduction (_row_sum):
    below 8 terms numpy adds a row left to right, as the column sum does,
    and from 8 on the columns go back to rows for numpy's own row sum.
    Maxima and minima over a set's atoms are exact in any order.
    """
    if resolution < 1 or max_atoms < 1:
        raise DomainError("grid designs need resolution >= 1 and max_atoms >= 1")
    K = econ.q.size
    total = design_space_size(K, resolution, max_atoms)
    if total > max_designs:
        raise OracleError(
            f"{total} candidate designs exceed the budget of {max_designs}; "
            "lower the resolution or atom count"
        )
    dirs = _grid_points(K, resolution)
    P = dirs.shape[0]
    lam = 1.0 / learning.max_scale_batch(econ.tech, dirs)
    q = econ.q[:, None]
    cap = np.minimum(dirs.T, q, order="C")  # atom j's coverage terms min(d_jk, q_k), by domain k
    # a atoms need a weight split into a positive grid weights, so a <= resolution
    for a in range(1, min(max_atoms, resolution) + 1):
        sets, n_dropped = _anchored_sets(econ, cap, lam, a, resolution, floor())
        # lexicographic rank among all C(P, a) sets, for the exhaustive order and batches
        rank = math.comb(P, a) - 1 - sum(
            table[members] for table, members in zip(_rank_terms(P, a), sets)
        )
        order = np.argsort(rank)
        sets, batch = sets.T[order], rank[order] // ENUM_BATCH  # (N, a), C order
        splits = _weight_splits(resolution, a)
        dropped.append(n_dropped * len(splits))
        for idx in np.split(sets, np.flatnonzero(np.diff(batch)) + 1):
            atom_dirs = dirs[idx]  # (C, a, K)
            atom_lam = lam[idx]  # (C, a)
            # row k*C + c holds domain k of set c's atoms
            rows = atom_dirs.transpose(2, 0, 1).reshape(-1, a)
            for w in splits:
                cols = np.dot(rows, w.reshape(a, 1)).reshape(K, len(idx))
                cov = _row_sum(np.minimum(cols, q))
                yield atom_dirs, w, cols.T, atom_lam @ w, cov


def _anchored_sets(
    econ: Economy, cap: np.ndarray, lam: np.ndarray, a: int, resolution: int, Y_a: float
):
    """Index columns (a, N), ascending down each column, of the a-atom grid
    sets whose slackened bound V*S/E_min reaches Y_a, and the count of the
    other sets: each anchored set is built once, from an (a-1)-subset and
    the anchor below all of that subset's anchors. cap holds the atoms'
    coverage terms domain-major, (K, P). The (a-1)-subsets carry their
    running coverage terms, least scale and sum of scales, so a set's S and
    E_min = (sum_j lam_j + (n-a)*min_j lam_j)/n cost O(K) each. grid_designs
    states the bound and proves the slack."""
    K, P = cap.shape
    slack = 1.0 + 4 * (a + K + 1) * float(np.finfo(float).eps)
    anchor = econ.V * float(econ.q.sum()) / lam * slack >= Y_a
    anchors = np.flatnonzero(anchor)
    rest = _subsets(P, a - 1)  # (a-1, C(P, a-1)), one row per member
    rest_cap = np.zeros((K, rest.shape[1]))
    rest_lam = np.full(rest.shape[1], np.inf)
    rest_sum = np.zeros(rest.shape[1])
    first_anchor = np.full(rest.shape[1], P)
    for members in rest:
        np.maximum(rest_cap, cap[:, members], out=rest_cap)
        np.minimum(rest_lam, lam[members], out=rest_lam)
        rest_sum += lam[members]
        np.minimum(first_anchor, np.where(anchor[members], members, P), out=first_anchor)
    below = np.searchsorted(anchors, first_anchor)
    unbuilt = math.comb(P - anchors.size, a)  # the sets without an anchor
    if int(below.sum()) != math.comb(P, a) - unbuilt:
        raise AssertionError(f"anchored {a}-atom sets not each built once")
    # at most ENUM_BATCH candidate sets a pass bounds memory as the batches do
    step = max(1, ENUM_BATCH // max(1, anchors.size))
    kept = [np.empty((a, 0), dtype=np.intp)]
    n_dropped = unbuilt
    for lo in range(0, rest.shape[1], step):
        n = below[lo : lo + step]
        r = lo + np.repeat(np.arange(n.size), n)
        t = anchors[np.arange(r.size) - np.repeat(np.cumsum(n) - n, n)]
        terms = rest_cap[:, r]
        S = _row_sum(np.maximum(terms, cap[:, t], out=terms))
        # E_lam at the grid split with weight (n-a+1)/n on a cheapest atom
        # and 1/n on each other one
        lam_t = lam[t]
        least = np.minimum(rest_lam[r], lam_t)
        e_min = (rest_sum[r] + lam_t + (resolution - a) * least) / resolution
        keep = econ.V * S / e_min * slack >= Y_a
        n_dropped += keep.size - int(np.count_nonzero(keep))
        members, t = rest[:, r[keep]], t[keep]
        # insert t into the ascending members: member i stays in row i while
        # it is below t, and every later row moves down by one
        sets = np.empty((a, t.size), dtype=np.intp)
        sets[0] = t
        sets[1:] = np.maximum(members, t)
        sets[:-1] = np.where(members < t, members, sets[:-1])
        kept.append(sets)
    return np.concatenate(kept, axis=1), n_dropped


def _row_sum(terms: np.ndarray) -> np.ndarray:
    """terms.sum(axis=0) of a (K, n) array, with the bits of the row sum
    terms.T.sum(axis=1) of its (n, K) transpose in C order. numpy adds a
    row of fewer than 8 terms left to right, which the columns do here;
    longer rows are left to numpy's own row sum."""
    if len(terms) >= 8:
        return np.ascontiguousarray(terms.T).sum(axis=1)
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


# Tables that depend on the grid alone, built on first use and shared by
# every economy and search, for a process that searches many economies on
# one grid; read-only, as every caller gets the same array.
def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=16)
def _grid_points(K: int, resolution: int) -> np.ndarray:
    """simplex_grid(K, resolution)."""
    return _frozen(simplex_grid(K, resolution))


@lru_cache(maxsize=16)
def _weight_splits(resolution: int, a: int) -> np.ndarray:
    """The splits of unit mass into a positive multiples of 1/resolution,
    one per row, in lexicographic order."""
    return _frozen(np.array(list(_compositions(resolution, a, minimum=1)), dtype=float) / resolution)


@lru_cache(maxsize=16)
def _subsets(P: int, m: int) -> np.ndarray:
    """The m-subsets of range(P) in lexicographic order, one column each,
    members ascending down the column: (m, C(P, m))."""
    n = math.comb(P, m)
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(P), m)),
        dtype=np.intp,
        count=n * m,
    )
    return _frozen(np.ascontiguousarray(flat.reshape(n, m).T))


@lru_cache(maxsize=16)
def _rank_terms(P: int, a: int) -> np.ndarray:
    """(a, P) table with C(P-1-s, a-i) at (i, s): the lexicographic rank of
    an ascending a-set s_0 < ... < s_(a-1) of range(P) is
    C(P, a) - 1 - sum_i C(P-1-s_i, a-i)."""
    return _frozen(np.array([[math.comb(P - 1 - s, a - i) for s in range(P)] for i in range(a)]))


def grid_gamma(
    tech: learning.LearningTech, atom_dirs: np.ndarray, w: np.ndarray, X: np.ndarray
) -> np.ndarray:
    """Gamma of the gap bundles E_w[(X - pi)^+] of grid_designs rows.

    Every step is row-wise, the frontier Newton solve of max_scale_batch
    too (a row's iterate depends only on that row, and a row that has
    stopped never moves again), so a row gets the same bits in any subset
    of its batch.
    """
    Z = np.zeros_like(X)
    for j in range(w.size):
        Z += w[j] * np.clip(X - atom_dirs[:, j, :], 0.0, None)
    return learning.gamma_index_batch(tech, Z)


@dataclass(frozen=True)
class BruteForceResult:
    """Winner of the grid design search and its unit cost
    (E_lam + theta*Gamma)/C(X,q) = V/Y; n_designs counts the designs
    bounded alone or dropped with their atom set, which make up the whole
    space, and n_evaluated the designs whose Gamma was solved."""

    design: SpecialistDesign
    x: np.ndarray
    Y: float
    unit_cost: float
    n_designs: int
    n_evaluated: int


def brute_force_design(
    econ: Economy,
    resolution: int = 8,
    max_atoms: int = 3,
    max_designs: int = 8_000_000,
) -> BruteForceResult:
    """Output-maximal grid design, by exact branch-and-bound.

    Returns the argmax of Y = V*C(X,q)/(E_lam + theta*Gamma) over
    grid_designs, breaking exact ties toward the lexicographically smallest
    mix. Gamma is solved only for designs whose bound V*C(X,q)/E_lam
    reaches the best Y so far, which the single atoms seed, and atom sets
    whose bound falls below it are never formed; grid_designs says why the
    result is the exhaustive search's, bit for bit, and what that rests
    on. The same search is the competitive no-deviation scan: at
    integration cost theta*r a firm's unit cost is V/Y, so the winner is
    the cheapest design.
    """
    best_key = (np.inf, ())  # (-Y, mix) of the incumbent
    n_seen = n_evaluated = 0
    dropped = []
    designs = grid_designs(econ, resolution, max_atoms, max_designs, lambda: -best_key[0], dropped)
    for atom_dirs, w, X, E_lam, cov in designs:
        n_seen += cov.size
        keep = np.flatnonzero(econ.V * cov / E_lam >= -best_key[0])
        # rebinding drops this batch before grid_designs builds the next
        X, E_lam, cov = X[keep], E_lam[keep], cov[keep]
        if keep.size == 0:
            continue
        n_evaluated += keep.size
        den = E_lam + econ.theta * grid_gamma(econ.tech, atom_dirs[keep], w, X)
        Y = econ.V * cov / den
        k = int(np.argmax(Y))
        ties = np.flatnonzero(Y == Y[k])
        if ties.size > 1:
            k = int(min(ties, key=lambda i: tuple(X[i])))
        key = (-Y[k], tuple(X[k]))
        if key < best_key:
            best_key = key
            best_Y, best_x, best_cost = float(Y[k]), X[k].copy(), float(den[k] / cov[k])
            design = SpecialistDesign(directions=atom_dirs[keep[k]], weights=w.copy())
    return BruteForceResult(
        design=design,
        x=best_x,
        Y=best_Y,
        unit_cost=best_cost,
        n_designs=n_seen + sum(dropped),
        n_evaluated=n_evaluated,
    )
