"""Organization of production: specialist designs, coordination gaps,
the productive optimum, and the exhaustive design oracle.

A specialist design is a finite list of atoms (direction, mastery weight):
the mastery-weighted direction distribution of the specialist layer. The
population share of an atom is proportional to weight * lambda(direction),
since broader directions need more heads per unit of mastery. Specialists
run at full scale H(pi)*pi, so an allocation stores its atoms' scales H(pi_j),
solved once by the function that builds it; accounts() reads them to
evaluate gaps, feasibility, output and group knowledge.

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
from .errors import (
    BudgetExceededError,
    CutoffError,
    DomainError,
    InfeasibleAllocationError,
)
from .knowledge import RENORM_WARN, SIMPLEX_TOL, coverage, feasible_bundle, fragmentation
from .knowledge import system_knowledge
from .learning import max_scale

if TYPE_CHECKING:
    from .economy import Economy

FEAS_TOL = 1e-10
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
        if abs(float(w.sum()) - 1.0) > RENORM_WARN:
            raise DomainError("mastery weights must sum to one")
        off = np.abs(dirs.sum(axis=1) - 1.0) > RENORM_WARN
        if dirs.shape[1] < 2 or np.any(dirs < -SIMPLEX_TOL) or np.any(off):
            raise DomainError("atom directions must lie on the simplex")

    def mean(self) -> np.ndarray:
        """Aggregate specialist mix implied by the atoms."""
        return self.weights @ self.directions

    def is_corner(self) -> bool:
        return bool(np.all(self.directions.max(axis=1) > 1.0 - 1e-12))

    def gap_bundle(self, x: np.ndarray) -> np.ndarray:
        """Gap per unit mastery against target mix x: E_nu[(x - pi)^+]."""
        return self.weights @ np.clip(x[None, :] - self.directions, 0.0, None)


def corner_design(mix: np.ndarray) -> SpecialistDesign:
    """All-corner design whose mastery weights reproduce the given mix."""
    return SpecialistDesign(directions=np.eye(mix.size), weights=mix)


def single_atom(direction: np.ndarray) -> SpecialistDesign:
    """Design with every specialist on one shared direction."""
    return SpecialistDesign(directions=direction[None, :], weights=np.ones(1))


def cornerized(design: SpecialistDesign) -> SpecialistDesign:
    """Shatter each atom onto corners in proportion to its coordinates."""
    return corner_design(design.mean())


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
        """The specialist layer at the atoms' frontier scales. It depends on
        the allocation alone, so it is summarized once however many
        economies evaluate the allocation.

        Atom j holds head-count share proportional to w_j/H(pi_j) and
        profile H(pi_j)*pi_j; gaps are taken against the realized mix.
        """
        design, H = self.design, self.scales
        mu = design.weights / H
        mu = mu / mu.sum()
        profiles = H[:, None] * design.directions
        S = (1.0 - self.m) * (mu @ profiles)
        total = float(S.sum())
        if total <= 0.0:
            gaps = GapSummary(G=np.zeros(S.size), g=0.0, h=None)
        else:
            mix = S / total
            shortfall = np.clip(profiles.sum(axis=1, keepdims=True) * mix[None, :] - profiles, 0.0, None)
            G = (1.0 - self.m) * (mu @ shortfall)
            g = float(G.sum())
            gaps = GapSummary(G=G, g=0.0, h=None) if g <= 1e-15 else GapSummary(G=G, g=g, h=G / g)
        J = None if gaps.g == 0.0 else self.m * integrator_capacity(self.integrator_profile, gaps.h)
        return SpecialistLayer(mu=mu, profiles=profiles, S=S, total=total, gaps=gaps, J=J)


@dataclass(frozen=True)
class GapSummary:
    """Aggregate gap bundle G, its mass g, and profile h (None when g=0)."""

    G: np.ndarray
    g: float
    h: np.ndarray | None


@dataclass(frozen=True)
class SpecialistLayer:
    """Head-count shares mu_j, atom profiles H(pi_j)*pi_j, aggregate
    specialist knowledge S and its mass, the gap summary, and the
    integration capacity J (None when there is no gap)."""

    mu: np.ndarray
    profiles: np.ndarray
    S: np.ndarray
    total: float
    gaps: GapSummary
    J: float | None


def integrator_capacity(s, h) -> float:
    """Bundles of gap profile h embedded in profile s: min s_k/h_k over h_k>0."""
    sv = np.clip(np.asarray(s, dtype=float), 0.0, None)
    hv = np.asarray(h, dtype=float)
    mask = hv > 0.0
    if not np.any(mask):
        raise DomainError("gap profile has no positive coordinate")
    return float(np.min(sv[mask] / hv[mask]))


@dataclass(frozen=True)
class Accounts:
    """What an allocation adds up to in one economy: gap summary, output Y,
    and the group system knowledge of specialists (B_S) and integrators
    (B_M)."""

    gaps: GapSummary
    Y: float
    B_S: float
    B_M: float


def accounts(alloc: Allocation, econ: Economy) -> Accounts:
    """Evaluate a feasible allocation at its atoms' stored frontier scales.

    The specialist layer comes from Allocation.layer; what depends on the
    economy is evaluated on every call. Raises InfeasibleAllocationError
    unless the integrator profile fits the learning budget and integrators
    cover theta times the gap mass.
    """
    if not feasible_bundle(alloc.integrator_profile, econ.tech):
        raise InfeasibleAllocationError("integrator profile exceeds the learning budget")
    layer = alloc.layer
    gaps = layer.gaps
    if layer.J is not None and layer.J < econ.theta * gaps.g - FEAS_TOL:
        raise InfeasibleAllocationError(
            f"integration capacity {layer.J:.6e} below requirement "
            f"{econ.theta * gaps.g:.6e}"
        )
    # the atoms' profiles and, in the last row, the integrator profile
    knowledge = system_knowledge(np.vstack([layer.profiles, alloc.integrator_profile]), econ.u, econ.p)
    return Accounts(
        gaps=gaps,
        Y=econ.V * coverage(layer.S, layer.total * econ.q),
        B_S=float(sum(w * k for w, k in zip(layer.mu, knowledge[:-1]))),
        B_M=float(knowledge[-1]),
    )


@dataclass(frozen=True)
class ProductiveOptimum:
    """Closed-form optimum under the coordination cutoff."""

    h_star: np.ndarray
    m_star: float
    Y_star: float
    H_hstar: float


def gap_profile_star(q: np.ndarray) -> np.ndarray:
    """Optimal gap profile h*_k = q_k(1-q_k)/D(q)."""
    D = fragmentation(q)
    if D <= 0.0:
        raise DomainError("gap profile undefined for a corner requirement")
    return q * (1.0 - q) / D


def productive_optimum(econ: Economy) -> tuple[ProductiveOptimum, Allocation]:
    """Corner specialists aligned with q plus gap-matched integrators.

    Requires a strictly interior q and theta below the coordination
    cutoff; raises CutoffError otherwise.
    """
    if float(econ.q.min()) <= 0.0:
        raise DomainError("productive requirement must be strictly interior")
    if econ.theta >= econ.theta_bar:
        raise CutoffError(
            f"theta={econ.theta:.6g} is not below the coordination cutoff "
            f"theta_bar={econ.theta_bar:.6g}; the corner organization is not "
            "certified optimal there"
        )
    h_star = gap_profile_star(econ.q)
    H = max_scale(econ.tech, h_star)
    D = fragmentation(econ.q)
    m_star = econ.theta * D / (H + econ.theta * D)
    Y_star = econ.V * H / (H + econ.theta * D)
    if not m_star < 1.0 / 3.0:
        raise InfeasibleAllocationError("integrator share bound violated (bug)")
    opt = ProductiveOptimum(h_star=h_star, m_star=m_star, Y_star=Y_star, H_hstar=H)
    alloc = Allocation(
        m=m_star,
        design=corner_design(econ.q),
        integrator_profile=H * h_star,
        scales=np.ones(econ.K),  # corner atoms: H = 1 exactly
    )
    return opt, alloc


def minimal_allocation(design: SpecialistDesign, econ: Economy) -> Allocation:
    """Allocation with the smallest integrator layer that supports a design."""
    scales = learning.max_scale_batch(econ.tech, design.directions)
    return _minimal_allocations([design], econ, [scales])[0]


def _minimal_allocations(designs, econ: Economy, scales) -> list[Allocation]:
    """minimal_allocation of each design, given its atoms' scales H(pi_j), with
    the integrator directions of all of them solved in one frontier batch;
    a row of max_scale_batch gets the same bits in any batch."""
    bundles = [design.gap_bundle(design.mean()) for design in designs]
    masses = [float(z.sum()) for z in bundles]
    h = [z / mass for z, mass in zip(bundles, masses) if mass != 0.0]
    H_h = iter(learning.max_scale_batch(econ.tech, np.array(h)).tolist() if h else [])
    allocs = []
    for design, sc, z, mass in zip(designs, scales, bundles, masses):
        if mass == 0.0:
            allocs.append(Allocation(m=0.0, design=design, integrator_profile=np.zeros(z.size), scales=sc))
            continue
        H = next(H_h)
        e_lam = float((design.weights / sc).sum())
        gam = mass * (1.0 / H)  # gamma_index(z), from the one frontier solve
        m = econ.theta * gam / (e_lam + econ.theta * gam)
        allocs.append(Allocation(m=m, design=design, integrator_profile=H * (z / mass), scales=sc))
    return allocs


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
    raises BudgetExceededError on the first batch request, before any
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
    gives each kept design the bits it has in any batch. A ConvergenceError
    can fire only on a kept design.

    Per atom set, at the start of each level a with incumbent Y_a: with
    atoms d_j, scales lam_j and any weight split, C(X,q) <= S =
    sum_k max_j min(d_jk, q_k) <= sum_k q_k and E_lam >= l = min_j lam_j.
    In floating point, with u = eps/2 and g_n = n*u/(1-n*u): the float grid
    weights sum to within u of 1, so X_k, a sum of a products in any order,
    is at most (1+u)(1+g_a) max_j d_jk, and E_lam at least
    (1-u)(1-g_a) l; the K-term sums C(X,q), S and sum_k q_k are within a
    factor 1 +- g_(K-1) of their exact values, and b takes two roundings.
    So a computed b is at most F*V*S'/l for the computed S' (or sum_k q_k),
    F = (1+u)^3 (1+g_a)(1+g_(K-1)) / ((1-u)(1-g_a)(1-g_(K-1))), where
    F < 1 + (2a+2K+3)u as the rest is of order ((a+K)u)^2. The computed
    set bound fl(fl(fl(V*S')/l)*s) with slack s = 1 + 4(a+K)*eps =
    1 + 8(a+K)u is at least (1-u)^3 s V*S'/l > F*V*S'/l. A set whose bound
    is below Y_a thus holds only designs with b < Y_a <= Y, as the
    incumbent never falls, so dropping the set skips only designs the
    per-design test skips. With sum_k q_k in place of S' the bound depends
    on l alone: an atom is an anchor when V*sum_k q_k/lam_j (slackened)
    reaches Y_a, and a set without one, whose l is a non-anchor's lam_j,
    is dropped unbuilt. Each anchored set is built exactly once, from an
    (a-1)-subset and the anchor below all of that subset's anchors. The
    survivors are visited in the exhaustive order and batches, so the
    search keeps its incumbents, winner and count of Gamma solves as long
    as every design keeps its bits.

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
        raise BudgetExceededError(
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
        sets, n_dropped = _anchored_sets(econ, cap, lam, a, floor())
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


def _anchored_sets(econ: Economy, cap: np.ndarray, lam: np.ndarray, a: int, Y_a: float):
    """Index columns (a, N), ascending down each column, of the a-atom grid
    sets whose slackened bound reaches Y_a, and the count of the other sets:
    each anchored set is built once, from an (a-1)-subset and the anchor
    below all of that subset's anchors. cap holds the atoms' coverage terms
    domain-major, (K, P). grid_designs states the bound and proves the
    slack."""
    K, P = cap.shape
    slack = 1.0 + 4 * (a + K) * float(np.finfo(float).eps)
    anchor = econ.V * float(econ.q.sum()) / lam * slack >= Y_a
    anchors = np.flatnonzero(anchor)
    rest = _subsets(P, a - 1)  # (a-1, C(P, a-1)), one row per member
    rest_cap = np.zeros((K, rest.shape[1]))
    rest_lam = np.full(rest.shape[1], np.inf)
    first_anchor = np.full(rest.shape[1], P)
    for members in rest:
        np.maximum(rest_cap, cap[:, members], out=rest_cap)
        np.minimum(rest_lam, lam[members], out=rest_lam)
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
        keep = econ.V * S / np.minimum(rest_lam[r], lam[t]) * slack >= Y_a
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
