"""Organization of production: specialist designs, coordination gaps,
the reduced-form output map, the productive optimum, and the exhaustive
design oracle.

A specialist design is a finite list of atoms (direction, mastery weight):
the mastery-weighted direction distribution of the specialist layer. The
population share of an atom is proportional to weight * lambda(direction),
since broader directions need more heads per unit of mastery. Specialists
run at full scale H(pi)*pi unless a test allocation deflates them through
scale_override.

For an aggregate mix x, the minimal-integrator organization has

    m(x) = theta*Gamma(z) / (E_nu[lambda] + theta*Gamma(z)),
    Y(x) = V * C(x,q) / (E_nu[lambda] + theta*Gamma(z)),

with z = E_nu[(x - pi)^+] the gap bundle per unit of specialist mastery.
Corner designs give E_nu[lambda] = 1 and z = x*(1-x).
"""

from __future__ import annotations

import math
import itertools
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import learning
from .errors import (
    BudgetExceededError,
    CutoffError,
    DomainError,
    InfeasibleAllocationError,
)
from .knowledge import as_simplex, coverage, fragmentation
from .learning import LearningTech, gamma_index, gamma_index_batch, max_scale

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
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if dirs.shape[0] != w.size:
            raise DomainError("one weight per direction atom required")
        if np.any(w < -1e-12):
            raise DomainError("mastery weights must be nonnegative")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise DomainError("mastery weights must sum to one")
        dirs = np.vstack([as_simplex(row, what="atom direction") for row in dirs])
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "weights", w / total)

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    def mean(self) -> np.ndarray:
        """Aggregate specialist mix implied by the atoms."""
        return self.weights @ self.directions

    def is_corner(self) -> bool:
        return bool(np.all(self.directions.max(axis=1) > 1.0 - 1e-12))

    def gap_bundle(self, x: np.ndarray) -> np.ndarray:
        """Gap per unit mastery against target mix x: E_nu[(x - pi)^+]."""
        return self.weights @ np.clip(x[None, :] - self.directions, 0.0, None)

    def mastery_scales(self, tech: LearningTech) -> np.ndarray:
        """Frontier scale H(pi) of each atom direction."""
        return learning.max_scale_batch(tech, self.directions)

    def population_weights(self, tech: LearningTech) -> np.ndarray:
        """Head-count shares, proportional to weight / H(direction)."""
        mu = self.weights / self.mastery_scales(tech)
        return mu / mu.sum()

    def mean_inefficiency(self, tech: LearningTech) -> float:
        """E_nu[lambda] = sum_j w_j / H(pi_j)."""
        return float((self.weights / self.mastery_scales(tech)).sum())


def corner_design(mix: np.ndarray) -> SpecialistDesign:
    """All-corner design whose mastery weights reproduce the given mix."""
    x = as_simplex(mix, what="aggregate mix")
    return SpecialistDesign(directions=np.eye(x.size), weights=x)


def single_atom(direction: np.ndarray) -> SpecialistDesign:
    """Design with every specialist on one shared direction."""
    d = as_simplex(direction, what="atom direction")
    return SpecialistDesign(directions=d[None, :], weights=np.ones(1))


def cornerized(design: SpecialistDesign) -> SpecialistDesign:
    """Shatter each atom onto corners in proportion to its coordinates."""
    return corner_design(design.mean())


@dataclass(frozen=True)
class Allocation:
    """Occupational structure: integrator mass, specialist design, and the
    integrator knowledge profile. scale_override deflates atom j's
    specialists to fraction f_j of their frontier scale (testing hook for
    deliberately slack or infeasible organizations)."""

    m: float
    design: SpecialistDesign
    integrator_profile: np.ndarray
    scale_override: np.ndarray | None = None

    def __post_init__(self):
        if not (0.0 <= self.m < 1.0 + 1e-12):
            raise DomainError("integrator mass must lie in [0,1)")
        prof = np.asarray(self.integrator_profile, dtype=float)
        if np.any(prof < -1e-12):
            raise DomainError("integrator profile must be nonnegative")
        object.__setattr__(self, "integrator_profile", np.clip(prof, 0.0, None))
        if self.scale_override is not None:
            f = np.asarray(self.scale_override, dtype=float).ravel()
            if f.size != self.design.n_atoms:
                raise DomainError("one scale factor per design atom required")
            if np.any(f <= 0.0) or np.any(f > 1.0 + 1e-12):
                raise DomainError("scale factors must lie in (0,1]")
            object.__setattr__(self, "scale_override", f)


@dataclass(frozen=True)
class GapSummary:
    """Aggregate gap bundle G, its mass g, and profile h (None when g=0)."""

    G: np.ndarray
    g: float
    h: np.ndarray | None


def gap_vector(s, mix) -> np.ndarray:
    """External coordination requirement (||s||_1 * mix - s)^+."""
    sv = np.clip(np.asarray(s, dtype=float), 0.0, None)
    mv = np.asarray(mix, dtype=float)
    if sv.shape != mv.shape:
        raise DomainError("profile and mix dimensions differ")
    return np.clip(sv.sum() * mv - sv, 0.0, None)


def _specialist_profiles(alloc: Allocation, tech: LearningTech):
    """Per-atom profiles and head-count shares of the specialist layer."""
    design = alloc.design
    H = design.mastery_scales(tech)
    f = alloc.scale_override if alloc.scale_override is not None else np.ones(H.size)
    mu = design.population_weights(tech)
    profiles = (f * H)[:, None] * design.directions
    return profiles, mu


def aggregate_specialist_knowledge(alloc: Allocation, tech: LearningTech) -> np.ndarray:
    """Total specialist knowledge bundle S (population mass 1-m)."""
    profiles, mu = _specialist_profiles(alloc, tech)
    return (1.0 - alloc.m) * (mu @ profiles)


def aggregate_gaps(alloc: Allocation, tech: LearningTech) -> GapSummary:
    """Integrate per-specialist gaps against the realized aggregate mix."""
    profiles, mu = _specialist_profiles(alloc, tech)
    S = (1.0 - alloc.m) * (mu @ profiles)
    total = float(S.sum())
    if total <= 0.0:
        K = alloc.design.directions.shape[1]
        return GapSummary(G=np.zeros(K), g=0.0, h=None)
    mix = S / total
    gaps = np.clip(profiles.sum(axis=1, keepdims=True) * mix[None, :] - profiles, 0.0, None)
    G = (1.0 - alloc.m) * (mu @ gaps)
    g = float(G.sum())
    if g <= 1e-15:
        return GapSummary(G=G, g=0.0, h=None)
    return GapSummary(G=G, g=g, h=G / g)


def integrator_capacity(s, h) -> float:
    """Bundles of gap profile h embedded in profile s: min s_k/h_k over h_k>0."""
    sv = np.clip(np.asarray(s, dtype=float), 0.0, None)
    hv = np.asarray(h, dtype=float)
    mask = hv > 0.0
    if not np.any(mask):
        raise DomainError("gap profile has no positive coordinate")
    return float(np.min(sv[mask] / hv[mask]))


def check_feasible(alloc: Allocation, econ: Economy) -> None:
    """Raise unless the learning and integration constraints hold."""
    tech = econ.tech
    if float(tech._ell_raw(np.clip(alloc.integrator_profile, 0.0, 1.0)).sum()) > 1.0 + 1e-10:
        raise InfeasibleAllocationError("integrator profile exceeds the learning budget")
    summary = aggregate_gaps(alloc, tech)
    if summary.g == 0.0:
        return
    J = alloc.m * integrator_capacity(alloc.integrator_profile, summary.h)
    if J < econ.theta * summary.g - FEAS_TOL:
        raise InfeasibleAllocationError(
            f"integration capacity {J:.6e} below requirement "
            f"{econ.theta * summary.g:.6e}"
        )


def output_of(alloc: Allocation, econ: Economy) -> float:
    """Output V * C(S, ||S||_1 * q) of a feasible allocation."""
    check_feasible(alloc, econ)
    S = aggregate_specialist_knowledge(alloc, econ.tech)
    return econ.V * coverage(S, float(S.sum()) * econ.q)


@dataclass(frozen=True)
class ReducedForm:
    """Minimal-integrator organization conditional on a corner mix x."""

    Y: float
    m: float
    h: np.ndarray | None  # None flags a cornered mix with no interfaces
    G: np.ndarray

    @property
    def has_interface(self) -> bool:
        return self.h is not None


def reduced_form(x, econ: Economy) -> ReducedForm:
    """Output, integrator share, and gap objects for corner specialists at mix x."""
    xv = as_simplex(x, what="aggregate mix")
    if econ.theta >= econ.theta_bar:
        warnings.warn(
            "integration cost at or above the coordination cutoff; reduced-form "
            "formulas describe the minimal-integrator corner organization, not "
            "a certified optimum",
            stacklevel=2,
        )
    z = xv * (1.0 - xv)
    gam = gamma_index(econ.tech, z)
    m = econ.theta * gam / (1.0 + econ.theta * gam)
    Y = econ.V * coverage(xv, econ.q) / (1.0 + econ.theta * gam)
    D = fragmentation(xv)
    h = z / D if D > 1e-15 else None
    return ReducedForm(Y=Y, m=m, h=h, G=(1.0 - m) * z)


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
    )
    return opt, alloc


def minimal_allocation(design: SpecialistDesign, econ: Economy) -> Allocation:
    """Allocation with the smallest integrator layer that supports a design."""
    x = design.mean()
    z = design.gap_bundle(x)
    e_lam = design.mean_inefficiency(econ.tech)
    gam = gamma_index(econ.tech, z)
    if gam == 0.0:
        return Allocation(m=0.0, design=design, integrator_profile=np.zeros(x.size))
    m = econ.theta * gam / (e_lam + econ.theta * gam)
    h = z / z.sum()
    return Allocation(m=m, design=design, integrator_profile=max_scale(econ.tech, h) * h)


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


def grid_designs(econ: Economy, resolution: int, max_atoms: int, max_designs: int):
    """Every minimal-integrator design on the 1/resolution simplex grid.

    Atom directions and mastery weights both live on the grid; designs use
    up to max_atoms atoms. Yields batches of at most ENUM_BATCH atom sets
    sharing one weight split w, as (atom_dirs (C,a,K), w, X, E_lam, Gamma,
    C(X,q)). Cost grows as sum_a C(P,a)*C(n-1,a-1); a space larger than
    max_designs raises BudgetExceededError on the first batch request.
    """
    K = econ.q.size
    total = design_space_size(K, resolution, max_atoms)
    if total > max_designs:
        raise BudgetExceededError(
            f"{total} candidate designs exceed the budget of {max_designs}; "
            "lower the resolution or atom count"
        )
    dirs = simplex_grid(K, resolution)
    lam = 1.0 / learning.max_scale_batch(econ.tech, dirs)
    for a in range(1, max_atoms + 1):
        combos = np.array(list(itertools.combinations(range(dirs.shape[0]), a)))
        weight_rows = [
            np.array(c, dtype=float) / resolution
            for c in _compositions(resolution, a, minimum=1)
        ]
        for start in range(0, combos.shape[0], ENUM_BATCH):
            idx = combos[start : start + ENUM_BATCH]
            atom_dirs = dirs[idx]  # (C, a, K)
            atom_lam = lam[idx]  # (C, a)
            for w in weight_rows:
                X = np.tensordot(atom_dirs, w, axes=([1], [0]))
                E_lam = atom_lam @ w
                Z = np.zeros_like(X)
                for j in range(a):
                    Z += w[j] * np.clip(X - atom_dirs[:, j, :], 0.0, None)
                gam = gamma_index_batch(econ.tech, Z)
                cov = np.minimum(X, econ.q[None, :]).sum(axis=1)
                yield atom_dirs, w, X, E_lam, gam, cov


@dataclass(frozen=True)
class BruteForceResult:
    """Winner of the exhaustive minimal-integrator design search."""

    design: SpecialistDesign
    x: np.ndarray
    Y: float
    n_designs: int
    allocation: Allocation = field(repr=False)


def brute_force_design(
    econ: Economy,
    resolution: int = 8,
    max_atoms: int = 3,
    max_designs: int = 8_000_000,
) -> BruteForceResult:
    """Exhaustively evaluate minimal-integrator designs on a simplex grid.

    Returns the argmax of output over grid_designs, breaking exact ties
    toward the lexicographically smallest mix.
    """
    best_key = (np.inf, ())  # (-Y, mix) of the incumbent
    n_seen = 0
    designs = grid_designs(econ, resolution, max_atoms, max_designs)
    for atom_dirs, w, X, E_lam, gam, cov in designs:
        Y = econ.V * cov / (E_lam + econ.theta * gam)
        n_seen += Y.size
        k = int(np.argmax(Y))
        ties = np.flatnonzero(Y == Y[k])
        if ties.size > 1:
            k = int(min(ties, key=lambda i: tuple(X[i])))
        key = (-Y[k], tuple(X[k]))
        if key < best_key:
            best_key = key
            best_Y, best_x = float(Y[k]), X[k].copy()
            design = SpecialistDesign(directions=atom_dirs[k], weights=w)
        del X, E_lam  # free this batch before grid_designs builds the next
    return BruteForceResult(
        design=design,
        x=best_x,
        Y=best_Y,
        n_designs=n_seen,
        allocation=minimal_allocation(design, econ),
    )
