"""Simplex and knowledge-profile primitives.

Coverage C(a,b) = sum_k min(a_k, b_k) measures how much of bundle b is
decodable with knowledge a. A citizen with profile s has system knowledge
B = ||s||_1**p * C(s/||s||_1, u) against the civic profile u, with B = 0
at s = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TwoDomainError
from .learning import LearningTech

SIMPLEX_TOL = 1e-12
RENORM_WARN = 1e-9
BUDGET_SLACK = 1e-10  # learning-budget round-off allowance


def coverage(a, b) -> float:
    """Coverage sum_k min(a_k, b_k) of bundle b by knowledge a."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise DomainError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    return float(np.minimum(av, bv).sum())


def fragmentation(pi) -> float:
    """Breadth index 1 - sum pi_k**2, in [0, 1-1/K]; 0 at corners."""
    p = np.asarray(pi, dtype=float)
    return float(1.0 - p @ p)


def feasible_bundle(s, tech: LearningTech) -> bool:
    """Whether a knowledge bundle fits inside the unit learning budget."""
    v = np.clip(np.asarray(s, dtype=float), 0.0, None)
    if np.any(v > 1.0 + BUDGET_SLACK):
        return False
    return float(tech._ell_raw(np.clip(v, 0.0, 1.0)).sum()) <= 1.0 + BUDGET_SLACK


def system_knowledge(s, u: np.ndarray, p: float):
    """System knowledge ||s||_1**p * C(direction, u); 0 for the zero profile.

    s is one profile (a float comes back) or an (N,K) stack of profiles
    (an (N,) array comes back, one value per row). Each row gets the bits
    of its own 1-d call: its mass and coverage are row sums, and its power
    is the Python float `**`, which np.power can miss by an ulp.
    """
    v = np.asarray(s, dtype=float)
    if v.ndim not in (1, 2):
        raise DomainError("knowledge profile must be a vector or an (N,K) stack")
    if np.any(v < -SIMPLEX_TOL):
        raise DomainError("knowledge profile must be componentwise nonnegative")
    rows = np.clip(np.atleast_2d(v), 0.0, None)
    if rows.shape[1:] != np.shape(u):
        raise DomainError(f"dimension mismatch: {v.shape} vs {np.shape(u)}")
    mass = rows.sum(axis=1)
    live = mass != 0.0
    np.divide(rows, mass[:, None], out=rows, where=live[:, None])
    cov = np.minimum(rows, u).sum(axis=1)
    out = [m**p * c if m != 0.0 else 0.0 for m, c in zip(mass.tolist(), cov.tolist())]
    return out[0] if v.ndim == 1 else np.array(out)


@dataclass(frozen=True)
class DiffuseCheck:
    """Outcome of the diffuse-civic-relevance test."""

    ok: bool
    bound: float


def check_diffuse(u: np.ndarray, p: float, tech: LearningTech) -> DiffuseCheck:
    """Test 0 < p < log((u_(1)+u_(2))/u_(K)) / (-log(K * ell^{-1}(1/K))).

    u_(1) <= ... <= u_(K) are the sorted civic weights. Holds the civic
    environment diffuse enough, and the breadth penalty mild enough, for
    interface knowledge to dominate politically. K = 2 is rejected with a
    distinct error: the interface profile is degenerate there and the
    bound does not apply.
    """
    K = u.size
    if K == 2:
        raise TwoDomainError("diffuseness bound is only defined for K >= 3")
    u_sorted = np.sort(u)
    ratio = (u_sorted[0] + u_sorted[1]) / u_sorted[-1]
    denom = -np.log(K * tech.ell_inverse(1.0 / K))
    bound = float(np.log(ratio) / denom)
    return DiffuseCheck(ok=bool(0.0 < p < bound), bound=bound)
