"""Simplex and knowledge-profile primitives.

Coverage C(a,b) = sum_k min(a_k, b_k) measures how much of bundle b is
decodable with knowledge a. A citizen with profile s has system knowledge
B = ||s||_1**p * C(s/||s||_1, u) against the civic profile u, with B = 0
at s = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, HypothesisError
from .learning import LearningTech

SIMPLEX_TOL = 1e-12
SIMPLEX_SUM_TOL = 1e-9  # how far the sum of a simplex vector may drift from 1
BUDGET_SLACK = 1e-10  # learning-budget round-off allowance


def coverage(a, b):
    """Coverage sum_k min(a_k, b_k) of bundle b by knowledge a. Given (N,K)
    stacks it returns one value per row, as an array, each with the bits
    of its own 1-d call."""
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if av.shape != bv.shape:
        raise DomainError(f"dimension mismatch: {av.shape} vs {bv.shape}")
    C = np.minimum(av, bv)
    return float(C.sum()) if C.ndim < 2 else C.sum(axis=-1)


def fragmentation(pi):
    """Breadth index 1 - sum pi_k**2, in [0, 1-1/K]; 0 at corners. Given an
    (N,K) stack, one value per row, each with the bits of its 1-d call."""
    p = np.asarray(pi, dtype=float)
    if p.ndim < 2:
        return float(1.0 - p @ p)
    return 1.0 - np.matmul(p[:, None, :], p[:, :, None])[:, 0, 0]


def feasible_bundle(s, tech: LearningTech, param=None):
    """Whether a knowledge bundle fits inside the unit learning budget: no
    mastery above 1 and total learning cost at most 1. Given an (N,K) stack
    it returns one verdict per row, as a bool array, each row under its own
    learning.param of tech's family where param gives an (N,) column."""
    v = np.maximum(np.asarray(s, dtype=float), 0.0)
    cost = tech.ell(np.clip(v, 0.0, 1.0), param).sum(axis=-1)
    fits = ~(v > 1.0 + BUDGET_SLACK).any(axis=-1) & (cost <= 1.0 + BUDGET_SLACK)
    return fits if fits.ndim else bool(fits)


@dataclass(frozen=True)
class ProfileStack:
    """The economy-free half of system_knowledge: a stack of validated
    profiles as unit directions s/||s||_1 (zero rows stay zero) and their
    masses ||s||_1. Build it once with profile_stack and pass it to
    system_knowledge for every civic profile and p."""

    directions: np.ndarray  # (N,K)
    mass: list[float]
    shape: tuple[int, ...]  # shape of the profile or stack given


def profile_stack(s) -> ProfileStack:
    """Validate and normalize one profile or an (N,K) stack of profiles."""
    v = np.asarray(s, dtype=float)
    if v.ndim not in (1, 2):
        raise DomainError("knowledge profile must be a vector or an (N,K) stack")
    if (v < -SIMPLEX_TOL).any():
        raise DomainError("knowledge profile must be componentwise nonnegative")
    rows = np.maximum(np.atleast_2d(v), 0.0)
    mass = rows.sum(axis=1)
    np.divide(rows, mass[:, None], out=rows, where=(mass != 0.0)[:, None])
    return ProfileStack(directions=rows, mass=mass.tolist(), shape=v.shape)


def system_knowledge(s, u: np.ndarray, p: float):
    """System knowledge ||s||_1**p * C(direction, u); 0 for the zero profile.

    s is one profile, an (N,K) stack of profiles or the ProfileStack of
    either; u is one civic profile or an (M,K) stack of them. One profile
    under one civic profile gives a float; otherwise an array comes back,
    one axis per stack, civic profiles first ((M,N) for two stacks). Each
    value has the bits of its own 1-d call: its mass and coverage are row
    sums, and its power is the Python float `**`, which np.power can miss
    by an ulp.
    """
    stack = s if isinstance(s, ProfileStack) else profile_stack(s)
    civic = np.asarray(u, dtype=float)
    if civic.ndim not in (1, 2) or stack.directions.shape[1:] != civic.shape[-1:]:
        raise DomainError(f"dimension mismatch: {stack.shape} vs {civic.shape}")
    cov = np.minimum(stack.directions, civic[..., None, :]).sum(axis=-1)
    # a product has the same bits in numpy as in Python; the power does not
    out = np.array([m**p if m != 0.0 else 0.0 for m in stack.mass]) * cov
    if 0.0 in stack.mass:
        out[..., np.array(stack.mass) == 0.0] = 0.0
    shape = civic.shape[:-1] + stack.shape[:-1]
    return out.reshape(shape) if shape else float(out[0])


@dataclass(frozen=True)
class DiffuseCheck:
    """Outcome of the diffuse-civic-relevance test: a bool and a float, or
    arrays of them, one per row of a stack."""

    ok: bool | np.ndarray
    bound: float | np.ndarray


def check_diffuse(u, p, tech: LearningTech, param=None) -> DiffuseCheck:
    """Test 0 < p < log((u_(1)+u_(2))/u_(K)) / (-log(K * ell^{-1}(1/K))).

    u_(1) <= ... <= u_(K) are the sorted civic weights. Holds the civic
    environment diffuse enough, and the breadth penalty mild enough, for
    interface knowledge to dominate politically. K = 2 is rejected with a
    distinct error: the interface profile is degenerate there and the
    bound does not apply.

    u may be an (N,K) stack of civic profiles, with p and param (values of
    learning.param of tech's family; tech.param where None) columns of N;
    ok and bound then come back as arrays, each row with the bits of its
    own 1-d call.
    """
    U = np.asarray(u, dtype=float)
    K = U.shape[-1]
    if K == 2:
        raise HypothesisError("diffuseness bound is only defined for K >= 3")
    U = np.sort(np.atleast_2d(U), axis=1)
    ratio = ((U[:, 0] + U[:, 1]) / U[:, -1]).tolist()
    params = [None] * len(ratio) if param is None else np.asarray(param, dtype=float).tolist()
    # math.log, whose bits do not depend on numpy's SIMD dispatch. The
    # denominator is positive (ell^{-1}(y) < y) but rounds to 0 for a cost
    # within an ulp of linear; the least positive float in its place gives
    # the limit of the bound there (+-inf, or 0 where log(ratio) is 0)
    bound = [
        math.log(r) / max(-math.log(K * tech.ell_inverse(1.0 / K, c)), math.ulp(0.0))
        for r, c in zip(ratio, params)
    ]
    if np.ndim(u) == 1:
        return DiffuseCheck(ok=bool(0.0 < p < bound[0]), bound=bound[0])
    bound = np.array(bound)
    return DiffuseCheck(ok=(0.0 < np.asarray(p)) & (np.asarray(p) < bound), bound=bound)
