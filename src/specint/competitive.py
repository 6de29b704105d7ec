"""Decentralization of the productive optimum through posted role wages.

With worker indifference across roles (net wage plus political
continuation value) and free entry, the optimum is supported by

    w_M = (V_tilde - delta) / (1 + beta),   w_S = (V_tilde + beta*delta) / (1 + beta),

where delta = log(B_M/B_S) is the continuation-value gap at the optimum,
beta = theta*D(q)/H(h*) is integrator labor per unit of specialist
mastery, and V_tilde = (1-tau)*V. Both wages are positive when
delta < V_tilde; the pair delivers zero profit (w_S + beta*w_M = V_tilde)
and exact indifference (w_S - w_M = delta).

A firm running design (x, nu) at wage ratio r = w_M/w_S pays unit cost

    c(x, nu; r) = (E_nu[lambda] + theta*r*Gamma(z_nu(x))) / C(x, q),

minimized by corner specialists aligned at x = q whenever theta*r is
below the coordination cutoff. The primitive wage-ratio bound
r_bar = 2*(V_tilde + ell_bar*Delta_cap) / (V_tilde*q_min), with
Delta_cap = log(1/(ell_bar**-p * u_min)), turns that into the uniqueness
condition theta < min(theta_bar/r_bar, V_tilde*q_min/(2*ell_bar*Delta_cap)).
The engine verifies the constructed equilibrium (wages, no profitable
deviation on a design grid) rather than searching for one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import Economy
from .errors import (
    DeviationFoundError,
    DomainError,
    SupportConditionError,
    ZeroCoverageError,
)
from .knowledge import coverage, fragmentation
from .learning import gamma_index
from .politics import group_knowledge
from .production import SpecialistDesign, grid_designs, productive_optimum

RESIDUAL_TOL = 1e-10
MARGIN_TOL = 1e-9  # round-off allowance before a cheaper grid design counts


@dataclass(frozen=True)
class WageSupport:
    """Role wages supporting the optimum, with the objects behind them."""

    w_S: float
    w_M: float
    delta_q: float
    beta: float
    V_tilde: float
    r_bar: float
    B_S: float
    B_M: float


@dataclass(frozen=True)
class RatioBound:
    """Primitive bound on interior wage ratios and the uniqueness cutoffs."""

    r_bar: float
    theta_cap: float
    bound_valid: bool
    uniqueness_cutoff: float
    unique_ok: bool


def ratio_bound(econ: Economy) -> RatioBound:
    """r_bar and the theta conditions under which it certifies uniqueness."""
    V_tilde = (1.0 - econ.tau) * econ.V
    ell_bar = econ.constants.ell_bar
    q_min = float(econ.q.min())
    B_floor = ell_bar ** (-econ.p) * float(econ.u.min())
    delta_cap = math.log(1.0 / B_floor)
    r_bar = 2.0 * (V_tilde + ell_bar * delta_cap) / (V_tilde * q_min)
    theta_cap = V_tilde * q_min / (2.0 * ell_bar * delta_cap)
    uniqueness = min(econ.theta_bar / r_bar, theta_cap)
    return RatioBound(
        r_bar=r_bar,
        theta_cap=theta_cap,
        bound_valid=econ.theta < theta_cap,
        uniqueness_cutoff=uniqueness,
        unique_ok=econ.theta < uniqueness,
    )


def support_wages(econ: Economy) -> WageSupport:
    """Construct and verify the supporting wage pair for the optimum."""
    if econ.theta >= econ.theta_bar:
        raise SupportConditionError(
            f"theta={econ.theta:.6g} not below the coordination cutoff "
            f"{econ.theta_bar:.6g}"
        )
    opt, alloc = productive_optimum(econ)
    B_S, B_M = group_knowledge(alloc, econ)
    delta = math.log(B_M / B_S)
    V_tilde = (1.0 - econ.tau) * econ.V
    if not delta < V_tilde:
        raise SupportConditionError(
            f"continuation gap {delta:.6g} not below net productivity "
            f"{V_tilde:.6g}; positive wages cannot support the optimum"
        )
    beta = econ.theta * fragmentation(econ.q) / opt.H_hstar
    w_M = (V_tilde - delta) / (1.0 + beta)
    w_S = (V_tilde + beta * delta) / (1.0 + beta)
    if abs((w_S - w_M) - delta) > RESIDUAL_TOL:
        raise SupportConditionError("indifference residual too large (bug)")
    if abs((w_S + beta * w_M) - V_tilde) > RESIDUAL_TOL:
        raise SupportConditionError("zero-profit residual too large (bug)")
    return WageSupport(
        w_S=w_S,
        w_M=w_M,
        delta_q=delta,
        beta=beta,
        V_tilde=V_tilde,
        r_bar=ratio_bound(econ).r_bar,
        B_S=B_S,
        B_M=B_M,
    )


def unit_cost(x, design: SpecialistDesign, r: float, econ: Economy) -> float:
    """Unit cost of design (x, nu) at wage ratio r."""
    xv = np.asarray(x, dtype=float)
    if r < 0.0:
        raise DomainError("wage ratio must be nonnegative")
    if float(np.abs(design.mean() - xv).max()) > 1e-10:
        raise DomainError("design mean does not match the stated mix")
    cov = coverage(xv, econ.q)
    if cov <= 0.0:
        raise ZeroCoverageError("zero productive coverage: unit cost undefined")
    e_lam = design.mean_inefficiency(econ.tech)
    gam = gamma_index(econ.tech, design.gap_bundle(xv))
    return (e_lam + econ.theta * r * gam) / cov


@dataclass(frozen=True)
class NoDeviationReport:
    """Grid verification that the aligned corner design is cost-minimal."""

    worst_margin: float
    n_designs: int
    passed: bool
    r: float
    cost_at_optimum: float
    worst_design: SpecialistDesign | None


def no_deviation_check(
    wages: WageSupport,
    econ: Economy,
    resolution: int = 8,
    max_atoms: int = 3,
    max_designs: int = 8_000_000,
) -> NoDeviationReport:
    """Scan grid_designs for unit costs below the aligned corner design.

    When the uniqueness cutoffs hold, any violation is raised as an
    error; outside them violations are reported in the margin only.
    """
    r = wages.w_M / wages.w_S
    cost_q = (1.0 + econ.theta * r * gamma_index(econ.tech, econ.q * (1.0 - econ.q))) / 1.0
    worst = np.inf
    worst_design = None
    n_seen = 0
    designs = grid_designs(econ, resolution, max_atoms, max_designs)
    for atom_dirs, w, X, E_lam, gam, cov in designs:
        n_seen += X.shape[0]
        ok = cov > 0.0
        cost = (E_lam[ok] + econ.theta * r * gam[ok]) / cov[ok]
        del X, E_lam  # free this batch before grid_designs builds the next
        if cost.size == 0:
            continue
        k = int(np.argmin(cost))
        if cost[k] < worst:
            worst = float(cost[k])
            sel = np.flatnonzero(ok)[k]
            worst_design = SpecialistDesign(directions=atom_dirs[sel], weights=w)
    worst_margin = worst - cost_q
    passed = worst_margin >= -MARGIN_TOL
    if not passed and ratio_bound(econ).unique_ok:
        raise DeviationFoundError(
            f"profitable deviation with margin {worst_margin:.3e} found although "
            f"the uniqueness cutoffs hold; deviating mix {worst_design.mean()!r}"
        )
    return NoDeviationReport(
        worst_margin=worst_margin,
        n_designs=n_seen,
        passed=passed,
        r=r,
        cost_at_optimum=cost_q,
        worst_design=worst_design,
    )
