"""Decentralization of the productive optimum through posted role wages.

With worker indifference across roles (net wage plus political
continuation value) and free entry, the optimum is supported by

    w_M = (V_tilde - delta) / (1 + beta),   w_S = (V_tilde + beta*delta) / (1 + beta),

where delta = log(B_M/B_S) is the continuation-value gap at the optimum,
beta = theta*D(q)/H(h*) is integrator labor per unit of specialist
mastery, and V_tilde = (1-tau)*V. Both wages are positive when
-V_tilde/beta < delta < V_tilde; the pair delivers zero profit
(w_S + beta*w_M = V_tilde) and exact indifference (w_S - w_M = delta).

A firm running design (x, nu) at wage ratio r = w_M/w_S pays unit cost

    c(x, nu; r) = (E_nu[lambda] + theta*r*Gamma(z_nu(x))) / C(x, q),

minimized by corner specialists aligned at x = q whenever theta*r is
below the coordination cutoff. The primitive wage-ratio bound
r_bar = 2*(V_tilde + ell_bar*Delta_cap) / (V_tilde*q_min), with
Delta_cap = log(1/(ell_bar**-p * u_min)), turns that into the uniqueness
condition theta < min(theta_bar/r_bar, V_tilde*q_min/(2*ell_bar*Delta_cap)).
The engine verifies the constructed equilibrium (wages, no profitable
deviation on a design grid) rather than searching for one. As
c(x, nu; r) = V/Y(x, nu) at integration cost theta*r, the no-deviation
scan is production.brute_force_design run there: one grid search serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .economy import Economy
from .errors import DomainError, HypothesisError, OracleError
from .knowledge import fragmentation
from .learning import gamma_index
from .production import (
    ProductiveOptimum,
    SpecialistDesign,
    accounts,
    brute_force_design,
    productive_optimum,
)

RESIDUAL_TOL = 1e-10  # floor of the wage identities' residual bound
MARGIN_TOL = 1e-9  # round-off allowance before a cheaper grid design counts


@dataclass(frozen=True)
class WageSupport:
    """Role wages supporting the optimum, with the objects behind them."""

    w_S: float
    w_M: float
    delta_q: float
    beta: float
    V_tilde: float


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
    ell_bar = econ.tech.ell_bar
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
    opt, alloc = productive_optimum(econ)
    acc = accounts(alloc, econ)
    return wages_at_optimum(econ, opt, acc.B_S, acc.B_M)


def wages_at_optimum(econ: Economy, opt: ProductiveOptimum, B_S: float, B_M: float) -> WageSupport:
    """support_wages given the productive optimum opt of econ and its group
    knowledge B_S, B_M; the caller has checked that theta is below the
    coordination cutoff."""
    delta = math.log(B_M / B_S)
    V_tilde = (1.0 - econ.tau) * econ.V
    if not delta < V_tilde:
        raise HypothesisError(
            f"continuation gap {delta:.6g} not below net productivity "
            f"{V_tilde:.6g}; positive wages cannot support the optimum"
        )
    beta = econ.theta * fragmentation(econ.q) / opt.H_hstar
    if not V_tilde + beta * delta > 0.0:
        raise HypothesisError(
            f"net productivity {V_tilde:.6g} not above beta*(-delta) = "
            f"{-beta * delta:.6g}; the specialist wage would not be positive"
        )
    w_M = (V_tilde - delta) / (1.0 + beta)
    w_S = (V_tilde + beta * delta) / (1.0 + beta)
    # both identities hold exactly; their round-off grows with the wages,
    # which are of order V_tilde
    tol = max(RESIDUAL_TOL, 16.0 * float(np.finfo(float).eps) * V_tilde)
    if abs((w_S - w_M) - delta) > tol:
        raise OracleError("indifference residual too large (bug)")
    if abs((w_S + beta * w_M) - V_tilde) > tol:
        raise OracleError("zero-profit residual too large (bug)")
    return WageSupport(
        w_S=w_S,
        w_M=w_M,
        delta_q=delta,
        beta=beta,
        V_tilde=V_tilde,
    )


@dataclass(frozen=True)
class NoDeviationReport:
    """Grid verification that the aligned corner design is cost-minimal,
    which holds while worst_margin >= -MARGIN_TOL; n_designs counts the
    whole space, n_evaluated the designs whose Gamma was solved."""

    worst_margin: float
    n_designs: int
    n_evaluated: int
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
    """Search the design grid for unit costs below the aligned corner design.

    A firm's unit cost c(x, nu; r) at wage ratio r is V/Y for the output of
    the same design at integration cost theta*r, so the cheapest design is
    brute_force_design's winner in the economy with theta*r in place of
    theta; exact ties go to the lexicographically smallest mix. When the
    uniqueness cutoffs hold, any violation is raised as an error; outside
    them violations are reported in the margin only.
    """
    r = wages.w_M / wages.w_S
    if not econ.theta * r > 0.0:
        raise DomainError(f"wage ratio {r:.6g} must make the integration cost theta*r positive")
    cost_q = 1.0 + econ.theta * r * gamma_index(econ.tech, econ.q * (1.0 - econ.q))
    found = brute_force_design(econ.with_theta(econ.theta * r), resolution, max_atoms, max_designs)
    worst_margin = found.unit_cost - cost_q
    if not worst_margin >= -MARGIN_TOL and ratio_bound(econ).unique_ok:
        raise OracleError(
            f"profitable deviation with margin {worst_margin:.3e} found although "
            f"the uniqueness cutoffs hold; deviating mix {found.x!r}"
        )
    return NoDeviationReport(
        worst_margin=worst_margin,
        n_designs=found.n_designs,
        n_evaluated=found.n_evaluated,
        r=r,
        cost_at_optimum=cost_q,
        worst_design=found.design,
    )
