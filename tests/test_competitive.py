from dataclasses import replace

import numpy as np
import pytest

from specint.competitive import no_deviation_check, ratio_bound, support_wages
from specint.errors import DomainError, HypothesisError
from specint.knowledge import coverage
from specint.learning import gamma_index, max_scale, max_scale_batch
from specint.production import (
    SpecialistDesign,
    accounts,
    corner_design,
    productive_optimum,
)

from conftest import make_economy


def unit_cost(x, design, r, econ):
    """Off-grid reference for a firm's unit cost of design (x, nu) at wage
    ratio r, c(x, nu; r) = (E_nu[lambda] + theta*r*Gamma(z_nu(x)))/C(x, q),
    which the engine reads as V/Y in brute_force_design."""
    xv = np.asarray(x, dtype=float)
    cov = coverage(xv, econ.q)
    e_lam = float((design.weights / max_scale_batch(econ.tech, design.directions)).sum())
    z = design.weights @ np.clip(xv[None, :] - design.directions, 0.0, None)
    gam = gamma_index(econ.tech, z)
    return (e_lam + econ.theta * r * gam) / cov


def test_support_wages_identities(econ):
    w = support_wages(econ)
    assert w.w_S > 0.0 and w.w_M > 0.0
    assert abs(w.w_S - w.w_M - w.delta_q) <= 1e-12
    assert abs(w.w_S + w.beta * w.w_M - w.V_tilde) <= 1e-12
    # zero profit through the coordination-index route:
    # V_tilde*C - w_S*E - theta*w_M*A with C=1, E=1, A=Gamma(q*(1-q))
    A = gamma_index(econ.tech, econ.q * (1 - econ.q))
    assert abs(w.V_tilde - w.w_S - econ.theta * w.w_M * A) <= 1e-10
    acc = accounts(productive_optimum(econ)[1], econ)
    assert w.delta_q == pytest.approx(np.log(acc.B_M / acc.B_S), abs=1e-14)
    # wage ratio below one keeps theta*r under the coordination cutoff
    assert w.w_M / w.w_S < 1.0
    assert econ.theta * w.w_M / w.w_S < econ.theta_bar


def test_support_wages_rejects_hot_theta(econ):
    with pytest.raises(HypothesisError, match="not below the coordination cutoff"):
        support_wages(econ.with_theta(econ.theta_bar * 1.5))


def test_support_wages_rejects_small_net_productivity():
    # delta_q ~ 0.9 here, so V_tilde below it breaks positivity
    econ = make_economy(V=1.0, tau=0.3)
    with pytest.raises(HypothesisError, match="not below net productivity"):
        support_wages(econ)


def test_support_wages_rejects_nonpositive_specialist_wage():
    # a concentrated civic profile gives delta ~ -0.37; at V = 1e-3,
    # beta*(-delta) exceeds V_tilde and w_S would be negative
    econ = make_economy(q=(0.8, 0.1, 0.1), u=(0.9, 0.05, 0.05), V=1e-3, theta=0.01)
    with pytest.raises(HypothesisError, match="specialist wage would not be positive"):
        support_wages(econ)


def test_no_deviation_rejects_negative_wage_ratio(econ):
    # the scan runs the design oracle at integration cost theta*r, which
    # must be positive: a zero wage ratio is a domain error, not a config one
    wages = support_wages(econ)
    for bad in (replace(wages, w_S=-1.0), replace(wages, w_M=0.0)):
        with pytest.raises(DomainError, match=r"must make the integration cost theta\*r positive"):
            no_deviation_check(bad, econ, resolution=2, max_atoms=1)


def test_wage_positivity_boundary():
    # approaching delta = V_tilde from below drives w_M to zero
    econ = make_economy(V=1.3, tau=0.3)  # V_tilde = 0.91, delta ~ 0.898
    w = support_wages(econ)
    assert 0.0 < w.w_M < 0.05
    assert w.w_S > w.w_M


def test_symmetric_groups_wage_split(econ):
    # delta = 0 collapses both wages to V_tilde/(1+beta); exercised through
    # the closed forms directly
    w = support_wages(econ)
    V_tilde, beta = w.V_tilde, w.beta
    w_eq = V_tilde / (1.0 + beta)
    assert (V_tilde - 0.0) / (1.0 + beta) == pytest.approx(w_eq)
    assert (V_tilde + beta * 0.0) / (1.0 + beta) == pytest.approx(w_eq)


def test_unit_cost_aligned_corner(econ):
    r = 0.8
    got = unit_cost(econ.q, corner_design(econ.q), r, econ)
    want = 1.0 + econ.theta * r * gamma_index(econ.tech, econ.q * (1 - econ.q))
    assert got == pytest.approx(want, abs=1e-12)


def test_unit_cost_zero_ratio_prefers_alignment(econ):
    cost_q = unit_cost(econ.q, corner_design(econ.q), 0.0, econ)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.dirichlet(np.ones(3))
        assert unit_cost(x, corner_design(x), 0.0, econ) >= cost_q - 1e-12


def test_unit_cost_single_atom_is_inefficiency(econ):
    # a one-direction design has no gaps; cost is lambda/coverage, lambda = 1/H
    x = np.array([0.4, 0.35, 0.25])
    got = unit_cost(x, SpecialistDesign(directions=x[None, :], weights=np.ones(1)), 0.5, econ)
    want = (1.0 / max_scale(econ.tech, x)) / np.minimum(x, econ.q).sum()
    assert got == pytest.approx(want, abs=1e-12)


def test_cornerization_cheaper_in_safe_range(econ):
    # below c_ell/L_Gamma the corner version of any design is weakly cheaper
    cs = econ.constants
    r = 0.5 * cs.c_ell / cs.L_Gamma / econ.theta
    rng = np.random.default_rng(21)
    for _ in range(50):
        dirs = np.vstack([rng.dirichlet(np.ones(3)) for _ in range(2)])
        design = SpecialistDesign(directions=dirs, weights=rng.dirichlet(np.ones(2)))
        x = design.mean()
        assert unit_cost(x, corner_design(x), r, econ) <= unit_cost(
            x, design, r, econ
        ) + 1e-12


def test_ratio_bound_values(econ):
    rb = ratio_bound(econ)
    V_tilde = (1 - econ.tau) * econ.V
    ell_bar = econ.tech.ell_bar
    delta_cap = np.log(1.0 / (ell_bar ** (-econ.p) * econ.u.min()))
    assert rb.r_bar == pytest.approx(
        2 * (V_tilde + ell_bar * delta_cap) / (V_tilde * econ.q.min()), abs=1e-12
    )
    assert rb.theta_cap == pytest.approx(
        V_tilde * econ.q.min() / (2 * ell_bar * delta_cap), abs=1e-12
    )
    assert rb.uniqueness_cutoff == pytest.approx(
        min(econ.theta_bar / rb.r_bar, rb.theta_cap), abs=1e-15
    )
    assert rb.bound_valid and rb.unique_ok


def test_ratio_bound_large_productivity_limit():
    # as net productivity grows the bound falls toward 2/q_min
    small = ratio_bound(make_economy(V=30.0))
    large = ratio_bound(make_economy(V=3000.0))
    assert large.r_bar < small.r_bar
    assert large.r_bar == pytest.approx(2.0 / 0.2, rel=1e-2)


def test_no_deviation_on_default(econ, scenario):
    w = support_wages(econ)
    rep = no_deviation_check(w, econ, resolution=6, max_atoms=2)
    assert rep.worst_margin >= -1e-9
    assert rep.r <= ratio_bound(econ).r_bar
    assert rep.cost_at_optimum == pytest.approx(
        unit_cost(econ.q, corner_design(econ.q), rep.r, econ), abs=1e-14
    )


def test_no_deviation_reports_outside_cutoffs():
    # push theta above the uniqueness cutoff: violations only reported
    econ = make_economy(theta=0.0135)  # below theta_bar, above uniqueness
    assert not ratio_bound(econ).unique_ok
    w = support_wages(econ)
    rep = no_deviation_check(w, econ, resolution=6, max_atoms=2)
    assert rep.n_designs > 0  # completes without raising either way
