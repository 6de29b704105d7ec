import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specint import politics
from specint.errors import ConfigError, DomainError, HypothesisError, OracleError
from specint.politics import (
    GovernanceTech,
    Platform,
    _illinois_root,
    _split_budget,
    best_response,
    best_response_fixed_point,
    equilibrium_from_groups,
    governance_star,
    kkt_residuals,
    political_equilibrium,
    resource_sensitivities,
    vote_share_slope,
)
from specint.production import accounts, productive_optimum
from specint.scenario import load_scenario

from conftest import interior_simplex, make_economy

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_governance_tech_validation():
    with pytest.raises(ConfigError):
        GovernanceTech(eta=1.2, c0=0.1, tau=0.3, lambda0=1.0)
    with pytest.raises(ConfigError):
        GovernanceTech(eta=0.5, c0=0.1, tau=0.0, lambda0=1.0)
    with pytest.raises(ConfigError):
        GovernanceTech(eta=0.5, c0=0.1, tau=0.3, lambda0=0.5)


def test_governance_star_closed_form():
    gov = GovernanceTech(eta=0.5, c0=0.125, tau=0.3, lambda0=1.0)
    # sqrt(eta*B/(4*lambda0*c0)) with these numbers is exactly 1
    assert governance_star(gov, Y=5.0, B=1.0) == pytest.approx(1.0, abs=1e-10)
    # doubling B scales the optimum by sqrt(2)
    e1 = governance_star(gov, Y=5.0, B=0.4)
    e2 = governance_star(gov, Y=5.0, B=0.8)
    assert e2 / e1 == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_governance_residual_small():
    gov = GovernanceTech(eta=0.7, c0=0.3, tau=0.2, lambda0=1.5)
    for B in (0.05, 0.3, 0.9):
        e = governance_star(gov, Y=2.0, B=B)
        # first-order condition of B*log(tau*Y*e**eta) - 4*Lambda0*c0*e**2/2
        assert abs(B * gov.eta / e - 4 * gov.lambda0 * gov.c0 * e) <= 1e-12


def test_resource_sensitivities_positive_and_match_fd():
    gov = GovernanceTech(eta=0.5, c0=0.125, tau=0.3, lambda0=1.0)
    rng = np.random.default_rng(6)

    def governed(y, b):
        return gov.resources(governance_star(gov, y, b), y)

    h = 1e-6
    for _ in range(20):
        Y = float(rng.uniform(0.5, 40.0))
        B = float(rng.uniform(0.05, 0.95))
        R, R_Y, R_B = resource_sensitivities(gov, Y, B)
        assert R_Y > 0.0 and R_B > 0.0
        fY = (governed(Y * (1 + h), B) - governed(Y * (1 - h), B)) / (2 * h * Y)
        fB = (governed(Y, B * (1 + h)) - governed(Y, B * (1 - h))) / (2 * h * B)
        assert R == governed(Y, B)
        assert fY == pytest.approx(R_Y, rel=1e-6)
        assert fB == pytest.approx(R_B, rel=1e-6)


def test_vote_share_examples():
    # marginal response at a symmetric platform is beta/(4t)
    for beta, t in ((0.2, 0.5), (0.8, 3.0)):
        assert vote_share_slope(t, t, beta) == pytest.approx(beta / (4 * t), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=0.05, max_value=0.95),
)
def test_vote_share_reciprocity(t, t_bar, beta):
    lhs = t * vote_share_slope(t, t_bar, beta)
    rhs = t_bar * vote_share_slope(t_bar, t, beta)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_equilibrium_symmetric_groups(econ):
    out = equilibrium_from_groups(econ, Y=10.0, m=0.2, B_S=0.4, B_M=0.4)
    assert out.z_pol == pytest.approx(0.2, abs=1e-14)
    assert out.t_S == pytest.approx(out.t_M, rel=1e-14)


def test_equilibrium_budget_identity(econ):
    rng = np.random.default_rng(8)
    for _ in range(50):
        out = equilibrium_from_groups(
            econ,
            Y=float(rng.uniform(1.0, 40.0)),
            m=float(rng.uniform(0.01, 0.99)),
            B_S=float(rng.uniform(0.02, 0.9)),
            B_M=float(rng.uniform(0.02, 0.9)),
        )
        assert (1 - out.m) * out.t_S + out.m * out.t_M == pytest.approx(out.R, abs=1e-10)
        assert (out.z_pol > out.m) == (out.B_M > out.B_S)
        if out.B_M > out.B_S:
            assert out.t_M > out.t_S


def test_equilibrium_rejects_degenerate_groups(econ):
    with pytest.raises(HypothesisError, match="voting game needs both groups populated"):
        equilibrium_from_groups(econ, Y=5.0, m=0.0, B_S=0.3, B_M=0.4)
    with pytest.raises(HypothesisError, match="voting game needs both groups populated"):
        equilibrium_from_groups(econ, Y=5.0, m=1.0, B_S=0.3, B_M=0.4)


def test_group_knowledge_closed_forms(econ):
    opt, alloc = productive_optimum(econ)
    acc = accounts(alloc, econ)
    assert acc.B_S == pytest.approx(float(econ.q @ econ.u), abs=1e-12)
    expected_M = opt.H_hstar**econ.p * np.minimum(opt.h_star, econ.u).sum()
    assert acc.B_M == pytest.approx(expected_M, abs=1e-12)


def test_equilibrium_kkt_residuals(econ):
    _, alloc = productive_optimum(econ)
    out = political_equilibrium(econ, alloc)
    assert max(kkt_residuals(econ, out)) <= 1e-9


def test_resources_increasing_in_knowledge(econ):
    _, alloc = productive_optimum(econ)
    outs = [
        equilibrium_from_groups(econ, Y=10.0, m=0.2, B_S=b, B_M=b) for b in (0.2, 0.4, 0.8)
    ]
    assert outs[0].R < outs[1].R < outs[2].R


def test_best_response_at_equilibrium_is_fixed(econ):
    _, alloc = productive_optimum(econ)
    out = political_equilibrium(econ, alloc)
    br = best_response(Platform(out.e_pol, out.z_pol, out.t_S, out.t_M), econ, out)
    assert abs(br.e - out.e_pol) <= 1e-6
    assert abs(br.z - out.z_pol) <= 1e-6
    assert abs(br.t_S - out.t_S) <= 1e-6
    assert abs(br.t_M - out.t_M) <= 1e-6


def test_best_response_fixed_point_from_random_starts(econ):
    _, alloc = productive_optimum(econ)
    out = political_equilibrium(econ, alloc)
    rng = np.random.default_rng(10)
    for _ in range(10):
        start = (float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 0.95)))
        fp = best_response_fixed_point(start, econ, out)
        assert abs(fp.e - out.e_pol) <= 1e-6
        assert abs(fp.z - out.z_pol) <= 1e-6


def test_best_response_symmetric_betas_equal_services(econ):
    # candidates facing identical group responsiveness split evenly: in the
    # voting game of equal group knowledge the best response to the
    # equilibrium platform gives both groups the same service
    _, alloc = productive_optimum(econ)
    out = equilibrium_from_groups(econ, Y=10.0, m=alloc.m, B_S=0.5, B_M=0.5)
    assert out.t_S == pytest.approx(out.t_M, rel=1e-12)
    br = best_response(Platform(out.e_pol, out.z_pol, out.t_S, out.t_M), econ, out)
    assert br.t_S > 0.0
    assert br.t_S == pytest.approx(br.t_M)


def _net_vote_share(e, econ, out, opponent):
    # the proposer's objective at governance level e, with the budget split
    # as best_response splits it: sum_g mass_g * Psi_g(t_g; tbar_g) - c(e)
    gov, m = econ.gov, out.m
    beta_S, beta_M = out.B_S / gov.lambda0, out.B_M / gov.lambda0
    R_bar = gov.resources(opponent.e, out.Y)
    tbar_S, tbar_M = (1.0 - opponent.z) * R_bar / (1.0 - m), opponent.z * R_bar / m
    t_S, t_M = _split_budget(gov.resources(e, out.Y), m, beta_S, beta_M, tbar_S, tbar_M)

    def psi(t, t_bar, beta):
        return t**beta / (t**beta + t_bar**beta)

    return (1.0 - m) * psi(t_S, tbar_S, beta_S) + m * psi(t_M, tbar_M, beta_M) - gov.cost(e)


@pytest.mark.parametrize("scenario", ["default", "governance_heavy"])
def test_best_response_maximizes_vote_share(scenario):
    # the envelope condition's root is the maximum of the net vote share,
    # not just a stationary point of it
    econ = load_scenario(str(SCENARIOS / f"{scenario}.cfg")).econ
    out = political_equilibrium(econ, productive_optimum(econ)[1])
    e_hi = 1.0
    while econ.gov.cost(e_hi) < 1.5:
        e_hi *= 2.0
    grid = np.linspace(e_hi / 100, e_hi, 100)
    rng = np.random.default_rng(23)
    for _ in range(20):
        opponent = Platform(float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 0.95)), 0.0, 0.0)
        e = best_response(opponent, econ, out).e
        best = _net_vote_share(e, econ, out, opponent)
        for other in (e * (1.0 - 1e-6), e * (1.0 + 1e-6), *grid):
            assert best >= _net_vote_share(float(other), econ, out, opponent), (opponent, e, other)


def test_best_response_solver_budgets_raise(econ, monkeypatch):
    out = political_equilibrium(econ, productive_optimum(econ)[1])
    opponent = Platform(0.5, 0.3, 0.0, 0.0)
    monkeypatch.setattr(politics, "_FOC_MAX_ITER", 2)
    with pytest.raises(OracleError, match="no sign change of the envelope condition"):
        best_response(opponent, econ, out)
    with pytest.raises(OracleError, match="envelope condition did not converge"):
        _illinois_root(lambda x: 1.0 - x**3, 0.0, 3.0, 1.0, -26.0)
    monkeypatch.undo()
    # a NaN envelope condition ends the bracket search instead of looping
    monkeypatch.setattr(politics, "vote_share_slope", lambda t, t_bar, beta: math.nan)
    with pytest.raises(OracleError, match="no sign change of the envelope condition"):
        best_response(opponent, econ, out)


def test_best_response_requires_positive_opponent_services(econ):
    out = political_equilibrium(econ, productive_optimum(econ)[1])
    with pytest.raises(DomainError, match="opponent services must be strictly positive"):
        best_response(Platform(0.5, 0.0, 0.0, 0.0), econ, out)


def test_tilt_direction_both_ways():
    rng = np.random.default_rng(14)
    saw_up = saw_down = False
    for _ in range(60):
        K = 3
        q = interior_simplex(rng, K)
        u = rng.dirichlet(np.full(K, 0.4)) * 0.9 + 0.1 / K
        u = u / u.sum()
        econ = make_economy(q=q, u=u, p=float(rng.uniform(0.1, 0.9)), theta=0.0005)
        econ = econ.with_theta(0.3 * econ.theta_bar)
        _, alloc = productive_optimum(econ)
        out = political_equilibrium(econ, alloc)
        assert (out.z_pol > out.m) == (out.B_M > out.B_S)
        saw_up |= out.B_M > out.B_S
        saw_down |= out.B_M < out.B_S
    assert saw_up and saw_down


def _split_budget_fixed_steps(R, m, beta_S, beta_M, tbar_S, tbar_M):
    # the split as a plain bisection on t_S: always 100 steps
    lo = 1e-14 * R
    hi = R / (1.0 - m) * (1.0 - 1e-14)
    for _ in range(100):
        t_S = 0.5 * (lo + hi)
        t_M = (R - (1.0 - m) * t_S) / m
        if vote_share_slope(t_S, tbar_S, beta_S) > vote_share_slope(t_M, tbar_M, beta_M):
            lo = t_S
        else:
            hi = t_S
    t_S = 0.5 * (lo + hi)
    return t_S, (R - (1.0 - m) * t_S) / m


def _log_multiplier_gap(t_S, t_M, beta_S, beta_M, tbar_S, tbar_M):
    return abs(
        math.log(vote_share_slope(t_S, tbar_S, beta_S))
        - math.log(vote_share_slope(t_M, tbar_M, beta_M))
    )


def test_split_budget_matches_fixed_step_reference():
    # The reference forms t_M as (R - (1-m)*t_S)/m, which cancels when the
    # integrator share is small: its own multiplier gap reaches about 7e-5
    # on these draws. The Newton split agrees with it on the budget shares
    # and balances the multipliers to float resolution.
    rng = np.random.default_rng(21)
    # (m, beta_S, beta_M) at both ends of the documented ranges
    ends = ((0.01, 0.05, 0.95), (0.99, 0.95, 0.05))
    for i in range(500):
        R = float(rng.uniform(0.01, 20.0))
        tbar_S, tbar_M = (float(t) for t in rng.uniform(0.01, 10.0, 2))
        if i % 5 == 0:
            m, beta_S, beta_M = (v + float(rng.uniform(-1e-3, 1e-3)) for v in ends[i // 5 % 2])
        else:
            m = float(rng.uniform(0.01, 0.99))
            beta_S, beta_M = (float(b) for b in rng.uniform(0.05, 0.95, 2))
        args = (R, m, beta_S, beta_M, tbar_S, tbar_M)
        t_S, t_M = _split_budget(*args)
        ref_S, ref_M = _split_budget_fixed_steps(*args)
        assert abs((1.0 - m) * (t_S - ref_S) / R) <= 1e-14, args
        assert abs(m * (t_M - ref_M) / R) <= 1e-14, args
        assert _log_multiplier_gap(t_S, t_M, beta_S, beta_M, tbar_S, tbar_M) <= 1e-13, args


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1e-6, 1.0 - 1e-6),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
)
def test_split_budget_properties(m, beta_S, beta_M, R, tbar_S, tbar_M):
    t_S, t_M = _split_budget(R, m, beta_S, beta_M, tbar_S, tbar_M)
    assert math.isfinite(t_S) and math.isfinite(t_M)
    assert t_S > 0.0 and t_M > 0.0
    share_S, share_M = (1.0 - m) * t_S / R, m * t_M / R
    assert abs((1.0 - m) * t_S + m * t_M - R) <= 8.0 * np.finfo(float).eps * R
    # the split searches z = share_M in [1e-14, 1 - 1e-14*(1-m)]; a root
    # beyond either end returns that end
    if share_M > 2e-14 and share_S > 2e-14 * (1.0 - m):
        gap = _log_multiplier_gap(t_S, t_M, beta_S, beta_M, tbar_S, tbar_M)
        assert gap <= 1e-12
