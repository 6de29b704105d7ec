import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from specint import learning, oracles, reforms, welfare
from specint.economy import Economy
from specint.errors import OracleError
from specint.knowledge import DiffuseCheck, check_diffuse, fragmentation
from specint.production import accounts, corner_design, minimal_allocation
from specint.scenario import DEFAULTS, load_scenario, scenario_from_entries

from test_cli import SMALL_BUDGETS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_check(check, scn):
    """Run one check with the generator `specint verify` gives it."""
    rng = np.random.default_rng([scn.seed, oracles.CHECKS.index(check)])
    return check(scn, rng, 1.0)


def test_economy_copies_keep_profile_bits():
    # with_theta/with_u copies validate q and u and never renormalize them
    rng = np.random.default_rng(12345)
    base = scenario_from_entries(dict(DEFAULTS)).econ
    for _ in range(300):
        econ = oracles._random_economy(rng, base)
        copy = econ.with_theta(econ.theta)
        assert np.array_equal(copy.q, econ.q) and np.array_equal(copy.u, econ.u)
        assert np.array_equal(econ.with_u(econ.u).u, econ.u)


def per_draw_diffuse_economy(rng, base):
    """The civic-advantage sampler before block drawing: whole economies
    drawn one at a time until one passes check_diffuse."""
    for _ in range(500):
        k = int(rng.integers(3, 6))
        tech = oracles._random_tech(rng)
        q = oracles._interior_simplex(rng, k)
        if rng.random() < 0.4:
            u = rng.dirichlet(np.full(k, 0.4)) * 0.9 + 0.1 / k
            u = u / u.sum()
        else:
            u = oracles._interior_simplex(rng, k)
        p = float(rng.uniform(0.05, 0.9))
        theta_frac = float(rng.uniform(0.05, 0.9))
        if check_diffuse(u, p, tech).ok:
            return Economy(
                tech=tech, q=q, u=u, p=p,
                theta=theta_frac * tech.constants.theta_bar, V=base.V, gov=base.gov,
            )
    raise OracleError("per-draw sampler exhausted its draw budget")


def test_diffuse_sampler_returns_n_diffuse_economies():
    base = scenario_from_entries(dict(DEFAULTS)).econ
    econs = oracles._diffuse_economies(np.random.default_rng(7), base, 40)
    assert len(econs) == 40
    for econ in econs:
        assert 3 <= econ.K <= 5
        assert check_diffuse(econ.u, econ.p, econ.tech).ok
        assert 0.0 < econ.theta < econ.theta_bar


def test_diffuse_sampler_budget_raises(monkeypatch):
    # a hypothesis no candidate meets ends in OracleError, not an endless loop
    calls = []

    def never(u, p, tech):
        calls.append(p)
        return DiffuseCheck(ok=False, bound=0.0)

    monkeypatch.setattr(oracles, "check_diffuse", never)
    base = scenario_from_entries(dict(DEFAULTS)).econ
    with pytest.raises(OracleError):
        oracles._diffuse_economies(np.random.default_rng(7), base, 1)
    assert len(calls) == oracles.DIFFUSE_DRAW_BUDGET


def test_diffuse_sampler_keeps_the_accepted_law():
    """600 accepted economies from the block sampler against 600 from the
    per-draw sampler: mean diffuseness bound, mean p, K=3 share and
    rational share agree within 4 standard errors of their difference.

    Drawing p ~ U(0.05, min(0.9, bound)) after (K, tech, u) fails this test:
    at these seeds its mean bound is 0.41 against 0.63, over 10 standard
    errors apart, because it drops the weight P(p < bound) that rejection
    puts on each (K, tech, u).
    """
    n = 600
    base = scenario_from_entries(dict(DEFAULTS)).econ
    rng = np.random.default_rng(20261019)
    old = [per_draw_diffuse_economy(rng, base) for _ in range(n)]
    new = oracles._diffuse_economies(np.random.default_rng(20261020), base, n)

    def stats(econs):
        return {
            "bound": [check_diffuse(e.u, e.p, e.tech).bound for e in econs],
            "p": [e.p for e in econs],
            "K=3": [float(e.K == 3) for e in econs],
            "rational": [float(e.tech.family == "rational") for e in econs],
        }

    a, b = stats(old), stats(new)
    for key in a:
        x, y = np.array(a[key]), np.array(b[key])
        se = np.sqrt(x.var(ddof=1) / n + y.var(ddof=1) / n)
        assert abs(x.mean() - y.mean()) <= 4.0 * se, (key, x.mean(), y.mean(), se)


def per_draw_gap_accounting(scn, rng):
    """check_gap_accounting with one minimal_allocation frontier solve per draw."""
    econ = scn.econ
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(2, 6))
        x = oracles._interior_simplex(rng, K)
        tmp = Economy(
            tech=econ.tech, q=x, u=np.full(K, 1.0 / K), p=econ.p,
            theta=econ.theta, V=econ.V, gov=econ.gov,
        )
        alloc = minimal_allocation(corner_design(x), tmp)
        gaps = accounts(alloc, tmp).gaps
        worst = max(
            worst,
            float(np.abs(gaps.G - (1.0 - alloc.m) * x * (1.0 - x)).max()),
            abs(gaps.g - (1.0 - alloc.m) * fragmentation(x)),
        )
    return worst


@pytest.mark.parametrize("scn", [
    load_scenario(str(SCENARIOS / "default.cfg")),
    scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS}),
], ids=["default", "small-budgets"])
def test_gap_accounting_matches_per_draw_solves(scn):
    # corner scales solved once per K give the bits of a solve per draw
    result = run_check(oracles.check_gap_accounting, scn)
    rng = np.random.default_rng([scn.seed, oracles.CHECKS.index(oracles.check_gap_accounting)])
    assert result.metric.hex() == per_draw_gap_accounting(scn, rng).hex()


def test_welfare_representation_near_equal_groups():
    # this seed draws B_S=0.892674, B_M=0.892709, m=0.106: a gap of 3.5e-5
    # whose dispersion, second order in the gap, is only 7.2e-11
    scn = scenario_from_entries(dict(DEFAULTS)).with_seed(2029167940)
    result = run_check(oracles.check_welfare_representation, scn)
    assert result.status == "pass", result


def test_design_oracle_accepts_off_grid_winner():
    # with two atoms at resolution 4 the winning mix (0.8125, 0.125, 0.0625)
    # is off the grid, so no corner design can reproduce it
    scn = scenario_from_entries({
        **DEFAULTS,
        "learning.param": "0.8963875849667817",
        "economy.q": "0.8343250657325624,0.09480424878249549,0.07087068548494216",
        "economy.u": "0.3063940704913236,0.35809957245788615,0.3355063570507902",
        "economy.p": "0.2582491902257278",
        "economy.theta": "0.0015167988585667932",
        "economy.v": "11.119243826416827",
        "gov.eta": "0.3958993583617832",
        "gov.tau": "0.4221832477430756",
        "oracle.resolution": "4",
        "oracle.atoms": "2",
    })
    result = run_check(oracles.check_design_oracle, scn)
    assert result.status == "pass", result


def test_theta_statics_when_integrators_know_less():
    # concentrated civic profile: B_S = 0.475 > B_M = 0.387, so civic
    # capacity falls as integration cost raises the integrator share
    scn = scenario_from_entries(
        {**DEFAULTS, "economy.u": "0.9,0.05,0.05", "economy.p": "0.52"}
    )
    result = run_check(oracles.check_theta_statics, scn)
    assert result.status == "pass", result


def test_theta_statics_grid_point_next_to_cutoff():
    # the inner grid point lies within the finite-difference step of
    # theta_bar, where productive_optimum is not defined on the upper side
    scn = scenario_from_entries(
        {**DEFAULTS, "sweep.theta_frac": "0.5,0.9999995,0.9999999"}
    )
    result = run_check(oracles.check_theta_statics, scn)
    assert result.status == "pass", result


def test_theta_statics_grid_point_next_to_zero():
    # the sampled grid points lie within the finite-difference step of 0,
    # where productive_optimum is not defined on the lower side
    scn = scenario_from_entries({**DEFAULTS, "sweep.theta_frac": "1e-7:9e-7:25"})
    result = run_check(oracles.check_theta_statics, scn)
    assert result.status == "pass", result


def test_theta_statics_check_reads_the_emitted_column(monkeypatch):
    # the check certifies the dm_dtheta column that theta_statics returns
    # (and sweep --axis theta writes) at every sampled grid index
    scn = load_scenario(str(SCENARIOS / "default.cfg"))
    assert run_check(oracles.check_theta_statics, scn).status == "pass"
    statics = reforms.theta_statics
    for index in range(1, scn.theta_grid().size - 1, 7):
        def perturbed(econ, grid, index=index):
            report = statics(econ, grid)
            column = report.dm_dtheta.copy()
            column[index] *= 1.0 + 1e-6
            return dataclasses.replace(report, dm_dtheta=column)

        monkeypatch.setattr(reforms, "theta_statics", perturbed)
        assert run_check(oracles.check_theta_statics, scn).status == "fail", index


@pytest.mark.parametrize("column", ["welfare", "B_soc"])
def test_theta_statics_check_reads_the_welfare_columns(monkeypatch, column):
    # the check holds every row's welfare and B_soc against the per-theta
    # optimum and its full welfare accounts
    scn = load_scenario(str(SCENARIOS / "default.cfg"))
    statics = reforms.theta_statics
    for index in (0, 12, scn.theta_grid().size - 1):
        def perturbed(econ, grid, index=index):
            report = statics(econ, grid)
            values = getattr(report, column).copy()
            values[index] *= 1.0 + 1e-9
            return dataclasses.replace(report, **{column: values})

        monkeypatch.setattr(reforms, "theta_statics", perturbed)
        assert run_check(oracles.check_theta_statics, scn).status == "fail", index


@pytest.mark.parametrize("check", [
    oracles.check_frontier_lipschitz,
    oracles.check_concavity_gap,
    oracles.check_gamma_lipschitz,
    oracles.check_integrator_capacity,
])
def test_batched_checks_solve_frontier_once_per_size(check, monkeypatch):
    # each check draws all its directions first, then solves them in one
    # max_scale_batch call per simplex dimension K (K is drawn from 2..5)
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS})
    sizes = []
    solve = learning.max_scale_batch

    def counted(tech, directions):
        sizes.append(directions.shape[1])
        return solve(tech, directions)

    monkeypatch.setattr(learning, "max_scale_batch", counted)
    assert run_check(check, scn).status == "pass"
    assert all(sizes.count(K) <= 2 for K in set(sizes)), sizes


def test_interface_statics_check_runs_no_welfare(monkeypatch):
    # the check compares closed-form slopes and locates theta_small; it has
    # no use for the welfare curves of the alpha sweep
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS})
    calls = []
    evaluate = welfare.total_welfare

    def counted(econ, alloc):
        calls.append(alloc)
        return evaluate(econ, alloc)

    monkeypatch.setattr(welfare, "total_welfare", counted)
    assert run_check(oracles.check_interface_statics, scn).status == "pass"
    assert calls == []


@pytest.mark.parametrize("B_S_slope", [0.01, 1e-15])
def test_interface_statics_check_fails_on_a_rising_B_S(monkeypatch, B_S_slope):
    # only q uniform (both slopes 0) skips the check; a wrong-signed B_S'
    # next to a rising B_M' is a failure, however small it is
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS})
    slopes = reforms.interface_closed_slopes

    def rising(econ):
        return B_S_slope, slopes(econ)[1]

    monkeypatch.setattr(reforms, "interface_closed_slopes", rising)
    assert run_check(oracles.check_interface_statics, scn).status == "fail"


def test_excess_specialization_check_bites(monkeypatch):
    # governance_heavy puts eta* inside (0,1), so the check confirms both the
    # closed-form W'(0) and the sign flip of the fd slope around eta*
    scn = load_scenario(str(SCENARIOS / "governance_heavy.cfg"))
    result = run_check(oracles.check_excess_specialization, scn)
    assert result.status == "pass", result
    eta_star = float(re.search(r"eta\*=(\S+)", result.note).group(1))
    assert eta_star == pytest.approx(0.7406, abs=1e-4)
    assert "sign flip confirmed" in result.note
    derivative = reforms.broadening_derivative
    for field, factor in (("eta_star", 1.01), ("eta_star", 0.99), ("welfare", 1.0 + 1e-6)):
        def shifted(econ, field=field, factor=factor):
            slope = derivative(econ)
            return dataclasses.replace(slope, **{field: getattr(slope, field) * factor})

        monkeypatch.setattr(reforms, "broadening_derivative", shifted)
        assert run_check(oracles.check_excess_specialization, scn).status == "fail", field
