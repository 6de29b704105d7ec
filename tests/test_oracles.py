import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from specint import knowledge, learning, oracles, production, reforms
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


def one_at_a_time_diffuse_economies(rng, base, n):
    """The civic-advantage sampler with each candidate of a block tested by
    its own check_diffuse call as it comes up: the same draws in the same
    order as the block verdicts, so the same accepted economies."""
    out, misses = [], 0
    block = oracles.DIFFUSE_BLOCK
    while len(out) < n:
        K = rng.integers(3, 6, size=block)
        rational = rng.random(block) < 0.5
        param = rng.uniform(0.6, 3.0, size=block)
        concentrated = rng.random(block) < 0.4
        p = rng.uniform(0.05, 0.9, size=block)
        u = [None] * block
        for k in (3, 4, 5):
            for flag in (False, True):
                index = np.flatnonzero((K == k) & (concentrated == flag))
                if flag:
                    raw = rng.dirichlet(np.full(k, 0.4), size=index.size) * 0.9 + 0.1 / k
                else:
                    raw = 0.85 * rng.dirichlet(np.ones(k), size=index.size) + 0.15 / k
                for i, row in zip(index, raw / raw.sum(axis=1, keepdims=True)):
                    u[i] = row
        for i in range(block):
            family = "rational" if rational[i] else "exponential"
            tech = learning.LearningTech(family=family, param=float(param[i]))
            if not check_diffuse(u[i], float(p[i]), tech).ok:
                misses += 1
                if misses >= oracles.DIFFUSE_DRAW_BUDGET:
                    raise OracleError("per-candidate sampler exhausted its draw budget")
                continue
            misses = 0
            q = oracles._interior_simplex(rng, int(K[i]))
            theta_frac = float(rng.uniform(0.05, 0.9))
            out.append(Economy(
                tech=tech, q=q, u=u[i], p=float(p[i]),
                theta=theta_frac * tech.constants.theta_bar, V=base.V, gov=base.gov,
            ))
            if len(out) == n:
                break
    return out


def test_diffuse_sampler_accepts_what_per_candidate_tests_accept():
    # block verdicts leave the random stream and the accepted economies as
    # they were, over more than one block
    base = scenario_from_entries(dict(DEFAULTS)).econ
    for seed in (7, 8):
        got = oracles._diffuse_economies(np.random.default_rng(seed), base, 400)
        want = one_at_a_time_diffuse_economies(np.random.default_rng(seed), base, 400)
        for a, b in zip(got, want, strict=True):
            assert a.tech == b.tech and (a.p, a.theta) == (b.p, b.theta)
            assert a.q.tobytes() == b.q.tobytes() and a.u.tobytes() == b.u.tobytes()


def test_diffuse_sampler_returns_n_diffuse_economies():
    base = scenario_from_entries(dict(DEFAULTS)).econ
    econs = oracles._diffuse_economies(np.random.default_rng(7), base, 40)
    assert len(econs) == 40
    for econ in econs:
        assert 3 <= econ.K <= 5
        assert check_diffuse(econ.u, econ.p, econ.tech).ok
        assert 0.0 < econ.theta < econ.theta_bar


def test_diffuse_sampler_budget_raises(monkeypatch):
    # a hypothesis no candidate meets ends in OracleError, not an endless
    # loop: the budget runs out inside the first block, whose verdicts come
    # from one stacked call per (K, family) group
    calls = []

    def never(u, p, tech, param):
        calls.append(len(p))
        return DiffuseCheck(ok=np.zeros(len(p), dtype=bool), bound=np.zeros(len(p)))

    monkeypatch.setattr(oracles, "check_diffuse", never)
    base = scenario_from_entries(dict(DEFAULTS)).econ
    with pytest.raises(OracleError):
        oracles._diffuse_economies(np.random.default_rng(7), base, 1)
    assert oracles.DIFFUSE_DRAW_BUDGET <= sum(calls) == oracles.DIFFUSE_BLOCK
    assert len(calls) == 6


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
        acc = accounts(alloc, tmp)
        worst = max(
            worst,
            float(np.abs(acc.G - (1.0 - alloc.m) * x * (1.0 - x)).max()),
            abs(acc.g - (1.0 - alloc.m) * fragmentation(x)),
        )
    return worst


@pytest.mark.parametrize("scn", [
    load_scenario(str(SCENARIOS / "default.cfg")),
    scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS}),
], ids=["default", "small-budgets"])
def test_gap_accounting_matches_per_draw_solves(scn):
    # one minimal_rows block per K gives each draw the bits of its own solve
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
    # (and sweep --axis theta writes) at every grid index
    scn = load_scenario(str(SCENARIOS / "default.cfg"))
    assert run_check(oracles.check_theta_statics, scn).status == "pass"
    statics = reforms.theta_statics
    for index in range(scn.theta_grid().size):
        def perturbed(econ, grid, index=index):
            table = statics(econ, grid)
            table["dm_dtheta"][index] *= 1.0 + 1e-6
            return table

        monkeypatch.setattr(reforms, "theta_statics", perturbed)
        assert run_check(oracles.check_theta_statics, scn).status == "fail", index


@pytest.mark.parametrize("grid", ["0.5", "0.3,0.6"])
def test_theta_statics_check_reads_dm_dtheta_on_a_short_grid(monkeypatch, grid):
    # a grid of one or two points has its dm_dtheta cells checked too
    scn = scenario_from_entries({**DEFAULTS, "sweep.theta_frac": grid})
    assert run_check(oracles.check_theta_statics, scn).status == "pass"
    statics = reforms.theta_statics
    for index in range(scn.theta_grid().size):
        def perturbed(econ, grid, index=index):
            table = statics(econ, grid)
            table["dm_dtheta"][index] *= 1.0 + 1e-6
            return table

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
            table = statics(econ, grid)
            table[column][index] *= 1.0 + 1e-9
            return table

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


@pytest.mark.parametrize("check", [
    oracles.check_frontier_lipschitz,
    oracles.check_concavity_gap,
    oracles.check_gamma_lipschitz,
])
def test_bound_checks_report_a_signed_margin(check):
    # the metric is the worst value-minus-bound over the draws; on
    # default.cfg every bound holds with room, so it reads below 0
    result = run_check(check, load_scenario(str(SCENARIOS / "default.cfg")))
    assert result.status == "pass" and result.metric < 0.0, result


def test_coverage_identity_check_bites(monkeypatch):
    # coverage one 1e-9 too large, in every module that binds it
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS})
    assert run_check(oracles.check_coverage_identity, scn).status == "pass"
    exact = knowledge.coverage
    binders = [
        module for name, module in sys.modules.items()
        if name.startswith("specint") and getattr(module, "coverage", None) is exact
    ]
    assert oracles in binders
    for module in binders:
        monkeypatch.setattr(module, "coverage", lambda a, b: exact(a, b) + 1e-9)
    assert run_check(oracles.check_coverage_identity, scn).status == "fail"


def test_integrator_capacity_check_bites(monkeypatch):
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS})
    exact = production.integrator_capacity
    monkeypatch.setattr(production, "integrator_capacity", lambda s, h: exact(s, h) * (1.0 + 1e-6))
    assert run_check(oracles.check_integrator_capacity, scn).status == "fail"


@pytest.mark.parametrize("shift", [2e-10, -2e-10])
def test_frontier_bounds_check_bites(monkeypatch, shift):
    # H 2e-10 off the frontier on every interior row: no rung of the
    # certificate, up to the check's bound of 1e-10, brackets the root
    scn = load_scenario(str(SCENARIOS / "default.cfg"))
    assert run_check(oracles.check_frontier_bounds, scn).status == "pass"
    exact = oracles.max_scale_batch

    def shifted(tech, P):
        H = exact(tech, P)
        return np.where(P.max(axis=1) <= 1.0 - 1e-9, H + shift, H)

    monkeypatch.setattr(oracles, "max_scale_batch", shifted)
    result = run_check(oracles.check_frontier_bounds, scn)
    assert result.status == "fail" and result.metric == 1.0, result


def test_frontier_bounds_check_certifies_a_steep_exponential_cost():
    # near a corner a steep cost's row sum is flat in the scale, so those
    # rows need wider rungs; at default budgets every row is certified
    # with ten times room under the strict bound of 1e-11
    scn = scenario_from_entries({**DEFAULTS, "learning.family": "exponential",
                                 "learning.param": "12"})
    result = run_check(oracles.check_frontier_bounds, scn)
    assert result.status == "pass" and result.metric <= 1e-11, result


def test_interface_statics_check_holds_every_sweep_row(monkeypatch):
    # the check holds every cell of the alpha sweep's array pass against the
    # per-point path: one value nudged by an ulp in one row fails it
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS})
    result = run_check(oracles.check_interface_statics, scn)
    assert result.status == "pass", result
    statics = reforms.interface_statics
    columns = list(statics(scn.econ, scn.alpha_grid))
    assert len(columns) == 10
    for index, column in enumerate(columns):
        def nudged(econ, grid, index=index % scn.alpha_grid.size, column=column):
            table = statics(econ, grid)
            table[column][index] = math.nextafter(table[column][index], math.inf)
            return table

        monkeypatch.setattr(reforms, "interface_statics", nudged)
        assert run_check(oracles.check_interface_statics, scn).status == "fail", column


def test_interface_statics_check_compares_the_stop_rule(monkeypatch):
    # at V = 1e200 both paths stop at alpha = 0 on the same decomposition
    # residual, which is the same outcome; an array pass that stops on
    # another message is not
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS, "economy.v": "1e200"})
    with pytest.raises(OracleError, match="at alpha=0;"):
        reforms.interface_statics(scn.econ, scn.alpha_grid)
    assert run_check(oracles.check_interface_statics, scn).status == "pass"

    def stops_later(econ, grid):
        raise OracleError("decomposition residual 1.665e-02 exceeds 1.0e-04 at alpha=0.25;")

    monkeypatch.setattr(reforms, "interface_statics", stops_later)
    assert run_check(oracles.check_interface_statics, scn).status == "fail"


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


def test_broadening_check_holds_every_sweep_row(monkeypatch):
    # the check holds every cell of the b sweep's array pass against the
    # per-share path: one value nudged by an ulp in one row fails it
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS})
    result = run_check(oracles.check_broadening, scn)
    assert result.status == "pass", result
    statics = reforms.broadening_statics
    columns = list(statics(scn.econ, scn.b_grid))
    assert len(columns) == 14
    # every row but the last (b = 1, where m = 0 and the political and
    # welfare cells are blank) holds a number in every column
    for index, column in enumerate(columns):
        def nudged(econ, grid, index=index % (scn.b_grid.size - 1), column=column):
            table = statics(econ, grid)
            table[column][index] = math.nextafter(table[column][index], math.inf)
            return table

        monkeypatch.setattr(reforms, "broadening_statics", nudged)
        assert run_check(oracles.check_broadening, scn).status == "fail", column

    def filled(econ, grid):
        table = statics(econ, grid)
        assert table["welfare"][-1] is None
        table["welfare"][-1] = 0.0
        return table

    monkeypatch.setattr(reforms, "broadening_statics", filled)
    assert run_check(oracles.check_broadening, scn).status == "fail"

    # the check fixes the CSV's columns and their order: a table with one
    # column dropped, or two swapped, fails it
    def dropped(econ, grid):
        table = statics(econ, grid)
        del table["dispersion"]
        return table

    def swapped(econ, grid):
        table = statics(econ, grid)
        return {"m": table.pop("m"), **table}

    for mutant in (dropped, swapped):
        monkeypatch.setattr(reforms, "broadening_statics", mutant)
        assert run_check(oracles.check_broadening, scn).status == "fail", mutant.__name__


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


# Economies whose broadening cutoff lies far above theta_bar, where the civic
# slope is flat in theta: draws 7, 8, 9 and 17 of perfbench's draw_economy
# under np.random.default_rng(2), written out. A cutoff located by bisecting
# the finite-difference slope missed the closed form by more than 1e-6 on
# each (by 1e-3 at the cutoff of 203).
FLAT_CUTOFF_ECONOMIES = {
    "draw7": {
        "learning.family": "exponential",
        "learning.param": "1.8087019701386604",
        "economy.q": "0.039613426190372024,0.31058714278083255,0.2958584004675636,0.3539410305612317",
        "economy.u": "0.2538997403525271,0.2785835341233938,0.23653536284453303,0.23098136267954608",
        "economy.p": "0.6855638547623355",
        "economy.theta": "0.0008479163060589776",
        "economy.v": "12.317090170424269",
        "gov.eta": "0.5815115916279538",
        "gov.tau": "0.5623961376903877",
    },
    "draw8": {
        "learning.family": "rational",
        "learning.param": "0.660060578310953",
        "economy.q": "0.10524876716076878,0.2512231340039778,0.2046869809017122,0.19078566684252066,0.24805545109102062",
        "economy.u": "0.23903963456975216,0.18066846940909378,0.20904629641219524,0.18597997700694308,0.1852656226020157",
        "economy.p": "0.30525664055192503",
        "economy.theta": "0.013631550571678377",
        "economy.v": "18.497404090927382",
        "gov.eta": "0.5233017377452711",
        "gov.tau": "0.5827510393592498",
    },
    "draw9": {
        "learning.family": "exponential",
        "learning.param": "2.5600774435369464",
        "economy.q": "0.37043876834823436,0.3323304322232772,0.2972307994284884",
        "economy.u": "0.36655551425124455,0.30529747914307026,0.3281470066056852",
        "economy.p": "0.08779381574149862",
        "economy.theta": "0.0019813776489159443",
        "economy.v": "24.578201564070678",
        "gov.eta": "0.6568195154793985",
        "gov.tau": "0.215556985227412",
    },
    "draw17": {
        "learning.family": "exponential",
        "learning.param": "1.7317911996652553",
        "economy.q": "0.04494369396146396,0.22152438490660353,0.18120833033141107,0.3455451508289714,0.20677843997155007",
        "economy.u": "0.20444891780776656,0.19638580216778775,0.19263150856542224,0.20229432654931437,0.2042394449097092",
        "economy.p": "0.22283064435702296",
        "economy.theta": "0.002574662211800535",
        "economy.v": "10.570297621473806",
        "gov.eta": "0.3895670172348447",
        "gov.tau": "0.284079314001052",
    },
}


@pytest.mark.parametrize("name", sorted(FLAT_CUTOFF_ECONOMIES))
def test_broadening_check_brackets_flat_cutoffs(name):
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS, **FLAT_CUTOFF_ECONOMIES[name]})
    result = run_check(oracles.check_broadening, scn)
    assert result.status == "pass", result
    assert "bracketed within" in result.note
    assert result.note.endswith("(above the primitive cutoff)")


@pytest.mark.parametrize("name", ["default", "governance_heavy"])
def test_broadening_check_makes_three_decompositions(monkeypatch, name):
    # the slope at b = 0, then one on each side of theta_cut: the sign
    # bracket resolves at its first half-width
    from specint import welfare

    calls = []
    decompose_along = welfare.decompose_along

    def counted_decompose(*args):
        calls.append(args[2])
        return decompose_along(*args)

    for module in (welfare, reforms, oracles):
        monkeypatch.setattr(module, "decompose_along", counted_decompose)
    result = run_check(oracles.check_broadening, load_scenario(str(SCENARIOS / f"{name}.cfg")))
    assert result.status == "pass", result
    assert "bracketed within 1e-06" in result.note
    assert calls == [0.0, 0.0, 0.0]


def test_sign_bracket_widens_only_while_a_side_is_unresolved():
    def line(root, noise):
        return lambda t: (t - root, noise)

    bracket = oracles.sign_bracket
    assert bracket(line(2.0, 0.0), 2.0, 1e-6, rising=True) == 1e-6
    # widened tenfold twice, then resolved; at the cap 2e-3 and resolved
    assert bracket(line(2.0, 5e-5), 2.0, 1e-6, rising=True) == pytest.approx(1e-4)
    assert bracket(line(2.0, 1.5e-3), 2.0, 1e-6, rising=True) == 2e-3
    # the cap reached unresolved, equal signs, and the wrong order all fail
    assert bracket(line(2.0, 1e-2), 2.0, 1e-6, rising=True) is None
    assert bracket(line(2.0 + 1e-5, 0.0), 2.0, 1e-6, rising=True) is None
    assert bracket(line(2.0, 0.0), 2.0, 1e-6, rising=False) is None


@pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
def test_interface_statics_check_brackets_theta_small(monkeypatch, factor):
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS})
    result = run_check(oracles.check_interface_statics, scn)
    assert result.status == "pass", result
    assert result.note.startswith("theta_small=0.287037 bracketed within")
    threshold = reforms.interface_threshold
    monkeypatch.setattr(reforms, "interface_threshold",
                        lambda econ, grid: threshold(econ, grid) * factor)
    result = run_check(oracles.check_interface_statics, scn)
    assert result.status == "fail" and result.note.endswith("not bracketed"), result


def seeded_economy(index: int) -> dict[str, str]:
    """Scenario entries of the index-th economy of a seeded distribution:
    K from 3 to 5 and both learning families in turn; an interior q; a
    diffuse u within 10% of uniform, with p a fraction of its diffuseness
    bound; theta up to 0.95 of theta_bar; V from 5 to 40."""
    rng = np.random.default_rng([20261020, index])
    K, family = 3 + index % 3, ("rational", "exponential")[index % 2]
    tech = learning.LearningTech(family, float(rng.uniform(0.5, 3.0)))
    q = 0.85 * rng.dirichlet(np.ones(K)) + 0.15 / K
    u = 0.1 * rng.dirichlet(np.ones(K)) + 0.9 / K
    q, u = q / q.sum(), u / u.sum()
    # the diffuseness bound on p does not depend on p
    p_bound = check_diffuse(u, 1.0, tech).bound
    return {
        "learning.family": family,
        "learning.param": repr(tech.param),
        "economy.q": ",".join(map(repr, q.tolist())),
        "economy.u": ",".join(map(repr, u.tolist())),
        "economy.p": repr(float(rng.uniform(0.1, 0.9)) * p_bound),
        "economy.theta": repr(float(rng.uniform(0.05, 0.95)) * tech.constants.theta_bar),
        "economy.v": repr(float(rng.uniform(5.0, 40.0))),
        "gov.eta": repr(float(rng.uniform(0.3, 0.8))),
        "gov.tau": repr(float(rng.uniform(0.1, 0.7))),
    }


@pytest.mark.parametrize("index", range(18))
def test_verify_holds_across_seeded_economies(index):
    # beyond the two shipped scenarios: every check passes, or skips with
    # the hypothesis it names
    scn = scenario_from_entries({**DEFAULTS, **SMALL_BUDGETS, **seeded_economy(index)})
    for r in oracles.run_all(scn):
        assert r.status == "pass" or (
            r.status == "skipped" and r.note.startswith("hypothesis not met")
        ), (seeded_economy(index), r)
