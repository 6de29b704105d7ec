import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from specint import oracles
from specint.cli import main
from specint.errors import DomainError
from specint.knowledge import coverage, fragmentation, system_knowledge
from specint.learning import max_scale
from specint.politics import equilibrium_from_groups, group_knowledge, resource_sensitivities
from specint.production import (
    accounts,
    corner_design,
    gap_profile_star,
    minimal_allocation,
    productive_optimum,
)
from specint.reforms import (
    bisect_broadening_cutoff,
    broadening_allocation,
    broadening_derivative,
    broadening_family,
    dispersion_slope,
    interface_closed_slopes,
    interface_family,
    interface_profile,
    interface_statics,
    interface_threshold,
    theta_statics,
)
from specint.scenario import load_scenario
from specint.welfare import decompose_along, service_welfare, total_welfare

from conftest import make_economy

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_broadening_anchor_at_zero(econ):
    _, opt_alloc = productive_optimum(econ)
    a0 = broadening_allocation(0.0, econ)
    assert a0.m == pytest.approx(opt_alloc.m, abs=1e-14)
    assert a0.design.mean() == pytest.approx(econ.q, abs=1e-14)
    assert a0.integrator_profile == pytest.approx(opt_alloc.integrator_profile, abs=1e-12)


def test_broadening_full_kills_gaps(econ):
    a1 = broadening_allocation(1.0, econ)
    assert a1.m == 0.0
    assert accounts(a1, econ).gaps.g == 0.0


def test_broadening_mix_stays_q(econ):
    for b in (0.0, 0.2, 0.5, 0.8, 1.0):
        alloc = broadening_allocation(b, econ)
        assert alloc.design.mean() == pytest.approx(econ.q, abs=1e-12)


def test_broadening_share_formula(econ):
    D = fragmentation(econ.q)
    H = max_scale(econ.tech, gap_profile_star(econ.q))
    for b in (0.0, 0.3, 0.7):
        want = econ.theta * (1 - b) * D / (H + econ.theta * (1 - b) * D)
        assert broadening_allocation(b, econ).m == pytest.approx(want, abs=1e-14)


def _count_frontier_rows(monkeypatch) -> list[int]:
    """Rows of each max_scale_batch call, wherever it is made from."""
    from specint import learning, reforms

    solve = learning.max_scale_batch
    calls = []

    def counted(tech, directions):
        calls.append(np.shape(directions)[0])
        return solve(tech, directions)

    for module in (learning, reforms):
        monkeypatch.setattr(module, "max_scale_batch", counted)
    return calls


def test_broadening_grid_solves_each_frontier_once(econ, monkeypatch):
    # a b grid solves the atoms [I; q] in one batch, reads H(q) from it, and
    # solves the integrator directions of every share with a gap (all but
    # b = 1, whose single broad atom leaves none) in one more call
    from specint import learning

    grid = np.linspace(0.0, 1.0, 21)
    calls = _count_frontier_rows(monkeypatch)
    allocs = broadening_allocation(grid, econ)
    assert calls == [econ.q.size + 1, grid.size - 1]
    assert len(allocs) == grid.size
    assert allocs[-1].m == 0.0
    H_q = learning.max_scale(econ.tech, econ.q)
    assert all(a.scales[-1] == H_q for a in allocs[1:])


def test_theta_statics_solves_frontier_once(econ, monkeypatch):
    # H(h*), B_S and B_M do not move with theta: one one-row frontier solve
    # and one accounts call for the whole grid
    from specint import politics, production, reforms

    calls = _count_frontier_rows(monkeypatch)
    evaluate = production.accounts
    evaluated = []

    def counted(alloc, econ):
        evaluated.append(alloc)
        return evaluate(alloc, econ)

    for module in (production, politics, reforms):
        monkeypatch.setattr(module, "accounts", counted)
    theta_statics(econ, np.linspace(0.02, 0.98, 25) * econ.theta_bar)
    assert calls == [1]
    assert len(evaluated) == 1


def test_theta_statics_welfare_at_the_printed_output():
    # each row's welfare is evaluated at the Y that row prints, with the
    # group knowledge of the optimum, which theta does not move
    scn = load_scenario(str(SCENARIOS / "default.cfg"))
    econ = scn.econ
    rep = theta_statics(econ, scn.theta_grid())
    B_S, B_M = group_knowledge(productive_optimum(econ)[1], econ)
    for Y, m, W in zip(rep.Y.tolist(), rep.m.tolist(), rep.welfare.tolist()):
        out = equilibrium_from_groups(econ, Y, m, B_S, B_M)
        assert W == (1.0 - econ.tau) * Y + service_welfare(out, m)


def test_broadening_domain(econ):
    with pytest.raises(DomainError):
        broadening_allocation(-0.1, econ)
    with pytest.raises(DomainError):
        broadening_allocation(1.2, econ)


def _broadening_b_soc(econ, b):
    return total_welfare(*broadening_family(econ)(b)).outcome.B_soc


def test_broadening_closed_form_tracks_pipeline(econ):
    # B_soc(b) = (1-m(b)) * [(1-b)*(q.u) + b*H(q)**p*C(q,u)] + m(b)*B_M
    q = econ.q
    h_star = gap_profile_star(q)
    H = max_scale(econ.tech, h_star)
    D = fragmentation(q)
    B_broad = max_scale(econ.tech, q) ** econ.p * coverage(q, econ.u)
    B_M = system_knowledge(H * h_star, econ.u, econ.p)
    for b in (0.0, 0.15, 0.5, 0.95):
        m = econ.theta * (1 - b) * D / (H + econ.theta * (1 - b) * D)
        closed = (1 - m) * ((1 - b) * float(q @ econ.u) + b * B_broad) + m * B_M
        assert closed == pytest.approx(_broadening_b_soc(econ, b), abs=1e-12)


def test_broadening_derivative_matches_fd(econ):
    slope = broadening_derivative(econ)
    h = 1e-5
    fd = (
        -3 * _broadening_b_soc(econ, 0.0)
        + 4 * _broadening_b_soc(econ, h)
        - _broadening_b_soc(econ, 2 * h)
    ) / (2 * h)
    assert abs(fd - slope.value) <= 1e-6
    assert decompose_along(broadening_family(econ), 0.0).dB_soc == fd


def test_broadening_cutoff_regimes():
    base = dict(q=(0.5, 0.3, 0.2), theta=0.001)
    banded = make_economy(u=(0.4, 0.35, 0.25), p=0.25, **base)
    assert broadening_derivative(banded).regime == "cutoff"
    aligned = make_economy(u=(0.5, 0.3, 0.2), p=0.05, **base)
    assert broadening_derivative(aligned).regime == "always_positive"
    assert broadening_derivative(aligned).value > 0.0
    heavy_p = make_economy(u=(0.4, 0.35, 0.25), p=2.5, **base)
    assert broadening_derivative(heavy_p).regime == "never_positive"
    assert broadening_derivative(heavy_p).value < 0.0


def test_broadening_derivative_sign_around_cutoff(econ):
    slope = broadening_derivative(econ)
    assert slope.regime == "cutoff"
    below = broadening_derivative(econ.with_theta(0.9 * slope.cutoff))
    above = broadening_derivative(econ.with_theta(1.1 * slope.cutoff))
    at = broadening_derivative(econ.with_theta(slope.cutoff))
    assert below.value > 0.0
    assert above.value < 0.0
    assert abs(at.value) <= 1e-12


def test_broadening_cutoff_bisection_matches_formula(econ):
    slope = broadening_derivative(econ)
    located = bisect_broadening_cutoff(econ)
    assert abs(located - slope.cutoff) <= 1e-6


def test_broadening_small_theta_limit(econ):
    # as theta -> 0 the slope tends to H(q)^p C(q,u) - q.u > 0
    lim = max_scale(econ.tech, econ.q) ** econ.p * coverage(econ.q, econ.u) - float(
        econ.q @ econ.u
    )
    tiny = broadening_derivative(econ.with_theta(1e-9))
    assert tiny.value == pytest.approx(lim, abs=1e-6)
    assert lim > 0.0


def best_b(cfg, tmp_path):
    """Argmax of the welfare column of `sweep --axis b` (the b = 1 row, with
    no integrators, has no welfare)."""
    out = tmp_path / "b.csv"
    assert main(["sweep", "--axis", "b", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["welfare"]]
    return float(max(rows, key=lambda r: float(r["welfare"]))["b"])


def test_excess_specialization_output_heavy(econ, tmp_path):
    slope = broadening_derivative(econ)
    assert slope.regime != "never_positive"
    # H(q)^p C(q,u) = q.u at p_bar ~ 1.909: the broad profile stops beating q.u
    assert broadening_derivative(dataclasses.replace(econ, p=1.90)).regime == "cutoff"
    assert broadening_derivative(dataclasses.replace(econ, p=1.92)).regime == "never_positive"
    # output-heavy default: broadening does not pay at the margin
    assert slope.welfare < 0.0
    assert slope.value > 0.0 and econ.gov.eta < slope.eta_star
    assert best_b(SCENARIOS / "default.cfg", tmp_path) == 0.0


def test_excess_specialization_governance_heavy(tmp_path):
    cfg = SCENARIOS / "governance_heavy.cfg"
    econ = load_scenario(str(cfg)).econ
    slope = broadening_derivative(econ)
    assert slope.regime != "never_positive"
    assert slope.welfare > 0.0
    assert slope.value > 0.0 and econ.gov.eta > slope.eta_star
    assert best_b(cfg, tmp_path) > 0.0


def test_excess_specialization_precondition_flag():
    econ = make_economy(p=2.5)
    assert broadening_derivative(econ).regime == "never_positive"


def test_welfare_slope_vanishes_at_eta_star():
    # A = W'(0) - eta*B_soc'/(2 B_soc) is free of eta, so W'(0) is affine in
    # eta, eta* does not move with eta, and W'(0) vanishes there
    econ = load_scenario(str(SCENARIOS / "governance_heavy.cfg")).econ
    eta_star = broadening_derivative(econ).eta_star

    def at(eta):
        return broadening_derivative(
            dataclasses.replace(econ, gov=dataclasses.replace(econ.gov, eta=eta))
        )

    for eta in (0.2, 0.8):
        assert at(eta).eta_star == pytest.approx(eta_star, rel=1e-12)
        assert (at(eta).welfare > 0.0) == (eta > eta_star)
    assert abs(at(eta_star).welfare) < 1e-12


def test_interface_family_anchors(econ):
    assert interface_profile(econ.q, 0.0) == pytest.approx(econ.q, abs=1e-15)
    assert interface_profile(econ.q, 1.0) == pytest.approx(gap_profile_star(econ.q), abs=1e-15)


def test_interface_family_shares_one_allocation(econ):
    # only the civic profile moves along the family; the allocation is built once
    fam = interface_family(econ)
    points = [fam(a) for a in (0.0, 0.5, 1.0)]
    assert all(alloc is points[0][1] for _, alloc in points)
    for a, (econ_a, _) in zip((0.0, 0.5, 1.0), points):
        assert econ_a.u == pytest.approx(interface_profile(econ.q, a), abs=1e-15)


def test_interface_family_profile_is_exactly_the_affine_path():
    # the family's economy keeps the tilted profile's bits, so the path the
    # finite-difference checks step along is exactly affine in alpha
    scn = load_scenario(str(SCENARIOS / "default.cfg"))
    fam = interface_family(scn.econ)
    assert scn.alpha_grid.size == 21
    for a in scn.alpha_grid:
        assert np.array_equal(fam(float(a))[0].u, interface_profile(scn.econ.q, float(a)))


def test_broadening_governance_term_positive_at_zero(econ):
    # civic capacity rises at b=0 here, so the governance term of the
    # welfare slope is strictly positive
    d = decompose_along(broadening_family(econ), 0.0)
    assert d.dB_soc > 0.0
    assert d.governance_term > 0.0


def test_interface_uniform_q_flat():
    econ = make_economy(q=(1 / 3, 1 / 3, 1 / 3), u=(0.4, 0.35, 0.25))
    bs, bm = interface_closed_slopes(econ)
    assert abs(bs) <= 1e-14
    assert abs(bm) <= 1e-14


def test_interface_slopes_signs_and_fd(econ):
    bs, bm = interface_closed_slopes(econ)
    assert bs < 0.0 and bm > 0.0
    alloc = minimal_allocation(corner_design(econ.q), econ)
    h = 1e-6
    for a in (0.3, 0.8):
        lo = group_knowledge(alloc, econ.with_u(interface_profile(econ.q, a - h)))
        hi = group_knowledge(alloc, econ.with_u(interface_profile(econ.q, a + h)))
        assert abs((hi[0] - lo[0]) / (2 * h) - bs) <= 1e-8
        assert abs((hi[1] - lo[1]) / (2 * h) - bm) <= 1e-8


def test_interface_coverage_affine(econ):
    h_star = gap_profile_star(econ.q)
    alphas = np.linspace(0.0, 1.0, 11)
    covs = np.array([coverage(h_star, interface_profile(econ.q, a)) for a in alphas])
    slopes = np.diff(covs) / np.diff(alphas)
    assert np.allclose(slopes, slopes[0], atol=1e-12)
    assert slopes[0] == pytest.approx(1.0 - coverage(h_star, econ.q), abs=1e-12)


def test_interface_statics_report(econ, scenario):
    rep = interface_statics(econ, np.linspace(0, 1, 9))
    assert rep.B_soc_slope < 0.0
    assert np.all(rep.dW < 0.0)
    theta_small = interface_threshold(econ, np.linspace(0, 1, 9))
    assert theta_small > 0.0
    assert math.isfinite(theta_small)
    # below the threshold both slopes stay negative; above it one flips
    lo_econ = econ.with_theta(min(0.5 * theta_small, 0.9 * econ.theta_bar))
    bs, bm = interface_closed_slopes(lo_econ)
    m_lo = minimal_allocation(corner_design(lo_econ.q), lo_econ).m
    assert (1 - m_lo) * bs + m_lo * bm < 0.0


def _bisected_threshold(econ, alpha_grid):
    """Reference for interface_threshold: the final bracket [lo, hi] of a
    bisection on the semi-analytic predicate "dB_soc/dalpha < 0 and
    dW/dalpha < 0 at every grid alpha", with R_B/R from the governed
    resource level and theta grown by doubling from theta_bar."""
    B_S_slope, B_M_slope = interface_closed_slopes(econ)
    h_star = gap_profile_star(econ.q)
    H = max_scale(econ.tech, h_star)
    D_q = fragmentation(econ.q)
    Hp = H**econ.p

    def all_negative(theta):
        m_t = theta * D_q / (H + theta * D_q)
        Y_t = econ.V * H / (H + theta * D_q)
        d_bsoc = (1.0 - m_t) * B_S_slope + m_t * B_M_slope
        if d_bsoc >= 0.0:
            return False
        for a in alpha_grid:
            u_a = interface_profile(econ.q, float(a))
            B_S_a = float(econ.q @ u_a)
            B_M_a = Hp * coverage(h_star, u_a)
            B_soc_a = (1.0 - m_t) * B_S_a + m_t * B_M_a
            R, _, R_B = resource_sensitivities(econ.gov, Y_t, B_soc_a)
            d_w = (R_B / R) * d_bsoc - dispersion_slope(B_S_a, B_M_a, B_S_slope, B_M_slope, m_t)
            if d_w >= 0.0:
                return False
        return True

    lo, hi = 1e-9 * econ.theta_bar, econ.theta_bar
    assert all_negative(lo)
    while all_negative(hi):
        hi *= 4.0
        assert hi <= 1e6 * econ.theta_bar
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if all_negative(mid):
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-6 * max(1.0, lo):
            break
    return lo, hi


def _threshold_cases():
    """Both shipped scenarios at their alpha grids, then 100 random draws."""
    scenarios = [load_scenario(str(SCENARIOS / f"{n}.cfg")) for n in ("default", "governance_heavy")]
    cases = [(scn.econ, scn.alpha_grid) for scn in scenarios]
    rng = np.random.default_rng(20261018)
    base = cases[0][0]
    cases += [(oracles._random_economy(rng, base), np.linspace(0.0, 1.0, 9)) for _ in range(100)]
    return cases


def test_interface_threshold_lies_in_bisection_bracket():
    # the closed form against a bisection of the slopes' predicate; both the
    # civic-capacity bound m_b and a root of the welfare quadratic must occur
    branches = set()
    for econ, grid in _threshold_cases():
        theta_small = interface_threshold(econ, grid)
        lo, hi = _bisected_threshold(econ, grid)
        assert hi - lo < 1e-6 * max(1.0, lo)
        assert lo <= theta_small <= lo + 1e-6 * max(1.0, lo), (lo, theta_small)
        bs, bm = interface_closed_slopes(econ)
        m_b = -bs / (bm - bs)
        H = max_scale(econ.tech, gap_profile_star(econ.q))
        theta_b = m_b * H / ((1.0 - m_b) * fragmentation(econ.q))
        branches.add("m_b" if theta_small == pytest.approx(theta_b, rel=1e-12) else "quadratic")
    assert branches == {"m_b", "quadratic"}


def test_interface_threshold_flips_finite_difference_slopes():
    # the engine's own finite differences along alpha: both slopes negative
    # at every grid alpha just below theta_small, not so just above it
    def both_negative(econ, grid):
        fam = interface_family(econ)
        lo, hi = float(grid[0]), float(grid[-1])
        slopes = [decompose_along(fam, float(a), lo=lo, hi=hi) for a in grid]
        return all(d.dB_soc < 0.0 and d.fd_total < 0.0 for d in slopes)

    for econ, grid in _threshold_cases():
        theta_small = interface_threshold(econ, grid)
        assert both_negative(econ.with_theta(theta_small * (1.0 - 1e-3)), grid)
        assert not both_negative(econ.with_theta(theta_small * (1.0 + 1e-3)), grid)


def test_interface_dispersion_slope_closed_form(econ):
    alloc = minimal_allocation(corner_design(econ.q), econ)
    bs, bm = interface_closed_slopes(econ)
    m = alloc.m
    h = 1e-6
    for a in (0.25, 0.7):
        vals = []
        for s in (-h, h):
            B_S, B_M = group_knowledge(alloc, econ.with_u(interface_profile(econ.q, a + s)))
            from specint.welfare import dispersion

            vals.append(dispersion(B_S, B_M, m))
        fd = (vals[1] - vals[0]) / (2 * h)
        B_S, B_M = group_knowledge(alloc, econ.with_u(interface_profile(econ.q, a)))
        assert abs(dispersion_slope(B_S, B_M, bs, bm, m) - fd) <= 1e-8


def test_interface_dispersion_slope_vanishes_with_theta(econ):
    # |dD/dalpha| is of the order of the integrator share
    ratios = []
    for frac in (1e-3, 1e-2, 1e-1):
        econ_t = econ.with_theta(frac * econ.theta_bar)
        alloc = minimal_allocation(corner_design(econ_t.q), econ_t)
        bs, bm = interface_closed_slopes(econ_t)
        worst = max(
            abs(
                dispersion_slope(
                    *group_knowledge(alloc, econ_t.with_u(interface_profile(econ_t.q, a))),
                    bs, bm, alloc.m,
                )
            )
            for a in np.linspace(0, 1, 7)
        )
        ratios.append(worst / alloc.m)
    assert max(ratios) <= 1.5 * min(ratios) + 1e-9


def test_theta_statics_monotone_and_formula(econ):
    grid = np.linspace(0.02, 0.98, 50) * econ.theta_bar
    rep = theta_statics(econ, grid)
    assert np.all(np.diff(rep.m) > 1e-12)
    assert np.all(np.diff(rep.Y) < -1e-12)
    assert np.all(np.diff(rep.B_soc) > 1e-12)
    # dm/dtheta against central differences of the share formula
    D = fragmentation(econ.q)
    H = max_scale(econ.tech, gap_profile_star(econ.q))
    h = 1e-6 * econ.theta_bar
    for i in (5, 25, 45):
        theta = grid[i]
        fd = (
            (theta + h) * D / (H + (theta + h) * D) - (theta - h) * D / (H + (theta - h) * D)
        ) / (2 * h)
        assert abs(rep.dm_dtheta[i] - fd) <= 1e-8
    # welfare carries no sign assertion, only a report
    assert rep.welfare.shape == grid.shape


def test_theta_statics_rejects_out_of_range(econ):
    with pytest.raises(DomainError):
        theta_statics(econ, np.array([0.5 * econ.theta_bar, 1.5 * econ.theta_bar]))
