import numpy as np
import pytest

from specint import production
from specint.competitive import no_deviation_check, support_wages
from specint.errors import (
    BudgetExceededError,
    CutoffError,
    DomainError,
    InfeasibleAllocationError,
)
from specint.knowledge import coverage, fragmentation
from specint.learning import gamma_index, max_scale
from specint.production import (
    Allocation,
    SpecialistDesign,
    aggregate_gaps,
    brute_force_design,
    corner_design,
    cornerized,
    design_space_size,
    gap_vector,
    integrator_capacity,
    minimal_allocation,
    output_of,
    productive_optimum,
    reduced_form,
    simplex_grid,
    single_atom,
)

from conftest import interior_simplex, make_economy


def test_gap_vector_proportional_is_zero():
    mix = np.array([0.5, 0.3, 0.2])
    assert np.all(gap_vector(0.7 * mix, mix) == 0.0)


def test_gap_vector_corner():
    x = np.array([0.5, 0.3, 0.2])
    gamma = gap_vector(np.eye(3)[0], x)
    assert gamma == pytest.approx([0.0, 0.3, 0.2], abs=1e-15)


def test_gap_mass_identity():
    # ||gamma||_1 = ||s||_1 * (1 - C(direction, mix))
    rng = np.random.default_rng(4)
    for _ in range(300):
        K = int(rng.integers(2, 6))
        pi = rng.dirichlet(np.ones(K))
        mix = rng.dirichlet(np.ones(K))
        scale = float(rng.uniform(0.1, 1.0))
        gamma = gap_vector(scale * pi, mix)
        assert gamma.sum() == pytest.approx(scale * (1 - coverage(pi, mix)), abs=1e-12)


def test_aggregate_gaps_corner_design(econ):
    _, alloc = productive_optimum(econ)
    gaps = aggregate_gaps(alloc, econ.tech)
    q, m = econ.q, alloc.m
    assert gaps.G == pytest.approx((1 - m) * q * (1 - q), abs=1e-12)
    assert gaps.g == pytest.approx((1 - m) * fragmentation(q), abs=1e-12)


def test_aggregate_gaps_single_atom(econ):
    alloc = minimal_allocation(single_atom(econ.q), econ)
    gaps = aggregate_gaps(alloc, econ.tech)
    assert gaps.g == 0.0
    assert gaps.h is None
    assert alloc.m == 0.0


def test_integrator_capacity_examples(rational):
    h = np.array([0.5, 0.3, 0.2])
    H = max_scale(rational, h)
    assert integrator_capacity(H * h, h) == pytest.approx(H, abs=1e-14)
    assert integrator_capacity(np.array([0.4, 0.0, 0.3]), h) == 0.0


def test_integrator_capacity_upper_bound(rational):
    rng = np.random.default_rng(9)
    for _ in range(500):
        K = int(rng.integers(2, 6))
        h = interior_simplex(rng, K)
        pi = interior_simplex(rng, K)
        s = float(rng.uniform(0.1, 1.0)) * max_scale(rational, pi) * pi
        assert integrator_capacity(s, h) <= max_scale(rational, h) + 1e-10


def test_reduced_form_at_q_matches_optimum(econ):
    opt, _ = productive_optimum(econ)
    rf = reduced_form(econ.q, econ)
    assert rf.Y == pytest.approx(opt.Y_star, abs=1e-12)
    assert rf.m == pytest.approx(opt.m_star, abs=1e-14)
    assert rf.h == pytest.approx(opt.h_star, abs=1e-12)


def test_reduced_form_corner(econ):
    rf = reduced_form(np.eye(3)[0], econ)
    assert rf.m == 0.0
    assert rf.Y == pytest.approx(econ.V * econ.q[0], abs=1e-12)
    assert rf.h is None
    assert not rf.has_interface


def test_reduced_form_warns_above_cutoff(econ):
    hot = econ.with_theta(2 * econ.theta_bar)
    with pytest.warns(UserWarning):
        reduced_form(hot.q, hot)


def test_reduced_form_gamma_lipschitz(econ):
    L = econ.constants.L_Gamma
    rng = np.random.default_rng(12)
    for _ in range(300):
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        gx = gamma_index(econ.tech, x * (1 - x))
        gy = gamma_index(econ.tech, y * (1 - y))
        assert abs(gx - gy) <= L * np.abs(x - y).sum() + 1e-12


def test_alignment_dominates_on_grid(econ):
    # below 1/(2*L_Gamma) the aligned mix beats every other grid mix,
    # strictly when coverage is incomplete
    base = reduced_form(econ.q, econ).Y
    for x in simplex_grid(3, 6):
        rf = reduced_form(x, econ)
        assert rf.Y <= base + 1e-12
        if coverage(x, econ.q) < 1.0 - 1e-12:
            assert rf.Y < base


def test_productive_optimum_two_domains():
    econ = make_economy(q=(0.7, 0.3), u=(0.5, 0.5), p=0.2)
    opt, _ = productive_optimum(econ)
    assert opt.h_star == pytest.approx([0.5, 0.5], abs=1e-14)


def test_productive_optimum_uniform_q():
    econ = make_economy(q=(1 / 3, 1 / 3, 1 / 3))
    opt, _ = productive_optimum(econ)
    assert opt.h_star == pytest.approx(np.full(3, 1 / 3), abs=1e-14)


def test_productive_optimum_rejects_hot_theta(econ):
    with pytest.raises(CutoffError):
        productive_optimum(econ.with_theta(econ.theta_bar))


def test_optimum_share_below_third():
    rng = np.random.default_rng(17)
    for _ in range(30):
        K = int(rng.integers(2, 6))
        econ = make_economy(
            q=interior_simplex(rng, K),
            u=np.full(K, 1.0 / K),
            theta=0.0001,
        )
        econ = econ.with_theta(float(rng.uniform(0.05, 0.95)) * econ.theta_bar)
        opt, alloc = productive_optimum(econ)
        assert opt.m_star < 1 / 3
        gaps = aggregate_gaps(alloc, econ.tech)
        assert abs(alloc.m * opt.H_hstar - econ.theta * gaps.g) <= 1e-10


def test_output_of_optimum_matches_closed_form(econ):
    opt, alloc = productive_optimum(econ)
    assert output_of(alloc, econ) == pytest.approx(opt.Y_star, abs=1e-12)


def test_output_no_specialists_is_zero(econ):
    alloc = Allocation(
        m=0.999999999999,
        design=corner_design(econ.q),
        integrator_profile=np.zeros(3),
        scale_override=np.full(3, 1e-12),
    )
    # nearly no specialist knowledge; output collapses toward zero
    assert output_of(alloc, econ) <= 1e-9 * econ.V


def test_positive_output_benchmark(econ):
    _, alloc = productive_optimum(econ)
    assert output_of(alloc, econ) > 0.0


def test_output_infeasible_raises(econ):
    # strip the integrator layer below requirement
    _, alloc = productive_optimum(econ)
    broken = Allocation(
        m=alloc.m / 4.0,
        design=alloc.design,
        integrator_profile=alloc.integrator_profile,
    )
    with pytest.raises(InfeasibleAllocationError):
        output_of(broken, econ)


def test_overfed_learning_budget_raises(econ):
    _, alloc = productive_optimum(econ)
    greedy = Allocation(
        m=alloc.m,
        design=alloc.design,
        integrator_profile=np.full(3, 0.9),
    )
    with pytest.raises(InfeasibleAllocationError):
        output_of(greedy, econ)


def test_design_validation():
    with pytest.raises(DomainError):
        SpecialistDesign(directions=np.eye(3), weights=np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        SpecialistDesign(directions=np.eye(2), weights=np.array([0.7, 0.7]))


def test_cornerized_mean_preserved():
    rng = np.random.default_rng(23)
    for _ in range(100):
        K = int(rng.integers(2, 6))
        design = SpecialistDesign(
            directions=np.vstack([interior_simplex(rng, K) for _ in range(3)]),
            weights=rng.dirichlet(np.ones(3)),
        )
        x = design.mean()
        corners = cornerized(design)
        assert corners.mean() == pytest.approx(x, abs=1e-12)
        # shattered gap bundle has the closed form x*(1-x)
        assert corners.gap_bundle(x) == pytest.approx(x * (1 - x), abs=1e-12)
        # and expands the original bundle by at most the mean fragmentation
        mean_D = float(design.weights @ [fragmentation(d) for d in design.directions])
        growth = np.abs(corners.gap_bundle(x) - design.gap_bundle(x)).sum()
        assert growth <= mean_D + 1e-12


def test_simplex_grid_counts():
    assert simplex_grid(3, 8).shape == (45, 3)
    assert design_space_size(3, 8, 3) == 304965


def test_brute_force_budget_guard(econ):
    wages = support_wages(econ)
    for search in (
        lambda: brute_force_design(econ, resolution=12, max_atoms=3, max_designs=1000),
        lambda: no_deviation_check(wages, econ, resolution=12, max_atoms=3, max_designs=1000),
    ):
        with pytest.raises(BudgetExceededError):
            search()


def _grid_searches(econ):
    found = brute_force_design(econ, resolution=4, max_atoms=3)
    report = no_deviation_check(support_wages(econ), econ, resolution=4, max_atoms=3)
    return found, report


def test_grid_designs_batching_keeps_results(monkeypatch):
    # uniform q ties the permutations of (1/2, 1/4, 1/4) in output, so the
    # winner rests on the lexicographic tie-break across batches
    econ = make_economy(q=(1 / 3, 1 / 3, 1 / 3))
    found, report = _grid_searches(econ)
    monkeypatch.setattr(production, "ENUM_BATCH", 7)
    small_found, small_report = _grid_searches(econ)
    assert found.x.tolist() == [0.25, 0.25, 0.5]
    assert (small_found.Y, small_found.x.tolist()) == (found.Y, found.x.tolist())
    for a, b in (
        (small_found.design, found.design),
        (small_report.worst_design, report.worst_design),
    ):
        assert np.array_equal(a.directions, b.directions)
        assert np.array_equal(a.weights, b.weights)
    assert small_report.worst_margin == report.worst_margin
    expected = design_space_size(3, 4, 3)
    counts = {found.n_designs, report.n_designs, small_found.n_designs, small_report.n_designs}
    assert counts == {expected}


def test_brute_force_zero_theta_pure_coverage():
    # with q on the grid and no coordination cost, the exact optimum x = q
    # is attainable and the oracle must find it
    econ = make_economy(q=(0.5, 0.25, 0.25), theta=1e-12)
    res = brute_force_design(econ, resolution=8, max_atoms=3)
    assert res.x == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)
    assert res.design.is_corner()


def test_brute_force_mid_theta_alignment(econ):
    mid = econ.with_theta(0.5 * econ.theta_bar)
    res = brute_force_design(mid, resolution=6, max_atoms=2)
    opt, _ = productive_optimum(mid)
    assert res.Y <= opt.Y_star + 1e-9
    assert res.design.is_corner()
