import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specint import learning, oracles, production
from specint.competitive import no_deviation_check, support_wages
from specint.errors import ConfigError, DomainError, HypothesisError, OracleError
from specint.knowledge import coverage, fragmentation
from specint.learning import gamma_index, max_scale
from specint.politics import political_equilibrium
from specint.production import (
    SpecialistDesign,
    accounts,
    brute_force_design,
    corner_design,
    design_space_size,
    gap_bundle_rows,
    integrator_capacity,
    mean_rows,
    minimal_allocation,
    productive_optimum,
    simplex_grid,
)
from specint.scenario import load_scenario
from specint.welfare import total_welfare

from conftest import interior_simplex, make_economy


def gap_bundle(design, x):
    """The gap bundle of one design against mix x: a one-row stack."""
    return gap_bundle_rows(design.weights[None, :], design.directions, x[None, :])[0]


def one_atom(direction):
    """The design with every specialist on one direction."""
    return SpecialistDesign(directions=direction[None, :], weights=np.ones(1))


# The external coordination requirement of a profile s = scale*pi against a
# mix is (||s||_1 * mix - s)^+ = scale * gap_bundle(one_atom(pi), mix).


def test_gap_vector_proportional_is_zero():
    mix = np.array([0.5, 0.3, 0.2])
    assert np.all(0.7 * gap_bundle(one_atom(mix), mix) == 0.0)


def test_gap_vector_corner():
    x = np.array([0.5, 0.3, 0.2])
    gamma = gap_bundle(one_atom(np.eye(3)[0]), x)
    assert gamma == pytest.approx([0.0, 0.3, 0.2], abs=1e-15)


def test_gap_mass_identity():
    # ||gamma||_1 = ||s||_1 * (1 - C(direction, mix))
    rng = np.random.default_rng(4)
    for _ in range(300):
        K = int(rng.integers(2, 6))
        pi = rng.dirichlet(np.ones(K))
        mix = rng.dirichlet(np.ones(K))
        scale = float(rng.uniform(0.1, 1.0))
        gamma = scale * gap_bundle(one_atom(pi), mix)
        assert gamma.sum() == pytest.approx(scale * (1 - coverage(pi, mix)), abs=1e-12)


def test_aggregate_gaps_corner_design(econ):
    _, alloc = productive_optimum(econ)
    acc = accounts(alloc, econ)
    q, m = econ.q, alloc.m
    assert acc.G == pytest.approx((1 - m) * q * (1 - q), abs=1e-12)
    assert acc.g == pytest.approx((1 - m) * fragmentation(q), abs=1e-12)


def test_aggregate_gaps_single_atom(econ):
    alloc = minimal_allocation(one_atom(econ.q), econ)
    assert accounts(alloc, econ).g == 0.0
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


def test_integrator_capacity_on_a_stack_matches_each_row():
    rng = np.random.default_rng(12)
    for K in (2, 3, 5, 8):
        h = np.array([interior_simplex(rng, K) for _ in range(20)])
        h[::3, 0] = 0.0  # rows where a coordinate takes no part
        s = rng.uniform(-0.1, 1.0, size=(20, K))
        got = integrator_capacity(s, h)
        assert got.tolist() == [integrator_capacity(a, b) for a, b in zip(s, h)]
        h[7] = 0.0
        with pytest.raises(DomainError, match="no positive coordinate"):
            integrator_capacity(s, h)


def _corner_organization(x, econ):
    """Minimal-integrator corner organization at mix x: (allocation, accounts)."""
    alloc = minimal_allocation(corner_design(x), econ)
    return alloc, accounts(alloc, econ)


def test_reduced_form_at_q_matches_optimum(econ):
    opt, _ = productive_optimum(econ)
    alloc, acc = _corner_organization(econ.q, econ)
    assert acc.Y == pytest.approx(opt.Y_star, abs=1e-12)
    assert alloc.m == pytest.approx(opt.m_star, abs=1e-14)
    assert acc.G / acc.g == pytest.approx(opt.h_star, abs=1e-12)


def test_reduced_form_corner(econ):
    alloc, acc = _corner_organization(np.eye(3)[0], econ)
    assert alloc.m == 0.0
    assert acc.Y == pytest.approx(econ.V * econ.q[0], abs=1e-12)
    assert acc.g == 0.0


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
    base = _corner_organization(econ.q, econ)[1].Y
    for x in simplex_grid(3, 6):
        Y = _corner_organization(x, econ)[1].Y
        assert Y <= base + 1e-12
        if coverage(x, econ.q) < 1.0 - 1e-12:
            assert Y < base


def test_productive_optimum_two_domains():
    econ = make_economy(q=(0.7, 0.3), u=(0.5, 0.5), p=0.2)
    opt, _ = productive_optimum(econ)
    assert opt.h_star == pytest.approx([0.5, 0.5], abs=1e-14)


def test_productive_optimum_uniform_q():
    econ = make_economy(q=(1 / 3, 1 / 3, 1 / 3))
    opt, _ = productive_optimum(econ)
    assert opt.h_star == pytest.approx(np.full(3, 1 / 3), abs=1e-14)


def test_productive_optimum_rejects_hot_theta(econ):
    with pytest.raises(HypothesisError, match="not below the coordination cutoff theta_bar"):
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
        assert abs(alloc.m * opt.H_hstar - econ.theta * accounts(alloc, econ).g) <= 1e-10


def test_output_of_optimum_matches_closed_form(econ):
    opt, alloc = productive_optimum(econ)
    assert accounts(alloc, econ).Y == pytest.approx(opt.Y_star, abs=1e-12)


def test_output_no_specialists_is_zero(econ):
    alloc = replace(productive_optimum(econ)[1], m=0.999999999999)
    # nearly no specialist knowledge; output collapses toward zero
    assert accounts(alloc, econ).Y <= 1e-9 * econ.V


def test_allocation_evaluated_once(econ, monkeypatch):
    # the builder solves the atoms' frontier; output, the political
    # equilibrium and welfare read the stored scales and solve nothing
    design = SpecialistDesign(
        directions=np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]]),
        weights=np.array([0.5, 0.5]),
    )
    built = (productive_optimum(econ)[1], minimal_allocation(design, econ))
    calls = []
    solve = learning.max_scale_batch

    def counted(tech, directions):
        calls.append(directions.shape[0])
        return solve(tech, directions)

    monkeypatch.setattr(learning, "max_scale_batch", counted)
    for alloc in built:
        for name, evaluate in (
            ("accounts", lambda: accounts(alloc, econ)),
            ("political_equilibrium", lambda: political_equilibrium(econ, alloc)),
            ("total_welfare", lambda: total_welfare(econ, alloc)),
        ):
            calls.clear()
            evaluate()
            assert calls == [], name


def test_positive_output_benchmark(econ):
    _, alloc = productive_optimum(econ)
    assert accounts(alloc, econ).Y > 0.0


def test_output_infeasible_raises(econ):
    # strip the integrator layer below requirement
    _, alloc = productive_optimum(econ)
    broken = replace(alloc, m=alloc.m / 4.0)
    with pytest.raises(DomainError, match="integration capacity"):
        accounts(broken, econ)


def test_overfed_learning_budget_raises(econ):
    _, alloc = productive_optimum(econ)
    greedy = replace(alloc, integrator_profile=np.full(3, 0.9))
    with pytest.raises(DomainError, match="learning budget"):
        accounts(greedy, econ)


def test_design_validation():
    with pytest.raises(DomainError, match="one weight per direction atom required"):
        SpecialistDesign(directions=np.eye(3), weights=np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match="mastery weights must sum to one"):
        SpecialistDesign(directions=np.eye(2), weights=np.array([0.7, 0.7]))
    # directions must be 2-d: a 1-d vector, and a 3-d block whose rows sum to one
    with pytest.raises(DomainError, match="design directions must be a 2-d"):
        SpecialistDesign(directions=np.array([0.5, 0.5]), weights=np.array([0.5, 0.5]))
    with pytest.raises(DomainError, match="design directions must be a 2-d"):
        SpecialistDesign(directions=np.ones((2, 2, 2)) / 2, weights=np.array([0.5, 0.5]))


def test_list_inputs_raise_documented_errors(econ):
    # array fields are checked, not coerced: a list is a caller error
    with pytest.raises(ConfigError, match="economy.q"):
        replace(econ, q=[0.5, 0.3, 0.2])
    with pytest.raises(DomainError, match="design directions and weights must be numpy arrays"):
        SpecialistDesign(directions=[[1.0, 0.0]], weights=[1.0])
    _, alloc = productive_optimum(econ)
    with pytest.raises(DomainError, match="profile and atom scales must be numpy arrays"):
        replace(alloc, scales=[1.0, 1.0, 1.0])


def test_allocation_scales_match_design(econ):
    _, alloc = productive_optimum(econ)
    with pytest.raises(DomainError, match="one frontier scale per design atom required"):
        replace(alloc, scales=np.ones(econ.K + 1))


def test_cornerized_mean_preserved():
    # each design shattered onto corners, as a one-row stack: weights x on
    # the atoms eye(K)
    rng = np.random.default_rng(23)
    for _ in range(100):
        K = int(rng.integers(2, 6))
        dirs = np.vstack([interior_simplex(rng, K) for _ in range(3)])
        w = rng.dirichlet(np.ones(3))[None, :]
        x = mean_rows(w, dirs)
        assert mean_rows(x, np.eye(K)) == pytest.approx(x, abs=1e-12)
        # shattered gap bundle has the closed form x*(1-x)
        shattered = gap_bundle_rows(x, np.eye(K), x)
        assert shattered == pytest.approx(x * (1 - x), abs=1e-12)
        # and expands the original bundle by at most the mean fragmentation
        mean_D = float(w[0] @ [fragmentation(d) for d in dirs])
        growth = np.abs(shattered - gap_bundle_rows(w, dirs, x)).sum()
        assert growth <= mean_D + 1e-12


def test_simplex_grid_counts():
    assert simplex_grid(3, 8).shape == (45, 3)
    assert design_space_size(3, 8, 3) == 304965


# the grid tables that depend on K, resolution and the atom count alone
GRID_TABLES = (
    production._grid_points,
    production._weight_splits,
    production._subsets,
    production._rank_terms,
)


def test_brute_force_budget_guard(econ):
    # oracle.max_designs caps the whole design space, and is checked before
    # the search builds any table
    wages = support_wages(econ)
    for table in GRID_TABLES:
        table.cache_clear()
    for search in (
        lambda: brute_force_design(econ, resolution=12, max_atoms=3, max_designs=1000),
        lambda: no_deviation_check(wages, econ, resolution=12, max_atoms=3, max_designs=1000),
    ):
        with pytest.raises(OracleError, match="exceed the budget"):
            search()
    assert [table.cache_info().misses for table in GRID_TABLES] == [0] * len(GRID_TABLES)


def test_grid_tables_are_built_once_and_shared_read_only(econ):
    # the design oracle and the no-deviation scan, at another theta and in
    # another economy, read the same tables
    for table in GRID_TABLES:
        table.cache_clear()
    brute_force_design(econ, resolution=5, max_atoms=3)
    built = [table.cache_info().misses for table in GRID_TABLES]
    assert all(built)
    no_deviation_check(support_wages(econ), econ, resolution=5, max_atoms=3)
    brute_force_design(make_economy(q=(0.2, 0.3, 0.5)), resolution=5, max_atoms=3)
    assert [table.cache_info().misses for table in GRID_TABLES] == built
    points = production._grid_points(3, 5)
    assert not points.flags.writeable
    fresh = simplex_grid(3, 5)
    assert fresh.flags.writeable and fresh.tobytes() == points.tobytes()


def _least_e_lam(total, least, a, resolution):
    """E_lam at the grid split with weight (n-a+1)/n on a cheapest of a
    atoms and 1/n on each other one, n = resolution, from the sum and the
    least of their scales."""
    return (total + (resolution - a) * least) / resolution


def _row_major_designs(econ, resolution, max_atoms, max_designs, floor, dropped):
    """grid_designs with a row-major kernel of its own: every atom set in
    lexicographic order, bounded by reductions along the rows of (sets, K)
    and (sets, atoms) arrays, and each batch's X as a (C, K) matrix with
    C(X,q) = np.minimum(X, q).sum(axis=1). No table is cached."""
    K = econ.q.size
    dirs = simplex_grid(K, resolution)
    lam = 1.0 / learning.max_scale_batch(econ.tech, dirs)
    cap = np.minimum(dirs, econ.q)
    for a in range(1, min(max_atoms, resolution) + 1):
        Y_a = floor()
        slack = 1.0 + 4 * (a + K + 1) * float(np.finfo(float).eps)
        sets = np.array(list(itertools.combinations(range(len(dirs)), a)), dtype=np.intp)
        anchor = (econ.V * float(econ.q.sum()) / lam * slack >= Y_a)[sets]
        S = cap[sets].max(axis=1).sum(axis=1)
        # the scales summed as the search sums them: the members other than
        # the first anchor left to right, then that anchor
        first = anchor.argmax(axis=1)
        lam_sets = lam[sets]
        total = np.zeros(len(sets))
        for i in range(a):
            total += np.where(first == i, 0.0, lam_sets[:, i])
        total += lam_sets[np.arange(len(sets)), first]
        e_min = _least_e_lam(total, lam_sets.min(axis=1), a, resolution)
        kept = np.flatnonzero(anchor.any(axis=1) & (econ.V * S / e_min * slack >= Y_a))
        splits = [
            np.array(c, dtype=float) / resolution
            for c in itertools.product(range(1, resolution + 1), repeat=a)
            if sum(c) == resolution
        ]
        dropped.append((len(sets) - kept.size) * len(splits))
        for run in np.split(kept, np.flatnonzero(np.diff(kept // production.ENUM_BATCH)) + 1):
            atom_dirs, atom_lam = dirs[sets[run]], lam[sets[run]]
            rows = atom_dirs.transpose(0, 2, 1).reshape(-1, a)
            for w in splits:
                X = np.dot(rows, w.reshape(a, 1)).reshape(-1, K)
                yield atom_dirs, w, X, atom_lam @ w, np.minimum(X, econ.q).sum(axis=1)


def _both_searches(econ, resolution, atoms, wages):
    found = brute_force_design(econ, resolution=resolution, max_atoms=atoms)
    out = [
        found.Y, found.x.tobytes(), found.design.directions.tobytes(),
        found.design.weights.tobytes(), found.n_designs, found.n_evaluated,
    ]
    if wages is not None:
        report = no_deviation_check(wages, econ, resolution=resolution, max_atoms=atoms)
        out += [
            report.worst_margin, report.worst_design.directions.tobytes(),
            report.worst_design.weights.tobytes(), report.n_designs, report.n_evaluated,
        ]
    return out


@pytest.mark.parametrize(
    "K,resolution,atoms",
    [(2, 8, 3), (3, 6, 3), (4, 5, 3), (5, 4, 3), (6, 3, 3), (7, 3, 3), (8, 2, 3), (9, 2, 3)],
)
def test_domain_major_kernel_keeps_the_row_major_bits(monkeypatch, K, resolution, atoms):
    # the search works on domain-major columns, and numpy sums a row of 8
    # terms or more in another order than left to right: every batch, and
    # both searches, keep the bits of the row-major kernel
    econ = oracles._random_economy(np.random.default_rng(20261019 + K), load_scenario().econ, K=K)
    try:
        wages = support_wages(econ)
    except HypothesisError:
        wages = None
    found = _both_searches(econ, resolution, atoms, wages)
    for floor in (-np.inf, found[0]):
        batches = []
        for enumerate_designs in (production.grid_designs, _row_major_designs):
            dropped = []
            designs = enumerate_designs(econ, resolution, atoms, 10**9, lambda: floor, dropped)
            batches.append([[part.tobytes() for part in batch] for batch in designs] + [dropped])
        assert batches[0] == batches[1]
    monkeypatch.setattr(production, "grid_designs", _row_major_designs)
    assert found == _both_searches(econ, resolution, atoms, wages)


def test_least_grid_e_lam_of_an_atom_set_has_a_closed_form():
    # every grid split puts at least 1/n on each atom, so E_lam = lam @ w is
    # least with the other n-a shares on a cheapest atom; the splits come in
    # every order, so that least depends on a set only through the multiset
    # of its scales: each multiset the grid's scales can form meets the
    # closed form within the search's slack
    eps = float(np.finfo(float).eps)
    for K in range(2, 6):
        econ = oracles._random_economy(np.random.default_rng(K), load_scenario().econ, K=K)
        for resolution in range(2, 9):
            lam = 1.0 / learning.max_scale_batch(econ.tech, simplex_grid(K, resolution))
            values, counts = np.unique(lam, return_counts=True)
            for a in range(1, min(3, resolution) + 1):
                shares = [
                    c for c in itertools.product(range(1, resolution + 1), repeat=a)
                    if sum(c) == resolution
                ]
                picks = [
                    m for m in itertools.combinations_with_replacement(range(values.size), a)
                    if all(m.count(v) <= counts[v] for v in m)
                ]
                scales = values[np.array(picks)]
                splits = np.array(shares, dtype=float) / resolution
                least = (scales @ splits.T).min(axis=1)
                closed = _least_e_lam(scales.sum(axis=1), scales.min(axis=1), a, resolution)
                slack = 1.0 + 4 * (a + K + 1) * eps
                assert np.all(closed <= least * slack) and np.all(least <= closed * slack)


@pytest.mark.parametrize("K", range(1, 10))
def test_row_sum_keeps_the_bits_of_numpys_row_sum(K):
    rng = np.random.default_rng(K)
    rows = rng.random((500, K)) * rng.choice([1e-8, 1.0, 1e8], size=(500, K))
    assert production._row_sum(np.ascontiguousarray(rows.T)).tobytes() == rows.sum(axis=1).tobytes()


def test_empty_design_grid_raises_domain_error(econ):
    wages = support_wages(econ)
    for kwargs in ({"resolution": 4, "max_atoms": 0}, {"resolution": 0, "max_atoms": 2}):
        for search in (
            lambda: brute_force_design(econ, **kwargs),
            lambda: no_deviation_check(wages, econ, **kwargs),
        ):
            with pytest.raises(DomainError, match="grid designs need resolution >= 1"):
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


def test_grid_designs_skip_atom_counts_without_a_weight_split():
    # a atoms need a positive grid weight each, so at resolution 2 the
    # enumerator never starts the level a = 3: it reads the incumbent once
    # per level, and with no incumbent it yields every set it builds
    econ = make_economy()
    levels = []

    def no_incumbent():
        levels.append(len(levels) + 1)
        return -np.inf

    sizes, dropped = {}, []
    designs = production.grid_designs(econ, 2, 3, 10**8, no_incumbent, dropped)
    for atom_dirs, w, X, E_lam, cov in designs:
        sizes[atom_dirs.shape[1]] = sizes.get(atom_dirs.shape[1], 0) + cov.size
    assert levels == [1, 2]
    assert sizes == {1: 6, 2: 15}
    assert dropped == [0, 0]
    assert sum(sizes.values()) == design_space_size(3, 2, 3)
    expected = brute_force_design(econ, resolution=2, max_atoms=2)
    found = brute_force_design(econ, resolution=2, max_atoms=3)
    assert found.n_designs == design_space_size(3, 2, 3) == expected.n_designs
    assert (found.Y, found.x.tolist()) == (expected.Y, expected.x.tolist())


@pytest.mark.parametrize("floor", [-np.inf, "winner", np.inf])
def test_grid_designs_account_for_every_design(floor):
    # each design is yielded once or dropped with its atom set, whatever
    # the incumbent: the two counts add up to the space
    econ = make_economy(q=(0.5, 0.3, 0.2))
    if floor == "winner":
        floor = brute_force_design(econ, resolution=5, max_atoms=3).Y
    seen, dropped = 0, []
    for batch in production.grid_designs(econ, 5, 3, 10**8, lambda: floor, dropped):
        seen += batch[-1].size
    assert len(dropped) == 3
    assert seen + sum(dropped) == design_space_size(3, 5, 3)
    assert (seen == 0) == (floor == np.inf) and (sum(dropped) == 0) == (floor == -np.inf)


def _reference_designs(econ, resolution, atoms, batch):
    """Every grid design as (atom_dirs, w, X, E_lam, C(X,q)), by an
    enumeration of its own: grid points and weight splits as lexicographic
    integer tuples, atom sets in lexicographic runs of `batch`, each run
    once per weight split. Float steps are the ones the engine takes."""
    K = econ.q.size
    dirs = np.array(
        [c for c in itertools.product(range(resolution + 1), repeat=K) if sum(c) == resolution],
        dtype=float,
    ) / resolution
    lam = 1.0 / learning.max_scale_batch(econ.tech, dirs)
    for a in range(1, atoms + 1):
        splits = [
            np.array(c, dtype=float) / resolution
            for c in itertools.product(range(1, resolution + 1), repeat=a)
            if sum(c) == resolution
        ]
        sets = np.array(list(itertools.combinations(range(len(dirs)), a)), dtype=np.intp)
        sets = sets.reshape(-1, a)
        for start in range(0, len(sets), batch):
            idx = sets[start : start + batch]
            atom_dirs, atom_lam = dirs[idx], lam[idx]
            for w in splits:
                X = np.tensordot(atom_dirs, w, axes=([1], [0]))
                yield atom_dirs, w, X, atom_lam @ w, np.minimum(X, econ.q).sum(axis=1)


def _exhaustive(econ, resolution, atoms, r):
    """Both grid searches with Gamma solved on every design: the output
    argmax and, at wage ratio r, the unit-cost argmin, each breaking exact
    ties toward the lexicographically smallest mix."""
    best_key, best, n_seen = (np.inf, ()), None, 0
    worst_key, worst_design = (np.inf, ()), None
    for atom_dirs, w, X, E_lam, cov in _reference_designs(econ, resolution, atoms, 10**9):
        n_seen += cov.size
        gam = production.grid_gamma(econ.tech, atom_dirs, w, X)
        Y = econ.V * cov / (E_lam + econ.theta * gam)
        k = int(np.argmax(Y))
        ties = np.flatnonzero(Y == Y[k])
        if ties.size > 1:
            k = int(min(ties, key=lambda i: tuple(X[i])))
        if (-Y[k], tuple(X[k])) < best_key:
            best_key = (-Y[k], tuple(X[k]))
            best = (float(Y[k]), X[k].copy(), atom_dirs[k], w)
        ok = np.flatnonzero(cov > 0.0)
        if r is None or ok.size == 0:
            continue
        cost = (E_lam[ok] + econ.theta * r * gam[ok]) / cov[ok]
        for k in np.flatnonzero(cost == cost.min()):
            if (cost[k], tuple(X[ok[k]])) < worst_key:
                worst_key = (float(cost[k]), tuple(X[ok[k]]))
                worst_design = (atom_dirs[ok[k]], w)
    return best, n_seen, worst_key[0], worst_design


def _reference_cases():
    """Both shipped scenarios, then random economies: K 2-5, both families,
    uniform q (ties in output), theta at the bottom and top of (0, theta_bar)."""
    root = Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("default", "governance_heavy"):
        yield name, load_scenario(str(root / f"{name}.cfg")).econ, 5, 3
    # theta*Gamma vanishes against E[lambda], so every output meets its
    # bound and permuted mixes tie exactly, the smallest in a later batch
    yield "tiny_theta_ties", make_economy(q=(1 / 3, 1 / 3, 1 / 3), theta=1e-300), 4, 3
    rng = np.random.default_rng(20261018)
    base = load_scenario().econ
    for i in range(20):
        K = 2 + i % 4
        econ = oracles._random_economy(rng, base, K=K)
        family = learning.FAMILIES[i // 4 % 2]
        econ = replace(econ, tech=learning.LearningTech(family, econ.tech.param))
        if i % 3 == 0:
            econ = replace(econ, q=np.full(K, 1.0 / K))
        econ = econ.with_theta((1e-12 if i % 2 else 0.999) * econ.theta_bar)
        yield f"draw{i}", econ, {2: 6, 3: 5, 4: 4, 5: 3}[K], 1 + i % 3


REFERENCE_CASES = list(_reference_cases())
EXHAUSTIVE = {}  # case name -> _exhaustive result, shared by both batch sizes


@pytest.mark.parametrize("batch", [production.ENUM_BATCH, 7])
@pytest.mark.parametrize(
    "name,econ,resolution,atoms", REFERENCE_CASES, ids=[c[0] for c in REFERENCE_CASES]
)
def test_pruned_searches_match_exhaustive_reference(
    monkeypatch, batch, name, econ, resolution, atoms
):
    # pruning on the theta*Gamma = 0 bound is exact: every result carries
    # the bits of the search that solves Gamma for every design, and
    # bounding whole atom sets solves Gamma for exactly the designs that
    # bounding each design alone does
    monkeypatch.setattr(production, "ENUM_BATCH", batch)
    try:
        wages = support_wages(econ)
    except HypothesisError:
        wages = None
    r = None if wages is None else wages.w_M / wages.w_S
    if name not in EXHAUSTIVE:
        EXHAUSTIVE[name] = _exhaustive(econ, resolution, atoms, r)
    (Y, x, dirs, w), n_seen, worst, worst_design = EXHAUSTIVE[name]
    found = brute_force_design(econ, resolution=resolution, max_atoms=atoms)
    assert (found.Y, found.x.tobytes(), found.n_designs) == (Y, x.tobytes(), n_seen)
    assert found.design.directions.tobytes() == dirs.tobytes()
    assert found.design.weights.tobytes() == w.tobytes()
    assert found.n_evaluated == _one_level_search(econ, resolution, atoms, batch)[1]
    assert found.n_evaluated <= found.n_designs
    if wages is None:
        return
    report = no_deviation_check(wages, econ, resolution=resolution, max_atoms=atoms)
    cost_q = 1.0 + econ.theta * r * gamma_index(econ.tech, econ.q * (1.0 - econ.q))
    assert (report.worst_margin, report.n_designs) == (worst - cost_q, n_seen)
    assert report.worst_design.directions.tobytes() == worst_design[0].tobytes()
    assert report.worst_design.weights.tobytes() == worst_design[1].tobytes()
    deviation = econ.with_theta(econ.theta * r)
    assert report.n_evaluated == _one_level_search(deviation, resolution, atoms, batch)[1]
    assert report.n_evaluated <= report.n_designs


def _one_level_search(econ, resolution, atoms, batch):
    """The grid search that bounds designs one at a time: Gamma is solved
    for each design of the reference enumeration whose V*C(X,q)/E_lam
    reaches the running best output. Returns the winner's (Y, x,
    directions, weights, unit cost) and the count of Gamma solves."""
    best_key, best, n_evaluated = (np.inf, ()), None, 0
    for atom_dirs, w, X, E_lam, cov in _reference_designs(econ, resolution, atoms, batch):
        keep = np.flatnonzero(econ.V * cov / E_lam >= -best_key[0])
        if keep.size == 0:
            continue
        n_evaluated += keep.size
        gam = production.grid_gamma(econ.tech, atom_dirs[keep], w, X[keep])
        den = E_lam[keep] + econ.theta * gam
        Y = econ.V * cov[keep] / den
        k = int(np.argmax(Y))
        ties = np.flatnonzero(Y == Y[k])
        if ties.size > 1:
            k = int(min(ties, key=lambda i: tuple(X[keep[i]])))
        i = keep[k]
        if (-Y[k], tuple(X[i])) < best_key:
            best_key = (-Y[k], tuple(X[i]))
            best = (float(Y[k]), X[i].copy(), atom_dirs[i], w, float(den[k] / cov[i]))
    return best, n_evaluated


def test_set_bound_keeps_the_one_level_search_at_design_oracle_size(monkeypatch):
    # K=4, resolution 6, 3 atoms: bounding whole atom sets, by their
    # coverage cap over their grid-cheapest E_lam, forms under a quarter of
    # the 970,354 designs, yet both searches keep the winner bits
    # and the count of Gamma solves of the search that bounds every design
    econ = oracles._random_economy(np.random.default_rng(101), load_scenario().econ, K=4)
    wages = support_wages(econ)
    r = wages.w_M / wages.w_S
    formed = []
    enumerate_designs = production.grid_designs

    def counted(*args):
        for batch in enumerate_designs(*args):
            formed.append(batch[-1].size)
            yield batch

    monkeypatch.setattr(production, "grid_designs", counted)
    found = brute_force_design(econ, resolution=6, max_atoms=3)
    report = no_deviation_check(wages, econ, resolution=6, max_atoms=3)
    assert found.n_designs == report.n_designs == 970_354
    assert 0 < sum(formed) < 0.25 * (found.n_designs + report.n_designs)
    (Y, x, dirs, w, _), n_evaluated = _one_level_search(econ, 6, 3, production.ENUM_BATCH)
    assert (found.Y, found.x.tobytes(), found.n_evaluated) == (Y, x.tobytes(), n_evaluated)
    assert found.design.directions.tobytes() == dirs.tobytes()
    assert found.design.weights.tobytes() == w.tobytes()
    deviation = econ.with_theta(econ.theta * r)
    (_, _, dirs, w, cost), n_evaluated = _one_level_search(deviation, 6, 3, production.ENUM_BATCH)
    cost_q = 1.0 + econ.theta * r * gamma_index(econ.tech, econ.q * (1.0 - econ.q))
    assert (report.worst_margin, report.n_evaluated) == (cost - cost_q, n_evaluated)
    assert report.worst_design.directions.tobytes() == dirs.tobytes()
    assert report.worst_design.weights.tobytes() == w.tobytes()


def test_pruning_solves_gamma_for_few_designs(monkeypatch, econ):
    # n_evaluated counts the designs handed to grid_gamma (the no-deviation
    # check's own Gamma at q is a further batch row); on the default
    # scenario under 1% of the 304,965 designs survive the bound
    wages = support_wages(econ)
    rows = []
    solve = production.grid_gamma

    def counted(tech, atom_dirs, w, X):
        rows.append(X.shape[0])
        return solve(tech, atom_dirs, w, X)

    monkeypatch.setattr(production, "grid_gamma", counted)
    found = brute_force_design(econ, resolution=8, max_atoms=3)
    assert sum(rows) == found.n_evaluated
    rows.clear()
    report = no_deviation_check(wages, econ, resolution=8, max_atoms=3)
    assert sum(rows) == report.n_evaluated
    for result in (found, report):
        assert result.n_designs == 304_965
        assert 0 < result.n_evaluated < 0.01 * result.n_designs


def test_one_search_meets_the_aligned_design_with_q_on_the_grid():
    # q = (0.5, 0.3, 0.2) is a grid point at resolution 10, so both uses of
    # the one search land on the corner design at q, to round-off
    root = Path(__file__).resolve().parent.parent / "scenarios"
    econ = load_scenario(str(root / "default.cfg")).econ
    eps = float(np.finfo(float).eps)
    opt, _ = productive_optimum(econ)
    found = brute_force_design(econ, resolution=10, max_atoms=3)
    report = no_deviation_check(support_wages(econ), econ, resolution=10, max_atoms=3)
    for design in (found.design, report.worst_design):
        assert design.is_corner()
        assert design.mean().tobytes() == econ.q.tobytes()
    assert abs(found.Y - opt.Y_star) <= 4.0 * eps * opt.Y_star
    assert abs(report.worst_margin) <= 4.0 * eps


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
