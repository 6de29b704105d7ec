"""Bit identity of the batched sweep paths.

Each batched path (a stack of system_knowledge rows, a block of
accounts_rows, a b grid of broadening allocations and its welfare
accounts, an alpha grid's stack of civic profiles and its welfare slopes,
a theta grid of optima, accounts on an allocation whose
specialist layer and normalized knowledge rows are already cached, a
frontier batch with a learning.param per row, a block of economies' optima
and their accounts, a stack of designs' means and gap bundles) must
give every point the bits of the per-point loop it replaced, or stay
within a stated ulp bound. The loops are copied here, so that a change to
the engine cannot move both sides at once.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from specint.errors import DomainError, HypothesisError, ModelError
from specint.knowledge import coverage, feasible_bundle, fragmentation, system_knowledge
from specint.learning import LearningTech, max_scale, max_scale_batch
from specint.production import (
    GAP_TOL,
    Accounts,
    Allocation,
    SpecialistDesign,
    accounts,
    accounts_rows,
    corner_design,
    gap_bundle_rows,
    gap_profile_star,
    mean_rows,
    minimal_allocation,
    optimum_accounts,
    optimum_rows,
    productive_optimum,
)
from specint.reforms import (
    broadening_allocation,
    broadening_statics,
    interface_closed_slopes,
    interface_family,
    interface_profile,
    interface_statics,
    theta_statics,
)
from specint.scenario import load_scenario
from specint.welfare import DECOMPOSITION_STEP, total_welfare

from conftest import interior_simplex, make_economy

FAMILIES = ("rational", "exponential")
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _economies(seed=20261019, per_cell=3):
    """Economies on every (K in 3..5, family) cell, theta below the cutoff."""
    rng = np.random.default_rng(seed)
    out = []
    for K in (3, 4, 5):
        for family in FAMILIES:
            for _ in range(per_cell):
                econ = make_economy(
                    q=interior_simplex(rng, K),
                    u=interior_simplex(rng, K),
                    p=float(rng.uniform(0.05, 0.9)),
                    family=family,
                    param=float(rng.uniform(0.6, 3.0)),
                )
                out.append(econ.with_theta(float(rng.uniform(0.05, 0.9)) * econ.theta_bar))
    return out


ECONOMIES = _economies()

# from 8 terms on numpy does not sum a row left to right
K8 = make_economy(
    q=(0.2, 0.16, 0.14, 0.12, 0.11, 0.1, 0.09, 0.08),
    u=(0.13, 0.128, 0.126, 0.125, 0.124, 0.123, 0.122, 0.122),
    p=0.4,
    param=1.5,
)


def _off_sum(q, u, family):
    econ = make_economy(q=q, u=u, p=0.3, family=family, param=1.4)
    return econ.with_theta(0.6 * econ.theta_bar)


# q sums to 1 - 2**-53, so the b = 0 weights q/sum(q) are not q
OFF_SUM = [
    _off_sum((0.6, 0.3, 0.1), (0.3, 0.3, 0.4), "rational"),
    _off_sum((0.35, 0.3, 0.2, 0.1, 0.05), (0.15, 0.25, 0.2, 0.2, 0.2), "exponential"),
]


def _knowledge_one(s, u, p):
    """The 1-d system_knowledge, one profile at a time."""
    v = np.clip(np.asarray(s, dtype=float), 0.0, None)
    mass = float(v.sum())
    if mass == 0.0:
        return 0.0
    return mass**p * float(np.minimum(v / mass, u).sum())


def _minimal_one(design, econ, scales):
    """minimal_allocation given scales, with its own frontier solve."""
    x = design.weights @ design.directions
    z = design.weights @ np.clip(x[None, :] - design.directions, 0.0, None)
    e_lam = float((design.weights / scales).sum())
    mass = float(z.sum())
    if mass == 0.0:
        return Allocation(m=0.0, design=design, integrator_profile=np.zeros(x.size), scales=scales)
    h = z / mass
    H_h = max_scale(econ.tech, h)
    gam = mass * (1.0 / H_h)
    m = econ.theta * gam / (e_lam + econ.theta * gam)
    return Allocation(m=m, design=design, integrator_profile=H_h * h, scales=scales)


def _broadening_one(b, econ):
    """The per-share broadening allocation on the atoms [I; q], solving
    its own frontiers."""
    q = econ.q
    dirs = np.vstack([np.eye(q.size), q])
    scales = max_scale_batch(econ.tech, dirs)
    raw = np.concatenate([(1.0 - b) * q, [b * scales[-1]]])
    return _minimal_one(SpecialistDesign(directions=dirs, weights=raw / raw.sum()), econ, scales)


def _same_allocation(a, b):
    return (
        a.m == b.m
        and np.array_equal(a.design.directions, b.design.directions)
        and np.array_equal(a.design.weights, b.design.weights)
        and np.array_equal(a.integrator_profile, b.integrator_profile)
        and np.array_equal(a.scales, b.scales)
    )


def _bytes(x):
    return np.asarray(x, dtype=float).tobytes()


def _same_accounts(a, b):
    """Whether two Accounts hold the same bytes, field by field."""
    fields = lambda acc: (acc.G, acc.g, acc.Y, acc.B_S, acc.B_M)
    return [_bytes(x) for x in fields(a)] == [_bytes(x) for x in fields(b)]


@pytest.mark.parametrize("K", range(2, 9))
def test_system_knowledge_stack_matches_rows(K):
    # the power p is drawn per stack and masses span (0, 2]; np.power in
    # place of the float ** misses by an ulp on some of these rows
    rng = np.random.default_rng(1000 + K)
    for _ in range(40):
        u = interior_simplex(rng, K)
        p = float(rng.uniform(0.05, 0.9))
        rows = rng.dirichlet(np.ones(K), size=25) * rng.uniform(0.0, 2.0, size=(25, 1))
        rows[3] = 0.0  # the zero profile
        rows[5, 0] = 0.0  # a profile off one domain
        want = [_knowledge_one(r, u, p) for r in rows]
        got = system_knowledge(rows, u, p)
        assert got.shape == (25,)
        assert got.tolist() == want
        assert [system_knowledge(r, u, p) for r in rows] == want
        # a stack of civic profiles adds a leading axis, one row per profile
        civic = np.vstack([u, interior_simplex(rng, K), interior_simplex(rng, K)])
        table = [[_knowledge_one(r, c, p) for r in rows] for c in civic]
        assert system_knowledge(rows, civic, p).tolist() == table
        assert system_knowledge(rows[5], civic, p).tolist() == [t[5] for t in table]


@pytest.mark.parametrize("K", range(2, 10))
def test_coverage_stack_matches_rows(K):
    # from 8 terms on numpy sums pairwise; each row of a stack keeps the
    # bits of its own 1-d call on both paths
    rng = np.random.default_rng(2000 + K)
    a = rng.uniform(0.0, 1.0, (50, K))
    b = rng.dirichlet(np.ones(K), size=50) * rng.uniform(0.1, 2.0, (50, 1))
    a[3] = 0.0  # no knowledge
    a[5] = b[5]  # full coverage
    want = [coverage(x, y) for x, y in zip(a, b)]
    assert all(type(w) is float for w in want)
    got = coverage(a, b)
    assert got.shape == (50,)
    assert got.tobytes() == np.array(want).tobytes()
    for other in (b[:, :-1], b[0], b[None]):
        with pytest.raises(DomainError):
            coverage(a, other)


def test_system_knowledge_stack_on_allocation_profiles():
    for econ in ECONOMIES:
        alloc = broadening_allocation(0.4, econ)
        rows = np.vstack([alloc.layer.profiles, alloc.integrator_profile, np.zeros(econ.K)])
        want = [_knowledge_one(r, econ.u, econ.p) for r in rows]
        assert system_knowledge(rows, econ.u, econ.p).tolist() == want


def test_broadening_grid_matches_per_share_loop():
    rng = np.random.default_rng(7)
    for econ in [*ECONOMIES, *OFF_SUM]:
        grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 21), rng.uniform(0.0, 1.0, 4)]))
        rows = broadening_allocation(grid, econ)
        assert rows.m.size == grid.size
        for i, b in enumerate(grid.tolist()):
            want = _broadening_one(b, econ)
            assert _same_allocation(rows.allocation(i), want), (econ.K, econ.tech.family, b)
            assert _same_allocation(broadening_allocation(b, econ), want)


def test_broadening_end_points_normalize_q():
    # at b = 0 the corners carry q/sum(q), and the broad atom nothing; at
    # b = 1 the broad atom carries everything
    for econ in [*ECONOMIES, *OFF_SUM]:
        q = econ.q
        rows = broadening_allocation(np.array([0.0, 1.0]), econ)
        assert rows.weights[0].tobytes() == np.append(q / q.sum(), 0.0).tobytes()
        assert rows.weights[1].tolist() == [0.0] * q.size + [1.0]
    assert all(econ.q.sum() != 1.0 for econ in OFF_SUM)
    assert all(np.any(econ.q / econ.q.sum() != econ.q) for econ in OFF_SUM)


B_COLUMNS = ["b", "m", "Y", "B_S", "B_M", "B_soc", "e_pol", "z_pol", "t_S", "t_M", "R",
             "service_welfare", "dispersion", "welfare"]


def _broadening_statics_one(b, econ):
    """One sweep --axis b row of the per-share path: the share's own
    allocation and its full welfare accounts (accounts alone where m = 0,
    and the eight political and welfare cells blank)."""
    alloc = _broadening_one(b, econ)
    if 0.0 < alloc.m < 1.0:
        r = total_welfare(econ, alloc)
        return (b, alloc.m, r.Y, r.B_S, r.B_M, r.B_soc, r.e_pol, r.z_pol, r.t_S, r.t_M,
                r.R, r.service_welfare, r.dispersion, r.welfare)
    acc = accounts(alloc, econ)
    B_soc = (1.0 - alloc.m) * acc.B_S + alloc.m * acc.B_M
    return (b, alloc.m, acc.Y, acc.B_S, acc.B_M, B_soc, *[None] * 8)


def test_broadening_statics_matches_per_share_loop():
    # grids with both end points, with neither, with the end points alone,
    # and random interior shares
    rng = np.random.default_rng(17)
    for econ in [*ECONOMIES, *OFF_SUM, K8]:
        grids = (
            np.linspace(0.0, 1.0, 21),
            np.linspace(0.05, 0.95, 7),
            np.array([0.0, 1.0]),
            np.sort(rng.uniform(0.0, 1.0, 6)),
        )
        for grid in grids:
            table = broadening_statics(econ, grid)
            assert list(table) == B_COLUMNS
            got = list(zip(*table.values()))
            want = [_broadening_statics_one(b, econ) for b in grid.tolist()]
            assert len(got) == grid.size
            for g, w in zip(got, want):
                # floats compared by their bits, through repr
                assert repr(g) == repr(w), (econ.K, econ.tech.family, w[0])
                assert (g[6] is None) == (w[0] == 1.0)


def test_sweep_b_makes_two_frontier_calls_and_no_per_share_accounts(tmp_path, monkeypatch):
    # the b sweep makes its two frontier solves (the atoms [I; q] and the
    # integrator directions), builds the family in one minimal_rows call,
    # adds it up in one accounts_rows call, and never builds the per-share
    # accounts
    from specint import cli, learning, politics, production, reforms, welfare

    solve = learning.max_scale_batch
    build, add_up = production.minimal_rows, production.accounts_rows
    frontier, built, added, evaluated = [], [], [], []

    def counted_solve(tech, directions):
        frontier.append(len(directions))
        return solve(tech, directions)

    def counted_build(*args):
        built.append(args)
        return build(*args)

    def counted_add_up(*args):
        added.append(args)
        return add_up(*args)

    def refuse(*args):
        evaluated.append(args)
        raise AssertionError("per-share evaluation in the b sweep")

    for module in (learning, reforms):
        monkeypatch.setattr(module, "max_scale_batch", counted_solve)
    for module in (production, reforms):
        monkeypatch.setattr(module, "minimal_rows", counted_build)
        monkeypatch.setattr(module, "accounts_rows", counted_add_up)
    for module in (production, politics, reforms):
        monkeypatch.setattr(module, "accounts", refuse)
    for module in (welfare, cli):
        monkeypatch.setattr(module, "total_welfare", refuse)
    out = tmp_path / "b.csv"
    assert cli.main(["sweep", "--axis", "b", "--config", str(SCENARIOS / "default.cfg"),
                     "--out", str(out)]) == 0
    assert frontier == [4, 20]
    assert (len(built), len(added)) == (1, 1)
    assert evaluated == []
    assert len(out.read_text().splitlines()) == 22


def test_theta_statics_matches_per_theta_loop():
    for econ in ECONOMIES:
        grid = np.linspace(0.02, 0.98, 25) * econ.theta_bar
        report = theta_statics(econ, grid)
        m, Y, B, W, dm = [], [], [], [], []
        for theta in grid:
            econ_t = econ.with_theta(float(theta))
            opt, alloc = productive_optimum(econ_t)
            rep = total_welfare(econ_t, alloc)
            H = opt.H_hstar
            D = fragmentation(econ.q)
            m.append(opt.m_star)
            Y.append(opt.Y_star)
            B.append(rep.B_soc)
            W.append(rep.welfare)
            dm.append(D * H / (H + theta * D) ** 2)
        assert list(report) == ["theta", "m", "Y", "B_soc", "welfare", "dm_dtheta"]
        assert report["theta"] == grid.tolist()
        assert report["m"] == m
        assert report["Y"] == Y
        assert report["B_soc"] == B
        # welfare is evaluated at the closed-form Y, which the accounts
        # output of the loop can miss by an ulp
        assert np.all(np.abs(np.subtract(report["welfare"], W)) <= 4 * np.spacing(np.abs(W)))
        assert report["dm_dtheta"] == dm


def test_accounts_on_reused_allocation_match_fresh():
    # the layer is summarized under one economy, then read under another
    # with a new civic profile, breadth penalty and integration cost
    rng = np.random.default_rng(11)
    for econ in ECONOMIES:
        for b in (0.0, 0.4, 1.0):
            reused = broadening_allocation(b, econ)
            accounts(reused, econ)
            other = make_economy(
                q=econ.q, u=interior_simplex(rng, econ.K), p=float(rng.uniform(0.05, 0.9)),
                theta=0.5 * econ.theta, family=econ.tech.family, param=econ.tech.param,
            )
            fresh = broadening_allocation(b, econ)
            assert "layer" not in fresh.__dict__
            assert _same_accounts(accounts(reused, other), accounts(fresh, other))


def test_accounts_on_reused_allocation_still_checks_capacity():
    # a summarized layer does not carry the theta*g check over to a dearer economy
    econ = ECONOMIES[0]
    alloc = broadening_allocation(0.4, econ)
    accounts(alloc, econ)
    dear = econ.with_theta(4.0 * econ.theta)
    with pytest.raises(DomainError, match="integration capacity"):
        accounts(alloc, dear)
    assert math.isfinite(accounts(alloc, econ).Y)


def _accounts_one(alloc, econ):
    """accounts of an allocation with specialists, in 1-d arithmetic: one
    matrix-vector product and one sum per quantity, one profile at a time."""
    design, H, m = alloc.design, alloc.scales, alloc.m
    mu = design.weights / H
    mu = mu / mu.sum()
    profiles = H[:, None] * design.directions
    S = (1.0 - m) * (mu @ profiles)
    total = float(S.sum())
    shortfall = np.clip(profiles.sum(axis=1, keepdims=True) * (S / total)[None, :] - profiles, 0.0, None)
    G = (1.0 - m) * (mu @ shortfall)
    g = float(G.sum())
    atoms = [_knowledge_one(r, econ.u, econ.p) for r in profiles]
    return Accounts(
        G=G,
        g=0.0 if g <= GAP_TOL else g,
        Y=econ.V * float(np.minimum(S, total * econ.q).sum()),
        B_S=float(sum(w * k for w, k in zip(mu.tolist(), atoms))),
        B_M=_knowledge_one(alloc.integrator_profile, econ.u, econ.p),
    )


def test_accounts_rows_match_accounts_of_each_row():
    # every row of the block, the end points included, gives the whole
    # Accounts of its own allocation, and that has the bits of the 1-d
    # arithmetic
    rng = np.random.default_rng(23)
    for econ in [*ECONOMIES, *OFF_SUM, K8]:
        grid = np.unique(np.concatenate([np.linspace(0.0, 1.0, 11), rng.uniform(0.0, 1.0, 4)]))
        rows = broadening_allocation(grid, econ)
        got = accounts_rows(rows, econ)
        assert len(got) == grid.size
        for i, acc in enumerate(got):
            want = accounts(rows.allocation(i), econ)
            assert _same_accounts(acc, want), (econ.K, econ.tech.family, i)
            assert _same_accounts(want, _accounts_one(rows.allocation(i), econ))


def test_layer_kernel_runs_once_per_allocation_along_the_alpha_sweep(monkeypatch):
    from specint import production

    kernel = production.layer_rows
    calls = []

    def counted(*args):
        calls.append(args[2].shape[0])
        return kernel(*args)

    monkeypatch.setattr(production, "layer_rows", counted)
    for econ in (ECONOMIES[0], K8):
        calls.clear()
        fam = interface_family(econ)
        for alpha in _alpha_sweep_points():
            fam(alpha)
        assert calls == [1]


def test_gap_accounting_makes_one_row_evaluation_per_K(monkeypatch):
    from specint import oracles

    evaluate = oracles.accounts_rows
    blocks = []

    def counted(rows, econ):
        blocks.append((econ.K, rows.m.size))
        return evaluate(rows, econ)

    def refuse(*args):
        raise AssertionError("per-mix accounts in gap-accounting")

    monkeypatch.setattr(oracles, "accounts_rows", counted)
    monkeypatch.setattr(oracles, "accounts", refuse)
    scn = load_scenario(str(SCENARIOS / "default.cfg"))
    res = oracles.check_gap_accounting(scn, np.random.default_rng(scn.seed), 1.0)
    assert res.status == "pass"
    Ks = [K for K, _ in blocks]
    assert sorted(set(Ks)) == Ks
    assert sum(n for _, n in blocks) == 200


def test_accounts_rows_raise_what_accounts_raises_on_an_infeasible_row():
    # halving a row's integrators halves its capacity; doubling them
    # overruns the learning budget; the first such row in order is reported
    for econ in (ECONOMIES[0], ECONOMIES[-1], K8):
        rows = broadening_allocation(np.linspace(0.0, 0.8, 5), econ)  # every share with a gap
        accounts_rows(rows, econ)
        n = rows.m.size
        for i, j in [*((i, None) for i in range(n)), (1, n - 1), (n - 1, 1)]:
            integrator = rows.integrator.copy()
            integrator[i] *= 0.5
            if j is not None:
                integrator[j] *= 2.0
            changed = dataclasses.replace(rows, integrator=integrator)
            first = i if j is None else min(i, j)
            with pytest.raises(DomainError, match="learning budget|integration capacity") as want:
                accounts(changed.allocation(first), econ)
            with pytest.raises(DomainError, match="learning budget|integration capacity") as got:
                accounts_rows(changed, econ)
            assert str(got.value) == str(want.value), (econ.K, i, j)


def _knowledge_loop(alloc, econ):
    """(B_S, B_M) of accounts, one _knowledge_one call per profile."""
    layer = alloc.layer
    atoms = [_knowledge_one(r, econ.u, econ.p) for r in layer.profiles]
    B_S = float(sum(w * k for w, k in zip(layer.mu[0], atoms)))
    return B_S, _knowledge_one(alloc.integrator_profile, econ.u, econ.p)


def test_accounts_on_cached_rows_match_per_row_loop():
    for econ in [*ECONOMIES, K8]:
        for b in (0.0, 0.4, 1.0):
            alloc = broadening_allocation(b, econ)
            want = _knowledge_loop(alloc, econ)
            # the first call builds the cached rows, the second reads them
            for _ in range(2):
                acc = accounts(alloc, econ)
                assert (acc.B_S, acc.B_M) == want, (econ.K, econ.tech.family, b)
            assert "layer" in alloc.__dict__


def _alpha_sweep_points(n=21):
    """The 3n civic-profile parameters that sweep --axis alpha evaluates:
    decompose_along's stencil at each grid point of [0, 1]."""
    h = DECOMPOSITION_STEP
    points = []
    for a in np.linspace(0.0, 1.0, n).tolist():
        if a - h >= 0.0 and a + h <= 1.0:
            points += [a - h, a, a + h]
        elif a - h < 0.0:
            points += [a, a + h, a + 2.0 * h]
        else:
            points += [a, a - h, a - 2.0 * h]
    return points


def test_accounts_along_alpha_sweep_match_per_row_loop():
    points = _alpha_sweep_points()
    assert len(points) == 63
    for econ in (ECONOMIES[0], ECONOMIES[-1], K8):
        fam = interface_family(econ)
        alloc = minimal_allocation(corner_design(econ.q), econ)
        at_zero = fam(0.0)
        h_star = gap_profile_star(econ.q)
        for alpha in points:
            rep = fam(alpha)
            # one allocation along the family: output and integrator share keep their bits
            assert (rep.Y, rep.m) == (at_zero.Y, at_zero.m), alpha
            econ_a = econ.with_u(interface_profile(econ.q, alpha, h_star))
            assert (rep.B_S, rep.B_M) == _knowledge_loop(alloc, econ_a), alpha


def _interface_statics_one(econ, grid):
    """The alpha sweep's emitted cells, one stencil point at a time: each
    point's own economy (the tilted civic profile, checked by with_u), its
    accounts in 1-d arithmetic and its full welfare accounts, and the
    welfare slope from a second-order stencil of step DECOMPOSITION_STEP,
    central inside [0, 1] and one-sided within a step of its ends."""
    q, h = econ.q, DECOMPOSITION_STEP
    alloc = minimal_allocation(corner_design(q), econ)
    h_star = gap_profile_star(q)
    rows = []
    for a in grid:
        if a - h >= 0.0 and a + h <= 1.0:
            points, kind = (a - h, a, a + h), 0
        elif a - h < 0.0:
            points, kind = (a, a + h, a + 2.0 * h), 1
        else:
            points, kind = (a, a - h, a - 2.0 * h), -1
        reports = []
        for x in points:
            econ_x = econ.with_u((1.0 - x) * q + x * h_star)
            acc = _accounts_one(alloc, econ_x)
            rep = total_welfare(econ_x, alloc)
            assert (rep.B_S, rep.B_M, rep.Y) == (acc.B_S, acc.B_M, acc.Y)
            reports.append(rep)
        f0, f1, f2 = (r.welfare for r in reports)
        if kind == 0:
            dW = (f2 - f0) / (2.0 * h)
        elif kind == 1:
            dW = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        else:
            dW = (3.0 * f0 - 4.0 * f1 + f2) / (2.0 * h)
        at = reports[1] if kind == 0 else reports[0]
        rows.append((a, at.B_S, at.B_M, at.B_soc, at.dispersion, at.welfare, dW))
    return rows


ALPHA_PER_POINT = ["alpha", "B_S", "B_M", "B_soc", "dispersion", "welfare", "dW_dalpha"]


def test_interface_statics_matches_per_point_loop():
    # full grids, an interior grid, the end points alone, one point within
    # a step of 1, and a grid whose neighbouring stencils share points and
    # that uses all three stencils
    grids = (
        np.linspace(0.0, 1.0, 21),
        np.linspace(0.2, 0.8, 7),
        np.array([0.0, 1.0]),
        np.array([0.999995]),
        np.array([0.0, 0.00001, 0.00002, 0.5, 1.0]),
    )
    for econ in [*ECONOMIES, K8]:
        for grid in grids:
            table = interface_statics(econ, grid)
            got = list(zip(*(table[name] for name in ALPHA_PER_POINT)))
            want = _interface_statics_one(econ, grid.tolist())
            # floats compared by their bits, through repr
            assert repr(got) == repr(want), (econ.K, econ.tech.family, grid.tolist())
            # the closed-form slopes, one value repeated on every row
            s_S, s_M = interface_closed_slopes(econ)
            m = minimal_allocation(corner_design(econ.q), econ).m
            slopes = (s_S, s_M, (1.0 - m) * s_S + m * s_M)
            for name, value in zip(("B_S_slope", "B_M_slope", "B_soc_slope"), slopes):
                assert repr(table[name]) == repr([value] * grid.size), name


def test_civic_accounts_raise_what_the_per_point_path_raises():
    # a stack row that with_u rejects is reported as with_u reports it, the
    # first such row in order; an allocation that a dearer economy cannot
    # support fails as accounts fails
    from specint.errors import ConfigError
    from specint.production import civic_accounts

    econ = ECONOMIES[0]
    alloc = minimal_allocation(corner_design(econ.q), econ)
    civic = np.vstack([econ.u, econ.q, econ.u])
    assert len(civic_accounts(alloc, econ, civic)) == 3
    for bad in (np.full(econ.K, 1.0), np.r_[0.0, econ.q[1:] / econ.q[1:].sum()]):
        rows = np.vstack([econ.u, bad, 2.0 * econ.u])
        with pytest.raises(ConfigError) as want:
            econ.with_u(bad)
        with pytest.raises(ConfigError) as got:
            civic_accounts(alloc, econ, rows)
        assert str(got.value) == str(want.value)
    dear = econ.with_theta(4.0 * econ.theta)
    with pytest.raises(DomainError, match="integration capacity") as want:
        accounts(alloc, dear)
    with pytest.raises(DomainError, match="integration capacity") as got:
        civic_accounts(alloc, dear, civic)
    assert str(got.value) == str(want.value)


def test_accounts_under_two_powers_match_per_row_loop():
    for econ in (ECONOMIES[1], K8):
        alloc = broadening_allocation(0.4, econ)
        for p in (0.15, 0.85, 0.15):
            econ_p = dataclasses.replace(econ, p=p)
            acc = accounts(alloc, econ_p)
            assert (acc.B_S, acc.B_M) == _knowledge_loop(alloc, econ_p), p


def test_cached_budget_check_raises_on_every_call():
    econ = ECONOMIES[0]
    greedy = dataclasses.replace(
        productive_optimum(econ)[1], integrator_profile=np.full(econ.K, 0.9)
    )
    for _ in range(2):
        with pytest.raises(DomainError, match="learning budget"):
            accounts(greedy, econ)


def test_budget_check_is_cached_per_learning_technology():
    # the optimum's integrators sit on the frontier of a mild rational
    # cost; a steeper cost of the same family prices the profile above 1
    econ = make_economy(param=0.6)
    steep = dataclasses.replace(econ, tech=LearningTech("rational", 3.0))
    alloc = productive_optimum(econ)[1]
    for _ in range(2):
        assert math.isfinite(accounts(alloc, econ).Y)
        with pytest.raises(DomainError, match="learning budget"):
            accounts(alloc, steep)
    fresh = productive_optimum(econ)[1]
    with pytest.raises(DomainError, match="learning budget"):
        accounts(fresh, steep)
    assert math.isfinite(accounts(fresh, econ).Y)


@pytest.mark.parametrize("family", FAMILIES)
def test_frontier_rows_with_their_own_param_match_one_tech_calls(family):
    # params over five decades, corner rows among the directions; each row
    # has the bits of the one-row call under its own technology, and so
    # has the budget verdict of each row
    rng = np.random.default_rng(31)
    carrier = LearningTech(family, 1.0)
    for K in range(2, 9):
        P = rng.dirichlet(np.full(K, 0.7), size=40)
        P[3], P[11] = np.eye(K)[0], np.eye(K)[K - 1]
        params = 10.0 ** rng.uniform(-2.0, 3.0, size=40)
        techs = [LearningTech(family, float(c)) for c in params]
        got = max_scale_batch(carrier, P, params)
        want = [max_scale_batch(tech, row[None, :])[0] for tech, row in zip(techs, P)]
        assert got.tobytes() == np.array(want).tobytes(), K
        assert got[3] == got[11] == 1.0
        S = got[:, None] * P * rng.uniform(0.98, 1.02, size=(40, 1))
        fits = feasible_bundle(S, carrier, params).tolist()
        assert fits == [feasible_bundle(s, tech) for tech, s in zip(techs, S)], K


@pytest.mark.parametrize("K", range(2, 13))
def test_stacked_fragmentation_and_gap_profile_match_one_row_calls(K):
    rng = np.random.default_rng(41 + K)
    Q = rng.dirichlet(np.full(K, 0.6), size=60)
    Q[7] = np.full(K, 1.0 / K)
    D = fragmentation(Q)
    assert D.tobytes() == np.array([fragmentation(q) for q in Q]).tobytes()
    h = gap_profile_star(Q)
    assert h.tobytes() == np.array([gap_profile_star(q) for q in Q]).tobytes()


@pytest.mark.parametrize("K", range(2, 6))
def test_stacked_design_mean_and_gap_bundle_match_one_row_calls(K):
    # the stacked forms against SpecialistDesign.mean and the 1-d products
    # w @ D and w @ (x - D)^+, for 1 to 4 atoms, on atoms of each row's own
    # and on atoms every row shares, and for the all-corner design
    rng = np.random.default_rng(51 + K)
    for a in range(1, 5):
        dirs = rng.dirichlet(np.ones(K), size=(30, a))
        dirs[0, 0] = np.eye(K)[0]  # a corner atom
        w = rng.dirichlet(np.ones(a), size=30)
        X = mean_rows(w, dirs)
        Z = gap_bundle_rows(w, dirs, X)
        designs = [SpecialistDesign(directions=d, weights=v) for d, v in zip(dirs, w)]
        assert X.tobytes() == np.array([d.mean() for d in designs]).tobytes()
        assert X.tobytes() == np.array([v @ d for d, v in zip(dirs, w)]).tobytes()
        want = [v @ np.clip(x[None, :] - d, 0.0, None) for d, v, x in zip(dirs, w, X)]
        assert Z.tobytes() == np.array(want).tobytes()
        shared = dirs[0]
        assert mean_rows(w, shared).tobytes() == np.array([v @ shared for v in w]).tobytes()
        want = [v @ np.clip(x[None, :] - shared, 0.0, None) for v, x in zip(w, X)]
        assert gap_bundle_rows(w, shared, X).tobytes() == np.array(want).tobytes()
        corners = [corner_design(x) for x in X]
        want = [c.weights @ np.clip(x[None, :] - c.directions, 0.0, None) for c, x in zip(corners, X)]
        assert gap_bundle_rows(X, np.eye(K), X).tobytes() == np.array(want).tobytes()


def _optimum_one(econ):
    """The corner optimum of one economy in 1-d arithmetic: D(q), h*, the
    frontier H(h*) of its own technology, m* and Y*."""
    D = fragmentation(econ.q)
    h = econ.q * (1.0 - econ.q) / D
    H = max_scale(econ.tech, h)
    return h, H, econ.theta * D / (H + econ.theta * D), econ.V * H / (H + econ.theta * D)


def _optimum_blocks():
    """ECONOMIES, two K = 2 economies and two K = 8 ones, by K, each block
    with both learning families in shuffled order; then a K = 6 block whose
    economies share one technology per family."""
    rng = np.random.default_rng(37)
    extra = [
        make_economy(q=(0.7, 0.3), u=(0.45, 0.55), p=0.3, family="exponential", param=2.2),
        make_economy(q=(0.4, 0.6), u=(0.5, 0.5), p=0.8, family="rational", param=0.7),
        K8,
        dataclasses.replace(K8, tech=LearningTech("exponential", 1.3), p=0.7),
    ]
    econs = [*ECONOMIES, *extra]
    for K in sorted({e.K for e in econs}):
        block = [e for e in econs if e.K == K]
        yield [block[i] for i in rng.permutation(len(block))]
    shared = []
    for family, param in (("rational", 0.9), ("exponential", 2.4), ("rational", 0.9)) * 3:
        econ = make_economy(
            q=interior_simplex(rng, 6), u=interior_simplex(rng, 6),
            p=float(rng.uniform(0.05, 0.9)), V=float(rng.uniform(5.0, 50.0)),
            family=family, param=param,
        )
        shared.append(econ.with_theta(float(rng.uniform(0.05, 0.9)) * econ.theta_bar))
    yield shared


def test_optimum_rows_match_each_economy_optimum_and_accounts():
    blocks = list(_optimum_blocks())
    assert len({e.tech for e in blocks[-1]}) == 2
    for block in blocks:
        assert len({e.tech.family for e in block}) == 2
        rows, accs = optimum_accounts(block)
        assert optimum_rows(block).m.tobytes() == rows.m.tobytes()
        assert len(accs) == len(block)
        for i, econ in enumerate(block):
            h, H, m, Y = _optimum_one(econ)
            opt, alloc = productive_optimum(econ)
            got = rows.optimum(i)
            assert _bytes(got.h_star) == _bytes(h) == _bytes(opt.h_star), (econ.K, i)
            assert (got.H_hstar, got.m_star, got.Y_star) == (H, m, Y) == (
                opt.H_hstar, opt.m_star, opt.Y_star
            )
            assert _same_allocation(rows.allocation(i), alloc)
            assert _same_accounts(accs[i], accounts(alloc, econ)), (econ.K, i)
            assert _same_accounts(accs[i], _accounts_one(alloc, econ)), (econ.K, i)


def _first_error(econs):
    """What the per-economy loop of productive_optimum and accounts raises
    first, as (type, message)."""
    try:
        for econ in econs:
            accounts(productive_optimum(econ)[1], econ)
    except ModelError as exc:
        return type(exc), str(exc)
    return None


def _raised(kernel, econs):
    """The ModelError kernel(econs) raises, as (type, message)."""
    with pytest.raises(ModelError) as got:
        kernel(econs)
    return type(got.value), str(got.value)


def test_optimum_block_raises_hypothesis_errors_before_feasibility_errors(monkeypatch):
    from specint import production

    good = ECONOMIES[0]
    hot = good.with_theta(2.0 * good.theta_bar)
    edge = make_economy(q=(0.6, 0.4, 0.0), u=(0.4, 0.35, 0.25))  # a zero domain in q
    other = ECONOMIES[3]
    # a block with a hypothesis failure raises what the per-economy loop raises
    blocks = ([good, hot, other], [hot, edge], [good, edge, hot], [other, good, edge])
    for block in blocks:
        want = _first_error(block)
        assert want is not None and want[0] in (HypothesisError, DomainError)
        for kernel in (optimum_accounts, optimum_rows):
            assert _raised(kernel, block) == want, [e.theta for e in block]
    # with every row made infeasible, a later row's hypothesis error still
    # comes before an earlier row's capacity error; without one, the first
    # infeasible row's capacity error is raised
    monkeypatch.setattr(production, "FEAS_TOL", -1.0)
    for block, late in (([good, hot], hot), ([good, other, edge], edge)):
        assert "integration capacity" in _first_error(block)[1]
        assert _raised(optimum_accounts, block) == _raised(optimum_rows, [late])
    want = _first_error([other, good])
    assert want[0] is DomainError and "integration capacity" in want[1]
    assert _raised(optimum_accounts, [other, good]) == want
    assert _raised(optimum_accounts, [other, good]) != _raised(optimum_accounts, [good, other])


def test_economy_drawing_checks_solve_each_K_in_one_kernel_call(monkeypatch):
    # the optimum identities, the civic advantage and the political tilt
    # evaluate their random economies one K at a time, in ascending K;
    # only the scenario's own economy meets productive_optimum and
    # political_equilibrium (once, in the political-equilibrium check)
    from specint import oracles

    kernel = oracles.optimum_accounts
    blocks, single = [], []

    def counted(econs):
        blocks.append([e.K for e in econs])
        return kernel(econs)

    def one(name, call):
        def counted_one(econ, *args):
            single.append((name, econ))
            return call(econ, *args)
        return counted_one

    monkeypatch.setattr(oracles, "optimum_accounts", counted)
    monkeypatch.setattr(oracles, "productive_optimum", one("optimum", oracles.productive_optimum))
    monkeypatch.setattr(oracles, "political_equilibrium", one("politics", oracles.political_equilibrium))
    monkeypatch.setattr(oracles, "accounts", one("accounts", oracles.accounts))
    scn = load_scenario(str(SCENARIOS / "default.cfg"))
    for check, n, own in (
        (oracles.check_optimum_identities, 50, []),
        (oracles.check_civic_advantage, scn.economies, []),
        (oracles.check_political_equilibrium, scn.economies, ["optimum", "politics"]),
    ):
        blocks.clear()
        single.clear()
        assert check(scn, np.random.default_rng([scn.seed, 1]), 1.0).status == "pass"
        Ks = [block[0] for block in blocks]
        assert all(len(set(block)) == 1 for block in blocks)
        assert sorted(set(Ks)) == Ks and len(Ks) > 1, check.__name__
        assert sum(map(len, blocks)) == n
        assert [name for name, _ in single] == own
        assert all(econ is scn.econ for _, econ in single)
