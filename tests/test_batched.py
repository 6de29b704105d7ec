"""Bit identity of the batched sweep paths.

Each batched path (a stack of system_knowledge rows, a b grid of
broadening allocations, a theta grid of optima, accounts on an allocation
whose specialist layer is already summarized) must give every point the
bits of the per-point loop it replaced, or stay within a stated ulp bound. The loops are copied here, so that
a change to the engine cannot move both sides at once.
"""

import math

import numpy as np
import pytest

from specint.errors import InfeasibleAllocationError
from specint.knowledge import fragmentation, system_knowledge
from specint.learning import max_scale, max_scale_batch
from specint.production import (
    Allocation,
    SpecialistDesign,
    accounts,
    corner_design,
    productive_optimum,
    single_atom,
)
from specint.reforms import broadening_allocation, theta_statics
from specint.welfare import total_welfare

from conftest import interior_simplex, make_economy

FAMILIES = ("rational", "exponential")


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


def _knowledge_one(s, u, p):
    """The 1-d system_knowledge, one profile at a time."""
    v = np.clip(np.asarray(s, dtype=float), 0.0, None)
    mass = float(v.sum())
    if mass == 0.0:
        return 0.0
    return mass**p * float(np.minimum(v / mass, u).sum())


def _minimal_one(design, econ, scales):
    """minimal_allocation given scales, with its own frontier solve."""
    x = design.mean()
    z = design.gap_bundle(x)
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
    """The per-share broadening allocation, solving its own frontiers."""
    q = econ.q
    if b == 0.0:
        return _minimal_one(corner_design(q), econ, max_scale_batch(econ.tech, np.eye(q.size)))
    if b == 1.0:
        return _minimal_one(single_atom(q), econ, max_scale_batch(econ.tech, q[None, :]))
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


def _same_accounts(a, b):
    return (
        np.array_equal(a.gaps.G, b.gaps.G)
        and a.gaps.g == b.gaps.g
        and (a.gaps.h is None) == (b.gaps.h is None)
        and (a.gaps.h is None or np.array_equal(a.gaps.h, b.gaps.h))
        and (a.Y, a.B_S, a.B_M) == (b.Y, b.B_S, b.B_M)
    )


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


def test_system_knowledge_stack_on_allocation_profiles():
    for econ in ECONOMIES:
        alloc = broadening_allocation(0.4, econ)
        rows = np.vstack([alloc.layer.profiles, alloc.integrator_profile, np.zeros(econ.K)])
        want = [_knowledge_one(r, econ.u, econ.p) for r in rows]
        assert system_knowledge(rows, econ.u, econ.p).tolist() == want


def test_broadening_grid_matches_per_share_loop():
    rng = np.random.default_rng(7)
    for econ in ECONOMIES:
        grid = np.concatenate([np.linspace(0.0, 1.0, 21), rng.uniform(0.0, 1.0, 4)])
        allocs = broadening_allocation(grid, econ)
        for b, alloc in zip(grid.tolist(), allocs):
            want = _broadening_one(b, econ)
            assert _same_allocation(alloc, want), (econ.K, econ.tech.family, b)
            assert _same_allocation(broadening_allocation(b, econ), want)


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
            B.append(rep.outcome.B_soc)
            W.append(rep.welfare)
            dm.append(D * H / (H + theta * D) ** 2)
        assert report.m.tolist() == m
        assert report.Y.tolist() == Y
        assert report.B_soc.tolist() == B
        # welfare is evaluated at the closed-form Y, which the accounts
        # output of the loop can miss by an ulp
        assert np.all(np.abs(report.welfare - W) <= 4 * np.spacing(np.abs(W)))
        assert report.dm_dtheta.tolist() == dm


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
    with pytest.raises(InfeasibleAllocationError, match="integration capacity"):
        accounts(alloc, dear)
    assert math.isfinite(accounts(alloc, econ).Y)
