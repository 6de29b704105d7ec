import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specint import learning
from specint.errors import ConfigError, DomainError, OracleError
from specint.learning import (
    LearningTech,
    constants,
    gamma_index,
    gamma_index_batch,
    max_scale,
    max_scale_batch,
)
from specint.oracles import frontier_bisection

from conftest import make_economy

simplex3 = st.lists(
    st.floats(min_value=1e-3, max_value=1.0), min_size=3, max_size=3
).map(lambda v: np.array(v) / np.sum(v))


def test_cost_normalization(rational, exponential):
    for tech in (rational, exponential):
        assert tech.ell(0.0) == 0.0
        assert tech.ell(1.0) == 1.0


def test_rational_midpoint(rational):
    # (1+c)s/(1+cs) at c=1, s=0.5 is 2*0.5/1.5
    assert rational.ell(0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_cost_monotone_and_concave(rational, exponential):
    s = np.linspace(0.0, 1.0, 257)
    for tech in (rational, exponential):
        vals = tech.ell(s)
        assert np.all(np.diff(vals) > 0.0)
        assert np.all(np.diff(vals, 2) < 0.0)
        assert tech.ell_prime(1.0) > 0.0
        assert np.isfinite(tech.ell_prime(0.0))


def test_cost_is_the_formula_outside_the_unit_interval(rational):
    # ell checks no domain; every engine caller keeps mastery in [0,1]
    assert rational.ell(1.1) == pytest.approx(2.0 * 1.1 / 2.1, abs=1e-15)
    assert rational.ell(-0.2) == pytest.approx(2.0 * -0.2 / 0.8, abs=1e-15)


def test_inverse_endpoints_and_midpoint(rational):
    assert rational.ell_inverse(0.0) == 0.0
    assert rational.ell_inverse(1.0) == 1.0
    assert rational.ell_inverse(2.0 / 3.0) == pytest.approx(0.5, abs=1e-12)


def test_inverse_roundtrip(rational, exponential):
    for tech in (rational, exponential, LearningTech(family="exponential", param=1e-6)):
        for y in np.linspace(0.01, 0.99, 17):
            s = tech.ell_inverse(float(y))
            assert abs(tech.ell(s) - y) <= 1e-12


def test_frontier_corner_is_exactly_one(rational, exponential):
    for tech in (rational, exponential):
        for k in range(3):
            assert max_scale(tech, np.eye(3)[k]) == 1.0


def test_frontier_even_split(rational):
    # 2*ell(H/2) = 1 solves to H = 2/3 for the rational family at c=1
    assert max_scale(rational, np.array([0.5, 0.5])) == pytest.approx(2 / 3, abs=1e-12)


def test_frontier_residual_and_bounds(rational, exponential):
    rng = np.random.default_rng(11)
    for tech in (rational, exponential):
        bar = tech.ell_bar
        for _ in range(200):
            K = int(rng.integers(2, 6))
            pi = rng.dirichlet(np.ones(K))
            H = max_scale(tech, pi)
            assert 1.0 / bar - 1e-12 <= H <= 1.0
            assert abs(tech.ell(H * pi).sum() - 1.0) <= 1e-12


def _near_corner_rows(K, deltas):
    rows = np.empty((len(deltas), K))
    for row, d in zip(rows, deltas):
        row[:] = d / (K - 1)
        row[0] = 1.0 - d
    return rows


@pytest.mark.parametrize("K", [2, 3, 6])
@pytest.mark.parametrize("param", [1e-4, 0.01, 1.0, 50.0, 1e3])
@pytest.mark.parametrize("family", ["rational", "exponential"])
def test_frontier_matches_reference_bisection(family, param, K):
    tech = LearningTech(family=family, param=param)
    rng = np.random.default_rng(3)
    # rows within 1e-13 of a corner snap to exactly 1.0 in both solvers
    P = np.vstack([
        rng.dirichlet(np.ones(K), size=200),
        _near_corner_rows(K, [1e-3, 1e-6, 1e-13]),
        np.eye(K),
    ])
    H = max_scale_batch(tech, P)
    assert np.abs(H - frontier_bisection(tech, P)).max() <= 1e-12
    # Closer to a corner a steep exponential cost makes f'(H) ~ param*delta
    # tiny, so H is ill-conditioned and only the residual is certified.
    P = np.vstack([P, _near_corner_rows(K, [1e-9, 1e-11])])
    H = max_scale_batch(tech, P)
    interior = P.max(axis=1) <= 1.0 - 1e-12
    residual = np.abs(tech.ell(H[:, None] * P).sum(axis=1) - 1.0)
    assert residual[interior].max() <= 1e-12


@pytest.mark.parametrize("K", [2, 3, 5])
@pytest.mark.parametrize("param", [1e-4, 1.0, 50.0])
@pytest.mark.parametrize("family", ["rational", "exponential"])
def test_frontier_row_independent_of_batch(family, param, K):
    # the batched oracle checks take each row's H from a batch of mixed rows
    tech = LearningTech(family=family, param=param)
    rng = np.random.default_rng(8)
    P = np.vstack([
        rng.dirichlet(np.ones(K), size=200),
        _near_corner_rows(K, [1e-6, 1e-13]),
    ])
    H = max_scale_batch(tech, P)
    order = rng.permutation(P.shape[0])
    shuffled = np.empty_like(H)
    shuffled[order] = max_scale_batch(tech, P[order])
    for i, row in enumerate(P):
        one = max_scale_batch(tech, row[None, :])[0]
        assert H[i] == shuffled[i] == one, (i, H[i], shuffled[i], one)


def _ell_prime_array(tech, S):
    """ell'(S) elementwise in numpy's array kernels."""
    c = tech.param
    if tech.family == "rational":
        return (1.0 + c) / (1.0 + c * S) ** 2
    return c * np.exp(-c * S) / -math.expm1(-c)


def _frontier_two_pass(tech, P):
    # the Newton loop written with the public cost formula and the slope's,
    # one full (N,K) array per term: the reference the fused terms must
    # reproduce
    t = np.full(P.shape[0], 1.0 / tech.ell_bar)
    for _ in range(learning.NEWTON_MAX_ITER):
        S = t[:, None] * P
        f = tech.ell(S).sum(axis=1) - 1.0
        step = -f / (P * _ell_prime_array(tech, S)).sum(axis=1)
        moving = step > 4.0 * np.finfo(float).eps * t
        if not moving.any():
            break
        t += np.where(moving, step, 0.0)
    corner = P.max(axis=1) > 1.0 - 1e-12
    return np.where(corner, 1.0, np.minimum(t, 1.0))


@pytest.mark.parametrize("K", [2, 3, 4, 5])
@pytest.mark.parametrize("param", [1e-6, 0.05, 1.0, 30.0, 500.0])
@pytest.mark.parametrize("family", ["rational", "exponential"])
def test_frontier_terms_match_two_pass_reference(family, param, K):
    tech = LearningTech(family=family, param=param)
    rng = np.random.default_rng(12)
    P = np.vstack([
        rng.dirichlet(np.full(K, 0.3), size=100),
        rng.dirichlet(np.ones(K), size=100),
        _near_corner_rows(K, [1e-3, 1e-6, 1e-9, 1e-11, 1e-13, 1e-15]),
        np.eye(K),
    ])
    assert np.array_equal(max_scale_batch(tech, P), _frontier_two_pass(tech, P))


@pytest.mark.parametrize("family", ["rational", "exponential"])
def test_frontier_batch_peak_memory(family):
    # the solve holds at most a few (N,K) arrays at once
    tech = LearningTech(family=family, param=2.0)
    P = np.random.default_rng(6).dirichlet(np.ones(4), size=200_000)
    max_scale_batch(tech, P[:10])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        max_scale_batch(tech, P)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * P.nbytes


def test_frontier_solver_raises_past_cap_or_certificate(rational, monkeypatch):
    P = np.random.default_rng(4).dirichlet(np.ones(3), size=20)
    monkeypatch.setattr(learning, "NEWTON_MAX_ITER", 1)
    with pytest.raises(OracleError, match="frontier Newton solve did not converge"):
        max_scale_batch(rational, P)
    monkeypatch.undo()
    monkeypatch.setattr(learning, "FRONTIER_RESIDUAL", 0.0)
    with pytest.raises(OracleError, match="frontier residual too large"):
        max_scale_batch(rational, P)


@settings(max_examples=200, deadline=None)
@given(simplex3, simplex3)
def test_frontier_lipschitz_property(a, b):
    tech = LearningTech(family="rational", param=1.0)
    bound = tech.ell_bar / tech.ell_under * np.abs(a - b).sum()
    assert abs(max_scale(tech, a) - max_scale(tech, b)) <= bound + 1e-12


def test_lambda_examples(rational):
    # the relative inefficiency lambda = 1/H: exactly 1 at a corner
    assert 1.0 / max_scale(rational, np.eye(4)[2]) == 1.0
    assert 1.0 / max_scale(rational, np.array([0.5, 0.5])) == pytest.approx(1.5, abs=1e-11)


def test_lambda_concavity_gap(rational, exponential):
    rng = np.random.default_rng(5)
    for tech in (rational, exponential):
        c_ell = constants(tech).c_ell
        for _ in range(300):
            K = int(rng.integers(2, 6))
            pi = rng.dirichlet(np.ones(K))
            D = 1.0 - float(pi @ pi)
            assert 1.0 / max_scale(tech, pi) - 1.0 >= c_ell * D - 1e-10


def test_gamma_zero_and_ray(rational):
    assert gamma_index(rational, np.zeros(3)) == 0.0
    assert gamma_index(rational, 0.37 * np.eye(3)[1]) == pytest.approx(0.37, abs=1e-14)


def test_gamma_index_is_a_row_of_the_batch(rational, exponential):
    # one Gamma formula: the scalar index is its one-row batch call, bit for bit
    rng = np.random.default_rng(11)
    for tech in (rational, exponential):
        Z = rng.uniform(0.0, 1.0, size=(40, 4))
        Z[3] = 0.0
        Z[5, :3] = 0.0
        Z[7, 1] = -1e-13  # round-off below 0 counts as 0
        for z, row in zip(Z, gamma_index_batch(tech, Z)):
            assert gamma_index(tech, z) == row
    for bad in (np.array([0.2, -1e-6, 0.3]), np.array([-0.5, 0.5])):
        with pytest.raises(DomainError, match="gap bundle must be componentwise nonnegative"):
            gamma_index(rational, bad)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3),
)
def test_gamma_lipschitz_property(z1, z2):
    tech = LearningTech(family="rational", param=1.0)
    L = constants(tech).L_Gamma
    z1, z2 = np.array(z1), np.array(z2)
    gap = abs(gamma_index(tech, z1) - gamma_index(tech, z2))
    assert gap <= L * np.abs(z1 - z2).sum() + 1e-12


def test_constants_rational_unit():
    tech = LearningTech(family="rational", param=1.0)
    cs = constants(tech)
    # ell'(s) = (1+c)/(1+cs)^2 at 0 and 1
    assert tech.ell_bar == pytest.approx(2.0, abs=1e-15)
    assert tech.ell_under == pytest.approx(0.5, abs=1e-15)
    # phi(s) = 1/(1+s) for this family, with infimum 1 - ell'(1) at s=1
    assert cs.c_ell == 0.5
    # L = ell_bar + 2*ell_bar^3/ell_under = 2 + 2*8/0.5
    assert cs.L_Gamma == pytest.approx(34.0, abs=1e-12)
    assert cs.theta_bar == pytest.approx(1.0 / 68.0, abs=1e-12)


@pytest.mark.parametrize("family, top", [("rational", 1e6), ("exponential", 600.0)])
def test_concavity_gap_closed_form_is_sampled_infimum(family, top):
    # c_ell is the infimum of phi(s) = (ell(s)-s)/(s(1-s)) over (0,1):
    # no interior sample may fall below it beyond round-off in ell(s) - s
    s = np.linspace(0.0, 1.0, 100_001)[1:-1]
    for param in np.geomspace(1e-2, top, 50):
        tech = LearningTech(family=family, param=float(param))
        phi = (tech.ell(s) - s) / (s * (1.0 - s))
        c_ell = constants(tech).c_ell
        assert phi.min() >= c_ell * (1.0 - 1e-7), (param, phi.min(), c_ell)


def test_constants_positive_for_both_families(exponential):
    cs = constants(exponential)
    assert cs.c_ell > 0.0
    assert cs.theta_bar > 0.0
    assert exponential.ell_under <= exponential.ell_bar


def test_constants_computed_once_per_tech(monkeypatch):
    # Economy copies share their LearningTech, and with it its constants
    calls = []
    assemble = learning.constants

    def counted(tech):
        calls.append(tech)
        return assemble(tech)

    monkeypatch.setattr(learning, "constants", counted)
    econ = make_economy(param=1.25)
    hot = econ.with_theta(0.5 * econ.theta_bar)
    for copy in (hot, econ.with_u((0.2, 0.3, 0.5)), hot.with_u((0.3, 0.3, 0.4))):
        assert copy.constants is econ.constants
    assert len(calls) == 1


def test_bad_family_rejected():
    with pytest.raises(ConfigError):
        LearningTech(family="linear", param=1.0)
    with pytest.raises(ConfigError):
        LearningTech(family="rational", param=-1.0)
