import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specint.errors import ConfigError, DomainError, HypothesisError
from specint.knowledge import (
    DiffuseCheck,
    check_diffuse,
    coverage,
    feasible_bundle,
    fragmentation,
    system_knowledge,
)
from specint.learning import LearningTech, max_scale

from conftest import make_economy

U = np.array([0.4, 0.35, 0.25])
vec3 = st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=3, max_size=3).map(np.array)


def test_coverage_examples():
    assert coverage([1, 0, 0], [0.5, 0.3, 0.2]) == pytest.approx(0.5, abs=1e-15)
    a = np.array([0.2, 0.5, 0.1])
    assert coverage(a, a) == pytest.approx(a.sum(), abs=1e-15)


def test_coverage_dimension_mismatch():
    with pytest.raises(DomainError, match="dimension mismatch"):
        coverage([1, 2], [1, 2, 3])


def test_coverage_equal_mass_identity():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        K = int(rng.integers(2, 7))
        mass = float(rng.uniform(0.05, 3.0))
        a = rng.dirichlet(np.ones(K)) * mass
        b = rng.dirichlet(np.ones(K)) * mass
        assert abs(coverage(a, b) - (mass - 0.5 * np.abs(a - b).sum())) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(vec3, vec3)
def test_coverage_symmetry_and_cap(a, b):
    assert coverage(a, b) == coverage(b, a)
    assert coverage(a, b) <= min(a.sum(), b.sum()) + 1e-15
    assert coverage(a + 0.25, b) >= coverage(a, b)


def test_fragmentation_examples():
    assert fragmentation(np.eye(5)[1]) == 0.0
    assert fragmentation(np.full(4, 0.25)) == pytest.approx(0.75, abs=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(200):
        K = int(rng.integers(2, 8))
        pi = rng.dirichlet(np.ones(K))
        assert fragmentation(pi) <= 1.0 - 1.0 / K + 1e-12


def test_system_knowledge_zero_and_corner():
    assert system_knowledge(np.zeros(3), U, 0.25) == 0.0
    assert system_knowledge(np.eye(3)[1], U, 0.25) == pytest.approx(0.35, abs=1e-15)


def test_system_knowledge_below_one_for_feasible(rational):
    rng = np.random.default_rng(2)
    for _ in range(300):
        pi = rng.dirichlet(np.ones(3))
        s = max_scale(rational, pi) * pi
        assert system_knowledge(s, U, 0.25) < 1.0


def test_system_knowledge_scale_monotone(rational):
    pi = np.array([0.2, 0.5, 0.3])
    scale = max_scale(rational, pi)
    vals = [system_knowledge(t * scale * pi, U, 0.6) for t in np.linspace(0.05, 1.0, 9)]
    assert np.all(np.diff(vals) > 0.0)


def test_feasible_bundle(rational):
    rng = np.random.default_rng(13)
    for _ in range(100):
        pi = rng.dirichlet(np.ones(4))
        s = max_scale(rational, pi) * pi
        assert feasible_bundle(s, rational)
        assert not feasible_bundle(1.2 * s, rational)
    assert feasible_bundle(np.zeros(3), rational)
    assert not feasible_bundle(np.ones(3), rational)


def test_civic_params_validation():
    with pytest.raises(ConfigError, match="economy.u"):
        make_economy(u=(0.5, 0.5, 0.0), p=0.2)
    with pytest.raises(ConfigError, match="economy.p"):
        make_economy(u=(0.4, 0.35, 0.25), p=0.0)


def test_economy_checks_profiles_without_rewriting():
    # profiles are normalized once, at load; Economy only checks them
    with pytest.raises(ConfigError, match="economy.q"):
        make_economy(q=(0.6, 0.3, 0.2))
    with pytest.raises(ConfigError, match="economy.u"):
        make_economy(u=(0.4, 0.35, 0.35))
    with pytest.raises(ConfigError, match="economy.q"):
        make_economy(q=(0.7, 0.4, -0.1))
    q = np.array([0.5, 0.3, 0.2 + 1e-12])  # within the 1e-9 simplex slack
    assert make_economy(q=q).q.tobytes() == q.tobytes()


def test_economy_copies_check_the_replaced_field():
    econ = make_economy()
    with pytest.raises(ConfigError, match="^economy.u must be strictly interior$"):
        econ.with_u((0.6, 0.4, 0.0))
    with pytest.raises(ConfigError, match="^productive and civic profiles must share K$"):
        econ.with_u((0.25, 0.25, 0.25, 0.25))
    with pytest.raises(ConfigError, match="^economy.u needs two or more nonnegative entries"):
        econ.with_u((0.4, 0.35, 0.35))
    for theta in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError, match="^economy.theta must be positive$"):
            econ.with_theta(theta)
    copy = econ.with_u((0.3, 0.3, 0.4)).with_theta(0.002)
    assert copy.u.tolist() == [0.3, 0.3, 0.4] and copy.theta == 0.002
    assert copy.tech is econ.tech and copy.q is econ.q and copy.gov is econ.gov
    assert (copy.p, copy.V) == (econ.p, econ.V)
    assert econ.u.tolist() == [0.4, 0.35, 0.25] and econ.theta == 0.001


def test_check_diffuse_uniform(rational):
    K = 3
    res = check_diffuse(np.full(K, 1.0 / K), 0.1, rational)
    # bound = log 2 / (-log(K * ell_inverse(1/K))); ell_inverse(1/3) = 0.2
    expected = np.log(2.0) / (-np.log(3 * 0.2))
    assert res.bound == pytest.approx(expected, abs=1e-12)
    assert res.ok


def test_check_diffuse_concentrated_always_false(rational):
    # u_(1) + u_(2) <= u_(K) makes the bound nonpositive
    res = check_diffuse(np.array([0.7, 0.2, 0.1]), 0.05, rational)
    assert res.bound <= 0.0
    assert not res.ok


def test_check_diffuse_p_above_bound(rational):
    bound = check_diffuse(U, 0.25, rational).bound
    assert not check_diffuse(U, bound * 1.0001, rational).ok


def test_check_diffuse_rejects_two_domains(rational):
    with pytest.raises(HypothesisError, match="only defined for K >= 3"):
        check_diffuse(np.array([0.6, 0.4]), 0.2, rational)


def test_check_diffuse_on_a_cost_within_an_ulp_of_linear():
    # K * ell^{-1}(1/K) rounds to 1 here, so the denominator of the bound
    # rounds to 0; the bound is its limit, +inf or -inf by the sign of
    # log((u_(1)+u_(2))/u_(K)), and 0 where that log is 0
    tech = LearningTech("rational", 1.2380318840613992e-16)
    tech.constants  # a valid technology
    assert 3 * tech.ell_inverse(1.0 / 3) == 1.0
    assert check_diffuse(U, 0.25, tech) == DiffuseCheck(ok=True, bound=math.inf)
    assert check_diffuse(np.array([0.7, 0.2, 0.1]), 0.25, tech) == DiffuseCheck(
        ok=False, bound=-math.inf
    )
    assert check_diffuse(np.array([0.5, 0.25, 0.25]), 0.25, tech) == DiffuseCheck(
        ok=False, bound=0.0
    )


def _diffuse_one(u, p, tech):
    """The diffuseness bound and verdict of one civic profile, in Python
    floats and math.log."""
    s = sorted(u.tolist())
    K = len(s)
    denom = max(-math.log(K * tech.ell_inverse(1.0 / K)), math.ulp(0.0))
    bound = math.log((s[0] + s[1]) / s[-1]) / denom
    return 0.0 < p < bound, bound


@pytest.mark.parametrize("family", ["rational", "exponential"])
def test_stacked_check_diffuse_rows_match_their_one_row_calls(family):
    # per-row p and param over one family; a near-linear cost, whose bound
    # is infinite, and a uniform profile, whose bound is 0, among the rows
    rng = np.random.default_rng(41)
    carrier = LearningTech(family, 1.0)
    for K in (3, 4, 5, 8):
        U = rng.dirichlet(np.full(K, 0.8), size=30) * 0.9 + 0.1 / K
        U /= U.sum(axis=1, keepdims=True)
        U[4] = 1.0 / K
        p = rng.uniform(0.0, 1.2, size=30)
        param = rng.uniform(0.05, 5.0, size=30)
        param[7] = 1.2380318840613992e-16
        got = check_diffuse(U, p, carrier, param)
        assert got.ok.dtype == bool and got.bound.shape == (30,)
        want = [_diffuse_one(u, x, LearningTech(family, float(c))) for u, x, c in zip(U, p, param)]
        assert got.ok.tolist() == [ok for ok, _ in want], K
        assert got.bound.tobytes() == np.array([b for _, b in want]).tobytes(), K
        for i in (0, 4, 7):
            tech = LearningTech(family, float(param[i]))
            assert check_diffuse(U[i], float(p[i]), tech) == DiffuseCheck(*want[i])
    with pytest.raises(HypothesisError):
        check_diffuse(np.full((3, 2), 0.5), np.full(3, 0.2), carrier, np.ones(3))
