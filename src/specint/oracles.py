"""The verification suite behind `specint verify`.

Every check re-derives a closed form from an independent direction
(brute-force enumeration, finite differences, random sampling against
bounds) and reports a worst-case metric against its tolerance. Checks
whose hypotheses fail on the loaded scenario report "skipped" with the
failing hypothesis named. Strict mode tightens the tolerances of checks
that are limited by round-off rather than by method error.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import competitive, learning, production, reforms
from .economy import Economy
from .errors import HypothesisError, OracleError
from .knowledge import check_diffuse, coverage, fragmentation, system_knowledge
from .learning import gamma_index, max_scale, max_scale_batch
from .politics import (
    best_response_fixed_point,
    equilibrium_from_groups,
    group_knowledge,
    kkt_residuals,
    political_equilibrium,
    vote_share_slope,
)
from .production import (
    SpecialistDesign,
    _minimal_allocations,
    accounts,
    brute_force_design,
    corner_design,
    cornerized,
    productive_optimum,
    simplex_grid,
)
from .scenario import Scenario
from .welfare import decompose_along, dispersion, service_welfare, total_welfare


_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    metric: float | None
    tolerance: float | None
    note: str = ""


def _result(name, metric, tolerance, note=""):
    status = "pass" if metric <= tolerance else "fail"
    return CheckResult(name, status, float(metric), float(tolerance), note)


def _interior_simplex(rng, K):
    raw = rng.dirichlet(np.ones(K))
    mixed = 0.85 * raw + 0.15 / K
    return mixed / mixed.sum()


def _random_tech(rng) -> learning.LearningTech:
    family = "rational" if rng.random() < 0.5 else "exponential"
    return learning.LearningTech(family=family, param=float(rng.uniform(0.6, 3.0)))


def _random_economy(rng, base: Economy, K: int | None = None) -> Economy:
    k = K if K is not None else int(rng.integers(3, 6))
    tech = _random_tech(rng)
    q = _interior_simplex(rng, k)
    if rng.random() < 0.4:
        # concentrated civic profile: exercises the B_M < B_S branch
        u = rng.dirichlet(np.full(k, 0.4)) * 0.9 + 0.1 / k
        u = u / u.sum()
    else:
        u = _interior_simplex(rng, k)
    p = float(rng.uniform(0.05, 0.9))
    theta_frac = float(rng.uniform(0.05, 0.9))
    return Economy(
        tech=tech, q=q, u=u, p=p,
        theta=theta_frac * tech.constants.theta_bar, V=base.V, gov=base.gov,
    )


DIFFUSE_BLOCK = 512
DIFFUSE_DRAW_BUDGET = 500


def _diffuse_economies(rng, base: Economy, n: int) -> list[Economy]:
    """n random economies (K 3..5) that pass check_diffuse, by rejection.

    Candidates come in blocks of DIFFUSE_BLOCK: K, family, learning.param,
    the concentrated-u flag and p as vectors, then u by one dirichlet call
    per (K, flag) group, with the formulas of _random_economy. Each
    candidate is tested in order with the engine's check_diffuse, and only
    an accepted one draws its q and theta_frac and becomes an Economy.

    The accepted law is that of _random_economy conditioned on the test.
    Candidates are i.i.d., each (K, tech, u, p) with the law _random_economy
    gives it, and the test sees all of these, so every accepted candidate
    is one draw from that law conditioned on acceptance.
    q and theta_frac do not enter the test and are independent of it, so
    drawing them after acceptance leaves their law unchanged. Drawing p
    from U(0.05, min(0.9, bound)) instead would not: it drops the weight
    P(p < bound) that rejection puts on each (K, tech, u).

    DIFFUSE_DRAW_BUDGET rejections in a row raise OracleError.
    """
    out: list[Economy] = []
    misses = 0
    while len(out) < n:
        K = rng.integers(3, 6, size=DIFFUSE_BLOCK)
        rational = rng.random(DIFFUSE_BLOCK) < 0.5
        param = rng.uniform(0.6, 3.0, size=DIFFUSE_BLOCK)
        concentrated = rng.random(DIFFUSE_BLOCK) < 0.4
        p = rng.uniform(0.05, 0.9, size=DIFFUSE_BLOCK)
        u = [None] * DIFFUSE_BLOCK
        for k in (3, 4, 5):
            for flag in (False, True):
                index = np.flatnonzero((K == k) & (concentrated == flag))
                if flag:
                    raw = rng.dirichlet(np.full(k, 0.4), size=index.size) * 0.9 + 0.1 / k
                else:
                    raw = 0.85 * rng.dirichlet(np.ones(k), size=index.size) + 0.15 / k
                for i, row in zip(index, raw / raw.sum(axis=1, keepdims=True)):
                    u[i] = row
        for i in range(DIFFUSE_BLOCK):
            family = "rational" if rational[i] else "exponential"
            tech = learning.LearningTech(family=family, param=float(param[i]))
            if not check_diffuse(u[i], float(p[i]), tech).ok:
                misses += 1
                if misses >= DIFFUSE_DRAW_BUDGET:
                    raise OracleError("diffuse economy sampler exhausted its draw budget")
                continue
            misses = 0
            q = _interior_simplex(rng, int(K[i]))
            theta_frac = float(rng.uniform(0.05, 0.9))
            out.append(Economy(
                tech=tech, q=q, u=u[i], p=float(p[i]),
                theta=theta_frac * tech.constants.theta_bar, V=base.V, gov=base.gov,
            ))
            if len(out) == n:
                break
    return out


def _by_size(batch, tech: learning.LearningTech, rows: list[np.ndarray]) -> list[float]:
    """batch(tech, rows) for rows of mixed length K, in row order.

    One batch call per K. A row's frontier Newton solve does not depend on
    the other rows of its batch, so each value is the one a one-row call
    returns.
    """
    out = [0.0] * len(rows)
    by_size: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_size.setdefault(row.size, []).append(i)
    for index in by_size.values():
        values = batch(tech, np.vstack([rows[i] for i in index]))
        for i, v in zip(index, values.tolist()):
            out[i] = v
    return out


def _random_design(rng, K: int, n_atoms: int) -> SpecialistDesign:
    dirs = np.vstack([_interior_simplex(rng, K) for _ in range(n_atoms)])
    w = rng.dirichlet(np.ones(n_atoms))
    return SpecialistDesign(directions=dirs, weights=w)


# ---------------------------------------------------------------------------
# individual checks


def check_coverage_identity(scn: Scenario, rng, tol_scale) -> CheckResult:
    worst = 0.0
    for _ in range(scn.pairs):
        K = int(rng.integers(2, 7))
        mass = float(rng.uniform(0.1, 2.0))
        a = rng.dirichlet(np.ones(K)) * mass
        b = rng.dirichlet(np.ones(K)) * mass
        worst = max(worst, abs(coverage(a, b) - (mass - 0.5 * np.abs(a - b).sum())))
    return _result("coverage-distance-identity", worst, 1e-12 * tol_scale)


def check_coverage_properties(scn: Scenario, rng, tol_scale) -> CheckResult:
    worst = 0.0
    econ = scn.econ
    for _ in range(200):
        K = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 1.0, K)
        b = rng.uniform(0.0, 1.0, K)
        worst = max(worst, abs(coverage(a, b) - coverage(b, a)))
        cap = min(a.sum(), b.sum())
        worst = max(worst, max(0.0, coverage(a, b) - cap))
        worst = max(worst, max(0.0, coverage(a, b) - coverage(a + 0.1, b)))
    # scale monotonicity of system knowledge along a fixed direction
    directions = [_interior_simplex(rng, econ.K) for _ in range(100)]
    for pi, scale in zip(directions, _by_size(learning.max_scale_batch, econ.tech, directions)):
        ts = np.linspace(0.1, 1.0, 7)
        vals = [system_knowledge(t * scale * pi, econ.u, econ.p) for t in ts]
        worst = max(worst, max(0.0, -min(np.diff(vals))))
    return _result("coverage-and-knowledge-properties", worst, 1e-12 * tol_scale)


def frontier_bisection(tech: learning.LearningTech, P: np.ndarray) -> np.ndarray:
    """Reference frontier H() of each row of P: 90 bisection steps on
    [1/ell_bar - 1e-9, 1 + 1e-9], independent of the Newton solver."""
    lo = np.full(P.shape[0], 1.0 / tech.ell_bar - 1e-9)
    hi = np.full(P.shape[0], 1.0 + 1e-9)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        over = tech._ell_raw(mid[:, None] * P).sum(axis=1) > 1.0
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    h = np.minimum(0.5 * (lo + hi), 1.0)
    return np.where(P.max(axis=1) > 1.0 - 1e-12, 1.0, h)


def check_frontier_bounds(scn: Scenario, rng, tol_scale) -> CheckResult:
    tech = scn.econ.tech
    bar = tech.ell_bar
    worst = 0.0
    for K in (2, 3, 5):
        n = scn.frontier_samples // 3
        P = rng.dirichlet(np.ones(K), size=n)
        H = max_scale_batch(tech, P)
        worst = max(worst, float((1.0 / bar - H).max()), float((H - 1.0).max()))
        worst = max(worst, float(np.abs(H - frontier_bisection(tech, P)).max()))
        interior = P.max(axis=1) <= 1.0 - 1e-9
        if np.any(H[interior] >= 1.0):
            worst = max(worst, 1.0)
        worst = max(worst, abs(max_scale(tech, np.eye(K)[0]) - 1.0))
    return _result("frontier-bounds", worst, 1e-10 * tol_scale)


def check_frontier_lipschitz(scn: Scenario, rng, tol_scale) -> CheckResult:
    tech = scn.econ.tech
    mod = tech.ell_bar / tech.ell_under
    rows = []
    for _ in range(scn.pairs):
        K = int(rng.integers(2, 6))
        rows += [rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K))]
    H = _by_size(learning.max_scale_batch, tech, rows)
    worst = 0.0
    for i in range(0, len(rows), 2):
        gap = abs(H[i] - H[i + 1])
        worst = max(worst, gap - mod * np.abs(rows[i] - rows[i + 1]).sum())
    return _result("frontier-lipschitz", worst, 1e-10 * tol_scale)


def check_concavity_gap(scn: Scenario, rng, tol_scale) -> CheckResult:
    tech = scn.econ.tech
    c_ell = scn.econ.constants.c_ell
    rows = [rng.dirichlet(np.ones(int(rng.integers(2, 6)))) for _ in range(1000)]
    worst = 0.0
    for pi, H in zip(rows, _by_size(learning.max_scale_batch, tech, rows)):
        worst = max(worst, c_ell * fragmentation(pi) - (1.0 / H - 1.0))
    return _result("concavity-gap", worst, 1e-10 * tol_scale)


def check_gamma_lipschitz(scn: Scenario, rng, tol_scale) -> CheckResult:
    tech = scn.econ.tech
    L = scn.econ.constants.L_Gamma
    rows = []
    for _ in range(scn.pairs):
        K = int(rng.integers(2, 6))
        z1 = rng.uniform(0.0, 1.0, K)
        z2 = rng.uniform(0.0, 1.0, K) if rng.random() < 0.9 else np.zeros(K)
        rows += [z1, z2]
    G = _by_size(learning.gamma_index_batch, tech, rows)
    worst = 0.0
    for i in range(0, len(rows), 2):
        gap = abs(G[i] - G[i + 1])
        worst = max(worst, gap - L * np.abs(rows[i] - rows[i + 1]).sum())
    return _result("gamma-lipschitz", worst, 1e-10 * tol_scale)


def check_integrator_capacity(scn: Scenario, rng, tol_scale) -> CheckResult:
    tech = scn.econ.tech
    draws = []
    for i in range(scn.pairs):
        K = int(rng.integers(2, 6))
        h = _interior_simplex(rng, K)
        if i % 5 == 0:
            draws.append((h, None, 0.0))
        else:
            pi = _interior_simplex(rng, K)
            draws.append((h, pi, float(rng.uniform(0.2, 1.0))))
    rows = [v for h, pi, _ in draws for v in (h, pi) if v is not None]
    H = iter(_by_size(learning.max_scale_batch, tech, rows))
    worst = 0.0
    for h, pi, frac in draws:
        Hh = next(H)
        s = Hh * h if pi is None else frac * next(H) * pi
        J = production.integrator_capacity(s, h)
        worst = max(worst, J - Hh)
        if abs(J - Hh) <= 1e-8 and np.abs(s - Hh * h).max() > 1e-6:
            worst = max(worst, 1.0)
    return _result("integrator-capacity-bound", worst, 1e-10 * tol_scale)


def check_optimum_identities(scn: Scenario, rng, tol_scale) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        econ = _random_economy(rng, scn.econ, K=int(rng.integers(2, 6)))
        opt, alloc = productive_optimum(econ)
        acc = accounts(alloc, econ)
        D = fragmentation(econ.q)
        worst = max(
            worst,
            float(np.abs(opt.h_star - econ.q * (1.0 - econ.q) / D).max()),
            abs(opt.m_star - econ.theta * D / (opt.H_hstar + econ.theta * D)),
            abs(opt.Y_star - econ.V * opt.H_hstar / (opt.H_hstar + econ.theta * D)),
            abs(acc.Y - opt.Y_star),
            abs(alloc.m * opt.H_hstar - econ.theta * acc.gaps.g),
        )
        if opt.m_star >= 1.0 / 3.0:
            worst = max(worst, 1.0)
    return _result("productive-optimum-identities", worst, 1e-10 * tol_scale)


def check_gap_accounting(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    # a corner design's atoms are the rows of eye(K): one frontier solve per K
    scales = {K: max_scale_batch(econ.tech, np.eye(K)) for K in range(2, 6)}
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(2, 6))
        x = _interior_simplex(rng, K)
        tmp = Economy(
            tech=econ.tech, q=x, u=np.full(K, 1.0 / K), p=econ.p,
            theta=econ.theta, V=econ.V, gov=econ.gov,
        )
        alloc = _minimal_allocations([corner_design(x)], tmp, [scales[K]])[0]
        gaps = accounts(alloc, tmp).gaps
        worst = max(
            worst,
            float(np.abs(gaps.G - (1.0 - alloc.m) * x * (1.0 - x)).max()),
            abs(gaps.g - (1.0 - alloc.m) * fragmentation(x)),
        )
    return _result("gap-accounting", worst, 1e-12 * tol_scale)


def check_shattering(scn: Scenario, rng, tol_scale) -> CheckResult:
    worst = 0.0
    for _ in range(300):
        K = int(rng.integers(2, 6))
        design = _random_design(rng, K, int(rng.integers(1, 5)))
        x = design.mean()
        z = design.gap_bundle(x)
        zc = cornerized(design).gap_bundle(x)
        worst = max(worst, float(np.abs(zc - x * (1.0 - x)).max()))
        mean_frag = float(design.weights @ [fragmentation(d) for d in design.directions])
        worst = max(worst, float(np.abs(zc - z).sum()) - mean_frag)
    return _result("shattering-expansion", worst, 1e-12 * tol_scale)


def check_design_oracle(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    res = brute_force_design(
        econ, resolution=scn.resolution, max_atoms=scn.atoms, max_designs=scn.max_designs
    )
    opt, _ = productive_optimum(econ)
    grid = simplex_grid(econ.K, scn.resolution)
    # mixes reachable with the atom budget have at most that many coordinates
    reachable = (grid > 0.0).sum(axis=1) <= scn.atoms
    grid = grid[reachable]
    dists = np.abs(grid - econ.q).sum(axis=1)
    modulus = econ.V * (0.5 + econ.theta * econ.constants.L_Gamma)
    # a corner design can reproduce the winner's mix only when that mix is
    # a grid point with at most `atoms` nonzero coordinates; only then must
    # the winner itself be a corner design
    cells = res.x * scn.resolution
    corner_enumerated = (
        float(np.abs(cells - np.round(cells)).max()) <= 1e-9
        and int(np.count_nonzero(np.round(cells))) <= scn.atoms
    )
    # ties in grid distance are broken by output, so require the winner to
    # sit at minimal distance rather than at one specific tied point
    worst = max(
        res.Y - opt.Y_star - 1e-9,
        (opt.Y_star - res.Y) - modulus * float(dists.min()),
        float(np.abs(res.x - econ.q).sum() - dists.min()),
        1.0 if corner_enumerated and not res.design.is_corner() else 0.0,
    )
    note = (
        f"best grid Y={res.Y:.9g} vs Y*={opt.Y_star:.9g}; "
        f"Lipschitz allowance {modulus * float(dists.min()):.3g}"
    )
    return _result("design-oracle", worst, 1e-9, note)


def check_civic_advantage(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    try:
        own = check_diffuse(econ.u, econ.p, econ.tech)
    except HypothesisError:
        own = None
    if own is None or not own.ok:
        return CheckResult(
            "integrator-civic-advantage", "skipped", None, None,
            "hypothesis not met (diffuseness check fails), skipped",
        )
    worst = -np.inf
    for cand in _diffuse_economies(rng, econ, scn.economies):
        _, alloc = productive_optimum(cand)
        B_S, B_M = group_knowledge(alloc, cand)
        worst = max(worst, B_S - B_M)
    return _result("integrator-civic-advantage", worst, -1e-12)


def check_political_equilibrium(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    _, alloc = productive_optimum(econ)
    out = political_equilibrium(econ, alloc)
    res = max(kkt_residuals(econ, out))
    budget = abs((1.0 - out.m) * out.t_S + out.m * out.t_M - out.R)
    worst = max(res / (1e-9 * tol_scale), budget / (1e-10 * tol_scale))
    for _ in range(scn.br_starts):
        start = (float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 0.95)))
        fp = best_response_fixed_point(start, econ, alloc)
        gap = max(
            abs(fp.e - out.e_pol), abs(fp.z - out.z_pol),
            abs(fp.t_S - out.t_S), abs(fp.t_M - out.t_M),
        )
        worst = max(worst, gap / 1e-6)
    for _ in range(scn.economies):
        cand = _random_economy(rng, econ)
        _, alloc_c = productive_optimum(cand)
        o = political_equilibrium(cand, alloc_c)
        tilt_ok = (o.z_pol > o.m) == (o.B_M > o.B_S)
        worst = max(worst, 0.0 if tilt_ok else 2.0)
    return _result("political-equilibrium", worst, 1.0, "metric is worst ratio to its bound")


def check_vote_share_reciprocity(scn: Scenario, rng, tol_scale) -> CheckResult:
    worst = 0.0
    for _ in range(500):
        beta = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.01, 10.0))
        tb = float(rng.uniform(0.01, 10.0))
        worst = max(
            worst,
            abs(t * vote_share_slope(t, tb, beta) - tb * vote_share_slope(tb, t, beta)),
        )
    return _result("vote-share-reciprocity", worst, 1e-12 * tol_scale)


def check_welfare_representation(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    worst = 0.0
    for i in range(scn.pairs):
        m = float(rng.uniform(0.01, 0.99))
        B_S = float(rng.uniform(0.01, 0.95))
        B_M = B_S if i % 7 == 0 else float(rng.uniform(0.01, 0.95))
        Y = float(rng.uniform(0.5, 50.0))
        out = equilibrium_from_groups(econ, Y, m, B_S, B_M)
        v = service_welfare(out, m)
        d = dispersion(B_S, B_M, m)
        worst = max(worst, abs(v - (math.log(out.R) - d)) / (1e-10 * tol_scale))
        worst = max(worst, (-d) / (1e-10 * tol_scale))
        # d = log E[B] - E[log B] is the Jensen gap of log, which lies
        # between k/max(B)^2 and k/min(B)^2 with k = Var(B)/2; the slack
        # covers round-off in the three logs that d is assembled from
        k = m * (1.0 - m) * (B_M - B_S) ** 2 / 2.0
        logs = abs(math.log(out.B_soc)) + abs(math.log(B_S)) + abs(math.log(B_M))
        slack = 4.0 * _EPS * logs
        outside = max(k / max(B_S, B_M) ** 2 - d, d - k / min(B_S, B_M) ** 2)
        worst = max(worst, outside / slack)
    return _result("welfare-representation", worst, 1.0, "metric is worst ratio to its bound")


def check_decomposition(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    worst = 0.0
    bfam = reforms.broadening_family(econ)
    for b in (0.0, 0.3, 0.7):
        worst = max(worst, decompose_along(bfam, b).residual)
    ifam = reforms.interface_family(econ)
    for a in (0.0, 0.5, 1.0):
        worst = max(worst, decompose_along(ifam, a).residual)
    return _result("decomposition-residual", worst, 1e-4)


def check_broadening(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    slope = reforms.broadening_derivative(econ)
    fd = decompose_along(reforms.broadening_family(econ), 0.0).dB_soc
    worst = abs(fd - slope.value) / 1e-6
    note = f"regime={slope.regime}"
    if slope.regime == "cutoff":
        located = reforms.bisect_broadening_cutoff(econ)
        worst = max(worst, abs(located - slope.cutoff) / 1e-6)
        note += f"; cutoff={slope.cutoff:.6g} located={located:.6g}"
        if slope.cutoff > econ.theta_bar:
            note += " (above the primitive cutoff)"
    anchor0 = reforms.broadening_allocation(0.0, econ)
    _, opt_alloc = productive_optimum(econ)
    anchor_gap = max(
        abs(anchor0.m - opt_alloc.m),
        float(np.abs(anchor0.design.mean() - econ.q).max()),
    )
    worst = max(worst, anchor_gap / 1e-10)
    worst = max(worst, abs(reforms.broadening_allocation(1.0, econ).m) / 1e-12)
    return _result("broadening-slope-and-cutoff", worst, 1.0, note)


def check_interface_statics(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    B_S_slope, B_M_slope = reforms.interface_closed_slopes(econ)
    if reforms.interface_flat(B_S_slope, B_M_slope):
        return CheckResult(
            "interface-statics", "skipped", None, None,
            "hypothesis not met (q uniform, both interface curves flat), skipped",
        )
    fam = reforms.interface_family(econ)
    h = 1e-6
    worst = 0.0
    for a in (0.25, 0.75):
        (bs0, bm0), (bs1, bm1) = [
            group_knowledge(alloc, econ_a) for econ_a, alloc in (fam(a - h), fam(a + h))
        ]
        worst = max(
            worst,
            abs((bs1 - bs0) / (2 * h) - B_S_slope) / 1e-8,
            abs((bm1 - bm0) / (2 * h) - B_M_slope) / 1e-8,
        )
    if B_S_slope > 0.0 or B_M_slope < 0.0:
        worst = max(worst, 2.0)
    theta_small = reforms.interface_threshold(econ, scn.alpha_grid)
    if not theta_small > 0.0:
        worst = max(worst, 2.0)
    note = f"theta_small={theta_small:.6g}"
    return _result("interface-statics", worst, 1.0, note)


def check_theta_statics(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    report = reforms.theta_statics(econ, scn.theta_grid())
    # the closed-form rows against a fresh optimum and its full welfare
    # accounts (budget and capacity checks included) at every theta
    worst = 0.0
    for i, theta in enumerate(report.theta_grid.tolist()):
        econ_t = econ.with_theta(theta)
        opt, alloc = productive_optimum(econ_t)
        rep = total_welfare(econ_t, alloc)
        same = (opt.m_star, opt.Y_star, rep.outcome.B_soc) == (
            report.m[i], report.Y[i], report.B_soc[i]
        )
        worst = max(
            worst,
            0.0 if same else 2.0,
            abs(rep.welfare - report.welfare[i]) / (1e-12 * (1.0 + abs(rep.welfare))),
        )
    # B_S and B_M are constant in theta at the optimum, so B_soc moves with
    # m in the direction of B_M - B_S
    strictness = min(
        float(np.diff(report.m).min()),
        float(-np.diff(report.Y).max()),
        float((np.sign(rep.outcome.B_M - rep.outcome.B_S) * np.diff(report.B_soc)).min()),
    )
    if strictness <= 1e-12:
        worst = max(worst, 2.0)
    # the dm/dtheta column the engine emits, against central differences
    h = 1e-6 * econ.theta_bar
    for i in range(1, report.theta_grid.size - 1, 7):
        theta = report.theta_grid[i]
        if theta - h <= 0.0 or theta + h >= econ.theta_bar:
            continue  # the optimum, and so m_star, lives on (0, theta_bar)
        fd = (
            productive_optimum(econ.with_theta(theta + h))[0].m_star
            - productive_optimum(econ.with_theta(theta - h))[0].m_star
        ) / (2.0 * h)
        worst = max(worst, abs(fd - report.dm_dtheta[i]) / 1e-8)
    note = "welfare monotone on grid" if report.welfare_monotone else "welfare non-monotone on grid"
    return _result("theta-statics", worst, 1.0, note)


def check_dispersion_order(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    thetas = np.geomspace(1e-3, 0.9, 10) * econ.theta_bar
    ratios = []
    for theta in thetas:
        econ_t = econ.with_theta(float(theta))
        bs_slope, bm_slope = reforms.interface_closed_slopes(econ_t)
        fam = reforms.interface_family(econ_t)
        worst_d = 0.0
        for a in np.linspace(0.0, 1.0, 9):
            econ_a, alloc = fam(float(a))
            B_S, B_M = group_knowledge(alloc, econ_a)
            worst_d = max(
                worst_d,
                abs(reforms.dispersion_slope(B_S, B_M, bs_slope, bm_slope, alloc.m)),
            )
        ratios.append(worst_d / alloc.m)
    ratios = np.array(ratios)
    fitted = 1.5 * float(ratios[5:].max())
    worst = float(ratios[:5].max()) - fitted
    return _result(
        "dispersion-slope-order", worst, 0.0,
        "bound fitted on large-theta half, checked on small-theta half",
    )


def check_wage_support(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    try:
        wages = competitive.support_wages(econ)
    except HypothesisError as exc:
        return CheckResult(
            "wage-support", "skipped", None, None,
            f"hypothesis not met ({exc}), skipped",
        )
    tol = 1e-10 * tol_scale
    worst = max(
        abs(wages.w_S - wages.w_M - wages.delta_q),
        abs(wages.w_S + wages.beta * wages.w_M - wages.V_tilde),
    )
    # zero profit recomputed through the coordination index route:
    # V_tilde*C - w_S*E - theta*w_M*A with C=1, E=1, A=Gamma(q*(1-q))
    A = gamma_index(econ.tech, econ.q * (1.0 - econ.q))
    zero_profit = wages.V_tilde - wages.w_S - econ.theta * wages.w_M * A
    worst = max(worst, abs(zero_profit))
    r = wages.w_M / wages.w_S
    bound = competitive.ratio_bound(econ)
    if bound.bound_valid and r > wages.r_bar:
        worst = max(worst, r - wages.r_bar)
    if econ.theta * r >= econ.theta_bar:
        worst = max(worst, 1.0)
    nd = competitive.no_deviation_check(
        wages, econ, resolution=scn.resolution, max_atoms=scn.atoms,
        max_designs=scn.max_designs,
    )
    worst = max(worst, max(0.0, -(nd.worst_margin + 1e-9)))
    note = (
        f"worst deviation margin {nd.worst_margin:.3e}; uniqueness cutoffs "
        + ("hold" if bound.unique_ok else "do not hold")
    )
    return _result("wage-support", worst, tol, note)


def check_excess_specialization(scn: Scenario, rng, tol_scale) -> CheckResult:
    # the closed-form W'(0) against the fd slope of welfare, to a bound set by
    # the stencil's method error (so --strict leaves it alone), and the sign
    # flip of the fd slope across eta*
    econ = scn.econ
    slope = reforms.broadening_derivative(econ)

    def fd_slope(eta):
        econ_eta = dataclasses.replace(econ, gov=dataclasses.replace(econ.gov, eta=eta))
        return decompose_along(reforms.broadening_family(econ_eta), 0.0)

    fd = fd_slope(econ.gov.eta)
    scale = 1.0 + abs(fd.productive_term) + abs(fd.governance_term) + abs(fd.targeting_term)
    worst = abs(fd.fd_total - slope.welfare) / (1e-8 * scale)
    eta_star, where = slope.eta_star, "none"
    if eta_star is not None and 0.0 < eta_star * (1.0 + 1e-3) < 1.0:
        below, above = (fd_slope(eta_star * f).fd_total for f in (1.0 - 1e-3, 1.0 + 1e-3))
        # the slope rises with eta when B_soc' > 0 and falls when B_soc' < 0
        flips = below < 0.0 < above if slope.value > 0.0 else above < 0.0 < below
        worst = max(worst, 0.0 if flips else 2.0)
        where = f"{eta_star:.6g} ({'sign flip confirmed' if flips else 'no sign flip'})"
    elif eta_star is not None:
        where = f"{eta_star:.6g} (bracket outside (0,1))"
    note = f"eta*={where}; regime={slope.regime}; W'(0)={slope.welfare:.6g}"
    return _result("excess-specialization", worst, 1.0, note)


CHECKS = (
    check_coverage_identity,
    check_coverage_properties,
    check_frontier_bounds,
    check_frontier_lipschitz,
    check_concavity_gap,
    check_gamma_lipschitz,
    check_integrator_capacity,
    check_optimum_identities,
    check_gap_accounting,
    check_shattering,
    check_design_oracle,
    check_civic_advantage,
    check_political_equilibrium,
    check_vote_share_reciprocity,
    check_welfare_representation,
    check_decomposition,
    check_broadening,
    check_interface_statics,
    check_theta_statics,
    check_dispersion_order,
    check_wage_support,
    check_excess_specialization,
)


def run_all(scn: Scenario) -> list[CheckResult]:
    """Run the full suite; deterministic given the scenario seed."""
    tol_scale = 0.1 if scn.strict else 1.0
    results = []
    for index, check in enumerate(CHECKS):
        rng = np.random.default_rng([scn.seed, index])
        results.append(check(scn, rng, tol_scale))
    return results
