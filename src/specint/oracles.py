"""The verification suite behind `specint verify`.

Every check re-derives a closed form from an independent direction
(brute-force enumeration, finite differences, random sampling against
bounds) and reports a worst-case metric against its tolerance. Checks
whose hypotheses fail on the loaded scenario report "skipped" with the
failing hypothesis named. Strict mode tightens the tolerances of checks
that are limited by round-off rather than by method error.

Each check draws from its own generator, default_rng([seed, index]).
The pure sampling checks (coverage, frontier and Gamma bounds, integrator
capacity) draw the simplex size K of every draw first, then each size's
rows as arrays, in ascending K, and certify each block in one call of the
engine function they check. The checks that solve the productive optimum
of random economies (its identities, the civic advantage and the
political tilt) draw all their economies first, as each draw did in turn,
then solve and evaluate each K's economies in one optimum_accounts call.
Checks that build a design per draw still draw and solve one at a time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import competitive, learning, production, reforms, welfare
from .economy import Economy
from .errors import HypothesisError, ModelError, OracleError
from .knowledge import check_diffuse, coverage, fragmentation, system_knowledge
from .learning import gamma_index, max_scale, max_scale_batch
from .politics import (
    best_response_fixed_point,
    equilibrium_from_groups,
    kkt_residuals,
    political_equilibrium,
    vote_share_slope,
)
from .production import (
    SpecialistDesign,
    accounts,
    accounts_rows,
    brute_force_design,
    cornerized,
    minimal_rows,
    optimum_accounts,
    optimum_rows,
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


def _per_scale(residual, scale):
    """A round-off residual of a quantity of order `scale`, in the units of
    an absolute 1e-10 bound: its own bound is max(1e-10, 16 eps scale), as
    support_wages bounds the wage identities, so the factor is exactly 1
    while that bound is 1e-10 (scale up to about 2.8e4)."""
    return residual * (1e-10 / max(1e-10, 16.0 * _EPS * scale))


def _outcome(rows) -> str:
    """repr of the rows, or the type and message of the engine error that
    computing them raises."""
    try:
        return repr(rows())
    except ModelError as exc:
        return f"{type(exc).__name__}: {exc}"


def _interior_simplex(rng, K, size=None):
    """A Dirichlet(1) direction pulled 15% toward the centre of the
    simplex, or a (size,K) stack of them, one per row."""
    raw = rng.dirichlet(np.ones(K), size=size)
    mixed = 0.85 * raw + 0.15 / K
    return mixed / mixed.sum(axis=-1, keepdims=True)


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
# a technology of each family, whose param the stacked check_diffuse
# replaces by each candidate's own
DIFFUSE_TECHS = {family: learning.LearningTech(family, 1.0) for family in learning.FAMILIES}


def _diffuse_economies(rng, base: Economy, n: int) -> list[Economy]:
    """n random economies (K 3..5) that pass check_diffuse, by rejection.

    Candidates come in blocks of DIFFUSE_BLOCK: K, family, learning.param,
    the concentrated-u flag and p as vectors, then u by one dirichlet call
    per (K, flag) group, with the formulas of _random_economy. The engine's
    check_diffuse decides the block's verdicts, one stacked call per (K,
    family) group; then the candidates are taken in order, and only an
    accepted one draws its q and theta_frac and becomes an Economy.

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
        ok = np.zeros(DIFFUSE_BLOCK, dtype=bool)
        for k in (3, 4, 5):
            for flag in (False, True):
                index = np.flatnonzero((K == k) & (concentrated == flag))
                if flag:
                    raw = rng.dirichlet(np.full(k, 0.4), size=index.size) * 0.9 + 0.1 / k
                else:
                    raw = 0.85 * rng.dirichlet(np.ones(k), size=index.size) + 0.15 / k
                for i, row in zip(index, raw / raw.sum(axis=1, keepdims=True)):
                    u[i] = row
            for family, tech in DIFFUSE_TECHS.items():
                index = np.flatnonzero((K == k) & (rational == (family == "rational")))
                if index.size:
                    U = np.array([u[i] for i in index])
                    ok[index] = check_diffuse(U, p[index], tech, param[index]).ok
        for i in range(DIFFUSE_BLOCK):
            if not ok[i]:
                misses += 1
                if misses >= DIFFUSE_DRAW_BUDGET:
                    raise OracleError("diffuse economy sampler exhausted its draw budget")
                continue
            misses = 0
            family = "rational" if rational[i] else "exponential"
            tech = learning.LearningTech(family=family, param=float(param[i]))
            q = _interior_simplex(rng, int(K[i]))
            theta_frac = float(rng.uniform(0.05, 0.9))
            out.append(Economy(
                tech=tech, q=q, u=u[i], p=float(p[i]),
                theta=theta_frac * tech.constants.theta_bar, V=base.V, gov=base.gov,
            ))
            if len(out) == n:
                break
    return out


def _size_groups(rng, n: int, low: int, high: int):
    """Draw the simplex sizes of n draws at once, K uniform on low..high-1,
    then yield each size that occurs, ascending, with the indices of its
    draws. A check draws each group's rows as (count,K) arrays when its
    size comes up, so rows are i.i.d. given K, as when each draw drew its
    own K and then its rows."""
    K = rng.integers(low, high, size=n)
    for k in range(low, high):
        draws = np.flatnonzero(K == k)
        if draws.size:
            yield k, draws


def _optimum_blocks(econs):
    """optimum_accounts of the economies of each K among econs, in
    ascending K, as (economies, OptimumRows, accounts): one kernel call per
    K. The checks that use it take a maximum over all rows, which the order
    of the rows does not move."""
    for K in sorted({e.K for e in econs}):
        block = [e for e in econs if e.K == K]
        yield block, *optimum_accounts(block)


def _random_design(rng, K: int, n_atoms: int) -> SpecialistDesign:
    dirs = np.vstack([_interior_simplex(rng, K) for _ in range(n_atoms)])
    w = rng.dirichlet(np.ones(n_atoms))
    return SpecialistDesign(directions=dirs, weights=w)


# ---------------------------------------------------------------------------
# individual checks


def check_coverage_identity(scn: Scenario, rng, tol_scale) -> CheckResult:
    worst = 0.0
    for K, draws in _size_groups(rng, scn.pairs, 2, 7):
        mass = rng.uniform(0.1, 2.0, size=draws.size)
        a = rng.dirichlet(np.ones(K), size=draws.size) * mass[:, None]
        b = rng.dirichlet(np.ones(K), size=draws.size) * mass[:, None]
        gap = coverage(a, b) - (mass - 0.5 * np.abs(a - b).sum(axis=1))
        worst = max(worst, float(np.abs(gap).max()))
    return _result("coverage-distance-identity", worst, 1e-12 * tol_scale)


def check_coverage_properties(scn: Scenario, rng, tol_scale) -> CheckResult:
    worst = 0.0
    econ = scn.econ
    for K, draws in _size_groups(rng, 200, 2, 7):
        a = rng.uniform(0.0, 1.0, (draws.size, K))
        b = rng.uniform(0.0, 1.0, (draws.size, K))
        C = coverage(a, b)
        cap = np.minimum(a.sum(axis=1), b.sum(axis=1))
        worst = max(
            worst,
            float(np.abs(C - coverage(b, a)).max()),
            float((C - cap).max()),
            float((C - coverage(a + 0.1, b)).max()),
        )
    # scale monotonicity of system knowledge along a fixed direction: row
    # (t, i) of the stack is t * H(pi_i) * pi_i
    directions = _interior_simplex(rng, econ.K, size=100)
    scales = np.linspace(0.1, 1.0, 7)[:, None] * learning.max_scale_batch(econ.tech, directions)
    profiles = scales[:, :, None] * directions
    B = system_knowledge(profiles.reshape(-1, econ.K), econ.u, econ.p).reshape(scales.shape)
    worst = max(worst, float(-np.diff(B, axis=0).min()))
    return _result("coverage-and-knowledge-properties", worst, 1e-12 * tol_scale)


def frontier_bisection(tech: learning.LearningTech, P: np.ndarray) -> np.ndarray:
    """Reference frontier H() of each row of P: bisection on
    [1/ell_bar - 1e-9, 1 + 1e-9], independent of the Newton solver. A step
    is a fixed map of (lo, hi), so once one moves neither end of any row
    the brackets are final; it stops there, or after 90 steps."""
    lo = np.full(P.shape[0], 1.0 / tech.ell_bar - 1e-9)
    hi = np.full(P.shape[0], 1.0 + 1e-9)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        over = tech.ell(mid[:, None] * P).sum(axis=1) > 1.0
        if not np.where(over, mid != hi, mid != lo).any():
            break
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
    worst = -math.inf  # a signed margin, below 0 while the bound has room
    for K, draws in _size_groups(rng, scn.pairs, 2, 6):
        P = rng.dirichlet(np.ones(K), size=(draws.size, 2))
        H = learning.max_scale_batch(tech, P.reshape(-1, K)).reshape(-1, 2)
        gap = np.abs(H[:, 0] - H[:, 1]) - mod * np.abs(P[:, 0] - P[:, 1]).sum(axis=1)
        worst = max(worst, float(gap.max()))
    return _result("frontier-lipschitz", worst, 1e-10 * tol_scale)


def check_concavity_gap(scn: Scenario, rng, tol_scale) -> CheckResult:
    tech = scn.econ.tech
    c_ell = scn.econ.constants.c_ell
    worst = -math.inf  # a signed margin, below 0 while the bound has room
    for K, draws in _size_groups(rng, 1000, 2, 6):
        P = rng.dirichlet(np.ones(K), size=draws.size)
        H = learning.max_scale_batch(tech, P)
        D = 1.0 - (P * P).sum(axis=1)  # fragmentation of each row
        worst = max(worst, float((c_ell * D - (1.0 / H - 1.0)).max()))
    return _result("concavity-gap", worst, 1e-10 * tol_scale)


def check_gamma_lipschitz(scn: Scenario, rng, tol_scale) -> CheckResult:
    tech = scn.econ.tech
    L = scn.econ.constants.L_Gamma
    worst = -math.inf  # a signed margin, below 0 while the bound has room
    for K, draws in _size_groups(rng, scn.pairs, 2, 6):
        z1 = rng.uniform(0.0, 1.0, (draws.size, K))
        # one second bundle in ten is the zero bundle
        z2 = rng.uniform(0.0, 1.0, (draws.size, K)) * (rng.random((draws.size, 1)) < 0.9)
        G = learning.gamma_index_batch(tech, np.vstack([z1, z2]))
        gap = np.abs(G[: draws.size] - G[draws.size :]) - L * np.abs(z1 - z2).sum(axis=1)
        worst = max(worst, float(gap.max()))
    return _result("gamma-lipschitz", worst, 1e-10 * tol_scale)


def check_integrator_capacity(scn: Scenario, rng, tol_scale) -> CheckResult:
    # every fifth draw embeds h in its own frontier profile H(h)*h; the
    # others in frac*H(pi)*pi for an independent direction pi
    tech = scn.econ.tech
    worst = 0.0
    for K, draws in _size_groups(rng, scn.pairs, 2, 6):
        mixed = draws % 5 != 0
        h = _interior_simplex(rng, K, size=draws.size)
        pi = _interior_simplex(rng, K, size=int(mixed.sum()))
        frac = rng.uniform(0.2, 1.0, size=pi.shape[0])
        H = learning.max_scale_batch(tech, np.vstack([h, pi]))
        Hh = H[: draws.size]
        own = Hh[:, None] * h
        s = own.copy()
        s[mixed] = (frac * H[draws.size :])[:, None] * pi
        J = production.integrator_capacity(s, h)
        collapsed = (np.abs(J - Hh) <= 1e-8) & (np.abs(s - own).max(axis=1) > 1e-6)
        worst = max(worst, float((J - Hh).max()), 1.0 if collapsed.any() else 0.0)
    return _result("integrator-capacity-bound", worst, 1e-10 * tol_scale)


def check_optimum_identities(scn: Scenario, rng, tol_scale) -> CheckResult:
    worst = 0.0
    econs = [_random_economy(rng, scn.econ, K=int(rng.integers(2, 6))) for _ in range(50)]
    for block, rows, accs in _optimum_blocks(econs):
        for i, (econ, acc) in enumerate(zip(block, accs)):
            opt = rows.optimum(i)
            D = fragmentation(econ.q)
            worst = max(
                worst,
                float(np.abs(opt.h_star - econ.q * (1.0 - econ.q) / D).max()),
                abs(opt.m_star - econ.theta * D / (opt.H_hstar + econ.theta * D)),
                _per_scale(
                    abs(opt.Y_star - econ.V * opt.H_hstar / (opt.H_hstar + econ.theta * D)),
                    econ.V,
                ),
                _per_scale(abs(acc.Y - opt.Y_star), econ.V),
                # m* is the integrator share of the allocation the accounts evaluate
                abs(opt.m_star * opt.H_hstar - econ.theta * acc.g),
            )
            if opt.m_star >= 1.0 / 3.0:
                worst = max(worst, 1.0)
    return _result("productive-optimum-identities", worst, 1e-10 * tol_scale)


def check_gap_accounting(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    mixes = [_interior_simplex(rng, int(rng.integers(2, 6))) for _ in range(200)]
    worst = 0.0
    for K in sorted({x.size for x in mixes}):
        # the corner designs of one K share their atoms, the rows of eye(K);
        # gaps read neither q nor u, and feasibility reads only tech and
        # theta, so one economy per K with uniform q and u evaluates them all
        X = np.array([x for x in mixes if x.size == K])
        rows = minimal_rows([(np.eye(K), max_scale_batch(econ.tech, np.eye(K)), X)], econ)[0]
        uniform = np.full(K, 1.0 / K)
        econ_K = Economy(
            tech=econ.tech, q=uniform, u=uniform, p=econ.p,
            theta=econ.theta, V=econ.V, gov=econ.gov,
        )
        for x, m, acc in zip(X, rows.m.tolist(), accounts_rows(rows, econ_K)):
            worst = max(
                worst,
                float(np.abs(acc.G - (1.0 - m) * x * (1.0 - x)).max()),
                abs(acc.g - (1.0 - m) * fragmentation(x)),
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
    for _, _, accs in _optimum_blocks(_diffuse_economies(rng, econ, scn.economies)):
        for acc in accs:
            worst = max(worst, acc.B_S - acc.B_M)
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
        fp = best_response_fixed_point(start, econ, out)
        gap = max(
            abs(fp.e - out.e_pol), abs(fp.z - out.z_pol),
            abs(fp.t_S - out.t_S), abs(fp.t_M - out.t_M),
        )
        worst = max(worst, gap / 1e-6)
    cands = [_random_economy(rng, econ) for _ in range(scn.economies)]
    for block, rows, accs in _optimum_blocks(cands):
        for cand, m, acc in zip(block, rows.m.tolist(), accs):
            o = equilibrium_from_groups(cand, acc.Y, m, acc.B_S, acc.B_M)
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
        v = service_welfare(out)
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
        worst = max(worst, decompose_along(econ, bfam, b).residual)
    ifam = reforms.interface_family(econ)
    for a in (0.0, 0.5, 1.0):
        worst = max(worst, decompose_along(econ, ifam, a).residual)
    return _result("decomposition-residual", worst, welfare.DECOMPOSITION_RESIDUAL)


def _fd_slopes(econ: Economy, family, x: float):
    """decompose_along at x over fresh welfare reports of the family, then
    the finite-difference slopes of civic capacity, welfare and service
    welfare there as (slope, bound) pairs. Each bound is the stencil's
    round-off when every value is within eps of its size: the sum of the
    stencil's absolute coefficients (2 central, 8 one-sided, over 2h) times
    eps times the largest value differenced."""
    points, kind = welfare.stencil_points(x)
    reports = [family(y) for y in points]
    d = decompose_along(econ, dict(zip(points, reports)).__getitem__, x)
    unit = (2.0 if kind == 0 else 8.0) * _EPS / (2.0 * welfare.DECOMPOSITION_STEP)
    civic = [r.B_soc for r in reports]
    total = [r.welfare for r in reports]
    service = [r.service_welfare for r in reports]
    return (
        d,
        (d.dB_soc, unit * max(map(abs, civic))),
        (d.fd_total, unit * max(map(abs, total))),
        (welfare.stencil(kind, service), unit * max(map(abs, service))),
    )


def sign_bracket(slope, x: float, w0: float, rising: bool) -> float | None:
    """Certify x as the sign change of a slope: the half-width w at which
    slope(x - w) and slope(x + w) are both resolved (each value's size
    above the noise bound slope returns with it) and of opposite signs,
    negative below x if rising and positive if not; None otherwise. While a
    side is unresolved, w grows tenfold from w0 up to the cap 1e-3*|x|."""
    cap = 1e-3 * abs(x)
    w = min(w0, cap)
    while True:
        (below, below_noise), (above, above_noise) = slope(x - w), slope(x + w)
        if abs(below) > below_noise and abs(above) > above_noise:
            return w if (below < 0.0 < above if rising else above < 0.0 < below) else None
        if w >= cap:
            return None
        w = min(10.0 * w, cap)


def cutoff_bracket(econ: Economy, cutoff: float) -> float | None:
    """sign_bracket of theta_cut from w0 = 1e-6, where the finite-difference
    dB_soc/db at b = 0 over a fresh broadening family at each theta, free of
    the closed form, falls through 0."""

    def civic_slope(theta):
        econ_t = econ.with_theta(theta)
        return _fd_slopes(econ_t, reforms.broadening_family(econ_t), 0.0)[1]

    return sign_bracket(civic_slope, cutoff, 1e-6, rising=False)


def threshold_bracket(econ: Economy, alpha_grid, theta_small: float) -> float | None:
    """sign_bracket of theta_small from w0 = 1e-6*theta_small, where the
    largest finite-difference dB_soc/dalpha and dW/dalpha over the grid,
    each over a fresh interface family at each theta, rises through 0.
    Output is fixed along alpha, so dW/dalpha is the slope of service
    welfare, whose round-off does not grow with V as that of W does."""
    grid = np.asarray(alpha_grid, dtype=float).tolist()

    def largest_slope(theta):
        econ_t = econ.with_theta(theta)
        fam = reforms.interface_family(econ_t)
        value = noise = -math.inf
        for a in grid:
            _, civic, _, service = _fd_slopes(econ_t, fam, a)
            value = max(value, civic[0], service[0])
            noise = max(noise, civic[1], service[1])
        return value, noise

    return sign_bracket(largest_slope, theta_small, 1e-6 * theta_small, rising=True)


def _bracket_note(name: str, x: float, w: float | None) -> str:
    return f"{name}={x:.6g} " + (f"bracketed within {w:.3g}" if w is not None else "not bracketed")


def check_broadening(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    slope = reforms.broadening_derivative(econ)
    fd = decompose_along(econ, reforms.broadening_family(econ), 0.0).dB_soc
    worst = abs(fd - slope.value) / 1e-6
    note = f"regime={slope.regime}"
    if slope.regime == "cutoff":
        w = cutoff_bracket(econ, slope.cutoff)
        worst = max(worst, 0.0 if w is not None else 2.0)
        note += "; " + _bracket_note("cutoff", slope.cutoff, w)
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
    # the sweep's table against the per-share path (a fresh allocation and
    # its full welfare accounts) at every share of the grid, column by
    # column as the CSV writes them (repr), so that even -0.0 and 0.0
    # differ, and with the CSV's columns in order; where m = 0 there is no
    # voting game, and only b, m, Y and the group knowledge are filled in
    got = reforms.broadening_statics(econ, scn.b_grid)
    want = {name: [] for name in ("b", "m", "Y", "B_S", "B_M", "B_soc", "e_pol", "z_pol",
                                  "t_S", "t_M", "R", "service_welfare", "dispersion",
                                  "welfare")}
    for b in scn.b_grid.tolist():
        alloc = reforms.broadening_allocation(b, econ)
        if 0.0 < alloc.m < 1.0:
            cells = total_welfare(econ, alloc).columns()
        else:
            acc = accounts(alloc, econ)
            B_soc = (1.0 - alloc.m) * acc.B_S + alloc.m * acc.B_M
            cells = {"Y": acc.Y, "B_S": acc.B_S, "B_M": acc.B_M, "B_soc": B_soc}
        cells.update(b=b, m=alloc.m)
        for name, column in want.items():
            column.append(cells.get(name))
    worst = max(worst, 0.0 if repr(got) == repr(want) else 2.0)
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
        lo, hi = fam(a - h), fam(a + h)
        worst = max(
            worst,
            abs((hi.B_S - lo.B_S) / (2 * h) - B_S_slope) / 1e-8,
            abs((hi.B_M - lo.B_M) / (2 * h) - B_M_slope) / 1e-8,
        )
    if B_S_slope > 0.0 or B_M_slope < 0.0:
        worst = max(worst, 2.0)
    theta_small = reforms.interface_threshold(econ, scn.alpha_grid)
    w = threshold_bracket(econ, scn.alpha_grid, theta_small) if theta_small > 0.0 else None
    worst = max(worst, 0.0 if w is not None else 2.0)
    # the sweep's table against the per-point path (the family's economy
    # and the full welfare accounts at every stencil point, under the
    # sweep's stop rule, and the closed-form slopes), column by column as
    # the CSV writes them (repr); where both raise, the same error is the
    # same outcome
    grid = scn.alpha_grid.tolist()

    def per_point():
        rows = []
        for a in grid:
            d = decompose_along(econ, fam, a)
            at = reforms.residual_checked(d, a).at
            rows.append({
                "alpha": a, "B_S": at.B_S, "B_M": at.B_M, "B_soc": at.B_soc,
                "dispersion": at.dispersion, "welfare": at.welfare,
                "B_S_slope": B_S_slope, "B_M_slope": B_M_slope,
                "B_soc_slope": (1.0 - at.m) * B_S_slope + at.m * B_M_slope,
                "dW_dalpha": d.fd_total,
            })
        return {name: [row[name] for row in rows] for name in rows[0]}

    same = _outcome(per_point) == _outcome(
        lambda: reforms.interface_statics(econ, scn.alpha_grid)
    )
    worst = max(worst, 0.0 if same else 2.0)
    return _result("interface-statics", worst, 1.0, _bracket_note("theta_small", theta_small, w))


def check_theta_statics(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    report = reforms.theta_statics(econ, scn.theta_grid())
    # the closed-form rows against a fresh optimum and its full welfare
    # accounts (budget and capacity checks included) at every theta
    worst = 0.0
    for i, theta in enumerate(report["theta"]):
        econ_t = econ.with_theta(theta)
        opt, alloc = productive_optimum(econ_t)
        rep = total_welfare(econ_t, alloc)
        same = (opt.m_star, opt.Y_star, rep.B_soc) == (
            report["m"][i], report["Y"][i], report["B_soc"][i]
        )
        worst = max(
            worst,
            0.0 if same else 2.0,
            abs(rep.welfare - report["welfare"][i]) / (1e-12 * (1.0 + abs(rep.welfare))),
        )
    # B_S and B_M are constant in theta at the optimum, so B_soc moves with
    # m in the direction of B_M - B_S; a one-point grid has no step to test
    if len(report["theta"]) > 1:
        strictness = min(
            float(np.diff(report["m"]).min()),
            float(-np.diff(report["Y"]).max()),
            float((np.sign(rep.B_M - rep.B_S) * np.diff(report["B_soc"])).min()),
        )
        if strictness <= 1e-12:
            worst = max(worst, 2.0)
    # the dm/dtheta column the engine emits, against central differences
    # of the optimum's m at every grid point whose stencil fits in
    # (0, theta_bar), where the optimum lives; the 2n optima in one call
    h = 1e-6 * econ.theta_bar
    inside = [
        (theta, dm) for theta, dm in zip(report["theta"], report["dm_dtheta"])
        if theta - h > 0.0 and theta + h < econ.theta_bar
    ]
    stencil = [econ.with_theta(theta + s) for theta, _ in inside for s in (h, -h)]
    m = optimum_rows(stencil).m.tolist() if stencil else []
    for (_, dm), above, below in zip(inside, m[::2], m[1::2]):
        worst = max(worst, abs((above - below) / (2.0 * h) - dm) / 1e-8)
    w_diff = np.diff(report["welfare"])
    monotone = np.all(w_diff > 0.0) or np.all(w_diff < 0.0)
    note = "welfare monotone on grid" if monotone else "welfare non-monotone on grid"
    return _result("theta-statics", worst, 1.0, note)


def check_dispersion_order(scn: Scenario, rng, tol_scale) -> CheckResult:
    econ = scn.econ
    thetas = np.geomspace(1e-3, 0.9, 10) * econ.theta_bar
    # the slopes read q, p and H(h*), which no theta moves
    bs_slope, bm_slope = reforms.interface_closed_slopes(econ)
    ratios = []
    for theta in thetas:
        econ_t = econ.with_theta(float(theta))
        fam = reforms.interface_family(econ_t)
        worst_d = 0.0
        for a in np.linspace(0.0, 1.0, 9):
            rep = fam(float(a))
            worst_d = max(
                worst_d,
                abs(reforms.dispersion_slope(rep.B_S, rep.B_M, bs_slope, bm_slope, rep.m)),
            )
        ratios.append(worst_d / rep.m)
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
        _per_scale(abs(wages.w_S - wages.w_M - wages.delta_q), wages.V_tilde),
        _per_scale(abs(wages.w_S + wages.beta * wages.w_M - wages.V_tilde), wages.V_tilde),
    )
    # zero profit recomputed through the coordination index route:
    # V_tilde*C - w_S*E - theta*w_M*A with C=1, E=1, A=Gamma(q*(1-q))
    A = gamma_index(econ.tech, econ.q * (1.0 - econ.q))
    zero_profit = wages.V_tilde - wages.w_S - econ.theta * wages.w_M * A
    worst = max(worst, _per_scale(abs(zero_profit), wages.V_tilde))
    r = wages.w_M / wages.w_S
    bound = competitive.ratio_bound(econ)
    if bound.bound_valid and r > bound.r_bar:
        worst = max(worst, r - bound.r_bar)
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

    def fd_slopes(eta):
        econ_eta = dataclasses.replace(econ, gov=dataclasses.replace(econ.gov, eta=eta))
        return _fd_slopes(econ_eta, reforms.broadening_family(econ_eta), 0.0)

    fd = fd_slopes(econ.gov.eta)[0]
    scale = 1.0 + abs(fd.productive_term) + abs(fd.governance_term) + abs(fd.targeting_term)
    worst = abs(fd.fd_total - slope.welfare) / (1e-8 * scale)
    eta_star, where = slope.eta_star, "none"
    if eta_star is not None and 0.0 < eta_star * (1.0 + 1e-3) < 1.0:
        # the slope rises with eta when B_soc' > 0 and falls when B_soc' < 0
        flips = sign_bracket(lambda eta: fd_slopes(eta)[2], eta_star, 1e-3 * eta_star,
                             rising=slope.value > 0.0) is not None
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
