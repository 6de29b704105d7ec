"""Acceptance gate: one test per criterion, at the stated budgets and
tolerances, each printing a pass/fail line. Desk scale: K=3 defaults,
design oracles at resolution 1/8."""

import math
import time

import numpy as np

from specint import competitive, oracles, production, reforms
from specint.cli import main
from specint.economy import Economy
from specint.knowledge import check_diffuse, coverage, fragmentation
from specint.learning import LearningTech, max_scale, max_scale_batch
from specint.politics import (
    best_response_fixed_point,
    equilibrium_from_groups,
    kkt_residuals,
    political_equilibrium,
)
from specint.production import (
    accounts,
    brute_force_design,
    integrator_capacity,
    productive_optimum,
    simplex_grid,
)
from specint.scenario import DEFAULTS
from specint.welfare import decompose_along, dispersion, service_welfare, total_welfare

from conftest import interior_simplex


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_coverage_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(2, 7))
        mass = float(rng.uniform(0.05, 3.0))
        a = rng.dirichlet(np.ones(K)) * mass
        b = rng.dirichlet(np.ones(K)) * mass
        worst = max(worst, abs(coverage(a, b) - (mass - 0.5 * np.abs(a - b).sum())))
    report(1, "coverage-identity", worst <= 1e-12, f"max residual {worst:.3e} <= 1e-12")


def test_criterion_02_frontier_bounds(econ):
    tech = econ.tech
    rng = np.random.default_rng(102)
    worst = 0.0
    for K in (2, 3, 4, 5):
        P = rng.dirichlet(np.ones(K), size=2500)
        H = max_scale_batch(tech, P)
        worst = max(worst, float((1 / tech.ell_bar - H).max()), float((H - 1).max()))
        worst = max(worst, abs(max_scale(tech, np.eye(K)[K - 1]) - 1.0))
    lip = 0.0
    mod = tech.ell_bar / tech.ell_under
    for _ in range(1000):
        K = int(rng.integers(2, 6))
        a, b = rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K))
        lip = max(
            lip,
            abs(max_scale(tech, a) - max_scale(tech, b)) - mod * np.abs(a - b).sum(),
        )
    ok = worst <= 1e-10 and lip <= 0.0
    report(2, "frontier-bounds", ok, f"bound residual {worst:.3e}, lipschitz excess {lip:.3e}")


def test_criterion_03_integrator_optimality(econ):
    tech = econ.tech
    rng = np.random.default_rng(103)
    worst = -np.inf
    iff_ok = True
    for i in range(1000):
        K = int(rng.integers(2, 6))
        h = interior_simplex(rng, K)
        Hh = max_scale(tech, h)
        if i % 4 == 0:
            s = Hh * h
        else:
            pi = interior_simplex(rng, K)
            s = float(rng.uniform(0.2, 1.0)) * max_scale(tech, pi) * pi
        J = integrator_capacity(s, h)
        worst = max(worst, J - Hh)
        at_cap = abs(J - Hh) <= 1e-8
        matched = np.abs(s - Hh * h).max() <= 1e-6
        if at_cap != matched:
            iff_ok = False
    ok = worst <= 1e-10 and iff_ok
    report(3, "integrator-optimality", ok, f"max J-H(h) {worst:.3e}, equality-iff {iff_ok}")


def test_criterion_04_theorem_formulas(econ):
    rng = np.random.default_rng(104)
    worst = 0.0
    shares_ok = True
    for _ in range(50):
        K = int(rng.integers(2, 6))
        family = "rational" if rng.random() < 0.5 else "exponential"
        tech = LearningTech(family=family, param=float(rng.uniform(0.6, 3.0)))
        cand = Economy(
            tech=tech, q=interior_simplex(rng, K), u=np.full(K, 1.0 / K),
            p=econ.p, theta=1.0 / (2 * 34.0), V=econ.V, gov=econ.gov,
        )
        cand = cand.with_theta(float(rng.uniform(0.05, 0.95)) * cand.theta_bar)
        opt, alloc = productive_optimum(cand)
        acc = accounts(alloc, cand)
        D = fragmentation(cand.q)
        worst = max(
            worst,
            float(np.abs(opt.h_star - cand.q * (1 - cand.q) / D).max()),
            abs(opt.m_star - cand.theta * D / (opt.H_hstar + cand.theta * D)),
            abs(opt.Y_star - cand.V * opt.H_hstar / (opt.H_hstar + cand.theta * D)),
            abs(acc.Y - opt.Y_star),
            abs(alloc.m * opt.H_hstar - cand.theta * acc.g),
        )
        shares_ok &= opt.m_star < 1 / 3
    ok = worst <= 1e-10 and shares_ok
    report(4, "theorem-formulas", ok, f"max residual {worst:.3e} <= 1e-10, m*<1/3 {shares_ok}")


def test_criterion_05_design_oracle(econ):
    hot = econ.with_theta(0.5 * econ.theta_bar)
    t0 = time.time()
    res = brute_force_design(hot, resolution=8, max_atoms=3)
    elapsed = time.time() - t0
    opt, _ = productive_optimum(hot)
    grid = simplex_grid(3, 8)
    dists = np.abs(grid - hot.q).sum(axis=1)
    allowance = hot.V * (0.5 + hot.theta * hot.constants.L_Gamma) * float(dists.min())
    ok = (
        res.design.is_corner()
        and np.abs(res.x - hot.q).sum() <= dists.min() + 1e-12
        and res.Y <= opt.Y_star + 1e-9
        and opt.Y_star - res.Y <= allowance
        and elapsed <= 30.0
    )
    report(
        5, "bang-bang-alignment-oracle", ok,
        f"{res.n_designs} designs in {elapsed:.1f}s; Y*-Y={opt.Y_star - res.Y:.3g} "
        f"<= allowance {allowance:.3g}; best mix {res.x}",
    )


def test_criterion_06_civic_advantage(econ):
    rng = np.random.default_rng(106)
    worst = -np.inf
    n = 0
    while n < 100:
        K = int(rng.integers(3, 6))
        tech = LearningTech(
            family="rational" if rng.random() < 0.5 else "exponential",
            param=float(rng.uniform(0.6, 3.0)),
        )
        q = interior_simplex(rng, K)
        u = interior_simplex(rng, K)
        cand = Economy(
            tech=tech, q=q, u=u, p=float(rng.uniform(0.05, 0.9)),
            theta=1e-3, V=econ.V, gov=econ.gov,
        )
        if not check_diffuse(cand.u, cand.p, cand.tech).ok:
            continue
        cand = cand.with_theta(float(rng.uniform(0.05, 0.95)) * cand.theta_bar)
        acc = accounts(productive_optimum(cand)[1], cand)
        worst = max(worst, acc.B_S - acc.B_M)
        n += 1
    report(6, "integrator-civic-advantage", worst < 0.0, f"min B_M-B_S margin {-worst:.3e} > 0")


def test_criterion_07_political_equilibrium(econ):
    _, alloc = productive_optimum(econ)
    out = political_equilibrium(econ, alloc)
    kkt = max(kkt_residuals(econ, out))
    rng = np.random.default_rng(107)
    gap = 0.0
    for _ in range(10):
        start = (float(rng.uniform(0.05, 3.0)), float(rng.uniform(0.05, 0.95)))
        fp = best_response_fixed_point(start, econ, out)
        gap = max(
            gap, abs(fp.e - out.e_pol), abs(fp.z - out.z_pol),
            abs(fp.t_S - out.t_S), abs(fp.t_M - out.t_M),
        )
    tilt_ok = True
    for _ in range(100):
        K = int(rng.integers(3, 6))
        q = interior_simplex(rng, K)
        u = rng.dirichlet(np.full(K, 0.4)) * 0.9 + 0.1 / K
        u = u / u.sum()
        cand = Economy(
            tech=econ.tech, q=q, u=u, p=float(rng.uniform(0.1, 0.9)),
            theta=1e-3, V=econ.V, gov=econ.gov,
        )
        cand = cand.with_theta(float(rng.uniform(0.1, 0.9)) * cand.theta_bar)
        _, alloc_c = productive_optimum(cand)
        o = political_equilibrium(cand, alloc_c)
        tilt_ok &= (o.z_pol > o.m) == (o.B_M > o.B_S)
    ok = gap <= 1e-6 and kkt <= 1e-9 and tilt_ok
    report(
        7, "political-equilibrium", ok,
        f"fixed-point gap {gap:.3e} <= 1e-6, KKT {kkt:.3e} <= 1e-9, tilt-iff {tilt_ok}",
    )


def test_criterion_08_welfare_representation(econ):
    rng = np.random.default_rng(108)
    worst = 0.0
    sign_ok = True
    iff_ok = True
    for i in range(1000):
        m = float(rng.uniform(0.01, 0.99))
        B_S = float(rng.uniform(0.02, 0.9))
        B_M = B_S if i % 6 == 0 else float(rng.uniform(0.02, 0.9))
        out = equilibrium_from_groups(
            econ, Y=float(rng.uniform(0.5, 40.0)), m=m, B_S=B_S, B_M=B_M
        )
        v = service_welfare(out)
        d = dispersion(B_S, B_M, m)
        worst = max(worst, abs(v - (math.log(out.R) - d)))
        sign_ok &= d >= 0.0
        iff_ok &= (d <= 1e-10) == (abs(B_S - B_M) <= 1e-8)
    ok = worst <= 1e-10 and sign_ok and iff_ok
    report(
        8, "welfare-representation", ok,
        f"max |V-(logR-D)| {worst:.3e} <= 1e-10, D>=0 {sign_ok}, equality-iff {iff_ok}",
    )


def test_criterion_09_decomposition(econ):
    worst = 0.0
    bfam = reforms.broadening_family(econ)
    for b in (0.0, 0.25, 0.5, 0.75):
        worst = max(worst, decompose_along(econ, bfam, b).residual)
    ifam = reforms.interface_family(econ)
    for a in (0.0, 0.5, 1.0):
        worst = max(worst, decompose_along(econ, ifam, a).residual)
    report(9, "welfare-decomposition", worst <= 1e-4, f"max residual {worst:.3e} <= 1e-4")


def test_criterion_10_broadening(econ):
    slope = reforms.broadening_derivative(econ)
    fd = decompose_along(econ, reforms.broadening_family(econ), 0.0).dB_soc
    fd_gap = abs(fd - slope.value)
    width = oracles.cutoff_bracket(econ, slope.cutoff) if slope.regime == "cutoff" else None
    ok = fd_gap <= 1e-6 and width is not None and width <= 1e-6
    report(
        10, "broadening-reform", ok,
        f"slope FD gap {fd_gap:.3e} <= 1e-6, sign flip bracketed within {width} <= 1e-6 of formula",
    )


def test_criterion_11_interface_statics(econ):
    rep = reforms.interface_statics(econ, np.linspace(0.0, 1.0, 11))
    theta_small = reforms.interface_threshold(econ, np.linspace(0.0, 1.0, 11))
    alloc = production.minimal_allocation(production.corner_design(econ.q), econ)
    h_star = production.gap_profile_star(econ.q)
    h = 1e-6
    fd_gap = 0.0
    for a in (0.3, 0.7):
        lo = accounts(alloc, econ.with_u(reforms.interface_profile(econ.q, a - h, h_star)))
        hi = accounts(alloc, econ.with_u(reforms.interface_profile(econ.q, a + h, h_star)))
        fd_gap = max(
            fd_gap,
            abs((hi.B_S - lo.B_S) / (2 * h) - rep["B_S_slope"][0]),
            abs((hi.B_M - lo.B_M) / (2 * h) - rep["B_M_slope"][0]),
        )
    signs_ok = rep["B_S_slope"][0] <= 0.0 <= rep["B_M_slope"][0]
    finite_ok = 0.0 < theta_small and math.isfinite(theta_small)
    below_ok = finite_ok and all(d < 0.0 for d in rep["dW_dalpha"]) and rep["B_soc_slope"][0] < 0.0
    ok = fd_gap <= 1e-8 and signs_ok and below_ok
    report(
        11, "interface-statics", ok,
        f"slope FD gap {fd_gap:.3e} <= 1e-8, theta_small {theta_small:.4g} > 0",
    )


def test_criterion_12_theta_statics(econ):
    grid = np.linspace(0.02, 0.98, 50) * econ.theta_bar
    rep = reforms.theta_statics(econ, grid)
    margins = min(
        float(np.diff(rep["m"]).min()),
        float(-np.diff(rep["Y"]).max()),
        float(np.diff(rep["B_soc"]).min()),
    )
    D = fragmentation(econ.q)
    H = max_scale(econ.tech, production.gap_profile_star(econ.q))
    h = 1e-6 * econ.theta_bar
    fd_gap = 0.0
    for theta in grid[::7]:
        fd = (
            (theta + h) * D / (H + (theta + h) * D)
            - (theta - h) * D / (H + (theta - h) * D)
        ) / (2 * h)
        fd_gap = max(fd_gap, abs(D * H / (H + theta * D) ** 2 - fd))
    ok = margins > 1e-12 and fd_gap <= 1e-8
    report(
        12, "integration-cost-statics", ok,
        f"strictness margin {margins:.3e} > 1e-12, dm/dtheta gap {fd_gap:.3e} <= 1e-8",
    )


def test_criterion_13_competitive_support(econ):
    w = competitive.support_wages(econ)
    from specint.learning import gamma_index

    A = gamma_index(econ.tech, econ.q * (1 - econ.q))
    resid = max(
        abs(w.w_S - w.w_M - w.delta_q),
        abs(w.w_S + w.beta * w.w_M - w.V_tilde),
        abs(w.V_tilde - w.w_S - econ.theta * w.w_M * A),
    )
    bound = competitive.ratio_bound(econ)
    nd = competitive.no_deviation_check(w, econ, resolution=8, max_atoms=3)
    ok = (
        resid <= 1e-10
        and bound.unique_ok
        and nd.worst_margin >= -1e-9
        and nd.r <= bound.r_bar
    )
    report(
        13, "competitive-support", ok,
        f"wage residuals {resid:.3e} <= 1e-10, worst margin {nd.worst_margin:.3e} >= -1e-9, "
        f"r={nd.r:.4f} <= r_bar={bound.r_bar:.4f}",
    )


def test_criterion_14_determinism(tmp_path):
    entries = dict(DEFAULTS)
    entries.update(
        {
            "oracle.pairs": "80",
            "oracle.frontier_samples": "900",
            "oracle.economies": "10",
            "oracle.br_starts": "2",
            "oracle.resolution": "5",
            "oracle.atoms": "3",
            "sweep.alpha": "0.0:1.0:5",
            "sweep.theta_frac": "0.05:0.95:6",
        }
    )
    cfg = tmp_path / "acc.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    code1 = main(["verify", "--config", str(cfg), "--out", str(out1)])
    code2 = main(["verify", "--config", str(cfg), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(14, "verify-determinism", ok, f"exit codes {code1},{code2}; byte-identical {identical}")
