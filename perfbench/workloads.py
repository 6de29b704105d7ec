"""Seeded inputs, operations and output checks of the benchmark workloads.

All workloads are closed loops with one client in one process: the next
operation starts only after the previous one has returned and been checked.

verify-suite   repeated full `specint verify` passes (cli.main) on
               scenarios/default.cfg with its own oracle seed.
               The only workload that runs scalar `max_scale`,
               `best_response` and every check in `oracles.CHECKS`.
sweep-stream   a stream of generated economies; each runs `solve` and then
               `sweep --axis b`, `--axis alpha` and `--axis theta` (cli.main).
               Small-batch frontier calls under welfare/politics/reforms; no
               enumerator or best-response work.
design-oracle  generated K=4 economies; each runs the grid design enumerator
               and, when the wage support holds, the grid no-deviation check.
               The enumerator and the large-batch frontier do the work.

Inputs of sweep-stream and design-oracle are drawn from the workload seed
during set-up and written as scenario files; the program receives only
those files (or, for the design-oracle, the scenarios loaded from them). A generated input is never
re-drawn because an operation on it failed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# Tolerances pinned by the engine's own acceptance suite.
IDENTITY_TOL = 1e-10  # productive-optimum identities
ORACLE_TOL = 1e-9  # design-oracle and deviation margins

# Pool sizes (verify passes, economies, enumerator calls) leave room for a
# tenfold speed-up within a 60 s run; a run that exhausts its pool stops
# early rather than repeating generated inputs.
VERIFY_POOL = 64
SWEEP_POOL = 256
DESIGN_POOL = 128

# Names of the entries of specint.oracles.CHECKS, as `verify` reports them.
ORACLE_CHECKS = (
    "coverage-distance-identity", "coverage-and-knowledge-properties", "frontier-bounds",
    "frontier-lipschitz", "concavity-gap", "gamma-lipschitz", "integrator-capacity-bound",
    "productive-optimum-identities", "gap-accounting", "shattering-expansion",
    "design-oracle", "integrator-civic-advantage", "political-equilibrium",
    "vote-share-reciprocity", "welfare-representation", "decomposition-residual",
    "broadening-slope-and-cutoff", "interface-statics", "theta-statics",
    "dispersion-slope-order", "wage-support",
)

SWEEP_GRIDS = {"b": "0.0:1.0:21", "alpha": "0.0:1.0:21", "theta_frac": "0.02:0.98:25"}
SWEEP_ROWS = {"b": 21, "alpha": 21, "theta": 25}
DESIGN_K, DESIGN_RESOLUTION, DESIGN_ATOMS = 4, 6, 3
FAMILIES = ("rational", "exponential")

# Columns that the CLI leaves empty by design: political columns of the
# b-sweep where the integrator layer vanishes, wage columns of `solve`
# when the support conditions fail.
_B_POLITICAL = ("e_pol", "z_pol", "t_S", "t_M", "R", "service_welfare",
                "dispersion", "welfare")
_SOLVE_WAGES = ("delta_q", "beta", "w_S", "w_M")


@dataclass
class Op:
    """One timed operation: `run(mark)` is timed and calls mark() at its
    internal boundaries (where the host-speed reference is sampled);
    `inspect` checks its output and returns (work units, list of problems)
    outside the timed region."""

    label: str
    run: Callable[[Callable[[], None]], object]
    inspect: Callable[[object], tuple[int, list[str]]]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quiet_cli(argv: list[str]) -> int:
    """Run `specint <argv>` in-process, discarding what it prints."""
    from specint import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def verify_marked(argv: list[str], mark) -> int:
    """`quiet_cli(argv)` for `verify`, calling mark() after each check."""
    from specint import oracles

    checks = oracles.CHECKS

    def marked(check):
        def run_check(*args, **kwargs):
            try:
                return check(*args, **kwargs)
            finally:
                mark()
        return run_check

    oracles.CHECKS = tuple(marked(c) for c in checks)
    try:
        return quiet_cli(argv)
    finally:
        oracles.CHECKS = checks


# ---------------------------------------------------------------------------
# scenario generation (independent of the engine's own code)


def _ell(family: str, c: float, s: np.ndarray) -> np.ndarray:
    if family == "rational":
        return (1.0 + c) * s / (1.0 + c * s)
    return (1.0 - np.exp(-c * s)) / (1.0 - math.exp(-c))


def _ell_prime(family: str, c: float, s: float) -> float:
    if family == "rational":
        return (1.0 + c) / (1.0 + c * s) ** 2
    return c * math.exp(-c * s) / (1.0 - math.exp(-c))


def coordination_cutoff(family: str, c: float) -> float:
    """theta_bar = min(c_ell/L, 1/(2L)), L = ell_bar + 2 ell_bar^3/ell_under,
    with c_ell the concavity gap minimized on a 1e-4 grid (README formulas)."""
    s = np.linspace(0.0, 1.0, 10_001)[1:-1]
    bar, under = _ell_prime(family, c, 0.0), _ell_prime(family, c, 1.0)
    phi = (_ell(family, c, s) - s) / (s * (1.0 - s))
    c_ell = min(float(phi.min()), bar - 1.0, 1.0 - under)
    L = bar + 2.0 * bar**3 / under
    return min(c_ell / L, 1.0 / (2.0 * L))


def _interior_simplex(rng: np.random.Generator, K: int) -> np.ndarray:
    mixed = 0.85 * rng.dirichlet(np.ones(K)) + 0.15 / K
    return mixed / mixed.sum()


def _ell_inverse(family: str, c: float, y: float) -> float:
    if family == "rational":
        return y / (1.0 + c - c * y)
    return -math.log1p(-y * (1.0 - math.exp(-c))) / c


def diffuseness_bound(family: str, c: float, u: np.ndarray) -> float:
    """Upper bound on p of the diffuse-civic-relevance test (README):
    log((u_(1)+u_(2))/u_(K)) / -log(K * ell^{-1}(1/K))."""
    K = u.size
    us = np.sort(u)
    return math.log((us[0] + us[1]) / us[-1]) / -math.log(K * _ell_inverse(family, c, 1.0 / K))


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def draw_economy(rng: np.random.Generator, K: int, family: str) -> dict[str, str]:
    """Scenario entries of one random economy: interior q, theta a fraction
    of its coordination cutoff, varied V, eta and tau.

    The civic side is drawn inside the diffuse regime, the hypothesis of the
    integrator civic-advantage result: u stays within 10% of uniform (so
    u_(1)+u_(2) > u_(K) for K <= 5) and p is a fraction of its bound.
    `sweep --axis theta` refuses economies outside that regime (see
    CHANGES.md), so drawing there would measure a refusal, not a sweep."""
    param = float(rng.uniform(0.5, 3.0))
    q = _interior_simplex(rng, K)
    u = 0.1 * rng.dirichlet(np.ones(K)) + 0.9 / K
    u = u / u.sum()
    p = float(rng.uniform(0.1, 0.9)) * diffuseness_bound(family, param, u)
    theta = float(rng.uniform(0.05, 0.9)) * coordination_cutoff(family, param)
    return {
        "learning.family": family,
        "learning.param": repr(param),
        "economy.q": _floats(q),
        "economy.u": _floats(u),
        "economy.p": repr(p),
        "economy.theta": repr(theta),
        "economy.v": repr(float(rng.uniform(5.0, 40.0))),
        "gov.eta": repr(float(rng.uniform(0.3, 0.8))),
        "gov.c0": "0.125",
        "gov.tau": repr(float(rng.uniform(0.1, 0.7))),
        "gov.lambda0": "1.0",
    }


def write_cfg(path: Path, entries: dict[str, str]) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()), encoding="utf-8")
    return path


def cornerization_enumerated(x: np.ndarray, resolution: int, atoms: int) -> bool:
    """Whether the all-corner design with mix x is in the grid search space:
    x on the 1/resolution grid with at most `atoms` nonzero coordinates."""
    k = np.asarray(x) * resolution
    steps = np.round(k)
    return bool(np.abs(k - steps).max() <= 1e-9 and np.count_nonzero(steps) <= atoms)


def design_space_size(K: int, resolution: int, atoms: int) -> int:
    """Candidate designs on the grid: sum_a C(P,a) C(res-1,a-1), P grid points."""
    P = math.comb(resolution + K - 1, K - 1)
    return sum(math.comb(P, a) * math.comb(resolution - 1, a - 1) for a in range(1, atoms + 1))


# ---------------------------------------------------------------------------
# output checks


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _numeric(header, row, where, empty_ok=()) -> tuple[dict[str, float], list[str]]:
    values, problems = {}, []
    for key, text in zip(header, row):
        if key == "family":
            continue
        if text == "" and key in empty_ok:
            continue
        try:
            value = float(text)
        except ValueError:
            problems.append(f"{where}: {key}={text!r} is not a number")
            continue
        if not math.isfinite(value):
            problems.append(f"{where}: {key}={text} is not finite")
        values[key] = value
    if len(row) != len(header):
        problems.append(f"{where}: {len(row)} fields for {len(header)} columns")
    return values, problems


def check_solve_csv(path: Path) -> list[str]:
    """Finite values and the closed-form identities of the optimum."""
    header, rows = _read_csv(path)
    if len(rows) != 1:
        return [f"solve: {len(rows)} rows, expected 1"]
    v, problems = _numeric(header, rows[0], "solve", empty_ok=_SOLVE_WAGES)
    if problems:
        return problems
    K = int(v["K"])
    q = np.array([v[f"q_{i + 1}"] for i in range(K)])
    h = np.array([v[f"h_star_{i + 1}"] for i in range(K)])
    D = 1.0 - float(q @ q)
    H, theta, V, tau = v["H_hstar"], v["theta"], v["V"], v["tau"]
    residuals = {
        "h_star": float(np.abs(h - q * (1.0 - q) / D).max()),
        "m_star": abs(v["m_star"] - theta * D / (H + theta * D)),
        "Y_star": abs(v["Y_star"] - V * H / (H + theta * D)),
        "welfare": abs(v["welfare"] - ((1.0 - tau) * v["Y"] + v["service_welfare"])),
    }
    return [f"solve: {k} identity residual {r:.3e} > {IDENTITY_TOL:g}"
            for k, r in residuals.items() if not r <= IDENTITY_TOL]


def check_sweep_csv(path: Path, axis: str) -> tuple[int, list[str]]:
    header, rows = _read_csv(path)
    problems = []
    if len(rows) != SWEEP_ROWS[axis]:
        problems.append(f"sweep {axis}: {len(rows)} rows, expected {SWEEP_ROWS[axis]}")
    for i, row in enumerate(rows):
        empty_ok = ()
        if axis == "b" and row[header.index("m")] in ("0.0", "1.0"):
            empty_ok = _B_POLITICAL
        problems += _numeric(header, row, f"sweep {axis} row {i}", empty_ok)[1]
    return len(rows), problems


def check_verify_csv(path: Path) -> tuple[int, list[str]]:
    header, rows = _read_csv(path)
    if header[:2] != ["check", "status"] or not rows:
        return 0, ["verify: report has no checks"]
    return len(rows), [f"verify: {r[0]} reports {r[1]}" for r in rows
                       if r[1] not in ("pass", "skipped")]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Seeded inputs plus an operation stream.

    op_metric/work_metric are the names under which op_s_p50 and
    work_per_s are printed for this workload; `predicted` lists the spans
    that the traced run must see called (see predictions.json)."""

    name = ""
    op_metric = ""
    work_metric = ""
    predicted: tuple[str, ...] = ()

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.inputs: dict[str, str] = {}

    def _write(self, name: str, entries: dict[str, str]) -> Path:
        path = write_cfg(self.workdir / name, entries)
        self.inputs[name] = digest(path)
        return path

    def generate(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        """Parse and validate every generated scenario through the engine."""
        from specint import load_scenario

        for name in self.inputs:
            if name.endswith(".cfg"):
                load_scenario(str(self.workdir / name))

    def warmup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError


class VerifySuite(Workload):
    name = "verify-suite"
    op_metric = "verify_s"
    work_metric = "checks_per_s"
    predicted = (
        "learning.max_scale", "learning.max_scale_batch", "learning.gamma_index",
        "learning.gamma_index_batch", "production.brute_force_design",
        "competitive.no_deviation_check", "politics.best_response",
        "politics.best_response_fixed_point", "oracles.run_all",
        *(f"oracles.check.{name}" for name in ORACLE_CHECKS),
    )

    def generate(self) -> None:
        # Every pass runs with the scenario's own oracle.seed, as a plain
        # `specint verify` does; the workload seed changes nothing here.
        # Other oracle seeds are not drawn: the welfare-representation check
        # fails on about 2.6% of them (its 1e-8 gap and 1e-10 dispersion
        # thresholds disagree, e.g. `verify --seed 2029167940`), and a run
        # must not fail on a defect of the check rather than of the engine.
        cfg = self.workdir / "default.cfg"
        shutil.copyfile(self.root / "scenarios" / "default.cfg", cfg)
        self.inputs["default.cfg"] = digest(cfg)

    def warmup(self) -> None:
        # A full pass costs as much as a timed one; `solve` warms the same
        # import-time and first-call paths at a fraction of the cost.
        if quiet_cli(["solve", "--config", str(self.workdir / "default.cfg")]) != 0:
            raise RuntimeError("warm-up solve failed")

    def ops(self) -> Iterator[Op]:
        cfg = str(self.workdir / "default.cfg")
        for i in range(VERIFY_POOL):
            out = self.workdir / f"verify_{i}.csv"
            argv = ["verify", "--config", cfg, "--out", str(out)]

            def inspect(code, out=out):
                n, problems = check_verify_csv(out)
                if code != 0:
                    problems.insert(0, f"verify exited {code}")
                return n, problems

            yield Op(f"verify pass {i}",
                     lambda mark, argv=argv: verify_marked(argv, mark), inspect)


class SweepStream(Workload):
    name = "sweep-stream"
    op_metric = "econ_s_p50"
    work_metric = "rows_per_s"
    predicted = (
        "learning.max_scale_batch", "politics.political_equilibrium",
        "welfare.total_welfare", "welfare.decompose_along",
        "reforms.interface_statics", "reforms.theta_statics",
        "reforms.broadening_allocation", "knowledge.system_knowledge",
        "scenario.load_scenario",
    )

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.paths = []
        for i in range(SWEEP_POOL):
            # K and family cycle rather than being drawn, so that every run
            # of a few dozen economies sees the same mix of problem sizes.
            entries = draw_economy(rng, 3 + i % 3, FAMILIES[i % 2])
            entries.update({f"sweep.{k}": v for k, v in SWEEP_GRIDS.items()})
            self.paths.append(self._write(f"econ_{i:03d}.cfg", entries))
        warm = draw_economy(rng, 3, FAMILIES[0])
        warm.update({"sweep.b": "0.0:1.0:3", "sweep.alpha": "0.0:1.0:3",
                     "sweep.theta_frac": "0.1:0.9:3"})
        self.warm = self._write("warmup.cfg", warm)

    def _argvs(self, cfg: Path, tag: str) -> list[tuple[str, Path, list[str]]]:
        out = self.workdir / f"{tag}_solve.csv"
        jobs = [("solve", out, ["solve", "--config", str(cfg), "--out", str(out)])]
        for axis in SWEEP_ROWS:
            out = self.workdir / f"{tag}_{axis}.csv"
            jobs.append((axis, out, ["sweep", "--axis", axis, "--config", str(cfg),
                                     "--out", str(out)]))
        return jobs

    def warmup(self) -> None:
        for _, _, argv in self._argvs(self.warm, "warmup"):
            if quiet_cli(argv) != 0:
                raise RuntimeError(f"warm-up {argv[:3]} failed")

    def ops(self) -> Iterator[Op]:
        for path in self.paths:
            jobs = self._argvs(path, path.stem)

            def run(mark, jobs=jobs):
                codes = []
                for _, _, argv in jobs:
                    codes.append(quiet_cli(argv))
                    mark()
                return codes

            def inspect(codes, jobs=jobs):
                rows, problems = 0, []
                for (kind, out, _), code in zip(jobs, codes):
                    if code != 0:
                        problems.append(f"{kind} exited {code}")
                        continue
                    if kind == "solve":
                        problems += check_solve_csv(out)
                        rows += 1
                    else:
                        n, found = check_sweep_csv(out, kind)
                        rows += n
                        problems += found
                return rows, problems

            yield Op(path.name, run, inspect)


class DesignOracle(Workload):
    name = "design-oracle"
    op_metric = "call_s_p50"
    work_metric = "designs_per_s"
    predicted = (
        "production.brute_force_design", "competitive.no_deviation_check",
        "competitive.support_wages", "learning.gamma_index_batch",
        "learning.max_scale_batch",
    )

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        oracle = {"oracle.resolution": str(DESIGN_RESOLUTION),
                  "oracle.atoms": str(DESIGN_ATOMS)}
        self.paths = [
            self._write(f"design_{i:03d}.cfg",
                        {**draw_economy(rng, DESIGN_K, FAMILIES[i % 2]), **oracle})
            for i in range(DESIGN_POOL)]
        self.warm = self._write("warmup.cfg", {**draw_economy(rng, DESIGN_K, FAMILIES[0]),
                                               "oracle.resolution": "2",
                                               "oracle.atoms": str(DESIGN_ATOMS)})

    def _enumerate(self, path: Path):
        """Grid design search on one economy; returns what the checks need."""
        from specint import competitive, load_scenario, production
        from specint.errors import HypothesisError

        scn = load_scenario(str(path))
        econ = scn.econ
        opt, _ = production.productive_optimum(econ)
        found = production.brute_force_design(
            econ, resolution=scn.resolution, max_atoms=scn.atoms, max_designs=scn.max_designs)
        try:
            wages = competitive.support_wages(econ)
        except HypothesisError:
            wages = None
        return scn, opt, found, wages

    @staticmethod
    def _deviation(scn, wages):
        from specint import competitive

        report = competitive.no_deviation_check(
            wages, scn.econ, resolution=scn.resolution, max_atoms=scn.atoms,
            max_designs=scn.max_designs)
        return report, competitive.ratio_bound(scn.econ).unique_ok

    def warmup(self) -> None:
        scn, _, _, wages = self._enumerate(self.warm)
        if wages is not None:
            self._deviation(scn, wages)

    def ops(self) -> Iterator[Op]:
        expected = design_space_size(DESIGN_K, DESIGN_RESOLUTION, DESIGN_ATOMS)
        for path in self.paths:
            # Filled by the enumerate op's inspect, which the closed loop runs
            # before it draws the next op: the no-deviation check needs the
            # wages found there and is skipped when the support fails.
            state = {}

            def run(mark, path=path):
                return self._enumerate(path)

            def inspect(result, state=state):
                scn, opt, found, wages = result
                state["scn"], state["wages"] = scn, wages
                problems = []
                if not found.Y <= opt.Y_star + ORACLE_TOL:
                    problems.append(f"grid Y {found.Y!r} above Y* {opt.Y_star!r}")
                # Below the coordination cutoff, cornerizing a design at its
                # mix raises its output, so a non-corner winner is wrong only
                # when that cornerization was itself enumerated.
                if (not found.design.is_corner()
                        and cornerization_enumerated(found.x, scn.resolution, scn.atoms)):
                    problems.append("non-corner winner although its cornerization "
                                    "was enumerated")
                if found.n_designs != expected:
                    problems.append(f"n_designs {found.n_designs} != {expected}")
                return expected, problems

            yield Op(f"{path.name} enumerate", run, inspect)
            if state.get("wages") is None:
                continue

            def inspect_dev(result):
                report, unique_ok = result
                problems = []
                if report.n_designs != expected:
                    problems.append(f"n_designs {report.n_designs} != {expected}")
                if unique_ok and not report.worst_margin >= -ORACLE_TOL:
                    problems.append(f"deviation margin {report.worst_margin:.3e}")
                return expected, problems

            yield Op(f"{path.name} no-deviation",
                     lambda mark, s=state: self._deviation(s["scn"], s["wages"]), inspect_dev)


WORKLOADS = {w.name: w for w in (VerifySuite, SweepStream, DesignOracle)}
