"""specint benchmark: seeded closed-loop workloads driven through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-stream --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
each operation once untraced and once traced (alternating which goes
first) and reports the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The machine, versions, seed and scenario digests are
printed on the line `run_info {...}` before it.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS before numpy loads: every workload is single-threaded by design.
BLAS_PIN = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up is sampled this many times per run (this process plus fresh child
# processes, each from process start) and reported as the median.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

# The shared 2-core Xeon host's speed drifts: a fixed numpy loop took 0.33 s
# in one phase and 0.55 s an hour later, and every workload moved with it.
# End-to-end times are therefore reported as host-normalized seconds: wall
# seconds times REFERENCE_NOMINAL_S over the time of reference_s() measured
# next to them. REFERENCE_NOMINAL_S is that kernel's time on this host in a
# quiet phase, so normalized seconds read as wall seconds on a quiet host.
# Raw wall times are printed beside them.
REFERENCE_NOMINAL_S = 0.018

LAYERS = ("learning", "knowledge", "production", "politics", "welfare", "reforms",
          "competitive", "oracles", "scenario", "cli")
END_TO_END = ("setup_s", "op_s_p50", "work_per_s", "peak_rss_mb")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_engine():
    """Import specint from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "specint" / "__init__.py").is_file():
        fail(f"no specint sources under {src}; run from a full checkout")
    if not (ROOT / "scenarios" / "default.cfg").is_file():
        fail("scenarios/default.cfg is missing; run from a full checkout")
    sys.path.insert(0, str(src))
    import specint

    if Path(specint.__file__).resolve().parent != src / "specint":
        fail(f"imported specint from {specint.__file__}, not from {src}")
    return specint


def machine_info() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_PIN,
    }


def reference_s() -> float:
    """Seconds for a fixed numpy kernel shaped like the engine's hot path:
    batch bisection over a (256, 4) array, then scalar reductions."""
    import numpy as np

    a = np.linspace(0.05, 0.95, 1024).reshape(256, 4)
    start = time.perf_counter()
    for _ in range(60):
        lo, hi = np.zeros(256), np.ones(256)
        for _ in range(20):
            mid = 0.5 * (lo + hi)
            over = (mid[:, None] * a).sum(axis=1) > 1.0
            hi = np.where(over, mid, hi)
            lo = np.where(over, lo, mid)
    row = a[0]
    for _ in range(1500):
        float((0.5 * row).sum())
    return time.perf_counter() - start


def set_up(workload_cls, seed: int, workdir: Path):
    """Import, generate and load the scenarios, run one warm-up operation.

    Returns the workload and the set-up sample: wall seconds since this
    script began running, and the reference time measured right after."""
    import_engine()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(ROOT, workdir, seed)
    workload.generate()
    workload.load()
    workload.warmup()
    wall = time.perf_counter() - T0
    return workload, {"wall_s": wall, "ref_s": statistics.median(reference_s() for _ in range(3))}


def probe_setup(workload: str, seed: int) -> dict:
    """One set-up sample from a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SegmentClock:
    """Times one operation in segments split where the operation calls
    mark(). A reference sample at every boundary scales each segment by the
    host speed around it; the samples themselves are not timed."""

    def __init__(self, ref_s: float):
        self.refs = [ref_s]
        self.wall_s = self.normalized_s = 0.0
        self._start = time.perf_counter()

    def mark(self) -> None:
        segment = time.perf_counter() - self._start
        self.refs.append(reference_s())
        self.wall_s += segment
        self.normalized_s += segment * REFERENCE_NOMINAL_S / (0.5 * sum(self.refs[-2:]))
        self._start = time.perf_counter()


def _no_mark() -> None:
    pass


def _attempt(op, log, context=contextlib.nullcontext, clock=None) -> tuple[float, int, bool]:
    """Run one operation inside `context()`, timed by `clock` if given, then
    check its output outside the timed region; returns (seconds, work units,
    passed)."""
    raised = False
    start = time.perf_counter()
    try:
        with context():
            output = op.run(clock.mark if clock else _no_mark)
    except Exception:  # noqa: BLE001 - an operation that raises is a failed operation
        raised = True
        log(f"FAILED {op.label}: raised\n{traceback.format_exc()}")
    if clock:
        clock.mark()
        seconds = clock.wall_s
    else:
        seconds = time.perf_counter() - start
    if raised:
        return seconds, 0, False
    try:
        units, problems = op.inspect(output)
    except Exception:  # noqa: BLE001 - an unreadable output fails the check
        units, problems = 0, [traceback.format_exc()]
    for problem in problems[:5]:
        log(f"FAILED {op.label}: {problem}")
    return seconds, units, not problems


def log_stderr(message: str) -> None:
    print(message, file=sys.stderr)


def measure(ops, seconds: float, log=log_stderr) -> dict:
    """Closed loop, one client: run operations until `seconds` have passed.

    Each operation is timed by a SegmentClock, so it has a wall time and a
    host-normalized time."""
    times, normalized, refs, units, attempted, failed = [], [], [reference_s()], 0, 0, 0
    start = time.perf_counter()
    for op in ops:
        clock = SegmentClock(refs[-1])
        dt, n, ok = _attempt(op, log, clock=clock)
        refs += clock.refs[1:]
        attempted += 1
        times.append(dt)
        normalized.append(clock.normalized_s)
        units += n
        failed += not ok
        if time.perf_counter() - start >= seconds:
            break
    return {"times": times, "normalized": normalized, "refs": refs, "units": units,
            "attempted": attempted, "failed": failed}


@contextlib.contextmanager
def _traced_operation(tracing, rec):
    with tracing.traced(rec), rec.operation():
        yield


def measure_traced(ops, seconds: float, predicted=(), log=log_stderr):
    """Each operation untraced and traced, alternating the order, for half
    the run length (every operation runs twice), or longer, up to the full
    length, until every predicted span has been recorded."""
    import tracing

    rec = tracing.SpanRecorder()
    plain = traced_s = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    for k, op in enumerate(ops):
        for traced_turn in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_turn:
                dt, _, ok = _attempt(op, log, lambda: _traced_operation(tracing, rec))
                traced_s += dt
            else:
                dt, _, ok = _attempt(op, log)
                plain += dt
            attempted += 1
            failed += not ok
        elapsed = time.perf_counter() - start
        seen_all = not tracing.unrecorded(rec, predicted)
        if elapsed >= seconds or (elapsed >= seconds / 2 and seen_all):
            break
    return rec, {"attempted": attempted, "failed": failed,
                 "overhead_pct": 100.0 * (traced_s / plain - 1.0) if plain else 0.0}


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workdir = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        try:
            workload, setup = set_up(WORKLOADS[args.workload], args.seed, workdir)
        except Exception as exc:  # noqa: BLE001 - set-up failure ends the run without a result
            traceback.print_exc()
            fail(f"set-up failed: {exc}", 1)
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        info = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, **machine_info()}
        if args.trace:
            return report_traced(workload, args, info)
        return report_plain(workload, args, info, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _used_inputs(workload, attempted: int) -> dict:
    """Digests of the generated scenarios: all combined, and the first ones."""
    listing = "".join(f"{k}={v}\n" for k, v in sorted(workload.inputs.items()))
    return {"inputs_generated": len(workload.inputs),
            "inputs_digest": hashlib.sha256(listing.encode()).hexdigest(),
            "inputs": dict(list(workload.inputs.items())[: max(attempted, 2)])}


def report_plain(workload, args, info, setup) -> int:
    result = measure(workload.ops(), args.seconds)
    samples = [setup] + [probe_setup(workload.name, args.seed)
                         for _ in range(SETUP_SAMPLES - 1)]
    setup_wall = [s["wall_s"] for s in samples]
    setup_norm = [s["wall_s"] * REFERENCE_NOMINAL_S / s["ref_s"] for s in samples]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times, normalized = result["times"], result["normalized"]
    metrics = {  # keys are END_TO_END; times are host-normalized seconds
        "setup_s": (statistics.median(setup_norm), "s"),
        "op_s_p50": (statistics.median(normalized), "s"),
        "work_per_s": (result["units"] / sum(normalized), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload.name} seed={args.seed} closed loop, 1 client, "
          f"{attempted} operations in {sum(times):.2f} s wall ==")
    print(f"  {'':<16} {'normalized':>12} {'raw wall':>12}")
    rows = {
        workload.op_metric: (metrics["op_s_p50"][0], statistics.median(times),
                             f"s, median of {len(times)}"),
        workload.work_metric: (metrics["work_per_s"][0], result["units"] / sum(times), "1/s"),
        "setup_s": (metrics["setup_s"][0], statistics.median(setup_wall),
                    f"s, median of {len(samples)}"),
    }
    for name, (norm, raw, unit) in rows.items():
        print(f"  {name:<16} {norm:>12.6g} {raw:>12.6g}  {unit}")
    print(f"  {'peak_rss_mb':<16} {rss_mb:>12.6g} {'':>12}  MB")
    print(f"  {'error_rate':<16} {failed / attempted:>12.6g} {'':>12}  "
          f"({failed} failed / {attempted} attempted)")
    info.update(_used_inputs(workload, attempted), setup_samples=samples,
                reference_nominal_s=REFERENCE_NOMINAL_S,
                reference_s_p50=statistics.median(result["refs"]))
    return _emit(info, attempted, failed, metrics)


def report_traced(workload, args, info) -> int:
    import tracing
    from workloads import ORACLE_CHECKS

    rec, result = measure_traced(workload.ops(), args.seconds, workload.predicted)
    tracing.assert_predicted(rec, workload.predicted)
    metrics = tracing.layer_metrics(rec, list(ORACLE_CHECKS), list(LAYERS))
    metrics["trace_overhead_pct"] = (result["overhead_pct"], "%")
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {workload.name} seed={args.seed} traced, {rec.n_ops} traced operations ==")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<56} {value:.6g} {unit}")
    info.update(_used_inputs(workload, attempted), traced_ops=rec.n_ops)
    return _emit(info, attempted, failed, metrics)


def _emit(info: dict, attempted: int, failed: int, metrics: dict) -> int:
    """Print the run record, then the result object as the last line."""
    print("run_info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    from workloads import WORKLOADS

    summary, correct, attempted, failed = {}, True, 0, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}", 1)
        last = json.loads(lines[-1])
        summary[name] = last["metrics"]
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
