"""Self-tests of the benchmark itself. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. The same seed generates byte-identical scenario files; another seed does
   not, except for verify-suite, whose input does not depend on the seed.
2. A deliberately corrupted output trips the output check and is counted as
   a failed operation (error_rate = failed / attempted).
3. The metric names the benchmark prints match BENCHMARK.json.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import numpy as np
import tracing
import workloads


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_seed_determinism(tmp: Path) -> None:
    for name, cls in workloads.WORKLOADS.items():
        generated = []
        for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
            out = tmp / f"{name}-{tag}"
            out.mkdir()
            workload = cls(run.ROOT, out, seed)
            workload.generate()
            generated.append(_files(out))
        assert generated[0] == generated[1], f"{name}: same seed, different files"
        if cls is workloads.VerifySuite:
            assert generated[0] == generated[2], f"{name}: input depends on the seed"
        else:
            assert generated[0] != generated[2], f"{name}: seeds 7 and 8 give the same files"
        print(f"ok  {name}: seed 7 twice gives {len(generated[0])} identical files")


def _corrupt_solve_csv(path: Path) -> None:
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    col = header.split(",").index("Y_star")
    fields = rows[0].split(",")
    fields[col] = repr(float(fields[col]) * (1.0 + 1e-6))
    path.write_text("\r\n".join([header, ",".join(fields)]) + "\r\n", encoding="utf-8")


def test_corrupted_sweep_output(tmp: Path) -> None:
    workload = workloads.SweepStream(run.ROOT, tmp / "corrupt", seed=3)
    workload.workdir.mkdir()
    workload.generate()
    good, bad = [op for op, _ in zip(workload.ops(), range(2))]
    solve_csv = workload.workdir / f"{Path(bad.label).stem}_solve.csv"

    def corrupted_run(mark, run_op=bad.run):
        codes = run_op(mark)
        _corrupt_solve_csv(solve_csv)
        return codes

    bad = dataclasses.replace(bad, run=corrupted_run)
    messages = []
    result = run.measure([good, bad], seconds=1e9, log=messages.append)
    assert (result["attempted"], result["failed"]) == (2, 1), result
    assert any("Y_star identity" in m for m in messages), messages
    print(f"ok  sweep-stream: perturbed Y_star counted, error_rate "
          f"{result['failed']}/{result['attempted']}")


def test_corrupted_verify_report(tmp: Path) -> None:
    report = tmp / "verify.csv"
    report.write_text("check,status,metric,tolerance,note\r\n"
                      "frontier-bounds,pass,0.0,1e-10,\r\n"
                      "design-oracle,fail,1.0,1e-09,\r\n", encoding="utf-8")
    n, problems = workloads.check_verify_csv(report)
    assert n == 2 and problems == ["verify: design-oracle reports fail"], problems
    print("ok  verify-suite: a failed check trips the output check")


def test_corrupted_design_result(tmp: Path) -> None:
    workload = workloads.DesignOracle(run.ROOT, tmp / "design", seed=3)
    workload.workdir.mkdir()
    workload.generate()
    scn, opt, found, wages = workload._enumerate(workload.warm)
    op = next(workload.ops())
    inflated = dataclasses.replace(found, Y=opt.Y_star + 1e-6)
    _, problems = op.inspect((scn, opt, inflated, wages))
    assert any("above Y*" in p for p in problems), problems
    print("ok  design-oracle: a grid output above Y* trips the output check")


def test_cornerization_space() -> None:
    sixth = np.array([2.0, 3.0, 1.0, 0.0]) / 6.0
    assert workloads.cornerization_enumerated(sixth, 6, 3)
    assert not workloads.cornerization_enumerated(np.array([1, 2, 2, 1]) / 6.0, 6, 3)
    assert not workloads.cornerization_enumerated(np.array([3, 5, 0, 1]) / 9.0, 6, 3)
    print("ok  design-oracle: corner requirement applies only inside the search space")


def test_metric_names() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = tracing.layer_metrics(tracing.SpanRecorder(), list(workloads.ORACLE_CHECKS),
                                  list(run.LAYERS))
    assert [m["name"] for m in spec["per_layer"]] == [*layer, "trace_overhead_pct"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    print(f"ok  BENCHMARK.json names match ({len(layer) + 1} per-layer metrics)")


def main() -> int:
    run.import_engine()
    tmp = run.HERE / ".work" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        test_seed_determinism(tmp)
        test_corrupted_sweep_output(tmp)
        test_corrupted_verify_report(tmp)
        test_corrupted_design_result(tmp)
        test_cornerization_space()
        test_metric_names()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
