"""Span recorder for the traced benchmark run.

Every public function of every loaded `specint` module, except UNWRAPPED,
is wrapped in each module namespace that binds it: `from .learning import
max_scale` copies the function into `politics`, `welfare`, `oracles` and
others, so a wrapper in `learning` alone would miss those calls. The suite's `oracles.CHECKS` tuple
is wrapped too, one span per check. Originals are restored on exit.

A span records its name, start, end, parent span and the id of the
operation it belongs to. Self time is a span's duration minus the part its
child spans cover; spans nest strictly (one thread), so that part is the sum
of the direct children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from collections import defaultdict

import numpy as np


def _rows(position: int, keyword: str):
    def count(args, kwargs, result):
        arr = args[position] if len(args) > position else kwargs[keyword]
        return int(np.shape(arr)[0])
    return count


def _n_designs(args, kwargs, result):
    return int(result.n_designs)


# Work done per call, counted at the layer boundary.
WORK = {
    "learning.max_scale_batch": _rows(1, "directions"),
    "learning.gamma_index_batch": _rows(1, "Z"),
    "production.brute_force_design": _n_designs,
    "competitive.no_deviation_check": _n_designs,
}


# A scalar helper that politics.best_response calls about 2.5M times per
# verify pass, at well under a span's own cost. It stays unwrapped and its
# time counts as its caller's self time.
UNWRAPPED = frozenset({"politics.vote_share_slope"})


class SpanRecorder:
    """Collects spans of the current operation and folds them into
    per-name totals when the operation ends."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op, work)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.work = defaultdict(int)
        self.op_wall = 0.0
        self.untraced_s = 0.0
        self.n_ops = 0
        self._stack: list[int] = []
        self._op: int | None = None
        self._next = 0

    def wrap(self, fn, name: str | None = None, rename=None):
        """Wrapper recording one span per call of fn. `rename(result)` names
        the span from its result (the suite's checks carry their own name)."""
        rec = self
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._op is None:
                return fn(*args, **kwargs)
            sid = rec._next
            rec._next += 1
            parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                span_name = rename(result) if rename and result is not None else name
                units = work(args, kwargs, result) if work and result is not None else 0
                rec.spans.append((sid, parent, span_name, start, end, rec._op, units))

        return traced

    @contextlib.contextmanager
    def operation(self):
        """Spans recorded inside share one operation id."""
        self._op = self.n_ops
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            self._op = None
            self._fold(wall)

    def _fold(self, wall: float) -> None:
        covered = defaultdict(float)
        for sid, parent, name, start, end, op, units in self.spans:
            if parent is not None:
                covered[parent] += end - start
        top = 0.0
        for sid, parent, name, start, end, op, units in self.spans:
            duration = end - start
            self.calls[name] += 1
            self.incl_s[name] += duration
            self.self_s[name] += duration - covered[sid]
            self.work[name] += units
            if parent is None:
                top += duration
        self.spans.clear()
        self.op_wall += wall
        self.untraced_s += wall - top
        self.n_ops += 1


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('specint.')}.{fn.__name__}"


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Install wrappers on every public specint function; restore on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "specint" or n.startswith("specint.")]
    wrappers: dict = {}
    patched: list[tuple] = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith("specint")
                    or _span_name(value) in UNWRAPPED):
                continue
            if value not in wrappers:
                wrappers[value] = recorder.wrap(value, _span_name(value))
            setattr(module, attr, wrappers[value])
            patched.append((module, attr, value))
    oracles = sys.modules.get("specint.oracles")
    checks = getattr(oracles, "CHECKS", None)
    if checks is not None:
        oracles.CHECKS = tuple(
            recorder.wrap(c, _span_name(c), rename=lambda r: f"oracles.check.{r.name}")
            for c in checks)
    try:
        yield recorder
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
        if checks is not None:
            oracles.CHECKS = checks


def layer_metrics(rec: SpanRecorder, check_names: list[str], layers: list[str]) -> dict:
    """Per-layer metrics, each per traced operation unless it is a ratio."""
    n = max(rec.n_ops, 1)
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (rec.calls[name] / n, "count/op")

    def self_s(name):
        out[f"{name}.self_s"] = (rec.self_s[name] / n, "s/op")

    def per(value, base):
        return value / base if base else 0.0

    for name in ("learning.max_scale", "learning.gamma_index",
                 "production.productive_optimum", "production.minimal_allocation",
                 "politics.political_equilibrium", "politics.governance_star",
                 "politics.best_response", "welfare.total_welfare",
                 "welfare.decompose_along", "knowledge.system_knowledge"):
        calls(name)
        self_s(name)
    ms = "learning.max_scale"
    out[f"{ms}.us_per_call"] = (per(rec.self_s[ms] * 1e6, rec.calls[ms]), "us")
    msb = "learning.max_scale_batch"
    calls(msb)
    self_s(msb)
    out[f"{msb}.rows"] = (rec.work[msb] / n, "count/op")
    out[f"{msb}.rows_per_call"] = (per(rec.work[msb], rec.calls[msb]), "count")
    out[f"{msb}.us_per_row"] = (per(rec.self_s[msb] * 1e6, rec.work[msb]), "us")
    gib = "learning.gamma_index_batch"
    out[f"{gib}.rows"] = (rec.work[gib] / n, "count/op")
    self_s(gib)
    for name in ("production.brute_force_design", "competitive.no_deviation_check"):
        out[f"{name}.designs"] = (rec.work[name] / n, "count/op")
        self_s(name)
        out[f"{name}.designs_per_s"] = (per(rec.work[name], rec.incl_s[name]), "1/s")
    calls("competitive.support_wages")
    fp = "politics.best_response_fixed_point"
    calls(fp)
    out[f"{fp}.rounds_per_call"] = (per(rec.calls["politics.best_response"], rec.calls[fp]),
                                    "count")
    self_s("reforms.interface_statics")
    self_s("reforms.theta_statics")
    calls("reforms.broadening_allocation")
    self_s("scenario.load_scenario")
    for check in check_names:
        name = f"oracles.check.{check}"
        out[f"{name}.s"] = (rec.incl_s[name] / n, "s/op")
    by_layer = defaultdict(float)
    for name, value in rec.self_s.items():
        by_layer[name.split(".", 1)[0]] += value
    for layer in layers:
        out[f"layer.{layer}.self_pct"] = (100.0 * per(by_layer[layer], rec.op_wall), "%")
    out["layer.untraced_pct"] = (100.0 * per(rec.untraced_s, rec.op_wall), "%")
    out["traced_op_s"] = (rec.op_wall / n, "s/op")
    return out


def unrecorded(rec: SpanRecorder, predicted) -> list[str]:
    return [name for name in predicted if rec.calls[name] == 0]


def assert_predicted(rec: SpanRecorder, predicted) -> None:
    """Each layer predicted for a workload must have recorded a call there."""
    if missing := unrecorded(rec, predicted):
        raise RuntimeError(f"traced run recorded no call to {', '.join(missing)}")
