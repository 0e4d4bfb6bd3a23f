"""Traced runs: spans and counts at the boundary of each riskpremia layer.

install() wraps the public functions and methods of funclib, numerics,
premia, evalcore, comparative and cli by patching module and class
attributes from here; the library itself is not changed.  A function is
replaced under every name that refers to it in any riskpremia module, so
names imported by other modules (funclib's find_root, cli's
premium_report, ...) are traced as well.

Spans (name, start, end, parent) and counts are kept in memory and written
out once at the end.  A span's self time is its duration minus the
durations of its child spans; a layer's self time sums its spans' self
times over the measured operations.
"""

from __future__ import annotations

import dataclasses
import inspect
import io
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("funclib", "numerics", "premia", "evalcore", "comparative", "cli")
FUNCLIB_METHODS = {
    "UtilityFn": ("value", "d1", "d2", "inverse"),
    "WeightingFn": ("value", "d1", "d2", "inverse", "dual"),
    "ConcaveTransform": ("value", "d1", "d2", "inverse"),
}
CONSTRUCTORS = ("parse_utility", "parse_weighting", "parse_transform", "concavify")
CONDITIONS = (
    "check_index_dominance",
    "check_premium_dominance_dt",
    "check_concave_composition",
    "check_cross_ratio",
)
EVALUATIONS = ("evaluate_rdu", "evaluate_dual_form")


class Tracer:
    """In-memory span and count recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids: list[int] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.report_depth = 0
        self.op_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, prepare=None, finish=None):
        """fn recorded as span `name`; prepare(args, kwargs) may return new
        (args, kwargs) and runs before the span starts, finish(args, result)
        after it ends."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if finish is not None:
                finish(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _open(self, nid: int) -> int:
        idx = len(self.name_ids)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up or one operation)."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def end_op(self) -> None:
        self.counts["funclib.unique_scalar_calls"] += len(self.op_keys)
        self.op_keys.clear()

    # ----- counting hooks ------------------------------------------------

    def _funclib_hook(self, method: str):
        counts = self.counts

        def prepare(args, kwargs):
            counts["funclib.calls"] += 1
            if self.report_depth:
                counts["premia.report_fn_calls"] += 1
            if method == "inverse":
                counts["funclib.inverse_calls"] += 1
            obj, x = args[0], args[1]
            if np.ndim(x) == 0:
                counts["funclib.scalar_calls"] += 1
                self.op_keys.add((type(obj).__name__, obj.spec, method, float(x)))
            else:
                counts["funclib.array_elems"] += int(np.size(x))
            return args, kwargs

        return prepare

    def _find_root_prepare(self, args, kwargs):
        counts = self.counts
        counts["numerics.find_root_calls"] += 1
        spec = args[0]
        objective = spec.objective

        def counted(x):
            counts["numerics.objective_evals"] += 1
            return objective(x)

        return (dataclasses.replace(spec, objective=counted),) + args[1:], kwargs

    def _count(self, key: str):
        def prepare(args, kwargs):
            self.counts[key] += 1
            return args, kwargs

        return prepare

    def _theorem_finish(self, args, report):
        self.counts["comparative.grid_points"] += sum(c.n_points for c in report.conditions)
        self.counts["comparative.failing_conditions"] += sum(not c.holds for c in report.conditions)

    def _cli_finish(self, args, code):
        if isinstance(sys.stdout, io.StringIO):
            self.counts["cli.output_bytes"] += len(sys.stdout.getvalue().encode())

    def _lottery_prepare(self, args, kwargs):
        self.counts["evalcore.lottery_builds"] += 1
        self.counts["evalcore.states"] += len(args[0].states)
        return args, kwargs

    def _report_prepare(self, args, kwargs):
        self.counts["premia.report_calls"] += 1
        self.report_depth += 1
        return args, kwargs

    def _report_finish(self, args, result):
        self.report_depth -= 1

    def _hooks(self, layer: str, name: str):
        if name == "find_root":
            return self._find_root_prepare, None
        if name == "premium_report":
            return self._report_prepare, self._report_finish
        if layer == "premia" and name.endswith(("_exact", "_approx")):
            return self._count("premia.kernel_calls"), None
        if name in ("check_theorem1", "check_theorem2"):
            return self._count("comparative.theorem_calls"), self._theorem_finish
        if name in CONDITIONS:
            return self._count("comparative.condition_calls"), None
        if name in EVALUATIONS:
            return self._count("evalcore.evaluate_calls"), None
        if layer == "cli" and name == "main":
            return self._count("cli.invocations"), self._cli_finish
        return None, None


def install(tracer: Tracer):
    """Patch every layer's public functions; returns a function that undoes it."""
    import riskpremia.cli  # noqa: F401  (the package does not import its cli)

    modules = [m for n, m in sys.modules.items() if n == "riskpremia" or n.startswith("riskpremia.")]
    undo = []

    def replace_everywhere(original, wrapped):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    undo.append((module, attr, original))

    for layer in LAYERS:
        module = sys.modules[f"riskpremia.{layer}"]
        for name, fn in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            prepare, finish = tracer._hooks(layer, name)
            replace_everywhere(fn, tracer.wrap(f"{layer}.{name}", fn, prepare, finish))

    funclib = sys.modules["riskpremia.funclib"]
    for cls_name, methods in FUNCLIB_METHODS.items():
        cls = getattr(funclib, cls_name)
        for method in methods:
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(
                f"funclib.{cls_name}.{method}", original, tracer._funclib_hook(method)))
            undo.append((cls, method, original))

    lottery = sys.modules["riskpremia.evalcore"].Lottery
    original = lottery.__dict__["__post_init__"]
    lottery.__post_init__ = tracer.wrap("evalcore.Lottery.build", original, tracer._lottery_prepare)
    undo.append((lottery, "__post_init__", original))

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def summarize(tracer: Tracer, out_path: Path) -> tuple[dict, dict]:
    """(per-layer metrics, span consistency figures) from the recorded
    spans and counts.  Writes the spans to out_path (.npz) and the counts
    next to it (.json)."""
    name_id = np.asarray(tracer.name_ids, dtype=np.int32)
    parent = np.asarray(tracer.parents, dtype=np.int64)
    start = np.asarray(tracer.starts)
    end = np.asarray(tracer.ends)
    names = np.asarray(tracer.names)
    dur = end - start
    has_parent = parent >= 0
    child = np.zeros(len(dur))
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    root = np.arange(len(dur))
    for i in np.flatnonzero(has_parent):
        root[i] = root[parent[i]]
    in_ops = names[name_id[root]] == "bench.op"
    layer = np.array([n.split(".")[0] for n in tracer.names])[name_id]

    span_names = names[name_id]
    constructing = np.isin(names, [f"funclib.{n}" for n in CONSTRUCTORS])[name_id]
    top_construct = constructing & ~(has_parent & constructing[np.maximum(parent, 0)])

    c = tracer.counts
    metrics = {
        "funclib.calls": c["funclib.calls"],
        "funclib.scalar_calls": c["funclib.scalar_calls"],
        "funclib.array_elems": c["funclib.array_elems"],
        "funclib.inverse_calls": c["funclib.inverse_calls"],
        "funclib.unique_call_ratio": _ratio(c["funclib.unique_scalar_calls"], c["funclib.scalar_calls"]),
        "funclib.construct_s": float(dur[top_construct].sum()),
        "numerics.find_root_calls": c["numerics.find_root_calls"],
        "numerics.objective_evals": c["numerics.objective_evals"],
        "numerics.evals_per_root": _ratio(c["numerics.objective_evals"], c["numerics.find_root_calls"]),
        "premia.kernel_calls": c["premia.kernel_calls"],
        "premia.report_calls": c["premia.report_calls"],
        "premia.fn_calls_per_report": _ratio(c["premia.report_fn_calls"], c["premia.report_calls"]),
        "evalcore.lottery_builds": c["evalcore.lottery_builds"],
        "evalcore.states": c["evalcore.states"],
        "evalcore.build_s": float(dur[span_names == "evalcore.Lottery.build"].sum()),
        "evalcore.evaluate_calls": c["evalcore.evaluate_calls"],
        "comparative.theorem_calls": c["comparative.theorem_calls"],
        "comparative.condition_calls": c["comparative.condition_calls"],
        "comparative.grid_points": c["comparative.grid_points"],
        "comparative.failing_conditions": c["comparative.failing_conditions"],
        "cli.invocations": c["cli.invocations"],
        "cli.output_bytes": c["cli.output_bytes"],
    }
    for name in LAYERS:
        metrics[f"{name}.self_s"] = float(self_time[in_ops & (layer == name)].sum())

    checks = {
        "spans": int(len(dur)),
        "min_self_s": float(self_time.min()) if len(dur) else 0.0,
        "layers_self_sum_s": float(sum(metrics[f"{name}.self_s"] for name in LAYERS)),
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(out_path, names=names, name_id=name_id, parent=parent, start=start, end=end)
    out_path.with_suffix(".json").write_text(
        json.dumps({"counts": dict(sorted(c.items())), "metrics": metrics, "spans": checks}, indent=1)
    )
    return metrics, checks


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
