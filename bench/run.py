"""Benchmark of riskpremia: one closed-loop client, four workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload report-stream --seed 1 --seconds 15 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json; --trace 1
runs a fixed number of operations untraced and then traced, and reports
the per-layer metrics.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
the same figures for people.  See bench/README.md.
"""

from __future__ import annotations

import os

# One client, no threads: numpy's BLAS would otherwise start helper threads
# for long dot products, and their spinning would count as operation time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import selfcheck  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Fresh processes timed per run for setup_s, half before the timed loop and
# half after the checks, so a slow spell of the machine does not set the
# median alone.
SETUP_REPEATS = 8
WARMUP_S = 0.3
# Outputs are checked after every CHECK_EVERY_S of operation time, so the
# measured operations spread over the whole run instead of one stretch of
# it: the machine's speed drifts over seconds to minutes.
CHECK_EVERY_S = 1.0
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
# Whole cycles per 10 s of --seconds in a traced run; the count is fixed by
# the arguments alone, so two traced runs of one seed count the same work.
TRACE_CYCLES_PER_10S = {"report-stream": 40, "theorem-check": 1, "cli-sweep": 1, "lottery-eval": 4}


class OpError:
    """An operation that raised."""

    def __init__(self, exc: Exception):
        self.text = f"{type(exc).__name__}: {exc}"


def load_library():
    if not (SRC / "riskpremia" / "__init__.py").is_file():
        raise SystemExit(f"error: no riskpremia sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import riskpremia

    if Path(riskpremia.__file__).resolve().parent != (SRC / "riskpremia").resolve():
        raise SystemExit(f"error: riskpremia imported from {riskpremia.__file__}, not {SRC}")
    return riskpremia


def measure_setup(wl, seed: int, repeats: int) -> list[float]:
    """setup_s of `repeats` fresh processes, one after the other."""
    job = json.dumps({"imports": list(wl.imports), "specs": wl.specs(seed)})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), job],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        record = json.loads(proc.stdout.splitlines()[-1])
        if not Path(record["module"]).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: set-up probe imported {record['module']}")
        times.append(record["setup_s"])
    return times


def run_op(rp, wl, ctx, i: int):
    """(wall seconds, CPU seconds, digest or OpError) of operation i; input
    generation and digesting stay outside the timed interval."""
    args = wl.prepare(wl.op_input(ctx, i))
    start, cpu = perf_counter(), process_time()
    try:
        out = wl.run(rp, ctx, args)
    except Exception as exc:  # a raising operation counts as failed
        return perf_counter() - start, process_time() - cpu, OpError(exc)
    elapsed, cpu = perf_counter() - start, process_time() - cpu
    return elapsed, cpu, wl.digest(out)


def count_failures(wl, ctx, results) -> int:
    """Failed operations among (index, digest or OpError) pairs."""
    failed = 0
    for i, res in results:
        if isinstance(res, OpError) or not wl.check(ctx, wl.op_input(ctx, i), res):
            failed += 1
            note = res.text if isinstance(res, OpError) else "reference check failed"
            print(f"  failed op {i}: {note}", file=sys.stderr)
    return failed


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n


def measured_run(rp, wl, seed: int, seconds: float) -> tuple[dict, int, int, list[str], list[str]]:
    setup_times = measure_setup(wl, seed, SETUP_REPEATS // 2)
    ctx = wl.setup(rp, seed)
    busy, i = 0.0, 0
    while busy < WARMUP_S:
        busy += run_op(rp, wl, ctx, i)[1]
        i += 1

    gc.collect()
    latencies, pending = [], []
    busy, failed, next_check = 0.0, 0, CHECK_EVERY_S
    while not (busy >= seconds and len(latencies) % wl.cycle == 0):
        i = len(latencies)
        _, elapsed, res = run_op(rp, wl, ctx, i)
        latencies.append(elapsed)
        pending.append((i, res))
        busy += elapsed
        if busy >= next_check:
            failed += count_failures(wl, ctx, pending)
            pending.clear()
            next_check = busy + CHECK_EVERY_S
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = len(latencies)
    failed += count_failures(wl, ctx, pending)
    max_rel_err, n_ladder = wl.ladder(rp)
    setup_times += measure_setup(wl, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / busy,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_ms,
        "fail_ratio": failed / n,
        "max_rel_err": max_rel_err,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh processes",
        "ops_per_s": f"{n} ops in {busy:.3f} s of operation CPU time; {wl.size}",
        "latency_p50_ms": f"{n} samples",
        "latency_tail_ms": f"p{tail_pct:.2f}, {TAIL_BEYOND} of {n} samples beyond it"
        if n > TAIL_BEYOND else f"maximum of {n} samples (too few for a tail percentile)",
        "fail_ratio": f"{failed} failed of {n}",
        "max_rel_err": f"worst of {n_ladder} values on the eps ladder",
        "peak_rss_mb": "ru_maxrss at the end of the timed loop",
    }
    lines = [f"  {k:<16} {v:<14.6g} {UNITS[k]:<6} {notes[k]}" for k, v in metrics.items()]
    return metrics, n, failed, lines, []


def traced_run(rp, wl, seed: int, seconds: float) -> tuple[dict, int, int, list[str], list[str]]:
    n = wl.cycle * max(1, round(TRACE_CYCLES_PER_10S[wl.name] * seconds / 10))
    ctx = wl.setup(rp, seed)
    run_op(rp, wl, ctx, 0)

    start = perf_counter()
    ctx = wl.setup(rp, seed)
    untraced = perf_counter() - start + sum(run_op(rp, wl, ctx, i)[0] for i in range(n))

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        start = perf_counter()
        with tracer.span("bench.setup"):
            ctx = wl.setup(rp, seed)
        traced_setup = perf_counter() - start
        op_time, results = 0.0, []
        for i in range(n):
            with tracer.span("bench.op"):
                elapsed, _, res = run_op(rp, wl, ctx, i)
            tracer.end_op()
            op_time += elapsed
            results.append(res)
    finally:
        restore()

    failed = count_failures(wl, ctx, enumerate(results))
    metrics, spans = tracing.summarize(tracer, OUT / f"trace-{wl.name}-seed{seed}.npz")
    metrics["trace.overhead_ratio"] = (traced_setup + op_time) / untraced
    # every layer span lies inside the timed call of its operation
    spans_ok = spans["min_self_s"] > -1e-6 and spans["layers_self_sum_s"] <= op_time
    lines = [f"  {k:<32} {v:<14.6g} {UNITS[k]}" for k, v in metrics.items()]
    lines.append(
        f"  {spans['spans']} spans, least self time {spans['min_self_s']:.3g} s; layer self times"
        f" sum to {spans['layers_self_sum_s']:.6f} s within {op_time:.6f} s of timed operations"
    )
    problems = [] if spans_ok else ["span self times exceed their wall time"]
    return metrics, n, failed, lines, problems


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


SPEC = load_spec()
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
UNITS["fail_ratio"] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rp = load_library()
    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"one closed-loop client in one process")
    run = traced_run if args.trace else measured_run
    metrics, attempted, failed, lines, problems = run(rp, wl, args.seed, args.seconds)
    print("\n".join(lines))

    problems += selfcheck.oracle_closed_forms() + selfcheck.generator(wl, args.seed)
    for problem in problems:
        print(f"  self-check failed: {problem}")
    names = [m["name"] for m in SPEC["per_layer" if args.trace else "end_to_end"]]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
