"""Smoke tests of the benchmark runner: one short untraced and one short
traced run end to end.

They check the runner's output contract only; they assert nothing about
timings.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(trace: int) -> dict:
    """One short theorem-check run; its final JSON line."""
    proc = subprocess.run(
        [
            sys.executable,
            "bench/run.py",
            "--workload", "theorem-check",
            "--seed", "1",
            "--seconds", "0.3",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return result


def _declared(kind: str) -> set:
    return {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def test_runner_reports_every_end_to_end_metric():
    names = _declared("end_to_end")
    assert len(names) == 6
    assert names <= set(_run(trace=0)["metrics"])


def test_traced_run_reports_every_per_layer_metric():
    # the tracer patches funclib/numerics names; a rename breaks this run
    assert _declared("per_layer") <= set(_run(trace=1)["metrics"])
