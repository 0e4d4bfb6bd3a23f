"""Smoke test of the benchmark runner: one short untraced run end to end.

It checks the runner's output contract only; it asserts nothing about
timings.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_runner_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [
            sys.executable,
            "bench/run.py",
            "--workload", "theorem-check",
            "--seed", "1",
            "--seconds", "0.3",
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    names = {metric["name"] for metric in declared}
    assert len(names) == 6
    assert names <= set(result["metrics"])
