"""Set-up time of one workload, measured in a fresh process.

Usage: python3 setup_probe.py '{"imports": [...], "specs": [[u, h], ...]}'

Imports the listed modules (riskpremia first) and builds every function
object through parse_utility / parse_weighting; prints one JSON line with
the elapsed seconds and the path riskpremia was imported from.
"""

import importlib
import json
import sys
import time


def main() -> None:
    job = json.loads(sys.argv[1])
    start = time.perf_counter()
    for name in job["imports"]:
        importlib.import_module(name)
    rp = sys.modules["riskpremia"]
    for u_spec, h_spec in job["specs"]:
        rp.parse_utility(u_spec)
        rp.parse_weighting(h_spec)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "module": rp.__file__}))


if __name__ == "__main__":
    main()
