"""Write tests/data/funclib_ulps.json: the accuracy contract of funclib.

For every utility, weighting and transform spec in funclib_specs.json that
constructs, the table holds 50-digit mpmath references of value, d1, d2 and
inverse at fixed points, and one bound per method: the worst error, in ulps
of the reference, of the library this script runs against, rounded up to a
whole ulp and at least 2.  tests/test_funclib.py replays the table without
mpmath and fails when any method of any spec exceeds its bound.

Inputs are stored as float hex strings, so the targets stay fixed; a
reference is a decimal string of REF_DIGITS significant digits.  The
closed forms come from bench/oracle.py (imported, never changed); d2 is
mpmath's numerical derivative of the oracle's d1, as oracle.index takes it.
The tk inverse is solved here by bisection on log p (tk_inverse below).

Points are kept where the reference is a finite normal double, and where
the library's call neither raises nor leaves the floats (under a raising
np.errstate): over- and underflowing derivatives are a separate matter
from rounding accuracy.

Run from the repository root, only on the commit a change starts from, and
never to raise a bound that a change would exceed:

    PYTHONPATH=src python tests/data/make_funclib_ulps.py

The output depends only on the library, mpmath and this file.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(HERE.parent)]

import oracle  # noqa: E402  (bench/oracle.py: mpmath forms, no riskpremia)
from conftest import ulp_error  # noqa: E402

from riskpremia import ComposedWeighting, RiskPremiaError, UtilityFn  # noqa: E402
from riskpremia.funclib import parse_transform, parse_utility, parse_weighting  # noqa: E402

MP = oracle.MP
REF_DIGITS = 25
MIN_BOUND = 2
METHODS = ("value", "d1", "d2", "inverse")
PARSERS = {"utility": parse_utility, "weighting": parse_weighting, "transform": parse_transform}
# t = log p spans at most |log 5e-324| / 0.28 < 2700, so 200 halvings leave
# a width below 1e-56: every digit of a reference, at either end of (0, 1)
TK_BISECTIONS = 200

# distances from a finite end of a utility's domain, in units of 1 and of
# the end's magnitude; both signs of them around 0 on the whole line
STEPS = (1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0, 1e4, 1e6)
# probabilities for value/d1/d2 and targets for inverse of a unit map
PROBS = (
    1e-300, 1e-100, 1e-20, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.25, 1.0 / 3.0, 0.5,
    2.0 / 3.0, 0.75, 0.9, 0.99, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9,
    1.0 - 2.0**-40, 1.0 - 2.0**-53,
)


def tk_inverse(self, q):
    """h^-1(q) of tk by bisection on t = log p, to the working precision.

    Takes the place of bench/oracle.py's tk root find, which stops on an
    absolute residual of h: below about 1e-20 it returns points whose h is
    not the target (tk:3.14159265 at 1e-300 gave 1.8e-259, where h is
    1.4e-813).  log h(p) <= g log p + log 2 for every g, so the excess
    below is negative at t = (log q - 1) / g, and it is -log q > 0 at t = 0.
    """
    g, log_q = self.gamma, MP.log(q)

    def excess(t):  # log h(e^t) - log q, increasing in t
        return g * t - MP.log(MP.exp(g * t) + (1 - MP.exp(t)) ** g) / g - log_q

    lo, hi = (log_q - 1) / g, MP.zero
    for _ in range(TK_BISECTIONS):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) < 0 else (lo, mid)
    return MP.exp((lo + hi) / 2)


oracle.Weighting._tk_inverse = tk_inverse


def full_spec(f) -> str:
    """f's spec with every parameter at full precision, for the oracle."""
    if isinstance(f, ComposedWeighting):
        return f"{full_spec(f.transform)}@{full_spec(f.base)}"
    params = ",".join(repr(getattr(f, fld.name)) for fld in fields(f))
    return f"{f.family}:{params}" if params else f.family


class Reference:
    """value, d1 and inverse of one spec in mpmath, and d2 from d1."""

    def __init__(self, kind: str, f):
        spec = full_spec(f)
        if kind == "transform":
            self.value, self.d1, self.inverse = oracle._transform(spec)
        else:
            ref = (oracle.utility if kind == "utility" else oracle.weighting)(spec)
            self.value, self.d1, self.inverse = ref.value, ref.d1, ref.inverse

    def d2(self, x):
        # a step relative to x keeps tiny probabilities inside the domain;
        # a quotient this far below d1 / h is rounding noise of a zero d2
        h = (abs(x) or 1) * MP.mpf(10) ** -25
        d2 = MP.diff(self.d1, x, h=h)
        return d2 if abs(d2) * h > MP.mpf(10) ** -40 * abs(self.d1(x)) else MP.zero

    def __call__(self, method: str, x: float):
        """The reference at x."""
        with MP.workdps(60):
            return getattr(self, method)(MP.mpf(x))


def _not_normal(ref) -> bool:
    return ref == 0 or not (
        MP.isfinite(ref) and MP.mpf(sys.float_info.min) <= abs(ref) < MP.mpf(sys.float_info.max)
    )


def _library(f, method: str, x: float):
    """f.method(x) as a float, or None where it raises or leaves the floats."""
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            got = float(getattr(f, method)(x))
    except (RiskPremiaError, FloatingPointError):
        return None
    return got if math.isfinite(got) else None


def domain_points(f) -> list[float]:
    if not isinstance(f, UtilityFn):
        return list(PROBS)
    lo, hi = f.domain
    if math.isinf(lo) and math.isinf(hi):
        points = {0.0, *STEPS, *(-s for s in STEPS)}
    else:
        end, sign = (lo, 1.0) if math.isfinite(lo) else (hi, -1.0)
        scales = {1.0, abs(end)} - {0.0}
        points = {end + sign * s * c for s in STEPS for c in scales}
    return sorted(x for x in points if lo < x < hi)


def inverse_targets(f, ref: Reference) -> list[float]:
    if not isinstance(f, UtilityFn):
        return list(PROBS)
    lo, hi = f.codomain
    targets = set()
    for x in domain_points(f):
        v = ref("value", x)
        if MP.isfinite(v) and abs(v) < MP.mpf(sys.float_info.max):
            targets.add(float(v))
    return sorted(t for t in targets if lo < t < hi)


def method_entry(f, ref: Reference, method: str, points: list[float]) -> dict | None:
    kept = []
    for x in points:
        want = ref(method, x)
        if _not_normal(want) or _library(f, method, x) is None:
            continue
        kept.append((x, MP.nstr(want, REF_DIGITS, strip_zeros=False)))
    if not kept:
        return None
    xs = np.array([x for x, _ in kept])
    array = np.asarray(getattr(f, method)(xs)).tolist()
    worst = 0.0
    for (x, want), got in zip(kept, array):
        scalar = float(getattr(f, method)(x))
        worst = max(worst, ulp_error(scalar, want), ulp_error(got, want))
    return {
        "bound": max(MIN_BOUND, math.ceil(worst)),
        "worst": round(worst, 3),
        "points": [[x.hex(), want] for x, want in kept],
    }


def spec_entry(kind: str, given) -> dict | None:
    try:
        f = PARSERS[kind](given)
    except RiskPremiaError:
        return None
    ref = Reference(kind, f)
    methods = {}
    for method in METHODS:
        points = inverse_targets(f, ref) if method == "inverse" else domain_points(f)
        entry = method_entry(f, ref, method, points)
        if entry is not None:
            methods[method] = entry
    return {"kind": kind, "given": given, "repr": repr(f), "methods": methods}


def build() -> list[dict]:
    specs = json.loads((HERE / "funclib_specs.json").read_text())
    entries, seen = [], set()
    for item in specs:
        entry = spec_entry(item["kind"], item["given"])
        if entry is None or (entry["kind"], entry["repr"]) in seen:
            continue
        seen.add((entry["kind"], entry["repr"]))
        entries.append(entry)
    return entries


def dump(entries: list[dict]) -> str:
    """One line per method, so a bound or a point reads in a diff."""
    lines = ["["]
    for i, entry in enumerate(entries):
        head = {k: entry[k] for k in ("kind", "given", "repr")}
        lines.append(" " + json.dumps(head)[:-1] + ', "methods": {')
        methods = list(entry["methods"].items())
        for j, (name, body) in enumerate(methods):
            comma = "," if j < len(methods) - 1 else ""
            lines.append(f"  {json.dumps(name)}: {json.dumps(body)}{comma}")
        lines.append(" }}" + ("," if i < len(entries) - 1 else ""))
    lines.append("]")
    return "\n".join(lines) + "\n"


def main() -> None:
    entries = build()
    (HERE / "funclib_ulps.json").write_text(dump(entries))
    for entry in entries:
        bounds = " ".join(f"{m}={b['worst']}" for m, b in entry["methods"].items())
        print(f"{entry['kind']:9s} {entry['repr']:60s} {bounds}")


if __name__ == "__main__":
    main()
