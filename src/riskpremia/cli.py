"""Command-line interface.

Subcommands:

  eval         evaluate a lottery file (JSON or CSV) for one decision maker
  premia       all six premia, local indexes, residuals, link deltas
  sweep        premia along one axis (eps1 | eps2 | p0 | x0), CSV-friendly
  convergence  halve an epsilon and fit the approximation error order
  compare      the five equivalence conditions for two decision makers

Shared flags: --utility, --weighting, --x0, --p0, --eps1, --eps2,
--format (table|json|csv), --out, --config FILE.  A JSON config file may
carry any flag value; config values win over conflicting flags, with a
warning on stderr.

Output is deterministic: identical invocations produce byte-identical
stdout/files.  Numbers carry 12 significant digits in CSV/JSON and 6 in
tables.  Exit codes: 0 success, 2 invalid input, 1 computation failure;
every error path prints a single "error: <stage>: <reason>" line.  A
subcommand runs with numpy overflow, invalid and divide-by-zero raised,
so a floating-point failure is one "error: compute:" line, not a
leaked warning.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

import numpy as np

from .comparative import check_theorem1, check_theorem2
from .errors import (
    ConcavityError,
    DomainError,
    GridError,
    MonotonicityError,
    ParseError,
    RiskPremiaError,
)
from .evalcore import (
    DecisionMaker,
    Lottery,
    certainty_equivalent,
    evaluate_dual_form,
    evaluate_rdu,
)
from .funclib import LinearUtility, parse_utility, parse_weighting
from .numerics import convergence_order
from .premia import PREMIA, PremiumReport, Scenario, premium_report

_INPUT_ERRORS = (ParseError, DomainError, GridError, MonotonicityError, ConcavityError)

_DEFAULTS = {
    "utility": "linear",
    "weighting": "identity",
    "utility2": "linear",
    "weighting2": "identity",
    "x0": 0.0,
    "p0": 0.5,
    "eps1": 0.1,
    "eps2": 0.1,
}

_CONFIG_KEYS = {
    "utility", "weighting", "x0", "p0", "eps1", "eps2", "format",
    "lottery", "axis", "start", "stop", "num", "values",
    "premium", "levels", "utility2", "weighting2",
    "points", "samples", "seed",
}


def _fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt6(x: float) -> str:
    return f"{float(x):.6g}"


def _round12(obj):
    """Round every float in a JSON-able structure to 12 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(_fmt12(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _emit(text: str, out_path: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_lines(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt12(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines)


def _table_lines(header: list[str], rows: list[list]) -> str:
    cells = [header] + [
        [_fmt6(v) if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    out = []
    for r in cells:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out)


class _Options:
    """Flag values merged with config-file values (config wins, warns)."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.config: dict = {}
        if getattr(ns, "config", None):
            try:
                with open(ns.config, "r", encoding="utf-8") as fh:
                    self.config = json.load(fh)
            except OSError as exc:
                raise ParseError(f"cannot read config file: {exc}") from None
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid config JSON: {exc}") from None
            if not isinstance(self.config, dict):
                raise ParseError("config JSON must be an object")
            unknown = set(self.config) - _CONFIG_KEYS
            if unknown:
                raise ParseError(f"unknown config keys: {sorted(unknown)}")

    def get(self, key: str, default=None):
        flag = getattr(self.ns, key, None)
        if key in self.config:
            value = self.config[key]
            if flag is not None and flag != value:
                sys.stderr.write(
                    f"warning: --{key}={flag} overridden by config {key}={value}\n"
                )
            return value
        if flag is not None:
            return flag
        return _DEFAULTS.get(key, default)

    def get_float(self, key: str, default=None) -> float:
        value = self.get(key, default)
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ParseError(f"{key} must be a number, got {value!r}") from None

    def get_int(self, key: str, default=None) -> int:
        value = self.get(key, default)
        try:
            return int(value)
        except (TypeError, ValueError):
            raise ParseError(f"{key} must be an integer, got {value!r}") from None

    def decision_maker(self, suffix: str = "") -> DecisionMaker:
        u = parse_utility(self.get("utility" + suffix))
        h = parse_weighting(self.get("weighting" + suffix))
        return DecisionMaker(u, h)

    def scenario(self) -> Scenario:
        return Scenario(
            x0=self.get_float("x0"),
            p0=self.get_float("p0"),
            eps1=self.get_float("eps1"),
            eps2=self.get_float("eps2"),
        )

    def fmt(self, default: str) -> str:
        fmt = self.get("format") or default
        if fmt not in ("table", "json", "csv"):
            raise ParseError(f"unknown format {fmt!r} (choose table, json, csv)")
        return fmt


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _load_lottery(path: str) -> Lottery:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read lottery file: {exc}") from None
    if path.lower().endswith(".csv"):
        return Lottery.from_csv(text)
    return Lottery.from_json(text)


def cmd_eval(opts: _Options) -> str:
    lottery_path = opts.get("lottery")
    if not lottery_path:
        raise ParseError("eval requires --lottery FILE (JSON or CSV)")
    lottery = _load_lottery(str(lottery_path))
    dm = opts.decision_maker()
    rdu = evaluate_rdu(dm, lottery)
    dual = evaluate_dual_form(dm, lottery)
    ce = certainty_equivalent(dm, lottery)
    fmt = opts.fmt("table")
    if fmt == "json":
        payload = {
            "dm": dm.label,
            "lottery": lottery.to_jsonable(),
            "rdu_value": rdu,
            "dual_form_value": dual,
            "certainty_equivalent": ce,
        }
        return json.dumps(_round12(payload), indent=2)
    if fmt == "csv":
        return _csv_lines(
            ["rdu_value", "dual_form_value", "certainty_equivalent"],
            [[rdu, dual, ce]],
        )
    rows = [
        ["rdu value", rdu],
        ["dual-form value", dual],
        ["certainty equivalent", ce],
    ]
    return f"decision maker: {dm.label}\n" + _table_lines(["quantity", "value"], rows)


# ---------------------------------------------------------------------------
# premia
# ---------------------------------------------------------------------------

_REPORT_COLUMNS = [
    "x0", "p0", "eps1", "eps2",
    *(f"{name}_{kind}" for name in PREMIA for kind in ("exact", "approx")),
    "ara", "dual_index", "max_residual",
]


def _report_row(report: PremiumReport) -> list[float]:
    sc = report.scenario
    return [
        sc.x0, sc.p0, sc.eps1, sc.eps2,
        *(v for pair in report.pairs().values() for v in pair),
        report.ara, report.dual_index,
        max(abs(v) for v in report.residuals.values()),
    ]


def cmd_premia(opts: _Options) -> str:
    dm = opts.decision_maker()
    sc = opts.scenario()
    report = premium_report(dm, sc)
    fmt = opts.fmt("table")
    if fmt == "json":
        return json.dumps(_round12(report.to_dict()), indent=2)
    if fmt == "csv":
        return _csv_lines(_REPORT_COLUMNS, [_report_row(report)])
    rows = [
        [name, pair.exact, pair.approx, report.residuals[name]]
        for name, pair in report.pairs().items()
    ]
    lines = [
        f"decision maker: {dm.label}",
        f"scenario: x0={_fmt6(sc.x0)} p0={_fmt6(sc.p0)}"
        f" eps1={_fmt6(sc.eps1)} eps2={_fmt6(sc.eps2)}",
        "",
        _table_lines(["premium", "exact", "approx", "residual"], rows),
        "",
        f"ara (-U''/U' at x0):        {_fmt6(report.ara)}",
        f"dual index (-h''/h' at p0): {_fmt6(report.dual_index)}",
        "link identity deltas: "
        + "  ".join(f"{k}={_fmt6(v)}" for k, v in report.link_deltas.items()),
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_AXES = ("eps1", "eps2", "p0", "x0")


def cmd_sweep(opts: _Options) -> str:
    axis = opts.get("axis")
    if axis not in _AXES:
        raise ParseError(f"sweep requires --axis from {_AXES}")
    raw_values = opts.get("values")
    if raw_values is not None:
        if isinstance(raw_values, str):
            tokens = [t for t in raw_values.split(",") if t.strip()]
        else:
            tokens = raw_values
        try:
            values = [float(t) for t in tokens]
        except (TypeError, ValueError):
            raise ParseError(f"bad --values list: {raw_values!r}") from None
    else:
        start, stop = opts.get("start"), opts.get("stop")
        num = opts.get("num")
        if start is None or stop is None or num is None:
            raise ParseError("sweep requires --values or --start/--stop/--num")
        num = opts.get_int("num")
        if num < 1:
            raise ParseError("sweep --num must be at least 1")
        start, stop = opts.get_float("start"), opts.get_float("stop")
        if num == 1:
            values = [start]
        else:
            step = (stop - start) / (num - 1)
            values = [start + i * step for i in range(num)]
    if not values:
        raise ParseError("sweep grid is empty")

    dm = opts.decision_maker()
    base = {
        "x0": opts.get_float("x0"),
        "p0": opts.get_float("p0"),
        "eps1": opts.get_float("eps1"),
        "eps2": opts.get_float("eps2"),
    }
    # validate the whole grid before computing anything
    scenarios = []
    for v in values:
        params = dict(base)
        params[axis] = v
        sc = Scenario(**params)
        dm.utility.value(sc.x0 - sc.eps1)
        dm.utility.value(sc.x0 + sc.eps1)
        scenarios.append(sc)

    rows = [_report_row(premium_report(dm, sc)) for sc in scenarios]
    fmt = opts.fmt("csv")
    if fmt == "csv":
        return _csv_lines(_REPORT_COLUMNS, rows)
    if fmt == "json":
        payload = [dict(zip(_REPORT_COLUMNS, row)) for row in rows]
        return json.dumps(_round12(payload), indent=2)
    return _table_lines(_REPORT_COLUMNS, rows)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

def cmd_convergence(opts: _Options) -> str:
    name = opts.get("premium")
    if not isinstance(name, str) or name not in PREMIA:
        raise ParseError(f"convergence requires --premium from {tuple(PREMIA)}")
    premium = PREMIA[name]
    levels = opts.get_int("levels", 5)
    if levels < 2:
        raise ParseError("convergence needs at least 2 levels")
    dm = opts.decision_maker()
    base = opts.scenario()
    axis = premium.axis

    rows = []
    pairs = []
    for level in range(levels):
        sc = dataclasses.replace(base, **{axis: getattr(base, axis) * 0.5**level})
        eps = getattr(sc, axis)
        exact, approx = premium.exact(dm, sc), premium.approx(dm, sc)
        err = abs(exact - approx)
        rows.append([level, eps, exact, approx, err, err / premium.error_scale(sc)])
        pairs.append((eps, err))

    try:
        order: float | str = convergence_order(pairs)
    except RiskPremiaError:
        order = "exact"

    header = ["level", "eps", "exact", "approx", "abs_error", "normalized_error"]
    fmt = opts.fmt("table")
    if fmt == "json":
        payload = {
            "premium": name,
            "axis": axis,
            "levels": [dict(zip(header, row)) for row in rows],
            "fitted_order": order,
        }
        return json.dumps(_round12(payload), indent=2)
    if fmt == "csv":
        return _csv_lines(header + ["fitted_order"], [row + [order] for row in rows])
    body = _table_lines(header, rows)
    shown = _fmt6(order) if isinstance(order, float) else order
    return (
        f"premium: {name} (halving {axis}, dm: {dm.label})\n"
        + body
        + f"\nfitted order: {shown}"
    )


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def cmd_compare(opts: _Options) -> str:
    given = (getattr(opts.ns, "utility2", None), getattr(opts.ns, "weighting2", None),
             opts.config.get("utility2"), opts.config.get("weighting2"))
    if all(v is None for v in given):
        raise ParseError("compare requires --utility2 and/or --weighting2")
    dm1 = opts.decision_maker()
    dm2 = opts.decision_maker("2")
    n_points = opts.get_int("points", 401)
    n_samples = opts.get_int("samples", 200)
    seed = opts.get_int("seed", 0)
    both_linear = isinstance(dm1.utility, LinearUtility) and isinstance(
        dm2.utility, LinearUtility
    )
    if both_linear:
        report = check_theorem1(
            dm2.weighting, dm1.weighting,
            n_points=n_points, n_samples=n_samples, seed=seed,
        )
    else:
        report = check_theorem2(
            dm2, dm1, n_points=n_points, n_samples=n_samples, seed=seed
        )
    fmt = opts.fmt("table")
    if fmt == "json":
        return json.dumps(_round12(report.to_dict()), indent=2)
    if fmt == "csv":
        rows = [
            [c.condition, c.label, c.verdict(), c.worst_margin, c.slack, c.n_points]
            for c in report.conditions
        ]
        return _csv_lines(
            ["condition", "label", "verdict", "worst_margin", "slack", "n_points"],
            rows,
        )
    return report.to_table()


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--utility", help="utility spec, e.g. cara:1 (default linear)")
    shared.add_argument("--weighting", help="weighting spec, e.g. prelec:0.65,1 or power:0.5@tk:0.61")
    shared.add_argument("--x0", type=float, help="initial wealth (default 0)")
    shared.add_argument("--p0", type=float, help="split probability (default 0.5)")
    shared.add_argument("--eps1", type=float, help="payoff perturbation (default 0.1)")
    shared.add_argument("--eps2", type=float, help="probability perturbation (default 0.1)")
    shared.add_argument("--format", choices=("table", "json", "csv"))
    shared.add_argument("--out", help="write output to this file instead of stdout")
    shared.add_argument("--config", help="JSON config file; overrides flags")

    parser = argparse.ArgumentParser(
        prog="riskpremia",
        description="Risk and probability premia under expected utility, "
        "dual theory, and rank-dependent utility.",
        epilog="Scenarios fix (x0, p0, eps1, eps2) only: the outer low/high "
        "states of the underlying three-state construction cancel from every "
        "indifference equation, so they never need to be specified.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[shared], help="evaluate a lottery file")
    p_eval.add_argument("--lottery", help="lottery file (.json or .csv with header x,p)")

    sub.add_parser(
        "premia",
        parents=[shared],
        help="all premia for one scenario",
        description="All six premia for one decision maker and scenario. "
        "Premia depend only on (x0, p0, eps1, eps2); the construction's "
        "outer low/high states cancel from the indifference equations.",
    )

    p_sweep = sub.add_parser("sweep", parents=[shared], help="premia along one axis")
    p_sweep.add_argument("--axis", choices=_AXES)
    p_sweep.add_argument("--start", type=float)
    p_sweep.add_argument("--stop", type=float)
    p_sweep.add_argument("--num", type=int)
    p_sweep.add_argument("--values", help="comma-separated grid, overrides start/stop/num")

    p_conv = sub.add_parser(
        "convergence", parents=[shared], help="approximation error under halving"
    )
    p_conv.add_argument("--premium", choices=tuple(PREMIA))
    p_conv.add_argument("--levels", type=int)

    p_cmp = sub.add_parser(
        "compare", parents=[shared], help="comparative risk aversion conditions"
    )
    p_cmp.add_argument("--utility2", help="utility spec of the candidate agent")
    p_cmp.add_argument("--weighting2", help="weighting spec of the candidate agent")
    p_cmp.add_argument("--points", type=int, help="grid points (default 401)")
    p_cmp.add_argument("--samples", type=int, help="cross-ratio quadruples (default 200)")
    p_cmp.add_argument("--seed", type=int, help="sampling seed (default 0)")

    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "premia": cmd_premia,
    "sweep": cmd_sweep,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
}


def _error_line(stage: str, exc: Exception) -> str:
    msg = " ".join(str(exc).split())
    return f"error: {stage}: {msg}"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        opts = _Options(ns)
        # overflow, invalid and divide-by-zero raise instead of warning;
        # underflow to zero stays silent
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            text = _COMMANDS[ns.command](opts)
        _emit(text, getattr(ns, "out", None))
    except _INPUT_ERRORS as exc:
        sys.stderr.write(_error_line("input", exc) + "\n")
        return 2
    except (RiskPremiaError, FloatingPointError) as exc:
        sys.stderr.write(_error_line("compute", exc) + "\n")
        return 1
    except OSError as exc:
        sys.stderr.write(_error_line("input", exc) + "\n")
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())
