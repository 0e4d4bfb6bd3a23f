"""Numerical verification of the comparative-risk-aversion equivalences.

For two weighting functions (dual theory) or two full decision makers
(rank-dependent utility) the following conditions are checked on finite
grids and samples:

  (i)   pointwise dominance of the curvature index(es) -f''/f'
  (ii)  risk-premium dominance across a scenario grid
  (iii) probability-premium dominance across the same grid
  (iv)  concavity of the relative composition f2(f1^{-1}(t))
  (v)   cross-ratio dominance over sampled quadruples p < q <= r < s

Agent 2 is "more risk averse" than agent 1 exactly when all five hold, so
the per-condition verdicts of a valid pair must agree; the report carries
a consistency flag for that.  Every verification is at grid resolution
only: a "holds" verdict certifies the sampled points, not the full
quantifier.  Failing verdicts always carry a concrete witness: the first
grid point, in grid order, that violates the condition beyond the slack.

Each condition is evaluated in one array pass per agent: the premium
conditions (ii)/(iii) solve every scenario of the grid at once through
the array kernels of premia, and only the reported witness is built as
a dict; condition (iv) inverts the whole grid of a weighting or a
utility in one array inverse() call (tk: one elementwise Newton
iteration).  The numbers are those of the per-point scalar kernels, bit
for bit; a grid with a bad point raises what the scalar kernels raise at
the first such point.

Ties within the comparison slack are reported as holding marginally
rather than failing, since strict-inequality boundary cases are
numerically undecidable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import GridError, RiskPremiaError
from .evalcore import DecisionMaker
from .funclib import UtilityFn, WeightingFn
from .premia import Scenario, _divide, _lambda, _mu, _rho, _sigma

# Comparison slacks: grid conditions (i)/(iv)/(v) and premium dominance.
INDEX_SLACK = 1e-9
PREMIUM_SLACK = 1e-10

Quadruple = tuple[float, float, float, float]


@dataclass(frozen=True)
class ConditionCheck:
    """Verdict for one equivalence condition on one grid or sample."""

    condition: str
    label: str
    holds: bool
    marginal: bool
    worst_margin: float
    slack: float
    n_points: int
    witness: dict | None

    def verdict(self) -> str:
        if not self.holds:
            return "fails"
        return "holds (marginal)" if self.marginal else "holds"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "label": self.label,
            "verdict": self.verdict(),
            "holds": self.holds,
            "worst_margin": self.worst_margin,
            "slack": self.slack,
            "n_points": self.n_points,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class ComparisonReport:
    """All five condition verdicts for one ordered pair of agents."""

    kind: str
    label2: str
    label1: str
    conditions: tuple[ConditionCheck, ...]
    consistent: bool
    grids: dict

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.conditions)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "more_averse_candidate": self.label2,
            "reference": self.label1,
            "conditions": [c.to_dict() for c in self.conditions],
            "all_hold": self.all_hold,
            "consistent": self.consistent,
            "grids": dict(self.grids),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_table(self) -> str:
        lines = [
            f"{self.kind} comparison",
            f"  candidate (2): {self.label2}",
            f"  reference (1): {self.label1}",
        ]
        for c in self.conditions:
            lines.append(
                f"  ({c.condition:3s}) {c.label:<38s} {c.verdict():<16s}"
                f" worst margin {c.worst_margin:.3e}"
            )
            if c.witness is not None:
                parts = ", ".join(
                    f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in c.witness.items()
                )
                lines.append(f"        witness: {parts}")
        lines.append(f"  all hold: {'yes' if self.all_hold else 'no'}")
        lines.append(f"  verdicts consistent: {'yes' if self.consistent else 'no'}")
        return "\n".join(lines)


def _check_margins(
    condition: str,
    label: str,
    margins: np.ndarray,
    witness: Callable[[int], dict],
    slack: float,
) -> ConditionCheck:
    """Verdict on a margin array; witness(i) builds the witness of grid
    index i and runs only for the first index violating beyond slack."""
    if len(margins) == 0:
        raise GridError(f"condition ({condition}) evaluated on an empty grid")
    worst = float(margins[np.argmin(margins)])
    holds = worst >= -slack
    violating = np.flatnonzero(margins < -slack)
    return ConditionCheck(
        condition=condition,
        label=label,
        holds=holds,
        marginal=holds and worst <= slack,
        worst_margin=worst,
        slack=slack,
        n_points=len(margins),
        witness=witness(int(violating[0])) if not holds and violating.size else None,
    )


def _on_grid(compute: Callable, columns: Sequence[np.ndarray]):
    """compute(*columns) in one array pass over the grid.

    If the pass raises, compute runs again on one point at a time in grid
    order, so the error is the one the scalar path raises at the first bad
    point, not whichever check the whole-grid pass reached first.
    """
    try:
        return compute(*columns)
    except RiskPremiaError:
        for i in range(len(columns[0])):
            compute(*(c[i : i + 1] for c in columns))
        raise


def _sided(side: str, witness: dict) -> dict:
    return {"side": side, **witness} if side else witness


def _side_label(label: str, side: str) -> str:
    return f"{label} ({side})" if side else label


# ---------------------------------------------------------------------------
# Individual condition checks
# ---------------------------------------------------------------------------


def check_index_dominance(f2, f1, grid: np.ndarray, *, side: str = "") -> ConditionCheck:
    """-f2''/f2' >= -f1''/f1' at every grid point (within slack)."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise GridError("empty index-dominance grid")
    idx2 = -np.asarray(f2.d2(grid)) / np.asarray(f2.d1(grid))
    idx1 = -np.asarray(f1.d2(grid)) / np.asarray(f1.d1(grid))
    return _check_margins(
        "i",
        _side_label("curvature index dominance", side),
        idx2 - idx1,
        lambda i: _sided(
            side,
            {"point": float(grid[i]), "index2": float(idx2[i]), "index1": float(idx1[i])},
        ),
        INDEX_SLACK,
    )


def _premium_dominance(
    agent2, agent1, kernels, names: tuple[str, str], fields: tuple[str, ...], points: list
) -> tuple[ConditionCheck, ConditionCheck]:
    """Conditions (ii) and (iii) on one scenario grid: each premium kernel
    runs once per agent on the whole grid.  points holds one tuple of
    scenario values per grid point, named by fields in the witness."""
    columns = [np.array(c, dtype=float) for c in zip(*points)]
    premia = _on_grid(
        lambda *cols: [(k(agent2, *cols), k(agent1, *cols)) for k in kernels], columns
    )

    def check(condition, label, name, values2, values1):
        def witness(i):
            return {
                **dict(zip(fields, points[i])),
                f"{name}2": float(values2[i]),
                f"{name}1": float(values1[i]),
            }

        return _check_margins(condition, label, values2 - values1, witness, PREMIUM_SLACK)

    return (
        check("ii", "risk premium dominance", names[0], *premia[0]),
        check("iii", "probability premium dominance", names[1], *premia[1]),
    )


def check_premium_dominance_dt(
    h2: WeightingFn,
    h1: WeightingFn,
    scenario_grid: Sequence[tuple[float, float]] | None = None,
) -> tuple[ConditionCheck, ConditionCheck]:
    """Risk and probability premium dominance over a (p0, eps2) grid."""
    if scenario_grid is None:
        scenario_grid = dt_scenario_grid()
    points = [(p0, eps2) for p0, eps2 in scenario_grid]
    if not points:
        raise GridError("empty dual-theory scenario grid")
    return _premium_dominance(
        h2, h1, (_rho, _lambda), ("rho", "lambda"), ("p0", "eps2"), points
    )


def check_concave_composition(f2, f1, t_grid: np.ndarray, *, side: str = "") -> ConditionCheck:
    """Concavity of g(t) = f2(f1^{-1}(t)): symmetric second differences of g
    on the uniform grid must not exceed the slack."""
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 3:
        raise GridError("composition grid needs at least 3 points")
    g = _on_grid(lambda t: f2.value(f1.inverse(t)), [t_grid])
    second = g[:-2] - 2.0 * g[1:-1] + g[2:]
    return _check_margins(
        "iv",
        _side_label("relative composition concavity", side),
        -second,  # concavity wants second differences <= slack
        lambda i: _sided(side, {"t": float(t_grid[i + 1]), "second_diff": float(second[i])}),
        INDEX_SLACK,
    )


def _increment_ratios(f, p, q, r, s) -> np.ndarray:
    return _divide(f.value(s) - f.value(r), f.value(q) - f.value(p))


def check_cross_ratio(
    f2, f1, quadruples: Iterable[Quadruple], *, side: str = ""
) -> ConditionCheck:
    """Increment-ratio dominance: for p < q <= r < s,
    (f2(s)-f2(r))/(f2(q)-f2(p)) <= (f1(s)-f1(r))/(f1(q)-f1(p)).
    GridError names the first quadruple out of that order."""
    quads = [(p, q, r, s) for p, q, r, s in quadruples]
    if not quads:
        raise GridError("empty cross-ratio sample")
    corners = [np.array(c, dtype=float) for c in zip(*quads)]
    p, q, r, s = corners
    ordered = (p < q) & (q <= r) & (r < s)
    if not ordered.all():
        i = int(np.argmin(ordered))
        bad = tuple(float(c[i]) for c in corners)
        raise GridError(f"cross-ratio quadruple {bad} is not ordered p < q <= r < s")
    lhs, rhs = _on_grid(
        lambda *c: (_increment_ratios(f2, *c), _increment_ratios(f1, *c)), corners
    )

    def witness(i):
        p, q, r, s = quads[i]
        w = {"p": p, "q": q, "r": r, "s": s, "ratio2": float(lhs[i]), "ratio1": float(rhs[i])}
        return _sided(side, w)

    return _check_margins(
        "v",
        _side_label("cross-ratio dominance", side),
        rhs - lhs,
        witness,
        INDEX_SLACK,
    )


def _combine(a: ConditionCheck, b: ConditionCheck, label: str) -> ConditionCheck:
    """Merge the utility-side and weighting-side clauses of one condition."""
    holds = a.holds and b.holds
    witness = None
    if not a.holds:
        witness = a.witness
    elif not b.holds:
        witness = b.witness
    return ConditionCheck(
        condition=a.condition,
        label=label,
        holds=holds,
        marginal=holds and (a.marginal or b.marginal),
        worst_margin=min(a.worst_margin, b.worst_margin),
        slack=a.slack,
        n_points=a.n_points + b.n_points,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Grids and samples
# ---------------------------------------------------------------------------


def probability_grid(n: int = 401) -> np.ndarray:
    """n interior probabilities, equally spaced in [0.0025, 0.9975]."""
    if n < 3:
        raise GridError("probability grid needs at least 3 points")
    return np.linspace(0.0025, 1.0 - 0.0025, n)


def dt_scenario_grid() -> list[tuple[float, float]]:
    """(p0, eps2) pairs: p0 over 0.1..0.9, eps2 small, medium, and maximal."""
    grid = []
    for i in range(1, 10):
        p0 = round(0.1 * i, 10)
        band = min(p0, 1.0 - p0)
        for eps2 in sorted({0.01, 0.05, band}):
            grid.append((p0, eps2))
    return grid


def _joint_domain(u1: UtilityFn, u2: UtilityFn) -> tuple[float, float]:
    lo = max(u1.domain[0], u2.domain[0])
    hi = min(u1.domain[1], u2.domain[1])
    if not lo < hi:
        raise GridError("utility domains do not overlap")
    return lo, hi


def utility_x_window(u1: UtilityFn, u2: UtilityFn, pad: float = 0.6) -> tuple[float, float]:
    """A length-4 wealth window inside both domains, inset by pad so that
    payoff shifts up to pad stay feasible."""
    lo, hi = _joint_domain(u1, u2)
    if math.isinf(lo) and math.isinf(hi):
        return (-1.0, 3.0)
    if math.isinf(hi):
        return (lo + pad, lo + pad + 4.0)
    if math.isinf(lo):
        return (hi - pad - 4.0, hi - pad)
    if hi - lo <= 2.0 * pad:
        raise GridError(
            f"joint utility domain ({lo:g}, {hi:g}) too narrow for pad {pad:g}"
        )
    return (lo + pad, hi - pad)


def rdu_scenario_grid(u1: UtilityFn, u2: UtilityFn) -> list[Scenario]:
    """Cross product of three domain-safe wealth levels, nine p0 values,
    eps2 small, medium and maximal (as in dt_scenario_grid), and eps1
    small, medium and large."""
    eps1_values = (0.01, 0.1, 0.5)
    w_lo, w_hi = utility_x_window(u1, u2, pad=max(eps1_values) * 1.2)
    scenarios = []
    for x0 in (w_lo, 0.5 * (w_lo + w_hi), w_hi):
        for p0, eps2 in dt_scenario_grid():
            for eps1 in eps1_values:
                scenarios.append(Scenario(x0=x0, p0=p0, eps1=eps1, eps2=eps2))
    return scenarios


def quadruple_sample(
    n: int = 200,
    seed: int = 0,
    lo: float = 0.0,
    hi: float = 1.0,
) -> list[Quadruple]:
    """Quadruples p < q <= r < s in (lo, hi) for cross-ratio checks.

    Deterministic edge-adjacent and spanning cases come first; the rest
    cycles through three seeded draw schemes: one point per quartile band
    (stratified coverage), free sorted uniforms, and tied-middle triples
    (the q = r boundary of the ordering).  GridError for a negative n or
    seed; n = 0 gives an empty sample.
    """
    if n < 0:
        raise GridError(f"cross-ratio sample size must be non-negative, got {n}")
    if seed < 0:
        raise GridError(f"sampling seed must be non-negative, got {seed}")
    span = hi - lo
    units = [
        (1e-3, 2e-3, 2e-3, 3e-3),
        (1.0 - 3e-3, 1.0 - 2e-3, 1.0 - 2e-3, 1.0 - 1e-3),
        (1e-3, 1e-2, 1e-2, 2e-2),
        (1.0 - 2e-2, 1.0 - 1e-2, 1.0 - 1e-2, 1.0 - 1e-3),
        (1e-3, 0.25, 0.75, 1.0 - 1e-3),
        (0.25, 0.5, 0.5, 0.75),
        (0.1, 0.2, 0.8, 0.9),
    ]
    rng = np.random.default_rng(seed)
    inset = 1e-6
    while len(units) < n:
        mode = len(units) % 3
        if mode == 0:
            draws = (np.arange(4) + rng.uniform(size=4)) / 4.0
        elif mode == 1:
            draws = np.sort(rng.uniform(size=4))
        else:
            a, b, c = np.sort(rng.uniform(size=3))
            draws = np.array([a, b, b, c])
        draws = inset + (1.0 - 2.0 * inset) * draws
        p, q, r, s = (float(v) for v in draws)
        if p < q <= r < s:
            units.append((p, q, r, s))
    return [tuple(lo + span * v for v in quad) for quad in units[:n]]


# ---------------------------------------------------------------------------
# Full theorem reports
# ---------------------------------------------------------------------------


def _consistency(conditions: Sequence[ConditionCheck]) -> bool:
    return len({c.holds for c in conditions}) == 1


def check_theorem1(
    h2: WeightingFn,
    h1: WeightingFn,
    *,
    n_points: int = 401,
    n_samples: int = 200,
    seed: int = 0,
    scenario_grid: Sequence[tuple[float, float]] | None = None,
) -> ComparisonReport:
    """All five dual-theory equivalence conditions for the pair (h2, h1)."""
    if scenario_grid is None:
        scenario_grid = dt_scenario_grid()
    scenario_grid = list(scenario_grid)
    p_grid = probability_grid(n_points)
    cond_i = check_index_dominance(h2, h1, p_grid)
    cond_ii, cond_iii = check_premium_dominance_dt(h2, h1, scenario_grid)
    cond_iv = check_concave_composition(h2, h1, p_grid)
    cond_v = check_cross_ratio(h2, h1, quadruple_sample(n_samples, seed))
    conditions = (cond_i, cond_ii, cond_iii, cond_iv, cond_v)
    return ComparisonReport(
        kind="dual-theory",
        label2=h2.spec,
        label1=h1.spec,
        conditions=conditions,
        consistent=_consistency(conditions),
        grids={
            "p_points": n_points,
            "dt_scenarios": len(scenario_grid),
            "quadruples": n_samples,
            "seed": seed,
        },
    )


def check_theorem2(
    dm2: DecisionMaker,
    dm1: DecisionMaker,
    *,
    n_points: int = 401,
    n_samples: int = 200,
    seed: int = 0,
    scenario_grid: Sequence[Scenario] | None = None,
) -> ComparisonReport:
    """All five rank-dependent equivalence conditions for (dm2, dm1); each
    condition combines its utility-side and weighting-side clauses."""
    u2, h2 = dm2.utility, dm2.weighting
    u1, h1 = dm1.utility, dm1.weighting
    p_grid = probability_grid(n_points)
    wx_lo, wx_hi = utility_x_window(u1, u2, pad=0.1)
    x_grid = np.linspace(wx_lo, wx_hi, n_points)

    cond_i = _combine(
        check_index_dominance(u2, u1, x_grid, side="utility"),
        check_index_dominance(h2, h1, p_grid, side="weighting"),
        "curvature index dominance (U and h)",
    )

    if scenario_grid is None:
        scenario_grid = rdu_scenario_grid(u1, u2)
    scenario_grid = list(scenario_grid)
    if not scenario_grid:
        raise GridError("empty rank-dependent scenario grid")
    cond_ii, cond_iii = _premium_dominance(
        dm2,
        dm1,
        (_sigma, _mu),
        ("sigma", "mu"),
        ("x0", "p0", "eps1", "eps2"),
        [(sc.x0, sc.p0, sc.eps1, sc.eps2) for sc in scenario_grid],
    )

    t_lo = u1.value(wx_lo)
    t_hi = u1.value(wx_hi)
    step = (t_hi - t_lo) / (n_points + 1)
    t_grid_u = np.linspace(t_lo + step, t_hi - step, n_points)
    cond_iv = _combine(
        check_concave_composition(u2, u1, t_grid_u, side="utility"),
        check_concave_composition(h2, h1, p_grid, side="weighting"),
        "relative composition concavity (U and h)",
    )

    cond_v = _combine(
        check_cross_ratio(
            u2, u1, quadruple_sample(n_samples, seed, lo=wx_lo, hi=wx_hi),
            side="utility",
        ),
        check_cross_ratio(
            h2, h1, quadruple_sample(n_samples, seed + 1), side="weighting"
        ),
        "cross-ratio dominance (U and h)",
    )

    conditions = (cond_i, cond_ii, cond_iii, cond_iv, cond_v)
    return ComparisonReport(
        kind="rank-dependent",
        label2=dm2.label,
        label1=dm1.label,
        conditions=conditions,
        consistent=_consistency(conditions),
        grids={
            "p_points": n_points,
            "x_window": [wx_lo, wx_hi],
            "rdu_scenarios": len(scenario_grid),
            "quadruples": n_samples,
            "seed": seed,
        },
    )
