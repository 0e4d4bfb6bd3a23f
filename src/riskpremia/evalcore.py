"""Finite lotteries and the rank-dependent evaluation functional.

A lottery with payoffs x_1 <= ... <= x_n and probabilities p_1, ..., p_n is
evaluated as

    sum_i ( h(P_i) - h(P_{i-1}) ) * U(x_i),      P_i = p_1 + ... + p_i,

i.e. decision weights are differences of the distorted cumulative
distribution over the rank-sorted support.  With identity h this is
expected utility; with linear U it is the dual-theory functional.  The
equivalent decumulative form distorts survival probabilities through
hbar(p) = 1 - h(1 - p) instead and agrees up to rounding.

A Lottery is put in canonical form once, in one array pass: the states
become an (n, 2) float array, are checked, stably sorted by payoff, and
runs of equal payoffs are merged with their probabilities summed in
sorted input order.  The sorted payoff and probability arrays are kept
read-only on the lottery for the evaluators; its payoffs and probs
properties hand out copies.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DomainError, ParseError
from .funclib import UtilityFn, WeightingFn

# Probabilities must sum to 1 this tightly; we refuse to renormalize since
# silent renormalization hides caller bugs.
PROB_SUM_TOL = 1e-12


def _state_rows(states) -> np.ndarray:
    """The states as an (n, 2) float array, with the bits and the errors
    of float(raw[0]), float(raw[1]) for every entry raw."""
    if set(map(type, states)) <= {tuple, list} and set(map(len, states)) == {2}:
        # one C-level pass: numpy converts each item as float() does, but
        # reads None as nan, so any non-finite value goes the slow way
        try:
            rows = np.fromiter(chain.from_iterable(states), float, 2 * len(states))
        except Exception:
            pass  # redone entry by entry below, where the first bad one raises
        else:
            if np.isfinite(rows).all():
                return rows.reshape(-1, 2)
    converted = []
    for raw in states:
        try:
            converted.append((float(raw[0]), float(raw[1])))
        except Exception:
            # an earlier bad entry decides the error
            _check_entries(np.array(converted, dtype=float).reshape(-1, 2))
            raise
    return np.array(converted, dtype=float).reshape(-1, 2)


def _check_entries(rows: np.ndarray) -> None:
    """Raise for the first state that is non-finite or whose probability
    lies outside (0, 1]."""
    xs, ps = rows[:, 0], rows[:, 1]
    finite = np.isfinite(xs) & np.isfinite(ps)
    bad = ~(finite & (ps > 0.0) & (ps <= 1.0))
    if bad.any():
        i = int(bad.argmax())
        if not finite[i]:
            raise DomainError("non-finite lottery state")
        raise DomainError(f"state probability {float(ps[i]):g} outside (0, 1]")


def _merge_equal_payoffs(xs: np.ndarray, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep the first payoff of each run of equal sorted payoffs and sum
    the run's probabilities left to right, as a running total would
    (np.add.reduceat sums long runs pairwise and changes the bits)."""
    first = np.concatenate(([True], xs[1:] != xs[:-1]))
    if first.all():
        return xs, ps
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], len(xs))
    merged = ps[starts]
    probs = ps.tolist()
    for j in np.flatnonzero(ends - starts > 1).tolist():
        run = probs[starts[j]:ends[j]]
        total = run[0]
        for p in run[1:]:
            total += p
        merged[j] = total
    return xs[starts], merged


@dataclass(frozen=True)
class Lottery:
    """An n-state risk in canonical form.

    Construction is one array pass: it stably sorts states by payoff
    ascending and merges exactly equal payoffs, summing their
    probabilities in sorted input order, so evaluation is independent of
    the input state order.  Probabilities must lie in (0, 1] and sum to 1
    within PROB_SUM_TOL; the first bad state decides the error.  states
    may be any iterable of (payoff, probability, ...) entries; only the
    first two items of an entry are read.  payoffs and probs return
    fresh copies of the canonical arrays.
    """

    states: tuple[tuple[float, float], ...]

    def __post_init__(self):
        rows = _state_rows(tuple(self.states))  # a generator is read once
        _check_entries(rows)
        if len(rows) == 0:
            raise DomainError("lottery needs at least one state")
        xs, ps = rows[:, 0], rows[:, 1]
        total = float(np.cumsum(ps)[-1])  # sequential: the bits of a running total
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise DomainError(
                f"probabilities sum to {total:.17g}, not 1 within {PROB_SUM_TOL:g}"
            )
        # ties (-0.0 == 0.0 included) keep input order, as list.sort did
        order = np.argsort(xs, kind="stable")
        xs, ps = _merge_equal_payoffs(xs[order], ps[order])
        xs.setflags(write=False)
        ps.setflags(write=False)
        # a record array's tolist() builds the (payoff, probability) float
        # tuples in C, faster than zipping two lists
        records = np.empty(len(xs), [("x", float), ("p", float)])
        records["x"], records["p"] = xs, ps
        object.__setattr__(self, "states", tuple(records.tolist()))
        object.__setattr__(self, "_payoffs", xs)
        object.__setattr__(self, "_probs", ps)

    @property
    def payoffs(self) -> np.ndarray:
        return self._payoffs.copy()

    @property
    def probs(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def n_states(self) -> int:
        return len(self.states)

    # ----- serialization -------------------------------------------------

    @classmethod
    def from_json(cls, text_or_obj) -> "Lottery":
        """Parse a JSON array of {"x": payoff, "p": probability} objects."""
        if isinstance(text_or_obj, str):
            try:
                obj = json.loads(text_or_obj)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid lottery JSON: {exc}") from None
        else:
            obj = text_or_obj
        if not isinstance(obj, list):
            raise ParseError("lottery JSON must be an array of {x, p} objects")
        states = []
        for i, entry in enumerate(obj):
            if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
                raise ParseError(f"lottery JSON entry {i} is missing 'x' or 'p'")
            try:
                states.append((float(entry["x"]), float(entry["p"])))
            except (TypeError, ValueError):
                raise ParseError(f"lottery JSON entry {i} has non-numeric fields") from None
        return cls(tuple(states))

    @classmethod
    def from_csv(cls, text: str) -> "Lottery":
        """Parse CSV with header columns x,p (extra columns rejected)."""
        reader = csv.reader(io.StringIO(text))
        rows = [row for row in reader if row and any(cell.strip() for cell in row)]
        if not rows:
            raise ParseError("empty lottery CSV")
        header = [cell.strip().lower() for cell in rows[0]]
        if header != ["x", "p"]:
            raise ParseError(f"lottery CSV header must be exactly 'x,p', got {rows[0]}")
        states = []
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != 2:
                raise ParseError(f"lottery CSV line {lineno}: expected 2 fields, got {len(row)}")
            try:
                states.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ParseError(f"lottery CSV line {lineno}: {exc}") from None
        return cls(tuple(states))

    def to_jsonable(self) -> list[dict]:
        return [{"x": x, "p": p} for x, p in self.states]


@dataclass(frozen=True)
class DecisionMaker:
    """A rank-dependent agent: a utility function paired with a weighting
    function.  Identity weighting gives expected utility; linear utility
    gives the dual theory."""

    utility: UtilityFn
    weighting: WeightingFn
    label: str = ""

    def __post_init__(self):
        if not self.label:
            object.__setattr__(
                self, "label", f"u={self.utility.spec} h={self.weighting.spec}"
            )


def _decision_weights_cumulative(h: WeightingFn, probs: np.ndarray) -> np.ndarray:
    cums = np.minimum(np.cumsum(probs), 1.0)
    cums[-1] = 1.0  # probabilities sum to 1 within tolerance by construction
    grid = np.concatenate(([0.0], cums))
    hv = h.value(grid)
    return np.diff(hv)


def evaluate_rdu(dm: DecisionMaker, lottery: Lottery) -> float:
    """Rank-dependent value: decision-weighted sum of utilities over the
    sorted support."""
    utils = dm.utility.value(lottery._payoffs)
    weights = _decision_weights_cumulative(dm.weighting, lottery._probs)
    return float(np.dot(weights, utils))


def evaluate_dual_form(dm: DecisionMaker, lottery: Lottery) -> float:
    """Same functional computed by distorting decumulative probabilities
    through hbar(p) = 1 - h(1 - p); agrees with evaluate_rdu to rounding."""
    cums = np.minimum(np.cumsum(lottery._probs), 1.0)
    cums[-1] = 1.0
    decum = 1.0 - np.concatenate(([0.0], cums))  # survival probabilities
    hbar = dm.weighting.dual(decum)
    weights = hbar[:-1] - hbar[1:]
    utils = dm.utility.value(lottery._payoffs)
    return float(np.dot(weights, utils))


def certainty_equivalent(dm: DecisionMaker, lottery: Lottery) -> float:
    """Payoff c with U(c) equal to the rank-dependent value."""
    return dm.utility.inverse(evaluate_rdu(dm, lottery))
