"""Shared numeric kernel: bracketed root finding and empirical
convergence-order fits.

The root finder is deliberately hand-rolled rather than delegated to a
library routine: the contract here is a *residual* tolerance (|f(x)| < tol),
bit-for-bit determinism, and the guarantee that every iterate stays inside
the caller's bracket.  Library solvers terminate on an x-interval instead.
find_root solves one scalar problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, DegenerateError, MaxIterError

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RootSpec:
    """A scalar root-finding problem on a sign-change bracket.

    objective must be continuous on [lo, hi]; the solver assumes (and the
    caller guarantees) that objective(lo) and objective(hi) have opposite
    signs, or that one endpoint already satisfies the residual tolerance.
    """

    objective: Callable[[float], float]
    bracket: tuple[float, float]
    tol: float = 1e-13
    max_iter: int = 200


def find_root(spec: RootSpec) -> float:
    """Solve spec.objective(x) = 0 to |objective(x)| < spec.tol.

    Interval-halving with secant acceleration: every other step tries the
    secant point and falls back to the midpoint whenever the secant leaves
    the current bracket, so the bracket provably halves at least every two
    iterations.  Deterministic: identical specs give bit-identical roots.

    When the bracket collapses to rounding width before the residual
    tolerance is met, the midpoint is accepted if its residual sits at the
    slope-implied rounding floor (steep objectives cannot do better in
    double precision); otherwise MaxIterError.  Reaching the iteration cap
    always raises, never returns silently.

    Raises BracketError if the bracket has no sign change.
    """
    f = spec.objective
    lo, hi = float(spec.bracket[0]), float(spec.bracket[1])
    if not lo < hi:
        raise BracketError(f"invalid bracket [{lo}, {hi}]")
    flo, fhi = f(lo), f(hi)
    if abs(flo) <= spec.tol:
        return lo
    if abs(fhi) <= spec.tol:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )

    for it in range(spec.max_iter):
        x = None
        if it % 2 == 0 and fhi != flo:
            x = hi - fhi * (hi - lo) / (fhi - flo)
            if not lo < x < hi:
                x = None
        if x is None:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= spec.tol:
            return x
        if (fx > 0.0) == (flo > 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        width = hi - lo
        if width <= 4.0 * _EPS * max(1.0, abs(lo), abs(hi)):
            x = 0.5 * (lo + hi)
            fx = f(x)
            slope = abs(fhi - flo) / max(width, 5e-324)
            floor = 8.0 * slope * _EPS * max(1.0, abs(x))
            if abs(fx) <= max(spec.tol, floor):
                return x
            raise MaxIterError(
                f"bracket collapsed to rounding width at {x:.17g} with "
                f"residual {fx:.6g} above tolerance {spec.tol:g}"
            )
    raise MaxIterError(
        f"residual tolerance {spec.tol:g} not reached within "
        f"{spec.max_iter} iterations (bracket [{lo:.17g}, {hi:.17g}])"
    )


def convergence_order(errors: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(scale).

    Points with error below 1e-14 sit at the rounding floor and are
    discarded before fitting.  Raises DegenerateError when fewer than two
    usable points remain (e.g. an exactly-reproduced approximation).
    """
    usable = [(s, e) for s, e in errors if e >= 1e-14]
    if len(usable) < 2:
        raise DegenerateError(
            "convergence order needs at least two points with error >= 1e-14"
        )
    scales = np.log([s for s, _ in usable])
    errs = np.log([e for _, e in usable])
    slope = np.polyfit(scales, errs, 1)[0]
    return float(slope)
