"""Shared numeric kernel: bracketed root finding and empirical
convergence-order fits.

The root finder is deliberately hand-rolled rather than delegated to a
library routine: the contract here is a *residual* tolerance (|f(x)| < tol),
bit-for-bit determinism, and the guarantee that every iterate stays inside
the caller's bracket.  Library solvers terminate on an x-interval instead.

find_root solves one scalar problem.  find_roots solves many brackets in
lockstep, one numpy objective call per step over the elements still
active; each element takes exactly find_root's steps, so it returns the
same root bits after the same evaluations, or raises the same error.
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


def _pymax(first, *rest):
    """Elementwise max(first, *rest) with Python's semantics: a later value
    replaces the running maximum only if it compares greater (so NaN keeps
    find_root's bits too)."""
    out = first
    for r in rest:
        out = np.where(r > out, r, out)
    return out


def find_roots(
    objective: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float = 1e-13,
    max_iter: int = 200,
) -> np.ndarray:
    """find_root on every bracket [lo[i], hi[i]] at once, in lockstep.

    objective(x, idx) returns element idx[k]'s objective at x[k] for every
    k; it is called only on the elements still active, and an exception it
    raises propagates as it is.  Element i takes exactly the steps
    find_root takes on RootSpec(objective restricted to i, (lo[i], hi[i]),
    tol, max_iter), so it gets the same root bits after the same number of
    evaluations.  The solver's own arithmetic is silent, as find_root's
    Python floats are; the objective runs under the caller's numpy error
    state.

    Where elements fail, raises the error find_root raises on the first
    failing element in index order, with the same message.
    """
    lo = np.array(lo, dtype=float).reshape(-1)
    hi = np.array(hi, dtype=float).reshape(-1)
    roots = np.empty(lo.size)
    errors: list[tuple[int, Exception]] = []
    caller = np.geterr()

    def f(x, idx):
        with np.errstate(**caller):
            return np.asarray(objective(x, idx), dtype=float)

    def fail(mask, idx, make):
        if mask.any():
            k = int(np.argmax(mask))
            errors.append((int(idx[k]), make(k)))

    with np.errstate(all="ignore"):
        valid = lo < hi
        fail(~valid, np.arange(lo.size),
             lambda k: BracketError(f"invalid bracket [{float(lo[k])}, {float(hi[k])}]"))
        idx = np.flatnonzero(valid)
        lo, hi = lo[idx], hi[idx]
        flo, fhi = f(lo, idx), f(hi, idx)
        at_lo = np.abs(flo) <= tol
        at_hi = ~at_lo & (np.abs(fhi) <= tol)
        roots[idx[at_lo]] = lo[at_lo]
        roots[idx[at_hi]] = hi[at_hi]
        no_change = ~(at_lo | at_hi) & ((flo > 0.0) == (fhi > 0.0))
        fail(no_change, idx, lambda k: BracketError(
            f"no sign change on [{float(lo[k])}, {float(hi[k])}]: "
            f"f(lo)={float(flo[k]):.6g}, f(hi)={float(fhi[k]):.6g}"
        ))
        keep = ~(at_lo | at_hi | no_change)
        idx, lo, hi, flo, fhi = idx[keep], lo[keep], hi[keep], flo[keep], fhi[keep]

        for it in range(max_iter):
            if idx.size == 0:
                break
            x = 0.5 * (lo + hi)
            if it % 2 == 0:
                secant = hi - fhi * (hi - lo) / (fhi - flo)
                inside = (fhi != flo) & (lo < secant) & (secant < hi)
                x = np.where(inside, secant, x)
            fx = f(x, idx)
            done = np.abs(fx) <= tol
            roots[idx[done]] = x[done]
            to_lo = (fx > 0.0) == (flo > 0.0)
            lo, flo = np.where(to_lo, x, lo), np.where(to_lo, fx, flo)
            hi, fhi = np.where(to_lo, hi, x), np.where(to_lo, fhi, fx)
            width = hi - lo
            collapsed = ~done & (
                width <= 4.0 * _EPS * _pymax(1.0, np.abs(lo), np.abs(hi))
            )
            if collapsed.any():
                c = np.flatnonzero(collapsed)
                xc = 0.5 * (lo[c] + hi[c])
                fc = f(xc, idx[c])
                slope = np.abs(fhi[c] - flo[c]) / _pymax(width[c], 5e-324)
                floor = 8.0 * slope * _EPS * _pymax(1.0, np.abs(xc))
                ok = np.abs(fc) <= _pymax(tol, floor)
                roots[idx[c[ok]]] = xc[ok]
                fail(~ok, idx[c], lambda k: MaxIterError(
                    f"bracket collapsed to rounding width at {float(xc[k]):.17g} with "
                    f"residual {float(fc[k]):.6g} above tolerance {tol:g}"
                ))
            keep = ~(done | collapsed)
            idx, lo, hi, flo, fhi = idx[keep], lo[keep], hi[keep], flo[keep], fhi[keep]

        fail(np.ones(idx.size, dtype=bool), idx, lambda k: MaxIterError(
            f"residual tolerance {tol:g} not reached within "
            f"{max_iter} iterations (bracket [{float(lo[k]):.17g}, {float(hi[k]):.17g}])"
        ))
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return roots


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
