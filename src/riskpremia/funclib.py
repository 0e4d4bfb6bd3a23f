"""Parametric utility functions, probability weighting functions, and
concave transforms, all with analytic derivatives and inverses.

Conventions:

- Utilities, weightings and transforms are one abstraction: a strictly
  increasing, twice continuously differentiable map f of an interval
  onto an interval, with analytic f.value/f.d1/f.d2 (f, f', f'') and
  f.inverse.  Derivatives are never computed numerically here;
  difference quotients exist only as test oracles.
- A utility function U is defined on an open interval of payoffs.
- A weighting function h is a unit map: it sends [0, 1] onto itself with
  h(0) = 0, h(1) = 1 and h' > 0 on (0, 1).  value and inverse accept the
  closed interval and return the endpoints exactly; derivative queries
  at the endpoints are domain errors (they diverge for some families).
- h.dual is the decumulative companion 1 - h(1 - p).
- A closed-form inverse is one numpy formula for a float or an array, so
  a target has the same bits in every shape (** on a float would run
  scalar math; np.float_power runs the C library's pow, np.power may run
  a less accurate SIMD one).  tk, which has no closed form, is inverted
  by one Newton iteration that acts elementwise in the same way.
  tests/data/funclib_ulps.json bounds the error of every method of every
  spec, in ulps of an mpmath reference.
- A ConcaveTransform T is a strictly concave weighting; concavify(h, T)
  builds the composition T(h(p)) with chain-rule derivatives.  Composing
  with any valid T raises the curvature index -h''/h' everywhere.
- A family is a frozen dataclass that declares its parameters as fields,
  its parameter checks in __post_init__ and its formulas.  Everything else
  derives from the fields: spec prints "family:p1,p2" in field order, and
  the parse_* functions take the arity from the fields and pass the
  parameters in that order, so parse_*(f.spec) rebuilds f up to the
  printed precision.

Monotonicity is enforced twice: through parameter constraints (e.g. the
Tversky-Kahneman family is rejected below its curvature threshold) and
through a dense grid check of the analytic first derivative at
construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import ClassVar, Mapping, Union

import numpy as np

from .errors import (
    ConcavityError,
    DomainError,
    MaxIterError,
    MonotonicityError,
    ParseError,
    RangeError,
    RiskPremiaError,
)

# Interior probability grid used for construction-time monotonicity checks.
# Inset of 1e-4 keeps clear of endpoint derivative blowup (prelec).
VALIDATION_GRID = np.linspace(1e-4, 1.0 - 1e-4, 1001)

_INF = math.inf

FunctionSpec = Union[str, Mapping]


def _fmt(x: float) -> str:
    return f"{x:g}"


def _scalar_or_array(out: np.ndarray, like: np.ndarray):
    return float(out) if like.ndim == 0 else out


# ---------------------------------------------------------------------------
# The shared base
# ---------------------------------------------------------------------------


class _MonotoneFn:
    """Strictly increasing map with analytic derivatives and an inverse.

    Subclasses implement _value/_d1/_d2 on arrays inside self.domain and
    _inverse on a float or an array inside self.codomain, as one formula
    for both.  value/d1/d2/inverse accept scalars or numpy arrays.
    inverse checks the range, and a target whose preimage leaves the
    floats is a RangeError naming the first such target; one point runs
    the same formula without masks, so it has the same bits in every
    shape.  Endpoint policy: a unit map sends [0, 1] onto itself, so its
    value and inverse also accept the endpoints and return them exactly;
    d1/d2 take the open interval only, and every other map takes open
    intervals throughout.  f' > 0 is checked on a dense grid at
    construction.

    A concrete family is a frozen dataclass: its fields are its
    parameters, __post_init__ checks them, and _value/_d1/_d2/_inverse are
    its formulas.  spec is built from the fields, never written per family.
    """

    family: ClassVar[str] = ""
    _unit: ClassVar[bool] = False
    _symbol: ClassVar[str] = ""  # f's name in the construction-check message

    @property
    def domain(self) -> tuple[float, float]:
        """Open interval on which f is defined and strictly increasing."""
        return (-_INF, _INF)

    @property
    def codomain(self) -> tuple[float, float]:
        """Open interval of attainable values."""
        return (-_INF, _INF)

    @property
    def spec(self) -> str:
        """Compact string form, parseable by the family's parse_* function:
        the family name, then ":" and the fields in order, joined by ","."""
        params = ",".join(_fmt(getattr(self, f.name)) for f in fields(self))
        return f"{self.family}:{params}" if params else self.family

    def _outside_domain(self, closed: bool) -> RiskPremiaError:
        raise NotImplementedError

    def _outside_range(self, t: float) -> RiskPremiaError:
        raise NotImplementedError

    def _check_domain(self, x, closed: bool = False) -> np.ndarray:
        # every domain is open or [0, 1], so the bounds test also rejects
        # NaN and +-inf, and finiteness is checked only to name the error
        arr = np.asarray(x, dtype=float)
        lo, hi = self.domain
        ok = (arr >= lo) & (arr <= hi) if closed else (arr > lo) & (arr < hi)
        if not ok.all():
            if not np.isfinite(arr).all():
                raise DomainError("non-finite argument")
            raise self._outside_domain(closed)
        return arr

    def value(self, x):
        arr = self._check_domain(x, closed=self._unit)
        if not self._unit:
            return _scalar_or_array(self._value(arr), arr)
        out = np.empty(arr.shape, dtype=float)
        interior = (arr > 0.0) & (arr < 1.0)
        out[~interior] = arr[~interior]  # f(0) = 0, f(1) = 1 exactly
        if np.any(interior):
            out[interior] = self._value(arr[interior])
        return _scalar_or_array(out, arr)

    def d1(self, x):
        arr = self._check_domain(x)
        return _scalar_or_array(self._d1(arr), arr)

    def d2(self, x):
        arr = self._check_domain(x)
        return _scalar_or_array(self._d2(arr), arr)

    def inverse(self, t):
        # isinstance first: np.ndim costs ~2 us on a float
        scalar = isinstance(t, float) or np.ndim(t) == 0
        arr = None if scalar else np.array(t, dtype=float)
        lo, hi = self.codomain
        if scalar or arr.size == 1:  # one point: the same formula without masks
            v = float(t) if scalar else arr.item()
            if self._unit and (v == lo or v == hi):
                out = v
            elif not lo < v < hi:
                raise self._outside_range(v)
            else:
                with np.errstate(over="ignore", divide="ignore"):
                    out = float(self._inverse(v))
                if not math.isfinite(out):
                    raise self._overflow(v)
            if scalar:
                return out
            arr[...] = out
            return arr
        interior = (arr > lo) & (arr < hi)
        ok = interior | (arr == lo) | (arr == hi) if self._unit else interior
        if not ok.all():
            raise self._outside_range(float(arr[~ok][0]))
        if interior.any():  # a unit map's endpoints stay exact in the copy
            with np.errstate(over="ignore", divide="ignore"):
                out = self._inverse(arr[interior])
            finite = np.isfinite(out)
            if not finite.all():
                raise self._overflow(float(arr[interior][~finite][0]))
            arr[interior] = out
        return arr

    def _overflow(self, t: float) -> RangeError:
        return RangeError(f"inverse of {t:g} overflows the float range for {self.spec}")

    def _value(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _d1(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _d2(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inverse(self, t):
        raise NotImplementedError

    def _validation_grid(self) -> np.ndarray:
        raise NotImplementedError

    def _check_increasing(self) -> None:
        # smoke test; the real guarantee is the per-family parameter check.
        # Extreme parameters overflow here; the finiteness test rejects them.
        with np.errstate(all="ignore"):
            d = self._d1(self._validation_grid())
        if not (np.all(np.isfinite(d)) and np.all(d > 0.0)):
            raise MonotonicityError(
                f"{self._symbol}' <= 0 on validation grid for {self.spec}"
            )


# ---------------------------------------------------------------------------
# Utility functions
# ---------------------------------------------------------------------------


class UtilityFn(_MonotoneFn):
    """Base class for payoff utilities U on an open interval of payoffs."""

    _symbol: ClassVar[str] = "U"
    # bench/tracing.py wraps these four from this class's own __dict__
    value, d1, d2, inverse = _MonotoneFn.value, _MonotoneFn.d1, _MonotoneFn.d2, _MonotoneFn.inverse

    def _outside_domain(self, closed):
        lo, hi = self.domain
        return DomainError(f"payoff outside domain ({lo:g}, {hi:g}) of {self.spec}")

    def _outside_range(self, t):
        lo, hi = self.codomain
        return RangeError(
            f"utility value {t:g} outside range ({lo:g}, {hi:g}) of {self.spec}"
        )

    def _validation_window(self) -> tuple[float, float]:
        lo, hi = self.domain
        if math.isinf(lo) and math.isinf(hi):
            return (-100.0, 100.0)
        if math.isinf(hi):
            return (lo + 1e-2, lo + 100.0)
        if math.isinf(lo):
            return (hi - 100.0, hi - 1e-8)
        span = hi - lo
        return (lo + 1e-3 * span, hi - 1e-3 * span)

    def _validation_grid(self):
        return np.linspace(*self._validation_window(), 1001)


@dataclass(frozen=True)
class LinearUtility(UtilityFn):
    """U(x) = x, the risk-neutral / dual-theory utility."""

    family: ClassVar[str] = "linear"

    def _value(self, x):
        return x + 0.0

    def _d1(self, x):
        return 0.0 * x + 1.0

    def _d2(self, x):
        return 0.0 * x

    def _inverse(self, t):
        return t


@dataclass(frozen=True)
class CaraUtility(UtilityFn):
    """Constant absolute risk aversion: U(x) = -exp(-a*x), a > 0.

    -U''/U' = a at every wealth level.
    """

    a: float
    family: ClassVar[str] = "cara"

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise MonotonicityError("cara requires a > 0")
        self._check_increasing()

    @property
    def codomain(self):
        return (-_INF, 0.0)

    def _validation_window(self):
        xm = min(10.0, 600.0 / self.a)
        return (-xm, xm)

    def _value(self, x):
        return -np.exp(-self.a * x)

    def _d1(self, x):
        return self.a * np.exp(-self.a * x)

    def _d2(self, x):
        return -self.a * self.a * np.exp(-self.a * x)

    def _inverse(self, t):
        return -np.log(-t) / self.a


@dataclass(frozen=True)
class CrraUtility(UtilityFn):
    """Constant relative risk aversion on x > 0.

    U(x) = x^(1-eta) / (1-eta) for eta != 1 and log(x) for eta = 1, so
    -x*U''/U' = eta throughout.
    """

    eta: float
    family: ClassVar[str] = "crra"

    def __post_init__(self):
        if not math.isfinite(self.eta):
            raise MonotonicityError("crra requires finite eta")
        self._check_increasing()

    @property
    def domain(self):
        return (0.0, _INF)

    @property
    def codomain(self):
        if self.eta == 1.0:
            return (-_INF, _INF)
        if self.eta < 1.0:
            return (0.0, _INF)
        return (-_INF, 0.0)

    def _value(self, x):
        if self.eta == 1.0:
            return np.log(x)
        return x ** (1.0 - self.eta) / (1.0 - self.eta)

    def _d1(self, x):
        return x ** (-self.eta)

    def _d2(self, x):
        return -self.eta * x ** (-self.eta - 1.0)

    def _inverse(self, t):
        if self.eta == 1.0:
            return np.exp(t)
        return np.float_power((1.0 - self.eta) * t, 1.0 / (1.0 - self.eta))


@dataclass(frozen=True)
class LogUtility(UtilityFn):
    """U(x) = log(x) on x > 0 (the eta = 1 relative-risk-aversion case)."""

    family: ClassVar[str] = "log"

    @property
    def domain(self):
        return (0.0, _INF)

    def _value(self, x):
        return np.log(x)

    def _d1(self, x):
        return 1.0 / x

    def _d2(self, x):
        return -1.0 / (x * x)

    def _inverse(self, t):
        return np.exp(t)


@dataclass(frozen=True)
class QuadraticUtility(UtilityFn):
    """U(x) = x - b*x^2, truncated to the branch where U' = 1 - 2bx > 0.

    b > 0 gives the concave branch x < 1/(2b); b < 0 the convex branch
    x > 1/(2b); b = 0 degenerates to linear.
    """

    b: float
    family: ClassVar[str] = "quadratic"

    def __post_init__(self):
        if not math.isfinite(self.b):
            raise MonotonicityError("quadratic requires finite b")
        if self.b != 0.0 and math.isinf(1.0 / (4.0 * self.b)):
            raise MonotonicityError(f"quadratic requires a finite 1/(4b) (got b={self.b:g})")
        self._check_increasing()

    @property
    def domain(self):
        if self.b > 0.0:
            return (-_INF, 1.0 / (2.0 * self.b))
        if self.b < 0.0:
            return (1.0 / (2.0 * self.b), _INF)
        return (-_INF, _INF)

    @property
    def codomain(self):
        if self.b > 0.0:
            return (-_INF, 1.0 / (4.0 * self.b))
        if self.b < 0.0:
            return (1.0 / (4.0 * self.b), _INF)
        return (-_INF, _INF)

    def _value(self, x):
        return x - self.b * x * x

    def _d1(self, x):
        if self.b == 0.0:
            return 0.0 * x + 1.0
        # 1 - 2bx = 4b (1/(4b) - x/2): with 1/(4b) exact, nothing cancels
        # near the end of the domain
        end, err, _, _ = self._end_constants
        return 4.0 * self.b * ((end - 0.5 * x) + err)

    def _d2(self, x):
        return 0.0 * x - 2.0 * self.b

    @cached_property
    def _end_constants(self) -> tuple[float, float, float, float]:
        """1/(4b) as a double and its rounding error, and b = m 4^k exactly
        as m (1/4 <= |m| < 1) and 2^k."""
        end = 1.0 / (4.0 * self.b)
        m, e = math.frexp(self.b)
        k = (e + 1) // 2
        err = float(1 / (4 * Fraction(self.b)) - Fraction(end))
        return end, err, math.ldexp(m, e - 2 * k), math.ldexp(1.0, k)

    def _inverse(self, t):
        if self.b == 0.0:
            return t
        # (1 - sqrt(1 - 4bt)) / 2b = t / (1/2 + 2^k sqrt(m (1/(4b) - t))):
        # nothing cancels as bt -> 0 nor, with 1/(4b) exact, near the end of
        # the range, and |m| < 1 keeps the product under the root finite
        end, err, m, root = self._end_constants
        return t / (0.5 + root * np.sqrt(m * ((end - t) + err)))


# ---------------------------------------------------------------------------
# Probability weighting functions
# ---------------------------------------------------------------------------


class WeightingFn(_MonotoneFn):
    """Base class for probability distortions: unit maps of [0, 1]."""

    _unit: ClassVar[bool] = True
    _symbol: ClassVar[str] = "h"
    # bench/tracing.py wraps these four and dual from this class's own __dict__
    value, d1, d2, inverse = _MonotoneFn.value, _MonotoneFn.d1, _MonotoneFn.d2, _MonotoneFn.inverse

    @property
    def domain(self):
        return (0.0, 1.0)

    @property
    def codomain(self):
        return (0.0, 1.0)

    def _outside_domain(self, closed):
        kind = "[0, 1]" if closed else "(0, 1)"
        return DomainError(f"probability outside {kind} for {self.spec}")

    def _outside_range(self, q):
        return DomainError(f"distorted probability {q:g} outside [0, 1]")

    def dual(self, p):
        """Decumulative companion 1 - h(1 - p); involutive and endpoint-exact."""
        arr = self._check_domain(p, closed=True)
        return _scalar_or_array(
            np.asarray(1.0 - self.value(1.0 - arr), dtype=float), arr
        )

    def _validation_grid(self):
        return VALIDATION_GRID


@dataclass(frozen=True)
class IdentityWeighting(WeightingFn):
    """h(p) = p: no distortion (the expected-utility special case)."""

    family: ClassVar[str] = "identity"

    def _value(self, p):
        return p + 0.0

    def _d1(self, p):
        return 0.0 * p + 1.0

    def _d2(self, p):
        return 0.0 * p

    def _inverse(self, q):
        return q


@dataclass(frozen=True)
class PowerWeighting(WeightingFn):
    """h(p) = p^theta, theta > 0; concave for theta < 1, convex for theta > 1."""

    theta: float
    family: ClassVar[str] = "power"

    def __post_init__(self):
        if not (self.theta > 0.0 and math.isfinite(self.theta)):
            raise MonotonicityError("power weighting requires theta > 0")
        self._check_increasing()

    def _value(self, p):
        return p**self.theta

    def _d1(self, p):
        return self.theta * p ** (self.theta - 1.0)

    def _d2(self, p):
        return self.theta * (self.theta - 1.0) * p ** (self.theta - 2.0)

    def _inverse(self, q):
        return np.float_power(q, 1.0 / self.theta)


@dataclass(frozen=True)
class PrelecWeighting(WeightingFn):
    """Prelec distortion h(p) = exp(-beta * (-ln p)^alpha), alpha, beta > 0.

    Inverse-S shaped for alpha < 1 with fixed point near 1/e; derivatives
    diverge at the endpoints, hence the open-interval restriction on d1/d2.
    """

    alpha: float
    beta: float
    family: ClassVar[str] = "prelec"

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise MonotonicityError("prelec requires alpha > 0 and beta > 0")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise MonotonicityError("prelec requires finite parameters")
        self._check_increasing()

    def _value(self, p):
        return np.exp(-self.beta * (-np.log(p)) ** self.alpha)

    def _d1(self, p):
        ell = -np.log(p)
        return self._value(p) * self.beta * self.alpha * ell ** (self.alpha - 1.0) / p

    def _d2(self, p):
        a, b = self.alpha, self.beta
        ell = -np.log(p)
        inner = (
            b * a * ell ** (2.0 * (a - 1.0))
            - (a - 1.0) * ell ** (a - 2.0)
            - ell ** (a - 1.0)
        )
        return self._value(p) * (b * a / (p * p)) * inner

    def _inverse(self, q):
        return np.exp(-np.float_power(-np.log(q) / self.beta, 1.0 / self.alpha))


# Below this curvature the Tversky-Kahneman form loses monotonicity on (0, 1).
TK_MIN_GAMMA = 0.28
# The tk inverse took at most 19 Newton steps over gamma in [0.28, 5] and
# targets from 5e-324 to 1 - 2^-53; the cap only stops a runaway iteration.
_TK_MAX_ITER = 64
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class TkWeighting(WeightingFn):
    """Tversky-Kahneman distortion h(p) = p^g / (p^g + (1-p)^g)^(1/g).

    Rejected for g < 0.28: monotonicity fails below that threshold, which
    would break the h' > 0 contract every other operation relies on.  No
    closed-form inverse; inversion is a safeguarded Newton iteration that
    acts elementwise, so a target has the same bits in every shape.
    """

    gamma: float
    family: ClassVar[str] = "tk"

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise MonotonicityError("tk requires finite gamma")
        if self.gamma < TK_MIN_GAMMA:
            raise MonotonicityError(
                f"tk weighting is non-monotone for gamma < {TK_MIN_GAMMA}"
                f" (got {self.gamma:g})"
            )
        self._check_increasing()

    def _value(self, p):
        g = self.gamma
        s = p**g + (1.0 - p) ** g
        return p**g * s ** (-1.0 / g)

    def _d1(self, p):
        return self._value(p) * self._logd1(p)

    def _d2(self, p):
        g = self.gamma
        s = p**g + (1.0 - p) ** g
        sp = g * (p ** (g - 1.0) - (1.0 - p) ** (g - 1.0))
        spp = g * (g - 1.0) * (p ** (g - 2.0) + (1.0 - p) ** (g - 2.0))
        g1 = g / p - sp / (g * s)
        g1p = -g / (p * p) - (spp * s - sp * sp) / (g * s * s)
        return self._value(p) * (g1 * g1 + g1p)

    def _logd1(self, p):
        g = self.gamma
        s = p**g + (1.0 - p) ** g
        sp = g * (p ** (g - 1.0) - (1.0 - p) ** (g - 1.0))
        return g / p - sp / (g * s)

    def _inverse(self, q):
        # Newton on r = log(h(p)/q), stepping in log p below 1/2 and in
        # log(1 - p) above, so relative accuracy holds at both ends.  Each
        # iterate shrinks the bracket (lo, hi) around the root, and a step
        # that leaves it is replaced by its midpoint.  An element stops when
        # its step is within 2 ulps, its residual is 0 or its bracket has no
        # double inside; it then keeps its bits while the others go on.
        g = self.gamma
        shape, q = np.shape(q), np.array(q, dtype=float, ndmin=1)
        with np.errstate(all="ignore"):
            # h(p) ~ p^g near 0; a seed of 0 is a preimage below 5e-324
            p = np.where(q < 0.5, np.minimum(np.float_power(q, 1.0 / g), q), q)
            lo, hi = np.zeros_like(p), np.ones_like(p)
            done = p == 0.0
            q_tiny = q < _TINY
            for _ in range(_TK_MAX_ITER):
                u = 1.0 - p
                pg, ug = p**g, u**g
                s = pg + ug
                h = pg * s ** (-1.0 / g)
                r = np.log(h / q)
                # a subnormal h or q has too few bits for the ratio
                tiny = (h < _TINY) | q_tiny
                if tiny.any():
                    r = np.where(tiny, g * np.log(p) - np.log(s) / g - np.log(q), r)
                below = r < 0.0
                lo, hi = np.where(below, p, lo), np.where(below, hi, p)
                # d log h / d log p (_logd1's g/p overflows at a subnormal p);
                # the step is -r / slope in log p, and in log(1 - p), whose
                # slope is -(1 - p)/p times this one, r p / ((1 - p) slope)
                slope = g - (pg - p * ug / u) / s
                upper = p > 0.5
                step = np.where(upper, u, p) * np.exp(r / np.where(upper, u / p, -1.0) / slope)
                new = np.where(upper, 1.0 - step, step)
                close = np.abs(new - p) <= 2.0 * np.spacing(p)
                mid = 0.5 * (lo + hi)
                stop = (r == 0.0) | (mid <= lo) | (mid >= hi)
                new = np.where(close | ((lo < new) & (new < hi)), new, mid)
                p = np.where(done | (stop & ~close), p, new)
                done |= close | stop
                if done.all():
                    return p.reshape(shape)
        raise MaxIterError(
            f"tk inverse did not converge within {_TK_MAX_ITER} iterations for {self.spec}"
        )


# ---------------------------------------------------------------------------
# Concave transforms and composition
# ---------------------------------------------------------------------------


class ConcaveTransform(WeightingFn):
    """Strictly concave weighting: T(0) = 0, T(1) = 1 exactly, with T' > 0
    and T'' < 0 verified on the validation grid at construction.
    Composing a weighting function with any such T raises its curvature
    index -h''/h' pointwise.
    """

    _symbol: ClassVar[str] = "T"
    # bench/tracing.py wraps these four from this class's own __dict__
    value, d1, d2, inverse = _MonotoneFn.value, _MonotoneFn.d1, _MonotoneFn.d2, _MonotoneFn.inverse

    def _check_shape(self) -> None:
        self._check_increasing()
        with np.errstate(all="ignore"):
            if not np.all(self._d2(VALIDATION_GRID) < 0.0):
                raise ConcavityError(f"T'' >= 0 on validation grid for {self.spec}")


@dataclass(frozen=True)
class PowerTransform(ConcaveTransform):
    """T(t) = t^kappa with 0 < kappa < 1."""

    kappa: float
    family: ClassVar[str] = "power"

    def __post_init__(self):
        if not (0.0 < self.kappa < 1.0):
            raise ConcavityError("power transform requires 0 < kappa < 1")
        self._check_shape()

    def _value(self, t):
        return t**self.kappa

    def _d1(self, t):
        return self.kappa * t ** (self.kappa - 1.0)

    def _d2(self, t):
        return self.kappa * (self.kappa - 1.0) * t ** (self.kappa - 2.0)

    def _inverse(self, q):
        return np.float_power(q, 1.0 / self.kappa)


@dataclass(frozen=True)
class ExpTransform(ConcaveTransform):
    """Normalized exponential T(t) = (1 - e^(-a t)) / (1 - e^(-a)), a > 0.

    Strictly concave for every a > 0 with a closed-form inverse; the
    curvature it adds to -h''/h' is a * h' everywhere.
    """

    a: float
    family: ClassVar[str] = "exp"

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ConcavityError("exp transform requires a > 0")
        self._check_shape()

    def _value(self, t):
        return np.expm1(-self.a * t) / np.expm1(-self.a)

    def _d1(self, t):
        return self.a * np.exp(-self.a * t) / (-np.expm1(-self.a))

    def _d2(self, t):
        return -self.a * self.a * np.exp(-self.a * t) / (-np.expm1(-self.a))

    def _inverse(self, q):
        return -np.log1p(q * np.expm1(-self.a)) / self.a


@dataclass(frozen=True)
class BlendTransform(ConcaveTransform):
    """Affine blend T(t) = (1-w) t + w sqrt(t) of identity and square root."""

    w: float
    family: ClassVar[str] = "blend"

    def __post_init__(self):
        if not (0.0 < self.w <= 1.0):
            raise ConcavityError("blend transform requires 0 < w <= 1")
        self._check_shape()

    def _value(self, t):
        return (1.0 - self.w) * t + self.w * np.sqrt(t)

    def _d1(self, t):
        return (1.0 - self.w) + self.w / (2.0 * np.sqrt(t))

    def _d2(self, t):
        return -self.w / (4.0 * t**1.5)

    def _inverse(self, q):
        # (1-w) s^2 + w s - q = 0 for s = sqrt(t), in the form that neither
        # cancels nor divides by 1 - w
        w = self.w
        s = 2.0 * q / (w + np.sqrt(w * w + 4.0 * (1.0 - w) * q))
        return s * s


@dataclass(frozen=True)
class ComposedWeighting(WeightingFn):
    """Concavified weighting h2(p) = T(base(p)) with chain-rule derivatives."""

    transform: ConcaveTransform
    base: WeightingFn
    family: ClassVar[str] = "composed"

    def __post_init__(self):
        with np.errstate(all="ignore"):
            inner = self.base._value(VALIDATION_GRID)
        if not (np.all(inner > 0.0) and np.all(inner < 1.0)):
            # extreme bases can underflow to exactly 0/1 where the chain-rule
            # factors T'(h), T''(h) are not representable
            raise MonotonicityError(
                f"base weighting {self.base.spec} collapses to the unit-interval "
                "boundary on the validation grid; composition is not representable"
            )
        self._check_increasing()

    @property
    def spec(self):
        return f"{self.transform.spec}@{self.base.spec}"

    def _value(self, p):
        return self.transform.value(self.base._value(p))

    def _d1(self, p):
        h = self.base._value(p)
        return self.transform.d1(h) * self.base._d1(p)

    def _d2(self, p):
        h = self.base._value(p)
        hp = self.base._d1(p)
        return self.transform.d2(h) * hp * hp + self.transform.d1(h) * self.base._d2(p)

    def _inverse(self, q):
        return self.base.inverse(self.transform.inverse(q))


def concavify(g: WeightingFn, transform: ConcaveTransform) -> ComposedWeighting:
    """Compose a weighting function with a concave transform: p -> T(g(p))."""
    return ComposedWeighting(transform=transform, base=g)


# ---------------------------------------------------------------------------
# Spec parsing: "family:p1,p2" strings and {"family": ..., "params": [...]}
# ---------------------------------------------------------------------------

_UTILITIES = {
    f.family: f for f in (LinearUtility, CaraUtility, CrraUtility, LogUtility, QuadraticUtility)
}
_UTILITIES["identity"] = LinearUtility  # alias: identity utility = linear
_WEIGHTINGS = {f.family: f for f in (IdentityWeighting, PowerWeighting, PrelecWeighting, TkWeighting)}
_TRANSFORMS = {f.family: f for f in (PowerTransform, ExpTransform, BlendTransform)}


def _split_spec_string(text: str) -> tuple[str, list[float]]:
    name, _, tail = text.strip().partition(":")
    name = name.strip().lower()
    if not name:
        raise ParseError(f"empty function spec in {text!r}")
    if not tail:
        return name, []
    try:
        params = [float(tok) for tok in tail.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad parameter list in {text!r}: {exc}") from None
    return name, params


def _build(table: dict, kind: str, name: str, params: list[float]):
    if name not in table:
        known = ", ".join(sorted(set(table)))
        raise ParseError(f"unknown {kind} family {name!r} (known: {known})")
    ctor = table[name]
    arity = len(fields(ctor))
    if len(params) != arity:
        raise ParseError(
            f"{kind} family {name!r} takes {arity} parameter(s), got {len(params)}"
        )
    return ctor(*params)


def _spec_parts(spec: FunctionSpec, kind: str) -> tuple[str, list[float]]:
    if isinstance(spec, str):
        return _split_spec_string(spec)
    if isinstance(spec, Mapping):
        try:
            name = str(spec["family"]).strip().lower()
        except KeyError:
            raise ParseError(f"{kind} spec object is missing 'family'") from None
        raw = spec.get("params", [])
        try:
            params = [float(v) for v in raw]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad 'params' for {kind} {name!r}: {exc}") from None
        return name, params
    raise ParseError(f"{kind} spec must be a string or mapping, got {type(spec).__name__}")


def parse_utility(spec: FunctionSpec) -> UtilityFn:
    """Build a utility function from "family:params" or a JSON-style mapping."""
    name, params = _spec_parts(spec, "utility")
    return _build(_UTILITIES, "utility", name, params)


def parse_transform(spec: FunctionSpec) -> ConcaveTransform:
    """Build a concave transform from "family:params" or a mapping."""
    name, params = _spec_parts(spec, "transform")
    return _build(_TRANSFORMS, "transform", name, params)


def parse_weighting(spec: FunctionSpec) -> WeightingFn:
    """Build a weighting function from a string or mapping.

    Strings support composition as "TRANSFORM@BASE", e.g.
    "power:0.5@tk:0.61" for the power transform applied to a tk base;
    mappings use {"family": "composed", "transform": {...}, "base": {...}}.
    """
    if isinstance(spec, str) and "@" in spec:
        t_text, _, base_text = spec.partition("@")
        return concavify(parse_weighting(base_text), parse_transform(t_text))
    if isinstance(spec, Mapping) and str(spec.get("family", "")).lower() == "composed":
        if "transform" not in spec or "base" not in spec:
            raise ParseError("composed weighting needs 'transform' and 'base'")
        return concavify(
            parse_weighting(spec["base"]), parse_transform(spec["transform"])
        )
    name, params = _spec_parts(spec, "weighting")
    return _build(_WEIGHTINGS, "weighting", name, params)
