"""Reference oracle for the benchmark: mpmath at 50 digits.

Nothing here imports riskpremia.  Function specs ("cara:1",
"power:0.7@tk:0.61", ...) are parsed independently and evaluated from
their closed forms; the tk inverse is solved with mpmath.findroot (Anderson-Bjorck on a
bracket found by bisection in doubles).

Each exact premium comes with a condition number C: the error, in units of
the double-precision epsilon, that rounding of the inputs and of every
intermediate of the premium's defining formula can cause, propagated to
first order.  A library value passes when it is within ULPS * eps * C of
the reference.  C includes the root-residual tolerance of the library's
tk inverse (TK_ROOT_TOL, its documented contract), because that error is
absolute in h rather than relative.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

MP = mpmath.MPContext()
MP.dps = 50

EPS = 2.0**-52
# Allowed error in units of EPS * C; generous enough for the operation
# counts of each formula, far below the error of a wrong formula.
ULPS = 128.0
# Residual tolerance of the library's tk inverse, in units of EPS.
TK_ROOT_TOL = 1e-14 / EPS

PREMIA = ("pi", "gamma", "rho", "lambda", "sigma", "mu")

_ONE = MP.mpf(1)


def _split(spec: str) -> tuple[str, list]:
    name, _, tail = spec.strip().partition(":")
    params = [MP.mpf(float(tok)) for tok in tail.split(",")] if tail else []
    return name.strip().lower(), params


class Utility:
    """U, U' and U^{-1} of one utility spec, in mpmath."""

    def __init__(self, spec: str):
        self.spec = spec
        # magnitude of the intermediates of the closed-form inverse
        self.inv_scale = 0.0
        name, prm = _split(spec)
        if name in ("linear", "identity"):
            self.value, self.d1, self.inverse = (lambda x: x), (lambda x: _ONE), (lambda t: t)
        elif name == "cara":
            a = prm[0]
            self.value = lambda x: -MP.exp(-a * x)
            self.d1 = lambda x: a * MP.exp(-a * x)
            self.inverse = lambda t: -MP.log(-t) / a
        elif name in ("crra", "log"):
            eta = prm[0] if name == "crra" else _ONE
            if eta == 1:
                self.value, self.inverse = MP.log, MP.exp
            else:
                self.value = lambda x: x ** (1 - eta) / (1 - eta)
                self.inverse = lambda t: ((1 - eta) * t) ** (1 / (1 - eta))
            self.d1 = lambda x: x ** (-eta)
        elif name == "quadratic":
            b = prm[0]
            # the closed-form inverse subtracts from 1 / (2b)
            self.inv_scale = 0.0 if b == 0 else float(1 / abs(2 * b))
            self.value = lambda x: x - b * x * x
            self.d1 = lambda x: 1 - 2 * b * x
            self.inverse = (
                (lambda t: t) if b == 0 else (lambda t: (1 - MP.sqrt(1 - 4 * b * t)) / (2 * b))
            )
        else:
            raise ValueError(f"unknown utility family {name!r}")


def _transform(spec: str):
    """(T, T', T^{-1}) of a concave transform spec."""
    name, prm = _split(spec)
    if name == "power":
        k = prm[0]
        return (lambda t: t**k), (lambda t: k * t ** (k - 1)), (lambda q: q ** (1 / k))
    if name == "exp":
        a = prm[0]
        den = MP.expm1(-a)
        return (
            (lambda t: MP.expm1(-a * t) / den),
            (lambda t: a * MP.exp(-a * t) / -den),
            (lambda q: -MP.log1p(q * den) / a),
        )
    if name == "blend":
        w = prm[0]

        def inv(q):
            if w == 1:
                return q * q
            s = (-w + MP.sqrt(w * w + 4 * (1 - w) * q)) / (2 * (1 - w))
            return s * s

        return (
            (lambda t: (1 - w) * t + w * MP.sqrt(t)),
            (lambda t: (1 - w) + w / (2 * MP.sqrt(t))),
            inv,
        )
    raise ValueError(f"unknown transform family {name!r}")


class Weighting:
    """h, h' and h^{-1} of one weighting spec (with TRANSFORM@BASE), in mpmath."""

    def __init__(self, spec: str):
        self.spec = spec
        self.base = None
        if "@" in spec:
            t_spec, _, base_spec = spec.partition("@")
            self.base = Weighting(base_spec)
            tv, td, ti = _transform(t_spec)
            base = self.base
            self._value = lambda p: tv(base.value(p))
            self.d1 = lambda p: td(base.value(p)) * base.d1(p)
            self._inverse = lambda q: base.inverse(ti(q))
            self.root_solved = base.root_solved
            return
        name, prm = _split(spec)
        self.root_solved = name == "tk"
        if name == "identity":
            self._value, self.d1, self._inverse = (lambda p: p), (lambda p: _ONE), (lambda q: q)
        elif name == "power":
            th = prm[0]
            self._value = lambda p: p**th
            self.d1 = lambda p: th * p ** (th - 1)
            self._inverse = lambda q: q ** (1 / th)
        elif name == "prelec":
            al, be = prm
            self._value = lambda p: MP.exp(-be * (-MP.log(p)) ** al)
            self.d1 = lambda p: self._value(p) * be * al * (-MP.log(p)) ** (al - 1) / p
            self._inverse = lambda q: MP.exp(-((-MP.log(q) / be) ** (1 / al)))
        elif name == "tk":
            g = self.gamma = prm[0]
            self._value = lambda p: p**g * (p**g + (1 - p) ** g) ** (-1 / g)

            def d1(p):
                s = p**g + (1 - p) ** g
                sp = g * (p ** (g - 1) - (1 - p) ** (g - 1))
                return self._value(p) * (g / p - sp / (g * s))

            self.d1 = d1
            self._inverse = self._tk_inverse
        else:
            raise ValueError(f"unknown weighting family {name!r}")

    def value(self, p):
        return p if p == 0 or p == 1 else self._value(p)

    def inverse(self, q):
        return q if q == 0 or q == 1 else self._inverse(q)

    def _tk_inverse(self, q):
        # bracket by bisection in doubles, then solve at 50 digits
        g, qf = float(self.gamma), float(q)
        lo, hi = 0.0, 1.0
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            if mid**g * (mid**g + (1.0 - mid) ** g) ** (-1.0 / g) < qf:
                lo = mid
            else:
                hi = mid
        lo, hi = MP.mpf(lo) * (1 - MP.mpf(1e-9)), min(_ONE, MP.mpf(hi) * (1 + MP.mpf(1e-9)))
        if (self._value(lo) - q) * (self._value(hi) - q) > 0:
            lo, hi = MP.mpf(0), _ONE
        return MP.findroot(lambda p: self._value(p) - q, (lo, hi), solver="anderson")

    def inv_cond(self, p) -> float:
        """Error of the library's inverse at h(p), per EPS of target error."""
        c = 1.0 / float(self.d1(p))
        if self.base is not None:
            c += (1.0 + TK_ROOT_TOL * self.root_solved) / float(self.base.d1(p))
        elif self.root_solved:
            c += TK_ROOT_TOL / float(self.d1(p))
        return c


_CACHE: dict = {}


def utility(spec: str) -> Utility:
    key = ("u", spec)
    if key not in _CACHE:
        _CACHE[key] = Utility(spec)
    return _CACHE[key]


def weighting(spec: str) -> Weighting:
    key = ("h", spec)
    if key not in _CACHE:
        _CACHE[key] = Weighting(spec)
    return _CACHE[key]


def _with_err_scale(f, points):
    """(f at each point, max rounding scale |f| + |x| f' over the points)."""
    values, scale = [], 0.0
    for x in points:
        v = f.value(x)
        values.append(v)
        if 0 < x < 1 or not isinstance(f, Weighting):
            scale = max(scale, float(abs(v) + abs(x) * f.d1(x)))
        else:
            scale = max(scale, float(x))
    return values, scale


def premia(u_spec: str, h_spec: str, x0: float, p0: float, eps1: float, eps2: float):
    """{name: (reference, condition C)} for the six exact premia."""
    u, h = utility(u_spec), weighting(h_spec)
    x0, p0, e1, e2 = (MP.mpf(v) for v in (x0, p0, eps1, eps2))
    (u_lo, u_mid, u_hi), e_u = _with_err_scale(u, (x0 - e1, x0, x0 + e1))
    (h_lo, h_mid, h_hi), e_h = _with_err_scale(h, (p0 - e2, p0, p0 + e2))
    spread_u = float(u_hi - u_lo)
    spread_h = float(h_hi - h_lo)
    wealth = float(abs(x0) + e1) + u.inv_scale

    pi = x0 - u.inverse((u_lo + u_hi) / 2)
    gamma = (u_mid - (u_lo + u_hi) / 2) / (u_hi - u_lo)
    rho = ((h_mid - h_lo) - (h_hi - h_mid)) / (2 * (h_hi - h_lo))
    lam = p0 - h.inverse((h_lo + h_hi) / 2)
    w_lo = (h_mid - h_lo) / (h_hi - h_lo)
    sigma = x0 - u.inverse(w_lo * u_lo + (1 - w_lo) * u_hi)
    target = (h_hi * (u_hi - u_mid) + h_lo * (u_mid - u_lo)) / (u_hi - u_lo)
    mu = p0 - h.inverse(target)
    return {
        "pi": (pi, wealth + e_u / float(u.d1(x0 - pi))),
        "gamma": (gamma, 1.0 + 2.0 * e_u / spread_u),
        "rho": (rho, 1.0 + 2.0 * e_h / spread_h),
        "lambda": (lam, 1.0 + 2.0 * e_h * h.inv_cond(p0 - lam)),
        "sigma": (
            sigma,
            wealth + e_u * (1.0 + 4.0 * e_h / spread_h) / float(u.d1(x0 - sigma)),
        ),
        "mu": (mu, 1.0 + (e_h + 4.0 * e_u / spread_u) * h.inv_cond(p0 - mu)),
    }


def within(lib: float, ref, cond: float, rel_floor: float = 0.0) -> bool:
    """Library value within ULPS * EPS * cond (plus rel_floor * |ref|) of ref."""
    if not math.isfinite(lib):
        return False
    ref = float(ref)
    return abs(lib - ref) <= ULPS * EPS * cond + rel_floor * abs(ref)


def rel_err(lib: float, ref) -> float:
    ref = MP.mpf(ref)
    if ref == 0:
        return 0.0 if lib == 0 else math.inf
    return float(abs((MP.mpf(lib) - ref) / ref))


# ---------------------------------------------------------------------------
# Rank-dependent lottery value
# ---------------------------------------------------------------------------


def _canonical(states):
    merged: dict = {}
    for x, p in states:
        merged[x] = merged.get(x, 0) + MP.mpf(p)
    return sorted(merged.items())


def lottery(u_spec: str, h_spec: str, states):
    """(V, CE): rank-dependent value sum (h(P_i) - h(P_{i-1})) U(x_i) over
    the payoff-sorted support, and the certainty equivalent U^{-1}(V)."""
    u, h = utility(u_spec), weighting(h_spec)
    value, cum, h_prev = MP.mpf(0), MP.mpf(0), MP.mpf(0)
    items = _canonical(states)
    for i, (x, p) in enumerate(items):
        cum = _ONE if i == len(items) - 1 else cum + p
        h_cum = h.value(cum)
        value += (h_cum - h_prev) * u.value(MP.mpf(x))
        h_prev = h_cum
    return value, u.inverse(value)


# The same formulas in numpy extended precision, for lotteries too large to
# sum at 50 digits inside a benchmark run.

_LD = np.longdouble


def _ld_utility(spec: str):
    name, prm = _split(spec)
    prm = [_LD(float(v)) for v in prm]
    if name in ("linear", "identity"):
        return lambda x: x, lambda x: np.ones_like(x)
    if name == "cara":
        a = prm[0]
        return lambda x: -np.exp(-a * x), lambda x: a * np.exp(-a * x)
    if name in ("crra", "log"):
        eta = prm[0] if name == "crra" else _LD(1)
        value = np.log if eta == 1 else (lambda x: x ** (1 - eta) / (1 - eta))
        return value, lambda x: x ** (-eta)
    if name == "quadratic":
        b = prm[0]
        return lambda x: x - b * x * x, lambda x: 1 - 2 * b * x
    raise ValueError(f"unknown utility family {name!r}")


def _ld_weighting(spec: str):
    if "@" in spec:
        t_spec, _, base_spec = spec.partition("@")
        base = _ld_weighting(base_spec)
        name, prm = _split(t_spec)
        k = _LD(float(prm[0]))
        if name == "power":
            return lambda p: base(p) ** k
        if name == "exp":
            return lambda p: np.expm1(-k * base(p)) / np.expm1(-k)
        if name == "blend":
            return lambda p: (1 - k) * base(p) + k * np.sqrt(base(p))
        raise ValueError(f"unknown transform family {name!r}")
    name, prm = _split(spec)
    prm = [_LD(float(v)) for v in prm]
    if name == "identity":
        return lambda p: p
    if name == "power":
        return lambda p: p ** prm[0]
    if name == "prelec":
        return lambda p: np.exp(-prm[1] * (-np.log(p)) ** prm[0])
    if name == "tk":
        g = prm[0]
        return lambda p: p**g * (p**g + (1 - p) ** g) ** (-1 / g)
    raise ValueError(f"unknown weighting family {name!r}")


def lottery_ld(u_spec: str, h_spec: str, xs: np.ndarray, ps: np.ndarray, chunk: int = 8192):
    """(V, C) in extended precision for distinct payoffs xs with
    probabilities ps summing exactly to 1.  The condition number
    C = sum w_i (|U_i| + |x_i| U'_i) + n max |U_i| covers rounding of the
    utilities and of the n cumulative sums and weights.  Works in chunks
    so that it allocates little next to the library's own arrays."""
    order = np.argsort(xs, kind="stable")
    h = _ld_weighting(h_spec)
    u_val, u_d1 = _ld_utility(u_spec)
    value, scale, top = _LD(0), _LD(0), _LD(0)
    cum_prev, h_prev = _LD(0), _LD(0)
    for lo in range(0, len(xs), chunk):
        idx = order[lo:lo + chunk]
        x = xs[idx].astype(_LD)
        cum = cum_prev + np.cumsum(ps[idx].astype(_LD))
        if lo + chunk >= len(xs):
            cum[-1] = 1
        h_cum = cum.copy()
        interior = (cum > 0) & (cum < 1)
        h_cum[interior] = h(cum[interior])
        w = np.diff(h_cum, prepend=h_prev)
        util = u_val(x)
        value += np.sum(w * util)
        scale += np.sum(w * (np.abs(util) + np.abs(x) * u_d1(x)))
        top = max(top, np.max(np.abs(util)))
        cum_prev, h_prev = cum[-1], h_cum[-1]
    return value, float(scale + len(xs) * top)


def certainty_equivalent(u_spec: str, value) -> tuple:
    """(CE, 1/U'(CE)) for a rank-dependent value."""
    u = utility(u_spec)
    ce = u.inverse(MP.mpf(value))
    return ce, 1.0 / float(u.d1(ce))


# ---------------------------------------------------------------------------
# Curvature indexes (for theorem-check witnesses)
# ---------------------------------------------------------------------------


def index(fn, x) -> float:
    """-f''/f' at x by 50-digit numerical differentiation of f'."""
    x = MP.mpf(x)
    return float(-MP.diff(fn.d1, x) / fn.d1(x))
