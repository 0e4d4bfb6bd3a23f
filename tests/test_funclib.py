import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpremia import (
    CaraUtility,
    ConcavityError,
    CrraUtility,
    DecisionMaker,
    DomainError,
    IdentityWeighting,
    LinearUtility,
    LogUtility,
    MaxIterError,
    MonotonicityError,
    ParseError,
    PowerTransform,
    PowerWeighting,
    PrelecWeighting,
    QuadraticUtility,
    RangeError,
    RiskPremiaError,
    TkWeighting,
    UtilityFn,
    WeightingFn,
    concavify,
    funclib,
    parse_transform,
    parse_utility,
    parse_weighting,
)
from conftest import bisect_root, ulp_error

# families exercised by the derivative-oracle sweep
UTILITIES = [
    LinearUtility(),
    CaraUtility(a=1.0),
    CaraUtility(a=3.0),
    CrraUtility(eta=0.5),
    CrraUtility(eta=2.0),
    CrraUtility(eta=4.0),
    LogUtility(),
    QuadraticUtility(b=0.25),
]

WEIGHTINGS = [
    IdentityWeighting(),
    PowerWeighting(theta=0.5),
    PowerWeighting(theta=2.0),
    PowerWeighting(theta=0.3),
    PrelecWeighting(alpha=0.65, beta=1.0),
    PrelecWeighting(alpha=1.5, beta=0.8),
    PrelecWeighting(alpha=2.0, beta=1.0),
    TkWeighting(gamma=0.61),
    TkWeighting(gamma=0.28),
    TkWeighting(gamma=1.5),
    concavify(PrelecWeighting(alpha=0.65, beta=1.0), PowerTransform(kappa=0.6)),
]


def _fd_agree(fn, xs, lo, hi, rtol=1e-6):
    """Analytic d1/d2 against difference quotients of the value function.

    Steps adapt to the local variation scale (distance to the domain
    boundary and the log-slope of the function); the second derivative
    uses Richardson extrapolation of the central second difference, since
    a plain quotient cannot reach 1e-6 relative accuracy in double
    precision for steep families.
    """
    for x in xs:
        v = fn.value(x)
        d1 = fn.d1(x)
        d2 = fn.d2(x)
        scale = min(x - lo, hi - x, 1.0 + abs(x))
        c = abs(d1) / max(abs(v), 1e-300) + 1.0 / scale
        # floors keep the steps finite where the value crosses zero and the
        # log-slope estimate c blows up harmlessly
        s1 = max(min(1e-5 * max(1.0, abs(x)), 2e-3 / c), 1e-9 * max(1.0, abs(x)))
        s2 = max(min(1e-3 * max(1.0, abs(x)), 0.03 / c), 1e-7 * max(1.0, abs(x)))
        fd1 = (fn.value(x + s1) - fn.value(x - s1)) / (2.0 * s1)
        assert abs(d1 - fd1) <= rtol * max(abs(d1), 1e-12), (fn, x)

        def cd2(step):
            return (fn.value(x + step) - 2.0 * v + fn.value(x - step)) / (step * step)

        fd2 = (4.0 * cd2(0.5 * s2) - cd2(s2)) / 3.0
        assert abs(d2 - fd2) <= rtol * max(abs(d2), 1.0), (fn, x)


class TestUtilityFamilies:
    def test_linear_identity_case(self):
        u = LinearUtility()
        assert u.value(0.3) == 0.3
        assert u.d1(0.3) == 1.0 and u.d2(0.3) == 0.0
        assert u.inverse(0.7) == 0.7

    def test_cara_at_zero(self):
        u = CaraUtility(a=1.0)
        assert u.value(0.0) == -1.0
        assert u.d1(0.0) == 1.0
        assert u.d2(0.0) == -1.0
        assert u.inverse(-1.0) == 0.0

    def test_cara_inverse_analytic_vs_oracle(self):
        u = CaraUtility(a=1.0)
        target = -math.exp(-0.5)
        assert math.isclose(u.inverse(target), 0.5, rel_tol=1e-12)
        root = bisect_root(lambda x: u.value(x) - target, -2.0, 2.0)
        assert math.isclose(u.inverse(target), root, abs_tol=1e-10)

    def test_quadratic_hand_values(self):
        u = QuadraticUtility(b=0.25)
        assert u.value(1.0) == 0.75
        assert u.d1(1.0) == 0.5
        assert u.d2(1.0) == -0.5
        assert math.isclose(u.inverse(0.75), 1.0, rel_tol=1e-12)

    def test_quadratic_convex_branch(self):
        u = QuadraticUtility(b=-0.25)
        lo, hi = u.domain
        assert lo == -2.0 and math.isinf(hi)
        assert u.d1(0.0) == 1.0
        assert math.isclose(u.inverse(u.value(3.0)), 3.0, rel_tol=1e-12)

    @pytest.mark.parametrize("b, x", [(1e-5, 49999.999999999), (-1e-5, -49999.999999999)])
    def test_quadratic_d1_keeps_its_digits_near_the_end_of_the_domain(self, b, x):
        # 1 - 2bx cancels as x nears 1/(2b); the reference is exact in the
        # doubles b and x
        exact = 1 - 2 * Fraction(b) * Fraction(x)
        assert ulp_error(QuadraticUtility(b=b).d1(x), str(exact)) <= 1

    def test_crra_values(self):
        u = CrraUtility(eta=2.0)
        assert u.value(2.0) == -0.5
        assert u.d1(2.0) == 0.25
        assert u.d2(2.0) == -0.25
        assert math.isclose(u.inverse(u.value(1.7)), 1.7, rel_tol=1e-12)

    def test_crra_eta_one_is_log(self):
        u = CrraUtility(eta=1.0)
        v = LogUtility()
        for x in (0.5, 1.0, 3.0):
            assert u.value(x) == v.value(x)
            assert u.d1(x) == v.d1(x)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            LogUtility().value(-1.0)
        with pytest.raises(DomainError):
            CrraUtility(eta=2.0).value(0.0)
        with pytest.raises(DomainError):
            QuadraticUtility(b=0.25).value(2.1)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            CaraUtility(a=1.0).inverse(0.5)
        with pytest.raises(RangeError):
            QuadraticUtility(b=0.25).inverse(1.1)

    @pytest.mark.parametrize(
        "spec, target",
        [("crra:0.5", 1e300), ("log", 1000.0), ("crra:1", 1000.0), ("crra:2", -1e-320)],
    )
    def test_inverse_overflow_is_a_range_error(self, spec, target):
        # the target lies in the codomain, but its preimage exceeds the floats
        u = parse_utility(spec)
        message = f"inverse of {target:g} overflows the float range for {spec}"
        with pytest.raises(RangeError) as info:
            u.inverse(target)
        assert str(info.value) == message
        inside = -1.0 if target < 0.0 else 1.0
        for targets in ([inside, target], [target]):
            with pytest.raises(RangeError) as info:
                u.inverse(np.array(targets))
            assert str(info.value) == message

    def test_invalid_params(self):
        with pytest.raises(MonotonicityError):
            CaraUtility(a=0.0)
        with pytest.raises(MonotonicityError):
            CaraUtility(a=-1.0)

    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.spec)
    def test_derivatives_match_difference_quotients(self, u):
        lo, hi = u.domain
        w_lo = max(lo, -3.0) + (0.05 if not math.isinf(lo) else 0.0)
        w_hi = min(hi, 5.0) - (0.05 if not math.isinf(hi) else 0.0)
        xs = np.linspace(w_lo, w_hi, 41)
        _fd_agree(u, xs, lo, hi)

    @pytest.mark.parametrize("u", UTILITIES, ids=lambda u: u.spec)
    def test_inverse_roundtrip(self, u):
        lo, hi = u.domain
        for x in np.linspace(max(lo, -2.0) + 0.1, min(hi, 4.0) - 0.1, 9):
            assert math.isclose(u.inverse(u.value(float(x))), float(x), rel_tol=1e-10, abs_tol=1e-12)


class TestWeightingFamilies:
    def test_identity(self):
        h = IdentityWeighting()
        assert h.value(0.4) == 0.4
        # self-dual up to the rounding of 1 - (1 - p)
        assert math.isclose(h.dual(0.3), 0.3, abs_tol=1e-15)
        assert h.dual(0.25) == 0.25  # dyadic: exact

    def test_power_hand_values(self):
        h = PowerWeighting(theta=2.0)
        assert h.value(0.75) == 0.5625
        assert h.d1(0.5) == 1.0
        assert h.d2(0.5) == 2.0
        assert h.dual(0.25) == 0.4375

    def test_power_inverse(self):
        h = PowerWeighting(theta=0.5)
        assert math.isclose(h.inverse(0.3125), 0.09765625, rel_tol=1e-14)
        root = bisect_root(lambda p: h.value(p) - 0.3125, 0.0, 1.0)
        assert math.isclose(h.inverse(0.3125), root, abs_tol=1e-10)

    @pytest.mark.parametrize("h", WEIGHTINGS, ids=lambda h: h.spec)
    def test_endpoints_exact(self, h):
        assert h.value(0.0) == 0.0 and h.value(1.0) == 1.0
        assert h.dual(0.0) == 0.0 and h.dual(1.0) == 1.0
        assert h.inverse(0.0) == 0.0 and h.inverse(1.0) == 1.0

    @pytest.mark.parametrize("h", WEIGHTINGS, ids=lambda h: h.spec)
    def test_dual_involution(self, h):
        # algebraic identity 1 - dual(1-p) = value(p); on a dyadic grid the
        # inner 1-p is exact, and the outer double subtraction
        # 1 - (1 - value(p)) costs at most one ulp
        ps = np.arange(1, 1024) / 1024.0
        lhs = 1.0 - np.asarray(h.dual(1.0 - ps))
        rhs = np.asarray(h.value(ps))
        assert np.max(np.abs(lhs - rhs)) <= 5e-16
        if isinstance(h, IdentityWeighting):
            assert np.array_equal(lhs, rhs)  # every step exact for identity

    @pytest.mark.parametrize("h", WEIGHTINGS, ids=lambda h: h.spec)
    def test_inverse_roundtrip(self, h):
        for p in np.linspace(0.02, 0.98, 13):
            assert math.isclose(h.inverse(h.value(float(p))), float(p), rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize("h", WEIGHTINGS, ids=lambda h: h.spec)
    def test_derivatives_match_difference_quotients(self, h):
        _fd_agree(h, np.linspace(0.01, 0.99, 197), 0.0, 1.0)

    def test_derivative_endpoint_rejected(self):
        h = PrelecWeighting(alpha=0.65, beta=1.0)
        for bad in (0.0, 1.0):
            with pytest.raises(DomainError):
                h.d1(bad)
            with pytest.raises(DomainError):
                h.d2(bad)

    @pytest.mark.parametrize(
        "q, want",
        [(1e-10, "4.041637674086274740515579e-17"), (1e-14, "1.119902793272503740973029e-23")],
    )
    def test_tk_inverse_of_a_tiny_target(self, q, want):
        # far below an absolute residual of 1e-14, relative accuracy holds
        h = TkWeighting(gamma=0.61)
        assert ulp_error(h.inverse(q), want) <= 2
        assert h.value(h.inverse(q)) == q

    def test_tk_monotonicity_gate(self):
        with pytest.raises(MonotonicityError):
            TkWeighting(gamma=0.27)
        with pytest.raises(MonotonicityError):
            TkWeighting(gamma=0.1)
        h = TkWeighting(gamma=0.28)  # at the threshold: constructible
        grid = np.linspace(1e-4, 1 - 1e-4, 1001)
        assert np.all(h.d1(grid) > 0.0)

    def test_invalid_params(self):
        with pytest.raises(MonotonicityError):
            PowerWeighting(theta=0.0)
        with pytest.raises(MonotonicityError):
            PrelecWeighting(alpha=-0.5, beta=1.0)

    def test_curvature_sign_flips_under_dual(self):
        # h'' < 0 everywhere is equivalent to the dual form being convex
        grid = np.linspace(0.05, 0.95, 101)
        step = 1e-4

        def dual_second(h, p):
            return (h.dual(p + step) - 2.0 * h.dual(p) + h.dual(p - step)) / step**2

        concave = PowerWeighting(theta=0.5)
        assert np.all(concave.d2(grid) < 0.0)
        assert all(dual_second(concave, p) > 0.0 for p in grid)

        convex = PowerWeighting(theta=2.0)
        assert np.all(convex.d2(grid) > 0.0)
        assert all(dual_second(convex, p) < 0.0 for p in grid)

        # pointwise for a sign-varying curvature: the dual's curvature at p
        # mirrors -h''(1-p), including across the inflection
        mixed = PrelecWeighting(alpha=0.65, beta=1.0)
        for p in grid:
            reference = -mixed.d2(1.0 - p)
            if abs(reference) < 1e-3:
                continue  # too close to the inflection for a stable FD sign
            assert math.copysign(1.0, dual_second(mixed, p)) == math.copysign(
                1.0, reference
            )


# every weighting kind, including composites over tk and a composite of a
# composite, then utilities ("utility SPEC") and bare transforms
# ("transform SPEC"), for the array inverse
ARRAY_INVERSE_SPECS = [
    "identity", "power:0.5", "power:2.5", "prelec:0.65,1", "prelec:1.5,0.7",
    "tk:0.28", "tk:0.61", "tk:1.5", "power:0.5@tk:0.61", "exp:2@tk:0.9",
    "blend:0.3@tk:1.2", "blend:1@power:2", "power:0.7@prelec:0.65,1",
    "power:0.5@power:0.3@tk:0.7",
    "utility cara:1", "utility crra:2", "utility crra:0.5", "utility log",
    "utility quadratic:0.2",
    "transform power:0.5", "transform exp:2", "transform blend:0.6", "transform blend:1",
]


PARSERS = {"utility": parse_utility, "weighting": parse_weighting, "transform": parse_transform}

# a spec of every family and kind, with a target whose preimage overflows
SHAPE_SPECS = {
    "utility linear": None, "utility cara:1": None, "utility crra:0.5": 1e300,
    "utility crra:2": -1e-320, "utility log": 1000.0, "utility quadratic:0.2": None,
    "utility quadratic:-0.2": None, "identity": None, "power:0.5": None,
    "prelec:0.65,1": None, "tk:0.61": None, "power:0.5@tk:0.61": None,
    "exp:2@prelec:0.65,1": None, "transform power:0.5": None, "transform exp:2": None,
    "transform blend:0.6": None,
}


def _parse_any(spec):
    kind, _, text = spec.rpartition(" ")
    return PARSERS[kind or "weighting"](text)


# spec, repr and DecisionMaker.label of every family (utilities, weightings,
# transforms, composites, a composite of composites, mapping specs) at
# awkward parameter values, and the ParseError of every family for one
# parameter too few and one too many, plus unknown families.  Recorded in
# tests/data/funclib_specs.json.  Under warnings-as-errors, the extreme
# parameters among them check that construction overflows silently and
# ends in the MonotonicityError.
FUNCLIB_SPECS = json.loads((Path(__file__).parent / "data" / "funclib_specs.json").read_text())


def _constructed(entries):
    """{(kind, repr): function} of every entry that constructs."""
    built = {}
    for entry in entries:
        try:
            f = PARSERS[entry["kind"]](entry["given"])
        except RiskPremiaError:
            continue
        built.setdefault((entry["kind"], repr(f)), f)
    return built


# every function of funclib_specs.json whose inverse is a closed form
CLOSED_FORMS = [f for (_, r), f in _constructed(FUNCLIB_SPECS).items() if "Tk" not in r]

# The accuracy contract: 50-digit mpmath references of value/d1/d2/inverse
# at fixed points for every spec of funclib_specs.json that constructs, with
# one ulp bound per spec and method.  Written by
# tests/data/make_funclib_ulps.py; see the README before regenerating it.
FUNCLIB_ULPS = json.loads((Path(__file__).parent / "data" / "funclib_ulps.json").read_text())
ULP_TARGETS = {
    entry["repr"]: [float.fromhex(t) for t, _ in entry["methods"]["inverse"]["points"]]
    for entry in FUNCLIB_ULPS
}


def _inverse_targets(f):
    """97 targets plus edge cases inside the range of f's inverse."""
    if isinstance(f, UtilityFn):
        lo, hi = f.domain
        x = np.linspace(max(lo, -3.0) + 0.01, min(hi, 5.0) - 0.01, 97)
        ends = (lo + 1e-3 if math.isfinite(lo) else -20.0, hi - 1e-3 if math.isfinite(hi) else 30.0)
        # extreme parameters leave the floats or the range on this window,
        # so the ulp table's targets follow
        with np.errstate(over="ignore"):
            t = np.concatenate([f.value(x), f.value(np.array(ends)), ULP_TARGETS.get(repr(f), [])])
        lo, hi = f.codomain
        return t[(t > lo) & (t < hi)]
    specials = [0.0, 1.0, 5e-324, 1e-320, 1e-300, 1e-16, 0.5, 1.0 - 1e-16, 0.0, 1.0]
    return np.concatenate([np.linspace(0.0, 1.0, 97), specials])


def _bad_targets(f):
    if isinstance(f, UtilityFn):
        lo, hi = f.codomain
        ends = [v for v in (lo, hi, lo - 1.0, hi + 1.0) if math.isfinite(v)]
        return (*ends, math.nan, math.inf, -math.inf)
    return (1.5, -0.25, math.nan, math.inf)


class TestArrayInverse:
    @pytest.mark.parametrize(
        "spec", ARRAY_INVERSE_SPECS + CLOSED_FORMS,
        ids=lambda spec: spec if isinstance(spec, str) else repr(spec),
    )
    def test_bits_of_the_scalar_inverse(self, spec):
        f = _parse_any(spec) if isinstance(spec, str) else spec
        q = _inverse_targets(f)
        got = f.inverse(q)
        want = np.array([f.inverse(float(t)) for t in q])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        # shape kept
        n = q.size // 12 * 12
        grid = f.inverse(q[:n].reshape(-1, 12))
        assert grid.shape == (n // 12, 12)
        assert grid.view(np.int64).tolist() == want[:n].reshape(-1, 12).view(np.int64).tolist()
        if not isinstance(f, UtilityFn):  # endpoints of a unit map exact
            assert f.inverse(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("spec", [
        "power:0.5", "tk:0.61", "power:0.5@tk:0.61", "utility cara:1", "utility crra:2",
        "utility crra:0.5", "utility log", "utility quadratic:0.2",
        "transform power:0.5", "transform exp:2", "transform blend:0.6", "transform blend:1",
    ])
    def test_first_bad_target_raises_the_scalar_message(self, spec):
        f = _parse_any(spec)
        good = float(_inverse_targets(f)[40])
        for bad in _bad_targets(f):
            with pytest.raises(RiskPremiaError) as scalar:
                f.inverse(bad)
            with pytest.raises(RiskPremiaError) as array:
                f.inverse(np.array([good, bad, 2.0, -2.0, good]))
            assert type(array.value) is type(scalar.value)
            assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("spec", ARRAY_INVERSE_SPECS)
    def test_one_point_takes_the_scalar_branch_once(self, spec, monkeypatch):
        """A one-element array: the scalar bits and errors in the array's
        shape, through one entry to the public inverse (a wrapper around it
        counts each call once)."""
        f = _parse_any(spec)
        entries = []
        public = type(f).inverse

        def counted(self, t):
            entries.append(self is f)
            return public(self, t)

        monkeypatch.setattr(type(f), "inverse", counted)
        targets = _inverse_targets(f)[::6].tolist()
        for t in targets:
            want = float(f.inverse(t)).hex()
            for shape in ((1,), (1, 1)):
                got = f.inverse(np.full(shape, t))
                assert got.shape == shape and float(got.item()).hex() == want
        for bad in _bad_targets(f):
            with pytest.raises(RiskPremiaError) as scalar:
                f.inverse(bad)
            with pytest.raises(RiskPremiaError) as array:
                f.inverse(np.array([bad]))
            assert (type(array.value), str(array.value)) == (type(scalar.value), str(scalar.value))
        assert entries.count(True) == 3 * len(targets) + 2 * len(_bad_targets(f))

    @settings(max_examples=150, deadline=None, database=None)
    @given(spec=st.sampled_from(list(SHAPE_SPECS)), data=st.data())
    def test_float_one_point_and_many_points_agree(self, spec, data):
        """Random interior targets: the same bits as a float, as a
        one-element array and in one array of all of them.  A target whose
        preimage leaves the floats, put anywhere among them, raises the same
        RangeError in each shape."""
        f = _parse_any(spec)
        if isinstance(f, UtilityFn):
            lo, hi = f.domain
            x = st.floats(lo + 1e-3 if math.isfinite(lo) else -30.0,
                          hi - 1e-3 if math.isfinite(hi) else 30.0)
            targets = [float(f.value(v)) for v in data.draw(st.lists(x, min_size=2, max_size=40))]
        else:
            q = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            targets = data.draw(st.lists(q, min_size=2, max_size=40))
        want = [f.inverse(t).hex() for t in targets]
        assert [float(f.inverse(np.array([t]))[0]).hex() for t in targets] == want
        assert [v.hex() for v in f.inverse(np.array(targets)).tolist()] == want
        big = SHAPE_SPECS[spec]
        if big is None:
            return
        targets.insert(data.draw(st.integers(0, len(targets))), big)
        message = f"inverse of {big:g} overflows the float range for {f.spec}"
        for arg in (big, np.array([big]), np.array(targets)):
            with pytest.raises(RangeError) as info:
                f.inverse(arg)
            assert str(info.value) == message

    @settings(max_examples=150, deadline=None, database=None)
    @given(
        st.floats(0.28, 5.0),
        st.lists(
            st.floats(5e-324, 1.0 - 2.0**-53)
            | st.sampled_from([5e-324, 1e-320, 2.0**-1022, 1e-300, 0.5, 1.0 - 2.0**-53]),
            min_size=2,
            max_size=12,
        ),
    )
    def test_tk_inverse_is_elementwise_and_silent(self, gamma, targets):
        """The Newton iteration gives a target the same bits as a float, as
        a one-element array and among other targets, and none of its
        arithmetic reaches the caller's error state."""
        h = TkWeighting(gamma=gamma)
        with np.errstate(all="raise"):
            want = [h.inverse(t).hex() for t in targets]
            ones = [float(h.inverse(np.array([t]))[0]).hex() for t in targets]
            many = h.inverse(np.array(targets)).tolist()
        assert ones == want
        assert [v.hex() for v in many] == want

    def test_input_not_modified(self):
        q = np.array([0.0, 0.3, 1.0])
        TkWeighting(gamma=0.61).inverse(q)
        assert q.tolist() == [0.0, 0.3, 1.0]

    def test_tk_inverse_of_no_targets(self):
        out = TkWeighting(gamma=0.61).inverse(np.array([]))
        assert out.shape == (0,) and out.dtype == np.float64

    def test_tk_inverse_iteration_cap_names_the_spec(self, monkeypatch):
        # 0.3 needs more than one Newton step; the endpoints need none
        h = TkWeighting(gamma=0.61)
        monkeypatch.setattr(funclib, "_TK_MAX_ITER", 1)
        message = "^tk inverse did not converge within 1 iterations for tk:0.61$"
        for arg in (0.3, np.array([0.0, 0.3, 1.0])):
            with pytest.raises(MaxIterError, match=message):
                h.inverse(arg)
        assert h.inverse(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]


# The type and message of every domain and range error of utilities and
# weightings, and the result bits where the input is accepted (endpoints
# included): value/d1/d2/inverse (and a weighting's dual) on inputs below,
# at and above each end of the domain or range, NaN and +-inf, as a scalar
# and as the second element of an array.  Recorded in
# tests/data/funclib_errors.json.
FUNCLIB_ERRORS = json.loads((Path(__file__).parent / "data" / "funclib_errors.json").read_text())


def _call_outcome(f, method, arg):
    x = float(arg) if isinstance(arg, str) else np.array([float(a) for a in arg])
    try:
        with np.errstate(all="ignore"):  # derivatives overflow near 0 and 1
            out = getattr(f, method)(x)
    except RiskPremiaError as exc:
        return [type(exc).__name__, str(exc)]
    return [float(v).hex() for v in np.atleast_1d(out).tolist()]


@pytest.mark.parametrize("entry", FUNCLIB_ERRORS, ids=lambda entry: entry["spec"])
def test_domain_and_range_errors_as_recorded(entry):
    parse = parse_utility if entry["kind"] == "utility" else parse_weighting
    f = parse(entry["spec"])
    got = [_call_outcome(f, method, arg) for method, arg, _ in entry["calls"]]
    assert got == [outcome for _, _, outcome in entry["calls"]]


def _spec_outcome(kind, given):
    try:
        f = PARSERS[kind](given)
    except RiskPremiaError as exc:
        return [type(exc).__name__, str(exc)]
    if kind == "utility":
        dm = DecisionMaker(f, IdentityWeighting())
    else:
        dm = DecisionMaker(LinearUtility(), f)
    return [f.spec, repr(f), dm.label]


@pytest.mark.parametrize(
    "entry", FUNCLIB_SPECS, ids=lambda entry: f"{entry['kind']} {json.dumps(entry['given'])}"
)
def test_spec_repr_and_label_as_recorded(entry):
    assert _spec_outcome(entry["kind"], entry["given"]) == entry["outcome"]


@pytest.mark.parametrize(
    "entry", FUNCLIB_ULPS, ids=lambda entry: f"{entry['kind']} {json.dumps(entry['given'])}"
)
def test_within_the_recorded_ulp_bounds(entry):
    f = PARSERS[entry["kind"]](entry["given"])
    assert repr(f) == entry["repr"]
    over = {}
    for method, body in entry["methods"].items():
        xs = [float.fromhex(x) for x, _ in body["points"]]
        array = getattr(f, method)(np.array(xs)).tolist()
        worst = max(
            max(ulp_error(float(getattr(f, method)(x)), want), ulp_error(got, want))
            for x, got, (_, want) in zip(xs, array, body["points"])
        )
        if worst > body["bound"]:
            over[method] = (worst, body["bound"])
    assert not over


@pytest.mark.parametrize(
    "entry",
    [entry for entry in FUNCLIB_ULPS if entry["repr"].startswith("TkWeighting(")],
    ids=lambda entry: entry["given"],
)
def test_tk_inverse_within_16_ulps(entry):
    """A bound of the tk inverse's own: the table's tk inverse bounds, near
    1e16 ulps, admit a 0 for every target below 1e-14."""
    h = parse_weighting(entry["given"])
    points = entry["methods"]["inverse"]["points"]
    got = h.inverse(np.array([float.fromhex(t) for t, _ in points])).tolist()
    assert max(ulp_error(v, want) for v, (_, want) in zip(got, points)) <= 16


def test_the_ulp_table_covers_every_spec():
    """A family or spec added to funclib_specs.json needs its ulp bounds."""
    covered = {(entry["kind"], entry["repr"]) for entry in FUNCLIB_ULPS}
    assert set(_constructed(FUNCLIB_SPECS)) == covered
    for entry in FUNCLIB_ULPS:
        assert {"value", "d1", "inverse"} <= set(entry["methods"]), entry["repr"]


class TestConcaveTransforms:
    def test_param_validation(self):
        with pytest.raises(ConcavityError):
            parse_transform("power:1.0")
        with pytest.raises(ConcavityError):
            parse_transform("power:1.5")
        with pytest.raises(ConcavityError):
            parse_transform("exp:-1")
        with pytest.raises(ConcavityError):
            parse_transform("blend:0")
        with pytest.raises(ConcavityError):
            parse_transform("blend:1.2")

    def test_a_transform_is_a_weighting_with_its_errors(self):
        T = parse_transform("power:0.5")
        assert isinstance(T, WeightingFn)
        with pytest.raises(DomainError, match=r"^probability outside \[0, 1\] for power:0.5$"):
            T.value(1.5)
        with pytest.raises(DomainError, match=r"^probability outside \(0, 1\) for power:0.5$"):
            T.d1(0.0)
        with pytest.raises(DomainError, match=r"^distorted probability 1.5 outside \[0, 1\]$"):
            T.inverse(1.5)

    @pytest.mark.parametrize("spec", ["power:0.5", "exp:2", "blend:0.6"])
    def test_shape_and_inverse(self, spec):
        T = parse_transform(spec)
        grid = np.linspace(0.01, 0.99, 99)
        assert np.all(T.d1(grid) > 0.0)
        assert np.all(T.d2(grid) < 0.0)
        assert T.value(0.0) == 0.0 and T.value(1.0) == 1.0
        for t in (0.1, 0.37, 0.9):
            assert math.isclose(T.inverse(T.value(t)), t, rel_tol=1e-12)

    def test_concavify_near_identity_limit(self):
        base = PowerWeighting(theta=0.5)
        h2 = concavify(base, PowerTransform(kappa=1.0 - 1e-9))
        for p in np.linspace(0.05, 0.95, 19):
            assert math.isclose(h2.value(float(p)), base.value(float(p)), rel_tol=1e-7)

    def test_concavify_identity_base_equals_power(self):
        h2 = concavify(IdentityWeighting(), PowerTransform(kappa=0.5))
        base = PowerWeighting(theta=0.5)
        for p in np.linspace(0.05, 0.95, 19):
            assert h2.value(float(p)) == base.value(float(p))

    def test_concavify_raises_curvature_index(self):
        base = PowerWeighting(theta=0.5)
        h2 = concavify(base, PowerTransform(kappa=0.5))
        p = 0.5
        idx2 = -h2.d2(p) / h2.d1(p)
        idx1 = -base.d2(p) / base.d1(p)
        assert idx2 > idx1
        grid = np.linspace(0.01, 0.99, 99)
        gap = -np.asarray(h2.d2(grid)) / np.asarray(h2.d1(grid)) + np.asarray(
            base.d2(grid)
        ) / np.asarray(base.d1(grid))
        assert np.all(gap > 0.0)

    def test_composed_inverse_roundtrip(self):
        h2 = concavify(TkWeighting(gamma=0.61), parse_transform("exp:1.5"))
        for p in (0.1, 0.45, 0.9):
            assert math.isclose(h2.inverse(h2.value(p)), p, rel_tol=1e-9)

    def test_collapsing_base_rejected(self):
        # a valid but near-flat prelec rounds to exactly 1.0 at the right
        # grid edge; composing it must fail with a construction error, not
        # a derivative domain error from inside the transform
        flat = PrelecWeighting(alpha=3.0, beta=1e-5)
        assert flat.value(1.0 - 1e-4) == 1.0  # the collapse being guarded
        with pytest.raises(MonotonicityError, match="not representable"):
            concavify(flat, parse_transform("power:0.5"))

    def test_every_transform_raises_index_on_every_base(self):
        from riskpremia.funclib import VALIDATION_GRID

        transforms = [parse_transform(s) for s in ("power:0.5", "power:0.95", "exp:0.4", "exp:2.5", "blend:0.3", "blend:1")]
        bases = [
            IdentityWeighting(), PowerWeighting(theta=0.5), PowerWeighting(theta=2.0),
            PrelecWeighting(alpha=0.65, beta=1.0), TkWeighting(gamma=0.61),
        ]
        grid = VALIDATION_GRID
        for base in bases:
            idx1 = -np.asarray(base.d2(grid)) / np.asarray(base.d1(grid))
            for T in transforms:
                h2 = concavify(base, T)
                idx2 = -np.asarray(h2.d2(grid)) / np.asarray(h2.d1(grid))
                assert np.all(idx2 >= idx1), (T.spec, base.spec)


class TestParsing:
    def test_utility_strings(self):
        assert parse_utility("linear").spec == "linear"
        assert parse_utility("identity").spec == "linear"  # alias
        assert parse_utility("cara:1.0").a == 1.0
        assert parse_utility("crra:2").eta == 2.0
        assert parse_utility(" quadratic:0.25 ").b == 0.25

    def test_weighting_strings(self):
        assert parse_weighting("identity").spec == "identity"
        assert parse_weighting("prelec:0.65,1.0").alpha == 0.65
        composed = parse_weighting("power:0.5@tk:0.61")
        assert composed.transform.kappa == 0.5
        assert composed.base.gamma == 0.61
        nested = parse_weighting("exp:1@power:0.5@identity")
        assert nested.base.transform.kappa == 0.5

    def test_json_objects(self):
        u = parse_utility({"family": "cara", "params": [1.5]})
        assert u.a == 1.5
        h = parse_weighting(
            {
                "family": "composed",
                "transform": {"family": "blend", "params": [0.7]},
                "base": {"family": "power", "params": [2.0]},
            }
        )
        assert h.transform.w == 0.7 and h.base.theta == 2.0

    def test_spec_roundtrip(self):
        for text in ("cara:1", "crra:0.5", "quadratic:0.25", "log", "linear"):
            u = parse_utility(text)
            assert parse_utility(u.spec).spec == u.spec
        for text in ("identity", "power:2", "prelec:0.65,1", "tk:0.61", "exp:1.5@power:0.5"):
            h = parse_weighting(text)
            assert parse_weighting(h.spec).spec == h.spec

    def test_parse_errors(self):
        for bad in ("", "unknown:1", "cara", "cara:1,2", "cara:abc"):
            with pytest.raises(ParseError):
                parse_utility(bad)
        for bad in ("prelec:0.65", "nope:1", "power", "power:1,2"):
            with pytest.raises(ParseError):
                parse_weighting(bad)
        with pytest.raises(ParseError):
            parse_utility({"params": [1.0]})
        with pytest.raises(ParseError):
            parse_weighting({"family": "composed", "base": {"family": "identity"}})
        with pytest.raises(ParseError):
            parse_utility(42)
