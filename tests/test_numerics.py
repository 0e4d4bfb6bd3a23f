import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpremia import (
    BracketError,
    DegenerateError,
    MaxIterError,
    PowerWeighting,
    RootSpec,
    TkWeighting,
    convergence_order,
    find_root,
    find_roots,
)


class TestFindRoot:
    def test_linear_objective(self):
        root = find_root(RootSpec(lambda x: x - 0.3, (0.0, 1.0)))
        assert abs(root - 0.3) < 1e-12

    def test_quadratic_objective(self):
        root = find_root(RootSpec(lambda x: x * x - 0.3125, (0.0, 1.0)))
        assert abs(root - 0.5590169943749475) < 1e-12

    def test_weighting_inverse_objective(self):
        h = PowerWeighting(theta=0.5)
        root = find_root(RootSpec(lambda x: h.value(x) - 0.7, (0.0, 1.0)))
        assert abs(root - 0.49) < 1e-12

    def test_endpoint_already_solves(self):
        assert find_root(RootSpec(lambda x: x, (0.0, 1.0))) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(RootSpec(lambda x: x + 2.0, (0.0, 1.0)))

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            find_root(RootSpec(lambda x: x, (1.0, 0.0)))

    def test_iterates_stay_inside_bracket(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.tanh(3.0 * (x - 0.123456))

        find_root(RootSpec(f, (-1.0, 2.0)))
        assert all(-1.0 <= x <= 2.0 for x in seen)

    def test_deterministic(self):
        spec = RootSpec(lambda x: math.expm1(x) - 0.5, (0.0, 1.0))
        assert find_root(spec) == find_root(spec)

    def test_iteration_cap_raises(self):
        with pytest.raises(MaxIterError):
            find_root(RootSpec(lambda x: x**3 - 0.3, (0.0, 1.0), tol=1e-18, max_iter=4))

    def test_steep_root_accepted_at_machine_floor(self):
        # cube-root profile: infinite slope at the root, so the residual
        # tolerance is unattainable; the collapsed bracket is the correct
        # double-precision root and must be returned, not raised on
        def f(x):
            return math.copysign(abs(x - 0.3) ** (1.0 / 3.0), x - 0.3)

        root = find_root(RootSpec(f, (0.0, 1.0), tol=1e-14))
        assert abs(root - 0.3) < 1e-15


def _objective(x, kind, a, r, d):
    """Kind 0: a smooth cubic with its root at r (plus offset d).  Kinds 1
    and 2: x^2 - r scaled up on odd mantissas (by 1e6, or by a^2 to land
    near the collapse test's slope floor), so the residual jumps between
    neighbouring doubles and brackets can collapse above tolerance."""
    x = np.asarray(x, dtype=float)
    t = x - r
    smooth = a * t * (t * t + 0.5) + d
    jump = np.where(kind == 1, 1e6, a * a)
    jagged = (x * x - r) * (1.0 + jump * (x.view(np.int64) & 1)) + d
    return np.where(kind == 0, smooth, jagged)


def _scalar_outcomes(objective, lo, hi, tol, max_iter):
    """Per element: find_root's iterates and its root or (type, message)."""
    outcomes = []
    for i in range(len(lo)):
        seen = []

        def f(x, i=i, seen=seen):
            seen.append(x)
            return float(objective(np.array([x]), np.array([i]))[0])

        try:
            result = find_root(RootSpec(f, (lo[i], hi[i]), tol, max_iter))
        except (BracketError, MaxIterError) as exc:
            result = (type(exc), str(exc))
        outcomes.append((seen, result))
    return outcomes


def _check_lockstep(objective, lo, hi, tol=1e-13, max_iter=200):
    """find_roots against one find_root per element: the same iterates (so
    the same evaluation count) inside the bracket, and the same roots bit
    for bit, or the first failing element's exception and message."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    expected = _scalar_outcomes(objective, lo, hi, tol, max_iter)
    seen = [[] for _ in lo]

    def f(x, idx):
        assert np.all((lo[idx] <= x) & (x <= hi[idx]))
        for k, i in enumerate(idx.tolist()):
            seen[i].append(float(x[k]))
        return objective(x, idx)

    failures = [r for _, r in expected if isinstance(r, tuple)]
    if failures:
        kind, message = failures[0]
        with pytest.raises(kind) as info:
            find_roots(f, lo, hi, tol, max_iter)
        assert str(info.value) == message
    else:
        roots = find_roots(f, lo, hi, tol, max_iter)
        want = np.array([r for _, r in expected], dtype=float)
        assert roots.view(np.int64).tolist() == want.view(np.int64).tolist()
    for got, (want, _) in zip(seen, expected):
        assert [x.hex() for x in got] == [x.hex() for x in want]
    return expected


# (kind, a, r, d, below, above): the bracket is [root - below, root + above]
# around the offset-free root (r for kind 0, sqrt(r) otherwise); negative
# below, offsets and small iteration caps make the failing cases.
_elements = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 1, 2]),
        st.floats(0.1, 10.0) | st.floats(-10.0, -0.1),
        st.floats(0.01, 2.0),
        st.sampled_from([0.0] * 6 + [1e-3, -50.0, 50.0]),
        st.floats(-0.2, 3.0),
        st.floats(0.0, 3.0),
    ),
    min_size=1,
    max_size=8,
)


class TestFindRoots:
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        _elements,
        st.sampled_from([1e-13, 1e-14, 1e-300, 0.0]),
        st.sampled_from([200] * 4 + [0, 1, 5, 12]),
    )
    def test_matches_find_root_per_element(self, elements, tol, max_iter):
        kind, a, r, d, below, above = (np.array(c) for c in zip(*elements))
        root = np.where(kind == 0, r, np.sqrt(r))

        def objective(x, idx):
            return _objective(x, kind[idx], a[idx], r[idx], d[idx])

        _check_lockstep(objective, root - below, root + above, tol, max_iter)

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.1, 10.0), st.floats(0.01, 2.0), st.floats(0.0, 2.0)),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from([0.0, 1e-300, 1e-16, 5e-16, 2e-15]),
    )
    def test_matches_find_root_at_the_collapse_floor(self, elements, tol):
        # tolerances near rounding width and odd-mantissa jumps of a^2 put
        # the collapse test's residual on both sides of its slope floor
        a, r, width = (np.array(c) for c in zip(*elements))
        root = np.sqrt(r)

        def objective(x, idx):
            return _objective(x, 2, a[idx], r[idx], 0.0)

        _check_lockstep(objective, root - 0.5 * width, root + width, tol)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        st.floats(0.28, 1.5),
        st.lists(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
            | st.sampled_from([5e-324, 1e-320, 1e-300, 1e-16, 0.5, 1.0 - 1e-16]),
            min_size=1,
            max_size=12,
        ),
    )
    def test_tk_inverse_objective(self, gamma, targets):
        # the objective TkWeighting builds, on the unit bracket
        h, q = TkWeighting(gamma), np.array(targets)
        n = len(targets)
        _check_lockstep(
            lambda p, active: h._value(p) - q[active], np.zeros(n), np.ones(n), tol=1e-14
        )

    def _jagged(self, r):
        r = np.asarray(r, dtype=float)
        return lambda x, idx: _objective(x, 1, 1.0, r[idx], 0.0)

    def test_collapse_error_matches(self):
        outcomes = _check_lockstep(self._jagged([0.3]), [0.0], [1.0], tol=0.0)
        assert outcomes[0][1][0] is MaxIterError
        assert outcomes[0][1][1].startswith("bracket collapsed to rounding width")

    def test_residual_just_under_the_collapse_floor(self):
        # accepted with the floor's factor 8, rejected with 4: the floor
        # must be computed exactly as find_root computes it
        a, r = 2.3139298387190625, 1.2115121025480757
        root = math.sqrt(r)
        outcomes = _check_lockstep(
            lambda x, idx: _objective(x, 2, a, r, 0.0),
            [root - 0.5 * 0.09642463689740488], [root + 0.09642463689740488], tol=1e-16,
        )
        assert not isinstance(outcomes[0][1], tuple)

    def test_iteration_cap_error_matches(self):
        outcomes = _check_lockstep(self._jagged([0.3, 0.6]), [0.0, 0.0], [1.0, 1.0], max_iter=3)
        assert all(r[0] is MaxIterError for _, r in outcomes)
        assert outcomes[0][1][1].startswith("residual tolerance 1e-13 not reached within 3")

    def test_first_failing_element_decides(self):
        # element 1 fails at the endpoint check, element 2 never starts,
        # element 3 collapses late: element 1's error is raised
        r = [0.25, 0.5, 0.5, 0.3]
        lo, hi = [0.0, 0.8, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]
        with pytest.raises(BracketError, match=r"^no sign change on \[0.8, 1.0\]"):
            find_roots(self._jagged(r), lo, hi, tol=0.0)
        with pytest.raises(BracketError, match=r"^invalid bracket \[1.0, 0.0\]"):
            find_roots(self._jagged(r[2:]), lo[2:], hi[2:], tol=0.0)
        with pytest.raises(MaxIterError, match="^bracket collapsed"):
            find_roots(self._jagged(r[3:]), lo[3:], hi[3:], tol=0.0)

    def test_only_active_elements_are_evaluated(self):
        calls = []

        def f(x, idx):
            calls.append(idx.tolist())
            return x - np.array([0.0, 0.25, 0.5])[idx]

        roots = find_roots(f, np.zeros(3), np.ones(3))
        assert roots.tolist() == [0.0, 0.25, 0.5]
        # endpoints for all three, then only the two interior roots
        assert calls[:2] == [[0, 1, 2], [0, 1, 2]]
        assert all(c == [1, 2] for c in calls[2:])

    def test_empty_input(self):
        assert find_roots(lambda x, idx: x, [], []).shape == (0,)

    def test_objective_runs_under_callers_error_state(self):
        # a jump from -inf to inf makes the secant inf/inf: NaN, silently,
        # as with find_root's Python floats (tier-1 turns warnings into
        # errors); the objective's own floating-point errors still reach
        # the caller
        def step(x):
            return np.where(np.asarray(x) < 0.3, -np.inf, np.inf)

        roots = find_roots(lambda x, idx: step(x), [0.0], [1.0])
        assert roots.tolist() == [find_root(RootSpec(lambda x: float(step(x)), (0.0, 1.0)))]
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                find_roots(lambda x, idx: np.exp(800.0 * x) - 2.0, [0.0], [1.0])


class TestConvergenceOrder:
    def test_exact_quadratic_decay(self):
        order = convergence_order([(0.1, 1e-3), (0.05, 2.5e-4)])
        assert abs(order - 2.0) < 1e-12

    def test_risk_premium_error_order(self):
        # ln cosh(a e) = a e^2/2 - a^3 e^4/12 + ..., so the error of the
        # second-order term decays at fourth order
        a = 1.0
        pts = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            exact = math.log(math.cosh(a * eps)) / a
            approx = 0.5 * a * eps * eps
            pts.append((eps, abs(exact - approx)))
        order = convergence_order(pts)
        assert abs(order - 4.0) < 0.2

    def test_probability_premium_error_order(self):
        # tanh(a e / 2)/2 = a e/4 - a^3 e^3/48 + ..., third-order error
        a = 1.0
        pts = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            exact = 0.5 * math.tanh(0.5 * a * eps)
            approx = 0.25 * a * eps
            pts.append((eps, abs(exact - approx)))
        order = convergence_order(pts)
        assert abs(order - 3.0) < 0.2

    def test_rounding_floor_ignored(self):
        with_floor = [(0.1, 1e-3), (0.05, 2.5e-4), (0.01, 1e-15)]
        assert abs(convergence_order(with_floor) - 2.0) < 1e-12

    def test_all_points_at_floor(self):
        with pytest.raises(DegenerateError):
            convergence_order([(0.1, 0.0), (0.05, 1e-16)])
