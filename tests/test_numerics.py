import math

import pytest

from riskpremia import (
    BracketError,
    DegenerateError,
    MaxIterError,
    PowerWeighting,
    RootSpec,
    convergence_order,
    find_root,
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
