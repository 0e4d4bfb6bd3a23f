import json
import re

import numpy as np
import pytest

from riskpremia import (
    CaraUtility,
    CrraUtility,
    DecisionMaker,
    DegenerateError,
    DomainError,
    ExpTransform,
    GridError,
    IdentityWeighting,
    LinearUtility,
    LogUtility,
    PowerTransform,
    PowerWeighting,
    PrelecWeighting,
    QuadraticUtility,
    Scenario,
    TkWeighting,
    check_concave_composition,
    check_cross_ratio,
    check_index_dominance,
    check_premium_dominance_dt,
    check_theorem1,
    check_theorem2,
    concavify,
    dt_probability_premium_exact,
    dt_risk_premium_exact,
    rdu_probability_premium_exact,
    rdu_risk_premium_exact,
)
from riskpremia.comparative import (
    INDEX_SLACK,
    PREMIUM_SLACK,
    dt_scenario_grid,
    probability_grid,
    quadruple_sample,
    rdu_scenario_grid,
    utility_x_window,
)
from conftest import random_transform, random_weighting

POW05 = PowerWeighting(theta=0.5)
POW2 = PowerWeighting(theta=2.0)
PRELEC = PrelecWeighting(alpha=0.65, beta=1.0)
GRID = probability_grid(201)


class TestIndexDominance:
    def test_equal_pair_holds_with_equality(self):
        res = check_index_dominance(POW05, POW05, GRID)
        assert res.holds and res.marginal
        assert res.worst_margin == 0.0

    def test_concavified_dominates_base(self):
        h2 = concavify(PRELEC, PowerTransform(kappa=0.7))
        res = check_index_dominance(h2, PRELEC, GRID)
        assert res.holds and not res.marginal
        assert res.witness is None

    def test_opposite_curvatures_fail_everywhere(self):
        # indexes (1-theta)/p have opposite signs, so any interior point is
        # a witness; the first grid point is reported
        res = check_index_dominance(POW2, POW05, GRID)
        assert not res.holds
        assert res.witness["point"] == GRID[0]
        assert res.witness["index2"] < res.witness["index1"]

    def test_empty_grid(self):
        with pytest.raises(GridError):
            check_index_dominance(POW2, POW05, np.array([]))


class TestPremiumDominanceDt:
    def test_equal_pair(self):
        ii, iii = check_premium_dominance_dt(PRELEC, PRELEC)
        assert ii.holds and ii.marginal and iii.holds and iii.marginal

    def test_concavified_vs_base(self):
        h2 = concavify(PRELEC, PowerTransform(kappa=0.7))
        ii, iii = check_premium_dominance_dt(h2, PRELEC)
        assert ii.holds and not ii.marginal
        assert iii.holds and not iii.marginal

    def test_reversed_pair_fails_with_witness(self):
        h2 = concavify(PRELEC, PowerTransform(kappa=0.7))
        ii, iii = check_premium_dominance_dt(PRELEC, h2)
        assert not ii.holds and not iii.holds
        assert {"p0", "eps2", "rho2", "rho1"} <= set(ii.witness)
        assert ii.witness["rho2"] < ii.witness["rho1"]


class TestConcaveComposition:
    def test_same_function_is_linear(self):
        res = check_concave_composition(PRELEC, PRELEC, GRID)
        assert res.holds and res.marginal

    def test_composition_reproduces_transform(self):
        # h2 = T(h1) makes h2(h1^{-1}(t)) = T(t) up to inverse tolerance
        T = PowerTransform(kappa=0.6)
        h2 = concavify(TkWeighting(gamma=0.61), T)
        t_grid = probability_grid(101)
        comp = np.array([h2.value(h2.base.inverse(t)) for t in t_grid])
        direct = np.array([T.value(t) for t in t_grid])
        assert np.max(np.abs(comp - direct)) < 1e-12
        res = check_concave_composition(h2, h2.base, t_grid)
        assert res.holds and not res.marginal

    def test_sqrt_of_identity_is_concave(self):
        res = check_concave_composition(POW05, IdentityWeighting(), GRID)
        assert res.holds and not res.marginal

    def test_convex_composition_fails(self):
        res = check_concave_composition(POW2, POW05, GRID)
        assert not res.holds
        assert "second_diff" in res.witness

    def test_too_small_grid(self):
        with pytest.raises(GridError):
            check_concave_composition(POW05, POW2, np.array([0.5, 0.6]))


class TestCrossRatio:
    def test_equal_pair(self):
        res = check_cross_ratio(PRELEC, PRELEC, quadruple_sample(100, seed=1))
        assert res.holds and res.marginal

    def test_concavified_holds(self):
        h2 = concavify(PRELEC, PowerTransform(kappa=0.7))
        res = check_cross_ratio(h2, PRELEC, quadruple_sample(200, seed=1))
        assert res.holds and not res.marginal

    def test_reversed_fails_with_witness_quadruple(self):
        h2 = concavify(PRELEC, PowerTransform(kappa=0.7))
        res = check_cross_ratio(PRELEC, h2, quadruple_sample(200, seed=1))
        assert not res.holds
        assert {"p", "q", "r", "s"} <= set(res.witness)
        p, q, r, s = (res.witness[k] for k in "pqrs")
        assert 0.0 < p < q <= r < s < 1.0

    def test_sample_is_deterministic(self):
        assert quadruple_sample(50, seed=3) == quadruple_sample(50, seed=3)

    def test_sample_respects_ordering(self):
        for p, q, r, s in quadruple_sample(500, seed=5):
            assert 0.0 < p < q <= r < s < 1.0

    @pytest.mark.parametrize("n, seed", [(-3, 0), (-1, 1), (10, -1)])
    def test_negative_sample_size_or_seed_rejected(self, n, seed):
        with pytest.raises(GridError, match="must be non-negative"):
            quadruple_sample(n, seed=seed)

    def test_empty_sample_rejected_by_the_check(self):
        assert quadruple_sample(0, seed=0) == []
        with pytest.raises(GridError, match="empty cross-ratio sample"):
            check_cross_ratio(PRELEC, PRELEC, quadruple_sample(0, seed=0))


class TestTheorem1Report:
    def test_concavified_pair_all_hold_and_reversed_all_fail(self):
        base = TkWeighting(gamma=0.61)
        h2 = concavify(base, PowerTransform(kappa=0.8))
        fwd = check_theorem1(h2, base, n_points=201, n_samples=100)
        assert fwd.all_hold and fwd.consistent
        rev = check_theorem1(base, h2, n_points=201, n_samples=100)
        assert not rev.all_hold and rev.consistent
        assert all(c.witness is not None for c in rev.conditions)

    def test_antisymmetry(self):
        h2 = concavify(POW05, PowerTransform(kappa=0.9))
        fwd = check_theorem1(h2, POW05, n_points=101, n_samples=50)
        assert fwd.all_hold
        assert any(c.worst_margin > c.slack for c in fwd.conditions)
        rev = check_theorem1(POW05, h2, n_points=101, n_samples=50)
        assert all(not c.holds for c in rev.conditions)

    def test_json_rendering(self):
        rep = check_theorem1(POW05, POW05, n_points=51, n_samples=20)
        data = json.loads(rep.to_json())
        assert data["kind"] == "dual-theory"
        assert len(data["conditions"]) == 5
        assert data["consistent"] is True
        table = rep.to_table()
        assert "verdicts consistent: yes" in table


class TestTheorem2Report:
    def test_equal_dms_hold_with_equality(self):
        dm = DecisionMaker(CaraUtility(a=1.0), PRELEC)
        rep = check_theorem2(dm, dm, n_points=101, n_samples=50)
        assert rep.all_hold and rep.consistent
        assert all(c.marginal for c in rep.conditions)

    @pytest.mark.parametrize(
        "u1,u2",
        [
            (CaraUtility(a=1.0), CaraUtility(a=2.0)),
            (CrraUtility(eta=1.5), CrraUtility(eta=3.0)),
            (LogUtility(), CrraUtility(eta=2.0)),
            (LinearUtility(), CaraUtility(a=0.5)),
            (QuadraticUtility(b=0.1), QuadraticUtility(b=0.2)),
        ],
        ids=lambda u: u.spec,
    )
    def test_concavified_dm_pairs(self, u1, u2):
        base_h = PrelecWeighting(alpha=0.8, beta=1.1)
        h2 = concavify(base_h, PowerTransform(kappa=0.75))
        dm1 = DecisionMaker(u1, base_h)
        dm2 = DecisionMaker(u2, h2)
        fwd = check_theorem2(dm2, dm1, n_points=101, n_samples=60)
        assert fwd.all_hold and fwd.consistent, fwd.to_table()
        rev = check_theorem2(dm1, dm2, n_points=101, n_samples=60)
        assert not rev.all_hold and rev.consistent, rev.to_table()
        assert all(c.witness is not None for c in rev.conditions)

    def test_mixed_pair_fails_consistently(self):
        # candidate more concave in utility but less concave in weighting:
        # index dominance fails and the premium sweeps find witnesses
        base_h = PrelecWeighting(alpha=0.65, beta=1.0)
        h2 = concavify(base_h, PowerTransform(kappa=0.8))
        dm2 = DecisionMaker(CaraUtility(a=3.0), base_h)
        dm1 = DecisionMaker(CaraUtility(a=1.0), h2)
        rep = check_theorem2(dm2, dm1, n_points=101, n_samples=60)
        assert not rep.conditions[0].holds
        assert not rep.conditions[1].holds and rep.conditions[1].witness is not None
        assert rep.consistent

    def test_built_in_pool_verdicts_agree(self):
        rng = np.random.default_rng(71)
        for _ in range(8):
            base_h = random_weighting(rng, allow_composed=False)
            h2 = concavify(base_h, random_transform(rng))
            a = float(rng.uniform(0.5, 1.5))
            dm1 = DecisionMaker(CaraUtility(a=a), base_h)
            dm2 = DecisionMaker(CaraUtility(a=a * float(rng.uniform(1.3, 2.5))), h2)
            for pair in ((dm2, dm1), (dm1, dm2)):
                rep = check_theorem2(*pair, n_points=101, n_samples=40)
                assert rep.consistent, rep.to_table()

    def test_narrow_joint_domain_raises(self):
        dm1 = DecisionMaker(QuadraticUtility(b=40.0), PRELEC)  # domain up to 0.0125
        dm2 = DecisionMaker(LogUtility(), PRELEC)  # domain from 0
        with pytest.raises(GridError):
            check_theorem2(dm2, dm1, n_points=51, n_samples=20)


# ---------------------------------------------------------------------------
# The one-pass array checks against a per-point loop over the scalar kernels
# ---------------------------------------------------------------------------

TK = TkWeighting(gamma=0.61)
TK_MORE = concavify(TK, PowerTransform(kappa=0.7))
PRELEC_MORE = concavify(PRELEC, ExpTransform(a=1.5))
WEIGHTING_PAIRS = [
    (TK_MORE, TK),
    (TK, TK_MORE),
    (POW05, IdentityWeighting()),
    (IdentityWeighting(), POW05),
    (PRELEC_MORE, PRELEC),
    (PRELEC, PRELEC_MORE),
    (POW2, TK),
]
UTILITY_PAIRS = [
    (CaraUtility(a=2.0), CaraUtility(a=1.0)),
    (CrraUtility(eta=3.0), CrraUtility(eta=1.5)),
    (CrraUtility(eta=2.0), LogUtility()),
    (CaraUtility(a=0.5), LinearUtility()),
    (QuadraticUtility(b=0.2), QuadraticUtility(b=0.1)),
]


def _sided(side, witness):
    return {"side": side, **witness} if side else witness


def _assert_matches_loop(check, margins, witnesses, slack):
    """check equals the verdict of a per-point loop: same worst margin, and
    the witness is the first point violating beyond slack, in grid order."""
    worst = min(margins)
    first = next((w for m, w in zip(margins, witnesses) if m < -slack), None)
    assert check.n_points == len(margins)
    assert check.worst_margin == worst
    assert check.holds is (worst >= -slack)
    assert check.witness == first
    if first is not None:
        assert all(type(v) is float for k, v in check.witness.items() if k != "side")


def _premium_loop(kernels, names, agent2, agent1, grid, base):
    """Per-point margins and witnesses of conditions (ii) and (iii)."""
    out = []
    for kernel, name in zip(kernels, names):
        margins, witnesses = [], []
        for point in grid:
            v2, v1 = kernel(agent2, *point), kernel(agent1, *point)
            margins.append(v2 - v1)
            witnesses.append({**base(*point), f"{name}2": v2, f"{name}1": v1})
        out.append((margins, witnesses))
    return out


def _assert_composition_matches_loop(f2, f1, t_grid, side=""):
    g = [f2.value(f1.inverse(t)) for t in t_grid]
    second = [g[i - 1] - 2.0 * g[i] + g[i + 1] for i in range(1, len(g) - 1)]
    witnesses = [
        _sided(side, {"t": float(t), "second_diff": d}) for t, d in zip(t_grid[1:-1], second)
    ]
    check = check_concave_composition(f2, f1, t_grid, side=side)
    _assert_matches_loop(check, [-d for d in second], witnesses, INDEX_SLACK)


def _assert_cross_ratio_matches_loop(f2, f1, quads, side=""):
    margins, witnesses = [], []
    for p, q, r, s in quads:
        lhs = (f2.value(s) - f2.value(r)) / (f2.value(q) - f2.value(p))
        rhs = (f1.value(s) - f1.value(r)) / (f1.value(q) - f1.value(p))
        margins.append(rhs - lhs)
        witnesses.append(
            _sided(side, {"p": p, "q": q, "r": r, "s": s, "ratio2": lhs, "ratio1": rhs})
        )
    check = check_cross_ratio(f2, f1, quads, side=side)
    _assert_matches_loop(check, margins, witnesses, INDEX_SLACK)


class TestArrayChecksMatchScalarLoop:
    @pytest.mark.parametrize("h2,h1", WEIGHTING_PAIRS, ids=lambda h: h.spec)
    def test_dual_theory_conditions(self, h2, h1):
        grid = dt_scenario_grid()
        loops = _premium_loop(
            (dt_risk_premium_exact, dt_probability_premium_exact),
            ("rho", "lambda"),
            h2,
            h1,
            grid,
            lambda p0, eps2: {"p0": p0, "eps2": eps2},
        )
        for check, (margins, witnesses) in zip(check_premium_dominance_dt(h2, h1, grid), loops):
            _assert_matches_loop(check, margins, witnesses, PREMIUM_SLACK)
        _assert_composition_matches_loop(h2, h1, probability_grid(51))
        _assert_cross_ratio_matches_loop(h2, h1, quadruple_sample(60, seed=3), side="weighting")

    @pytest.mark.parametrize("order", ["more averse first", "reversed"])
    @pytest.mark.parametrize("u2,u1", UTILITY_PAIRS, ids=lambda u: u.spec)
    def test_rank_dependent_conditions(self, u2, u1, order):
        dm2, dm1 = DecisionMaker(u2, TK_MORE), DecisionMaker(u1, TK)
        if order == "reversed":
            dm2, dm1 = dm1, dm2
            u2, u1 = u1, u2
        grid = rdu_scenario_grid(u1, u2)
        loops = _premium_loop(
            (rdu_risk_premium_exact, rdu_probability_premium_exact),
            ("sigma", "mu"),
            dm2,
            dm1,
            [(sc,) for sc in grid],
            lambda sc: {"x0": sc.x0, "p0": sc.p0, "eps1": sc.eps1, "eps2": sc.eps2},
        )
        report = check_theorem2(dm2, dm1, n_points=11, n_samples=5, scenario_grid=grid)
        for check, (margins, witnesses) in zip(report.conditions[1:3], loops):
            _assert_matches_loop(check, margins, witnesses, PREMIUM_SLACK)

        lo, hi = utility_x_window(u1, u2, pad=0.1)
        t_lo, t_hi = u1.value(lo), u1.value(hi)
        step = (t_hi - t_lo) / 42
        t_grid = np.linspace(t_lo + step, t_hi - step, 41)
        _assert_composition_matches_loop(u2, u1, t_grid, side="utility")
        quads = quadruple_sample(40, seed=2, lo=lo, hi=hi)
        _assert_cross_ratio_matches_loop(u2, u1, quads, side="utility")

    def test_witness_is_first_violation_not_worst(self):
        grid = dt_scenario_grid()
        margins = [
            dt_risk_premium_exact(PRELEC, p0, e) - dt_risk_premium_exact(PRELEC_MORE, p0, e)
            for p0, e in grid
        ]
        first = next(i for i, m in enumerate(margins) if m < -PREMIUM_SLACK)
        worst = int(np.argmin(margins))
        assert first != worst  # the case must tell the two apart
        ii, _ = check_premium_dominance_dt(PRELEC, PRELEC_MORE, grid)
        assert (ii.witness["p0"], ii.witness["eps2"]) == grid[first]
        assert ii.worst_margin == margins[worst]


@pytest.mark.filterwarnings("error")
class TestBadGridPoints:
    """A bad point in a caller's grid raises what the scalar kernel raises
    at the first bad point, with no numpy warning on the way."""

    def test_dual_theory_point_outside_band(self):
        grid = [(0.5, 0.1), (0.3, 0.4), (1.3, 0.1)]
        with pytest.raises(DomainError) as scalar:
            dt_risk_premium_exact(TK_MORE, 0.3, 0.4)
        with pytest.raises(DomainError) as array:
            check_premium_dominance_dt(TK_MORE, TK, grid)
        assert str(array.value) == str(scalar.value)

    @pytest.mark.parametrize("first_bad_for", [1, 2])
    def test_rank_dependent_payoff_outside_domain(self, first_bad_for):
        dm2 = DecisionMaker(CrraUtility(eta=2.0), TK_MORE)  # payoffs x > 0
        dm1 = DecisionMaker(QuadraticUtility(b=0.2), TK)  # payoffs x < 2.5
        only_1 = Scenario(x0=2.45, p0=0.5, eps1=0.1, eps2=0.1)
        only_2 = Scenario(x0=0.05, p0=0.5, eps1=0.1, eps2=0.1)
        bad = [only_1, only_2] if first_bad_for == 1 else [only_2, only_1]
        with pytest.raises(DomainError) as scalar:
            rdu_risk_premium_exact(dm1 if first_bad_for == 1 else dm2, bad[0])
        grid = [Scenario(x0=1.0, p0=0.5, eps1=0.1, eps2=0.1), *bad]
        with pytest.raises(DomainError) as array:
            check_theorem2(dm2, dm1, n_points=11, n_samples=5, scenario_grid=grid)
        assert str(array.value) == str(scalar.value)

    def test_cross_ratio_vanishing_increment(self):
        # ordered, but power:2's increment over (p, q) underflows to zero
        quads = [(0.1, 0.2, 0.3, 0.4), (1e-200, 2e-200, 0.3, 0.4)]
        with pytest.raises(DegenerateError):
            check_cross_ratio(POW2, POW05, quads)

    @pytest.mark.parametrize(
        "bad",
        [(0.4, 0.3, 0.2, 0.1), (0.2, 0.2, 0.3, 0.4), (0.1, 0.3, 0.2, 0.4), (0.1, 0.2, 0.3, 0.3)],
    )
    def test_cross_ratio_misordered_quadruple(self, bad):
        # reversed corners would otherwise flip the verdict of a failing pair
        quads = [(0.1, 0.2, 0.3, 0.4), bad, (0.4, 0.3, 0.2, 0.1)]
        with pytest.raises(GridError, match=f"quadruple {re.escape(str(bad))} is not ordered"):
            check_cross_ratio(POW2, POW05, quads)


def test_theorem1_accepts_a_generator_grid():
    grid = dt_scenario_grid()
    rep = check_theorem1(TK_MORE, TK, n_points=21, n_samples=10, scenario_grid=iter(grid))
    ref = check_theorem1(TK_MORE, TK, n_points=21, n_samples=10, scenario_grid=grid)
    assert rep.grids["dt_scenarios"] == len(grid)
    assert rep.to_dict() == ref.to_dict()
