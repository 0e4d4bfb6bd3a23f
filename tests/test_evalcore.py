import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskpremia import (
    CaraUtility,
    DecisionMaker,
    DomainError,
    IdentityWeighting,
    LinearUtility,
    Lottery,
    ParseError,
    PowerWeighting,
    certainty_equivalent,
    evaluate_dual_form,
    evaluate_rdu,
)
from riskpremia.evalcore import PROB_SUM_TOL
from conftest import random_dm

DM_ID = DecisionMaker(LinearUtility(), IdentityWeighting())


def random_lottery(rng, max_states=10, domain=(-math.inf, math.inf)):
    n = int(rng.integers(1, max_states + 1))
    probs = rng.uniform(0.05, 1.0, size=n)
    probs = probs / probs.sum()
    lo = max(domain[0], -2.0) + 0.2
    hi = min(domain[1], 3.0) - 0.2
    payoffs = rng.uniform(lo, hi, size=n)
    return Lottery(tuple(zip(payoffs.tolist(), probs.tolist())))


class TestLottery:
    def test_canonical_sorted_and_merged(self):
        lot = Lottery(((1.0, 0.2), (0.0, 0.3), (1.0, 0.5)))
        assert lot.states == ((0.0, 0.3), (1.0, 0.7))

    def test_sum_violation_rejected(self):
        with pytest.raises(DomainError):
            Lottery(((0.0, 0.5), (1.0, 0.6)))
        with pytest.raises(DomainError):
            Lottery(((0.0, 0.5), (1.0, 0.5 - 1e-9)))

    def test_bad_probabilities_rejected(self):
        with pytest.raises(DomainError):
            Lottery(((0.0, 0.0), (1.0, 1.0)))
        with pytest.raises(DomainError):
            Lottery(((0.0, -0.1), (1.0, 1.1)))
        with pytest.raises(DomainError):
            Lottery(())
        with pytest.raises(DomainError):
            Lottery(((float("nan"), 1.0),))

    def test_json_roundtrip(self):
        lot = Lottery.from_json('[{"x": 1, "p": 0.25}, {"x": 0, "p": 0.75}]')
        assert lot.states == ((0.0, 0.75), (1.0, 0.25))
        assert Lottery(tuple((s["x"], s["p"]) for s in lot.to_jsonable())) == lot

    def test_json_errors(self):
        with pytest.raises(ParseError):
            Lottery.from_json("not json {")
        with pytest.raises(ParseError):
            Lottery.from_json('{"x": 1}')
        with pytest.raises(ParseError):
            Lottery.from_json('[{"x": 1}]')
        with pytest.raises(ParseError):
            Lottery.from_json('[{"x": "a", "p": 1}]')

    def test_csv_parse(self):
        lot = Lottery.from_csv("x,p\n0,0.5\n1,0.5\n")
        assert lot.states == ((0.0, 0.5), (1.0, 0.5))

    def test_csv_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="header"):
            Lottery.from_csv("a,b\n0,1\n")
        with pytest.raises(ParseError, match="line 3"):
            Lottery.from_csv("x,p\n0,0.5\n1,zzz\n")
        with pytest.raises(ParseError):
            Lottery.from_csv("")


class TestEvaluation:
    def test_expected_value_case(self):
        lot = Lottery(((0.0, 0.5), (1.0, 0.5)))
        assert evaluate_rdu(DM_ID, lot) == 0.5

    def test_convex_weighting_shifts_weight_up(self):
        # h(p) = p^2 puts weight 0.25 on the low payoff and 0.75 on the high
        dm = DecisionMaker(LinearUtility(), PowerWeighting(theta=2.0))
        lot = Lottery(((0.0, 0.5), (1.0, 0.5)))
        assert evaluate_rdu(dm, lot) == 0.75
        assert evaluate_dual_form(dm, lot) == 0.75

    def test_cara_binary_risk(self):
        dm = DecisionMaker(CaraUtility(a=1.0), IdentityWeighting())
        lot = Lottery(((-0.1, 0.5), (0.1, 0.5)))
        assert math.isclose(evaluate_rdu(dm, lot), -math.cosh(0.1), rel_tol=1e-15)
        assert math.isclose(
            certainty_equivalent(dm, lot), -math.log(math.cosh(0.1)), rel_tol=1e-12
        )

    def test_degenerate_lottery_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dm = random_dm(rng)
            lo, hi = dm.utility.domain
            c = float(rng.uniform(max(lo, -2.0) + 0.5, min(hi, 4.0) - 0.2))
            lot = Lottery(((c, 1.0),))
            assert evaluate_rdu(dm, lot) == dm.utility.value(c)

    def test_certainty_equivalent_degenerate(self):
        lot = Lottery(((0.42, 1.0),))
        assert certainty_equivalent(DM_ID, lot) == 0.42
        dm = DecisionMaker(CaraUtility(a=2.0), PowerWeighting(theta=0.7))
        assert math.isclose(certainty_equivalent(dm, lot), 0.42, rel_tol=1e-12)

    def test_identity_utility_ce_equals_value(self):
        dm = DecisionMaker(LinearUtility(), PowerWeighting(theta=2.0))
        lot = Lottery(((0.0, 0.5), (1.0, 0.5)))
        assert certainty_equivalent(dm, lot) == evaluate_rdu(dm, lot)

    def test_rank_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            dm = random_dm(rng)
            lot = random_lottery(rng, domain=dm.utility.domain)
            perm = rng.permutation(lot.n_states)
            shuffled = Lottery(tuple(lot.states[i] for i in perm))
            assert evaluate_rdu(dm, shuffled) == evaluate_rdu(dm, lot)

    def test_cumulative_decumulative_agreement(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            dm = random_dm(rng)
            lot = random_lottery(rng, domain=dm.utility.domain)
            a = evaluate_rdu(dm, lot)
            b = evaluate_dual_form(dm, lot)
            assert abs(a - b) < 1e-12

    def test_monotone_in_payoffs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dm = random_dm(rng)
            lot = random_lottery(rng, domain=dm.utility.domain)
            base = evaluate_rdu(dm, lot)
            k = int(rng.integers(lot.n_states))
            bumped_states = list(lot.states)
            bumped_states[k] = (bumped_states[k][0] + 0.05, bumped_states[k][1])
            bumped = Lottery(tuple(bumped_states))
            assert evaluate_rdu(dm, bumped) >= base - 1e-14

    def test_payoff_outside_utility_domain(self):
        from riskpremia import LogUtility

        dm = DecisionMaker(CaraUtility(a=1.0), IdentityWeighting())
        evaluate_rdu(dm, Lottery(((-5.0, 0.5), (5.0, 0.5))))  # unbounded: fine
        dm_log = DecisionMaker(LogUtility(), IdentityWeighting())
        with pytest.raises(DomainError):
            evaluate_rdu(dm_log, Lottery(((-1.0, 0.5), (1.0, 0.5))))


# ---------------------------------------------------------------------------
# The canonicalisation contract, pinned against the original per-state loop
# ---------------------------------------------------------------------------


def reference_states(states):
    """Canonical states by the original per-state Lottery loop.

    Kept verbatim as the contract: Lottery must give these states bit for
    bit, or raise the same error type with the same message.
    """
    pairs = []
    total = 0.0
    for raw in states:
        x, p = float(raw[0]), float(raw[1])
        if not (math.isfinite(x) and math.isfinite(p)):
            raise DomainError("non-finite lottery state")
        if not 0.0 < p <= 1.0:
            raise DomainError(f"state probability {p:g} outside (0, 1]")
        pairs.append((x, p))
        total += p
    if not pairs:
        raise DomainError("lottery needs at least one state")
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DomainError(
            f"probabilities sum to {total:.17g}, not 1 within {PROB_SUM_TOL:g}"
        )
    pairs.sort(key=lambda s: s[0])
    merged = []
    for x, p in pairs:
        if merged and merged[-1][0] == x:
            merged[-1][1] += p
        else:
            merged.append([x, p])
    return tuple((x, p) for x, p in merged)


def _hex_states(states):
    return tuple((float.hex(x), float.hex(p)) for x, p in states)


def _outcome(build):
    """("ok", hex states) or (error type, message) of one construction."""
    try:
        states = build()
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc)
    if isinstance(states, Lottery):
        lot = states
        states = lot.states
        assert all(type(x) is float and type(p) is float for x, p in states)
        assert lot.payoffs.dtype == np.float64 and lot.probs.dtype == np.float64
        assert [float.hex(x) for x in lot.payoffs.tolist()] == [float.hex(x) for x, _ in states]
        assert [float.hex(p) for p in lot.probs.tolist()] == [float.hex(p) for _, p in states]
    return "ok", _hex_states(states)


def _input_forms(states):
    """Factories of every input form Lottery accepts, each built fresh."""
    return {
        "tuple": lambda: tuple(states),
        "list": lambda: list(states),
        "generator": lambda: (s for s in states),
        "ndarray": lambda: np.array(states, dtype=float).reshape(-1, 2),
        "3-item": lambda: tuple((x, p, "extra") for x, p in states),
    }


def assert_matches_reference(states):
    for form, make in _input_forms(states).items():
        got = _outcome(lambda: Lottery(make()))
        want = _outcome(lambda: reference_states(make()))
        assert got == want, form


def _sequential_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _ulps_from(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


# Few distinct values, so draws carry duplicate runs and -0.0/0.0 ties.
_PAYOFF_POOL = (-0.0, 0.0, -1.5, 0.25, 1.0, 1e-300, 3.0)
_SUM_EDGES = (1.0, 1.0 + PROB_SUM_TOL, 1.0 - PROB_SUM_TOL)


@st.composite
def state_lists(draw):
    n = draw(st.integers(1, 40))
    payoff = st.one_of(st.sampled_from(_PAYOFF_POOL), st.floats(-1e6, 1e6))
    xs = draw(st.lists(payoff, min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    scale = math.fsum(weights)
    ps = [w / scale for w in weights]
    if n > 1 and draw(st.booleans()):
        # aim the sequential total at an acceptance edge, a few ulps off
        edge = _ulps_from(draw(st.sampled_from(_SUM_EDGES)), draw(st.integers(-3, 3)))
        ps[-1] = edge - _sequential_sum(ps[:-1])
    states = list(zip(xs, ps))
    return draw(st.permutations(states))


class TestCanonicalContract:
    @settings(max_examples=100, deadline=None, database=None)
    @given(state_lists())
    def test_matches_reference_loop(self, states):
        assert_matches_reference(states)

    def test_long_duplicate_run_sums_sequentially(self):
        # a run of 9 or more is where numpy's pairwise sum departs from the
        # left-to-right one; find probabilities where it does
        rng = np.random.default_rng(3)
        while True:
            ps = rng.uniform(0.5, 1.0, size=int(rng.integers(9, 40)))
            ps = (ps / ps.sum()).tolist()
            seq = _sequential_sum(ps)
            if seq != float(np.add.reduce(np.array(ps))) and abs(seq - 1.0) <= PROB_SUM_TOL:
                break
        states = [(2.5, p) for p in ps] + [(-0.0, 1e-13), (0.0, 1e-13)]
        states[0] = (2.5, states[0][1] - 2e-13)
        assert_matches_reference(states)
        lot = Lottery(tuple((2.5, p) for p in ps))
        assert _hex_states(lot.states) == _hex_states(((2.5, seq),))

    def test_total_is_summed_left_to_right(self):
        # 16 states whose running total is the largest accepted one, while
        # numpy's pairwise sum of the same probabilities would be rejected
        edge = 1.0 + PROB_SUM_TOL
        while abs(edge - 1.0) > PROB_SUM_TOL:
            edge = math.nextafter(edge, 0.0)
        rng = np.random.default_rng(5)
        while True:
            ps = rng.uniform(0.5, 1.0, size=16)
            ps = (ps / ps.sum()).tolist()
            ps[-1] = edge - _sequential_sum(ps[:-1])
            if _sequential_sum(ps) == edge and float(np.add.reduce(np.array(ps))) > edge:
                break
        states = [(float(i), p) for i, p in enumerate(ps)]
        assert_matches_reference(states)
        assert Lottery(tuple(states)).n_states == 16

    @pytest.mark.parametrize("edge", _SUM_EDGES[1:])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_sum_tolerance_edges(self, edge, ulps):
        # 0.5 + (t - 0.5) == t exactly for t near 1, so the total is t itself
        total = _ulps_from(edge, ulps)
        states = [(1.0, total - 0.5), (0.0, 0.5)]
        assert _sequential_sum(p for _, p in states) == total
        assert_matches_reference(states)

    def test_signed_zero_ties_keep_input_order(self):
        assert_matches_reference([(0.0, 0.25), (-0.0, 0.25), (1.0, 0.5)])
        assert_matches_reference([(-0.0, 0.25), (0.0, 0.25), (-1.0, 0.5)])
        assert math.copysign(1.0, Lottery(((-0.0, 0.5), (0.0, 0.5))).states[0][0]) == -1.0

    def test_long_tied_runs_keep_input_order(self):
        # numpy's default sort is stable only below 16 elements; long runs of
        # ties with distinct probabilities and mixed signed zeros show
        # whether each run keeps input order for its first payoff and sum
        rng = np.random.default_rng(11)
        for n in (17, 300, 3000):
            xs = rng.choice(_PAYOFF_POOL, size=n).tolist()
            ps = rng.uniform(0.5, 1.0, size=n)
            states = list(zip(xs, (ps / ps.sum()).tolist()))
            assert_matches_reference(states)

    @pytest.mark.parametrize(
        "states, error, message",
        [
            ([(0.0, 0.5), (math.nan, 0.5), (1.0, 1.5)], DomainError, "non-finite lottery state"),
            ([(0.0, 0.5), (1.0, 1.5), (math.inf, 0.5)], DomainError, "state probability 1.5 outside (0, 1]"),
            ([(0.0, 0.5), (1.0, -0.0)], DomainError, "state probability -0 outside (0, 1]"),
            ([(0.0, 0.5), ("abc", 0.5)], ValueError, "could not convert string to float: 'abc'"),
            ([(0.0, 0.5), (None, 0.5)], TypeError, "float() argument must be a string or a real number, not 'NoneType'"),
            ([(math.inf, 0.5), ("abc", 0.5)], DomainError, "non-finite lottery state"),
            ([("abc", 0.5), (0.0, 2.0)], ValueError, "could not convert string to float: 'abc'"),
            ([(0.0, 0.5), (1.0,)], IndexError, "tuple index out of range"),
            ([], DomainError, "lottery needs at least one state"),
            ([(0.0, 0.5), (1.0, 0.6)], DomainError, "probabilities sum to 1.1000000000000001, not 1 within 1e-12"),
        ],
    )
    def test_first_bad_entry_decides_the_error(self, states, error, message):
        for make in (lambda: tuple(states), lambda: iter(states)):
            with pytest.raises(error) as info:
                Lottery(make())
            assert type(info.value) is error and str(info.value) == message
            assert _outcome(lambda: reference_states(make())) == (error, message)

    def test_odd_but_valid_entries(self):
        # strings, ints, bools and numpy scalars convert as float() does
        assert_matches_reference([("0.25", "0.5"), (1, np.float32(0.25)), (True, 0.25)])

    def test_payoffs_and_probs_are_fresh_writable_copies(self):
        dm = DecisionMaker(CaraUtility(a=1.0), PowerWeighting(theta=0.7))
        lot = Lottery(((1.0, 0.25), (0.0, 0.75)))
        value = evaluate_rdu(dm, lot)
        xs, ps = lot.payoffs, lot.probs
        assert xs.flags.writeable and ps.flags.writeable
        assert xs is not lot.payoffs and ps is not lot.probs
        xs[:] = 99.0
        ps[:] = 0.0
        assert lot.states == ((0.0, 0.75), (1.0, 0.25))
        assert lot.payoffs.tolist() == [0.0, 1.0]
        assert lot.probs.tolist() == [0.75, 0.25]
        assert evaluate_rdu(dm, lot) == value
