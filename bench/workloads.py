"""Seeded inputs, operations and reference checks of the four workloads.

Inputs are drawn from the seed alone and never from riskpremia; the
library only sees the generated spec strings and numbers.  Each workload
runs in cycles: a cycle holds every input class (agent family, pair kind,
lottery size) once, so the class mix is identical for every seed and a run
always ends on a whole cycle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

import numpy as np

import oracle

UTILITY_FAMILIES = ("linear", "cara", "crra", "log", "quadratic")
WEIGHTING_KINDS = ("identity", "power", "prelec", "tk", "composed")
TRANSFORMS = ("power", "exp", "blend")
# Fixed base of the composed weighting paired with each utility family.
COMPOSED_BASES = ("power", "prelec", "tk", "power", "prelec")
EPS_MIN, EPS_MAX = 1e-6, 0.5
# The fixed ladder of eps decades behind max_rel_err.
EPS_LADDER = (0.5, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# 12 significant digits in CLI output.
CLI_ROUNDING = 1e-11


def _rng(seed: int, *keys) -> random.Random:
    return random.Random("/".join(str(k) for k in (seed,) + keys))


def _num(x: float) -> str:
    return f"{x:.4g}"


def _params(spec: str) -> list[float]:
    _, _, tail = spec.partition(":")
    return [float(t) for t in tail.split(",")] if tail else []


def utility_spec(rng: random.Random, family: str) -> str:
    if family == "cara":
        return f"cara:{_num(rng.uniform(0.25, 3.0))}"
    if family == "crra":
        return f"crra:{_num(rng.uniform(0.3, 4.0))}"
    if family == "quadratic":
        return f"quadratic:{_num(rng.uniform(0.05, 0.25))}"
    return family


def transform_spec(rng: random.Random, family: str) -> str:
    if family == "power":
        return f"power:{_num(rng.uniform(0.5, 0.85))}"
    if family == "exp":
        return f"exp:{_num(rng.uniform(0.5, 3.0))}"
    return f"blend:{_num(rng.uniform(0.2, 1.0))}"


def weighting_spec(rng: random.Random, kind: str, transform: str = "power", base: str = "power") -> str:
    if kind == "power":
        return f"power:{_num(rng.uniform(0.4, 2.5))}"
    if kind == "prelec":
        return f"prelec:{_num(rng.uniform(0.4, 1.0))},{_num(rng.uniform(0.6, 1.4))}"
    if kind == "tk":
        return f"tk:{_num(rng.uniform(0.4, 0.9))}"
    if kind == "composed":
        return f"{transform_spec(rng, transform)}@{weighting_spec(rng, base)}"
    return "identity"


def wealth_window(u_spec: str) -> tuple[float, float]:
    """Initial wealth range keeping x0 +- 0.5 well inside the domain."""
    family = u_spec.partition(":")[0]
    if family in ("crra", "log"):
        return (0.75, 4.0)
    if family == "quadratic":
        return (-2.0, 0.5 / _params(u_spec)[0] - 0.75)
    return (-2.0, 2.0)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _scenario(rng: random.Random, u_spec: str) -> tuple[float, float, float, float]:
    x0 = rng.uniform(*wealth_window(u_spec))
    p0 = rng.uniform(0.05, 0.95)
    eps1 = _log_uniform(rng, EPS_MIN, EPS_MAX)
    eps2 = _log_uniform(rng, EPS_MIN, min(EPS_MAX, p0, 1.0 - p0))
    return (x0, p0, eps1, eps2)


def agent_grid(seed: int) -> list[tuple[str, str]]:
    """Every utility family crossed with every weighting kind."""
    rng = _rng(seed, "agents")
    agents = []
    for i, family in enumerate(UTILITY_FAMILIES):
        for kind in WEIGHTING_KINDS:
            agents.append(
                (
                    utility_spec(rng, family),
                    weighting_spec(rng, kind, TRANSFORMS[i % 3], COMPOSED_BASES[i]),
                )
            )
    return agents


def _cycle_order(seed: int, cycle: int, n: int) -> list[int]:
    order = list(range(n))
    _rng(seed, "order", cycle).shuffle(order)
    return order


def _report_check(exact, u_spec: str, h_spec: str, sc, rel_floor: float = 0.0) -> bool:
    """The six exact premia, in oracle.PREMIA order, against the oracle."""
    ref = oracle.premia(u_spec, h_spec, *sc)
    return all(
        oracle.within(lib, *ref[name], rel_floor) for name, lib in zip(oracle.PREMIA, exact)
    )


def _report_exact(report) -> tuple:
    pairs = (report.pi, report.gamma, report.rho, report.lam, report.sigma, report.mu)
    return tuple(pair.exact for pair in pairs)


def _ladder_scenarios(u_spec: str) -> list[tuple[float, float, float, float]]:
    """Two wealth levels x three p0 x every eps decade, eps1 = eps2."""
    lo, hi = wealth_window(u_spec)
    out = []
    for x0 in (lo + 0.25 * (hi - lo), lo + 0.75 * (hi - lo)):
        for p0 in (0.3, 0.5, 0.7):
            for eps in EPS_LADDER:
                out.append((x0, p0, eps, min(eps, p0, 1.0 - p0)))
    return out


# Fixed agents of the accuracy ladder: every utility family and every
# weighting kind, independent of the seed.
LADDER_AGENTS = (
    ("cara:1", "power:2"),
    ("crra:2", "power:0.7@tk:0.61"),
    ("log", "prelec:0.65,1"),
    ("quadratic:0.1", "tk:0.61"),
    ("cara:2.5", "exp:1.5@prelec:0.65,1"),
    ("crra:0.5", "blend:0.5@power:0.6"),
)


class Workload:
    """One workload: set-up, per-operation inputs, the operation, its
    reference check, the signature used by the generator check, and the
    accuracy ladder."""

    name = ""
    # Operations per cycle; a timed run always ends on a whole cycle.
    cycle = 1
    # Operations after which the class mix repeats exactly (generator check).
    block = 1
    size = ""
    imports: tuple[str, ...] = ("riskpremia",)

    def specs(self, seed: int) -> list[tuple[str, str]]:
        """(utility, weighting) specs built during set-up."""
        raise NotImplementedError

    def setup(self, rp, seed: int):
        return {
            "seed": seed,
            "specs": self.specs(seed),
            "dms": [
                rp.DecisionMaker(rp.parse_utility(u), rp.parse_weighting(h))
                for u, h in self.specs(seed)
            ],
        }

    def op_input(self, ctx, i: int):
        raise NotImplementedError

    def prepare(self, inp):
        """The input in the form handed to the library, built outside the
        timed call; checks see op_input's form."""
        return inp

    def run(self, rp, ctx, inp):
        raise NotImplementedError

    def digest(self, out):
        """Compact form of an output kept for the check after the loop."""
        return out

    def check(self, ctx, inp, digest) -> bool:
        raise NotImplementedError

    def signature(self, ctx, inp):
        """Input class of an operation: families and sizes, not values."""
        raise NotImplementedError

    def serialize(self, ctx, inp) -> bytes:
        return repr(inp).encode()

    def ladder(self, rp) -> tuple[float, int]:
        """(worst relative error, values compared) on the fixed eps ladder."""
        raise NotImplementedError


class ReportStream(Workload):
    name = "report-stream"
    cycle = block = len(UTILITY_FAMILIES) * len(WEIGHTING_KINDS)
    size = "one premium_report per op"

    def specs(self, seed):
        return agent_grid(seed)

    def op_input(self, ctx, i):
        seed = ctx["seed"]
        agent = _cycle_order(seed, i // self.cycle, self.cycle)[i % self.cycle]
        return agent, _scenario(_rng(seed, "scenario", i), ctx["specs"][agent][0])

    def run(self, rp, ctx, inp):
        agent, sc = inp
        return rp.premium_report(ctx["dms"][agent], rp.Scenario(*sc))

    def digest(self, report):
        values = report.to_dict()
        numbers = [v for pair in values["premia"].values() for v in pair.values()]
        numbers += [values["ara"], values["dual_index"]]
        numbers += list(values["residuals"].values()) + list(values["link_deltas"].values())
        return _report_exact(report), all(math.isfinite(v) for v in numbers)

    def check(self, ctx, inp, digest):
        exact, finite = digest
        agent, sc = inp
        return finite and _report_check(exact, *ctx["specs"][agent], sc)

    def signature(self, ctx, inp):
        u, h = ctx["specs"][inp[0]]
        return (u.partition(":")[0], h.partition(":")[0], "@" in h)

    def ladder(self, rp):
        worst, n = 0.0, 0
        for u_spec, h_spec in LADDER_AGENTS:
            dm = rp.DecisionMaker(rp.parse_utility(u_spec), rp.parse_weighting(h_spec))
            for sc in _ladder_scenarios(u_spec):
                exact = _report_exact(rp.premium_report(dm, rp.Scenario(*sc)))
                ref = oracle.premia(u_spec, h_spec, *sc)
                for name, value in zip(oracle.PREMIA, exact):
                    if ref[name][0] != 0:
                        worst = max(worst, oracle.rel_err(value, ref[name][0]))
                        n += 1
        return worst, n


# Theorem-check pair kinds, in cycle order: (theorem, tk base, agent 2 is
# the more risk-averse one).  Agent 2 more averse means all five conditions
# hold; the reversed pair fails all five.
PAIR_KINDS = (
    ("t1", False, True),
    ("t1", False, False),
    ("t1", True, True),
    ("t1", True, False),
    ("t2", False, True),
    ("t2", False, False),
)
PAIRS_PER_KIND = 2
# (i), (ii), (iii), (iv), (v) grid sizes on the default grids.
T1_POINTS = (401, 27, 27, 399, 200)
T2_POINTS = (802, 243, 243, 798, 400)


def _averse_pair(rng: random.Random, theorem: str, tk_base: bool, j: int):
    """(more averse agent, reference agent) as (utility, weighting) specs."""
    base = weighting_spec(rng, "tk" if tk_base else ("prelec", "power")[j % 2])
    more = f"{transform_spec(rng, TRANSFORMS[rng.randrange(3)])}@{base}"
    if theorem == "t1":
        return ("linear", more), ("linear", base)
    if j % 2 == 0:
        a = rng.uniform(0.3, 1.5)
        u_ref, u_more = f"cara:{_num(a)}", f"cara:{_num(a * rng.uniform(1.3, 2.5))}"
    else:
        eta = rng.uniform(0.5, 2.0)
        u_ref, u_more = f"crra:{_num(eta)}", f"crra:{_num(eta + rng.uniform(0.5, 2.0))}"
    return (u_more, more), (u_ref, base)


class TheoremCheck(Workload):
    name = "theorem-check"
    cycle = len(PAIR_KINDS)
    block = len(PAIR_KINDS) * PAIRS_PER_KIND
    size = "one check_theorem1 or check_theorem2 on default grids per op"

    def pairs(self, seed):
        """[(kind index, agent 2 specs, agent 1 specs)] for every pair."""
        rng = _rng(seed, "pairs")
        out = []
        for k, (theorem, tk_base, holds) in enumerate(PAIR_KINDS):
            for j in range(PAIRS_PER_KIND):
                more, ref = _averse_pair(rng, theorem, tk_base, j)
                out.append((k, more, ref) if holds else (k, ref, more))
        return out

    def specs(self, seed):
        return [spec for _, a2, a1 in self.pairs(seed) for spec in (a2, a1)]

    def op_input(self, ctx, i):
        seed = ctx["seed"]
        kind = _cycle_order(seed, i // self.cycle, self.cycle)[i % self.cycle]
        return kind * PAIRS_PER_KIND + (i // self.cycle) % PAIRS_PER_KIND

    def run(self, rp, ctx, pair):
        dm2, dm1 = ctx["dms"][2 * pair], ctx["dms"][2 * pair + 1]
        if PAIR_KINDS[pair // PAIRS_PER_KIND][0] == "t1":
            return rp.check_theorem1(dm2.weighting, dm1.weighting)
        return rp.check_theorem2(dm2, dm1)

    def check(self, ctx, pair, report):
        theorem, _, holds = PAIR_KINDS[pair // PAIRS_PER_KIND]
        (u2, h2), (u1, h1) = ctx["specs"][2 * pair], ctx["specs"][2 * pair + 1]
        sizes = T1_POINTS if theorem == "t1" else T2_POINTS
        if report.consistent is not True or report.all_hold is not holds:
            return False
        if tuple(c.n_points for c in report.conditions) != sizes:
            return False
        for c in report.conditions:
            if c.holds is not holds or not math.isfinite(c.worst_margin):
                return False
            if not holds and not _witness_ok(c, (u2, h2), (u1, h1)):
                return False
        return True

    def signature(self, ctx, pair):
        (u2, h2), (u1, h1) = ctx["specs"][2 * pair], ctx["specs"][2 * pair + 1]
        return (PAIR_KINDS[pair // PAIRS_PER_KIND], u2.partition(":")[0], "tk" in h1 + h2)

    def serialize(self, ctx, pair):
        return repr((pair, ctx["specs"][2 * pair], ctx["specs"][2 * pair + 1])).encode()

    def ladder(self, rp):
        """Premium-dominance margins (conditions ii/iii) on single-scenario
        grids, through check_premium_dominance_dt and check_theorem2."""
        worst, n = 0.0, 0
        (u2, h2), (u1, h1) = ("cara:2", "power:0.7@tk:0.61"), ("cara:1", "tk:0.61")
        dm2 = rp.DecisionMaker(rp.parse_utility(u2), rp.parse_weighting(h2))
        dm1 = rp.DecisionMaker(rp.parse_utility(u1), rp.parse_weighting(h1))
        for x0, p0, eps1, eps2 in _ladder_scenarios(u1):
            ref2 = oracle.premia(u2, h2, x0, p0, eps1, eps2)
            ref1 = oracle.premia(u1, h1, x0, p0, eps1, eps2)
            ii, iii = rp.check_premium_dominance_dt(dm2.weighting, dm1.weighting, [(p0, eps2)])
            t2 = rp.check_theorem2(
                dm2, dm1, n_points=3, n_samples=1,
                scenario_grid=[rp.Scenario(x0, p0, eps1, eps2)],
            )
            pairs = ((ii, "rho"), (iii, "lambda"), (t2.conditions[1], "sigma"), (t2.conditions[2], "mu"))
            for cond, name in pairs:
                worst = max(worst, oracle.rel_err(cond.worst_margin, ref2[name][0] - ref1[name][0]))
                n += 1
        return worst, n


def _witness_ok(cond, agent2, agent1) -> bool:
    """Recompute a failing condition's witness with the oracle."""
    w = cond.witness
    if w is None:
        return False
    side = w.get("side", "weighting")
    if cond.condition == "i":
        make = oracle.utility if side == "utility" else oracle.weighting
        f2, f1 = make(agent2[side == "weighting"]), make(agent1[side == "weighting"])
        i2, i1 = oracle.index(f2, w["point"]), oracle.index(f1, w["point"])
        return i2 < i1 and math.isclose(w["index2"], i2, rel_tol=1e-6, abs_tol=1e-9)
    if cond.condition in ("ii", "iii"):
        names = ("rho", "lambda") if "rho2" in w or "lambda2" in w else ("sigma", "mu")
        name = names[cond.condition == "iii"]
        x0, eps1 = w.get("x0", 0.0), w.get("eps1", 0.1)
        ref2 = oracle.premia(*agent2, x0, w["p0"], eps1, w["eps2"])[name]
        ref1 = oracle.premia(*agent1, x0, w["p0"], eps1, w["eps2"])[name]
        return (
            oracle.within(w[name + "2"], *ref2)
            and oracle.within(w[name + "1"], *ref1)
            and ref2[0] < ref1[0]
        )
    if cond.condition == "iv":
        return w["second_diff"] > cond.slack
    make = oracle.utility if side == "utility" else oracle.weighting
    f2, f1 = make(agent2[side == "weighting"]), make(agent1[side == "weighting"])

    def ratio(f):
        v = [f.value(oracle.MP.mpf(w[k])) for k in "pqrs"]
        return float((v[3] - v[2]) / (v[1] - v[0]))

    r2, r1 = ratio(f2), ratio(f1)
    return r2 > r1 and math.isclose(w["ratio2"], r2, rel_tol=1e-8)


SWEEP_AXES = ("eps1", "eps2", "p0", "x0")
SWEEP_POINTS = 2000
# Closed-form weightings only: the per-report cost of a sweep then stays in
# one class, so a handful of 2000-point sweeps gives a steady median.
SWEEP_WEIGHTINGS = ("power", "prelec")


class CliSweep(Workload):
    name = "cli-sweep"
    cycle = 1
    block = len(UTILITY_FAMILIES) * len(SWEEP_WEIGHTINGS)
    size = f"one {SWEEP_POINTS}-point sweep per op"
    imports = ("riskpremia", "riskpremia.cli")

    def specs(self, seed):
        rng = _rng(seed, "sweep-agents")
        return [
            (utility_spec(rng, family), weighting_spec(rng, kind))
            for family in UTILITY_FAMILIES
            for kind in SWEEP_WEIGHTINGS
        ]

    def setup(self, rp, seed):
        ctx = super().setup(rp, seed)
        import riskpremia.cli

        ctx["main"] = riskpremia.cli.main
        return ctx

    def op_input(self, ctx, i):
        seed = ctx["seed"]
        rng = _rng(seed, "sweep", i)
        u_spec, h_spec = ctx["specs"][_cycle_order(seed, i // self.block, self.block)[i % self.block]]
        axis = rng.choice(SWEEP_AXES)
        # alternate formats from a seeded start: every run holds both
        fmt = ("csv", "json")[(i + _rng(seed, "format").randrange(2)) % 2]
        lo, hi = wealth_window(u_spec)
        base = {
            "x0": rng.uniform(lo, hi),
            "p0": rng.uniform(0.2, 0.8),
            "eps1": _log_uniform(rng, 1e-3, EPS_MAX),
            "eps2": _log_uniform(rng, 1e-3, 0.2),
        }
        if axis == "eps1":
            start, stop = _log_uniform(rng, EPS_MIN, 1e-3), rng.uniform(0.2, EPS_MAX)
        elif axis == "eps2":
            band = min(base["p0"], 1.0 - base["p0"])
            start, stop = _log_uniform(rng, EPS_MIN, 1e-3), band * rng.uniform(0.5, 1.0)
        elif axis == "p0":
            e2 = base["eps2"]
            start, stop = rng.uniform(e2 + 1e-3, 0.3), rng.uniform(0.7, 1.0 - e2 - 1e-3)
        else:
            mid = 0.5 * (lo + hi)
            start, stop = rng.uniform(lo, mid), rng.uniform(mid, hi)
        base[axis] = start
        argv = ["sweep", "--axis", axis, "--start", repr(start), "--stop", repr(stop),
                "--num", str(SWEEP_POINTS), "--utility", u_spec, "--weighting", h_spec,
                "--format", fmt]
        for key, value in base.items():
            if key != axis:
                argv += ["--" + key, repr(value)]
        return argv

    def run(self, rp, ctx, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ctx["main"](argv)
        return code, buf.getvalue()

    def digest(self, out):
        """The output table as a float array, parsed back from csv or json."""
        code, text = out
        if code != 0:
            return None
        if text.startswith("["):
            rows = json.loads(text)
            return np.array([[float(r[k]) for k in rows[0]] for r in rows])
        return np.array([[float(v) for v in line.split(",")] for line in text.splitlines()[1:]])

    def check(self, ctx, argv, rows):
        if rows is None or len(rows) != SWEEP_POINTS:
            return False
        opt = dict(zip(argv[1::2], argv[2::2]))
        u_spec, h_spec, axis = opt["--utility"], opt["--weighting"], opt["--axis"]
        start, stop = float(opt["--start"]), float(opt["--stop"])
        step = (stop - start) / (SWEEP_POINTS - 1)
        base = {k: float(opt.get("--" + k, 0.0)) for k in ("x0", "p0", "eps1", "eps2")}
        for i, row in enumerate(rows.tolist()):
            base[axis] = start + i * step
            sc = (base["x0"], base["p0"], base["eps1"], base["eps2"])
            if not all(math.isclose(a, b, rel_tol=CLI_ROUNDING, abs_tol=1e-300) for a, b in zip(row[:4], sc)):
                return False
            if not (all(math.isfinite(v) for v in row)
                    and _report_check(row[4:16:2], u_spec, h_spec, sc, CLI_ROUNDING)):
                return False
        return True

    def signature(self, ctx, argv):
        opt = dict(zip(argv[1::2], argv[2::2]))
        return (opt["--utility"].partition(":")[0], opt["--weighting"].partition(":")[0],
                int(opt["--num"]))

    def ladder(self, rp):
        import riskpremia.cli

        ctx = {"main": riskpremia.cli.main}
        worst, n = 0.0, 0
        values = ",".join(repr(e) for e in EPS_LADDER)
        for u_spec, h_spec in LADDER_AGENTS:
            x0 = sum(wealth_window(u_spec)) / 2
            for axis in ("eps1", "eps2"):
                argv = ["sweep", "--axis", axis, "--values", values, "--utility", u_spec,
                        "--weighting", h_spec, "--x0", repr(x0), "--p0", "0.5",
                        "--eps1", "0.1", "--eps2", "0.1", "--format", "csv"]
                for row in self.digest(self.run(rp, ctx, argv)).tolist():
                    ref = oracle.premia(u_spec, h_spec, *row[:4])
                    for name, value in zip(oracle.PREMIA, row[4:16:2]):
                        if ref[name][0] != 0:
                            worst = max(worst, oracle.rel_err(value, ref[name][0]))
                            n += 1
        return worst, n


LOTTERY_SIZES = (10, 100, 1_000, 10_000, 100_000)
# Probabilities are multiples of 2**-40 summing exactly to 1, so every
# partial sum is exact and the library's sum-to-one check always passes.
PROB_BITS = 40


def lottery_states(seed: int, i: int, u_spec: str, n: int):
    """(payoffs, probabilities) as numpy arrays for operation i."""
    rng = np.random.default_rng([seed, i])
    lo, hi = wealth_window(u_spec)
    xs = rng.uniform(lo - 0.5, hi + 0.5, n)
    w = rng.exponential(size=n)
    k = np.floor(w / w.sum() * (2**PROB_BITS - n)).astype(np.int64) + 1
    k[-1] += 2**PROB_BITS - k.sum()
    return xs, k / 2.0**PROB_BITS


class LotteryEval(Workload):
    name = "lottery-eval"
    cycle = len(LOTTERY_SIZES)
    block = len(UTILITY_FAMILIES) * len(WEIGHTING_KINDS)
    size = "one Lottery of 10 to 1e5 states built and evaluated three ways per op"

    def specs(self, seed):
        return agent_grid(seed)

    def op_input(self, ctx, i):
        seed = ctx["seed"]
        agent = _cycle_order(seed, i // self.block, self.block)[i % self.block]
        n = LOTTERY_SIZES[_cycle_order(seed, i // self.cycle, self.cycle)[i % self.cycle]]
        xs, ps = lottery_states(seed, i, ctx["specs"][agent][0], n)
        return agent, xs, ps

    def prepare(self, inp):
        agent, xs, ps = inp
        return agent, tuple(zip(xs.tolist(), ps.tolist()))

    def run(self, rp, ctx, inp):
        agent, states = inp
        dm = ctx["dms"][agent]
        lottery = rp.Lottery(states)
        return (
            rp.evaluate_rdu(dm, lottery),
            rp.evaluate_dual_form(dm, lottery),
            rp.certainty_equivalent(dm, lottery),
        )

    def check(self, ctx, inp, out):
        agent, xs, ps = inp
        u_spec, h_spec = ctx["specs"][agent]
        value, scale = oracle.lottery_ld(u_spec, h_spec, xs, ps)
        ce, inv_slope = oracle.certainty_equivalent(u_spec, float(value))
        rdu, dual, ce_lib = out
        return (
            oracle.within(rdu, value, scale)
            and oracle.within(dual, value, 2.0 * scale)
            and oracle.within(ce_lib, ce, scale * inv_slope + abs(float(ce)))
        )

    def signature(self, ctx, inp):
        agent, xs, _ = inp
        u, h = ctx["specs"][agent]
        return (u.partition(":")[0], h.partition(":")[0], len(xs))

    def serialize(self, ctx, inp):
        agent, xs, ps = inp
        return repr(agent).encode() + xs.tobytes() + ps.tobytes()

    def ladder(self, rp):
        """Symmetric two-state risks x0 +- eps: the RDU value and the risk
        premium x0 - CE implied by the certainty equivalent."""
        worst, n = 0.0, 0
        for u_spec, h_spec in LADDER_AGENTS:
            dm = rp.DecisionMaker(rp.parse_utility(u_spec), rp.parse_weighting(h_spec))
            for x0, p0, eps, _ in _ladder_scenarios(u_spec):
                states = ((x0 - eps, p0), (x0 + eps, 1.0 - p0))
                lottery = rp.Lottery(states)
                value, ce = oracle.lottery(u_spec, h_spec, states)
                rdu = rp.evaluate_rdu(dm, lottery)
                ce_lib = rp.certainty_equivalent(dm, lottery)
                worst = max(worst, oracle.rel_err(rdu, value))
                premium = oracle.MP.mpf(x0) - ce
                if premium != 0:
                    lib_premium = oracle.MP.mpf(x0) - oracle.MP.mpf(ce_lib)
                    worst = max(worst, float(abs((lib_premium - premium) / premium)))
                n += 2
        return worst, n


WORKLOADS = {w.name: w for w in (ReportStream(), TheoremCheck(), CliSweep(), LotteryEval())}
