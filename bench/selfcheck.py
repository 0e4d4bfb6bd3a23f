"""Checks of the benchmark itself, run at the end of every benchmark run.

oracle_closed_forms(): the mpmath oracle against closed forms it does not
use, and its extended-precision lottery path against its 50-digit one.
generator(): one seed gives byte-identical inputs; the next seed gives
different inputs with the same class mix: each field of the operations'
signatures (families, pair kinds, sizes) has the same distribution.

Run on its own for every workload: python3 bench/selfcheck.py [seed]
"""

from __future__ import annotations

import sys
from collections import Counter

import oracle
from workloads import WORKLOADS, lottery_states

MP = oracle.MP
TOL = MP.mpf(10) ** -40


def oracle_closed_forms() -> list[str]:
    problems = []

    def close(label, got, want, tol=TOL):
        if not abs(got - want) <= tol * max(1, abs(want)):
            problems.append(f"oracle {label}: {MP.nstr(got, 20)} != {MP.nstr(want, 20)}")

    for a, x0, e in ((1.0, 0.0, 0.1), (2.5, -1.3, 1e-5), (0.3, 0.7, 0.5)):
        ref = oracle.premia(f"cara:{a!r}", "identity", x0, 0.5, e, 0.1)
        A, E = MP.mpf(a), MP.mpf(e)
        close(f"cara:{a} pi", ref["pi"][0], MP.log(MP.cosh(A * E)) / A)
        close(f"cara:{a} gamma", ref["gamma"][0], MP.tanh(A * E / 2) / 2)
    for x0, e in ((2.0, 0.1), (1.0, 1e-6)):
        X, E = MP.mpf(x0), MP.mpf(e)
        close("log pi", oracle.premia("log", "identity", x0, 0.5, e, 0.1)["pi"][0],
              X - MP.sqrt(X * X - E * E))
        close("crra:2 pi", oracle.premia("crra:2", "identity", x0, 0.5, e, 0.1)["pi"][0], E * E / X)
    for p0, e in ((0.5, 0.25), (0.3, 1e-6), (0.9, 0.1)):
        P, E = MP.mpf(p0), MP.mpf(e)
        ref = oracle.premia("linear", "power:2", 0.0, p0, 0.1, e)
        close("power:2 rho", ref["rho"][0], -E / (4 * P))
        close("power:2 lambda", ref["lambda"][0], P - MP.sqrt(P * P + E * E))
        close("linear sigma = 2 eps1 rho", ref["sigma"][0], 2 * MP.mpf(0.1) * ref["rho"][0])
        ref = oracle.premia("cara:1", "identity", 0.0, p0, 0.1, e)
        close("identity mu = 2 eps2 gamma", ref["mu"][0], 2 * E * ref["gamma"][0])
        close("identity rho", ref["rho"][0], 0)
    for spec in ("tk:0.61", "tk:0.35", "power:0.7@tk:0.61", "exp:2@prelec:0.65,1", "blend:0.3@power:0.5"):
        h = oracle.weighting(spec)
        for q in ("1e-9", "0.2", "0.5", "0.999"):
            close(f"{spec} inverse", h.value(h.inverse(MP.mpf(q))), MP.mpf(q))
    close("cara:2 index", MP.mpf(oracle.index(oracle.utility("cara:2"), 0.3)), 2, 1e-12)
    close("power:0.5 index", MP.mpf(oracle.index(oracle.weighting("power:0.5"), 0.25)), 2, 1e-12)

    states = ((-1.0, 0.25), (0.5, 0.5), (2.0, 0.25))
    value, ce = oracle.lottery("linear", "identity", states)
    close("linear/identity lottery value", value, MP.mpf(0.5))
    value, ce = oracle.lottery("cara:1", "power:2", ((0.3, 0.75), (-0.4, 0.25)))
    want = MP.mpf(0.25) ** 2 * -MP.exp(0.4) + (1 - MP.mpf(0.25) ** 2) * -MP.exp(-0.3)
    close("cara/power lottery value", value, want)
    close("degenerate certainty equivalent", oracle.lottery("crra:3", "tk:0.6", ((1.7, 1.0),))[1], MP.mpf(1.7))

    for u_spec, h_spec in (("crra:2", "power:0.7@tk:0.61"), ("quadratic:0.1", "prelec:0.65,1")):
        xs, ps = lottery_states(0, 0, u_spec, 300)
        mp_value, _ = oracle.lottery(u_spec, h_spec, zip(xs.tolist(), ps.tolist()))
        ld_value, _ = oracle.lottery_ld(u_spec, h_spec, xs, ps)
        close(f"{u_spec}/{h_spec} extended-precision lottery", MP.mpf(float(ld_value)), mp_value, 1e-15)
    return problems


def generator(wl, seed: int) -> list[str]:
    def inputs(s):
        ctx = {"seed": s, "specs": wl.specs(s)}
        ops = [wl.op_input(ctx, i) for i in range(wl.block)]
        data = repr(ctx["specs"]).encode() + b"".join(wl.serialize(ctx, op) for op in ops)
        signatures = [wl.signature(ctx, op) for op in ops]
        return data, [Counter(column) for column in zip(*signatures)]

    first, mix = inputs(seed)
    again, _ = inputs(seed)
    other, other_mix = inputs(seed + 1)
    problems = []
    if first != again:
        problems.append(f"{wl.name}: seed {seed} gave different inputs twice")
    if first == other:
        problems.append(f"{wl.name}: seeds {seed} and {seed + 1} gave the same inputs")
    if mix != other_mix:
        problems.append(f"{wl.name}: seeds {seed} and {seed + 1} gave different input mixes")
    return problems


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    found = oracle_closed_forms()
    for wl in WORKLOADS.values():
        found += generator(wl, seed)
    print("\n".join(found) or "oracle and generators: ok")
    sys.exit(1 if found else 0)
