"""Shared test helpers: independent oracles and randomized family pools.

The bisection oracle here deliberately avoids the package's own root
finder and inverse formulas; it evaluates only the forward functions, so
it stays an independent check on every exact premium.
"""

import math
from fractions import Fraction

import numpy as np

from riskpremia import (
    BlendTransform,
    CaraUtility,
    CrraUtility,
    DecisionMaker,
    ExpTransform,
    IdentityWeighting,
    LinearUtility,
    LogUtility,
    PowerTransform,
    PowerWeighting,
    PrelecWeighting,
    QuadraticUtility,
    Scenario,
    TkWeighting,
    concavify,
)


def bisect_root(f, lo, hi, iters=200):
    """Plain bisection on a sign-change bracket; no package code involved."""
    flo = f(lo)
    fhi = f(hi)
    assert (flo > 0.0) != (fhi > 0.0), "oracle bracket must straddle a sign change"
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ulp_error(got: float, reference: str) -> float:
    """|got - reference| in ulps of the reference rounded to a double.  The
    reference is a decimal string, compared exactly, so no mpmath is needed."""
    ref = Fraction(reference)
    return float(abs(Fraction(got) - ref) / Fraction(math.ulp(float(ref))))


def central_diff(f, x, step):
    return (f(x + step) - f(x - step)) / (2.0 * step)


def richardson_diff(f, x, step):
    """Central difference sharpened by one Richardson step (error O(step^4));
    needed where the plain quotient's truncation would exceed 1e-5 relative."""
    coarse = central_diff(f, x, step)
    fine = central_diff(f, x, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


def random_utility(rng, concave_only=False):
    kinds = ["linear", "cara", "crra", "log", "quadratic"]
    if concave_only:
        kinds = ["cara", "crra", "log", "quadratic"]
    kind = kinds[rng.integers(len(kinds))]
    if kind == "linear":
        return LinearUtility()
    if kind == "cara":
        return CaraUtility(a=rng.uniform(0.2, 3.0))
    if kind == "crra":
        eta = rng.uniform(0.3, 4.0)
        return CrraUtility(eta=eta)
    if kind == "log":
        return LogUtility()
    return QuadraticUtility(b=rng.uniform(0.05, 0.5))


def random_transform(rng):
    kind = rng.integers(3)
    if kind == 0:
        return PowerTransform(kappa=rng.uniform(0.3, 0.95))
    if kind == 1:
        return ExpTransform(a=rng.uniform(0.3, 3.0))
    return BlendTransform(w=rng.uniform(0.2, 1.0))


def random_weighting(rng, allow_composed=True):
    kinds = ["identity", "power", "prelec", "tk"]
    if allow_composed:
        kinds.append("composed")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "identity":
        return IdentityWeighting()
    if kind == "power":
        return PowerWeighting(theta=rng.uniform(0.3, 3.0))
    if kind == "prelec":
        return PrelecWeighting(alpha=rng.uniform(0.4, 2.0), beta=rng.uniform(0.4, 2.0))
    if kind == "tk":
        return TkWeighting(gamma=rng.uniform(0.3, 1.5))
    base = random_weighting(rng, allow_composed=False)
    return concavify(base, random_transform(rng))


def random_scenario(rng, utility):
    p0 = rng.uniform(0.05, 0.95)
    eps2 = rng.uniform(0.1, 1.0) * min(p0, 1.0 - p0)
    eps1 = rng.uniform(0.01, 0.5)
    lo, hi = utility.domain
    if np.isinf(lo) and np.isinf(hi):
        x0 = rng.uniform(-2.0, 3.0)
    elif np.isinf(hi):
        x0 = lo + rng.uniform(0.6, 4.0)
    else:
        x0 = hi - rng.uniform(0.6, 4.0)
    return Scenario(x0=float(x0), p0=float(p0), eps1=float(eps1), eps2=float(eps2))


def random_dm(rng, concave_only=False):
    return DecisionMaker(
        random_utility(rng, concave_only=concave_only),
        random_weighting(rng),
    )
