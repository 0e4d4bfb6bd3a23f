"""Exact and second-order approximate risk and probability premia.

Six premia are computed for a decision maker (U, h) facing the small
binary symmetric risk parameterized by a Scenario (x0, p0, eps1, eps2):

  under expected utility (payoff risk +-eps1 at probability 1/2 each):
    pi     solves  U(x0 - pi) = (U(x0-eps1) + U(x0+eps1)) / 2
    gamma  solves  U(x0) = (1/2-gamma) U(x0-eps1) + (1/2+gamma) U(x0+eps1)

  under the dual theory (payoff +-1/2 at small probability eps2 each,
  attached to a middle state of mass 2*eps2):
    rho    = [ (h(p0)-h(p0-eps2)) - (h(p0+eps2)-h(p0)) ]
             / [ 2 (h(p0+eps2)-h(p0-eps2)) ]
    lambda solves  2 h(p0-lambda) = h(p0-eps2) + h(p0+eps2)

  under rank-dependent utility (payoff +-eps1 at probability eps2 each):
    sigma  solves  (h(p0+eps2)-h(p0-eps2)) U(x0-sigma)
                   = (h(p0)-h(p0-eps2)) U(x0-eps1)
                   + (h(p0+eps2)-h(p0)) U(x0+eps1)
    mu     solves the same with the wealth shift replaced by a probability
           shift from the unfavorable to the favorable payoff.

The outer low/high states of the three-state construction cancel from the
indifference equations, so the premia depend on (x0, p0, eps1, eps2) only.

Second-order Taylor approximations are linear combinations of the two
local curvature indexes A = -U''(x0)/U'(x0) and D = -h''(p0)/h'(p0):

    pi~ = eps1^2 A / 2        gamma~ = eps1 A / 4
    rho~ = eps2 D / 4         lambda~ = eps2^2 D / 2
    sigma~ = eps1 eps2 D / 2 + eps1^2 A / 2
    mu~    = eps2^2 D / 2 + eps1 eps2 A / 2

so the identities pi~ = 2 eps1 gamma~, lambda~ = 2 eps2 rho~,
sigma~ = pi~ + 2 eps1 rho~, mu~ = 2 eps2 gamma~ + lambda~, and
sigma~ = (eps1/eps2) mu~ hold to rounding; premium_report records the
realized deltas alongside the exact solutions' residuals.

The exact rho, lambda, sigma and mu have private array forms (_rho,
_lambda, _sigma, _mu) that solve a whole grid of scenarios in one pass;
the public scalar kernels run them on a one-point grid.  Forward values
go through the array path of value().  A grid is inverted in one
inverse() call, utilities and weightings alike: one numpy formula for a
closed form, one elementwise Newton iteration for tk.  A one-point grid
runs the same arithmetic without masks, so an inverse, and with it a
premium, has the same bits at every grid size.

PREMIA lists the six premia once, in report order (pi, gamma, rho,
lambda, sigma, mu): for each, its exact and approximate kernel on a
(DecisionMaker, Scenario), the epsilon a convergence study halves, and
the error scale that study divides by.  premium_report and the CLI read
every premium listing from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateError, DomainError, InfeasibleError, RangeError
from .evalcore import DecisionMaker
from .funclib import UtilityFn, WeightingFn


@dataclass(frozen=True)
class Scenario:
    """Parameters of the small-risk construction.

    Requires 0 < p0 < 1, eps1 > 0, and 0 < eps2 <= min(p0, 1-p0); payoff
    feasibility (x0 +- eps1 inside the utility domain) is checked by the
    operations that evaluate the utility.
    """

    x0: float
    p0: float
    eps1: float
    eps2: float

    def __post_init__(self):
        for name in ("x0", "p0", "eps1", "eps2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"scenario field {name} must be finite")
        if not 0.0 < self.p0 < 1.0:
            raise DomainError(f"p0={self.p0:g} must lie in (0, 1)")
        if not self.eps1 > 0.0:
            raise DomainError(f"eps1={self.eps1:g} must be positive")
        band = min(self.p0, 1.0 - self.p0)
        if not 0.0 < self.eps2 <= band:
            raise DomainError(
                f"eps2={self.eps2:g} must lie in (0, min(p0, 1-p0)] = (0, {band:g}]"
            )


class PremiumPair(NamedTuple):
    exact: float
    approx: float


def _at_point(kernel, agent, *point: float) -> float:
    """Scalar form of an array kernel: the kernel on a one-point grid."""
    return float(kernel(agent, *(np.array([v], dtype=float) for v in point))[0])


def _divide(num, den):
    """num / den, raising DegenerateError wherever a denominator is zero (a
    spread below rounding width), instead of numpy's inf and warning."""
    if not np.all(den):
        raise DegenerateError("spread vanished below rounding width; cannot divide by it")
    return num / den


def _check_shift_band(name: str, shift: np.ndarray, eps2: np.ndarray) -> None:
    bad = np.abs(shift) > eps2 * (1.0 + 1e-9) + 1e-15
    if bad.any():
        value = float(shift[int(np.argmax(bad))])
        raise InfeasibleError(
            f"{name}={value:g} leaves the admissible shift band [-eps2, eps2]"
        )


# ---------------------------------------------------------------------------
# Expected utility: payoff risk
# ---------------------------------------------------------------------------


def eu_risk_premium_exact(u: UtilityFn, x0: float, eps1: float) -> float:
    """Wealth reduction restoring indifference: x0 - U^{-1} of the mean
    ex-post utility."""
    if not eps1 > 0.0:
        raise DomainError("eps1 must be positive")
    mean = 0.5 * (u.value(x0 - eps1) + u.value(x0 + eps1))
    lo, hi = u.codomain
    if not lo < mean < hi:  # cannot occur for continuous U; guarded anyway
        raise RangeError("mean ex-post utility left the utility range")
    return x0 - u.inverse(mean)


def eu_risk_premium_approx(u: UtilityFn, x0: float, eps1: float) -> float:
    """Second-order approximation eps1^2/2 times the curvature index."""
    return 0.5 * eps1 * eps1 * (-u.d2(x0) / u.d1(x0))


def eu_probability_premium_exact(u: UtilityFn, x0: float, eps1: float) -> float:
    """Probability shift toward the favorable payoff restoring indifference
    with certain wealth x0; closed form, always in (-1/2, 1/2)."""
    if not eps1 > 0.0:
        raise DomainError("eps1 must be positive")
    u_lo = u.value(x0 - eps1)
    u_hi = u.value(x0 + eps1)
    spread = u_hi - u_lo
    if not spread > 0.0:  # U' > 0 prevents this; guarded anyway
        raise DegenerateError("utility spread degenerated; cannot solve for gamma")
    return (u.value(x0) - 0.5 * (u_lo + u_hi)) / spread


def eu_probability_premium_approx(u: UtilityFn, x0: float, eps1: float) -> float:
    return 0.25 * eps1 * (-u.d2(x0) / u.d1(x0))


# ---------------------------------------------------------------------------
# Dual theory: probability risk
# ---------------------------------------------------------------------------


def _check_dt_points(p0: np.ndarray, eps2: np.ndarray) -> None:
    """Reject the first (p0, eps2) point outside 0 < eps2 <= min(p0, 1-p0);
    the band is empty, so the point is rejected, whenever p0 is outside (0, 1)."""
    ok = (0.0 < eps2) & (eps2 <= np.minimum(p0, 1.0 - p0))
    if ok.all():
        return
    i = int(np.argmin(ok))
    p, e = float(p0[i]), float(eps2[i])
    if not 0.0 < p < 1.0:
        raise DomainError(f"p0={p:g} must lie in (0, 1)")
    raise DomainError(f"eps2={e:g} must lie in (0, min(p0, 1-p0)] for p0={p:g}")


def _rho(h: WeightingFn, p0: np.ndarray, eps2: np.ndarray) -> np.ndarray:
    _check_dt_points(p0, eps2)
    h_lo, h_mid, h_hi = h.value(p0 - eps2), h.value(p0), h.value(p0 + eps2)
    return _divide(0.5 * ((h_mid - h_lo) - (h_hi - h_mid)), h_hi - h_lo)


def _lambda(h: WeightingFn, p0: np.ndarray, eps2: np.ndarray) -> np.ndarray:
    _check_dt_points(p0, eps2)
    lam = p0 - h.inverse(0.5 * (h.value(p0 - eps2) + h.value(p0 + eps2)))
    # monotone h keeps the midpoint inside the band; guarded anyway
    _check_shift_band("lambda", lam, eps2)
    return lam


def dt_risk_premium_exact(h: WeightingFn, p0: float, eps2: float) -> float:
    """Wealth reduction in the middle state restoring indifference; explicit
    in the three weighting values at p0 and p0 +- eps2."""
    return _at_point(_rho, h, p0, eps2)


def dt_risk_premium_approx(h: WeightingFn, p0: float, eps2: float) -> float:
    return 0.25 * eps2 * (-h.d2(p0) / h.d1(p0))


def dt_probability_premium_exact(h: WeightingFn, p0: float, eps2: float) -> float:
    """Probability shift solving 2 h(p0-lambda) = h(p0-eps2) + h(p0+eps2)."""
    return _at_point(_lambda, h, p0, eps2)


def dt_probability_premium_approx(h: WeightingFn, p0: float, eps2: float) -> float:
    return 0.5 * eps2 * eps2 * (-h.d2(p0) / h.d1(p0))


# ---------------------------------------------------------------------------
# Rank-dependent utility: joint payoff and probability risk
# ---------------------------------------------------------------------------


def _decision_weights(h: WeightingFn, p0, eps2):
    """(w_lo, w_hi): normalized weights on x0 -+ eps1."""
    h_lo, h_mid, h_hi = h.value(p0 - eps2), h.value(p0), h.value(p0 + eps2)
    spread = h_hi - h_lo
    return _divide(h_mid - h_lo, spread), _divide(h_hi - h_mid, spread)


def _sigma(dm: DecisionMaker, x0, p0, eps1, eps2) -> np.ndarray:
    w_lo, w_hi = _decision_weights(dm.weighting, p0, eps2)
    u = dm.utility
    mean = w_lo * u.value(x0 - eps1) + w_hi * u.value(x0 + eps1)
    lo, hi = u.codomain
    if not ((lo < mean) & (mean < hi)).all():
        # convex combination of attained values; guarded anyway
        raise RangeError("decision-weighted utility left the utility range")
    return x0 - u.inverse(mean)


def _mu(dm: DecisionMaker, x0, p0, eps1, eps2) -> np.ndarray:
    h, u = dm.weighting, dm.utility
    h_lo = h.value(p0 - eps2)
    h_hi = h.value(p0 + eps2)
    u_lo = u.value(x0 - eps1)
    u_mid = u.value(x0)
    u_hi = u.value(x0 + eps1)
    spread = u_hi - u_lo
    if not (spread > 0.0).all():
        raise DegenerateError("utility spread degenerated; cannot solve for mu")
    target = (h_hi * (u_hi - u_mid) + h_lo * (u_mid - u_lo)) / spread
    if not ((np.minimum(h_lo, h_hi) <= target) & (target <= np.maximum(h_lo, h_hi))).all():
        # convex combination of h_lo and h_hi; guarded anyway
        raise InfeasibleError(
            "probability shift target left [h(p0-eps2), h(p0+eps2)]"
        )
    mu = p0 - h.inverse(target)
    _check_shift_band("mu", mu, eps2)
    return mu


def rdu_risk_premium_exact(dm: DecisionMaker, sc: Scenario) -> float:
    """Solve the rank-dependent indifference equation for the wealth
    reduction sigma; always inside (-eps1, eps1)."""
    return _at_point(_sigma, dm, sc.x0, sc.p0, sc.eps1, sc.eps2)


def rdu_risk_premium_approx(dm: DecisionMaker, sc: Scenario) -> float:
    ara, dual_index = local_indexes(dm, sc.x0, sc.p0)
    return 0.5 * sc.eps1 * sc.eps2 * dual_index + 0.5 * sc.eps1 * sc.eps1 * ara


def rdu_probability_premium_exact(dm: DecisionMaker, sc: Scenario) -> float:
    """Solve for the probability shift mu from the unfavorable to the
    favorable payoff; the shifted split point p0 - mu stays inside
    [p0 - eps2, p0 + eps2]."""
    return _at_point(_mu, dm, sc.x0, sc.p0, sc.eps1, sc.eps2)


def rdu_probability_premium_approx(dm: DecisionMaker, sc: Scenario) -> float:
    ara, dual_index = local_indexes(dm, sc.x0, sc.p0)
    return 0.5 * sc.eps2 * sc.eps2 * dual_index + 0.5 * sc.eps1 * sc.eps2 * ara


def local_indexes(dm: DecisionMaker, x0: float, p0: float) -> tuple[float, float]:
    """(-U''/U' at x0, -h''/h' at p0): the primal and dual curvature indexes."""
    u, h = dm.utility, dm.weighting
    return -u.d2(x0) / u.d1(x0), -h.d2(p0) / h.d1(p0)


# ---------------------------------------------------------------------------
# Sensitivities of the exact premia (total-differential forms)
# ---------------------------------------------------------------------------


def sensitivity_sigma_eps1(dm: DecisionMaker, sc: Scenario, sigma: float) -> float:
    """d(sigma)/d(eps1) at a solution sigma of the risk-premium equation."""
    w_lo, w_hi = _decision_weights(dm.weighting, sc.p0, sc.eps2)
    u = dm.utility
    num = w_lo * u.d1(sc.x0 - sc.eps1) - w_hi * u.d1(sc.x0 + sc.eps1)
    return num / u.d1(sc.x0 - sigma)


def sensitivity_mu_eps2(dm: DecisionMaker, sc: Scenario, mu: float) -> float:
    """d(mu)/d(eps2) at a solution mu of the probability-premium equation."""
    h, u = dm.weighting, dm.utility
    u_lo = u.value(sc.x0 - sc.eps1)
    u_mid = u.value(sc.x0)
    u_hi = u.value(sc.x0 + sc.eps1)
    spread = u_hi - u_lo
    v_lo = (u_mid - u_lo) / spread
    v_hi = (u_hi - u_mid) / spread
    num = v_lo * h.d1(sc.p0 - sc.eps2) - v_hi * h.d1(sc.p0 + sc.eps2)
    return num / h.d1(sc.p0 - mu)


# ---------------------------------------------------------------------------
# The premium table and the assembled report
# ---------------------------------------------------------------------------


class Premium(NamedTuple):
    """One premium: exact and approximate kernels on (dm, sc), the epsilon
    its convergence study halves, and the scale its error is divided by."""

    exact: Callable[[DecisionMaker, Scenario], float]
    approx: Callable[[DecisionMaker, Scenario], float]
    axis: str
    error_scale: Callable[[Scenario], float]


# Entries call the kernels through their module-level names, so a kernel
# replaced on the module (e.g. wrapped for tracing) is the one that runs.
PREMIA: dict[str, Premium] = {
    "pi": Premium(
        lambda dm, sc: eu_risk_premium_exact(dm.utility, sc.x0, sc.eps1),
        lambda dm, sc: eu_risk_premium_approx(dm.utility, sc.x0, sc.eps1),
        "eps1", lambda sc: sc.eps1**2,
    ),
    "gamma": Premium(
        lambda dm, sc: eu_probability_premium_exact(dm.utility, sc.x0, sc.eps1),
        lambda dm, sc: eu_probability_premium_approx(dm.utility, sc.x0, sc.eps1),
        "eps1", lambda sc: sc.eps1,
    ),
    "rho": Premium(
        lambda dm, sc: dt_risk_premium_exact(dm.weighting, sc.p0, sc.eps2),
        lambda dm, sc: dt_risk_premium_approx(dm.weighting, sc.p0, sc.eps2),
        "eps2", lambda sc: sc.eps2,
    ),
    "lambda": Premium(
        lambda dm, sc: dt_probability_premium_exact(dm.weighting, sc.p0, sc.eps2),
        lambda dm, sc: dt_probability_premium_approx(dm.weighting, sc.p0, sc.eps2),
        "eps2", lambda sc: sc.eps2**2,
    ),
    "sigma": Premium(
        lambda dm, sc: rdu_risk_premium_exact(dm, sc),
        lambda dm, sc: rdu_risk_premium_approx(dm, sc),
        "eps1", lambda sc: sc.eps1 * (sc.eps1 + sc.eps2),
    ),
    "mu": Premium(
        lambda dm, sc: rdu_probability_premium_exact(dm, sc),
        lambda dm, sc: rdu_probability_premium_approx(dm, sc),
        "eps2", lambda sc: sc.eps2 * (sc.eps1 + sc.eps2),
    ),
}


def _field(name: str) -> str:
    """PremiumReport's field for a premium (lambda is a Python keyword)."""
    return "lam" if name == "lambda" else name


@dataclass(frozen=True)
class PremiumReport:
    """All six premia (exact, approx), both curvature indexes, the
    indifference-equation residuals of the exact values, and the realized
    deltas of the approximation link identities."""

    scenario: Scenario
    dm_label: str
    pi: PremiumPair
    gamma: PremiumPair
    rho: PremiumPair
    lam: PremiumPair
    sigma: PremiumPair
    mu: PremiumPair
    ara: float
    dual_index: float
    residuals: dict[str, float]
    link_deltas: dict[str, float]

    def pairs(self) -> dict[str, PremiumPair]:
        """name -> (exact, approx), in PREMIA order."""
        return {name: getattr(self, _field(name)) for name in PREMIA}

    def to_dict(self) -> dict:
        sc = self.scenario
        return {
            "dm": self.dm_label,
            "scenario": {"x0": sc.x0, "p0": sc.p0, "eps1": sc.eps1, "eps2": sc.eps2},
            "premia": {name: pair._asdict() for name, pair in self.pairs().items()},
            "ara": self.ara,
            "dual_index": self.dual_index,
            "residuals": dict(self.residuals),
            "link_deltas": dict(self.link_deltas),
        }


def _residuals(dm: DecisionMaker, sc: Scenario, ex: dict[str, float]) -> dict[str, float]:
    """Plug each exact premium back into its defining indifference equation."""
    u, h = dm.utility, dm.weighting
    x0, p0, e1, e2 = sc.x0, sc.p0, sc.eps1, sc.eps2
    u_lo, u_mid, u_hi = u.value(x0 - e1), u.value(x0), u.value(x0 + e1)
    h_lo, h_mid, h_hi = h.value(p0 - e2), h.value(p0), h.value(p0 + e2)
    spread_h = h_hi - h_lo
    return {
        "pi": u.value(x0 - ex["pi"]) - 0.5 * (u_lo + u_hi),
        "gamma": u_mid
        - ((0.5 - ex["gamma"]) * u_lo + (0.5 + ex["gamma"]) * u_hi),
        "rho": spread_h * (0.5 - ex["rho"]) - (h_hi - h_mid),
        "lambda": 0.5 * (h_lo - 2.0 * h.value(p0 - ex["lambda"]) + h_hi),
        "sigma": spread_h * u.value(x0 - ex["sigma"])
        - ((h_mid - h_lo) * u_lo + (h_hi - h_mid) * u_hi),
        "mu": spread_h * u_mid
        - (
            (h.value(p0 - ex["mu"]) - h_lo) * u_lo
            + (h_hi - h.value(p0 - ex["mu"])) * u_hi
        ),
    }


def premium_report(dm: DecisionMaker, sc: Scenario) -> PremiumReport:
    """Compute every premium for one decision maker and scenario."""
    exact = {name: p.exact(dm, sc) for name, p in PREMIA.items()}
    approx = {name: p.approx(dm, sc) for name, p in PREMIA.items()}
    ara, dual_index = local_indexes(dm, sc.x0, sc.p0)
    link_deltas = {
        "pi_vs_gamma": approx["pi"] - 2.0 * sc.eps1 * approx["gamma"],
        "lambda_vs_rho": approx["lambda"] - 2.0 * sc.eps2 * approx["rho"],
        "sigma_vs_pi_rho": approx["sigma"]
        - (approx["pi"] + 2.0 * sc.eps1 * approx["rho"]),
        "mu_vs_gamma_lambda": approx["mu"]
        - (2.0 * sc.eps2 * approx["gamma"] + approx["lambda"]),
        "sigma_vs_mu": approx["sigma"] - (sc.eps1 / sc.eps2) * approx["mu"],
    }
    return PremiumReport(
        scenario=sc,
        dm_label=dm.label,
        **{_field(name): PremiumPair(exact[name], approx[name]) for name in PREMIA},
        ara=ara,
        dual_index=dual_index,
        residuals=_residuals(dm, sc, exact),
        link_deltas=link_deltas,
    )
