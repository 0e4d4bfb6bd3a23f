"""Risk and probability premia under expected utility, Yaari's dual
theory, and rank-dependent utility: exact indifference solutions,
second-order approximations driven by the curvature indexes -U''/U' and
-h''/h', and numerical verification of the comparative-risk-aversion
equivalences."""

from .comparative import (
    ComparisonReport,
    ConditionCheck,
    check_concave_composition,
    check_cross_ratio,
    check_index_dominance,
    check_premium_dominance_dt,
    check_theorem1,
    check_theorem2,
)
from .errors import (
    BracketError,
    ConcavityError,
    DegenerateError,
    DomainError,
    GridError,
    InfeasibleError,
    MaxIterError,
    MonotonicityError,
    ParseError,
    RangeError,
    RiskPremiaError,
)
from .evalcore import (
    DecisionMaker,
    Lottery,
    certainty_equivalent,
    evaluate_dual_form,
    evaluate_rdu,
)
from .funclib import (
    BlendTransform,
    CaraUtility,
    ComposedWeighting,
    ConcaveTransform,
    CrraUtility,
    ExpTransform,
    IdentityWeighting,
    LinearUtility,
    LogUtility,
    PowerTransform,
    PowerWeighting,
    PrelecWeighting,
    QuadraticUtility,
    TkWeighting,
    UtilityFn,
    WeightingFn,
    concavify,
    parse_transform,
    parse_utility,
    parse_weighting,
)
from .numerics import RootSpec, convergence_order, find_root, find_roots
from .premia import (
    PremiumPair,
    PremiumReport,
    Scenario,
    dt_probability_premium_approx,
    dt_probability_premium_exact,
    dt_risk_premium_approx,
    dt_risk_premium_exact,
    eu_probability_premium_approx,
    eu_probability_premium_exact,
    eu_risk_premium_approx,
    eu_risk_premium_exact,
    local_indexes,
    premium_report,
    rdu_probability_premium_approx,
    rdu_probability_premium_exact,
    rdu_risk_premium_approx,
    rdu_risk_premium_exact,
    sensitivity_mu_eps2,
    sensitivity_sigma_eps1,
)

__version__ = "0.1.0"
