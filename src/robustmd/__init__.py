"""Maxmin payoff guarantees on discrete state grids: worst-case LPs over
ambiguity sets, robustness certificates whose witness sequences realize any
fragility they find, and the robustified regret-minimizing monopoly
mechanisms."""

from .ambiguity import (
    InfeasibleSetError,
    LinearSet,
    MomentRow,
    QuantileSet,
    Singleton,
    SupportInterval,
    WassersteinBall,
    contains,
    distance_to,
    rich_project_ball,
    rich_project_moment,
)
from .guarantee import GuaranteeReport, radius_sweep, variational_value, worst_case, worst_case_ball
from .measures import (
    DiscretePrior,
    Grid,
    GridMismatchError,
    ValueFunction,
    expectation,
    lipschitz_envelope,
    lsc_defect_indices,
    lsc_envelope,
    push_mass,
    wasserstein1,
)
from .mechanisms import (
    MedianExample,
    PriceCdf,
    PricingCase,
    RobustifiedPricing,
    SaddleReport,
    bs_optimal_cdf,
    cdf_value,
    critical_radius,
    median_example_bundle,
    monopoly_grid,
    persuasion_ambiguity,
    persuasion_value,
    posted_price_value,
    robustify,
    solve_alpha,
    solve_beta,
    verify_saddle,
)
from .optim import (
    LinearProgram,
    LpNumericalError,
    LpRow,
    LpSolution,
    LpStatus,
    solve_bracketed,
    solve_lp,
)
from .robustness import RobustnessCertificate, Verdict, check_robust

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
