"""Maxmin payoff guarantees on discrete state grids: worst-case LPs over
ambiguity sets, robustness certificates with perturbation witnesses, and the
robustified regret-minimizing monopoly mechanisms."""

from .ambiguity import (
    HalfSpace,
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
    to_constraints,
)
from .guarantee import GuaranteeReport, radius_sweep, variational_value, worst_case, worst_case_ball
from .measures import (
    DiscretePrior,
    Grid,
    GridMismatchError,
    ValueFunction,
    expectation,
    hausdorff_distance,
    lipschitz_envelope,
    lsc_defect_indices,
    lsc_envelope,
    push_mass,
    tv_distance,
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
from .robustness import (
    HausdorffProbe,
    QuantileCounterexample,
    RobustnessCertificate,
    SaddleFragilityWitness,
    Verdict,
    check_robust,
    hausdorff_lsc_probe,
    perturbation_witness,
    quantile_counterexample,
    saddle_fragility,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
