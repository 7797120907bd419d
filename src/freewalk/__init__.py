"""Random walks on free products of finite groups.

Solves the traffic polynomial system of a nearest-neighbor walk through
its hitting-probability fixed point, builds the Markovian multiplicative
harmonic measure, and reports drift, entropy, volume, and generator
quality, with closed-form, enumeration, and Monte Carlo cross-checks.
"""

from .groups import (
    EMPTY_WORD,
    FiniteGroup,
    FreeProduct,
    GroupTableError,
    LengthTable,
    Letter,
    NonGeneratingSetError,
    StateBudgetError,
    Word,
    ball_count,
    ball_count_bfs,
    concat_normalize,
    free_product_of_cyclics,
    left_mul_letter,
    letter_lengths,
    make_cyclic,
    make_finite_group,
    natural_lengths,
    sphere_series,
)
from .harmonic import (
    LetterChain,
    build_chain,
    cylinder_prob,
    log_cylinder_prob,
    mu_invariance_residual,
    sample_harmonic,
    tau1_invariance_residual,
    tau2_invariance_residual,
    two_factor_identity,
)
from .metrics import (
    MetricsReport,
    QualitySweep,
    drift,
    drift_weighted,
    entropy,
    extremal_cylinders,
    extremal_measure,
    growth_rho,
    metrics_report,
    quality,
    quality_sup,
    volume,
)
from .traffic import (
    ConsistencyError,
    HittingVector,
    MaxIterationsError,
    RecurrentGroupError,
    RootVector,
    SolveReport,
    StepDistribution,
    phi,
    q_to_r,
    solve_hitting,
    solve_walk,
    stationarity_check,
    traffic_residual,
    validate_walk,
)

__version__ = "0.1.0"
