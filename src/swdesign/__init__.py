"""Design and power analysis for multi-arm stepped-wedge cluster trials.

The package computes the covariance of treatment-effect estimators under a
linear mixed model, evaluates individual and combined power, and searches
constrained design spaces for D-, A- or E-optimal and cost-weighted
admissible designs, exhaustively or by cross-entropy stochastic
optimization.
"""

from .analytic import (
    LiProportions,
    binary_residual_variance,
    cluster_mean_correlation,
    empirical_proportions,
    li_optimal_proportions,
    optimal_sequence_count,
    rho_from_E,
)
from .designspace import (
    AllInterventionsPerCluster,
    CustomPredicate,
    DesignSpace,
    EqualSequenceAllocation,
    Identifiable,
    MonotoneNondecreasing,
    Restriction,
    StartControlEndTreatment,
    enumerate_sequences,
    restriction_from_name,
)
from .inference import (
    PowerReport,
    PowerSpec,
    critical_value,
    mvn_upper_orthant,
    per_hypothesis_power,
    power_report,
)
from .model import (
    CovarianceSummary,
    DegenerateVarianceError,
    Design,
    NonIdentifiableError,
    VarianceComponents,
    is_identifiable,
    treatment_covariance,
)
from .search import (
    Aoptimal,
    CandidateCapExceeded,
    CEParams,
    Criterion,
    Doptimal,
    Eoptimal,
    GridSpec,
    Objective,
    SearchFailure,
    SearchResult,
    SensitivityResult,
    criterion_from_name,
    criterion_value,
    cross_entropy_search,
    evaluate_design,
    exhaustive_search,
    sensitivity_map,
    total_observations,
    variance_ratio_map,
)

__version__ = "0.1.0"
