"""Design and power analysis for multi-arm stepped-wedge cluster trials.

The package computes the covariance of treatment-effect estimators under a
linear mixed model, evaluates individual and combined power, and searches
constrained design spaces for D-, A- or E-optimal and cost-weighted
admissible designs, exhaustively or by cross-entropy stochastic
optimization.
"""

import importlib

#: Every public name by its home module.  A name is imported on first use
#: (PEP 562), so ``import swdesign.cli`` loads only what a command needs.
_HOMES = {
    "analytic": (
        "LiProportions", "binary_residual_variance",
        "cluster_mean_correlation", "empirical_proportions",
        "li_optimal_proportions", "optimal_sequence_count", "rho_from_E",
    ),
    "designspace": (
        "AllInterventionsPerCluster", "CustomPredicate", "DesignSpace",
        "EqualSequenceAllocation", "Identifiable", "MonotoneNondecreasing",
        "Restriction", "StartControlEndTreatment", "enumerate_sequences",
        "restriction_from_name",
    ),
    "inference": (
        "PowerReport", "PowerSpec", "critical_value", "mvn_upper_orthant",
        "per_hypothesis_power", "power_report",
    ),
    "model": (
        "CovarianceSummary", "DegenerateVarianceError", "Design",
        "NonIdentifiableError", "VarianceComponents", "is_identifiable",
        "treatment_covariance",
    ),
    "search": (
        "Aoptimal", "CandidateCapExceeded", "CEParams", "Criterion",
        "Doptimal", "Eoptimal", "GridSpec", "Objective", "SearchFailure",
        "SearchResult", "SensitivityResult", "criterion_from_name",
        "criterion_value", "cross_entropy_search", "evaluate_design",
        "exhaustive_search", "sensitivity_map", "total_observations",
        "variance_ratio_map",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name from its home module and keep it."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
