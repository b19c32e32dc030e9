"""End-to-end acceptance suite against frozen reference values.

Four tests in this file assert externally published reference values that
are not reproducible under the model as documented; they are expected to
fail and the discrepancies are analyzed in the project decisions ledger:

* ``test_cohort_theoretical_proportions_published_values``
* ``test_cost_weighted_compact_optimum_published_values``
* ``test_every_arm_weighted_published_values``
* ``test_variance_ratio_small_rho_inflation_published_magnitude``
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from swdesign import (
    AllInterventionsPerCluster,
    CEParams,
    Design,
    DesignSpace,
    EqualSequenceAllocation,
    Identifiable,
    MonotoneNondecreasing,
    Objective,
    PowerSpec,
    StartControlEndTreatment,
    VarianceComponents,
    criterion_from_name,
    cross_entropy_search,
    empirical_proportions,
    evaluate_design,
    exhaustive_search,
    li_optimal_proportions,
    mvn_upper_orthant,
    power_report,
    rho_from_E,
    sensitivity_map,
    treatment_covariance,
    variance_ratio_map,
)
from swdesign.search import GridSpec

from conftest import (
    COHORT_CASES,
    COST_WEIGHTED_W0_X,
    COST_WEIGHTED_W05_X,
    EQUAL_ALLOCATION_OPTIMA,
    EVERY_ARM_AE_W05_X,
    EVERY_ARM_D_W0_X,
    REFERENCE_X,
    SENSITIVITY_DESIGNS,
    STAGGERED_X,
    THREE_ARM_A_050_X,
    THREE_ARM_D_015_X,
    THREE_ARM_E_OPTIMA,
    TWO_ARM_OPTIMA,
    row_multiset,
)
from reference_model import gls_information

MONO_IDENT = (MonotoneNondecreasing(), Identifiable())
NO_POWER = PowerSpec(alpha=0.05, beta=1.0, delta=[])


def two_arm_space(restrictions=MONO_IDENT):
    return DesignSpace.single(10, 6, 10, 2, restrictions)


def vc_at_E(m, T, E):
    return VarianceComponents.from_rho(1.0, rho_from_E(m, T, E))


def budgeted_space(extra=()):
    return DesignSpace.budgeted(
        range(2, 7), range(2, 7), 2, 48, 3, MONO_IDENT + tuple(extra)
    )


POWER_2 = PowerSpec(
    alpha=0.05, correction="bonferroni", beta=0.12, delta=[1.5, 0.75]
)


# ---------------------------------------------------------------------------
# 1. Reference design statistics
# ---------------------------------------------------------------------------


def test_reference_design_statistics():
    design = Design(8, 6, 6, REFERENCE_X, 3)
    vc = VarianceComponents.from_rho(1.0, 0.05)
    start = time.perf_counter()
    stats = evaluate_design(design, vc, POWER_2, seed=0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert stats["D"] == pytest.approx(3.090e-3, rel=5e-3)
    assert stats["A"] == pytest.approx(5.696e-2, rel=5e-3)
    assert stats["E"] == pytest.approx(5.696e-2, rel=5e-3)
    power = stats["power"]
    assert power.per_hypothesis[0] == pytest.approx(1.000, abs=5e-4)
    assert power.per_hypothesis[1] == pytest.approx(0.8815, abs=5e-4)


# ---------------------------------------------------------------------------
# 2. Two-arm cross-sectional optima
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("E", sorted(TWO_ARM_OPTIMA))
def test_two_arm_cross_sectional_optima(E):
    res = exhaustive_search(
        two_arm_space(), vc_at_E(10, 6, E), NO_POWER,
        Objective(w=0.0, criterion=criterion_from_name("E")),
    )
    assert res.status == "ok"
    assert res.n_evaluated == 8008
    assert row_multiset(res.best.X) == row_multiset(TWO_ARM_OPTIMA[E])


# ---------------------------------------------------------------------------
# 3. Equal allocation across sequences
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("E", sorted(EQUAL_ALLOCATION_OPTIMA))
def test_equal_allocation_optima(E):
    space = two_arm_space(MONO_IDENT + (EqualSequenceAllocation(),))
    res = exhaustive_search(
        space, vc_at_E(10, 6, E), NO_POWER,
        Objective(w=0.0, criterion=criterion_from_name("E")),
    )
    assert res.status == "ok"
    assert row_multiset(res.best.X) == row_multiset(
        EQUAL_ALLOCATION_OPTIMA[E]
    )


# ---------------------------------------------------------------------------
# 4. Two-arm cohort optima and allocation proportions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "case", COHORT_CASES, ids=lambda c: "rho" + "-".join(map(str, c["rhos"]))
)
def test_cohort_optima_and_empirical_proportions(case):
    rho0, rho1, rho2 = case["rhos"]
    vc = VarianceComponents.from_correlations(1.0, rho0, rho1, rho2)
    space = two_arm_space(
        MONO_IDENT + (StartControlEndTreatment(),)
    )
    res = exhaustive_search(
        space, vc, NO_POWER,
        Objective(w=0.0, criterion=criterion_from_name("E")),
    )
    assert res.status == "ok"
    assert row_multiset(res.best.X) == row_multiset(case["X"])
    np.testing.assert_allclose(
        empirical_proportions(res.best.X), case["p_emp"], atol=1e-12
    )


@pytest.mark.parametrize(
    "case", COHORT_CASES, ids=lambda c: "rho" + "-".join(map(str, c["rhos"]))
)
def test_cohort_theoretical_proportions_published_values(case):
    # Known failing: the published rounded proportions are not reproducible
    # from the closed form; analysis in the project decisions ledger.
    rho0, rho1, rho2 = case["rhos"]
    got = li_optimal_proportions(10, 6, rho0, rho1, rho2)
    np.testing.assert_allclose(np.round(got.p, 2), case["p_th"], atol=1e-12)


# ---------------------------------------------------------------------------
# 5. Cost-weighted search over the budgeted three-arm space
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def budgeted_w0_result():
    return exhaustive_search(
        budgeted_space(), VarianceComponents.from_rho(1.0, 0.05), POWER_2,
        Objective(w=0.0, criterion=criterion_from_name("E")),
    )


@pytest.fixture(scope="module")
def budgeted_w05_result():
    return exhaustive_search(
        budgeted_space(), VarianceComponents.from_rho(1.0, 0.05), POWER_2,
        Objective(w=0.5, criterion=criterion_from_name("E")),
    )


def test_cost_weighted_unweighted_optimum(budgeted_w0_result):
    res = budgeted_w0_result
    assert res.status == "ok"
    assert res.cost == 288
    assert res.criterion_value == pytest.approx(3.175e-2, rel=5e-3)
    assert row_multiset(res.best.X) == row_multiset(COST_WEIGHTED_W0_X)


def test_cost_weighted_compact_optimum_size(budgeted_w05_result):
    res = budgeted_w05_result
    assert res.status == "ok"
    assert (res.best.C, res.best.T, res.best.m) == (6, 5, 4)
    assert res.cost == 120


def test_cost_weighted_compact_optimum_published_values(budgeted_w05_result):
    # Known failing: the published statistics belong to a design that is not
    # the minimizer under the documented objective; analysis in the project
    # decisions ledger.
    res = budgeted_w05_result
    assert res.criterion_value == pytest.approx(1.132e-1, rel=5e-3)
    assert res.power.per_hypothesis[1] == pytest.approx(0.8818, abs=1e-3)


# ---------------------------------------------------------------------------
# 6. Budgeted space with every cluster visiting every arm
# ---------------------------------------------------------------------------


def test_every_arm_unweighted_determinant():
    res = exhaustive_search(
        budgeted_space((AllInterventionsPerCluster(),)),
        VarianceComponents.from_rho(1.0, 0.05), POWER_2,
        Objective(w=0.0, criterion=criterion_from_name("D")),
    )
    assert res.status == "ok"
    assert res.criterion_value == pytest.approx(1.670e-3, rel=5e-3)
    assert row_multiset(res.best.X) == row_multiset(EVERY_ARM_D_W0_X)


def test_every_arm_weighted_published_values():
    # Known failing: the published cost-weighted winner does not satisfy the
    # documented power requirement, so the search cannot select it; analysis
    # in the project decisions ledger.
    res = exhaustive_search(
        budgeted_space((AllInterventionsPerCluster(),)),
        VarianceComponents.from_rho(1.0, 0.05), POWER_2,
        Objective(w=0.5, criterion=criterion_from_name("A")),
    )
    assert res.status == "ok"
    assert res.cost == 180
    assert res.criterion_value == pytest.approx(6.373e-2, rel=5e-3)
    assert row_multiset(res.best.X) == row_multiset(EVERY_ARM_AE_W05_X)


# ---------------------------------------------------------------------------
# 7 & 8. Three-arm optima across cluster-mean correlations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("E", sorted(THREE_ARM_E_OPTIMA))
def test_three_arm_max_diagonal_optima(E):
    space = DesignSpace.single(6, 6, 8, 3, MONO_IDENT)
    res = exhaustive_search(
        space, vc_at_E(8, 6, E), NO_POWER,
        Objective(w=0.0, criterion=criterion_from_name("E")),
    )
    assert res.status == "ok"
    assert row_multiset(res.best.X) == row_multiset(THREE_ARM_E_OPTIMA[E])


@pytest.mark.parametrize(
    "criterion,E,expected",
    [
        ("D", 0.15, THREE_ARM_D_015_X),
        ("A", 0.50, THREE_ARM_A_050_X),
    ],
)
def test_three_arm_determinant_and_trace_spot_checks(criterion, E, expected):
    space = DesignSpace.single(6, 6, 8, 3, MONO_IDENT)
    res = exhaustive_search(
        space, vc_at_E(8, 6, E), NO_POWER,
        Objective(w=0.0, criterion=criterion_from_name(criterion)),
    )
    assert res.status == "ok"
    assert row_multiset(res.best.X) == row_multiset(expected)


# ---------------------------------------------------------------------------
# 9. Sensitivity of the optimum to the variance parameters
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sensitivity_grid():
    space = two_arm_space()
    objective = Objective(w=0.0, criterion=criterion_from_name("E"))
    grid = GridSpec()
    result = sensitivity_map(grid, space, objective, NO_POWER)
    return grid, result


def test_grid_optimum_beats_all_reference_designs(sensitivity_grid):
    grid, result = sensitivity_grid
    references = [Design(10, 10, 6, Xi, 2) for Xi in SENSITIVITY_DESIGNS]
    xs, ys = grid.points()
    for i, sc2 in enumerate(xs):
        for j, se2 in enumerate(ys):
            vc = VarianceComponents(sigma2_c=sc2, sigma2_eps=se2)
            best = result.criterion_values[i, j]
            for ref in references:
                ref_var = treatment_covariance(ref, vc).Lambda_q[0, 0]
                assert best <= ref_var * (1 + 1e-10)


def test_reference_designs_cover_most_of_the_grid(sensitivity_grid):
    # A grid point's optimum need not be unique: mirror-image allocation
    # matrices attain identical variance, and the search then reports only
    # the lexicographically smallest.  A reference design therefore counts
    # as optimal at a point when it attains that point's minimal criterion
    # value.
    grid, result = sensitivity_grid
    xs, ys = grid.points()
    hits = 0
    for Xi in SENSITIVITY_DESIGNS:
        design = Design(10, 10, 6, Xi, 2)
        optimal_somewhere = any(
            treatment_covariance(
                design, VarianceComponents(sigma2_c=sc2, sigma2_eps=se2)
            ).Lambda_q[0, 0]
            <= result.criterion_values[i, j] * (1 + 1e-9)
            for i, sc2 in enumerate(xs)
            for j, se2 in enumerate(ys)
        )
        hits += optimal_somewhere
    assert hits >= 9


@pytest.fixture(scope="module")
def staggered_ratio_map():
    space = two_arm_space()
    objective = Objective(w=0.0, criterion=criterion_from_name("E"))
    grid = GridSpec()
    ratios = variance_ratio_map(
        STAGGERED_X, grid, space, objective, NO_POWER, m=10
    )
    return grid, ratios


def test_variance_ratio_map_at_least_one(staggered_ratio_map):
    _, ratios = staggered_ratio_map
    assert (ratios >= 1.0 - 1e-10).all()


def test_variance_ratio_small_rho_inflation_published_magnitude(
    staggered_ratio_map,
):
    # Known failing: the staggered design's worst-case inflation over the
    # grid is about 1.38, and its small-correlation limit is exactly
    # 25/18 ~ 1.389, so no grid point can exceed the stated 1.40; analysis
    # in the project decisions ledger.
    grid, ratios = staggered_ratio_map
    xs, ys = grid.points()
    implied_rho = xs[:, None] / (xs[:, None] + ys[None, :])
    assert ratios[implied_rho < 0.05].max() > 1.40


# ---------------------------------------------------------------------------
# 10. Stochastic search on the four-arm space
# ---------------------------------------------------------------------------


POWER_3 = PowerSpec(
    alpha=0.05, correction="bonferroni", beta=0.12, delta=[1.5, 0.75, 0.75]
)


@pytest.mark.parametrize(
    "criterion,metric,bound",
    [
        ("E", "E", 2.95e-2),
        ("A", "A", 2.95e-2),
        ("D", "D", 2.15e-5),
    ],
)
def test_stochastic_search_four_arm_space(criterion, metric, bound):
    vc = VarianceComponents.from_rho(1.0, 0.05)
    objective = Objective(w=0.0, criterion=criterion_from_name(criterion))
    best = np.inf
    for seed in range(5):
        res = cross_entropy_search(
            6, 8, 8, 4, MONO_IDENT, vc, objective, POWER_3,
            CEParams(seed=seed),
        )
        if res.status != "ok":
            continue
        stats = evaluate_design(res.best, vc)
        best = min(best, stats[metric])
    assert best <= bound


# ---------------------------------------------------------------------------
# 11. Property suites
# ---------------------------------------------------------------------------


def _random_correlation(rng, q):
    A = rng.standard_normal((q, q + 2))
    S = A @ A.T + 0.1 * np.eye(q)
    d = np.sqrt(np.diag(S))
    return S / np.outer(d, d)


def test_orthant_integral_matches_monte_carlo_oracle():
    rng = np.random.default_rng(2024)
    n_total = 10**7
    chunk = 10**6
    for _ in range(50):
        q = int(rng.integers(2, 5))
        corr = _random_correlation(rng, q)
        b = rng.uniform(-1.5, 2.0, size=q)
        L = np.linalg.cholesky(corr)
        hits = 0
        for _ in range(n_total // chunk):
            Z = rng.standard_normal((chunk, q)) @ L.T
            hits += int((Z <= b).all(axis=1).sum())
        mc = hits / n_total
        se = np.sqrt(max(mc * (1 - mc), 1e-12) / n_total)
        got = mvn_upper_orthant(b, np.zeros(q), corr, seed=9)
        assert abs(got - mc) <= 3 * se + 5e-5


def test_block_reduction_matches_full_matrix_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        D = int(rng.integers(2, 4))
        T = int(rng.integers(2, 6))
        C = int(rng.integers(2, 5))
        m_cap = 30 // (C * T)
        if m_cap < 2:
            continue
        m = int(rng.integers(2, m_cap + 1))
        X = rng.integers(0, D, size=(C, T))
        design = Design(m, C, T, X, D)
        vc = VarianceComponents(
            sigma2_c=rng.uniform(0.01, 0.5),
            sigma2_theta=rng.uniform(0, 0.2),
            sigma2_s=rng.uniform(0, 0.3),
            sigma2_eps=rng.uniform(0.3, 2.0),
        )
        M = gls_information([[1] * C], design.sequences(), m, T, D, vc)[0]
        vals = np.linalg.eigvalsh(M)
        if vals[0] <= vals[-1] * 1e-8:
            continue
        want = np.linalg.inv(M)[: design.q, : design.q]
        got = treatment_covariance(design, vc).Lambda_q
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_power_equals_alpha_at_zero_effect():
    from swdesign import critical_value, per_hypothesis_power

    for alpha in (0.01, 0.05, 0.1):
        e = critical_value(alpha, 1, "none")
        assert per_hypothesis_power(0.0, 5.0, e) == pytest.approx(
            alpha, rel=1e-9
        )


def test_combined_power_at_least_max_individual():
    from swdesign.model import CovarianceSummary

    rng = np.random.default_rng(11)
    for _ in range(20):
        q = int(rng.integers(2, 5))
        corr = _random_correlation(rng, q)
        scale = rng.uniform(0.02, 0.6, size=q)
        Lambda_q = corr * np.outer(np.sqrt(scale), np.sqrt(scale))
        summary = CovarianceSummary(
            Lambda_q=Lambda_q, info=1.0 / np.diag(Lambda_q), q=q
        )
        spec = PowerSpec(
            alpha=0.05, correction="bonferroni", beta=0.2,
            delta=rng.uniform(0.2, 1.5, size=q),
        )
        report = power_report(summary, spec, seed=int(rng.integers(1000)))
        assert report.combined >= report.per_hypothesis.max() - 2e-5


@pytest.mark.parametrize(
    "C,T,m,D",
    [
        (4, 4, 2, 2),   # pool of 5 sequences, 70 candidates
        (4, 4, 2, 3),   # pool of 15 sequences, 3060 candidates
        (6, 6, 2, 2),   # pool of 7 sequences, 924 candidates
    ],
)
def test_cross_entropy_matches_exhaustive_on_small_spaces(C, T, m, D):
    from math import comb

    from swdesign import enumerate_sequences

    n = len(enumerate_sequences(T, D, MONO_IDENT))
    if comb(n + C - 1, C) > 10**4:
        pytest.skip("space above the small-space threshold")
    vc = VarianceComponents.from_rho(1.0, 0.05)
    space = DesignSpace.single(C, T, m, D, MONO_IDENT)
    objective = Objective(w=0.0, criterion=criterion_from_name("E"))
    exact = exhaustive_search(space, vc, NO_POWER, objective)
    for seed in range(5):
        ce = cross_entropy_search(
            C, T, m, D, MONO_IDENT, vc, objective, NO_POWER,
            CEParams(seed=seed),
        )
        assert ce.criterion_value == pytest.approx(
            exact.criterion_value, rel=1e-9
        )


def test_exhaustive_search_worker_invariance():
    vc = VarianceComponents.from_rho(1.0, 0.05)
    space = DesignSpace.grid(
        [4, 5], [4], [2, 3], 2, MONO_IDENT
    )
    spec = PowerSpec(
        alpha=0.05, correction="bonferroni", beta=0.5, delta=[1.0]
    )
    objective = Objective(w=0.3, criterion=criterion_from_name("A"))
    seq = exhaustive_search(space, vc, spec, objective, workers=1)
    par = exhaustive_search(space, vc, spec, objective, workers=2)
    assert seq.best.sequences() == par.best.sequences()
    assert seq.criterion_value == par.criterion_value
    assert seq.n_feasible == par.n_feasible


def test_theoretical_proportions_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(2, 20))
        T = int(rng.integers(3, 10))
        rho1 = rng.uniform(0.001, 0.1)
        rho0 = rho1 + rng.uniform(0, 0.2)
        rho2 = rho1 + rng.uniform(0, 0.5)
        res = li_optimal_proportions(m, T, rho0, rho1, rho2)
        assert sum(res.p) == pytest.approx(1.0, abs=1e-12)
