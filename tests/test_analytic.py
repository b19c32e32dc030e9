"""Closed-form utility tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from swdesign import (
    VarianceComponents,
    binary_residual_variance,
    cluster_mean_correlation,
    empirical_proportions,
    li_optimal_proportions,
    optimal_sequence_count,
    rho_from_E,
)

from conftest import X
from reference_model import mean_precision, sequence_block


class TestClusterMeanCorrelation:
    def test_reference_value(self):
        # m=8, T=6, rho=0.05: 48*0.05 / (1 + 47*0.05).
        assert cluster_mean_correlation(8, 6, 0.05) == pytest.approx(
            0.716417910447761, rel=1e-12
        )

    @given(
        m=st.integers(2, 30),
        T=st.integers(2, 12),
        rho=st.floats(0.0, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, m, T, rho):
        E = cluster_mean_correlation(m, T, rho)
        assert 0 <= E <= 1
        assert rho_from_E(m, T, E) == pytest.approx(rho, abs=1e-12)

    def test_monotone_in_rho(self):
        Es = [cluster_mean_correlation(10, 6, r) for r in (0.01, 0.1, 0.5)]
        assert Es == sorted(Es)

    def test_bounds(self):
        with pytest.raises(ValueError):
            cluster_mean_correlation(10, 6, 1.2)
        with pytest.raises(ValueError):
            rho_from_E(10, 6, -0.1)


class TestSequenceCount:
    def test_reference_value(self):
        # 1 / (1 - sqrt(0.75)).
        assert optimal_sequence_count(0.75) == pytest.approx(
            7.464101615137754, rel=1e-12
        )

    def test_increasing_in_E(self):
        vals = [optimal_sequence_count(E) for E in (0.0, 0.25, 0.5, 0.9)]
        assert vals == sorted(vals)
        assert vals[0] == pytest.approx(1.0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            optimal_sequence_count(1.0)


def _continuous_optimum_oracle(m, T, rho0, rho1, rho2):
    """Numerically minimize var(beta_1) over classical-sequence proportions.

    The information of a unit mass of clusters split over the T-1 classical
    sequences in proportions p is linear in p; minimizing the (0, 0) entry
    of its inverse over the simplex gives the true continuous optimum.
    """
    vc = VarianceComponents.from_correlations(1.0, rho0, rho1, rho2)
    W = mean_precision(m, T, vc)
    blocks = []
    for t in range(1, T):
        seq = [0] * (T - t) + [1] * t
        B = sequence_block(seq, T, 2)
        blocks.append(B.T @ W @ B)
    blocks = np.array(blocks)

    def var_beta1(p):
        M = np.tensordot(p, blocks, axes=1)
        return np.linalg.inv(M)[0, 0]

    n = T - 1
    res = minimize(
        var_beta1,
        np.full(n, 1.0 / n),
        method="SLSQP",
        bounds=[(1e-6, 1.0)] * n,
        constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0}],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    assert res.success
    return res.x


class TestLiProportions:
    @given(
        m=st.integers(2, 20),
        T=st.integers(3, 10),
        rho1=st.floats(0.001, 0.1),
        extra0=st.floats(0.0, 0.2),
        extra2=st.floats(0.0, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_symmetric(self, m, T, rho1, extra0, extra2):
        res = li_optimal_proportions(m, T, rho1 + extra0, rho1, rho1 + extra2)
        assert res.p.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.p[0] == pytest.approx(res.p[-1], abs=1e-12)
        if T > 4:
            interior = res.p[1:-1]
            np.testing.assert_allclose(interior, interior[0], atol=1e-12)

    @pytest.mark.parametrize(
        "rhos", [(0.05, 0.001, 0.25), (0.05, 0.002, 0.5), (0.1, 0.001, 0.25)]
    )
    def test_matches_continuous_optimum(self, rhos):
        rho0, rho1, rho2 = rhos
        got = li_optimal_proportions(10, 6, rho0, rho1, rho2).p
        want = _continuous_optimum_oracle(10, 6, rho0, rho1, rho2)
        np.testing.assert_allclose(got, want, atol=2e-3)

    def test_requires_three_periods(self):
        with pytest.raises(ValueError):
            li_optimal_proportions(10, 2, 0.05, 0.01, 0.1)


class TestEmpiricalProportions:
    def test_fractions(self):
        Xmat = X(("000001", 4), "000011", "000111", "001111", ("011111", 3))
        got = empirical_proportions(Xmat)
        np.testing.assert_allclose(got, [0.4, 0.1, 0.1, 0.1, 0.3])
        assert got.sum() == pytest.approx(1.0)

    def test_multiples_of_one_over_C(self):
        Xmat = X("0001", "0011", "0111", "0011")
        got = empirical_proportions(Xmat)
        np.testing.assert_allclose(got * 4, np.round(got * 4), atol=1e-12)

    @pytest.mark.parametrize("bad", ["000000", "111111", "010101"])
    def test_non_classical_rows_rejected(self, bad):
        with pytest.raises(ValueError, match="classical"):
            empirical_proportions(X("000111", bad))


class TestBinaryResidualVariance:
    def test_value(self):
        assert binary_residual_variance(0.5) == pytest.approx(4.0)
        assert binary_residual_variance(0.1) == pytest.approx(1 / 0.09)

    def test_bounds(self):
        with pytest.raises(ValueError):
            binary_residual_variance(0.0)
        with pytest.raises(ValueError):
            binary_residual_variance(1.0)
