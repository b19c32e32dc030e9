"""Inference tests: critical values, power, and the orthant integral."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import multivariate_normal, norm

from swdesign import (
    PowerSpec,
    critical_value,
    mvn_upper_orthant,
    per_hypothesis_power,
    power_report,
    treatment_covariance,
)
from swdesign.inference import (
    _bvn_upper,
    _gauss_legendre,
    _ndtr,
    _ndtri,
    _tvn_upper,
    variance_limits,
)
from swdesign.model import CovarianceSummary


# ---------------------------------------------------------------------------
# Critical values
# ---------------------------------------------------------------------------


class TestCriticalValue:
    def test_uncorrected(self):
        assert critical_value(0.05, 3, "none") == pytest.approx(
            norm.isf(0.05), rel=1e-12
        )

    def test_bonferroni_divides_alpha(self):
        assert critical_value(0.05, 2, "bonferroni") == pytest.approx(
            norm.isf(0.025), rel=1e-12
        )

    def test_reference_values(self):
        assert critical_value(0.05, 1, "none") == pytest.approx(
            1.6448536269514722, rel=1e-12
        )
        assert critical_value(0.05, 2, "bonferroni") == pytest.approx(
            1.959963984540054, rel=1e-12
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            critical_value(0.0, 2)
        with pytest.raises(ValueError):
            critical_value(0.05, 0)
        with pytest.raises(ValueError):
            critical_value(0.05, 2, "holm")


class TestPowerSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerSpec(alpha=1.5)
        with pytest.raises(ValueError):
            PowerSpec(alpha=0.05, beta=0.0)
        with pytest.raises(ValueError):
            PowerSpec(alpha=0.05, delta=[1.0, -1.0])
        with pytest.raises(ValueError):
            PowerSpec(alpha=0.05, power_type="union")

    def test_q(self):
        assert PowerSpec(alpha=0.05, delta=[1.5, 0.75]).q == 2
        assert PowerSpec(alpha=0.05).q == 0


# ---------------------------------------------------------------------------
# Normal distribution and quantile functions
# ---------------------------------------------------------------------------


class TestNormalFunctions:
    def test_cdf_matches_scipy(self):
        # In the far lower tail scipy's own error (about 2e-13 relative near
        # x = -37) exceeds ours, so the relative bound is the looser one.
        x = np.linspace(-38.0, 8.0, 200_001)
        np.testing.assert_allclose(_ndtr(x), norm.cdf(x), rtol=1e-13,
                                   atol=1e-15)

    def test_cdf_limits(self):
        got = _ndtr(np.array([-np.inf, -40.0, 0.0, 40.0, np.inf]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_quantile_matches_scipy(self):
        p = np.concatenate([
            np.logspace(-300, -1, 20_000),
            np.linspace(0.01, 0.99, 20_001),
            1.0 - np.logspace(-16, -1, 5_000),
        ])
        np.testing.assert_allclose(_ndtri(p), norm.ppf(p), rtol=1e-13,
                                   atol=0)

    def test_quantile_inverts_cdf_in_lower_tail(self):
        # Above zero Phi rounds toward one and the round trip loses digits.
        x = np.linspace(-37.0, 0.0, 3701)
        np.testing.assert_allclose(_ndtri(_ndtr(x)), x, rtol=1e-13,
                                   atol=1e-15)


# ---------------------------------------------------------------------------
# Per-hypothesis power
# ---------------------------------------------------------------------------


class TestPerHypothesisPower:
    @given(
        alpha=st.floats(0.001, 0.2),
        info=st.floats(0.1, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_equals_alpha_at_zero_effect(self, alpha, info):
        e = critical_value(alpha, 1, "none")
        assert per_hypothesis_power(0.0, info, e) == pytest.approx(
            alpha, rel=1e-9
        )

    def test_monotone_in_information(self):
        e = critical_value(0.05, 1)
        powers = [per_hypothesis_power(0.5, i, e) for i in (1, 4, 16, 64)]
        assert all(a < b for a, b in zip(powers, powers[1:]))

    def test_nonpositive_information_rejected(self):
        with pytest.raises(ValueError):
            per_hypothesis_power(0.5, 0.0, 1.96)


class TestVarianceLimits:
    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.4])
    @pytest.mark.parametrize("correction", ["none", "bonferroni"])
    @pytest.mark.parametrize(
        "beta", [0.01, 0.1, 0.2, 0.5, 0.6, 0.8, 0.9, 0.99]
    )
    def test_threshold_equals_cdf_filter(self, alpha, correction, beta):
        delta = np.array([0.05, 0.3, 0.75, 1.5, 4.0])
        e = critical_value(alpha, delta.size, correction)
        Lambda = np.logspace(-5, 3, 4001)[:, None]
        want = norm.cdf(delta / np.sqrt(Lambda) - e) >= 1 - beta
        got = Lambda <= variance_limits(delta, e, beta)
        np.testing.assert_array_equal(got, want)

    def test_every_variance_feasible_when_target_below_alpha(self):
        # e + z_{1-beta} <= 0: any positive effect already has the power.
        e = critical_value(0.4, 1, "none")
        assert np.all(np.isinf(variance_limits([0.1, 2.0], e, 0.9)))


# ---------------------------------------------------------------------------
# Orthant probabilities
# ---------------------------------------------------------------------------


def _random_correlation(rng, q):
    A = rng.standard_normal((q, q + 2))
    S = A @ A.T + 0.1 * np.eye(q)
    d = np.sqrt(np.diag(S))
    return S / np.outer(d, d)


class TestOrthant:
    def test_univariate_is_exact(self):
        assert mvn_upper_orthant([1.3], [0.2], np.eye(1)) == pytest.approx(
            norm.cdf(1.1), rel=1e-12
        )

    def test_independent_case_factorizes(self):
        b = np.array([0.5, -0.3, 1.2])
        got = mvn_upper_orthant(b, np.zeros(3), np.eye(3), seed=7)
        assert got == pytest.approx(np.prod(norm.cdf(b)), abs=2e-5)

    def test_matches_library_integrator(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            q = int(rng.integers(2, 5))
            corr = _random_correlation(rng, q)
            b = rng.uniform(-1.5, 2.0, size=q)
            want = multivariate_normal.cdf(
                b, mean=np.zeros(q), cov=corr, allow_singular=False
            )
            got = mvn_upper_orthant(b, np.zeros(q), corr, seed=3)
            assert got == pytest.approx(want, abs=5e-5)

    def test_bivariate_matches_library_cdf(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            h, k = rng.uniform(-4.0, 4.0, size=2)
            r = rng.uniform(-0.99, 0.99)
            corr = np.array([[1.0, r], [r, 1.0]])
            want = multivariate_normal.cdf([h, k], mean=[0.0, 0.0], cov=corr)
            got = mvn_upper_orthant([h, k], [0.0, 0.0], corr)
            assert abs(got - want) <= 1e-12, (h, k, r)

    @pytest.mark.parametrize("h, k", [(0.3, -0.4), (-1.2, 0.8), (1.5, 1.5)])
    def test_bivariate_singular_correlations(self, h, k):
        ones = np.ones((2, 2))
        anti = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert mvn_upper_orthant([h, k], [0, 0], ones) == pytest.approx(
            norm.cdf(min(h, k)), abs=1e-15
        )
        assert mvn_upper_orthant([h, k], [0, 0], anti) == pytest.approx(
            max(0.0, norm.cdf(h) - norm.cdf(-k)), abs=1e-15
        )

    def test_bivariate_ignores_seed(self):
        corr = np.array([[1.0, -0.6], [-0.6, 1.0]])
        values = {
            mvn_upper_orthant([0.2, 1.1], [0.1, -0.3], corr, seed=s)
            for s in range(5)
        }
        assert len(values) == 1

    def test_deterministic_given_seed(self):
        corr = np.array([[1.0, 0.4], [0.4, 1.0]])
        a = mvn_upper_orthant([0.3, 0.7], [0.0, 0.0], corr, seed=11)
        b = mvn_upper_orthant([0.3, 0.7], [0.0, 0.0], corr, seed=11)
        assert a == b

    def test_dimension_capped(self):
        with pytest.raises(ValueError):
            mvn_upper_orthant(np.zeros(11), np.zeros(11), np.eye(11))

    def test_invalid_correlation_rejected(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            mvn_upper_orthant([0.0, 0.0], [0.0, 0.0], bad)

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda c: c.__setitem__((0, 1), 0.3 + 1e-4), "symmetric"),
            (lambda c: c.__setitem__((1, 1), 1.0 + 1e-4), "unit diagonal"),
            (lambda c: c.__setitem__((0, 0), np.nan), "symmetric"),
            (lambda c: (c.__setitem__((0, 1), 1.0 + 2e-10),
                        c.__setitem__((1, 0), 1.0 + 2e-10)),
             "positive semidefinite"),
            (lambda c: (c.__setitem__((0, 1), np.inf),
                        c.__setitem__((1, 0), np.inf)),
             "positive semidefinite"),
        ],
        ids=["asymmetric", "diagonal", "nan", "indefinite", "infinite"],
    )
    def test_correlation_faults_named(self, q, edit, message):
        corr = np.eye(q)
        corr[0, 1] = corr[1, 0] = 0.3
        edit(corr)
        with pytest.raises(ValueError, match=message):
            mvn_upper_orthant(np.zeros(q), np.zeros(q), corr)

    @pytest.mark.parametrize("q", [2, 3])
    def test_correlation_tolerances_accept(self, q):
        # Inside the symmetry (1e-10 + 1e-5 |r|), diagonal (1e-8 + 1e-5)
        # and eigenvalue (-1e-10) tolerances.
        corr = np.eye(q)
        corr[0, 1], corr[1, 0] = 0.3 + 2e-6, 0.3
        corr[1, 1] = 1.0 + 9e-6
        assert 0.0 <= mvn_upper_orthant(np.zeros(q), np.zeros(q), corr) <= 1
        corr = np.eye(q)
        corr[0, 1] = corr[1, 0] = -(1.0 + 5e-11)
        assert 0.0 <= mvn_upper_orthant(np.zeros(q), np.zeros(q), corr) <= 1


def test_gauss_legendre_table_is_leggauss():
    t, w = np.polynomial.legendre.leggauss(20)
    x, v = _gauss_legendre()
    np.testing.assert_array_equal(x, 1.0 + t)
    np.testing.assert_array_equal(v, w)


# ---------------------------------------------------------------------------
# The trivariate orthant
# ---------------------------------------------------------------------------

#: Index pairs of ``r = (r12, r13, r23)``.
PAIRS = ((0, 1), (0, 2), (1, 2))


def _corr3(r):
    R = np.eye(3)
    for (i, j), v in zip(PAIRS, r):
        R[i, j] = R[j, i] = v
    return R


def _random_r(rng, kind):
    """Correlations of one random 3 x 3 correlation matrix of a kind.

    ``regular`` has smallest eigenvalue above about 0.02, ``near`` one
    between about 1e-9 and 1e-2, ``singular`` rank two, and ``unit`` one
    pair with correlation exactly +-1 at a random position.
    """
    if kind == "regular":
        A = rng.standard_normal((3, 5))
        S = A @ A.T + 0.1 * np.eye(3)
    elif kind == "near":
        A = rng.standard_normal((3, 2))
        S = A @ A.T + 10.0 ** rng.uniform(-9, -2) * np.eye(3)
    elif kind == "singular":
        A = rng.standard_normal((3, 2))
        S = A @ A.T
    else:
        s, c = rng.choice([-1.0, 1.0]), rng.uniform(-1.0, 1.0)
        S = np.array([[1.0, c, s * c], [c, 1.0, s], [s * c, s, 1.0]])
        p = rng.permutation(3)
        S = S[np.ix_(p, p)]
    d = np.sqrt(np.diag(S))
    C = S / np.outer(d, d)
    return [float(C[i, j]) for i, j in PAIRS]


def _conditioning_reference(h, r):
    """``P(X > h)`` by adaptive quadrature over one variable.

    Conditioning on ``X_i = x`` leaves a bivariate normal; ``i`` is the
    variable least correlated with the other two.  At conditional
    correlation +-1 the bivariate probability has a kink where the two
    conditional limits cross, which is passed to ``quad``.
    """
    R = _corr3(r)
    i = min(range(3), key=lambda a: max(abs(R[a, b]) for b in range(3)
                                       if b != a))
    j, k = (a for a in range(3) if a != i)
    sj, sk = math.sqrt(1 - R[i, j] ** 2), math.sqrt(1 - R[i, k] ** 2)
    rho = min(max((R[j, k] - R[i, j] * R[i, k]) / (sj * sk), -1.0), 1.0)
    aj, ak = R[i, j] / sj, R[i, k] / sk
    top = max(h[i], 0.0) + 12.0
    kinks = [(h[j] / sj - s * h[k] / sk) / (aj - s * ak)
             for s in (1, -1) if abs(aj - s * ak) > 1e-12]
    points = [x for x in kinks if h[i] < x < top] or None

    def f(x):
        return norm.pdf(x) * _bvn_upper(
            (h[j] - R[i, j] * x) / sj, (h[k] - R[i, k] * x) / sk, rho
        )

    return quad(f, h[i], top, points=points, epsabs=1e-13, epsrel=1e-13,
                limit=500)[0]


def _plackett_reference(h, r):
    """``P(X > h)`` by adaptive quadrature of Plackett's identity.

    Scalar code with breakpoints toward ``t = 1``, where a singular matrix
    makes the conditional variances vanish; needs ``|r23| < 1`` after the
    largest correlation is moved to the pair (2, 3).
    """
    order = [(2, 0, 1), (1, 0, 2), (0, 1, 2)][int(np.argmax(np.abs(r)))]
    R = _corr3(r)[np.ix_(order, order)]
    h1, h2, h3 = (h[a] for a in order)
    r12, r13, r23 = R[0, 1], R[0, 2], R[1, 2]

    def phi2(x, y, c):
        return math.exp(-(x * x - 2 * c * x * y + y * y) / (2 * (1 - c * c))) \
            / (2 * math.pi * math.sqrt(1 - c * c))

    def cond(num, var):
        return ndtr(num / math.sqrt(var)) if var > 0 else float(num > 0)

    def g(t):
        a, b = t * r12, t * r13
        det = 1 - a * a - b * b - r23 * r23 + 2 * a * b * r23
        return (
            r12 * phi2(h1, h2, a) * cond(
                (b - a * r23) * h1 + (r23 - a * b) * h2 - (1 - a * a) * h3,
                det * (1 - a * a))
            + r13 * phi2(h1, h3, b) * cond(
                (a - b * r23) * h1 + (r23 - a * b) * h3 - (1 - b * b) * h2,
                det * (1 - b * b))
        )

    points = [1 - 10.0 ** -k for k in range(1, 15)]
    integral = quad(g, 0, 1, points=points, epsabs=1e-13, epsrel=1e-13,
                    limit=1000)[0]
    return ndtr(-h1) * _bvn_upper(h2, h3, r23) + integral


# At a singular matrix the reference integrand is a step at t = 1, which
# quad reports as bad behaviour; its result is still accurate to 1e-13.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestTrivariate:
    @pytest.mark.parametrize("kind", ["regular", "unit", "singular"])
    def test_matches_conditioning_integral(self, kind):
        rng = np.random.default_rng(["regular", "unit", "singular"]
                                    .index(kind))
        for _ in range(60):
            r = _random_r(rng, kind)
            h = rng.uniform(-2.5, 2.5, size=3).tolist()
            want = _conditioning_reference(h, r)
            assert abs(_tvn_upper(h, r) - want) <= 1e-10, (h, r)

    @pytest.mark.parametrize("kind", ["regular", "near", "singular"])
    def test_matches_adaptive_plackett_integral(self, kind):
        # Near-singular matrices defeat the conditioning integral's quad
        # (errors near 1e-9) but not this one.
        rng = np.random.default_rng(10 + ["regular", "near", "singular"]
                                    .index(kind))
        for _ in range(60):
            r = _random_r(rng, kind)
            h = rng.uniform(-2.5, 2.5, size=3).tolist()
            want = _plackett_reference(h, r)
            assert abs(_tvn_upper(h, r) - want) <= 1e-10, (h, r)

    def test_thin_boundary_layer_of_a_singular_matrix(self):
        # Rank two, with h3 within delta of the value at which X3 given
        # X1 = h1, X2 = h2 is degenerate at h3: the conditional probability
        # jumps over a width of about delta^2 next to t = 1.
        rng = np.random.default_rng(12)
        r12, r13, r23 = _random_r(rng, "singular")
        while abs(r23) < max(abs(r12), abs(r13)):
            r12, r13, r23 = _random_r(rng, "singular")
        h1, h2 = rng.uniform(-1.0, 1.0, size=2)
        for delta in np.logspace(-1.5, -6, 10):
            for s in (1.0, -1.0):
                h3 = ((r13 - r12 * r23) * h1 + (r23 - r12 * r13) * h2
                      - s * delta) / (1 - r12 ** 2)
                h = [h1, h2, h3]
                want = _plackett_reference(h, [r12, r13, r23])
                got = _tvn_upper(h, [r12, r13, r23])
                assert abs(got - want) <= 1e-10, (h, delta)

    @pytest.mark.parametrize("kind", ["regular", "near", "singular", "unit"])
    def test_zero_limits_closed_form(self, kind):
        rng = np.random.default_rng(20)
        for _ in range(50):
            r = _random_r(rng, kind)
            want = 0.125 + sum(math.asin(v) for v in r) / (4 * math.pi)
            assert abs(_tvn_upper([0.0, 0.0, 0.0], r) - want) <= 1e-12, r

    @pytest.mark.parametrize("pair", [0, 1, 2])
    def test_one_independent_variable_factorizes(self, pair):
        # Only the correlation of ``pair`` is non-zero; the third variable
        # is independent of the other two.
        rng = np.random.default_rng(30 + pair)
        i, j = PAIRS[pair]
        k = 3 - i - j
        for _ in range(50):
            r = [0.0, 0.0, 0.0]
            r[pair] = rng.uniform(-0.999, 0.999)
            h = rng.uniform(-3.0, 3.0, size=3)
            want = norm.sf(h[k]) * multivariate_normal.cdf(
                [-h[i], -h[j]], cov=[[1.0, r[pair]], [r[pair], 1.0]])
            assert abs(_tvn_upper(h.tolist(), r) - want) <= 1e-12, (h, r)

    def test_orthant_ignores_seed(self):
        corr = _corr3([0.45, -0.2, 0.6])
        values = {
            mvn_upper_orthant([0.2, 1.1, -0.4], [0.1, -0.3, 0.2], corr,
                              seed=s)
            for s in range(5)
        }
        assert len(values) == 1


# ---------------------------------------------------------------------------
# Power reports
# ---------------------------------------------------------------------------


def _summary_from_lambda(Lambda_q):
    Lambda_q = np.asarray(Lambda_q, dtype=float)
    return CovarianceSummary(
        Lambda_q=Lambda_q,
        info=1.0 / np.diag(Lambda_q),
        q=Lambda_q.shape[0],
    )


class TestPowerReport:
    def test_reference_design_power(self, reference_design, reference_vc):
        spec = PowerSpec(
            alpha=0.05, correction="bonferroni", beta=0.12,
            delta=[1.5, 0.75],
        )
        summary = treatment_covariance(reference_design, reference_vc)
        report = power_report(summary, spec, seed=0)
        assert report.critical_value == pytest.approx(norm.isf(0.025))
        assert report.individual == report.per_hypothesis.min()
        assert report.meets_requirement == (
            report.individual >= 0.88
        )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_combined_at_least_max_individual(self, seed):
        rng = np.random.default_rng(seed)
        q = int(rng.integers(2, 5))
        corr = _random_correlation(rng, q)
        scale = rng.uniform(0.02, 0.6, size=q)
        Lambda_q = corr * np.outer(np.sqrt(scale), np.sqrt(scale))
        spec = PowerSpec(
            alpha=0.05, correction="bonferroni", beta=0.2,
            delta=rng.uniform(0.2, 1.5, size=q),
        )
        report = power_report(_summary_from_lambda(Lambda_q), spec, seed=1)
        assert report.combined >= report.per_hypothesis.max() - 2e-5

    def test_combined_requirement_uses_combined(self):
        Lambda_q = np.array([[0.04, 0.01], [0.01, 0.04]])
        spec_i = PowerSpec(
            alpha=0.05, beta=0.2, delta=[0.5, 0.5], power_type="individual"
        )
        spec_c = PowerSpec(
            alpha=0.05, beta=0.2, delta=[0.5, 0.5], power_type="combined"
        )
        summary = _summary_from_lambda(Lambda_q)
        r_i = power_report(summary, spec_i)
        r_c = power_report(summary, spec_c)
        assert r_i.meets_requirement == (r_i.individual >= 0.8)
        assert r_c.meets_requirement == (r_c.combined >= 0.8)

    def test_beta_one_always_meets(self):
        Lambda_q = np.array([[4.0, 0.0], [0.0, 4.0]])
        spec = PowerSpec(alpha=0.05, beta=1.0, delta=[0.1, 0.1])
        assert power_report(_summary_from_lambda(Lambda_q), spec).meets_requirement

    def test_delta_length_mismatch(self):
        spec = PowerSpec(alpha=0.05, delta=[1.0])
        with pytest.raises(ValueError, match="length"):
            power_report(_summary_from_lambda(np.eye(2)), spec)
