"""Model-layer tests: design records, variance components, covariance."""

import itertools
import re
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swdesign import (
    DegenerateVarianceError,
    Design,
    DesignSpace,
    Identifiable,
    MonotoneNondecreasing,
    NonIdentifiableError,
    PowerSpec,
    VarianceComponents,
    is_identifiable,
    treatment_covariance,
)
from swdesign import inference, search
from swdesign.designspace import enumerate_sequences, restriction_from_name
from swdesign.model import (
    RANK_RTOL,
    _mean_variances,
    covariance_kernel,
    design_sums,
    determinant,
    kernel_sums,
    sequence_contributions,
    sequence_statistics,
)

from enumeration import scan_block
from reference_model import (
    cluster_covariance,
    full_rank,
    gls_information,
    gls_lambda_q,
    information_matrix,
    mean_precision,
    sequence_block,
)

from conftest import REFERENCE_X, WHOLE_SPACES, X


# ---------------------------------------------------------------------------
# Design
# ---------------------------------------------------------------------------


class TestDesign:
    def test_dimensions(self):
        d = Design(8, 6, 6, REFERENCE_X, 3)
        assert d.q == 2
        assert d.p == 2 + 1 + 5

    def test_canonical_sorts_rows(self):
        shuffled = X("011222", "000112", "001122")
        d = Design(2, 3, 6, shuffled, 3).canonical()
        assert [list(r) for r in d.X] == sorted(
            [list(r) for r in shuffled]
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=1),
            dict(C=1),
            dict(T=1),
            dict(D=1),
        ],
    )
    def test_bounds_validated(self, kwargs):
        base = dict(m=2, C=2, T=2, X=np.zeros((2, 2), dtype=int), D=2)
        base.update(kwargs)
        if "C" in kwargs or "T" in kwargs:
            base["X"] = np.zeros((base["C"], base["T"]), dtype=int)
        with pytest.raises(ValueError):
            Design(**base)

    def test_shape_and_labels_validated(self):
        with pytest.raises(ValueError, match="shape"):
            Design(2, 3, 2, np.zeros((2, 2), dtype=int), 2)
        with pytest.raises(ValueError, match="entries"):
            Design(2, 2, 2, np.array([[0, 2], [0, 1]]), 2)


# ---------------------------------------------------------------------------
# VarianceComponents
# ---------------------------------------------------------------------------


class TestVarianceComponents:
    def test_from_rho_exchangeable(self):
        vc = VarianceComponents.from_rho(2.0, 0.05)
        assert vc.sigma2 == pytest.approx(2.0)
        assert vc.rho0 == pytest.approx(0.05)
        assert vc.rho1 == pytest.approx(0.05)
        assert vc.rho2 == pytest.approx(0.05)
        assert vc.cross_sectional

    @given(
        sigma2=st.floats(0.1, 10),
        rho1=st.floats(0, 0.3),
        extra0=st.floats(0, 0.3),
        extra2=st.floats(0, 0.3),
    )
    @settings(max_examples=50, deadline=None)
    def test_from_correlations_round_trip(self, sigma2, rho1, extra0, extra2):
        rho0, rho2 = rho1 + extra0, rho1 + extra2
        vc = VarianceComponents.from_correlations(sigma2, rho0, rho1, rho2)
        assert vc.sigma2 == pytest.approx(sigma2, rel=1e-12)
        assert vc.rho0 == pytest.approx(rho0, abs=1e-12)
        assert vc.rho1 == pytest.approx(rho1, abs=1e-12)
        assert vc.rho2 == pytest.approx(rho2, abs=1e-12)

    def test_inconsistent_correlations_rejected(self):
        # rho0 + rho2 - rho1 > 1 would force a negative residual variance.
        with pytest.raises(ValueError, match="negative"):
            VarianceComponents.from_correlations(1.0, 0.9, 0.05, 0.9)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            VarianceComponents(sigma2_c=-0.1)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            VarianceComponents(sigma2_c=0.0, sigma2_eps=0.0)


# ---------------------------------------------------------------------------
# Design blocks and marginal covariance
# ---------------------------------------------------------------------------


class TestMatrices:
    def test_sequence_block_structure(self):
        # Sequence (0, 1, 2) with T=3, D=3: columns are
        # [beta_1, beta_2, mu, pi_2, pi_3].
        B = sequence_block((0, 1, 2), 3, 3)
        expected = np.array(
            [
                [0, 0, 1, 0, 0],
                [1, 0, 1, 1, 0],
                [1, 1, 1, 0, 1],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(B, expected)

    def test_exchangeable_marginal_covariance(self, reference_vc):
        # rho = 0.05, sigma2 = 1: unit diagonal, 0.05 everywhere else.
        V = cluster_covariance(8, 6, reference_vc)
        assert V.shape == (48, 48)
        np.testing.assert_allclose(np.diag(V), 1.0)
        off = V[~np.eye(48, dtype=bool)]
        np.testing.assert_allclose(off, 0.05)

    @given(
        m=st.integers(2, 6),
        T=st.integers(2, 6),
        s_c=st.floats(0, 1),
        s_th=st.floats(0, 1),
        s_s=st.floats(0, 1),
        s_e=st.floats(0.05, 2),
    )
    @settings(max_examples=40, deadline=None)
    def test_mean_precision_inverts_mean_covariance(
        self, m, T, s_c, s_th, s_s, s_e
    ):
        vc = VarianceComponents(s_c, s_th, s_s, s_e)
        S = (s_th + s_e / m) * np.eye(T) + (s_c + s_s / m) * np.ones((T, T))
        W = mean_precision(m, T, vc)
        np.testing.assert_allclose(W @ S, np.eye(T), atol=1e-9)

    def test_degenerate_residual_variance_raises(self):
        vc = VarianceComponents.from_rho(1.0, 1.0)
        with pytest.raises(DegenerateVarianceError):
            mean_precision(4, 3, vc)
        with pytest.raises(DegenerateVarianceError):
            treatment_covariance(
                Design(4, 2, 3, X("001", "011"), 2), vc
            )

    def test_information_matrix_is_sum_of_contributions(self, reference_vc):
        # The treatment block of the p x p information matrix is the sum
        # over rows of (Z_s'Z_s - gamma (Z_s'1)(1'Z_s)) / a.
        design = Design(8, 6, 6, REFERENCE_X, 3)
        Z, ZtZ, Zt1 = sequence_contributions(design.sequences(), 6, 3)
        np.testing.assert_array_equal(
            Z, design.X[:, :, None] >= np.array([1, 2])
        )
        s_c, s_th, s_s, s_e = reference_vc.as_tuple()
        a, b = s_th + s_e / 8, s_c + s_s / 8
        gamma = b / (a + 6 * b)
        block = (
            ZtZ.sum(axis=0)
            - gamma * np.einsum("si,sj->ij", Zt1, Zt1)
        ) / a
        np.testing.assert_allclose(
            information_matrix(design, reference_vc)[:2, :2], block,
            rtol=1e-12,
        )

    def test_contributions_are_read_only(self):
        for arr in sequence_contributions(((0, 1), (0, 0)), 2, 2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0


# ---------------------------------------------------------------------------
# Treatment-effect covariance
# ---------------------------------------------------------------------------


SMALL_CASES = [
    (2, 3, 3, X("001", "011", "000"), 2),
    (2, 2, 3, X("012", "001"), 3),
    (3, 2, 2, X("01", "00"), 2),
    (2, 4, 3, X("000", "011", "001", "111"), 2),
    (2, 2, 4, X("0012", "0122"), 3),
]


class TestTreatmentCovariance:
    @pytest.mark.parametrize("m,C,T,Xmat,D", SMALL_CASES)
    def test_matches_full_matrix_oracle(self, m, C, T, Xmat, D):
        design = Design(m, C, T, Xmat, D)
        vc = VarianceComponents(0.05, 0.02, 0.1, 0.83)
        got = treatment_covariance(design, vc).Lambda_q
        np.testing.assert_allclose(
            got, gls_lambda_q(design, vc), atol=1e-9
        )

    def test_info_is_inverse_diagonal(self, reference_design, reference_vc):
        summary = treatment_covariance(reference_design, reference_vc)
        np.testing.assert_allclose(
            summary.info, 1.0 / np.diag(summary.Lambda_q)
        )

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_row_permutation_invariance(self, seed, reference_vc):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(6)
        base = Design(4, 6, 6, REFERENCE_X, 3)
        shuffled = Design(4, 6, 6, REFERENCE_X[perm], 3)
        np.testing.assert_allclose(
            treatment_covariance(base, reference_vc).Lambda_q,
            treatment_covariance(shuffled, reference_vc).Lambda_q,
            rtol=1e-10,
        )

    def test_variance_decreases_with_m(self, reference_vc):
        variances = [
            treatment_covariance(
                Design(m, 6, 6, REFERENCE_X, 3), reference_vc
            ).Lambda_q[0, 0]
            for m in (2, 4, 8, 16)
        ]
        assert all(a > b for a, b in zip(variances, variances[1:]))

    def test_non_identifiable_names_columns(self, reference_vc):
        # No cluster ever receives arm 2: beta_2 cannot be estimated.
        design = Design(4, 3, 3, X("001", "011", "000"), 3)
        assert not is_identifiable(design, reference_vc)
        with pytest.raises(NonIdentifiableError, match="beta_2"):
            treatment_covariance(design, reference_vc)

    def test_identifiable_reference(self, reference_design, reference_vc):
        assert is_identifiable(reference_design, reference_vc)


# ---------------------------------------------------------------------------
# Closed-form kernel against the p x p information matrix, whole spaces
# ---------------------------------------------------------------------------


COHORT_VC = VarianceComponents(0.05, 0.02, 0.1, 0.83)


@pytest.mark.parametrize("vc", [VarianceComponents.from_rho(1.0, 0.05),
                                COHORT_VC], ids=["cross", "cohort"])
@pytest.mark.parametrize("T,C,m,D,names,equal", WHOLE_SPACES)
def test_kernel_matches_information_matrix_on_whole_space(
    T, C, m, D, names, equal, vc
):
    seqs = enumerate_sequences(
        T, D, [restriction_from_name(n) for n in names]
    )
    # Chunks of at most 97 candidates, so the larger spaces split.
    raw, counts, _ = scan_block(seqs, T, D, C, equal, cap=97)
    if not equal:
        assert len(counts) == comb(len(seqs) + C - 1, C)
    ident, sums = kernel_sums(raw, T, D - 1)
    Lambda = np.transpose(covariance_kernel(sums, T, m, vc), (2, 0, 1))
    M = gls_information(counts, seqs, m, T, D, vc)
    np.testing.assert_array_equal(ident, full_rank(M))
    assert ident.any()
    if "identifiable" not in names:
        assert not ident.all()
    want = np.linalg.inv(M[ident])[:, : D - 1, : D - 1]
    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
    assert (np.abs(Lambda - want) <= 1e-9 * scale).all()
    # One design per space through the public single-design path.
    k = int(np.nonzero(ident)[0][-1])
    rows = [s for s, c in zip(seqs, counts[k]) for _ in range(int(c))]
    design = Design(m, C, T, np.array(rows), D)
    assert is_identifiable(design, vc)
    oracle = gls_lambda_q(design, vc)
    np.testing.assert_allclose(
        treatment_covariance(design, vc).Lambda_q, oracle,
        rtol=0, atol=1e-9 * np.abs(oracle).max(),
    )


@pytest.mark.parametrize("T,C,m,D,names,equal", WHOLE_SPACES)
def test_identifiability_verdict_is_free_of_m_and_variances(
    T, C, m, D, names, equal
):
    # K = P - gamma Q is nonsingular exactly when P is, so the one verdict
    # of kernel_sums is the full-matrix rank verdict at every setting.
    seqs = enumerate_sequences(
        T, D, [restriction_from_name(n) for n in names]
    )
    raw, counts, _ = scan_block(seqs, T, D, C, equal)
    ident, _ = kernel_sums(raw, T, D - 1)
    assert ident.any()
    vcs = [VarianceComponents.from_rho(1.0, rho)
           for rho in (0.0, 0.05, 0.5, 0.999)] + [COHORT_VC]
    for vc in vcs:
        for size in (2, m, 50):
            np.testing.assert_array_equal(
                ident, full_rank(gls_information(counts, seqs, size, T, D, vc))
            )


@pytest.mark.parametrize("T,D,C", [(3, 2, 3), (3, 3, 3), (4, 3, 3),
                                   (4, 4, 2), (3, 4, 3), (5, 3, 2)])
def test_non_identifiable_message_names_the_first_collinear_arm(T, D, C):
    # Over every design of an unrestricted space: when the error names
    # beta_f, the p x p information restricted to [beta_1..beta_f, mu,
    # pi_2..pi_T] is rank deficient and without beta_f it is not; when the
    # kernel finds the design identifiable, the full matrix has full rank.
    seqs = np.array(enumerate_sequences(T, D, ()))
    combos = np.array(list(itertools.combinations_with_replacement(
        range(len(seqs)), C)))
    counts = np.zeros((len(combos), len(seqs)))
    np.add.at(counts, (np.arange(len(combos))[:, None], combos), 1.0)
    stats = sequence_statistics(sequence_contributions(seqs, T, D))
    ident, _ = kernel_sums(stats @ counts.T, T, D - 1)
    named = np.zeros(len(counts), dtype=int)
    for k in np.nonzero(~ident)[0]:
        rows = np.repeat(seqs, counts[k].astype(int), axis=0)
        with pytest.raises(NonIdentifiableError) as err:
            design_sums(Design(2, C, T, rows, D))
        named[k] = int(re.search(r"beta_(\d+)", str(err.value)).group(1))
    beta, nuisance = list(range(D - 1)), list(range(D - 1, D + T - 1))
    for vc in (VarianceComponents.from_rho(1.0, 0.05), COHORT_VC):
        M = gls_information(counts, seqs, 2, T, D, vc)
        assert full_rank(M[named == 0]).all()
        for f in range(1, D):
            def rank(cols):
                return full_rank(M[np.ix_(named == f, cols, cols)])
            assert not rank(beta[:f] + nuisance).any()
            assert rank(beta[:f - 1] + nuisance).all()


# ---------------------------------------------------------------------------
# Entry-vector kernel against LAPACK on random stacks
# ---------------------------------------------------------------------------


def _psd_stack(q, rng):
    """Symmetric PSD ``K`` stack, its scales and which members are which.

    Returns ``(K, scale, kind)`` with ``kind`` one of ``"random"`` (smallest
    eigenvalue at least 0.5), ``"singular"`` (exactly singular integer
    matrices, the first of them zero with zero scale like an all-control
    candidate), ``"above"`` and ``"below"`` (smallest eigenvalue at
    ``(1 +- 1e-3) * RANK_RTOL * scale``).
    """
    n = 60
    kinds = ["random"] * n + ["singular"] * n + ["above"] * n + ["below"] * n
    scale = rng.uniform(1.0, 40.0, len(kinds))
    scale[n] = 0.0
    K = np.empty((len(kinds), q, q))
    for k, kind in enumerate(kinds):
        if kind == "singular":
            B = rng.integers(-3, 4, (q, q - 1)).astype(float)
            K[k] = B @ B.T if scale[k] else 0.0
            continue
        vals = rng.uniform(0.5, 20.0, q)
        if kind != "random":
            vals[0] = RANK_RTOL * scale[k] * (1 + (1e-3 if kind == "above"
                                                   else -1e-3))
        V, _ = np.linalg.qr(rng.standard_normal((q, q)))
        M = (V * vals) @ V.T
        K[k] = 0.5 * (M + M.T)
    return K, scale, np.array(kinds)


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_entry_kernel_matches_lapack_on_random_stacks(q):
    K, scale, kind = _psd_stack(q, np.random.default_rng(q))
    vc, m, T = VarianceComponents.from_rho(1.0, 0.05), 4, 5
    # Raw sums with Zbar = 0, sum Z_s'Z_s = K, C = 1 and Zbar'1 = (scale,
    # 0, ...), whose (Zbar'1)(1'Zbar) / C cancels the Q block exactly: so
    # P = K, Q = 0 and the kernel's P - gamma Q is K itself.
    raw = np.zeros((q * (T + 2 * q + 1) + 1, len(K)))
    raw[q * T: q * (T + q)] = K.transpose(1, 2, 0).reshape(q * q, -1)
    raw[q * (T + q)] = scale * scale
    raw[q * (T + 2 * q)] = scale
    raw[-1] = 1.0
    # No division by a zero pivot, not even for the zero member.
    with np.errstate(all="raise"):
        ident, sums = kernel_sums(raw, T, q)
        assert not sums[1].any()
        Lambda = np.transpose(covariance_kernel(sums, T, m, vc), (2, 0, 1))
    want_ident = np.linalg.eigvalsh(K)[:, 0] > RANK_RTOL * scale
    np.testing.assert_array_equal(ident, want_ident)
    assert want_ident[kind == "above"].all()
    assert not want_ident[(kind == "below") | (kind == "singular")].any()
    want = _mean_variances(m, vc)[0] * np.linalg.inv(K[ident])
    err = np.abs(Lambda - want).max(axis=(1, 2))
    size = np.abs(want).max(axis=(1, 2))
    well = kind[ident] == "random"
    assert (err[well] <= 1e-12 * size[well]).all()
    # Near the threshold K has condition number ~1e9, so both inverses
    # carry forward errors of order cond * eps.
    cond = np.linalg.cond(K[ident])
    assert (err <= 1e-14 * cond * size).all()


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_determinant_matches_lapack_on_random_stacks(q):
    K, _, kind = _psd_stack(q, np.random.default_rng(10 + q))
    K = K[kind == "random"]
    want = np.linalg.det(K)
    assert (np.abs(determinant(K.transpose(1, 2, 0)) - want)
            <= 1e-12 * want).all()
    assert determinant(K[:0].transpose(1, 2, 0)).shape == (0,)


@pytest.mark.parametrize("D", [2, 3, 4])
def test_design_rows_sum_like_a_count_product(D):
    rng = np.random.default_rng(D)
    T, C, m = 5, 7, 3
    identifiable = 0
    for _ in range(20):
        # Seven clusters drawn from three sequences: rows repeat.
        Xm = rng.integers(0, D, (3, T))[rng.integers(0, 3, C)]
        design = Design(m, C, T, Xm, D)
        seqs, counts = np.unique(Xm, axis=0, return_counts=True)
        stats = sequence_statistics(sequence_contributions(seqs, T, D))
        raw = stats @ counts[:, None].astype(float)
        ident, sums = kernel_sums(raw, T, D - 1)
        Lambda = np.transpose(covariance_kernel(sums, T, m, COHORT_VC),
                              (2, 0, 1))
        assert is_identifiable(design, COHORT_VC) == ident[0]
        if ident[0]:
            identifiable += 1
            got = treatment_covariance(design, COHORT_VC).Lambda_q
            # Bit for bit the count-weighted product over distinct rows.
            want = 0.5 * (Lambda[0] + Lambda[0].T)
            assert got.tobytes() == want.tobytes()
    assert identifiable > 0


def test_search_paths_make_no_lapack_call(monkeypatch):
    # The quadrature nodes come from one eigvalsh call, cached for the
    # process; the search path itself must make none.
    inference._gauss_legendre()

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK call on the search path")

    monkeypatch.setattr("swdesign.model.np.linalg.eigvalsh", forbidden)
    monkeypatch.setattr("swdesign.model.np.linalg.inv", forbidden)
    monkeypatch.setattr("swdesign.model.np.linalg.det", forbidden)
    restrictions = (MonotoneNondecreasing(), Identifiable())
    vc = VarianceComponents.from_rho(1.0, 0.05)
    space = DesignSpace.budgeted([3, 4], [2, 3], 2, 12, 3, restrictions)
    res = search.exhaustive_search(
        space, vc, PowerSpec(alpha=0.05, beta=0.2, delta=[4.0, 3.0]),
        search.Objective(0.5, search.Eoptimal()),
    )
    assert res.status == "ok" and res.power is not None
    res = search.exhaustive_search(
        space, vc, PowerSpec(alpha=0.05, beta=1.0, delta=[]),
        search.Objective(0.0, search.Doptimal()),
    )
    assert res.status == "ok"
    res = search.cross_entropy_search(
        4, 5, 4, 4, restrictions, vc, search.Objective(0.0, search.Aoptimal()),
        PowerSpec(alpha=0.05, beta=1.0, delta=[]),
        search.CEParams(population_size=50, max_iterations=3),
    )
    assert res.best is not None
