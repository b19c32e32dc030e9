"""Linear mixed model matrices and treatment-effect covariance.

A multi-arm stepped-wedge trial observes ``m`` individuals in each of ``C``
clusters during each of ``T`` periods.  The outcome of individual ``k`` in
cluster ``i`` during period ``j`` is modelled as

    y_ijk = mu + pi_j + sum_d beta_d * 1{X_ij >= d} + c_i + theta_ij + s_ik + eps_ijk

where ``X`` is the C x T allocation matrix with entries in ``{0, ..., D-1}``,
``c_i`` is a cluster random effect, ``theta_ij`` a cluster-period effect,
``s_ik`` an individual effect (cohort studies) and ``eps_ijk`` residual noise.
The quantities of design interest are the generalized-least-squares covariance
``Lambda`` of the fixed-effect estimators and in particular its leading
``q x q`` block for the ``q = D - 1`` treatment effects.

Because the covariates are constant within a cluster-period cell, the
cluster-period means, with covariance ``S = a I + b J``, are sufficient for
the fixed effects.  Every cluster shares the nuisance block
``[mu, pi_2..pi_T]``, so :func:`covariance_kernel` eliminates it in closed
form and a search over millions of allocation matrices inverts only
``q x q`` matrices, entry by entry on vectors over the candidates and with
no LAPACK call.  The ``p x p`` information matrix and the explicit
observation-level matrices it replaces are references in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "Design",
    "VarianceComponents",
    "CovarianceSummary",
    "DegenerateVarianceError",
    "NonIdentifiableError",
    "treatment_covariance",
    "is_identifiable",
    "sequence_contributions",
    "sequence_statistics",
    "kernel_sums",
    "design_sums",
    "covariance_kernel",
    "determinant",
]

#: Shift of Sylvester's test on ``P`` (:func:`kernel_sums`), relative to
#: the candidate's ``scale``: a design is identifiable when every LDL'
#: pivot of ``P - RANK_RTOL * scale * I`` is positive.
RANK_RTOL = 1e-8


class DegenerateVarianceError(ValueError):
    """Raised when the marginal covariance matrix is singular."""


class NonIdentifiableError(ValueError):
    """Raised when a design cannot identify all fixed effects."""


@dataclass(frozen=True)
class Design:
    """A trial design ``{m, C, T, X}`` with ``D`` intervention arms.

    Parameters
    ----------
    m : int
        Measurements per cluster per period (``m >= 2``).
    C : int
        Number of clusters (``C >= 2``).
    T : int
        Number of periods (``T >= 2``).
    X : numpy.ndarray
        ``C x T`` integer matrix; ``X[i, j]`` is the arm cluster ``i``
        receives in period ``j``, a label in ``{0, ..., D - 1}``.
    D : int
        Number of arms including control (``D >= 2``).
    """

    m: int
    C: int
    T: int
    X: np.ndarray
    D: int

    def __post_init__(self):
        X = np.asarray(self.X, dtype=int)
        object.__setattr__(self, "X", X)
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.C < 2:
            raise ValueError(f"C must be >= 2, got {self.C}")
        if self.T < 2:
            raise ValueError(f"T must be >= 2, got {self.T}")
        if self.D < 2:
            raise ValueError(f"D must be >= 2, got {self.D}")
        if X.shape != (self.C, self.T):
            raise ValueError(
                f"X has shape {X.shape}, expected ({self.C}, {self.T})"
            )
        if X.min() < 0 or X.max() > self.D - 1:
            raise ValueError(
                f"X entries must lie in [0, {self.D - 1}], found range "
                f"[{X.min()}, {X.max()}]"
            )

    @property
    def q(self) -> int:
        """Number of treatment effects, ``D - 1``."""
        return self.D - 1

    @property
    def p(self) -> int:
        """Number of fixed effects, ``(D - 1) + 1 + (T - 1)``."""
        return self.D + self.T - 1

    def sequences(self) -> tuple[tuple[int, ...], ...]:
        """Rows of ``X`` as a tuple of integer tuples."""
        return tuple(tuple(int(v) for v in row) for row in self.X)

    def canonical(self) -> "Design":
        """Return the design with rows of ``X`` sorted lexicographically."""
        rows = sorted(self.sequences())
        return Design(self.m, self.C, self.T, np.array(rows, dtype=int), self.D)


@dataclass(frozen=True)
class VarianceComponents:
    """Variance components of the mixed model, all in outcome-variance units.

    Attributes
    ----------
    sigma2_c : float
        Between-cluster variance.
    sigma2_theta : float
        Cluster-period interaction variance.
    sigma2_s : float
        Between-individual (within cluster) variance; zero for
        cross-sectional studies.
    sigma2_eps : float
        Residual variance.
    """

    sigma2_c: float = 0.0
    sigma2_theta: float = 0.0
    sigma2_s: float = 0.0
    sigma2_eps: float = 1.0

    def __post_init__(self):
        for name in ("sigma2_c", "sigma2_theta", "sigma2_s", "sigma2_eps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.sigma2 <= 0:
            raise ValueError("total variance must be positive")

    @property
    def sigma2(self) -> float:
        """Total outcome variance."""
        return (
            self.sigma2_c + self.sigma2_theta + self.sigma2_s + self.sigma2_eps
        )

    @property
    def rho0(self) -> float:
        """Within-period correlation of two individuals in a cluster."""
        return (self.sigma2_c + self.sigma2_theta) / self.sigma2

    @property
    def rho1(self) -> float:
        """Between-period correlation of two individuals in a cluster."""
        return self.sigma2_c / self.sigma2

    @property
    def rho2(self) -> float:
        """Between-period correlation of one individual with itself."""
        return (self.sigma2_c + self.sigma2_s) / self.sigma2

    @property
    def cross_sectional(self) -> bool:
        """True when no individual effect is present."""
        return self.sigma2_s == 0

    @classmethod
    def from_rho(cls, sigma2: float, rho: float) -> "VarianceComponents":
        """Exchangeable shorthand: one intra-cluster correlation ``rho``.

        Expands to ``sigma2_c = rho * sigma2`` and
        ``sigma2_eps = (1 - rho) * sigma2`` with the period and individual
        components zero, so ``rho0 = rho1 = rho2 = rho``.
        """
        if not 0 <= rho <= 1:
            raise ValueError(f"rho must lie in [0, 1], got {rho}")
        return cls(
            sigma2_c=rho * sigma2,
            sigma2_theta=0.0,
            sigma2_s=0.0,
            sigma2_eps=(1.0 - rho) * sigma2,
        )

    @classmethod
    def from_correlations(
        cls, sigma2: float, rho0: float, rho1: float, rho2: float
    ) -> "VarianceComponents":
        """Build components from ``(sigma2, rho0, rho1, rho2)``.

        Inverts ``rho0 = (s_c + s_th) / s2``, ``rho1 = s_c / s2`` and
        ``rho2 = (s_c + s_s) / s2``.
        """
        s_c = rho1 * sigma2
        s_th = (rho0 - rho1) * sigma2
        s_s = (rho2 - rho1) * sigma2
        s_e = sigma2 - s_c - s_th - s_s
        if min(s_c, s_th, s_s, s_e) < -1e-12:
            raise ValueError(
                f"correlations (rho0={rho0}, rho1={rho1}, rho2={rho2}) imply "
                "a negative variance component"
            )
        return cls(max(s_c, 0.0), max(s_th, 0.0), max(s_s, 0.0), max(s_e, 0.0))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.sigma2_c, self.sigma2_theta, self.sigma2_s, self.sigma2_eps)


@dataclass(frozen=True)
class CovarianceSummary:
    """Covariance of the treatment-effect estimators.

    Attributes
    ----------
    Lambda_q : numpy.ndarray
        ``q x q`` covariance of ``(beta_1_hat, ..., beta_q_hat)``.
    info : numpy.ndarray
        Length-``q`` information levels, ``info[f] = 1 / Lambda_q[f, f]``.
    q : int
        Number of treatment effects.
    """

    Lambda_q: np.ndarray
    info: np.ndarray
    q: int


def _mean_variances(m: int, vc: VarianceComponents) -> tuple[float, float]:
    """``(a, b)`` of the period-mean covariance ``S = a I + b J``."""
    s_c, s_th, s_s, s_e = vc.as_tuple()
    if s_e <= 0:
        raise DegenerateVarianceError(
            "sigma2_eps must be positive: the marginal covariance is singular "
            "when the residual variance vanishes (e.g. rho = 1 exactly)"
        )
    return s_th + s_e / m, s_c + s_s / m


@lru_cache(maxsize=256)
def _cached_contributions(
    seqs: tuple[tuple[int, ...], ...], T: int, D: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rows = np.array(seqs, dtype=int).reshape(len(seqs), T)
    Z = (rows[:, :, None] >= np.arange(1, D)).astype(float)
    out = (Z, Z.transpose(0, 2, 1) @ Z, Z.sum(axis=1))
    for arr in out:
        arr.setflags(write=False)
    return out


def sequence_contributions(
    seqs, T: int, D: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only per-sequence statistics ``(Z_s, Z_s'Z_s, Z_s'1)``.

    ``Z_s`` is the ``T x q`` block of nested arm indicators ``1{s_j >= d}``.
    The stacks (``n x T x q``, ``n x q x q``, ``n x q``) depend on neither
    ``m`` nor the variances and are memoized on ``(seqs, T, D)``: a search
    builds huge numbers of candidates from the same sequence pool.
    """
    key = tuple(tuple(int(v) for v in s) for s in seqs)
    return _cached_contributions(key, T, D)


def sequence_statistics(contributions) -> np.ndarray:
    """``F x n`` per-sequence statistics whose column sums give kernel sums.

    Column ``s`` stacks ``Z_s'`` (``q * T`` entries), ``Z_s'Z_s`` and
    ``(Z_s'1)(1'Z_s)`` (``q * q`` each), ``Z_s'1`` (``q``) and a one, from
    :func:`sequence_contributions`.  Every entry is a small integer, so any
    sum of columns is exact in float64 whatever its order: a candidate's
    raw sums are the same bits however they are accumulated.
    """
    Z, ZtZ, Zt1 = contributions
    n, T, q = Z.shape
    return np.concatenate([
        Z.transpose(0, 2, 1).reshape(n, q * T),
        ZtZ.reshape(n, q * q),
        (Zt1[:, :, None] * Zt1[:, None, :]).reshape(n, q * q),
        Zt1,
        np.ones((n, 1)),
    ], axis=1).T.copy()


def kernel_sums(raw: np.ndarray, T: int, q: int):
    """Identifiability and ``m``- and variance-free sums of candidates.

    Column ``k`` of ``raw`` sums the :func:`sequence_statistics` columns of
    candidate ``k``'s rows, so it holds ``Zbar = sum_s c_s Z_s``,
    ``sum_s c_s Z_s'Z_s``, ``sum_s c_s (Z_s'1)(1'Z_s)``, ``Zbar'1`` and
    ``C = sum_s c_s`` for the multiplicities ``c_s`` of its sequences.  Then

        P = sum_s c_s Z_s'Z_s - Zbar'Zbar / C
        Q = sum_s c_s (Z_s'1)(1'Z_s) - (Zbar'1)(1'Zbar) / C

    The kernel's ``K = P - gamma Q`` weighs the centred indicator stack by
    ``I - gamma 11'``, positive definite as ``gamma = b / (a + T b) < 1/T``,
    so whatever ``m`` and the variances ``K`` is nonsingular exactly when
    ``P`` is.  A candidate is identifiable when the smallest eigenvalue of
    ``P`` exceeds ``RANK_RTOL * scale``, with ``scale`` the entry sum of
    ``Zbar`` (``tr(sum_s c_s Z_s'Z_s)`` for 0/1 ``Z_s``, meaningful at
    ``q = 1`` unlike the largest eigenvalue): Sylvester's criterion on
    ``P - RANK_RTOL * scale * I``, with no eigenvalue solver.

    Returns the length-``k`` mask ``ident`` and the ``(P, Q)`` of the
    identifiable candidates as ``q x q x k'`` arrays of entry vectors
    (``P[i, j]`` is the vector of entry ``(i, j)``), copies that keep no
    reference to the overwritten ``raw``.
    """
    P, Q, shift = _centred(raw, T, q)
    ident = reduce(np.logical_and, (d > 0 for d in _pivots(P, shift)))
    return ident, (P[:, :, ident], Q[:, :, ident])


def _centred(raw: np.ndarray, T: int, q: int):
    """``P``, ``Q`` and the shift ``RANK_RTOL * scale`` of :func:`kernel_sums`.

    ``P`` and ``Q`` are centred in place in ``raw``: each entry ``i <= j``
    of the ``1 / C`` corrections takes one product and is mirrored.
    """
    Zbar = raw[: q * T].reshape(q, T, -1)
    P = raw[q * T: q * (T + q)].reshape(q, q, -1)
    Q = raw[q * (T + q): q * (T + 2 * q)].reshape(q, q, -1)
    Zbar1, C = raw[q * (T + 2 * q): -1], raw[-1]
    for i in range(q):
        for j in range(i, q):
            P[i, j] -= np.einsum("tk,tk->k", Zbar[i], Zbar[j]) / C
            Q[i, j] -= Zbar1[i] * Zbar1[j] / C
            if j > i:
                P[j, i], Q[j, i] = P[i, j], Q[i, j]
    return P, Q, RANK_RTOL * Zbar1.sum(axis=0)


def _pivots(K, shift=0.0):
    """The LDL' pivots of ``K - shift I`` for ``q x q`` entry vectors ``K``.

    ``K[i][j]`` is the vector of entry ``(i, j)`` over the candidates.  The
    elimination reads and writes the upper triangle only.  After its first
    pivot that is not positive a candidate divides by one, so its later
    pivots stay finite.
    """
    q = len(K)
    A = [[K[i][j] - shift if i == j else K[i][j] for j in range(q)]
         for i in range(q)]
    ok = True
    for j in range(q):
        yield A[j][j]
        if j + 1 < q:
            ok = ok & (A[j][j] > 0)
            inv = 1.0 / np.where(ok, A[j][j], 1.0)
            for i in range(j + 1, q):
                f = A[j][i] * inv
                for c in range(i, q):
                    A[i][c] = A[i][c] - f * A[j][c]


def determinant(Lambda) -> np.ndarray:
    """Determinants of positive definite ``q x q`` entry vectors ``Lambda``.

    The product of the LDL' pivots, eliminated entry by entry on vectors
    over the candidates: no row exchanges are needed and no LAPACK call is
    made.
    """
    return reduce(np.multiply, _pivots(Lambda))


def covariance_kernel(sums, T: int, m: int, vc: VarianceComponents) -> list:
    """Batched ``Lambda_q`` at one ``(m, vc)`` from :func:`kernel_sums`.

    Eliminating ``[mu, pi_2..pi_T]`` gives ``Lambda_q = a (P - gamma Q)^-1``
    with ``gamma = b / (a + T b)`` (the multi-arm form of Hussey & Hughes,
    2007).  ``K = P - gamma Q`` of an identifiable candidate is positive
    definite, so it is inverted by Gauss-Jordan elimination in its
    symmetric form (the sweep operator) entry by entry on vectors over the
    candidates, with no LAPACK call: each pivot in turn is eliminated from
    the upper triangle in place, no pivoting is needed, and after the last
    sweep the upper triangle holds ``-K^-1``.

    Returns ``Lambda_q`` as ``q x q`` entry vectors: ``Lambda[i][j]`` is the
    vector of entry ``(i, j)`` over the candidates, the same array as
    ``Lambda[j][i]``.  No ``k x q x q`` stack is formed.
    """
    P, Q = sums
    a, b = _mean_variances(m, vc)
    gamma = b / (a + T * b)
    q = P.shape[0]
    A = [[P[i, j] - gamma * Q[i, j] if j >= i else None for j in range(q)]
         for i in range(q)]
    for p in range(q):
        d = 1.0 / A[p][p]
        old = [A[min(i, p)][max(i, p)] for i in range(q)]
        col = [v * d for v in old]
        for i in range(q):
            for j in range(i, q):
                if p not in (i, j):
                    A[i][j] = A[i][j] - col[i] * old[j]
        for i in range(q):
            A[min(i, p)][max(i, p)] = col[i]
        A[p][p] = -d
    for i in range(q):
        for j in range(i, q):
            A[i][j] *= -a
    return [[A[min(i, j)][max(i, j)] for j in range(q)] for i in range(q)]


def _design_sums(design: Design):
    """``(f, (P, Q))`` of one design from its rows' statistics.

    The raw sums add the :func:`sequence_statistics` columns of all ``C``
    rows, repeats included, as the searches gather a candidate's.  ``f`` is
    the first arm whose pivot in :func:`kernel_sums`' identifiability test
    is not positive, or ``None``.
    """
    stats = sequence_statistics(
        sequence_contributions(design.X, design.T, design.D)
    )
    P, Q, shift = _centred(stats.sum(axis=1, keepdims=True), design.T,
                           design.q)
    bad = (f for f, d in enumerate(_pivots(P, shift), 1) if not d[0] > 0)
    return next(bad, None), (P, Q)


def is_identifiable(design: Design, vc: VarianceComponents) -> bool:
    """Whether the design identifies every fixed effect.

    The nuisance effects are always estimable, so this is whether the
    ``P`` of :func:`kernel_sums` is nonsingular, whatever ``vc``.
    """
    return _design_sums(design)[0] is None


def design_sums(design: Design):
    """:func:`kernel_sums` of one design, for :func:`covariance_kernel`.

    They depend on neither ``m`` nor the variances, so a caller that needs
    the design's ``Lambda_q`` at many settings takes them once.  Raises
    :class:`NonIdentifiableError` naming ``beta_f``, the first arm whose
    pivot in the identifiability test is not positive: the nuisance effects
    are always estimable, so it is collinear with them and the lower arms.
    """
    f, sums = _design_sums(design)
    if f is not None:
        raise NonIdentifiableError(
            f"design cannot identify beta_{f}: it is collinear with the "
            "period effects and the lower arms"
        )
    return sums


def treatment_covariance(
    design: Design, vc: VarianceComponents
) -> CovarianceSummary:
    """Covariance ``Lambda_q`` of the treatment-effect estimators.

    The generalized-least-squares covariance of the ``q = D - 1`` treatment
    effects (:func:`covariance_kernel` on :func:`design_sums`) with the
    per-effect information levels ``1 / Lambda_q[f, f]``; invariant to the
    order of the clusters.

    Raises
    ------
    NonIdentifiableError
        If the design is not identifiable; the message names the first arm
        it cannot identify (:func:`design_sums`).
    DegenerateVarianceError
        If the residual variance is zero (singular marginal covariance).
    """
    sums = design_sums(design)
    Lambda = covariance_kernel(sums, design.T, design.m, vc)
    Lambda_q = np.array([[v[0] for v in row] for row in Lambda])
    return CovarianceSummary(
        Lambda_q=Lambda_q, info=1.0 / np.diag(Lambda_q), q=design.q
    )
