"""Reference model for the tests: the full ``p x p`` GLS information.

The package reduces a design to the ``q x q`` kernel of
:func:`swdesign.model.covariance_kernel`.  These builders keep every fixed
effect ``[beta_1..beta_{D-1}, mu, pi_2..pi_T]``; the kernel, its
identifiability verdict and its error message are checked against them.
"""

from __future__ import annotations

import numpy as np

from swdesign.model import RANK_RTOL, _mean_variances


def sequence_block(seq, T: int, D: int) -> np.ndarray:
    """``T x p`` cell-level design block of one treatment sequence.

    Columns are ``[beta_1..beta_{D-1}, mu, pi_2..pi_T]``.
    """
    arms = np.asarray(seq, dtype=int)[:, None] >= np.arange(1, D)
    return np.hstack([arms, np.ones((T, 1)), np.eye(T)[:, 1:]])


def cluster_covariance(m: int, T: int, vc) -> np.ndarray:
    """Marginal covariance ``V`` of one cluster's ``mT`` observations.

    Observations are ordered period-major: index ``j * m + k`` is individual
    ``k`` in period ``j``.  The entry for observations ``(j, k)`` and
    ``(j', k')`` is ``s_c + 1{j=j'} s_th + 1{k=k'} s_s + 1{j=j', k=k'} s_e``,
    so ``V = (s_c J + s_th I) (x) J_m + (s_s J + s_e I) (x) I_m``.
    """
    s_c, s_th, s_s, s_e = vc.as_tuple()
    I, J = np.eye(T), np.ones((T, T))
    return (np.kron(s_c * J + s_th * I, np.ones((m, m)))
            + np.kron(s_s * J + s_e * I, np.eye(m)))


def mean_precision(m: int, T: int, vc) -> np.ndarray:
    """Precision ``S^-1`` of a cluster's period means, in closed form.

    ``S = a I + b J`` with ``a = s_th + s_e / m`` and ``b = s_c + s_s / m``;
    a cluster's information contribution is ``B^T S^-1 B``.
    """
    a, b = _mean_variances(m, vc)
    return (np.eye(T) - (b / (a + T * b)) * np.ones((T, T))) / a


def information_matrix(design, vc) -> np.ndarray:
    """``p x p`` information ``sum_i B_i^T S^-1 B_i`` from the period means."""
    W = mean_precision(design.m, design.T, vc)
    B = np.stack([sequence_block(seq, design.T, design.D)
                  for seq in design.sequences()])
    return np.einsum("ctp,tu,cuq->pq", B, W, B)


def gls_information(counts, seqs, m: int, T: int, D: int, vc) -> np.ndarray:
    """``k x p x p`` observation-level information of ``k`` candidates.

    Row ``i`` of ``counts`` holds candidate ``i``'s multiplicity of each of
    ``seqs``.  A sequence contributes ``A' V^-1 A``, with ``A`` its
    :func:`sequence_block` repeated for the ``m`` individuals of each period
    and ``V`` the explicit :func:`cluster_covariance`.
    """
    Vinv = np.linalg.inv(cluster_covariance(m, T, vc))
    A = [np.kron(sequence_block(s, T, D), np.ones((m, 1))) for s in seqs]
    return np.tensordot(counts, np.stack([a.T @ Vinv @ a for a in A]), 1)


def gls_lambda_q(design, vc) -> np.ndarray:
    """``Lambda_q`` of one design from its :func:`gls_information`."""
    M = gls_information([[1] * design.C], design.sequences(), design.m,
                        design.T, design.D, vc)[0]
    return np.linalg.inv(M)[: design.q, : design.q]


def full_rank(M) -> np.ndarray:
    """Whether ``min eig > RANK_RTOL * max eig`` for each matrix of ``M``."""
    vals = np.linalg.eigvalsh(M)
    return vals[..., 0] > vals[..., -1] * RANK_RTOL
