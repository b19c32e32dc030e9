"""Closed-form design quantities for two-arm stepped-wedge trials.

These formulas give fast cross-checks for the search engine: the
intra-cluster correlation of cluster-period means, the continuous-relaxation
optimum number of distinct treatment sequences, theoretical optimal
allocation proportions for cohort designs restricted to classical
stepped-wedge sequences, and a plug-in residual variance for binary
outcomes analysed on cluster-period proportions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "LiProportions",
    "cluster_mean_correlation",
    "rho_from_E",
    "optimal_sequence_count",
    "li_optimal_proportions",
    "empirical_proportions",
    "binary_residual_variance",
]


@dataclass(frozen=True)
class LiProportions:
    """Theoretical optimal allocation proportions over classical sequences.

    For two-arm designs restricted to the sequences with ``t`` treatment
    periods preceded by ``T - t`` control periods (``t = 1..T-1``), the
    optimal proportion of clusters on each sequence has the closed form
    carried by this record.

    Attributes
    ----------
    p : tuple of float
        Length ``T - 1``; ``p[t-1]`` is the proportion of clusters on the
        sequence with ``t`` treatment periods.
    psi, xi, gamma : float
        The intermediate constants of the closed form.
    """

    p: tuple[float, ...]
    psi: float
    xi: float
    gamma: float


def cluster_mean_correlation(m: int, T: int, rho: float) -> float:
    """Intra-cluster correlation of cluster-period means.

    For an exchangeable within-cluster correlation ``rho`` over ``mT``
    observations, the means correlate as ``m T rho / (1 + (m T - 1) rho)``.
    """
    if not 0 <= rho <= 1:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    n = m * T
    return float(n * rho / (1.0 + (n - 1) * rho))


def rho_from_E(m: int, T: int, E: float) -> float:
    """Inverse of :func:`cluster_mean_correlation` at fixed ``m`` and ``T``."""
    if not 0 <= E <= 1:
        raise ValueError(f"E must lie in [0, 1], got {E}")
    n = m * T
    return float(E / (n - (n - 1) * E))


def optimal_sequence_count(E: float) -> float:
    """Continuous-optimal number of distinct sequences, ``1 / (1 - sqrt(E))``.

    ``E`` is the cluster-mean correlation; as it grows, staggering clusters
    over more distinct crossover times pays off.
    """
    if not 0 <= E < 1:
        raise ValueError(f"E must lie in [0, 1), got {E}")
    return float(1.0 / (1.0 - math.sqrt(E)))


def li_optimal_proportions(
    m: int, T: int, rho0: float, rho1: float, rho2: float
) -> LiProportions:
    """Theoretical optimal proportions of clusters per classical sequence.

    The closed form uses

        psi   = 1 + (m - 1) rho0 - (m - 1) rho1 - rho2
        xi    = (m - 1) rho1 + rho2
        gamma = psi + T xi

    with ``p_1 = p_{T-1} = (psi + 3 xi) / (2 gamma)`` and every interior
    proportion equal to ``xi / gamma``.  The proportions always sum to one
    since ``(psi + 3 xi) + (T - 3) xi = gamma``.
    """
    for name, val in (("rho0", rho0), ("rho1", rho1), ("rho2", rho2)):
        if not 0 <= val <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {val}")
    if T < 3:
        raise ValueError("T must be >= 3 for distinct boundary proportions")
    psi = 1.0 + (m - 1) * rho0 - (m - 1) * rho1 - rho2
    xi = (m - 1) * rho1 + rho2
    gamma = psi + T * xi
    if gamma == 0:
        raise ValueError("gamma vanished; the proportions are undefined")
    end = (psi + 3 * xi) / (2 * gamma)
    p = (end, *[xi / gamma] * (T - 3), end)
    return LiProportions(p=p, psi=psi, xi=xi, gamma=gamma)


def empirical_proportions(X) -> np.ndarray:
    """Observed proportion of clusters on each classical sequence.

    ``X`` must be a two-arm allocation matrix whose every row consists of
    ``T - t`` control periods followed by ``t`` treatment periods with
    ``1 <= t <= T - 1``.  Returns the fractions of rows at each ``t``.
    """
    # Only this function reads a matrix, so only it loads numpy.
    import numpy as np

    X = np.asarray(X, dtype=int)
    C, T = X.shape
    out = np.zeros(T - 1)
    for row in X:
        ones = int(row.sum())
        expected = np.concatenate(
            [np.zeros(T - ones, dtype=int), np.ones(ones, dtype=int)]
        )
        if ones < 1 or ones > T - 1 or not np.array_equal(row, expected):
            raise ValueError(
                f"row {row.tolist()} is not a classical sequence (a block "
                "of 0s followed by a nonempty, proper block of 1s)"
            )
        out[ones - 1] += 1
    return out / C


def binary_residual_variance(p_bar: float) -> float:
    """Plug-in residual variance for binary outcomes, ``1 / (p (1 - p))``.

    For a binary endpoint with anticipated mean ``p_bar``, a cluster-period
    proportion has variance ``p_bar (1 - p_bar) / m``; modelling the
    proportions as continuous with residual variance ``1 / (p_bar (1 -
    p_bar))`` (scaled by ``1 / m`` by the caller, e.g. running the model at
    the cluster-period level) mimics that scale.  This is an approximation;
    its accuracy for a specific trial should be confirmed by simulation.
    """
    if not 0 < p_bar < 1:
        raise ValueError(f"p_bar must lie strictly in (0, 1), got {p_bar}")
    return float(1.0 / (p_bar * (1.0 - p_bar)))
