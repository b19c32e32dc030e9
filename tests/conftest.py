"""Shared fixtures: frozen reference designs and comparison helpers."""

from __future__ import annotations

import numpy as np
import pytest


def X(*rows) -> np.ndarray:
    """Build an allocation matrix from strings of arm digits.

    Each argument is either a string like ``"000112"`` (one cluster's
    sequence) or a ``(string, count)`` pair for repeated rows.
    """
    out = []
    for row in rows:
        if isinstance(row, tuple):
            s, k = row
        else:
            s, k = row, 1
        out.extend([[int(ch) for ch in s]] * k)
    return np.array(out, dtype=int)


def row_multiset(X_arr) -> tuple:
    """Rows of an allocation matrix as a sorted tuple of tuples.

    Designs are compared up to row permutation because the treatment-effect
    covariance is invariant to cluster ordering.
    """
    return tuple(sorted(tuple(int(v) for v in row) for row in np.asarray(X_arr)))


# ---------------------------------------------------------------------------
# Reference design: the 6-cluster, 6-period, 3-arm trial of the worked example
# (8 measurements per cluster-period, exchangeable rho = 0.05).
# ---------------------------------------------------------------------------

REFERENCE_X = X(
    "000112", "000112", "001122", "001122", "011222", "011222"
)

# Two-arm cross-sectional optima (C=10, T=6, m=10) at six cluster-mean
# correlations E(rho).
TWO_ARM_OPTIMA = {
    0.10: X(("000000", 5), ("111111", 5)),
    0.15: X(("000000", 4), "000001", "011111", ("111111", 4)),
    0.30: X(("000000", 4), "000011", "001111", ("111111", 4)),
    0.45: X(("000000", 3), "000001", "000011", "001111", "011111",
            ("111111", 3)),
    0.75: X(("000000", 2), "000001", "000011", ("000111", 2), "001111",
            "011111", ("111111", 2)),
    0.90: X("000000", ("000001", 2), "000011", ("000111", 2), "001111",
            ("011111", 2), "111111"),
}

# Same space restricted to equal allocation across distinct sequences.
EQUAL_ALLOCATION_OPTIMA = {
    0.10: X(("000000", 5), ("111111", 5)),
    0.15: X(("000000", 5), ("111111", 5)),
    0.30: X(("000000", 5), ("111111", 5)),
    0.45: X(("000000", 2), ("000001", 2), ("000111", 2), ("011111", 2),
            ("111111", 2)),
}

# Two-arm cohort optima (C=10, T=6, m=10) under the start-on-control /
# end-on-treatment restriction, for eight (rho0, rho1, rho2) settings, with
# the published empirical and theoretical sequence proportions.
COHORT_CASES = [
    {
        "rhos": (0.050, 0.001, 0.250),
        "X": X(("000001", 4), "000011", "000111", "001111", ("011111", 3)),
        "p_emp": (0.4, 0.1, 0.1, 0.1, 0.3),
        "p_th": (0.30, 0.08, 0.08, 0.08, 0.30),
    },
    {
        "rhos": (0.050, 0.001, 0.500),
        "X": X(("000001", 3), "000011", ("000111", 2), "001111",
               ("011111", 3)),
        "p_emp": (0.3, 0.1, 0.2, 0.1, 0.3),
        "p_th": (0.24, 0.10, 0.10, 0.10, 0.24),
    },
    {
        "rhos": (0.050, 0.002, 0.250),
        "X": X(("000001", 4), "000011", "000111", "001111", ("011111", 3)),
        "p_emp": (0.4, 0.1, 0.1, 0.1, 0.3),
        "p_th": (0.29, 0.08, 0.08, 0.08, 0.29),
    },
    {
        "rhos": (0.050, 0.002, 0.500),
        "X": X(("000001", 3), "000011", ("000111", 2), "001111",
               ("011111", 3)),
        "p_emp": (0.3, 0.1, 0.2, 0.1, 0.3),
        "p_th": (0.24, 0.10, 0.10, 0.10, 0.24),
    },
    {
        "rhos": (0.100, 0.001, 0.250),
        "X": X(("000001", 4), "000011", "001111", ("011111", 4)),
        "p_emp": (0.4, 0.1, 0.0, 0.1, 0.4),
        "p_th": (0.32, 0.07, 0.07, 0.07, 0.32),
    },
    {
        "rhos": (0.100, 0.001, 0.500),
        "X": X(("000001", 3), "000011", ("000111", 2), "001111",
               ("011111", 3)),
        "p_emp": (0.3, 0.1, 0.2, 0.1, 0.3),
        "p_th": (0.26, 0.10, 0.10, 0.10, 0.26),
    },
    {
        "rhos": (0.100, 0.002, 0.250),
        "X": X(("000001", 4), "000011", "001111", ("011111", 4)),
        "p_emp": (0.4, 0.1, 0.0, 0.1, 0.4),
        "p_th": (0.31, 0.07, 0.07, 0.07, 0.31),
    },
    {
        "rhos": (0.100, 0.002, 0.500),
        "X": X(("000001", 3), "000011", ("000111", 2), "001111",
               ("011111", 3)),
        "p_emp": (0.3, 0.1, 0.2, 0.1, 0.3),
        "p_th": (0.26, 0.10, 0.10, 0.10, 0.26),
    },
]

# Cost-weighted optima over the three-arm budgeted space
# (T, C in 2..6, m*T <= 48).
COST_WEIGHTED_W0_X = X(
    "000001", "000011", "000112", "011222", "112222", "122222"
)
COST_WEIGHTED_W05_X = X(
    "00111", "00111", "11122", "11222", "22222", "22222"
)

# Same space with every cluster visiting every arm.
EVERY_ARM_D_W0_X = X(
    "000012", "000012", "000122", "001222", "012222", "012222"
)
EVERY_ARM_AE_W05_X = X(
    "000012", "000012", "001122", "011222", "012222", "012222"
)

# Three-arm E-criterion optima (C=6, T=6, m=8) at four cluster-mean
# correlations.
THREE_ARM_E_OPTIMA = {
    0.05: X("000000", "000001", ("111111", 2), "122222", "222222"),
    0.20: X("000000", "000011", "001111", "111122", "112222", "222222"),
    0.50: X("000001", "000011", "001112", "011122", "112222", "122222"),
    0.90: X("000001", "000011", "000122", "001222", "112222", "122222"),
}

# Three-arm D-criterion optimum at E(rho) = 0.15 and A-criterion optimum at
# E(rho) = 0.50, same (C=6, T=6, m=8) space.
THREE_ARM_D_015_X = X(
    "000000", "000001", "011111", "111112", "122222", "222222"
)
THREE_ARM_A_050_X = X(
    "000001", "000011", "001112", "011122", "112222", "122222"
)

# The eleven two-arm designs (C=10, T=6) that are optimal somewhere on the
# (sigma2_c, sigma2_eps) sensitivity grid.
SENSITIVITY_DESIGNS = [
    X(("000000", 4), "000011", "011111", ("111111", 4)),
    X(("000000", 2), "000001", "000011", ("000111", 2), "001111", "011111",
      ("111111", 2)),
    X("000000", ("000001", 2), "000011", ("000111", 2), "001111",
      ("011111", 2), "111111"),
    X("000000", "000001", ("000011", 2), ("000111", 2), "001111",
      ("011111", 2), "111111"),
    X(("000000", 4), "000001", "011111", ("111111", 4)),
    X(("000000", 2), "000001", "000011", "000111", "001111", "011111",
      ("111111", 3)),
    X("000000", ("000001", 2), "000011", "000111", ("001111", 2), "011111",
      ("111111", 2)),
    X(("000000", 5), ("111111", 5)),
    X(("000000", 3), "000001", "000011", "001111", "011111", ("111111", 3)),
    X(("000000", 3), "000001", "000011", "001111", ("111111", 4)),
    X(("000000", 4), "000011", "001111", ("111111", 4)),
]

#: The parallel design and the heavily staggered design used for the
#: variance-ratio maps.
PARALLEL_X = SENSITIVITY_DESIGNS[7]
STAGGERED_X = SENSITIVITY_DESIGNS[2]


#: Whole spaces small enough for full-matrix oracles, q = 1..3:
#: ``(T, C, m, D, restriction names, equal allocation)``.
WHOLE_SPACES = [
    (3, 3, 2, 2, (), False),
    (4, 4, 5, 2, ("monotone",), False),
    (3, 4, 3, 2, (), True),
    (3, 3, 4, 3, ("monotone", "identifiable"), False),
    (3, 2, 2, 3, (), False),
    (4, 6, 2, 3, ("monotone",), True),
    (3, 3, 3, 4, ("monotone",), False),
    (3, 2, 2, 4, (), False),
]


@pytest.fixture(scope="session")
def reference_design():
    from swdesign import Design

    return Design(8, 6, 6, REFERENCE_X, 3)


@pytest.fixture(scope="session")
def reference_vc():
    from swdesign import VarianceComponents

    return VarianceComponents.from_rho(1.0, 0.05)
