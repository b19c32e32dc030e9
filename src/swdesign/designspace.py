"""Constrained design spaces and their enumeration.

A design space couples candidate period counts ``T``, cluster counts ``C``
(possibly depending on ``T``), cluster-period sizes ``m`` (possibly depending
on ``(C, T)``) and a set of restrictions on the allocation matrix ``X``.
Restrictions that act row by row (monotone progression, visiting every arm,
a whitelist of allowed sequences) are pushed into sequence enumeration;
matrix-level restrictions (identifiability, equal allocation across
sequences) are applied as filters.

Allocation matrices are searched in canonical form with rows sorted
lexicographically: the treatment-effect covariance is invariant to cluster
ordering, so designs whose rows agree as multisets are equivalent and only
one representative is visited (:mod:`swdesign.search` enumerates them).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Restriction",
    "MonotoneNondecreasing",
    "Identifiable",
    "AllInterventionsPerCluster",
    "EqualSequenceAllocation",
    "StartControlEndTreatment",
    "CustomPredicate",
    "restriction_from_name",
    "DesignSpace",
    "equal_allocation",
    "enumerate_sequences",
]


class Restriction:
    """Base class for allocation-matrix restrictions."""

    name: str = ""


@dataclass(frozen=True)
class MonotoneNondecreasing(Restriction):
    """Clusters never move back to an earlier arm: ``X[i, j] >= X[i, j-1]``."""

    name: str = field(default="monotone", init=False)

    def row_ok(self, row, D: int) -> bool:
        return all(row[j] >= row[j - 1] for j in range(1, len(row)))


@dataclass(frozen=True)
class Identifiable(Restriction):
    """Only designs whose information matrix has full rank are admitted."""

    name: str = field(default="identifiable", init=False)


@dataclass(frozen=True)
class AllInterventionsPerCluster(Restriction):
    """Every cluster receives every arm ``0..D-1`` at some point."""

    name: str = field(default="all-interventions", init=False)

    def row_ok(self, row, D: int) -> bool:
        return set(row) == set(range(D))


@dataclass(frozen=True)
class EqualSequenceAllocation(Restriction):
    """Rows split into equally sized groups of identical sequences.

    Each distinct sequence used must appear the same number ``a`` of times,
    with ``C / a`` an integer.
    """

    name: str = field(default="equal-allocation", init=False)


@dataclass(frozen=True)
class StartControlEndTreatment(Restriction):
    """Every cluster starts on control and ends on the last arm."""

    name: str = field(default="start-control-end-treatment", init=False)

    def row_ok(self, row, D: int) -> bool:
        return row[0] == 0 and row[-1] == D - 1


@dataclass(frozen=True)
class CustomPredicate(Restriction):
    """Whitelist of allowed per-cluster sequences.

    Attributes
    ----------
    label : str
        Display name of the predicate.
    allowed : tuple of tuple of int
        The admissible sequences.
    """

    label: str
    allowed: tuple[tuple[int, ...], ...]

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"custom:{self.label}"

    def row_ok(self, row, D: int) -> bool:
        return tuple(row) in self.allowed


def equal_allocation(counts) -> np.ndarray:
    """Mask of the count vectors (last axis) whose nonzero entries are equal.

    Entry ``s`` of a count vector is the multiplicity of sequence ``s`` in
    one allocation matrix; :class:`EqualSequenceAllocation` admits the
    matrix when every sequence it uses appears equally often.
    """
    counts = np.asarray(counts)
    # Nonzero counts sum to at most the top count times their number, with
    # equality exactly when all of them are the top one.  The test takes one
    # flag per entry, which the exhaustive scan's memory budget counts.
    used = (counts > 0).sum(axis=-1)
    return counts.max(axis=-1) * used == counts.sum(axis=-1)


_NAMED = {
    "monotone": MonotoneNondecreasing,
    "identifiable": Identifiable,
    "all-interventions": AllInterventionsPerCluster,
    "equal-allocation": EqualSequenceAllocation,
    "start-control-end-treatment": StartControlEndTreatment,
}


def restriction_from_name(name: str) -> Restriction:
    """Look up a built-in restriction by its configuration name."""
    try:
        return _NAMED[str(name)]()
    except KeyError:
        raise ValueError(
            f"unknown restriction {name!r}; expected one of {sorted(_NAMED)}"
        ) from None


@dataclass(frozen=True)
class DesignSpace:
    """The candidate sets defining a design search.

    Attributes
    ----------
    T_set : tuple of int
        Candidate period counts.
    C_sets : dict
        Map ``T -> tuple`` of candidate cluster counts.
    M_sets : dict
        Map ``(C, T) ->`` ascending candidate cluster-period sizes: a
        ``range`` stays one, so a budget's span of ``m`` is never listed,
        and any other collection becomes a sorted tuple.
    restrictions : tuple of Restriction
        Conjunctive restrictions on ``X``.
    D : int
        Number of arms.
    """

    T_set: tuple[int, ...]
    C_sets: dict
    M_sets: dict
    restrictions: tuple[Restriction, ...]
    D: int

    def __post_init__(self):
        object.__setattr__(self, "T_set", tuple(sorted(self.T_set)))
        object.__setattr__(self, "restrictions", tuple(self.restrictions))
        object.__setattr__(self, "M_sets", {
            key: ms if isinstance(ms, range) and ms.step > 0
            else tuple(sorted(ms)) for key, ms in self.M_sets.items()})
        if not self.T_set:
            raise ValueError("T_set must be nonempty")
        for T in self.T_set:
            if T < 2:
                raise ValueError("all T must be >= 2")
            Cs = self.C_sets.get(T)
            if not Cs:
                raise ValueError(f"no cluster counts configured for T={T}")
            for C in Cs:
                if C < 2:
                    raise ValueError("all C must be >= 2")
                Ms = self.M_sets.get((C, T))
                if not Ms:
                    raise ValueError(
                        f"no cluster-period sizes configured for (C={C}, T={T})"
                    )
                if Ms[0] < 2:
                    raise ValueError("all m must be >= 2")
        if self.D < 2:
            raise ValueError("D must be >= 2")

    @classmethod
    def single(
        cls, C: int, T: int, m, D: int, restrictions
    ) -> "DesignSpace":
        """Space with fixed ``C`` and ``T`` and one or more values of ``m``."""
        ms = m if np.iterable(m) else (m,)
        return cls.grid((T,), (C,), ms, D, restrictions)

    @classmethod
    def grid(
        cls, T_values, C_values, m_values, D: int, restrictions
    ) -> "DesignSpace":
        """Every combination of the given T, C and m.

        ``C_values`` is a list shared by every T or a ``{T: [C...]}`` map.
        """
        ms = tuple(sorted(m_values))
        return cls._product(T_values, C_values, lambda T: ms, D, restrictions)

    @classmethod
    def budgeted(
        cls, T_values, C_values, m_min: int, budget: int, D: int, restrictions
    ) -> "DesignSpace":
        """Every T and C, with ``m`` ranging to ``floor(budget / T)``.

        Mirrors a per-cluster observation budget: each cluster contributes
        ``m * T`` observations, so larger ``T`` admits smaller ``m``.
        ``C_values`` is a list or a ``{T: [C...]}`` map, as in :meth:`grid`.
        """
        for T in sorted(T_values):
            if T < 2:
                raise ValueError("all T must be >= 2")
            if budget // T < m_min:
                raise ValueError(
                    f"budget {budget} admits no m >= {m_min} at T={T}"
                )
        return cls._product(
            T_values, C_values,
            lambda T: range(m_min, budget // T + 1), D, restrictions,
        )

    @classmethod
    def _product(cls, T_values, C_values, m_of_T, D, restrictions):
        """Every T, its C values (list or map) and ``m_of_T(T)``."""
        T_values = tuple(sorted(T_values))
        if not isinstance(C_values, dict):
            C_values = dict.fromkeys(T_values, C_values)
        C_sets = {T: tuple(sorted(Cs)) for T, Cs in C_values.items()}
        return cls(
            T_set=T_values,
            C_sets=C_sets,
            M_sets={(C, T): m_of_T(T)
                    for T in T_values for C in C_sets.get(T, ())},
            restrictions=tuple(restrictions),
            D=D,
        )

    def blocks(self):
        """Deterministic iteration over ``(T, C, m)`` combinations."""
        for T in self.T_set:
            for C in sorted(self.C_sets[T]):
                for m in self.M_sets[(C, T)]:
                    yield T, C, m

    def requires_equal_allocation(self) -> bool:
        return any(
            isinstance(r, EqualSequenceAllocation) for r in self.restrictions
        )


def enumerate_sequences(T: int, D: int, restrictions) -> list[tuple[int, ...]]:
    """All admissible per-cluster sequences in lexicographic order.

    With a monotone restriction the candidates are the nondecreasing
    sequences over ``{0..D-1}`` (``binomial(T + D - 1, D - 1)`` of them);
    without it all ``D**T`` label sequences are candidates.  Row-applicable
    restrictions then filter the list.
    """
    if T < 2 or D < 2:
        raise ValueError("T and D must be >= 2")
    restrictions = tuple(restrictions)
    monotone = any(isinstance(r, MonotoneNondecreasing) for r in restrictions)
    if monotone:
        pool = itertools.combinations_with_replacement(range(D), T)
    else:
        pool = itertools.product(range(D), repeat=T)
    row_checks = [r for r in restrictions if hasattr(r, "row_ok")]
    return [
        seq for seq in pool if all(r.row_ok(seq, D) for r in row_checks)
    ]
