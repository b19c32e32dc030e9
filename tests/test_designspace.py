"""Design-space tests: restrictions, enumeration, counting."""

import itertools
from math import comb

import numpy as np
import pytest

from swdesign import (
    AllInterventionsPerCluster,
    CustomPredicate,
    DesignSpace,
    EqualSequenceAllocation,
    Identifiable,
    MonotoneNondecreasing,
    StartControlEndTreatment,
    VarianceComponents,
    enumerate_sequences,
    restriction_from_name,
)

from conftest import X
from enumeration import (
    check_restrictions,
    count_candidates,
    enumerate_designs,
    equal_allocation_ok,
)


VC = VarianceComponents.from_rho(1.0, 0.05)


# ---------------------------------------------------------------------------
# Restrictions
# ---------------------------------------------------------------------------


class TestRestrictions:
    def test_monotone(self):
        r = MonotoneNondecreasing()
        assert r.row_ok((0, 0, 1, 2), 3)
        assert not r.row_ok((0, 1, 0), 2)

    def test_all_interventions(self):
        r = AllInterventionsPerCluster()
        assert r.row_ok((0, 1, 2), 3)
        assert not r.row_ok((0, 1, 1), 3)

    def test_start_control_end_treatment(self):
        r = StartControlEndTreatment()
        assert r.row_ok((0, 0, 1), 2)
        assert not r.row_ok((1, 1, 1), 2)
        assert not r.row_ok((0, 0, 0), 2)

    def test_equal_allocation(self):
        assert equal_allocation_ok(X(("000111", 2), ("001111", 2)))
        assert not equal_allocation_ok(X(("000111", 2), "001111"))
        assert equal_allocation_ok(X(("000111", 3)))

    def test_custom_predicate(self):
        r = CustomPredicate(label="two", allowed=((0, 1), (0, 0)))
        assert r.name == "custom:two"
        assert r.row_ok((0, 1), 2)
        assert not r.row_ok((1, 1), 2)

    def test_lookup_by_name(self):
        assert isinstance(
            restriction_from_name("monotone"), MonotoneNondecreasing
        )
        assert isinstance(restriction_from_name("identifiable"), Identifiable)
        with pytest.raises(ValueError, match="unknown restriction"):
            restriction_from_name("no-such-rule")

    def test_check_restrictions_conjunctive(self):
        rs = (MonotoneNondecreasing(), StartControlEndTreatment())
        assert check_restrictions(X("001", "011"), rs, 2)
        assert not check_restrictions(X("001", "010"), rs, 2)


# ---------------------------------------------------------------------------
# Sequence enumeration
# ---------------------------------------------------------------------------


class TestSequences:
    def test_monotone_counts(self):
        # Nondecreasing sequences over D arms: binomial(T + D - 1, D - 1).
        assert len(enumerate_sequences(6, 2, (MonotoneNondecreasing(),))) == 7
        assert len(enumerate_sequences(6, 3, (MonotoneNondecreasing(),))) == 28

    def test_unrestricted_counts(self):
        assert len(enumerate_sequences(3, 2, ())) == 8

    def test_classical_family(self):
        seqs = enumerate_sequences(
            6, 2, (MonotoneNondecreasing(), StartControlEndTreatment())
        )
        # t treatment periods preceded by 6 - t control periods, t = 1..5.
        assert seqs == [
            tuple([0] * (6 - t) + [1] * t) for t in range(5, 0, -1)
        ] or seqs == [tuple([0] * (6 - t) + [1] * t) for t in range(1, 6)]
        assert len(seqs) == 5

    def test_lexicographic_order(self):
        seqs = enumerate_sequences(3, 2, (MonotoneNondecreasing(),))
        assert seqs == sorted(seqs)

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_sequences(1, 2, ())


# ---------------------------------------------------------------------------
# DesignSpace
# ---------------------------------------------------------------------------


class TestDesignSpace:
    def test_single(self):
        sp = DesignSpace.single(10, 6, 10, 2, (MonotoneNondecreasing(),))
        assert list(sp.blocks()) == [(6, 10, 10)]
        assert count_candidates(sp) == comb(16, 10) == 8008

    def test_grid(self):
        sp = DesignSpace.grid([4, 5], [2, 3], [2], 2, ())
        assert list(sp.blocks()) == [
            (4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2)
        ]

    def test_budgeted(self):
        sp = DesignSpace.budgeted(
            range(2, 7), range(2, 7), 2, 48, 3, (MonotoneNondecreasing(),)
        )
        # Ranges: a budget's span of m is never listed.
        assert sp.M_sets[(6, 6)] == range(2, 9)
        assert sp.M_sets[(2, 2)] == range(2, 25)
        with pytest.raises(ValueError, match="admits no m"):
            DesignSpace.budgeted([10], [2], 2, 15, 2, ())

    def test_cluster_counts_per_period_count(self):
        C_map = {4: [3, 2], 5: [4]}
        sp = DesignSpace.grid([5, 4], C_map, [3, 2], 2, ())
        assert list(sp.blocks()) == [
            (4, 2, 2), (4, 2, 3), (4, 3, 2), (4, 3, 3), (5, 4, 2), (5, 4, 3)
        ]
        sp = DesignSpace.budgeted([4, 5], C_map, 2, 15, 2, ())
        assert list(sp.blocks()) == [
            (4, 2, 2), (4, 2, 3), (4, 3, 2), (4, 3, 3), (5, 4, 2), (5, 4, 3)
        ]
        with pytest.raises(ValueError, match="no cluster counts"):
            DesignSpace.grid([4, 6], C_map, [2], 2, ())
        with pytest.raises(ValueError, match="T must be >= 2"):
            DesignSpace.budgeted([0, 4], [2], 2, 15, 2, ())

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpace(T_set=(), C_sets={}, M_sets={}, restrictions=(), D=2)
        with pytest.raises(ValueError, match="cluster counts"):
            DesignSpace(
                T_set=(4,), C_sets={}, M_sets={}, restrictions=(), D=2
            )


# ---------------------------------------------------------------------------
# Design enumeration
# ---------------------------------------------------------------------------


def _naive_canonical_set(C, T, D, vc):
    """Down-scaled oracle: canonicalize the full label-product enumeration."""
    from swdesign import Design, is_identifiable

    seen = set()
    for rows in itertools.product(
        itertools.product(range(D), repeat=T), repeat=C
    ):
        key = tuple(sorted(rows))
        if key in seen:
            continue
        seen.add(key)
    out = set()
    for key in seen:
        design = Design(2, C, T, np.array(key, dtype=int), D)
        if is_identifiable(design, vc):
            out.add(key)
    return out


class TestEnumeration:
    def test_canonical_and_deterministic(self):
        sp = DesignSpace.single(
            4, 4, 2, 2, (MonotoneNondecreasing(), Identifiable())
        )
        first = [d.sequences() for d in enumerate_designs(sp, VC)]
        second = [d.sequences() for d in enumerate_designs(sp, VC)]
        assert first == second
        assert all(rows == tuple(sorted(rows)) for rows in first)

    def test_identifiability_filter_count(self):
        # C=10, T=6, D=2 monotone: 8008 raw candidates of which exactly the
        # 7 all-identical-row designs are non-identifiable.
        sp = DesignSpace.single(
            10, 6, 10, 2, (MonotoneNondecreasing(), Identifiable())
        )
        n = sum(1 for _ in enumerate_designs(sp, VC))
        assert n == 8008 - 7

    def test_matches_naive_enumeration_downscaled(self):
        sp = DesignSpace.single(3, 3, 2, 2, (Identifiable(),))
        got = {d.sequences() for d in enumerate_designs(sp, VC)}
        want = _naive_canonical_set(3, 3, 2, VC)
        assert got == want

    def test_equal_allocation_filter(self):
        sp = DesignSpace.single(
            4, 3, 2, 2,
            (MonotoneNondecreasing(), EqualSequenceAllocation()),
        )
        for d in enumerate_designs(sp, VC):
            counts = {}
            for row in d.sequences():
                counts[row] = counts.get(row, 0) + 1
            assert len(set(counts.values())) == 1
