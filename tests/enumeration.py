"""Reference enumeration for the tests: one design at a time, by itertools.

The search never builds designs one by one; these generators are the
brute-force oracles that its batched enumeration is checked against.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb

import numpy as np

from swdesign import search
from swdesign.designspace import (
    DesignSpace,
    EqualSequenceAllocation,
    Identifiable,
    enumerate_sequences,
    equal_allocation,
)
from swdesign.model import Design, VarianceComponents, is_identifiable


def equal_allocation_ok(X) -> bool:
    """Whether every distinct row of ``X`` appears equally often."""
    return bool(equal_allocation(list(Counter(map(tuple, X)).values())))


def check_restrictions(X, restrictions, D: int) -> bool:
    """Whether an allocation matrix satisfies every restriction.

    The identifiability restriction is ignored here:
    :func:`swdesign.model.is_identifiable` decides it from ``X`` alone,
    whatever ``m`` and the variance components.
    """
    X = np.asarray(X, dtype=int)
    for r in restrictions:
        if hasattr(r, "row_ok"):
            if not all(r.row_ok(tuple(row), D) for row in X):
                return False
        if (isinstance(r, EqualSequenceAllocation)
                and not equal_allocation_ok(X)):
            return False
    return True


def count_candidates(space: DesignSpace) -> int:
    """Raw number of canonical allocation matrices before matrix filters."""
    total = 0
    for T, C, m in space.blocks():
        n = len(enumerate_sequences(T, space.D, space.restrictions))
        total += comb(n + C - 1, C)
    return total


def enumerate_designs(space: DesignSpace, vc: VarianceComponents):
    """Yield every admissible design exactly once, canonically and in order.

    Designs are produced block by block over ``(T, C, m)``; within a block,
    allocation matrices are the size-``C`` multisets of the sequence pool in
    lexicographic order, so rows arrive already sorted.  Matrix-level
    restrictions and, when requested, identifiability under ``vc`` are
    applied as filters.  Two runs yield identical streams.
    """
    check_ident = any(isinstance(r, Identifiable) for r in space.restrictions)
    equal_alloc = space.requires_equal_allocation()
    for T, C, m in space.blocks():
        seqs = enumerate_sequences(T, space.D, space.restrictions)
        if not seqs:
            continue
        for combo in itertools.combinations_with_replacement(seqs, C):
            if equal_alloc and not equal_allocation_ok(combo):
                continue
            design = Design(m, C, T, np.array(combo, dtype=int), space.D)
            if check_ident and not is_identifiable(design, vc):
                continue
            yield design


def scan_block(seqs, T: int, D: int, C: int, equal_alloc: bool = False,
               s: int | None = None, cap: int | None = None):
    """A block's candidates as the scan enumerates them, chunk by chunk.

    Runs :func:`swdesign.search._combo_counts` on every chunk of the block
    split at suffix length ``s`` with at most ``cap`` candidates a chunk;
    by default both as :func:`swdesign.search._plan` sets them, and for a
    given ``cap``, ``s`` as the longest suffix whose table holds at most
    ``cap`` rows.  Returns the concatenated ``F x k`` raw sums, the
    ``k x n`` count matrix read back from each candidate's rows, and the
    chunk sizes.
    """
    n = len(seqs)
    if cap is None:
        split, cap = search._plan(n, T, D - 1, C, equal_alloc)
    else:
        split = next(s for s in range(C, -1, -1)
                     if comb(n + s - 1, s) <= cap)
    s = split if s is None else s
    index = {tuple(seq): i for i, seq in enumerate(seqs)}
    raws, counts, sizes = [], [], []
    for first, count in search._group_prefixes(n, C, s, cap):
        raw, rows_of = search._combo_counts(dict(
            seqs=seqs, T=T, D=D, C=C, s=s, first=first, count=count,
            equal_alloc=equal_alloc,
        ))
        raws.append(raw)
        sizes.append(raw.shape[1])
        for j in range(raw.shape[1]):
            idx = [index[row] for row in rows_of(j)]
            counts.append(np.bincount(idx, minlength=n))
    return np.concatenate(raws, axis=1), np.array(counts, dtype=float), sizes
