"""Optimality criteria, cost-weighted design search, and sensitivity grids.

Three classical criteria summarize the treatment-effect covariance
``Lambda_q``: D (determinant), A (average diagonal) and E (maximum
diagonal).  The admissible-design objective trades the criterion against a
trial cost:

    w * (f - f_min) / (f_max - f_min) + (1 - w) * (g - g_min) / (g_max - g_min)

where ``f`` is the design cost, ``g`` the criterion value, and the min/max
scaling constants are taken over every identifiable design in the space.
Minimization runs over the designs that additionally meet the configured
power requirement; when none does, the search reports that no admissible
design exists and suggests the unconstrained criterion optimum instead.

The exhaustive search evaluates candidate allocation matrices in batches:
within a ``(T, C)`` block each is a multiset of rows from one sequence pool,
and its ``Lambda_q`` follows in closed form from count-weighted sums that
depend on neither ``m`` nor the variances (:mod:`swdesign.model`).  Each
chunk of a block is enumerated and summed once, then finished for every
``m`` and, in the sensitivity maps, every grid point.  Chunks are sums of
prefixes and the rows of a per-block table of suffixes, both held within a
fixed byte budget, so memory stays bounded whatever the space.  A cross-entropy
stochastic search covers spaces too large to enumerate; all searches share
that kernel and the power-feasibility test.
"""

from __future__ import annotations

import functools
import itertools
import os
import warnings
from dataclasses import dataclass, field, replace
from math import comb

import numpy as np

from .designspace import DesignSpace, enumerate_sequences, equal_allocation
from .inference import (
    ORTHANT_NODES,
    PowerReport,
    PowerSpec,
    critical_value,
    mvn_upper_orthant,
    orthant_inputs,
    power_report,
    variance_limits,
)
from .model import (
    CovarianceSummary,
    Design,
    VarianceComponents,
    covariance_kernel,
    design_sums,
    determinant,
    kernel_sums,
    sequence_contributions,
    sequence_statistics,
    treatment_covariance,
)

__all__ = [
    "Criterion",
    "Doptimal",
    "Aoptimal",
    "Eoptimal",
    "criterion_from_name",
    "Objective",
    "SearchResult",
    "CEParams",
    "CandidateCapExceeded",
    "SearchFailure",
    "criterion_value",
    "total_observations",
    "evaluate_design",
    "exhaustive_search",
    "cross_entropy_search",
    "GridSpec",
    "SensitivityResult",
    "sensitivity_map",
    "variance_ratio_map",
]

#: Bytes that a block's suffix table and one chunk of its candidates take
#: together, counting every array the chunk keeps live at its peak
#: (:func:`_plan`).  It bounds the scan's memory whatever the size of the
#: space.
_BUDGET = 1 << 22

#: Relative tolerance under which two criterion (or objective) values are
#: treated as tied.  Symmetric allocation matrices can attain exactly equal
#: criterion values in exact arithmetic while differing in the last floating
#: point digit; without a tolerance the winner among them would be decided
#: by rounding noise rather than by the documented cost/row tie-break.
_TIE_RTOL = 1e-9


class CandidateCapExceeded(RuntimeError):
    """The exhaustive space exceeds the candidate budget.

    Use the cross-entropy search for spaces of this size.
    """


class SearchFailure(RuntimeError):
    """The stochastic search never sampled an identifiable candidate."""


class Criterion:
    """Base class for optimality criteria over ``Lambda_q``."""

    name: str = ""

    def batch(self, Lambda: list) -> np.ndarray:
        """Values of ``Lambda_q`` given as ``q x q`` entry vectors.

        ``Lambda[i][j]`` is the vector of entry ``(i, j)`` over the
        candidates (:func:`~swdesign.model.covariance_kernel`).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Doptimal(Criterion):
    """Minimize ``det(Lambda_q)``."""

    name: str = field(default="D", init=False)

    def batch(self, Lambda):
        return determinant(Lambda)


@dataclass(frozen=True)
class Aoptimal(Criterion):
    """Minimize ``tr(Lambda_q) / q``."""

    name: str = field(default="A", init=False)

    def batch(self, Lambda):
        return functools.reduce(np.add, _variances(Lambda)) / len(Lambda)


@dataclass(frozen=True)
class Eoptimal(Criterion):
    """Minimize the largest diagonal entry of ``Lambda_q``."""

    name: str = field(default="E", init=False)

    def batch(self, Lambda):
        return functools.reduce(np.maximum, _variances(Lambda))


_CRITERIA = {"D": Doptimal, "A": Aoptimal, "E": Eoptimal}


def _variances(Lambda: list) -> list:
    """The diagonal entry vectors of ``Lambda_q``: each effect's variance."""
    return [Lambda[i][i] for i in range(len(Lambda))]


def criterion_from_name(name: str) -> Criterion:
    """Look up a criterion by its one-letter name."""
    try:
        return _CRITERIA[str(name).upper()]()
    except KeyError:
        raise ValueError(
            f"unknown criterion {name!r}; expected one of D, A, E"
        ) from None


def total_observations(design: Design) -> float:
    """Default trial cost: the total number of observations ``m * C * T``."""
    return float(design.m * design.C * design.T)


@dataclass(frozen=True)
class Objective:
    """Cost-weighted search objective.

    Attributes
    ----------
    w : float
        Cost weight in [0, 1]; ``w = 0`` optimizes the criterion alone.
        ``w = 1`` optimizes the cost, the total number of observations
        (:func:`total_observations`), and uses the criterion only to choose
        among the cheapest power-feasible designs; it is permitted with a
        warning.
    criterion : Criterion
        D-, A- or E-optimality.
    """

    w: float
    criterion: Criterion

    def __post_init__(self):
        if not 0 <= self.w <= 1:
            raise ValueError(f"w must lie in [0, 1], got {self.w}")
        if self.w == 1:
            warnings.warn(
                "w = 1 gives the criterion no weight; the result is the "
                "best-criterion design among the cheapest power-feasible ones",
                stacklevel=3,
            )


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a design search.

    Attributes
    ----------
    best : Design or None
        Winning design in canonical (row-sorted) form; for a
        no-admissible-design outcome, the unconstrained criterion optimum
        offered as a suggestion (None when nothing was identifiable).
    criterion_value : float
        Criterion value of ``best``.
    cost : float
        Cost of ``best``.
    objective_value : float
        Scaled objective of ``best`` (0 when scaling is degenerate).
    power : PowerReport or None
        Power evaluation of ``best``.
    scaling : dict
        Min/max of cost and criterion used in the objective (exhaustive
        searches only; empty for stochastic searches).
    n_evaluated : int
        Candidates evaluated.
    n_feasible : int
        Candidates that were identifiable and met the power requirement;
        -1 for the cross-entropy search, which does not count them.
    status : str
        ``'ok'`` or ``'no-admissible-design'``.
    """

    best: Design | None
    criterion_value: float
    cost: float
    objective_value: float
    power: PowerReport | None
    scaling: dict
    n_evaluated: int
    n_feasible: int
    status: str = "ok"


@dataclass(frozen=True)
class CEParams:
    """Hyperparameters of the cross-entropy search.

    The defaults (population 1000, elite fraction 0.1, smoothing 0.7, at
    most 200 iterations, stopping after 20 non-improving ones) match common
    cross-entropy practice; a population of at least ten times the sequence
    pool size is recommended.
    """

    population_size: int = 1000
    elite_fraction: float = 0.1
    smoothing: float = 0.7
    max_iterations: int = 200
    stall_limit: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 1:
            raise ValueError("population_size must be positive")
        if not 0 < self.elite_fraction < 1:
            raise ValueError("elite_fraction must lie in (0, 1)")
        if not 0 < self.smoothing <= 1:
            raise ValueError("smoothing must lie in (0, 1]")
        for name in ("max_iterations", "stall_limit"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def criterion_value(summary: CovarianceSummary, criterion: Criterion) -> float:
    """Scalar criterion value of a covariance summary."""
    Lambda_q = np.asarray(summary.Lambda_q, dtype=float)
    vals = np.linalg.eigvalsh(0.5 * (Lambda_q + Lambda_q.T))
    if vals[0] <= 0:
        raise ValueError("Lambda_q must be symmetric positive definite")
    return float(criterion.batch(Lambda_q[:, :, None])[0])


def evaluate_design(
    design: Design,
    vc: VarianceComponents,
    spec: PowerSpec | None = None,
) -> dict:
    """Full report for one design: criteria values, cost and power."""
    summary = treatment_covariance(design, vc)
    # Scored as the searches score: an identifiable design's Lambda_q is
    # positive definite, so criterion_value's eigenvalue check is not needed.
    out = {
        "design": design.canonical(),
        "cost": total_observations(design),
        **{name: float(criterion().batch(summary.Lambda_q[:, :, None])[0])
           for name, criterion in _CRITERIA.items()},
        "Lambda_q": summary.Lambda_q,
    }
    if spec is not None:
        out["power"] = power_report(summary, spec)
    return out


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


def _plan(n: int, T: int, q: int, C: int, equal_alloc: bool = False):
    """``(s, cap)``: suffix length and chunk size of a block of ``n`` rows.

    A row of the block's suffix table takes 8 bytes for each of its
    ``F = q (T + 2q + 1) + 1`` raw sums and a count per sequence, and the
    pool's ``n`` columns of :func:`~swdesign.model.sequence_statistics`
    take 8 bytes a sum too.  A chunk candidate takes 8 bytes for each of
    its raw sums, of the ``2 q^2`` entries of its compacted ``P`` and ``Q``
    (:func:`~swdesign.model.kernel_sums`) and of ``C + 6`` more: its share
    of its prefix's indices and two offsets, and four vectors that
    identifiability and scoring keep live beside ``P`` and ``Q``.  Under
    equal allocation it also takes a count and a flag per sequence while
    its prefix's mask is built.  ``s`` is the longest suffix whose
    table and as many candidates as it has rows fit ``_BUDGET``, and
    ``cap`` candidates fit beside that table.  A chunk holds at least one
    prefix, whose candidates are at most all the table's rows.  The table
    takes under half the budget, so building it, with the previous size's
    table live, fits too.
    """
    F = q * (T + 2 * q + 1) + 1
    per = 8 * (F + 2 * q * q + C + 6)
    if equal_alloc:
        per += n * (np.min_scalar_type(C).itemsize + 1)

    def table(s):
        row = 8 * F + n * np.min_scalar_type(s).itemsize
        return comb(n + s - 1, s) * row + n * 8 * F

    s = next((s for s in range(C, 0, -1)
              if table(s) + comb(n + s - 1, s) * per <= _BUDGET), 0)
    return s, max((_BUDGET - table(s)) // per, 1)


def _prefixes(first: tuple, n: int):
    """Nondecreasing index tuples over ``range(n)`` from ``first`` on.

    The lexicographic successor raises the last index below ``n - 1`` and
    repeats it to the end (Knuth, TAOCP 4A, 7.2.1.3).
    """
    p = list(first)
    while True:
        yield tuple(p)
        i = len(p) - 1
        while i >= 0 and p[i] == n - 1:
            i -= 1
        if i < 0:
            return
        p[i:] = [p[i] + 1] * (len(p) - i)


def _tail_offsets(n: int, s: int) -> np.ndarray:
    """Per ``j``, the rank of the first ``s``-multiset starting at ``j``.

    In lexicographic order the ``s``-multisets of ``range(n)`` that start
    at ``j`` or later are the last ``comb(n - j + s - 1, s)``.
    """
    size = comb(n + s - 1, s)
    return np.array([size - comb(n - j + s - 1, s) for j in range(n)])


def _group_prefixes(n: int, C: int, s: int, cap: int):
    """``(first prefix, prefix count)`` of each chunk of a block.

    A candidate is a prefix of ``C - s`` indices followed by a row of the
    block's suffix table from the prefix's last index on.  Consecutive
    prefixes share a chunk while it holds at most ``cap`` candidates.
    """
    tail = comb(n + s - 1, s) - _tail_offsets(n, s)
    first, count, size = None, 0, 0
    for p in _prefixes((0,) * (C - s), n):
        k = int(tail[p[-1] if p else 0])
        if count and size + k > cap:
            yield first, count
            count = size = 0
        first = first if count else p
        count += 1
        size += k
    yield first, count


@functools.lru_cache(maxsize=1)
def _suffix_table(seqs: tuple, T: int, D: int, s: int):
    """``(stats, raw, counts)``: the ``s``-multisets of a sequence pool.

    ``stats`` is :func:`~swdesign.model.sequence_statistics` of the pool,
    ``raw`` the ``F x S`` raw sums and ``counts`` the ``S x n`` small-int
    multiplicities of its ``s``-multisets in lexicographic order.  Those
    starting at ``j`` are ``j`` followed by the previous size's table from
    its first index ``j`` on.  Only the last block's table is kept.
    """
    # Drop the previous block's table before this one is built, so that
    # the two are never live together.
    _suffix_table.cache_clear()
    stats = sequence_statistics(sequence_contributions(seqs, T, D))
    n = len(seqs)
    dtype = np.min_scalar_type(s)
    raw, counts = np.zeros((len(stats), 1)), np.zeros((1, n), dtype)
    for size in range(s):
        offs = _tail_offsets(n, size)
        ends = np.cumsum(raw.shape[1] - offs)
        new_raw = np.empty((len(stats), ends[-1]))
        new_counts = np.empty((ends[-1], n), dtype)
        for j, (o, hi) in enumerate(zip(offs, ends)):
            lo = hi - (raw.shape[1] - o)
            np.add(raw[:, o:], stats[:, j:j + 1], out=new_raw[:, lo:hi])
            new_counts[lo:hi] = counts[o:]
            new_counts[lo:hi, j] += 1
        raw, counts = new_raw, new_counts
    for arr in (stats, raw, counts):
        arr.setflags(write=False)
    return stats, raw, counts


def _combo_counts(job: dict):
    """Raw sums of one chunk's candidates and the rows of any one of them.

    The candidates with prefix ``p`` are the rows of the block's suffix
    table from ``p``'s last index on, so their raw sums are the prefix's
    plus those rows': one broadcast add per prefix, in stream order (the
    lexicographic order of canonical rows).  The sums are integer-valued,
    so they equal a count-matrix product bit for bit.  Under equal
    allocation only the rows that meet it are summed.  Returns the
    ``F x k`` raw sums and ``rows_of(j)``, the rows of kept candidate ``j``.
    """
    seqs, n, s = job["seqs"], len(job["seqs"]), job["s"]
    stats, table, table_counts = _suffix_table(
        tuple(seqs), job["T"], job["D"], s
    )
    S = table.shape[1]
    # One row of indices per prefix, not a tuple each: _plan allows a
    # prefix 8 bytes per index.
    prefixes = np.array(
        list(itertools.islice(_prefixes(job["first"], n), job["count"])),
        dtype=np.intp,
    ).reshape(job["count"], job["C"] - s)
    last = prefixes[:, -1] if s < job["C"] else np.zeros(1, dtype=np.intp)
    offs = _tail_offsets(n, s)[last]

    def counts_of(i, rows):
        # Prefix plus suffix counts reach C: add them in a type that holds
        # C, not in bincount's int64.
        return table_counts[rows] + np.bincount(
            prefixes[i], minlength=n
        ).astype(np.min_scalar_type(job["C"]))

    kept = None
    sizes = S - offs
    if job["equal_alloc"]:
        kept = [
            o + np.flatnonzero(equal_allocation(counts_of(i, slice(o, None))))
            for i, o in enumerate(offs)
        ]
        sizes = np.array([len(r) for r in kept], dtype=np.intp)
    ends = np.cumsum(sizes)
    raw = np.empty((len(stats), ends[-1]))
    for i, (size, hi) in enumerate(zip(sizes, ends)):
        out = raw[:, hi - size: hi]
        prefix = stats[:, prefixes[i]].sum(axis=1, keepdims=True)
        if kept is None:
            np.add(table[:, offs[i]:], prefix, out=out)
        else:
            # "clip" writes straight into out; the rows are in range.
            np.take(table, kept[i], axis=1, out=out, mode="clip")
            out += prefix

    def rows_of(j):
        i = int(np.searchsorted(ends, j, side="right"))
        at = j - (ends[i] - sizes[i])
        counts = counts_of(i, offs[i] + at if kept is None else kept[i][at])
        return tuple(seq for seq, c in zip(seqs, counts) for _ in range(c))

    return raw, rows_of


def _check_delta(spec: PowerSpec, D: int) -> None:
    if spec.beta < 1 and spec.q != D - 1:
        raise ValueError(
            f"delta has length {spec.q} but the space has q={D - 1}"
        )


def _power_feasible(Lambda: list, spec: PowerSpec) -> np.ndarray:
    """Mask of the candidates whose ``Lambda_q`` meets the power requirement.

    ``Lambda`` holds ``q x q`` entry vectors.  Individual power is a
    variance threshold per effect.  Combined power is at least every
    effect's individual power, so a candidate that meets any one threshold
    has it; only the candidates that miss every threshold need the
    combined-power orthant integral, one slice of them per
    :func:`~swdesign.inference.mvn_upper_orthant` call.
    """
    var = _variances(Lambda)
    if spec.beta >= 1:
        return np.ones(var[0].shape, dtype=bool)
    q = len(var)
    e = critical_value(spec.alpha, q, spec.correction)
    meets = [v <= lim for v, lim in
             zip(var, variance_limits(spec.delta, e, spec.beta))]
    if spec.power_type != "combined":
        return functools.reduce(np.logical_and, meets)
    feasible = functools.reduce(np.logical_or, meets)
    todo = np.nonzero(~feasible)[0]
    # An integral keeps up to 20 float vectors over its nodes live (34 kB at
    # q = 3): a slice takes a quarter of _BUDGET, below the freed raw sums.
    width = max(_BUDGET // (4 * 8 * 20 * ORTHANT_NODES[q]), 1)
    for at in (todo[i:i + width] for i in range(0, todo.size, width)):
        none_reject = mvn_upper_orthant(*orthant_inputs(
            [[v[at] for v in row] for row in Lambda], spec.delta, e))
        feasible[at] = 1.0 - none_reject >= 1.0 - spec.beta
    return feasible


def _score(sums, T: int, m: int, vc, criterion, spec):
    """``(crit, feasible)`` of identifiable candidates from their sums.

    ``sums`` are the :func:`~swdesign.model.kernel_sums` of those
    candidates; ``feasible`` is :func:`_power_feasible`.
    """
    Lambda = covariance_kernel(sums, T, m, vc)
    return criterion.batch(Lambda), _power_feasible(Lambda, spec)


@dataclass(frozen=True)
class Champion:
    """A candidate a search keeps, ranked by :func:`_better`."""

    crit: float
    cost: float
    block: tuple  # (m, C, T)
    rows: tuple  # canonical rows


def _merge_leaders(acc: tuple, later: tuple) -> tuple:
    """Leaders ``acc`` of a stream of champions extended by ``later`` ones.

    A stream's champion is its first record within ``_TIE_RTOL`` of its
    minimum.  Every record before it is larger, so it is a strict running
    minimum; the leaders are those running minima, in stream order, within
    tolerance of the minimum so far.  The first leader is the champion
    however the stream is split into ``later`` parts, and the last holds
    the minimum.
    """
    out = list(acc)
    for r in later:
        if not out or r.crit < out[-1].crit:
            out.append(r)
    low = out[-1].crit if out else 0.0
    return tuple(r for r in out if r.crit <= low + _TIE_RTOL * low)


@dataclass(frozen=True)
class Block:
    """An ``(m, C, T)`` block's counts, largest criterion and leaders."""

    n_evaluated: int = 0
    n_feasible: int = 0
    crit_max: float = -np.inf
    feasible: tuple = ()
    unconstrained: tuple = ()

    def merge(self, later: Block) -> Block:
        """This block's record followed by a later chunk's."""
        return Block(
            self.n_evaluated + later.n_evaluated,
            self.n_feasible + later.n_feasible,
            max(self.crit_max, later.crit_max),
            _merge_leaders(self.feasible, later.feasible),
            _merge_leaders(self.unconstrained, later.unconstrained),
        )


def _scan_chunk(job: dict) -> list:
    """One ``{(m, C, T): Block}`` table of a chunk per search setting.

    The chunk is enumerated once and reduced to the kernel sums of its
    identifiable candidates, then scored per ``vc`` and ``m``.
    """
    C, T = job["C"], job["T"]
    raw, rows_of = _combo_counts(job)
    k = raw.shape[1]
    ident, sums = kernel_sums(raw, T, job["D"] - 1)
    del raw  # the compacted sums are copies: free the chunk's raw sums
    rows_at = np.nonzero(ident)[0]

    def block(vc, m):
        if not rows_at.size:
            return Block(k)
        crit, feasible = _score(sums, T, m, vc, job["criterion"], job["spec"])
        cost = float(m * C * T)

        def leaders(vals):
            low = vals.min()
            if not np.isfinite(low):
                return ()
            lead, least = [], np.inf
            for j in np.nonzero(vals <= low + _TIE_RTOL * low)[0]:
                if vals[j] < least:  # a strict running minimum
                    lead.append(j)
                    least = vals[j]
            return tuple(
                Champion(float(crit[j]), cost, (m, C, T), rows_of(rows_at[j]))
                for j in lead)

        return Block(k, int(feasible.sum()), float(crit.max()),
                     leaders(np.where(feasible, crit, np.inf)), leaders(crit))

    return [{(m, C, T): block(vc, m) for m in job["ms"]} for vc in job["vcs"]]


def _better(a, b):
    """Deterministic champion preference: criterion, then cost, then rows.

    Criterion values within ``_TIE_RTOL`` of one another count as equal, so
    designs that tie in exact arithmetic fall through to the cost and row
    comparisons rather than being ordered by floating point noise.
    """
    if a is None:
        return b
    if b is None:
        return a
    if abs(a.crit - b.crit) > _TIE_RTOL * max(abs(a.crit), abs(b.crit)):
        return a if a.crit < b.crit else b
    if a.cost != b.cost:
        return a if a.cost < b.cost else b
    return a if a.rows <= b.rows else b


def _outcome(champion, vc, D: int, spec, **fields) -> SearchResult:
    """Result for a search's champion."""
    m, C, T = champion.block
    design = Design(m, C, T, np.array(champion.rows, dtype=int), D)
    power = None
    if spec.delta.size == D - 1:
        power = power_report(treatment_covariance(design, vc), spec)
    return SearchResult(best=design, criterion_value=champion.crit,
                        cost=champion.cost, power=power, **fields)


def _result(table: dict, vc, space, spec, objective) -> SearchResult:
    """The winner of one ``vc``'s table of blocks.

    Each block's champion is its first feasible leader, the first candidate
    within ``_TIE_RTOL`` of the block's minimum whatever the chunking
    (:func:`_merge_leaders`); the champions then compete under
    :func:`_better` in block order, so neither the worker count nor the
    chunk size affects the outcome.
    """
    blocks = table.values()
    leads = [b.unconstrained for b in blocks if b.unconstrained]
    fmin = min((lead[0].cost for lead in leads), default=np.inf)
    fmax = max((lead[0].cost for lead in leads), default=-np.inf)
    gmin = min((lead[-1].crit for lead in leads), default=np.inf)
    gmax = max((b.crit_max for b in blocks), default=-np.inf)
    scaling = dict(cost_min=fmin, cost_max=fmax,
                   criterion_min=gmin, criterion_max=gmax)
    champions: dict[float, Champion] = {}
    for ch in (b.feasible[0] for b in blocks if b.feasible):
        champions[ch.cost] = _better(champions.get(ch.cost), ch)

    def scaled_objective(ch):
        f_term = 0.0 if fmax <= fmin else (ch.cost - fmin) / (fmax - fmin)
        g_term = 0.0 if gmax <= gmin else (ch.crit - gmin) / (gmax - gmin)
        return objective.w * f_term + (1.0 - objective.w) * g_term

    # The champions compete on the scaled objective under the same tie rule.
    winner = functools.reduce(_better, (
        replace(ch, crit=scaled_objective(ch)) for ch in champions.values()
    ), None)
    status = "ok" if winner is not None else "no-admissible-design"
    champion = champions[winner.cost] if winner else functools.reduce(
        _better, (lead[0] for lead in leads), None
    )
    n_evaluated = sum(b.n_evaluated for b in blocks)
    if champion is None:
        nan = float("nan")
        return SearchResult(None, nan, nan, nan, None, scaling, n_evaluated,
                            0, status)
    return _outcome(
        champion, vc, space.D, spec, status=status, scaling=scaling,
        objective_value=scaled_objective(champion), n_evaluated=n_evaluated,
        n_feasible=sum(b.n_feasible for b in blocks),
    )


def _search(
    space: DesignSpace,
    vcs: list,
    spec: PowerSpec,
    objective: Objective,
    workers: int = 1,
    candidate_cap: int = 10**8,
    progress=None,
) -> list[SearchResult]:
    """:func:`exhaustive_search` of ``space`` at every setting of ``vcs``.

    Each chunk of each ``(T, C)`` block is enumerated and reduced to its
    kernel sums once, then finished for every ``(vc, m)``; each ``vc`` keeps
    one table of :class:`Block` records, into which every chunk's blocks
    merge as they arrive.  ``progress`` follows the first ``vc``.
    """
    common = dict(
        D=space.D, vcs=vcs, equal_alloc=space.requires_equal_allocation(),
        criterion=objective.criterion, spec=spec,
    )
    blocks = []
    for T in space.T_set:
        seqs = enumerate_sequences(T, space.D, space.restrictions)
        blocks += [(T, C, space.M_sets[(C, T)], seqs)
                   for C in sorted(space.C_sets[T]) if seqs]
    total = sum(comb(len(seqs) + C - 1, C) * len(ms)
                for _, C, ms, seqs in blocks)
    # Checked before any prefix is walked: a space far above the cap has
    # far too many to walk.
    if total > candidate_cap:
        raise CandidateCapExceeded(
            f"space holds {total} candidates, above the cap of "
            f"{candidate_cap}; use the cross-entropy search for spaces of "
            "this size"
        )
    _check_delta(spec, space.D)
    jobs = (
        dict(common, seqs=seqs, C=C, T=T, ms=ms, s=s, first=first,
             count=count)
        for T, C, ms, seqs in blocks
        for s, cap in [_plan(len(seqs), T, space.D - 1, C,
                             equal_alloc=common["equal_alloc"])]
        for first, count in _group_prefixes(len(seqs), C, s, cap)
    )

    tables = [{} for _ in vcs]

    def absorb(res):
        for table, chunk in zip(tables, res):
            for key, block in chunk.items():
                table[key] = (table[key].merge(block) if key in table
                              else block)
        if progress is not None:
            blocks = tables[0].values()
            progress(sum(b.n_evaluated for b in blocks), min(
                (b.feasible[-1].crit for b in blocks if b.feasible),
                default=float("nan"),
            ))

    if workers <= 1:
        for job in jobs:
            absorb(_scan_chunk(job))
    else:
        # Imported here: multiprocessing adds tens of milliseconds to every
        # cold start that never uses it.
        from concurrent.futures import ProcessPoolExecutor

        # A pool starts all its processes at once: one per usable CPU at
        # most.  map keeps the job order, so chunks merge in stream order.
        cpus = len(os.sched_getaffinity(0))
        with ProcessPoolExecutor(max_workers=min(workers, cpus)) as pool:
            for res in pool.map(_scan_chunk, jobs, chunksize=1):
                absorb(res)

    return [
        _result(table, vc, space, spec, objective)
        for table, vc in zip(tables, vcs)
    ]


def exhaustive_search(
    space: DesignSpace,
    vc: VarianceComponents,
    spec: PowerSpec,
    objective: Objective,
    workers: int = 1,
    candidate_cap: int = 10**8,
    progress=None,
) -> SearchResult:
    """Find the admissible design of a space by complete enumeration.

    Every candidate allocation matrix is evaluated; identifiable candidates
    establish the cost/criterion scaling constants, power-feasible ones
    compete on the scaled objective.  Objective values within a small
    relative tolerance count as tied; ties are broken by lower cost, then by
    the lexicographically smallest canonical allocation matrix, so the
    result is independent of ``workers`` and of rounding noise among
    symmetric, mathematically equivalent optima.

    Parameters
    ----------
    workers : int
        Process count for parallel chunk evaluation.
    candidate_cap : int
        Upper bound on the number of candidates; exceeding it raises
        :class:`CandidateCapExceeded` pointing to the stochastic search.
    progress : callable, optional
        Invoked as ``progress(n_evaluated, best_criterion_so_far)`` after
        each chunk.

    Returns
    -------
    SearchResult
        With ``status='no-admissible-design'`` when no candidate meets the
        power requirement; ``best`` then holds the unconstrained criterion
        optimum as a suggestion.
    """
    return _search(
        space, [vc], spec, objective, workers, candidate_cap, progress
    )[0]


# ---------------------------------------------------------------------------
# Cross-entropy stochastic search
# ---------------------------------------------------------------------------


def _draw_rows(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-cdf draws of one sequence index per cluster.

    ``probs`` is the ``C x n`` matrix of per-cluster categorical
    probabilities and ``u`` a ``k x C`` matrix of uniforms in [0, 1).  Each
    draw is the number of cumulative probabilities below its uniform.  The
    last cumulative entry is pinned to one, so a row whose sum rounds below
    one still maps every uniform to a valid index.
    """
    cdf = probs.cumsum(axis=1)
    cdf[:, -1] = 1.0
    idx = np.empty(u.shape, dtype=np.intp)
    for c in range(cdf.shape[0]):
        idx[:, c] = np.searchsorted(cdf[c], u[:, c], side="left")
    return idx


def cross_entropy_search(
    C: int,
    T: int,
    m: int,
    D: int,
    restrictions,
    vc: VarianceComponents,
    objective: Objective,
    spec: PowerSpec,
    params: CEParams | None = None,
) -> SearchResult:
    """Stochastic criterion optimization over allocation matrices.

    With ``(m, C, T)`` fixed, candidates are sampled row by row from
    per-cluster categorical distributions over the admissible sequence
    pool.  Each iteration keeps the best ``elite_fraction`` of the
    power-feasible samples by raw criterion value and refits the
    categoricals toward the elite frequencies with exponential smoothing.
    Samples are scored from gathered statistics, with no count matrix: a
    sample's raw sums add its drawn sequences' statistics columns.  No cost
    rescaling is applied: with the size fixed, every candidate has the
    same cost.  Under the equal-allocation restriction samples that break
    it never score.  Deterministic for a fixed ``params.seed``.
    """
    params = params or CEParams()
    space = DesignSpace.single(C, T, m, D, restrictions)
    seqs = enumerate_sequences(T, D, space.restrictions)
    if not seqs:
        raise SearchFailure(
            "the restrictions admit no sequences at this (T, D)"
        )
    n = len(seqs)
    _check_delta(spec, D)
    stats = sequence_statistics(sequence_contributions(seqs, T, D))
    rng = np.random.default_rng(params.seed)
    probs = np.full((C, n), 1.0 / n)
    n_elite = max(1, int(round(params.elite_fraction * params.population_size)))

    # Champions are ranked by _better as in the exhaustive search.
    best = best_unconstrained = None
    cost = float(m * C * T)
    stall = 0
    n_evaluated = 0

    def rows_of(sample):
        # seqs is in lexicographic order, so sorted indices give sorted rows.
        return tuple(seqs[i] for i in np.sort(sample))

    for _ in range(params.max_iterations):
        u = rng.random((params.population_size, C))
        idx = _draw_rows(probs, u)
        n_evaluated += params.population_size
        # A sample's raw sums add its rows' statistics columns; they are
        # integer-valued, so equal to a count-matrix product bit for bit.
        gathered = stats[:, idx[:, 0]]
        for c in range(1, C):
            gathered += stats[:, idx[:, c]]
        ident, sums = kernel_sums(gathered, T, D - 1)
        del gathered
        crit, feasible = _score(sums, T, m, vc, objective.criterion, spec)
        raw = np.full(params.population_size, np.inf)
        raw[ident] = crit
        if space.requires_equal_allocation():
            # Per cluster, how often its sequence occurs in its sample.
            mult = (idx[:, :, None] == idx[:, None, :]).sum(
                axis=2, dtype=np.min_scalar_type(C)
            )
            raw[~equal_allocation(mult)] = np.inf
        score = raw.copy()
        score[ident] = np.where(feasible, score[ident], np.inf)
        if np.isfinite(raw).any():
            un_j = int(np.argmin(raw))
            best_unconstrained = _better(best_unconstrained, Champion(
                float(raw[un_j]), cost, (m, C, T), rows_of(idx[un_j])))
        order = np.argsort(score, kind="stable")
        elite = order[: n_elite][np.isfinite(score[order[:n_elite]])]
        improved = False
        if elite.size:
            j = int(elite[0])
            cand = Champion(float(score[j]), cost, (m, C, T), rows_of(idx[j]))
            if _better(best, cand) is cand:
                best = cand
                improved = True
            freq = np.zeros((C, n))
            np.add.at(freq, (np.arange(C), idx[elite]), 1.0)
            freq /= elite.size
            probs = params.smoothing * freq + (1 - params.smoothing) * probs
        stall = 0 if improved else stall + 1
        if stall >= params.stall_limit:
            break

    if best_unconstrained is None:
        raise SearchFailure(
            "no admissible identifiable candidate was ever sampled; "
            "increase the population size"
        )

    champion = best if best is not None else best_unconstrained
    return _outcome(
        champion, vc, D, spec,
        status="ok" if best is not None else "no-admissible-design",
        objective_value=champion.crit, scaling={}, n_evaluated=n_evaluated,
        n_feasible=-1,
    )


# ---------------------------------------------------------------------------
# Sensitivity grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Equally spaced grid over cluster and residual variances."""

    sigma2_c_range: tuple[float, float] = (0.001, 0.25)
    sigma2_eps_range: tuple[float, float] = (0.25, 4.0)
    steps: int = 26

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    def points(self):
        # As floats: numpy holds an integer beyond 64 bits as an object.
        xs = np.linspace(*map(float, self.sigma2_c_range), self.steps)
        ys = np.linspace(*map(float, self.sigma2_eps_range), self.steps)
        return xs, ys


@dataclass(frozen=True)
class SensitivityResult:
    """Optimal design at each grid point.

    Attributes
    ----------
    sigma2_c_values, sigma2_eps_values : numpy.ndarray
        Grid axes.
    design_ids : numpy.ndarray
        ``steps x steps`` array of design identifiers, indexed
        ``[i_sigma2_c, j_sigma2_eps]``.
    criterion_values : numpy.ndarray
        Criterion value of the optimum at each point.
    designs : dict
        Map identifier -> canonical Design, in discovery order.
    """

    sigma2_c_values: np.ndarray
    sigma2_eps_values: np.ndarray
    design_ids: np.ndarray
    criterion_values: np.ndarray
    designs: dict


def sensitivity_map(
    grid: GridSpec,
    space: DesignSpace,
    objective: Objective,
    spec: PowerSpec,
    workers: int = 1,
    candidate_cap: int = 10**8,
) -> SensitivityResult:
    """Optimal design across a grid of cross-sectional variance settings.

    At each grid point the marginal model uses ``(sigma2_c, sigma2_eps)``
    with no period or individual effects, and the optimum is the one
    :func:`exhaustive_search` finds there (most usefully with ``w = 0`` and
    ``beta = 1``).  One grouped scan builds each candidate's variance-free
    kernel sums once and finishes them at every point; a space above
    ``candidate_cap`` raises :class:`CandidateCapExceeded`, as there.
    Recurring winners are interned so the map stores compact identifiers.
    """
    xs, ys = grid.points()
    vcs = [VarianceComponents(sigma2_c=c, sigma2_eps=e)
           for c, e in itertools.product(xs, ys)]
    results = _search(space, vcs, spec, objective, workers=workers,
                      candidate_cap=candidate_cap)
    ids = np.empty((xs.size, ys.size), dtype=object)
    crit = np.empty((xs.size, ys.size))
    designs: dict[str, Design] = {}
    keys: dict[tuple, str] = {}
    for (i, j), vc, res in zip(np.ndindex(ids.shape), vcs, results):
        if res.best is None:
            raise SearchFailure(
                f"no identifiable design at sigma2_c={vc.sigma2_c}, "
                f"sigma2_eps={vc.sigma2_eps}"
            )
        key = (res.best.m, res.best.C, res.best.T, res.best.sequences())
        if key not in keys:
            keys[key] = f"design-{len(keys) + 1}"
            designs[keys[key]] = res.best
        ids[i, j] = keys[key]
        crit[i, j] = res.criterion_value
    return SensitivityResult(xs, ys, ids, crit, designs)


def variance_ratio_map(
    X,
    grid: GridSpec,
    space: DesignSpace,
    objective: Objective,
    spec: PowerSpec,
    m: int | None = None,
    workers: int = 1,
    *,
    sensitivity: SensitivityResult | None = None,
) -> np.ndarray:
    """Variance inflation of a fixed design relative to the per-point optimum.

    At each grid point, the ratio of ``var(beta_1_hat)`` under the supplied
    allocation matrix to that of the point's optimal design, taken from
    :func:`sensitivity_map`.  Ratios are at least one up to numerical
    tolerance wherever the supplied design lies in the searched space.
    A caller that already holds the map of the same grid, space, objective
    and power settings passes it as ``sensitivity``, so the space is not
    scanned again.
    """
    X = np.asarray(X, dtype=int)
    if m is None:
        if X.shape not in space.M_sets:
            raise ValueError(f"the design's (C, T) = {X.shape} is not in "
                             "the space, so its m must be given")
        m = space.M_sets[X.shape][0]
    fixed = Design(m, X.shape[0], X.shape[1], X, space.D)
    sens = sensitivity or sensitivity_map(
        grid, space, objective, spec, workers=workers
    )
    xs, ys = sens.sigma2_c_values, sens.sigma2_eps_values

    def first_variance(design):
        # Kernel sums depend on neither m nor the variances: each design's
        # are taken once and finished at every point.
        sums = design_sums(design)
        return lambda vc: covariance_kernel(sums, design.T, design.m,
                                            vc)[0][0][0]

    fix = first_variance(fixed)
    opt = {did: first_variance(d) for did, d in sens.designs.items()}
    out = np.empty(sens.design_ids.shape)
    for (i, j), did in np.ndenumerate(sens.design_ids):
        vc = VarianceComponents(sigma2_c=xs[i], sigma2_eps=ys[j])
        out[i, j] = fix(vc) / opt[did](vc)
    return out
