"""Search tests: criteria, objectives, exhaustive and stochastic search."""

import contextlib
import functools
import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from swdesign import (
    Aoptimal,
    CandidateCapExceeded,
    CEParams,
    CustomPredicate,
    Design,
    DesignSpace,
    Doptimal,
    Eoptimal,
    EqualSequenceAllocation,
    GridSpec,
    Identifiable,
    MonotoneNondecreasing,
    Objective,
    PowerSpec,
    SearchFailure,
    VarianceComponents,
    criterion_from_name,
    criterion_value,
    cross_entropy_search,
    evaluate_design,
    exhaustive_search,
    sensitivity_map,
    total_observations,
    treatment_covariance,
    variance_ratio_map,
)

from swdesign import search
from swdesign.designspace import enumerate_sequences, equal_allocation
from swdesign.inference import critical_value, power_report, variance_limits
from swdesign.model import (
    CovarianceSummary,
    is_identifiable,
    sequence_contributions,
    sequence_statistics,
)
from swdesign.search import _draw_rows

from conftest import WHOLE_SPACES, X, row_multiset
from enumeration import enumerate_designs, equal_allocation_ok, scan_block
from reference_model import full_rank, information_matrix


VC = VarianceComponents.from_rho(1.0, 0.05)
NO_POWER = PowerSpec(alpha=0.05, beta=1.0, delta=[])


def small_space(C=4, T=4, m=2, D=2):
    return DesignSpace.single(
        C, T, m, D, (MonotoneNondecreasing(), Identifiable())
    )


#: Two T, two C and two or three m per (T, C) block, D = 3.
BUDGETED = DesignSpace.budgeted(
    [3, 4], [2, 3], 2, 12, 3, (MonotoneNondecreasing(), Identifiable())
)


# ---------------------------------------------------------------------------
# Criteria and objective
# ---------------------------------------------------------------------------


class TestCriteria:
    LAMBDA = np.array([[0.04, 0.01], [0.01, 0.09]])

    def test_values(self):
        summary_like = type(
            "S", (), {"Lambda_q": self.LAMBDA, "q": 2}
        )()
        assert criterion_value(summary_like, Doptimal()) == pytest.approx(
            0.04 * 0.09 - 0.01**2
        )
        assert criterion_value(summary_like, Aoptimal()) == pytest.approx(
            (0.04 + 0.09) / 2
        )
        assert criterion_value(summary_like, Eoptimal()) == pytest.approx(0.09)

    def test_lookup(self):
        assert isinstance(criterion_from_name("d"), Doptimal)
        assert isinstance(criterion_from_name("A"), Aoptimal)
        assert isinstance(criterion_from_name("E"), Eoptimal)
        with pytest.raises(ValueError):
            criterion_from_name("T")

    def test_criteria_coincide_for_single_effect(self):
        design = Design(4, 4, 4, X("0001", "0011", "0111", "0011"), 2)
        summary = treatment_covariance(design, VC)
        vals = {
            c.name: criterion_value(summary, c)
            for c in (Doptimal(), Aoptimal(), Eoptimal())
        }
        assert vals["D"] == pytest.approx(vals["A"], rel=1e-12)
        assert vals["A"] == pytest.approx(vals["E"], rel=1e-12)

    def test_non_spd_rejected(self):
        summary_like = type(
            "S", (), {"Lambda_q": np.array([[1.0, 2.0], [2.0, 1.0]]), "q": 2}
        )()
        with pytest.raises(ValueError, match="positive definite"):
            criterion_value(summary_like, Doptimal())


class TestObjective:
    def test_weight_validated(self):
        with pytest.raises(ValueError):
            Objective(w=1.5, criterion=Eoptimal())

    def test_degenerate_weight_warns(self):
        with pytest.warns(UserWarning, match="w = 1"):
            Objective(w=1.0, criterion=Eoptimal())

    def test_total_observations(self):
        design = Design(8, 6, 6, np.zeros((6, 6), dtype=int), 3)
        assert total_observations(design) == 288


class TestEvaluateDesign:
    def test_consistent_with_covariance(self, reference_design, reference_vc):
        stats = evaluate_design(reference_design, reference_vc)
        summary = treatment_covariance(reference_design, reference_vc)
        assert stats["D"] == pytest.approx(
            criterion_value(summary, Doptimal())
        )
        assert stats["E"] == pytest.approx(
            criterion_value(summary, Eoptimal())
        )
        assert stats["cost"] == 288
        assert "power" not in stats

    @pytest.mark.parametrize("T,C,m,D,names,equal", WHOLE_SPACES)
    def test_criteria_equal_criterion_value_on_whole_space(
        self, T, C, m, D, names, equal
    ):
        # evaluate_design scores as the searches do, without
        # criterion_value's eigenvalue check, and keeps every bit.
        from swdesign.designspace import restriction_from_name
        from swdesign.model import kernel_sums

        seqs = enumerate_sequences(
            T, D, [restriction_from_name(n) for n in names]
        )
        raw, counts, _ = scan_block(seqs, T, D, C, equal)
        ident, _ = kernel_sums(raw, T, D - 1)
        criteria = (Doptimal(), Aoptimal(), Eoptimal())
        for k in np.nonzero(ident)[0]:
            rows = [s for s, c in zip(seqs, counts[k]) for _ in range(int(c))]
            design = Design(m, C, T, np.array(rows), D)
            stats = evaluate_design(design, VC)
            summary = treatment_covariance(design, VC)
            assert [stats[c.name] for c in criteria] == [
                criterion_value(summary, c) for c in criteria]


# ---------------------------------------------------------------------------
# Exhaustive search
# ---------------------------------------------------------------------------


def brute_force_minimum(space, vc, criterion):
    best = None
    for design in enumerate_designs(space, vc):
        val = criterion_value(treatment_covariance(design, vc), criterion)
        key = (val, design.sequences())
        if best is None or key < best:
            best = key
    return best


def brute_force_cheapest(space, vc, spec, criterion):
    """``(cost, criterion, rows)`` of the best cheapest feasible design."""
    for cost in sorted({m * C * T for T, C, m in space.blocks()}):
        best = None
        for T, C, m in space.blocks():
            if m * C * T != cost:
                continue
            block = DesignSpace.single(C, T, m, space.D, space.restrictions)
            for design in enumerate_designs(block, vc):
                summary = treatment_covariance(design, vc)
                if spec.beta < 1 and not power_report(
                    summary, spec
                ).meets_requirement:
                    continue
                key = (criterion_value(summary, criterion), design.sequences())
                if best is None or key < best:
                    best = key
        if best is not None:
            return (cost,) + best


#: Three periods, three clusters, m in {2, 3}, D = 3 and no restriction:
#: every optimum ties exactly with other designs (relabelled Latin
#: squares, time reversals), so the result rests on the tie-break.
TIED = DesignSpace.grid([3], [3], [2, 3], 3, ())


@functools.lru_cache(maxsize=None)
def tied_reference():
    """``(m, rows, Lambda_q)`` of every identifiable design of ``TIED``.

    ``Lambda_q`` is the leading block of the inverse of the full ``p x p``
    information matrix, from ``np.linalg.inv``.
    """
    out = []
    for design in enumerate_designs(TIED, VC):
        M = information_matrix(design, VC)
        if full_rank(M):
            out.append((design.m, design.sequences(),
                        np.linalg.inv(M)[:2, :2]))
    return out


def tied_brute_force(spec, criterion, w):
    """``(m, rows, n_feasible)`` of the winner by the documented rules.

    Per cost, the champion is the smallest-rows feasible design within
    ``_TIE_RTOL`` of that cost's minimal criterion; champions compete on
    the scaled objective, ties going to lower cost, then smaller rows.
    """
    designs = tied_reference()
    crits = [float(criterion.batch(L[:, :, None])[0])
             for _, _, L in designs]
    gmin, gmax = min(crits), max(crits)
    costs = [m * 9.0 for m, _, _ in designs]
    fmin, fmax = min(costs), max(costs)
    feasible = [
        spec.beta >= 1 or power_report(
            CovarianceSummary(L, 1.0 / np.diag(L), 2), spec
        ).meets_requirement
        for _, _, L in designs
    ]
    champions = []
    for cost in sorted(set(costs)):
        pool = [k for k, f in enumerate(feasible) if f and costs[k] == cost]
        if not pool:
            continue
        cmin = min(crits[k] for k in pool)
        k = min((k for k in pool if crits[k] <= cmin + 1e-9 * cmin),
                key=lambda k: designs[k][1])
        obj = (w * (cost - fmin) / (fmax - fmin)
               + (1 - w) * (crits[k] - gmin) / (gmax - gmin))
        champions.append((obj, cost, designs[k][1], designs[k][0]))
    omin = min(c[0] for c in champions)
    tied = [c for c in champions
            if abs(c[0] - omin) <= 1e-9 * max(abs(c[0]), abs(omin))]
    _, _, rows, m = min(tied, key=lambda c: (c[1], c[2]))
    return m, rows, sum(feasible)


class TestExhaustiveSearch:
    @pytest.mark.parametrize("crit_name", ["D", "A", "E"])
    def test_matches_brute_force(self, crit_name):
        criterion = criterion_from_name(crit_name)
        # One block, and a budgeted space whose blocks hold several m each.
        for space in (small_space(C=4, T=4, m=2, D=2), BUDGETED):
            res = exhaustive_search(
                space, VC, NO_POWER, Objective(w=0.0, criterion=criterion)
            )
            want_val, _ = brute_force_minimum(space, VC, criterion)
            assert res.status == "ok"
            assert res.criterion_value == pytest.approx(want_val, rel=1e-10)

    @pytest.mark.parametrize("crit_name", ["A", "E"])
    @pytest.mark.parametrize(
        "D,spec",
        [
            (2, NO_POWER),
            (3, NO_POWER),
            (2, PowerSpec(alpha=0.05, beta=0.2, delta=[1.0])),
        ],
        ids=["D2", "D3", "D2-power"],
    )
    def test_full_cost_weight_matches_brute_force(self, D, spec, crit_name):
        # w = 1 ranks by cost alone; the criterion then decides among the
        # cheapest feasible designs, exactly as for w just below 1.
        criterion = criterion_from_name(crit_name)
        space = DesignSpace.budgeted(
            [3, 4, 5], [3, 4, 5], 2, 24, D,
            (MonotoneNondecreasing(), Identifiable()),
        )
        with pytest.warns(UserWarning, match="w = 1"):
            full = Objective(w=1.0, criterion=criterion)
        res = exhaustive_search(space, VC, spec, full)
        near = exhaustive_search(
            space, VC, spec, Objective(w=1.0 - 1e-9, criterion=criterion)
        )
        cost, want_val, want_rows = brute_force_cheapest(
            space, VC, spec, criterion
        )
        assert res.status == "ok"
        assert res.cost == near.cost == cost
        assert res.criterion_value == pytest.approx(want_val, rel=1e-10)
        assert res.best.sequences() == near.best.sequences()
        assert res.criterion_value == near.criterion_value

    @pytest.mark.parametrize("crit_name", ["D", "A", "E"])
    @pytest.mark.parametrize("w", [0.0, 0.5])
    @pytest.mark.parametrize(
        "spec",
        [NO_POWER, PowerSpec(alpha=0.05, beta=0.2, delta=[2.0, 1.6])],
        ids=["no-power", "power"],
    )
    def test_tied_optima_match_inverse_reference(self, spec, w, crit_name):
        criterion = criterion_from_name(crit_name)
        res = exhaustive_search(TIED, VC, spec, Objective(w, criterion))
        m, rows, n_feasible = tied_brute_force(spec, criterion, w)
        assert res.status == "ok"
        assert (res.best.m, res.best.sequences()) == (m, rows)
        assert res.n_feasible == n_feasible

    @pytest.mark.parametrize("space,spec,w,want", [
        (BUDGETED, NO_POWER, 0.0,
         (3, "0001 0112 1222", 0.04292089374969069, 1649)),
        (BUDGETED, PowerSpec(alpha=0.05, beta=0.2, delta=[3.0, 2.0]), 0.5,
         (2, "000 111 222", 0.13020833333333337, 862)),
        (BUDGETED, PowerSpec(alpha=0.05, beta=0.2, delta=[2.0, 1.5]), 0.5,
         (2, "0001 1112 2222", 0.08195347533632287, 155)),
        (small_space(C=4, T=4, m=2, D=4), NO_POWER, 0.0,
         (2, "0001 0112 1223 2333", 0.01343607653264331, 59597)),
    ], ids=["budgeted", "power-w0.5", "tight-power-w0.5", "four-arm"])
    def test_determinant_keeps_lapack_optima(self, space, spec, w, want):
        # Optima found with LAPACK's determinant; the pivot product agrees
        # with it to rounding, so the winners are the same designs.
        res = exhaustive_search(space, VC, spec, Objective(w, Doptimal()))
        rows = " ".join("".join(map(str, r)) for r in res.best.sequences())
        assert (res.best.m, rows, res.n_feasible) == want[:2] + want[3:]
        assert res.criterion_value == pytest.approx(want[2], rel=1e-12)

    def test_enumerates_each_block_chunk_once(self, monkeypatch):
        calls = []
        combo_counts = search._combo_counts

        def counted(job):
            raw, rows_of = combo_counts(job)
            calls.append((job["T"], job["C"], raw.shape[1],
                          rows_of(0), rows_of(raw.shape[1] - 1)))
            return raw, rows_of

        monkeypatch.setattr(search, "_combo_counts", counted)
        # A candidate takes over 146 bytes here (search._plan), so at most
        # 54 fit in one chunk.
        monkeypatch.setattr(search, "_BUDGET", 8000)
        exhaustive_search(
            BUDGETED, VC, NO_POWER, Objective(w=0.5, criterion=Eoptimal())
        )
        want = []
        for T, C in [(3, 2), (3, 3), (4, 2), (4, 3)]:
            seqs = enumerate_sequences(T, 3, BUDGETED.restrictions)
            total = comb(len(seqs) + C - 1, C)
            chunks = [c for c in calls if c[:2] == (T, C)]
            # The chunks partition the block in stream order.
            assert sum(c[2] for c in chunks) == total
            assert chunks[0][3] == (seqs[0],) * C
            assert chunks[-1][4] == (seqs[-1],) * C
            assert all(a[4] < b[3] for a, b in zip(chunks, chunks[1:]))
            want += chunks
        assert calls == want
        assert max(c[2] for c in calls) <= 54
        assert len(calls) > 4

    def test_identifiability_is_tested_once_per_chunk(self, monkeypatch):
        # The shifted Sylvester pass belongs to the chunk, not to each of
        # its (m, vc) settings.
        from swdesign import model

        calls = {"shifted": 0, "chunks": 0}
        pivots, combo_counts = model._pivots, search._combo_counts

        def spy_pivots(K, *shift):
            calls["shifted"] += bool(shift)
            return pivots(K, *shift)

        def spy_chunks(job):
            calls["chunks"] += 1
            return combo_counts(job)

        monkeypatch.setattr(model, "_pivots", spy_pivots)
        monkeypatch.setattr(search, "_combo_counts", spy_chunks)
        obj = Objective(w=0.5, criterion=Doptimal())
        exhaustive_search(BUDGETED, VC, NO_POWER, obj)
        assert len(list(BUDGETED.blocks())) > calls["chunks"] > 0
        assert calls["shifted"] == calls["chunks"]
        calls.update(shifted=0, chunks=0)
        grid = GridSpec(sigma2_c_range=(0.02, 0.2),
                        sigma2_eps_range=(0.5, 1.5), steps=2)
        sensitivity_map(grid, BUDGETED, obj, NO_POWER)
        assert calls["chunks"] > 0
        assert calls["shifted"] == calls["chunks"]

    def test_combined_power_integrates_only_candidates_below_every_limit(
        self, monkeypatch
    ):
        space = DesignSpace.single(
            3, 3, 4, 3, (MonotoneNondecreasing(), Identifiable())
        )
        spec = PowerSpec(alpha=0.05, beta=0.2, delta=[1.5, 0.75],
                         power_type="combined")
        limits = variance_limits(
            spec.delta, critical_value(spec.alpha, 2, spec.correction),
            spec.beta,
        )
        summaries = [
            treatment_covariance(d, VC) for d in enumerate_designs(space, VC)
        ]
        n_below = sum(
            bool((np.diag(s.Lambda_q) > limits).all()) for s in summaries
        )
        n_meets = sum(
            power_report(s, spec).meets_requirement for s in summaries
        )
        assert len(summaries) == 144 and n_below == 144 - 53
        # Each call integrates a slice: count its candidates.
        widths = []
        orthant = search.mvn_upper_orthant
        monkeypatch.setattr(
            search, "mvn_upper_orthant",
            lambda limits, *args: widths.append(limits.shape[1])
            or orthant(limits, *args),
        )
        res = exhaustive_search(
            space, VC, spec, Objective(w=0.0, criterion=Eoptimal())
        )
        assert sum(widths) == n_below
        assert res.n_feasible == n_meets == 65
        assert res.criterion_value == pytest.approx(0.22196, abs=1e-5)

    def test_objective_scaling_in_unit_interval(self):
        space = DesignSpace.grid(
            [3, 4], [3], [2, 3], 2,
            (MonotoneNondecreasing(), Identifiable()),
        )
        res = exhaustive_search(
            space, VC, NO_POWER, Objective(w=0.5, criterion=Eoptimal())
        )
        assert 0.0 <= res.objective_value <= 1.0
        s = res.scaling
        assert s["cost_min"] <= res.cost <= s["cost_max"]
        assert s["criterion_min"] <= res.criterion_value <= s["criterion_max"]

    def test_worker_invariance(self):
        space = DesignSpace.grid(
            [4, 5], [4], [2, 3], 2,
            (MonotoneNondecreasing(), Identifiable()),
        )
        spec = PowerSpec(
            alpha=0.05, correction="bonferroni", beta=0.5, delta=[1.0]
        )
        obj = Objective(w=0.3, criterion=Aoptimal())
        seq = exhaustive_search(space, VC, spec, obj, workers=1)
        par = exhaustive_search(space, VC, spec, obj, workers=2)
        assert seq.best.sequences() == par.best.sequences()
        assert (seq.best.m, seq.best.C, seq.best.T) == (
            par.best.m, par.best.C, par.best.T
        )
        assert seq.criterion_value == par.criterion_value
        assert seq.n_evaluated == par.n_evaluated
        assert seq.n_feasible == par.n_feasible

    def test_no_admissible_design_suggests_unconstrained(self):
        space = small_space(C=4, T=4, m=2, D=2)
        # A tiny effect cannot reach 99% power in a 32-observation trial.
        spec = PowerSpec(alpha=0.05, beta=0.01, delta=[0.05])
        res = exhaustive_search(
            space, VC, spec, Objective(w=0.0, criterion=Eoptimal())
        )
        assert res.status == "no-admissible-design"
        assert res.n_feasible == 0
        want_val, want_rows = brute_force_minimum(space, VC, Eoptimal())
        assert res.best is not None
        assert res.criterion_value == pytest.approx(want_val, rel=1e-10)

    def test_candidate_cap(self):
        space = DesignSpace.single(
            10, 6, 10, 2, (MonotoneNondecreasing(), Identifiable())
        )
        with pytest.raises(CandidateCapExceeded, match="cross-entropy"):
            exhaustive_search(
                space, VC, NO_POWER,
                Objective(w=0.0, criterion=Eoptimal()),
                candidate_cap=100,
            )

    def test_candidate_cap_refuses_before_walking_prefixes(self, monkeypatch):
        # 28 monotone sequences and 20 clusters: comb(47, 20), about 1.5e13
        # candidates and 1e12 prefixes, which no scan could walk.
        walked = []
        monkeypatch.setattr(search, "_group_prefixes",
                            lambda *args: walked.append(args) or iter(()))
        space = DesignSpace.single(20, 6, 2, 3, (MonotoneNondecreasing(),))
        with pytest.raises(CandidateCapExceeded,
                           match=f"space holds {comb(47, 20)} candidates"):
            exhaustive_search(
                space, VC, NO_POWER, Objective(w=0.0, criterion=Eoptimal())
            )
        assert walked == []

    def test_progress_callback(self):
        calls = []
        space = small_space()
        exhaustive_search(
            space, VC, NO_POWER, Objective(w=0.0, criterion=Eoptimal()),
            progress=lambda n, best: calls.append((n, best)),
        )
        assert calls
        assert calls[-1][0] > 0
        assert np.isfinite(calls[-1][1])

    def test_progress_sequence_pinned(self):
        # One call per chunk, here one per (T, C) block: the candidates
        # scanned so far and the smallest feasible criterion, NaN while
        # none is feasible.
        calls = []
        exhaustive_search(
            BUDGETED, VC, PowerSpec(alpha=0.05, beta=0.2, delta=[2.0, 1.5]),
            Objective(w=0.5, criterion=Eoptimal()),
            progress=lambda n, best: calls.append((n, best)),
        )
        assert [n for n, _ in calls] == [165, 825, 1065, 2425]
        assert np.isnan(calls[0][1])
        assert [best for _, best in calls[1:]] == [
            0.22196261682243, 0.22196261682243, 0.20986786757064382,
        ]

    def test_pool_holds_at_most_the_usable_cpus(self, monkeypatch):
        # A process pool starts all its workers at once, so a huge worker
        # count must not ask for that many.  The fake pool maps in this
        # process: the test starts no process.
        import concurrent.futures
        import os

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        spec = PowerSpec(alpha=0.05, beta=0.2, delta=[2.0, 1.5])
        obj = Objective(w=0.5, criterion=Eoptimal())

        def outcome(workers):
            res = exhaustive_search(BUDGETED, VC, spec, obj, workers=workers)
            return (res.best.m, res.best.sequences(), res.criterion_value,
                    res.objective_value, res.n_evaluated, res.n_feasible,
                    res.scaling)

        want = outcome(1)
        assert sizes == []
        assert outcome(10_000) == want
        assert sizes == [len(os.sched_getaffinity(0))]

    @pytest.mark.parametrize("crit_name", ["D", "A"])
    @pytest.mark.parametrize("w", [0.0, 0.5])
    @pytest.mark.parametrize("power_type", ["individual", "combined"])
    def test_chunk_size_invariance(self, monkeypatch, crit_name, w,
                                   power_type):
        space = DesignSpace.grid(
            [3], [2, 3, 4], [2, 3], 3,
            (MonotoneNondecreasing(), Identifiable()),
        )
        criterion = criterion_from_name(crit_name)
        # Two distinct allocation matrices share the optimal criterion
        # value, so the tie-break decides the winner.
        values = sorted(
            criterion_value(treatment_covariance(d, VC), criterion)
            for d in enumerate_designs(space, VC)
        )
        assert values[1] <= values[0] * (1 + 1e-9)
        spec = PowerSpec(
            alpha=0.05, beta=0.5, delta=[2.0, 1.5], power_type=power_type
        )
        obj = Objective(w=w, criterion=criterion)

        def outcome(budget):
            monkeypatch.setattr(search, "_BUDGET", budget)
            res = exhaustive_search(space, VC, spec, obj)
            return (
                (res.best.m, res.best.C, res.best.T, res.best.sequences()),
                res.criterion_value,
                res.n_evaluated,
                res.n_feasible,
                res.scaling,
            )

        want = outcome(search._BUDGET)
        assert 0 < want[3] < 1980
        # One candidate a chunk at the two smallest budgets (search._plan
        # counts the table and each candidate's working set), then
        # suffixes of 1 and 2 of a candidate's (at most 4) rows.
        for budget in (1, 2_000, 10_000, 40_000):
            assert outcome(budget) == want

    @pytest.mark.parametrize("budget", [1, None])
    def test_tie_champion_is_first_within_tolerance_of_block_minimum(
        self, monkeypatch, budget
    ):
        # 1 + 1.2 tau and 1 + 0.6 tau tie, 1 + 0.6 tau and 1 tie, but
        # 1 + 1.2 tau and 1 do not: the champion is 1 + 0.6 tau, the first
        # within tolerance of the minimum, in one chunk or one per candidate.
        tau = search._TIE_RTOL
        values = np.full(10, 3.0)
        values[[1, 3, 4]] = [1 + 1.2 * tau, 1 + 0.6 * tau, 1.0]
        seen = []

        def fake_sums(raw, T, q):
            # Every candidate counts as identifiable.
            k = raw.shape[1]
            return np.ones(k, dtype=bool), (np.zeros((q, q, k)),) * 2

        def fake_score(sums, T, m, vc, criterion, spec, seed):
            k = sums[0].shape[2]
            crit = values[len(seen): len(seen) + k]
            seen.extend(crit)
            return crit, np.ones(k, dtype=bool)

        monkeypatch.setattr(search, "kernel_sums", fake_sums)
        monkeypatch.setattr(search, "_score", fake_score)
        if budget is not None:
            monkeypatch.setattr(search, "_BUDGET", budget)
        # Two clusters from the four sequences 000, 001, 011, 111.
        res = exhaustive_search(
            DesignSpace.single(2, 3, 2, 2, (MonotoneNondecreasing(),)), VC,
            NO_POWER, Objective(w=0.0, criterion=Eoptimal()),
        )
        assert len(seen) == 10
        assert res.criterion_value == 1 + 0.6 * tau
        assert res.best.sequences() == ((0, 0, 0), (1, 1, 1))

    def test_power_feasibility_filters(self):
        space = small_space(C=4, T=4, m=4, D=2)
        spec = PowerSpec(
            alpha=0.05, correction="none", beta=0.9, delta=[0.5]
        )
        res = exhaustive_search(
            space, VC, spec, Objective(w=0.0, criterion=Eoptimal())
        )
        assert res.status == "ok"
        assert res.power is not None
        assert res.power.individual >= 1 - spec.beta


#: ``(space, spec)`` of the block-table oracle: a budgeted space and one
#: under equal allocation, where most candidates are never scored.
TABLE_CASES = {
    "budgeted": (BUDGETED,
                 PowerSpec(alpha=0.05, beta=0.2, delta=[2.0, 1.5])),
    "equal-allocation": (
        DesignSpace.grid([3], [2, 3, 4], [2, 3], 3, (
            MonotoneNondecreasing(), Identifiable(),
            EqualSequenceAllocation())),
        PowerSpec(alpha=0.05, beta=0.5, delta=[2.0, 1.5])),
}


@functools.lru_cache(maxsize=None)
def brute_force_blocks(case, vc, criterion):
    """Per ``(m, C, T)`` of a ``TABLE_CASES`` space, what its block holds.

    ``(n_evaluated, n_feasible, largest criterion, feasible champion rows,
    unconstrained champion rows)`` from the designs of
    :func:`enumeration.enumerate_designs`, one at a time.  A champion is
    the first design in stream order within ``_TIE_RTOL`` of its block's
    minimum criterion; None when the block has no candidate.
    """
    def champion(scored):
        if not scored:
            return None
        low = min(crit for crit, _ in scored)
        tol = search._TIE_RTOL * low
        return next(rows for crit, rows in scored if crit <= low + tol)

    space, spec = TABLE_CASES[case]
    unfiltered = tuple(r for r in space.restrictions
                       if not isinstance(r, Identifiable))
    out = {}
    for T, C, m in space.blocks():
        n, ident = 0, []
        block = DesignSpace.single(C, T, m, space.D, unfiltered)
        for design in enumerate_designs(block, vc):
            n += 1
            if not is_identifiable(design, vc):
                continue
            summary = treatment_covariance(design, vc)
            feasible = spec.beta >= 1 or power_report(
                summary, spec).meets_requirement
            ident.append((criterion_value(summary, criterion), feasible,
                          design.sequences()))
        out[m, C, T] = (
            n, sum(f for _, f, _ in ident),
            max((crit for crit, _, _ in ident), default=-np.inf),
            champion([(crit, rows) for crit, f, rows in ident if f]),
            champion([(crit, rows) for crit, _, rows in ident]),
        )
    return out


class TestBlockTable:
    """The table of blocks that the scan merges, per search setting."""

    #: Two variance settings, as a sensitivity map scans them.
    VCS = (VC, VarianceComponents.from_rho(1.0, 0.2))

    @pytest.mark.parametrize("budget", [None, 1], ids=["default", "one"])
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_one_block_per_setting_matches_brute_force(
        self, monkeypatch, case, budget
    ):
        space, spec = TABLE_CASES[case]
        tables = []
        result = search._result
        monkeypatch.setattr(search, "_result", lambda table, *args: (
            tables.append(table) or result(table, *args)))
        if budget is not None:
            # One candidate a chunk.
            monkeypatch.setattr(search, "_BUDGET", budget)
        criterion = Eoptimal()
        search._search(space, list(self.VCS), spec, Objective(0.0, criterion))
        assert len(tables) == len(self.VCS)
        for table, vc in zip(tables, self.VCS):
            want = brute_force_blocks(case, vc, criterion)
            assert list(table) == list(want)
            for key, block in table.items():
                n, n_feasible, crit_max, feasible, unconstrained = want[key]
                assert (block.n_evaluated, block.n_feasible) == (
                    n, n_feasible)
                assert block.crit_max == pytest.approx(crit_max, rel=1e-12)
                assert [block.feasible[0].rows if block.feasible else None,
                        block.unconstrained[0].rows
                        if block.unconstrained else None] == [
                    feasible, unconstrained]
                for leader in block.feasible + block.unconstrained:
                    assert (leader.cost, leader.block) == (
                        float(key[0] * key[1] * key[2]), key)


#: Sequence pools of 1, 4, 8 and 10 sequences.
POOLS = [
    (2, 2, (CustomPredicate("one", ((0, 1),)),)),
    (3, 2, (MonotoneNondecreasing(),)),
    (3, 2, ()),
    (3, 3, (MonotoneNondecreasing(),)),
]


class TestChunkStream:
    """The prefix/suffix-table enumeration against itertools."""

    @pytest.mark.parametrize("equal_alloc", [False, True])
    @pytest.mark.parametrize("C", [2, 3, 5])
    @pytest.mark.parametrize("T,D,restrictions", POOLS)
    def test_every_split_streams_itertools_order(self, T, D, restrictions,
                                                 C, equal_alloc):
        seqs = enumerate_sequences(T, D, restrictions)
        n = len(seqs)
        want = np.array([
            np.bincount(combo, minlength=n)
            for combo in itertools.combinations_with_replacement(range(n), C)
        ], dtype=float)
        if equal_alloc:
            want = want[equal_allocation(want)]
        stats = sequence_statistics(sequence_contributions(seqs, T, D))
        want_raw = stats @ want.T
        for s in range(C + 1):
            for cap in (1, 7, 10**9):
                raw, counts, sizes = scan_block(seqs, T, D, C, equal_alloc,
                                                s=s, cap=cap)
                np.testing.assert_array_equal(counts, want)
                # Bit for bit the count-matrix product.
                assert raw.tobytes() == want_raw.tobytes()
                if cap == 1 and s == 0:
                    assert max(sizes) == 1

    def test_multiplicities_above_a_byte(self):
        # Two sequences and 300 clusters: 301 candidates, counts up to 300.
        seqs = [(0, 0), (0, 1)]
        want = np.array([(300 - i, i) for i in range(301)], dtype=float)
        for s in (300, 150, 0):
            _, counts, _ = scan_block(seqs, 2, 2, 300, s=s)
            np.testing.assert_array_equal(counts, want)

    def test_equal_allocation_leaves_empty_chunks(self, monkeypatch):
        space = DesignSpace.grid(
            [3], [2, 3, 4], [2, 3], 3,
            (MonotoneNondecreasing(), Identifiable(),
             EqualSequenceAllocation()),
        )
        spec = PowerSpec(alpha=0.05, beta=0.5, delta=[2.0, 1.5])
        obj = Objective(w=0.5, criterion=Aoptimal())

        def outcome():
            res = exhaustive_search(space, VC, spec, obj)
            return (res.best.sequences(), res.criterion_value,
                    res.n_evaluated, res.n_feasible, res.scaling)

        want = outcome()
        # One candidate a chunk: most chunks keep none.
        monkeypatch.setattr(search, "_BUDGET", 1)
        assert outcome() == want
        # Every equal-allocation candidate is evaluated, at each of two m.
        unfiltered = DesignSpace.grid(
            [3], [2, 3, 4], [2], 3,
            (MonotoneNondecreasing(), EqualSequenceAllocation()),
        )
        assert want[2] == 2 * sum(1 for _ in enumerate_designs(unfiltered, VC))

    def test_equal_allocation_counts_stay_small_ints(self):
        # 1,024 sequences: a prefix's candidates are up to 1,024 table
        # rows, whose counts take 1 MiB as bytes but 8 MiB as int64.
        seqs = enumerate_sequences(10, 2, ())
        s, cap = search._plan(len(seqs), 10, 1, 2, equal_alloc=True)
        first, count = next(search._group_prefixes(len(seqs), 2, s, cap))
        search._suffix_table.cache_clear()
        tracemalloc.start()
        try:
            raw, _ = search._combo_counts(dict(
                seqs=seqs, T=10, D=2, C=2, s=s, first=first, count=count,
                equal_alloc=True,
            ))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The table of 1,024 rows takes 1.2 MB of the budget, so one
        # prefix's candidates fill the chunk.
        assert (s, count, raw.shape[1]) == (1, 1, 1024)
        assert peak <= search._BUDGET

    def test_chunks_bound_traced_memory(self):
        # T = 5, C = 6, D = 3: 230,230 candidates, about 39 MB of raw sums
        # at 8 bytes each, in chunks of at most one budget.
        space = DesignSpace.single(
            6, 5, 2, 3, (MonotoneNondecreasing(), Identifiable())
        )
        obj = Objective(w=0.0, criterion=Eoptimal())
        search._suffix_table.cache_clear()
        tracemalloc.start()
        try:
            res = exhaustive_search(space, VC, NO_POWER, obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_evaluated == comb(20 + 6, 6) == 230_230
        assert peak < 4 * search._BUDGET

    def test_search_peak_stays_within_the_budget(self, monkeypatch):
        # The budget counts the suffix table and everything a chunk keeps
        # live at its peak: raw sums, compacted P and Q, scoring vectors.
        # Three arms, T and C in 2..5: the largest chunks fill the budget.
        space = DesignSpace.budgeted(
            [2, 3, 4, 5], [2, 3, 4, 5], 2, 24, 3,
            (MonotoneNondecreasing(), Identifiable()),
        )
        spec = PowerSpec(alpha=0.05, beta=0.2, delta=[1.5, 0.75])
        chunks = []
        combo_counts = search._combo_counts

        def sized(job):
            raw, rows_of = combo_counts(job)
            n = len(job["seqs"])
            s, cap = search._plan(n, job["T"], 2, job["C"])
            chunks.append((raw.shape[1], cap - comb(n + s - 1, s)))
            return raw, rows_of

        monkeypatch.setattr(search, "_combo_counts", sized)
        search._suffix_table.cache_clear()
        tracemalloc.start()
        try:
            res = exhaustive_search(space, VC, spec,
                                    Objective(w=0.5, criterion=Eoptimal()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "ok" and res.n_evaluated == 300_663
        # The largest chunk is within one table's rows of the cap.
        size, room = max(chunks)
        assert size > room
        assert peak <= search._BUDGET

    @pytest.mark.parametrize("space,delta,width", [
        (DesignSpace.budgeted([2, 3, 4, 5], [2, 3, 4, 5], 2, 24, 3,
                              (MonotoneNondecreasing(), Identifiable())),
         [1.5, 0.75], 327),
        (DesignSpace.single(4, 4, 2, 4,
                            (MonotoneNondecreasing(), Identifiable())),
         [3.0, 1.5, 1.5], 29),
    ], ids=["q2", "q3"])
    def test_combined_search_peak_stays_within_the_budget(
        self, monkeypatch, space, delta, width
    ):
        # The candidates below every limit take the orthant integral in
        # slices beside the chunk, and some slices are full.
        spec = PowerSpec(alpha=0.05, beta=0.2, delta=delta,
                         power_type="combined")
        widths = []
        orthant = search.mvn_upper_orthant
        monkeypatch.setattr(
            search, "mvn_upper_orthant",
            lambda limits, *args: widths.append(limits.shape[1])
            or orthant(limits, *args),
        )
        search._suffix_table.cache_clear()
        tracemalloc.start()
        try:
            res = exhaustive_search(space, VC, spec,
                                    Objective(w=0.5, criterion=Eoptimal()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "ok"
        assert max(widths) == width
        assert peak <= search._BUDGET

    def test_small_three_effect_combined_search(self):
        # Most of the 7,770 candidates miss every individual limit and take
        # the trivariate integral; the count and the winner are pinned.
        space = DesignSpace.single(3, 4, 3, 4,
                                   (MonotoneNondecreasing(), Identifiable()))
        spec = PowerSpec(alpha=0.05, correction="bonferroni", beta=0.12,
                         delta=[1.5, 0.75, 0.75], power_type="combined")
        res = exhaustive_search(space, VC, spec,
                                Objective(w=0.0, criterion=Eoptimal()))
        assert (res.status, res.n_evaluated, res.n_feasible) == ("ok", 7770,
                                                                 268)
        assert res.criterion_value == pytest.approx(0.28408260472399843,
                                                    rel=1e-9)
        assert (res.best.m, res.best.C, res.best.T) == (3, 3, 4)
        assert res.best.sequences() == ((0, 0, 0, 1), (1, 1, 2, 2),
                                        (2, 3, 3, 3))


# ---------------------------------------------------------------------------
# Cross-entropy search
# ---------------------------------------------------------------------------


MONOTONE = (MonotoneNondecreasing(), Identifiable())

#: ``(C, T, m, D, restrictions, criterion, spec, CEParams fields)``.
CE_CASES = {
    "plain": (5, 4, 2, 3, MONOTONE, Aoptimal(), NO_POWER, {}),
    "equal": (6, 5, 4, 2, MONOTONE + (EqualSequenceAllocation(),),
              Eoptimal(), NO_POWER, {}),
    "combined": (3, 3, 4, 3, MONOTONE, Eoptimal(),
                 PowerSpec(alpha=0.05, beta=0.2, delta=[1.5, 0.75],
                           power_type="combined"),
                 dict(population_size=200, max_iterations=20)),
    "four-arm": (6, 8, 8, 4, MONOTONE, Aoptimal(),
                 PowerSpec(alpha=0.05, beta=0.2, delta=[1.5, 1.0, 0.75]),
                 dict(max_iterations=5, stall_limit=5)),
    "no-admissible": (6, 8, 8, 4, MONOTONE, Aoptimal(),
                      PowerSpec(alpha=0.05, beta=0.2, delta=[0.2] * 3),
                      dict(max_iterations=5, stall_limit=5)),
}

#: Outcomes of the count-matrix implementation, per case and seed:
#: ``(status, criterion value, n_evaluated, canonical rows)``.
CE_GOLDEN = {
    ("plain", 0): ("ok", 0.17588014796894338, 22000,
                   "0000 0011 0111 1122 1222"),
    ("plain", 1): ("ok", 0.17588014796894338, 23000,
                   "0000 0011 0111 1122 1222"),
    ("plain", 2): ("ok", 0.17588014796894338, 21000,
                   "0000 0011 0111 1122 1222"),
    ("equal", 0): ("ok", 0.058377100840336135, 21000,
                   "00000 00000 00011 00011 11111 11111"),
    ("equal", 1): ("ok", 0.058377100840336135, 21000,
                   "00000 00000 00011 00011 11111 11111"),
    ("equal", 2): ("ok", 0.058377100840336135, 21000,
                   "00000 00000 00011 00011 11111 11111"),
    ("combined", 0): ("ok", 0.22196261682243, 4000, "001 012 122"),
    ("combined", 1): ("ok", 0.22196261682243, 4000, "001 012 122"),
    ("combined", 2): ("ok", 0.22196261682243, 4000, "001 012 122"),
    ("four-arm", 0): ("ok", 0.028777392453915945, 5000,
                      "00000011 00000113 00111222 11122223 11222333 22233333"),
    ("four-arm", 1): ("ok", 0.028905356665813193, 5000,
                      "00000112 00011133 01111222 11222223 11223333 22333333"),
    ("four-arm", 2): ("ok", 0.02881965605492583, 5000,
                      "00000011 00001122 00023333 00112233 11112222 22233333"),
    ("no-admissible", 0): (
        "no-admissible-design", 0.02983842057151474, 5000,
        "00001111 00001123 00111222 02333333 11222233 12233333"),
    ("no-admissible", 1): (
        "no-admissible-design", 0.02971121160592488, 5000,
        "00000011 00000112 00013333 01122333 11122223 22233333"),
    ("no-admissible", 2): (
        "no-admissible-design", 0.029510272636288786, 5000,
        "00000111 00011123 00223333 01122223 11122222 12233333"),
}


def run_ce_case(name, seed=0, **params):
    C, T, m, D, restrictions, criterion, spec, fields = CE_CASES[name]
    return cross_entropy_search(
        C, T, m, D, restrictions, VC, Objective(w=0.0, criterion=criterion),
        spec, CEParams(seed=seed, **dict(fields, **params)),
    )


class TestCrossEntropy:
    @pytest.mark.parametrize("case,seed", sorted(CE_GOLDEN))
    def test_outcome_pinned(self, case, seed):
        res = run_ce_case(case, seed)
        rows = " ".join("".join(map(str, r)) for r in res.best.sequences())
        assert (res.status, res.criterion_value, res.n_evaluated, rows) == (
            CE_GOLDEN[case, seed]
        )

    def test_exact_tie_goes_to_the_smaller_rows(self):
        # Two optima tie in exact arithmetic here; their determinants differ
        # in the last bit.  As in the exhaustive search, the champion is the
        # one with the smaller rows, not the one that floating point favours.
        obj = Objective(w=0.0, criterion=Doptimal())
        want = exhaustive_search(
            DesignSpace.single(5, 4, 2, 3, MONOTONE), VC, NO_POWER, obj
        )
        res = cross_entropy_search(5, 4, 2, 3, MONOTONE, VC, obj, NO_POWER,
                                   CEParams(seed=0))
        rows = [" ".join("".join(map(str, r)) for r in r.best.sequences())
                for r in (res, want)]
        assert rows == ["0000 0011 0111 1122 2222"] * 2
        assert res.criterion_value == want.criterion_value

    @pytest.mark.parametrize("equal", [False, True], ids=["any", "equal"])
    @pytest.mark.parametrize("D", [2, 3, 4])
    def test_gathered_sums_equal_count_product(self, monkeypatch, D, equal):
        # Six clusters from the 4, 10 or 20 monotone sequences of length 3:
        # rows repeat in most samples.
        restrictions = (MonotoneNondecreasing(),) + (
            (EqualSequenceAllocation(),) if equal else ()
        )
        seqs = enumerate_sequences(3, D, restrictions)
        n = len(seqs)
        stats = sequence_statistics(sequence_contributions(seqs, 3, D))
        draws, sums, masks = [], [], []

        def spy_draws(probs, u, draw=search._draw_rows):
            draws.append(draw(probs, u))
            return draws[-1]

        def spy_sums(raw, T, q, finish=search.kernel_sums):
            sums.append(raw.copy())  # finished in place
            return finish(raw, T, q)

        def spy_masks(counts, mask=search.equal_allocation):
            masks.append(mask(counts))
            return masks[-1]

        monkeypatch.setattr(search, "_draw_rows", spy_draws)
        monkeypatch.setattr(search, "kernel_sums", spy_sums)
        monkeypatch.setattr(search, "equal_allocation", spy_masks)
        with contextlib.suppress(SearchFailure):
            cross_entropy_search(
                6, 3, 2, D, restrictions, VC,
                Objective(w=0.0, criterion=Eoptimal()), NO_POWER,
                CEParams(population_size=300, max_iterations=3,
                         stall_limit=3),
            )
        assert len(draws) == len(sums) == 3
        assert len(masks) == (3 if equal else 0)
        repeated = 0
        for i, (idx, raw) in enumerate(zip(draws, sums)):
            counts = np.array([np.bincount(r, minlength=n) for r in idx])
            repeated += int((counts.max(axis=1) > 1).sum())
            # Bit for bit the count-matrix product.
            assert raw.tobytes() == (stats @ counts.T.astype(float)).tobytes()
            if equal:
                np.testing.assert_array_equal(masks[i],
                                              equal_allocation(counts))
        assert repeated > 0

    def test_population_bounds_traced_memory(self):
        # 1000 samples of 6 rows from 165 sequences: a float count matrix
        # alone would take 1.3 MB.
        tracemalloc.start()
        try:
            run_ce_case("four-arm", population_size=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_on_small_space(self, seed):
        restrictions = (MonotoneNondecreasing(), Identifiable())
        space = DesignSpace.single(5, 4, 2, 3, restrictions)
        obj = Objective(w=0.0, criterion=Doptimal())
        exact = exhaustive_search(space, VC, NO_POWER, obj)
        ce = cross_entropy_search(
            5, 4, 2, 3, restrictions, VC, obj, NO_POWER,
            CEParams(seed=seed),
        )
        assert ce.status == "ok"
        # The optimum need not be unique: symmetric allocation matrices can
        # tie exactly, and the two searches break ties differently.
        assert ce.criterion_value == pytest.approx(
            exact.criterion_value, rel=1e-9
        )

    def test_never_beats_exhaustive(self):
        restrictions = (MonotoneNondecreasing(), Identifiable())
        space = DesignSpace.single(6, 5, 2, 2, restrictions)
        obj = Objective(w=0.0, criterion=Eoptimal())
        exact = exhaustive_search(space, VC, NO_POWER, obj)
        ce = cross_entropy_search(
            6, 5, 2, 2, restrictions, VC, obj, NO_POWER, CEParams(seed=3)
        )
        assert ce.criterion_value >= exact.criterion_value - 1e-12

    def test_deterministic_given_seed(self):
        restrictions = (MonotoneNondecreasing(), Identifiable())
        args = (5, 4, 2, 2, restrictions, VC,
                Objective(w=0.0, criterion=Eoptimal()), NO_POWER)
        a = cross_entropy_search(*args, CEParams(seed=42))
        b = cross_entropy_search(*args, CEParams(seed=42))
        assert a.best.sequences() == b.best.sequences()
        assert a.n_evaluated == b.n_evaluated

    def test_degenerate_pool_identifiability_failure(self):
        only_control = CustomPredicate(
            label="control-only", allowed=((0, 0, 0),)
        )
        with pytest.raises(SearchFailure):
            cross_entropy_search(
                3, 3, 2, 2, (only_control,), VC,
                Objective(w=0.0, criterion=Eoptimal()), NO_POWER,
                CEParams(population_size=50, max_iterations=3),
            )

    def test_honours_combined_power(self):
        # Individual power is infeasible everywhere in this block, combined
        # power is not: the search must integrate, not apply the threshold.
        restrictions = (MonotoneNondecreasing(), Identifiable())
        spec = PowerSpec(alpha=0.05, beta=0.2, delta=[1.5, 0.75],
                         power_type="combined")
        obj = Objective(w=0.0, criterion=Eoptimal())
        exact = exhaustive_search(
            DesignSpace.single(3, 3, 4, 3, restrictions), VC, spec, obj
        )
        assert exact.status == "ok" and exact.n_feasible == 65
        assert exact.criterion_value == pytest.approx(0.22196, abs=1e-5)
        ce = cross_entropy_search(
            3, 3, 4, 3, restrictions, VC, obj, spec,
            CEParams(population_size=200, max_iterations=20),
        )
        assert ce.status == "ok"
        assert ce.power.meets_requirement
        assert ce.power.combined >= 1 - spec.beta
        assert ce.criterion_value == pytest.approx(
            exact.criterion_value, rel=1e-9
        )

    def test_honours_equal_allocation(self):
        restrictions = (
            MonotoneNondecreasing(), Identifiable(), EqualSequenceAllocation()
        )
        obj = Objective(w=0.0, criterion=Eoptimal())
        exact = exhaustive_search(
            DesignSpace.single(6, 5, 4, 2, restrictions), VC, NO_POWER, obj
        )
        assert exact.criterion_value == pytest.approx(0.0583771, abs=1e-7)
        ce = cross_entropy_search(
            6, 5, 4, 2, restrictions, VC, obj, NO_POWER, CEParams(seed=0)
        )
        assert ce.status == "ok"
        assert equal_allocation_ok(ce.best.X)
        assert ce.criterion_value >= exact.criterion_value * (1 - 1e-12)

    def test_equal_allocation_never_met_fails(self):
        # Two allowed sequences cannot split three clusters equally, and
        # one sequence repeated three times identifies no treatment effect.
        pair = CustomPredicate(label="pair", allowed=((0, 0, 1), (0, 1, 1)))
        with pytest.raises(SearchFailure, match="admissible"):
            cross_entropy_search(
                3, 3, 2, 2, (pair, Identifiable(), EqualSequenceAllocation()),
                VC, Objective(w=0.0, criterion=Eoptimal()), NO_POWER,
                CEParams(population_size=50, max_iterations=3),
            )

    def test_delta_length_checked(self):
        restrictions = (MonotoneNondecreasing(), Identifiable())
        spec = PowerSpec(alpha=0.05, beta=0.2, delta=[1.0])
        with pytest.raises(ValueError, match="length"):
            cross_entropy_search(
                3, 3, 2, 3, restrictions, VC,
                Objective(w=0.0, criterion=Eoptimal()), spec,
            )

    def test_empty_pool_rejected(self):
        nothing = CustomPredicate(label="none", allowed=())
        with pytest.raises(SearchFailure, match="no sequences"):
            cross_entropy_search(
                3, 3, 2, 2, (nothing,), VC,
                Objective(w=0.0, criterion=Eoptimal()), NO_POWER,
            )

    def test_draw_rows_with_probabilities_summing_below_one(self):
        # Each row sums to 1 - 2**-52 in floating point; a uniform above
        # that sum used to index one past the sequence pool.
        probs = np.array([[0.5, 0.5 - 2.0**-52], [0.25, 0.75 - 2.0**-52]])
        assert (probs.cumsum(axis=1)[:, -1] == 1.0 - 2.0**-52).all()
        u = np.array([[1.0 - 2.0**-53, 0.1], [0.6, 1.0 - 2.0**-53]])
        np.testing.assert_array_equal(_draw_rows(probs, u), [[1, 0], [1, 1]])

    def test_draw_rows_matches_cumulative_count(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(7), size=4)
        u = rng.random((500, 4))
        cdf = probs.cumsum(axis=1)
        want = (u[:, :, None] > cdf[None, :, :]).sum(axis=2)
        assert want.max() < 7
        np.testing.assert_array_equal(_draw_rows(probs, u), want)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            CEParams(population_size=0)
        with pytest.raises(ValueError):
            CEParams(elite_fraction=1.0)
        with pytest.raises(ValueError):
            CEParams(smoothing=0.0)


# ---------------------------------------------------------------------------
# Entry-vector scoring against the k x q x q stack it replaced
# ---------------------------------------------------------------------------


def stack_score(sums, T, m, vc, criterion, spec, seed):
    """``(crit, feasible)`` through a ``k x q x q`` ``Lambda_q`` stack.

    The reference for the entry-vector scoring: the stack is filled from
    the same sweep, its diagonals are read with ``np.diagonal``, D takes
    the pivots of the transposed stack, and combined power integrates the
    candidates that miss every limit.
    """
    from swdesign.model import _mean_variances, _pivots

    P, Q = sums
    a, b = _mean_variances(m, vc)
    K = P - (b / (a + T * b)) * Q
    q, k = K.shape[0], K.shape[2]
    A = [[K[i, j] for j in range(q)] for i in range(q)]
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
    Lambda = np.empty((k, q, q))
    for i in range(q):
        for j in range(i, q):
            Lambda[:, i, j] = Lambda[:, j, i] = -a * A[i][j]
    diag = np.diagonal(Lambda, axis1=1, axis2=2)
    crit = {
        "D": lambda: functools.reduce(
            np.multiply, _pivots(Lambda.transpose(1, 2, 0))),
        "A": lambda: diag.mean(axis=1),
        "E": lambda: diag.max(axis=1),
    }[criterion.name]()
    if spec.beta >= 1:
        return crit, np.ones(k, dtype=bool)
    e = critical_value(spec.alpha, q, spec.correction)
    meets = diag <= variance_limits(spec.delta, e, spec.beta)
    if spec.power_type != "combined":
        return crit, meets.all(axis=1)
    feasible = meets.any(axis=1)
    for i in np.nonzero(~feasible)[0]:
        sd = np.sqrt(diag[i])
        corr = Lambda[i] / np.outer(sd, sd)
        np.fill_diagonal(corr, 1.0)
        none_reject = search.mvn_upper_orthant(
            np.full(q, e), spec.delta / sd, corr, seed
        )
        feasible[i] = 1.0 - none_reject >= 1.0 - spec.beta
    return crit, feasible


def assert_scores_like_the_stack(*args, score=search._score):
    """``search._score(*args)``, checked bit for bit against the stack."""
    got, want = score(*args), stack_score(*args)
    assert got[0].tobytes() == want[0].tobytes()
    np.testing.assert_array_equal(got[1], want[1])
    return got


class TestEntryVectorScoring:
    @pytest.mark.parametrize("power", ["none", "individual", "combined"])
    @pytest.mark.parametrize("T,C,m,D,names,equal", WHOLE_SPACES + [
        (3, 3, 2, 5, ("monotone",), False),
    ])
    def test_whole_space_scores_equal_the_stack_path(
        self, T, C, m, D, names, equal, power
    ):
        from swdesign.designspace import restriction_from_name
        from swdesign.model import kernel_sums

        seqs = enumerate_sequences(
            T, D, [restriction_from_name(n) for n in names]
        )
        raw, _, _ = scan_block(seqs, T, D, C, equal)
        _, (P, Q) = kernel_sums(raw, T, D - 1)
        q = D - 1
        if power == "combined":
            # Every candidate below all limits takes one orthant integral,
            # and at q = 4 one takes tens of milliseconds: score a spread.
            step = -(-P.shape[2] // (150 if q < 4 else 20))
            P, Q = P[:, :, ::step], Q[:, :, ::step]
        spec = NO_POWER
        if power != "none":
            # Limits at the median variances, so the individual masks are
            # mixed; under combined power at the 5th percentile, so that
            # most candidates miss every limit and take the integral.
            var = np.transpose(
                search.covariance_kernel((P, Q), T, m, VC), (2, 0, 1)
            ).diagonal(axis1=1, axis2=2)
            unit = variance_limits(
                [1.0], critical_value(0.05, q, "bonferroni"), 0.2
            )
            level = 0.05 if power == "combined" else 0.5
            delta = np.sqrt(np.quantile(var, level, axis=0) / unit)
            spec = PowerSpec(alpha=0.05, beta=0.2, delta=list(delta),
                             power_type=power)
            if power == "combined":
                assert (var > delta**2 * unit).all(axis=1).any()
        for name in "DAE":
            crit, feasible = assert_scores_like_the_stack(
                (P, Q), T, m, VC, criterion_from_name(name), spec, 0
            )
            assert crit.shape == feasible.shape == (P.shape[2],)
            if power == "individual":
                assert feasible.any() and not feasible.all()

    @pytest.mark.parametrize("case", sorted(CE_CASES))
    def test_cross_entropy_scores_equal_the_stack_path(self, monkeypatch,
                                                        case):
        calls = []

        def checked(*args):
            calls.append(1)
            return assert_scores_like_the_stack(*args)

        monkeypatch.setattr(search, "_score", checked)
        res = run_ce_case(case)
        rows = " ".join("".join(map(str, r)) for r in res.best.sequences())
        assert (res.status, res.criterion_value, res.n_evaluated, rows) == (
            CE_GOLDEN[case, 0]
        )
        assert calls

    def test_kernel_returns_shared_entry_vectors(self):
        from swdesign.model import kernel_sums

        seqs = enumerate_sequences(3, 4, (MonotoneNondecreasing(),))
        raw, _, _ = scan_block(seqs, 3, 4, 3)
        _, sums = kernel_sums(raw, 3, 3)
        Lambda = search.covariance_kernel(sums, 3, 2, VC)
        assert len(Lambda) == 3 and all(len(row) == 3 for row in Lambda)
        for i, j in itertools.product(range(3), repeat=2):
            assert Lambda[i][j].shape == (sums[0].shape[2],)
            assert Lambda[i][j] is Lambda[j][i]


# ---------------------------------------------------------------------------
# Sensitivity grids
# ---------------------------------------------------------------------------


class TestSensitivity:
    def test_single_point_matches_exhaustive(self):
        space = small_space(C=4, T=4, m=2, D=2)
        obj = Objective(w=0.0, criterion=Eoptimal())
        grid = GridSpec(
            sigma2_c_range=(0.05, 0.05), sigma2_eps_range=(0.95, 0.95),
            steps=1,
        )
        res = sensitivity_map(grid, space, obj, NO_POWER)
        vc = VarianceComponents(sigma2_c=0.05, sigma2_eps=0.95)
        exact = exhaustive_search(space, vc, NO_POWER, obj)
        assert res.design_ids.shape == (1, 1)
        only = res.designs[res.design_ids[0, 0]]
        assert only.sequences() == exact.best.sequences()
        assert res.criterion_values[0, 0] == pytest.approx(
            exact.criterion_value
        )

    @pytest.mark.parametrize("w", [0.0, 0.5])
    @pytest.mark.parametrize("power_type", ["individual", "combined"])
    def test_grouped_scan_matches_search_at_every_point(self, w, power_type):
        space = DesignSpace.grid(
            [3, 4], [2, 3], [2, 3], 3,
            (MonotoneNondecreasing(), Identifiable()),
        )
        spec = PowerSpec(
            alpha=0.05, beta=0.5, delta=[2.0, 1.5], power_type=power_type
        )
        obj = Objective(w=w, criterion=Eoptimal())
        grid = GridSpec(
            sigma2_c_range=(0.01, 0.2), sigma2_eps_range=(0.5, 2.0), steps=3
        )
        xs, ys = grid.points()
        vcs = [VarianceComponents(sigma2_c=c, sigma2_eps=e)
               for c in xs for e in ys]
        grouped = search._search(space, vcs, spec, obj)
        sens = sensitivity_map(grid, space, obj, spec)
        n_feasible = set()
        for (i, j), vc, got in zip(np.ndindex(3, 3), vcs, grouped):
            want = exhaustive_search(space, vc, spec, obj)
            mapped = sens.designs[sens.design_ids[i, j]]
            for best in (got.best, mapped):
                assert (best.m, best.C, best.T, best.sequences()) == (
                    want.best.m, want.best.C, want.best.T,
                    want.best.sequences(),
                )
            for value in (got.criterion_value, sens.criterion_values[i, j]):
                assert value == pytest.approx(want.criterion_value, rel=1e-9)
            assert (got.status, got.n_evaluated, got.n_feasible) == (
                want.status, want.n_evaluated, want.n_feasible
            )
            n_feasible.add(want.n_feasible)
        # The grid moves the feasible set, so the settings differ.
        assert len(n_feasible) > 1

    def test_maps_scan_a_block_at_most_twice(self, monkeypatch):
        calls = []
        combo_counts = search._combo_counts

        def counted(*args):
            calls.append(args[1:4])
            return combo_counts(*args)

        def no_search(*args, **kwargs):
            raise AssertionError("per-point exhaustive_search")

        monkeypatch.setattr(search, "_combo_counts", counted)
        monkeypatch.setattr(search, "exhaustive_search", no_search)
        space = small_space(C=4, T=4, m=2, D=2)
        obj = Objective(w=0.0, criterion=Eoptimal())
        grid = GridSpec(
            sigma2_c_range=(0.02, 0.2), sigma2_eps_range=(0.5, 1.5), steps=3
        )
        res = sensitivity_map(grid, space, obj, NO_POWER)
        opt = res.designs[res.design_ids[0, 0]]
        variance_ratio_map(opt.X, grid, space, obj, NO_POWER, m=2)
        assert 1 <= len(calls) <= 2

    def test_ratio_map_finishes_each_design_once_summed(self, monkeypatch):
        # Each design's kernel sums are taken once and finished at every
        # point; the ratios are the per-point treatment_covariance ratios
        # bit for bit.
        space = small_space(C=4, T=4, m=2, D=2)
        obj = Objective(w=0.0, criterion=Eoptimal())
        grid = GridSpec(
            sigma2_c_range=(0.02, 0.2), sigma2_eps_range=(0.5, 1.5), steps=3
        )
        sens = sensitivity_map(grid, space, obj, NO_POWER)
        fixed = Design(2, 4, 4, X("0000", "0001", "0011", "0111"), 2)
        xs, ys = grid.points()
        want = np.empty((3, 3))
        for i, j in np.ndindex(3, 3):
            vc = VarianceComponents(sigma2_c=xs[i], sigma2_eps=ys[j])
            opt = sens.designs[sens.design_ids[i, j]]
            want[i, j] = (treatment_covariance(fixed, vc).Lambda_q[0, 0]
                          / treatment_covariance(opt, vc).Lambda_q[0, 0])
        summed = []

        def counted(design, finish=search.design_sums):
            summed.append(design)
            return finish(design)

        def no_covariance(*args):
            raise AssertionError("per-point treatment_covariance")

        monkeypatch.setattr(search, "design_sums", counted)
        monkeypatch.setattr(search, "treatment_covariance", no_covariance)
        got = variance_ratio_map(fixed.X, grid, space, obj, NO_POWER,
                                 sensitivity=sens)
        assert got.tobytes() == want.tobytes()
        assert len(summed) == len(sens.designs) + 1

    def test_ratio_map_at_least_one_and_exact_at_optimum(self):
        space = small_space(C=4, T=4, m=2, D=2)
        obj = Objective(w=0.0, criterion=Eoptimal())
        grid = GridSpec(
            sigma2_c_range=(0.02, 0.2), sigma2_eps_range=(0.5, 1.5), steps=3
        )
        res = sensitivity_map(grid, space, obj, NO_POWER)
        opt = res.designs[res.design_ids[0, 0]]
        ratios = variance_ratio_map(opt.X, grid, space, obj, NO_POWER, m=2)
        assert (ratios >= 1.0 - 1e-10).all()
        assert ratios[0, 0] == pytest.approx(1.0, rel=1e-10)
