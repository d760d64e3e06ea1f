"""Tests for the sweep's job plan and its persistence.

Every class runs as one bounds job and one job per candidate ``k``,
whose values are folded into the class's row once the batch returns.
The rows must equal the definition — the paper's bounds and the
smallest ``k`` whose one-round CSP is solvable on the full model — byte
for byte: serial, pool, and distributed; cold and warm from the
store.  The per-``k`` verdicts persist, resume, and bank independently
(a sweep killed between a class's jobs loses only the unfinished ones).
"""

from __future__ import annotations

import threading

import pytest

import repro.store as store_pkg
from repro.analysis.sweeps import (
    DEFAULT_BUDGET,
    _class_bounds,
    _subshard_solvable,
    estimate_class_cost,
    plan_sweep,
    solvability_sweep,
)
from repro.bounds.report import bound_report
from repro.dist import DistExecutor
from repro.dist.worker import run_worker
from repro.engine import KERNEL_CACHE
from repro.graphs.generators import iter_all_digraphs
from repro.graphs.symmetry import iter_isomorphism_classes, symmetric_closure
from repro.models.closed_above import symmetric_closed_above
from repro.verification.solvability import decide_one_round_solvability


def _representatives(n: int):
    """The sweep's class representatives in its densest-first order."""
    return sorted(
        iter_isomorphism_classes(iter_all_digraphs(n)),
        key=lambda g: (-g.proper_edge_count, g.out_rows),
    )


@pytest.fixture
def no_store():
    """Run with the persistent store off and a cold kernel cache."""
    KERNEL_CACHE.clear()
    with store_pkg.RESULT_STORE.disabled():
        yield
    KERNEL_CACHE.clear()


@pytest.fixture
def isolated_store(tmp_path):
    """Point the global store at a fresh rw temp file for the test."""
    KERNEL_CACHE.clear()
    store = store_pkg.configure(path=tmp_path / "subshard.sqlite", mode="rw")
    yield store
    store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
    KERNEL_CACHE.clear()


def _reference_row(g, n: int = 3) -> list[object]:
    """One sweep row by definition, with no plan, kernel or reducer: the
    paper's interval, then the smallest k whose CSP on the full model is
    solvable (k = n searched too, not answered analytically)."""
    report = bound_report(sorted(symmetric_closure([g])))
    lo, hi = report.best_lower.k, report.best_upper.k
    model = symmetric_closed_above([g])
    full = sorted(model.iter_graphs(max_graphs=DEFAULT_BUDGET))
    exact = None
    for k in range(1, n + 1):
        if decide_one_round_solvability(full, k).solvable:
            exact = k
            break
    within = exact is not None and lo < exact <= hi
    return [sorted(g.proper_edges()), f"({lo}, {hi}]", exact, within,
            exact == lo + 1]


def _fresh_process(store) -> None:
    """Simulate a brand-new process: empty RAM cache, same store file."""
    store.flush()
    KERNEL_CACHE.clear()
    store_pkg.configure(path=store.path, mode=store.mode)


class TestEstimatorAndPlan:
    def test_estimate_is_two_to_missing_edges_capped(self):
        reps = _representatives(3)
        complete, empty = reps[0], reps[-1]
        assert complete.proper_edge_count == 6
        assert estimate_class_cost(complete, 3) == 1
        assert empty.proper_edge_count == 0
        assert estimate_class_cost(empty, 3) == 64
        assert estimate_class_cost(empty, 3, budget=16) == 16

    def test_every_class_plans_bounds_subshards_and_reduction(self):
        plan = plan_sweep(_representatives(3), 3)
        # bounds + one job per candidate k, per class
        assert len(plan.tasks) == 16 * 4
        for cls in plan.classes:
            assert len(cls.job_indices) == 4
            # In the order reduce_sweep_row folds them.
            names = [plan.tasks[i].name for i in cls.job_indices]
            assert names == [f"sweep:n=3:{cls.index}:bounds"] + [
                f"sweep:n=3:{cls.index}:k={k}" for k in (1, 2, 3)
            ]

    def test_jobs_emitted_heaviest_first(self):
        reps = _representatives(3)
        plan = plan_sweep(reps, 3)
        # The first emitted job belongs to the sparsest (heaviest) class,
        # which sits *last* in the densest-first representative order.
        heaviest = plan.classes[len(reps) - 1]
        assert heaviest.estimate == max(c.estimate for c in plan.classes)
        assert heaviest.job_indices[0] == 0
        # Estimates are non-increasing along the emitted job order.
        order = sorted(plan.classes, key=lambda c: c.job_indices[0])
        estimates = [c.estimate for c in order]
        assert estimates == sorted(estimates, reverse=True)


class TestSubshardEquivalence:
    """Acceptance: rows byte-identical to the definition."""

    def test_split_serial_matches_monolithic_all_16(self, no_store):
        """The monolithic reference is the definition, kept in this file
        (:func:`_reference_row`): one staircase of CSP searches per class,
        no plan, no per-k kernels, no reducer."""
        report = solvability_sweep(3)
        KERNEL_CACHE.clear()
        reference = [_reference_row(g) for g in _representatives(3)]
        assert repr(report.rows) == repr(reference)  # byte-identical
        assert len(report.rows) == 16

    def test_split_pool_matches_serial(self, no_store):
        serial = solvability_sweep(3, limit=6)
        KERNEL_CACHE.clear()
        pool = solvability_sweep(3, limit=6, jobs=2)
        assert pool.rows == serial.rows

    def test_split_dist_matches_serial(self, no_store):
        serial = solvability_sweep(3, limit=6)
        KERNEL_CACHE.clear()

        def launch(address):
            threading.Thread(
                target=run_worker, args=address, daemon=True
            ).start()

        executor = DistExecutor(":0", on_bound=launch)
        dist = solvability_sweep(3, limit=6, executor=executor)
        assert dist.rows == serial.rows
        metrics = dist.batch.dist_metrics
        assert metrics is not None
        # 6 classes x (bounds + k=1..3) jobs, all served remotely.
        assert sum(w["completed"] for w in metrics["workers"]) >= 24

    def test_k_at_least_n_shortcut_matches_the_csp(self, no_store):
        """Pin the analytic k >= n answer against the real search on the
        class where it matters most (the sparsest generator)."""
        empty = _representatives(3)[-1]
        model = symmetric_closed_above([empty])
        full = sorted(model.iter_graphs(max_graphs=DEFAULT_BUDGET))
        assert decide_one_round_solvability(full, 3).solvable is True
        assert _subshard_solvable(empty, 3, DEFAULT_BUDGET, 3) is True

    def test_subshard_flags_are_a_staircase(self, no_store):
        """Solvability is monotone in k, which is what makes the per-k
        merge exact: once solvable, solvable for every larger k."""
        for g in _representatives(3)[:4] + _representatives(3)[-2:]:
            flags = [
                _subshard_solvable(g, 3, DEFAULT_BUDGET, k)
                for k in range(1, 4)
            ]
            assert flags == sorted(flags), (g, flags)


class TestSubshardStore:
    def test_warm_split_rerun_resumes_everything(self, isolated_store):
        cold = solvability_sweep(3, limit=4)
        assert cold.resumed == 0
        _fresh_process(isolated_store)
        warm = solvability_sweep(3, limit=4)
        assert warm.rows == cold.rows
        assert repr(warm.rows) == repr(cold.rows)
        assert warm.resumed == 4
        by_kernel = {
            name: (hits, misses)
            for name, hits, misses, _w in warm.batch.store_stats.by_kernel
        }
        hits, misses = by_kernel["solvability_subshard"]
        assert hits == 4 * 3 and misses == 0

    def test_mid_class_kill_banks_finished_subshards(self, isolated_store):
        """Kill a sweep mid-class — some jobs banked, the row never
        folded — and the rerun serves the banked verdicts from the store
        while recomputing only the missing ones, landing on the
        definition's exact row."""
        reps = _representatives(3)
        heavy = reps[-1]  # the sparsest class: the heaviest one
        index = len(reps) - 1

        # The reference row, computed by definition on no store.
        with store_pkg.RESULT_STORE.disabled():
            KERNEL_CACHE.clear()
            reference_row = _reference_row(heavy)
        KERNEL_CACHE.clear()

        # "Run" only part of the class, as a killed sweep would have:
        # bounds and two of the three per-k jobs reach the store, k = 3
        # never runs.
        _class_bounds(heavy, 3)
        _subshard_solvable(heavy, 3, DEFAULT_BUDGET, 1)
        _subshard_solvable(heavy, 3, DEFAULT_BUDGET, 2)
        _fresh_process(isolated_store)
        db = store_pkg.active_store().db_stats()
        entries = {row["kernel"]: row["entries"] for row in db["kernels"]}
        assert entries.get("solvability_subshard") == 2

        # Rerun the full sweep: the banked jobs must hit the store; only
        # k=3 is computed fresh.
        report = solvability_sweep(3)
        assert report.rows[index] == reference_row
        by_kernel = {
            name: (hits, misses)
            for name, hits, misses, _w in report.batch.store_stats.by_kernel
        }
        sub_hits, _sub_misses = by_kernel["solvability_subshard"]
        assert sub_hits >= 2
        bounds_hits, _ = by_kernel["solvability_bounds"]
        assert bounds_hits >= 1

        # And now the class is fully banked: a fresh process resumes it.
        _fresh_process(store_pkg.active_store())
        rerun = solvability_sweep(3)
        assert rerun.rows == report.rows
        assert rerun.resumed == rerun.sharded == 16


class TestSweepReportSurface:
    def test_class_reports_carry_estimates_and_timings(self, no_store):
        report = solvability_sweep(3, limit=3)
        assert len(report.classes) == 3
        for cls in report.classes:
            assert cls.subshards == 4
            assert cls.elapsed >= 0.0
            assert cls.estimate >= 1
            payload = cls.to_dict()
            assert set(payload) == {
                "index", "edges", "estimate", "subshards", "elapsed",
                "resumed",
            }
