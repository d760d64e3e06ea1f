"""Tests for the engine layer: keys, interning, cache, batch driver.

The equivalence suite is the satellite guarantee of the engine PR: every
cached kernel returns byte-identical results with the cache enabled,
disabled, and across a ``run_batch`` round-trip.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import linecache
import operator
import pickle
import random
import sys

import pytest

from repro.bounds import bound_report, bound_report_many
from repro.combinatorics import (
    covering_numbers,
    distributed_domination_number,
    equal_domination_number,
    max_covering_witness,
)
from repro.engine import (
    KERNEL_CACHE,
    KERNEL_VERSIONS,
    CacheStats,
    KernelCache,
    adjacency_key,
    cache_disabled,
    cached_kernel,
    graph_set_key,
    intern_graph,
    iso_key,
)
from repro.engine.batch import Job, JobError, run_batch
from repro.engine.diagnostics import cache_probe
from repro.graphs import (
    Digraph,
    cycle,
    diameter,
    domination_number,
    minimum_dominating_set,
    random_digraph,
    star,
    symmetric_closure,
    union_of_stars,
    wheel,
)
from repro.models import ClosedAboveModel
from repro.store import encode_key
from repro.verification import decide_one_round_solvability


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate cache contents and statistics per test."""
    KERNEL_CACHE.clear()
    yield
    KERNEL_CACHE.clear()


def _kernel_rows(stats: CacheStats) -> dict[str, tuple[int, int]]:
    return {name: (hits, misses) for name, hits, misses in stats.by_kernel}


class TestCanonicalKeys:
    def test_adjacency_key_is_exact(self):
        g = cycle(5)
        assert adjacency_key(g) == (5, g.out_rows)
        assert adjacency_key(g) != adjacency_key(star(5, 0))

    def test_iso_key_invariant_over_orbit(self):
        g = union_of_stars(5, (0, 2))
        keys = {iso_key(h) for h in symmetric_closure([g])}
        assert keys == {iso_key(g)}

    def test_iso_key_separates_non_isomorphic(self):
        assert iso_key(cycle(4)) != iso_key(star(4, 0))
        assert iso_key(cycle(4)) != iso_key(wheel(4))

    def test_iso_key_falls_back_to_adjacency_for_large_n(self):
        g = random_digraph(9, random.Random(1), 0.3)
        assert iso_key(g) == adjacency_key(g)

    def test_graph_set_key_ignores_order_and_duplicates(self):
        graphs = [cycle(4), wheel(4), star(4, 0)]
        key = graph_set_key(graphs)
        assert key == graph_set_key(reversed(graphs))
        assert key == graph_set_key(graphs + [cycle(4)])
        rng = random.Random(24)
        model = list(ClosedAboveModel(symmetric_closure([star(3, 0)])).iter_graphs())
        for _ in range(100):
            pool = [random_digraph(rng.randint(1, 4), rng, rng.random())
                    for _ in range(rng.randint(1, 8))]
            # Equal graphs as distinct objects, and an enumerated model
            # in its own order and shuffled.
            graphs = [Digraph(g.n, g.out_rows)
                      for g in rng.choices(pool, k=rng.randint(1, 20))]
            graphs += model[:rng.randint(0, len(model))]
            if rng.random() < 0.5:
                rng.shuffle(graphs)
            want = tuple(sorted(set(adjacency_key(g) for g in graphs)))
            assert graph_set_key(graphs) == want
            assert encode_key(graph_set_key(graphs)) == encode_key(want)

    def test_intern_graph_shares_one_object(self):
        a = intern_graph(cycle(6))
        b = intern_graph(Digraph(6, cycle(6).out_rows))
        assert a is b
        assert intern_graph(star(6, 0)) is not a

    def test_symmetric_closure_members_are_interned(self):
        first = sorted(symmetric_closure([cycle(4)]))
        second = sorted(symmetric_closure([cycle(4)]))
        assert all(a is b for a, b in zip(first, second))


class TestKernelCache:
    def test_hit_miss_accounting(self):
        cache = KernelCache()

        @cached_kernel(name="double", key=lambda x: x, cache=cache)
        def double(x):
            return 2 * x

        assert double(3) == 6
        assert double(3) == 6
        assert double(4) == 8
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 2)
        assert _kernel_rows(stats)["double"] == (1, 2)

    def test_lru_eviction_bounds_entries(self):
        cache = KernelCache(max_entries=2)

        @cached_kernel(name="identity", key=lambda x: x, cache=cache)
        def identity(x):
            return x

        for value in range(5):
            identity(value)
        assert len(cache) == 2
        assert cache.stats().evictions == 3
        # The most recent entries survive.
        assert identity(4) == 4
        assert cache.stats().hits == 1

    def test_disabled_cache_recomputes(self):
        cache = KernelCache()
        calls = []

        @cached_kernel(name="probe", key=lambda x: x, cache=cache)
        def probe(x):
            calls.append(x)
            return x

        probe(1)
        with cache.disabled():
            probe(1)
            probe(1)
        probe(1)
        assert calls == [1, 1, 1]  # two bypasses recompute, final call hits

    def test_stats_merge_and_delta(self):
        a = CacheStats(hits=1, misses=2, by_kernel=(("x", 1, 2),))
        b = CacheStats(hits=3, misses=1, by_kernel=(("x", 2, 0), ("y", 1, 1)))
        merged = a.merge(b)
        assert (merged.hits, merged.misses) == (4, 3)
        assert _kernel_rows(merged) == {"x": (3, 2), "y": (1, 1)}
        delta = merged.delta_since(a)
        assert (delta.hits, delta.misses) == (3, 1)
        assert _kernel_rows(delta) == {"x": (2, 0), "y": (1, 1)}

    def test_describe_mentions_kernels(self):
        domination_number(cycle(4))
        text = KERNEL_CACHE.stats().describe()
        assert "domination_number" in text and "hits" in text


class TestCachedKernelEquivalence:
    """Satellite: cached and uncached results are byte-identical."""

    @pytest.mark.parametrize("seed", range(6))
    def test_graph_kernels_match_uncached(self, seed):
        rng = random.Random(seed)
        g = random_digraph(5, rng, 0.4)
        sym = sorted(symmetric_closure([g]))

        def workload():
            return (
                domination_number(g),
                minimum_dominating_set(g),
                equal_domination_number(g),
                covering_numbers(g),
                diameter(g),
                distributed_domination_number(sym),
                max_covering_witness(sym, 1),
            )

        with cache_disabled():
            baseline = repr(workload())
        KERNEL_CACHE.clear()
        cold = repr(workload())
        warm = repr(workload())
        assert cold == baseline
        assert warm == baseline

    @pytest.mark.parametrize("seed", range(3))
    def test_solvability_verdict_matches_uncached(self, seed):
        rng = random.Random(100 + seed)
        graphs = sorted({random_digraph(3, rng, 0.5) for _ in range(3)})
        with cache_disabled():
            baseline = [
                repr(decide_one_round_solvability(graphs, k)) for k in (1, 2)
            ]
        KERNEL_CACHE.clear()
        cold = [repr(decide_one_round_solvability(graphs, k)) for k in (1, 2)]
        warm = [repr(decide_one_round_solvability(graphs, k)) for k in (1, 2)]
        assert cold == baseline
        assert warm == baseline

    def test_solvability_memoized_per_graph_set(self):
        graphs = sorted(symmetric_closure([cycle(3)]))
        first = decide_one_round_solvability(graphs, 2)
        # Reversed order and duplicates map to the same set key.
        second = decide_one_round_solvability(list(reversed(graphs)) * 2, 2)
        assert second is first

    def test_betti_numbers_shared_across_equal_complexes(self):
        from repro.analysis.tables import figure4a_complex
        from repro.topology import betti_numbers

        first = betti_numbers(figure4a_complex())
        second = betti_numbers(figure4a_complex())
        assert first == second == (1, 0, 0)
        assert _kernel_rows(KERNEL_CACHE.stats())["betti_numbers"] == (1, 1)

    def test_warm_pass_serves_from_cache(self):
        g = cycle(6)
        covering_numbers(g)
        equal_domination_number(g)
        baseline = KERNEL_CACHE.stats()
        covering_numbers(g)
        equal_domination_number(g)
        delta = KERNEL_CACHE.stats().delta_since(baseline)
        assert delta.misses == 0
        assert delta.hits >= 2


class TestRunBatch:
    def test_results_keep_submission_order(self):
        tasks = [
            Job(name=f"gamma:{n}", fn=domination_number, args=(cycle(n),))
            for n in (3, 4, 5, 6, 7)
        ]
        batch = run_batch(tasks, jobs=1)
        assert batch.jobs == 1
        assert list(batch.values) == [domination_number(cycle(n)) for n in (3, 4, 5, 6, 7)]
        assert [r.name for r in batch.results] == [t.name for t in tasks]

    def test_parallel_matches_serial(self):
        models = [
            sorted(symmetric_closure([union_of_stars(4, (0, 1))])),
            [cycle(4)],
            [wheel(5)],
            sorted(symmetric_closure([cycle(4)])),
        ]
        serial = bound_report_many(models, jobs=1)
        parallel = bound_report_many(models, jobs=3)
        assert [r.describe() for r in parallel] == [r.describe() for r in serial]
        assert parallel == serial

    def test_parallel_merges_worker_stats(self):
        tasks = [
            Job(name=f"geq:{i}", fn=equal_domination_number, args=(cycle(5),))
            for i in range(4)
        ]
        batch = run_batch(tasks, jobs=2)
        assert batch.jobs == 2
        assert set(batch.values) == {equal_domination_number(cycle(5))}
        assert batch.stats.lookups > 0
        # The parent absorbed the workers' activity.
        assert KERNEL_CACHE.stats().lookups >= batch.stats.lookups

    def test_pool_live_counters_equal_batch_stats(self):
        """Each pool worker's activity is absorbed into the parent's live
        counters exactly once: their delta equals the batch's stats."""
        tasks = [
            Job(name=f"gamma:{n}", fn=domination_number, args=(cycle(n),))
            for n in (5, 6, 7, 8)
        ]
        before = KERNEL_CACHE.stats()
        batch = run_batch(tasks, jobs=2)
        assert batch.jobs == 2
        live = KERNEL_CACHE.stats().delta_since(before)
        assert (live.hits, live.misses) == (
            batch.stats.hits, batch.stats.misses,
        )

    def test_failing_job_raises_job_error(self):
        tasks = [
            Job(name="ok", fn=domination_number, args=(cycle(4),)),
            Job(name="boom", fn=domination_number, args=(None,)),
        ]
        with pytest.raises(JobError, match="boom"):
            run_batch(tasks, jobs=1)

    def test_multi_failure_batches_name_every_failed_job(self):
        """Regression: only the first JobError used to be surfaced."""
        tasks = [
            Job(name="boom-a", fn=operator.truediv, args=(1, 0)),
            Job(name="ok", fn=operator.mul, args=(6, 7)),
            Job(name="boom-b", fn=operator.truediv, args=(2, 0)),
        ]
        with pytest.raises(JobError) as excinfo:
            run_batch(tasks, jobs=1)
        error = excinfo.value
        assert [f.name for f in error.failures] == ["boom-a", "boom-b"]
        assert [f.index for f in error.failures] == [0, 2]
        assert "boom-a" in str(error) and "boom-b" in str(error)
        assert isinstance(error.__cause__, ZeroDivisionError)

    def test_collect_mode_returns_failures_in_batch_result(self):
        """Every failure rides on the one JobError: its job's name,
        submission index and message."""
        tasks = [
            Job(name="boom", fn=operator.truediv, args=(1, 0)),
            Job(name="ok", fn=operator.mul, args=(6, 7)),
        ]
        with pytest.raises(JobError) as excinfo:
            run_batch(tasks, jobs=1)
        (failure,) = excinfo.value.failures
        assert failure.name == "boom"
        assert failure.index == 0
        assert "ZeroDivisionError" in failure.message

    def test_collect_mode_matches_across_serial_and_pool(self):
        """The serial and pool paths name the same failed jobs."""
        tasks = [
            Job(name=f"job{i}", fn=operator.truediv, args=(i, i % 2))
            for i in range(6)
        ]
        failures = {}
        for jobs in (1, 3):
            with pytest.raises(JobError) as excinfo:
                run_batch(tasks, jobs=jobs)
            failures[jobs] = [(f.name, f.index) for f in excinfo.value.failures]
        assert failures[1] == failures[3]
        assert [index for _name, index in failures[1]] == [0, 2, 4]

    def test_successes_complete_before_the_batch_raises(self):
        """A failure must not discard the other jobs' finished work."""
        tasks = [
            Job(name="boom", fn=operator.truediv, args=(1, 0)),
            Job(name="gamma", fn=domination_number, args=(cycle(6),)),
        ]
        KERNEL_CACHE.clear()
        with pytest.raises(JobError, match="boom"):
            run_batch(tasks, jobs=1)

        def _domination_hits() -> int:
            rows = {n: h for n, h, _m in KERNEL_CACHE.stats().by_kernel}
            return rows.get("domination_number", 0)

        # The successful job's kernel result is already cached.
        hits_before = _domination_hits()
        domination_number(cycle(6))
        assert _domination_hits() == hits_before + 1

    def test_rejects_non_positive_jobs(self):
        with pytest.raises(Exception, match="jobs"):
            run_batch([], jobs=0)

    def test_digraph_pickle_round_trip(self):
        g = random_digraph(6, random.Random(3), 0.4)
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g and hash(clone) == hash(g)


class TestDiagnostics:
    def test_cache_probe_reports_warm_hits(self):
        report = cache_probe(n=4, passes=2)
        assert len(report.pass_times) == 2
        assert report.stats.hits > 0
        assert report.speedup > 0
        assert "warm speedup" in report.describe()

    def test_cache_probe_rejects_single_pass(self):
        with pytest.raises(ValueError):
            cache_probe(n=4, passes=1)


#: Every pinned kernel version, as the decorators give it.
PINNED_VERSIONS = {
    "graph_power": "1",
    "one_round_solvability": "2+bitset",
    "pseudosphere_complex": "1",
    "set_power": "1",
    "shelling_order": "1",
    "solvability_bounds": "1",
    "solvability_subshard": "1+bitset",
}


def _source_hash(fn) -> str:
    """A default kernel version as ``inspect.getsource`` defines it."""
    source = inspect.getsource(fn)
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:12]


class TestKernelVersions:
    def test_every_registered_version_is_its_pin_or_source_hash(self):
        import repro.analysis.sweeps  # noqa: F401 — registers the kernels
        import repro.analysis.tables  # noqa: F401
        import repro.topology  # noqa: F401

        kernels = {
            fn.kernel_name: fn
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
            for fn in vars(module).values()
            if callable(fn) and hasattr(fn, "kernel_name")
        }
        repro_kernels = {
            name for name in KERNEL_VERSIONS if name in kernels
        }
        assert set(PINNED_VERSIONS) <= repro_kernels
        assert len(repro_kernels) == 20
        for name in sorted(repro_kernels):
            want = PINNED_VERSIONS.get(name) or _source_hash(kernels[name])
            assert KERNEL_VERSIONS[name] == want, name

    def test_version_is_the_source_as_imported(self, tmp_path, monkeypatch):
        """Editing a kernel's file after import does not move its version:
        the lines are read at decoration, only the hash waits."""
        path = tmp_path / "edited_kernel_probe.py"
        path.write_text(
            "from repro.engine import cached_kernel\n\n\n"
            '@cached_kernel(name="edited_kernel_probe", key=lambda x: x)\n'
            "def probe(x):\n"
            "    return x + 1\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "edited_kernel_probe", raising=False)
        module = importlib.import_module("edited_kernel_probe")
        imported = _source_hash(module.probe)
        try:
            path.write_text(
                "from repro.engine import cached_kernel\n\n\n"
                '@cached_kernel(name="edited_kernel_probe", key=lambda x: x)\n'
                "def probe(x):\n"
                "    return x + 2  # edited after import\n"
            )
            linecache.checkcache(str(path))
            assert _source_hash(module.probe) != imported
            assert KERNEL_VERSIONS["edited_kernel_probe"] == imported
        finally:
            sys.modules.pop("edited_kernel_probe", None)
