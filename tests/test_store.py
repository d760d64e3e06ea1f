"""Tests for the persistent result store: keys, backend, tiering, resume.

The equivalence suite is the contract of the store PR: every kernel
returns byte-identical results with the store off, cold (rw, empty file)
and warm (fresh process against a populated file) — and a killed sharded
sweep resumes without recomputing completed shards.
"""

from __future__ import annotations

import enum
import hashlib
import os
import pickle
import sqlite3

import pytest

import repro.store as store_pkg
from repro.analysis.sweeps import solvability_sweep
from repro.bounds import bound_report
from repro.combinatorics import covering_numbers, equal_domination_number
from repro.engine import KERNEL_CACHE, KernelCache, cached_kernel
from repro.engine.batch import Job, run_batch
from repro.engine.cache import KERNEL_VERSIONS, cache_disabled
from repro.engine.canonical import graph_set_key
from repro.errors import GraphError, StoreError
from repro.graphs import (
    Digraph,
    cycle,
    domination_number,
    iter_all_digraphs,
    iter_isomorphism_classes,
    star,
    symmetric_closure,
    union_of_stars,
    wheel,
)
from repro.store import MISS, ResultStore, StoreStats, encode_key, fingerprint
from repro.models import symmetric_closed_above
from repro.store.keys import Unfingerprintable
from repro.topology import Simplex, SimplicialComplex
from repro.verification import decide_one_round_solvability


@pytest.fixture(autouse=True)
def isolated_store(tmp_path):
    """Point the global store at a fresh rw temp file for every test."""
    KERNEL_CACHE.clear()
    store = store_pkg.configure(path=tmp_path / "results.sqlite", mode="rw")
    yield store
    store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
    KERNEL_CACHE.clear()


def _fresh_process(store: ResultStore) -> ResultStore:
    """Simulate a brand-new process: empty RAM cache, same store file."""
    store.flush()
    KERNEL_CACHE.clear()
    return store_pkg.configure(path=store.path, mode=store.mode)


class TestFingerprint:
    def test_primitives_are_distinct(self):
        values = [None, True, False, 0, 1, "1", 1.0, b"1", (1,), [1], {1}]
        encodings = [encode_key(v) for v in values]
        assert len(set(encodings)) == len(encodings)

    def test_set_encoding_is_order_free(self):
        a = frozenset({("alpha", 1), ("beta", 2), ("gamma", 3)})
        b = frozenset(sorted(a, key=repr, reverse=True))
        assert encode_key(a) == encode_key(b)
        assert fingerprint(a) == fingerprint(b)

    def test_dict_encoding_is_insertion_order_free(self):
        assert encode_key({"x": 1, "y": 2}) == encode_key({"y": 2, "x": 1})

    def test_digraph_and_complex_keys(self):
        g = cycle(4)
        assert fingerprint(g) == fingerprint(Digraph(4, g.out_rows))
        assert fingerprint(g) != fingerprint(star(4, 0))
        s1 = Simplex([(0, "v"), (1, "v")])
        c1 = SimplicialComplex.from_simplices([s1])
        c2 = SimplicialComplex.from_simplices([Simplex([(1, "v"), (0, "v")])])
        assert fingerprint(c1) == fingerprint(c2)
        assert fingerprint(s1) != fingerprint(c1)

    def test_unfingerprintable_returns_none(self):
        class Opaque:
            pass

        assert fingerprint(Opaque()) is None
        assert fingerprint((1, Opaque())) is None
        with pytest.raises(Unfingerprintable):
            encode_key(Opaque())

    def test_stability_across_runs(self):
        # Pinned digest: if this changes, every existing store file is
        # silently orphaned — bump keys._ENCODING_VERSION deliberately
        # instead of letting an encoder edit do it by accident.
        key = ((3, (1, 2, 4)), 2, frozenset({"a", "b"}))
        assert fingerprint(key) == (
            "63cb1f08c912040ac05642aa63c616a2be0b711b46ccc6799f8f0a00038f0a3e"
        )

    def test_model_graph_sets_are_pinned(self):
        # One digest over the k = 1 `one_round_solvability` fingerprints
        # of the symmetric model of every n = 3 class and of every n = 4
        # class whose model has at most 1,000 graphs, in class order.  If
        # it changes, the verdicts banked for those models are orphaned:
        # however model graphs are built, their rows must stay.
        digest = hashlib.sha256()
        models = 0
        for n, budget in ((3, None), (4, 1000)):
            for g in iter_isomorphism_classes(iter_all_digraphs(n)):
                model = symmetric_closed_above([g])
                try:
                    graphs = list(model.iter_graphs(budget))
                except GraphError:
                    continue
                key = (graph_set_key(graphs), 1, (0, 1))
                digest.update(fingerprint(key).encode())
                models += 1
        assert models == 159
        assert digest.hexdigest() == (
            "ccbe8b9ad767f96c1b5c4afdea49798145776c9b8e2d7730f28a6b3918c45830"
        )


def reference_encode_key(obj):
    """The fully recursive encoder: one call per element, every tuple
    included.  ``encode_key`` must produce exactly these bytes."""
    if obj is None:
        return b"N;"
    if obj is True:
        return b"T;"
    if obj is False:
        return b"F;"
    if isinstance(obj, int):
        return b"i" + str(obj).encode("ascii") + b";"
    if isinstance(obj, float):
        return b"f" + repr(obj).encode("ascii") + b";"
    if isinstance(obj, str):
        body = obj.encode("utf-8")
        return b"s%d:" % len(body) + body
    if isinstance(obj, bytes):
        return b"b%d:" % len(obj) + obj
    if isinstance(obj, tuple):
        return b"(" + b"".join(reference_encode_key(x) for x in obj) + b")"
    if isinstance(obj, list):
        return b"[" + b"".join(reference_encode_key(x) for x in obj) + b"]"
    if isinstance(obj, (set, frozenset)):
        return b"{" + b"".join(sorted(reference_encode_key(x) for x in obj)) + b"}"
    if isinstance(obj, dict):
        items = sorted(
            (reference_encode_key(k), reference_encode_key(v))
            for k, v in obj.items()
        )
        return b"<" + b"".join(k + v for k, v in items) + b">"
    if isinstance(obj, Digraph):
        return b"G" + reference_encode_key((obj.n, obj.out_rows))
    raise TypeError(type(obj))


class _Level(enum.IntEnum):
    LOW = 1


class TestFlatEncoding:
    @pytest.mark.parametrize(
        "key",
        [
            (True, 1),
            (1, (False, 2)),
            (-3, -(1 << 70)),
            (1 << 64, (1 << 200) + 7, 0),
            (),
            ((),),
            ((4, (1, 2)), (4, (3, 8))),
            ((4, ()), (2, (1,))),
            ((4, (1, True)), (4, (3, 8))),
            ((True, (1, 2)),),
            ((4, (1, 2), 5), (4, (3, 8))),
            ((4, [1, 2]),),
            (((1, (2,)), (3, (4,))), 1, (0, 1)),
            ((_Level.LOW, 2), (3, (_Level.LOW,))),
            (1.5, "s", b"b", None, [1, (2, 3)], {(1, 2), (3,)}, {"k": (1,)}),
            (cycle(3), (star(4, 0),)),
        ],
        ids=[
            "bool-int", "nested-bool", "negative", "over-64-bit", "empty",
            "nested-empty", "graph-pairs", "pairs-with-empty-rows",
            "bool-in-rows", "bool-as-n", "triple-member", "list-rows",
            "solvability-key", "int-subclass", "mixed-primitives", "digraphs",
        ],
    )
    def test_matches_recursive_reference(self, key):
        assert encode_key(key) == reference_encode_key(key)

    def test_every_n3_graph_set_key(self):
        classes = list(iter_isomorphism_classes(iter_all_digraphs(3)))
        assert len(classes) == 16
        for g in classes:
            graphs = list(symmetric_closed_above([g]).iter_graphs())
            key = (graph_set_key(graphs), 1, (0, 1))
            assert encode_key(key) == reference_encode_key(key), g


class TestResultStoreBackend:
    def test_roundtrip_across_instances(self, tmp_path):
        path = tmp_path / "rt.sqlite"
        first = ResultStore(path, mode="rw")
        first.save("k", "1", ("key",), {"answer": 42})
        # Visible pre-flush through the pending overlay...
        assert first.load("k", "1", ("key",)) == {"answer": 42}
        first.close()
        # ...and post-flush from a different instance (fresh process).
        second = ResultStore(path, mode="ro")
        assert second.load("k", "1", ("key",)) == {"answer": 42}
        second.close()

    def test_miss_sentinel_distinguishes_stored_none(self, isolated_store):
        isolated_store.save("k", "1", "has-none", None)
        assert isolated_store.load("k", "1", "has-none") is None
        assert isolated_store.load("k", "1", "absent") is MISS

    def test_version_isolates_rows(self, isolated_store):
        isolated_store.save("k", "1", "key", "old")
        assert isolated_store.load("k", "2", "key") is MISS
        assert isolated_store.load("k", "1", "key") == "old"

    def test_ro_mode_never_writes(self, tmp_path):
        store = ResultStore(tmp_path / "ro.sqlite", mode="ro")
        store.save("k", "1", "key", "value")
        store.flush()
        assert store.load("k", "1", "key") is MISS
        assert not os.path.exists(store.path)

    def test_off_mode_is_inert(self, tmp_path):
        store = ResultStore(tmp_path / "off.sqlite", mode="off")
        store.save("k", "1", "key", "value")
        assert store.load("k", "1", "key") is MISS
        assert store.stats().lookups == 0

    def test_corrupt_row_is_a_miss_and_dropped(self, isolated_store):
        isolated_store.save("k", "1", "key", [1, 2, 3])
        isolated_store.flush()
        conn = sqlite3.connect(isolated_store.path)
        conn.execute("UPDATE results SET value = ?", (b"garbage",))
        conn.commit()
        conn.close()
        fresh = _fresh_process(isolated_store)
        assert fresh.load("k", "1", "key") is MISS
        report = fresh.integrity_report()
        assert report["ok"] and report["entries"] == 0

    def test_integrity_report_counts_corruption(self, isolated_store):
        isolated_store.save("k", "1", "a", 1)
        isolated_store.flush()
        conn = sqlite3.connect(isolated_store.path)
        conn.execute("UPDATE results SET checksum = 'bad'")
        conn.commit()
        conn.close()
        report = isolated_store.integrity_report()
        assert not report["ok"]
        assert report["corrupt"] == 1

    def test_vacuum_drops_stale_versions(self, isolated_store):
        # domination_number is a registered kernel; plant a row under a
        # version that can never be current.
        assert "domination_number" in KERNEL_VERSIONS
        isolated_store.save("domination_number", "stale-version", "a", 9)
        isolated_store.save("unregistered_kernel", "v0", "b", 7)
        result = isolated_store.vacuum()
        assert result["deleted"] == 1
        # Unknown kernels are preserved.
        assert isolated_store.load("unregistered_kernel", "v0", "b") == 7

    def test_vacuum_requires_rw(self, tmp_path):
        store = ResultStore(tmp_path / "x.sqlite", mode="ro")
        with pytest.raises(StoreError):
            store.vacuum()

    def test_db_stats_reports_staleness(self, isolated_store):
        domination_number(cycle(5))
        isolated_store.save("domination_number", "stale-version", "a", 9)
        info = isolated_store.db_stats()
        assert info["entries"] >= 2
        assert info["stale_entries"] == 1
        assert any(row["stale"] for row in info["kernels"])

    def test_stats_merge_and_delta(self):
        a = StoreStats(hits=1, misses=2, writes=2, by_kernel=(("x", 1, 2, 2),))
        b = StoreStats(hits=3, misses=0, writes=1, by_kernel=(("y", 3, 0, 1),))
        merged = a.merge(b)
        assert (merged.hits, merged.misses, merged.writes) == (4, 2, 3)
        delta = merged.delta_since(a)
        assert (delta.hits, delta.misses, delta.writes) == (3, 0, 1)
        assert delta.to_dict()["by_kernel"] == [
            {"kernel": "y", "hits": 3, "misses": 0, "writes": 1}
        ]


class TestCacheTiering:
    def test_kernel_miss_falls_through_to_store(self, isolated_store):
        value = domination_number(cycle(6))
        isolated_store.flush()
        fresh = _fresh_process(isolated_store)
        again = domination_number(cycle(6))
        assert again == value
        stats = fresh.stats()
        assert {n: h for n, h, _m, _w in stats.by_kernel}.get(
            "domination_number"
        ) == 1

    def test_store_write_back_persists_new_results(self, isolated_store):
        covering_numbers(wheel(5))
        isolated_store.flush()
        conn = sqlite3.connect(isolated_store.path)
        kernels = {
            row[0]
            for row in conn.execute("SELECT DISTINCT kernel FROM results")
        }
        conn.close()
        assert "covering_numbers" in kernels

    def test_cache_disabled_bypasses_store_entirely(self, isolated_store):
        calls = []

        @cached_kernel(name="probe_kernel_t1", key=lambda x: x, version="1")
        def probe(x):
            calls.append(x)
            return x * 2

        assert probe(21) == 42
        with cache_disabled():
            assert probe(21) == 42  # recomputed, not served by any tier
        assert calls == [21, 21]
        # Outside the context the tiers serve again.
        KERNEL_CACHE.clear()
        assert probe(21) == 42
        assert calls == [21, 21]

    def test_store_disabled_context(self, isolated_store):
        calls = []

        @cached_kernel(name="probe_kernel_t2", key=lambda x: x, version="1")
        def probe(x):
            calls.append(x)
            return x + 1

        probe(1)
        KERNEL_CACHE.clear()
        with store_pkg.disabled():
            probe(1)
        assert calls == [1, 1]  # store off: the fresh cache had to compute

    def test_version_bump_invalidates_store(self, isolated_store):
        calls = []

        @cached_kernel(name="versioned_kernel", key=lambda x: x, version="1")
        def v1(x):
            calls.append(("v1", x))
            return x

        v1(5)
        KERNEL_CACHE.clear()

        @cached_kernel(name="versioned_kernel", key=lambda x: x, version="2")
        def v2(x):
            calls.append(("v2", x))
            return x

        v2(5)
        assert calls == [("v1", 5), ("v2", 5)]
        # The v1 row is still there for v1 readers...
        KERNEL_CACHE.clear()
        v1(5)
        assert calls == [("v1", 5), ("v2", 5)]
        # ...and vacuum (current version is now "2") reclaims it.
        isolated_store.vacuum()
        KERNEL_CACHE.clear()
        v1(5)
        assert calls == [("v1", 5), ("v2", 5), ("v1", 5)]

    def test_source_hash_default_version_registered(self):
        version = KERNEL_VERSIONS["domination_number"]
        assert isinstance(version, str) and len(version) == 12

    @pytest.mark.parametrize("scenario", ["off", "cold", "warm"])
    def test_results_identical_across_store_scenarios(
        self, isolated_store, scenario
    ):
        def workload():
            sym = sorted(symmetric_closure([union_of_stars(4, (0, 1))]))
            return repr(
                (
                    bound_report(sym).describe(),
                    domination_number(wheel(5)),
                    covering_numbers(cycle(5)),
                    equal_domination_number(cycle(5)),
                    decide_one_round_solvability([cycle(3)], 1),
                )
            )

        with store_pkg.disabled():
            with cache_disabled():
                baseline = workload()
        KERNEL_CACHE.clear()
        if scenario == "off":
            with store_pkg.disabled():
                assert workload() == baseline
        elif scenario == "cold":
            assert workload() == baseline
        else:
            workload()  # populate
            _fresh_process(isolated_store)
            assert workload() == baseline


class TestBatchStoreMerge:
    def test_parallel_workers_populate_one_store(self, isolated_store):
        tasks = [
            Job(name=f"gamma:{n}", fn=domination_number, args=(cycle(n),))
            for n in (4, 5, 6, 7)
        ]
        batch = run_batch(tasks, jobs=2)
        assert batch.jobs == 2
        assert batch.store_stats is not None
        assert batch.store_stats.writes > 0
        isolated_store.flush()
        # Every worker-computed row reached the parent's database.
        fresh = _fresh_process(isolated_store)
        KERNEL_CACHE.clear()
        for n in (4, 5, 6, 7):
            domination_number(cycle(n))
        hits = {
            name: h for name, h, _m, _w in fresh.stats().by_kernel
        }.get("domination_number", 0)
        assert hits == 4

    def test_parallel_matches_serial_with_store(self, isolated_store):
        models = [[cycle(4)], [wheel(5)], [union_of_stars(5, (0, 1))]]
        from repro.bounds import bound_report_many

        serial = bound_report_many(models, jobs=1)
        KERNEL_CACHE.clear()
        parallel = bound_report_many(models, jobs=2)
        assert parallel == serial

    def test_store_stats_absorbed_into_global_store(self, isolated_store):
        tasks = [
            Job(name="geq", fn=equal_domination_number, args=(cycle(5),))
        ]
        run_batch(tasks, jobs=1)
        stats = isolated_store.stats()
        assert stats.writes > 0


class TestSweepResume:
    def test_limit_then_full_resumes(self, isolated_store):
        partial = solvability_sweep(3, limit=4)
        assert partial.sharded == 4 and partial.total_classes == 16
        assert partial.resumed == 0
        # Fresh process: the first four shards must come from the store.
        _fresh_process(isolated_store)
        full = solvability_sweep(3)
        assert full.sharded == 16
        assert full.resumed >= 4
        assert full.rows[:4] == partial.rows
        assert all(row[3] for row in full.rows)  # all within bounds

    def test_sweep_rows_match_e10_table(self, isolated_store):
        from repro.analysis.tables import e10_solvability_frontier_table

        headers, rows = e10_solvability_frontier_table(n=3)
        report = solvability_sweep(3)
        assert headers == report.headers
        assert rows == report.rows

    def test_sweep_parallel_matches_serial(self, isolated_store):
        serial = solvability_sweep(3, limit=6)
        KERNEL_CACHE.clear()
        parallel = solvability_sweep(3, limit=6, jobs=2)
        assert parallel.rows == serial.rows

    def test_sweep_describe_mentions_resume(self, isolated_store):
        report = solvability_sweep(3, limit=2)
        text = report.describe()
        assert "isomorphism classes" in text and "resumed" in text


class TestStoreProbe:
    def test_store_probe_warm_start(self, isolated_store):
        from repro.engine.diagnostics import store_probe

        report = store_probe(n=4, passes=2)
        assert len(report.pass_times) == 2
        assert report.store_stats.writes > 0
        assert report.store_stats.hits > 0
        assert report.speedup > 1.0
        payload = report.to_dict()
        assert payload["store_mode"] == "rw"
        assert "warm-start speedup" in report.describe()

    def test_store_probe_requires_active_store(self):
        from repro.engine.diagnostics import store_probe

        store_pkg.configure(mode="off")
        with pytest.raises(ValueError, match="active result store"):
            store_probe(n=4)


def _nested_batch_job(n: int) -> int:
    """Top-level job that itself runs a batch (the E10-inside-worker shape)."""
    batch = run_batch(
        [Job(name=f"inner:{n}", fn=domination_number, args=(cycle(n),))],
        jobs=2,  # degrades to serial inside a daemonic worker
    )
    return batch.values[0]


class TestRobustness:
    def test_unreadable_store_file_degrades_to_misses(self, tmp_path):
        """A garbage database must never crash a kernel call (best-effort)."""
        path = tmp_path / "garbage.sqlite"
        path.write_bytes(b"this is not a sqlite database at all")
        store = store_pkg.configure(path=path, mode="rw")
        KERNEL_CACHE.clear()
        assert domination_number(cycle(5)) == 3  # computes, store misses
        assert store.flush() == 0  # nothing can be written either
        report = store.integrity_report()
        assert report["ok"] is False
        assert report["quick_check"] == "unreadable"
        with pytest.raises(StoreError, match="unreadable"):
            store.vacuum()

    def test_pseudosphere_accepts_unorderable_hashable_views(
        self, isolated_store
    ):
        from repro.topology import Pseudosphere

        class Opaque:
            """Hashable but not orderable — the documented view contract."""

        a, b = Opaque(), Opaque()
        complex_ = Pseudosphere({0: [a, b], 1: [a]}).to_complex()
        assert len(complex_) == 2  # two facets: one per view choice of p0

    def test_nested_batch_rows_reach_parent_store(self, isolated_store):
        """A worker running its own (degraded) batch ships rows home."""
        batch = run_batch(
            [
                Job(name="outer:6", fn=_nested_batch_job, args=(6,)),
                Job(name="outer:7", fn=_nested_batch_job, args=(7,)),
            ],
            jobs=2,  # two tasks, so real daemonic workers fork
        )
        assert batch.jobs == 2
        assert batch.values == (3, 4)
        isolated_store.flush()
        fresh = _fresh_process(isolated_store)
        KERNEL_CACHE.clear()
        domination_number(cycle(6))
        domination_number(cycle(7))
        hits = {
            name: h for name, h, _m, _w in fresh.stats().by_kernel
        }.get("domination_number", 0)
        assert hits == 2

    def test_store_cli_refuses_missing_file(self, tmp_path):
        from repro.__main__ import main

        missing = tmp_path / "typo.sqlite"
        try:
            for action in ("vacuum", "integrity"):
                with pytest.raises(SystemExit, match="no store file"):
                    main(["store", action, "--path", str(missing)])
                assert not missing.exists()  # no side-effect creation
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")


def _seed_rows(store: ResultStore, count: int, *, blob_bytes: int = 0) -> None:
    """Insert ``count`` synthetic rows (optionally padded to ``blob_bytes``)."""
    payload = "x" * blob_bytes
    for i in range(count):
        store.save("seed_kernel", "1", ("row", i), (i, payload))
    store.flush()


class TestOlderStoreFiles:
    """Files from before ``last_used`` went: v1 has a ``meta`` table, v2
    also has the ``last_used`` column; both stay readable and writable."""

    @pytest.mark.parametrize("last_used", [False, True], ids=["v1", "v2"])
    def test_older_file_loads_accepts_writes_and_seeds(
        self, tmp_path, last_used
    ):
        path = tmp_path / "older.sqlite"
        conn = sqlite3.connect(path)
        conn.executescript(
            f"""
            CREATE TABLE results (
                kernel TEXT NOT NULL, version TEXT NOT NULL,
                key_hash TEXT NOT NULL, value BLOB NOT NULL,
                checksum TEXT NOT NULL, created REAL NOT NULL,
                {"last_used REAL," if last_used else ""}
                PRIMARY KEY (kernel, version, key_hash)
            );
            CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
            INSERT INTO meta VALUES ('schema_version', '{1 + last_used}');
            """
        )
        blob = pickle.dumps(123)
        row = (
            "seed_kernel", "1", fingerprint(("row", 0)),
            blob, hashlib.sha256(blob).hexdigest(), 1000.0,
        ) + ((2000.0,) if last_used else ())
        conn.execute(
            f"INSERT INTO results VALUES ({', '.join('?' * len(row))})", row
        )
        conn.commit()
        conn.close()

        store = ResultStore(path, mode="rw")
        assert store.load("seed_kernel", "1", ("row", 0)) == 123
        store.save("seed_kernel", "1", ("row", 0), 123)  # already stored
        store.save("seed_kernel", "1", ("row", 1), 456)
        assert store.flush() == 2
        rows = [
            row
            for chunk in store.export_seed({"seed_kernel": "1"})
            for row in chunk
        ]
        assert len(rows) == 2
        worker = ResultStore(":memory:", mode="rw")
        worker.worker_mode = True
        assert worker.import_seed_rows(rows) == 2
        assert worker.load("seed_kernel", "1", ("row", 1)) == 456
        assert store.integrity_report()["ok"]
        store.close()


class TestWorkerModeDelta:
    def test_worker_mode_never_touches_sqlite(self, tmp_path):
        store = ResultStore(tmp_path / "w.sqlite", mode="rw")
        store.worker_mode = True
        store.save("k", "1", ("a",), 1)
        store.save("k", "1", ("b",), 2)
        assert store.flush() == 0
        assert not os.path.exists(store.path)
        # Pending rows still serve reads (the overlay).
        assert store.load("k", "1", ("a",)) == 1


class TestConfiguration:
    def test_configure_replaces_global(self, tmp_path):
        replaced = store_pkg.configure(path=tmp_path / "a.sqlite", mode="ro")
        assert store_pkg.RESULT_STORE is replaced
        assert store_pkg.active_store() is replaced
        store_pkg.configure(mode="off")
        assert store_pkg.active_store() is None

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="mode"):
            ResultStore(tmp_path / "x.sqlite", mode="bogus")

    def test_experiment_footer_reports_store(self, isolated_store, capsys):
        from repro.__main__ import main

        assert main(["experiments", "E2"]) == 0
        out = capsys.readouterr().out
        assert "store:" in out and "writes" in out


class TestSeedTier:
    """The in-memory seed tier and the wire-format row round trips."""

    def test_export_seed_filters_by_version(self, isolated_store):
        isolated_store.save("alive", "1", ("a",), 1)
        isolated_store.save("alive", "0", ("b",), 2)  # stale version
        isolated_store.save("other", "1", ("c",), 3)  # unrequested kernel
        isolated_store.flush()
        rows = [
            row
            for chunk in isolated_store.export_seed({"alive": "1"})
            for row in chunk
        ]
        assert [(r[0], r[1]) for r in rows] == [("alive", "1")]

    def test_export_seed_chunks_by_rows_and_bytes(self, isolated_store):
        _seed_rows(isolated_store, 7, blob_bytes=2048)
        chunks = list(
            isolated_store.export_seed(
                {"seed_kernel": "1"}, chunk_rows=3, chunk_bytes=1 << 30
            )
        )
        assert [len(c) for c in chunks] == [3, 3, 1]
        by_bytes = list(
            isolated_store.export_seed(
                {"seed_kernel": "1"}, chunk_rows=512, chunk_bytes=4096
            )
        )
        assert len(by_bytes) > 1
        assert sum(len(c) for c in by_bytes) == 7

    def test_import_seed_serves_hits_without_touching_disk(
        self, isolated_store
    ):
        isolated_store.save("k", "1", ("x",), {"deep": (1, 2)})
        isolated_store.flush()
        rows = [
            row
            for chunk in isolated_store.export_seed({"k": "1"})
            for row in chunk
        ]
        worker = ResultStore(":memory:", mode="rw")
        worker.worker_mode = True
        assert worker.import_seed_rows(rows) == 1
        assert worker.seed_rows == 1
        assert worker.load("k", "1", ("x",)) == {"deep": (1, 2)}
        stats = worker.stats()
        assert (stats.hits, stats.misses, stats.seed_hits) == (1, 0, 1)
        assert worker.clear_seed() == 1
        assert worker.load("k", "1", ("x",)) is MISS

    def test_import_seed_rejects_corrupt_rows(self, isolated_store):
        isolated_store.save("k", "1", ("x",), 42)
        isolated_store.flush()
        (row,) = [
            row
            for chunk in isolated_store.export_seed({"k": "1"})
            for row in chunk
        ]
        tampered = row[:3] + (b"not the blob",) + row[4:]
        worker = ResultStore(":memory:", mode="rw")
        assert worker.import_seed_rows([tampered, None, ("short",)]) == 0
        assert worker.load("k", "1", ("x",)) is MISS

    def test_rows_without_six_fields_are_skipped(self, isolated_store):
        worker = ResultStore(":memory:", mode="rw")
        worker.worker_mode = True
        worker.save("k", "1", ("x",), 42)
        worker.save("k", "1", ("y",), 43)
        good, other = worker.drain_pending()
        short = other[:5]  # checksum intact, created missing
        isolated_store.absorb_rows([short, good])
        assert isolated_store.import_seed_rows([short]) == 0
        assert isolated_store.flush() == 1
        assert isolated_store.load("k", "1", ("x",)) == 42
        assert isolated_store.load("k", "1", ("y",)) is MISS
