"""Cross-check suite for the CSP compute backends.

Every memoized search runs on ``bitset`` (the bitmask search); the
``reference`` search and the ``sat`` CNF encoding (when `python-sat` is
installed) are the oracles it is checked against.  Every backend returns
the same verdict with a valid witness on the same instance, on random
instances and on every CSP of the n = 3 sweep.  The one-round builder
that hands every backend its rows is pinned here too, against a
frozenset builder kept in this file.
"""

from __future__ import annotations

import random
import sqlite3
from itertools import product

import pytest

import repro.store as store_pkg
from repro.analysis.sweeps import DEFAULT_BUDGET
from repro.engine import KERNEL_CACHE, KERNEL_VERSIONS
from repro.errors import VerificationError
from repro.graphs import Digraph, cycle, star
from repro.graphs.closure import upward_closure_size
from repro.graphs.generators import iter_all_digraphs
from repro.graphs.symmetry import iter_isomorphism_classes
from repro.models import symmetric_closed_above
from repro.verification import (
    SolvabilitySearch,
    decide_multi_round_solvability,
    decide_one_round_solvability,
    decide_one_round_solvability_colored,
    sat_available,
)
from repro.verification import colored as colored_module
from repro.verification import solvability as solvability_module
from repro.verification.backends import (
    available_backends,
    solve_csp,
    witness_ok,
)
from repro.verification.backends.bitset import reduce_executions
from repro.verification.solvability import _solve_csp, index_views

needs_sat = pytest.mark.skipif(
    not sat_available(), reason="python-sat not installed"
)


# ----------------------------------------------------------------------
# Random instance generation
# ----------------------------------------------------------------------

def _random_instance(rng: random.Random):
    """A random (graphs, k, values) solvability instance, small enough
    that ~100 of them cross-check in seconds."""
    n = rng.choice((2, 3))
    graph_count = rng.randint(1, 4)
    graphs = []
    for _ in range(graph_count):
        rows = tuple(
            rng.randrange(1 << n) | (1 << p) for p in range(n)
        )
        graphs.append(Digraph(n, rows))
    k = rng.randint(1, n)
    if rng.random() < 0.3:
        # Non-integer values exercise the value-indexing layer.
        alphabet = ("a", "b", "c", "d", "e")
        values = alphabet[: rng.randint(2, k + 2)]
    else:
        values = tuple(range(rng.randint(2, k + 2)))
    return graphs, k, values


def _assert_valid_witness(graphs, k, values, result):
    """Replay the full model against the witness decision map."""
    assert result.solvable and result.decision_map is not None
    dm = result.decision_map
    for g in graphs:
        n = g.n
        in_neighbors = [g.in_neighbors(p) for p in range(n)]
        for assignment in product(values, repeat=n):
            decided = set()
            for p in range(n):
                view = frozenset(
                    (q, assignment[q]) for q in in_neighbors[p]
                )
                value = dm[view]
                assert value in {v for _, v in view}, "validity violated"
                decided.add(value)
            assert len(decided) <= k, "agreement violated"


def _solve(graphs, k, values, backend):
    # SolvabilitySearch.solve bypasses the kernel cache: every call here
    # really runs the named backend.
    return SolvabilitySearch(graphs, k, values).solve(backend=backend)


# ----------------------------------------------------------------------
# Randomized cross-checks
# ----------------------------------------------------------------------

class TestBitsetMatchesReference:
    def test_randomized_verdicts_and_witnesses(self):
        rng = random.Random(0xC5B)
        sat_count = 0
        for _ in range(100):
            graphs, k, values = _random_instance(rng)
            ref = _solve(graphs, k, values, "reference")
            bit = _solve(graphs, k, values, "bitset")
            assert bit.solvable == ref.solvable
            assert bit.view_count == ref.view_count
            assert bit.execution_count == ref.execution_count
            if ref.solvable:
                sat_count += 1
                _assert_valid_witness(graphs, k, values, ref)
                _assert_valid_witness(graphs, k, values, bit)
        # The generator must exercise both verdicts or the test is weak.
        assert 10 <= sat_count <= 90

    def test_identical_witnesses(self):
        # The bitset backend mirrors the reference traversal (same
        # fail-first tie-breaking, same ascending value order), so it
        # finds the *same* witness, not merely an equivalent one.  A
        # deliberate traversal change may relax this test — the verdict
        # cross-check above is the hard contract.
        rng = random.Random(7)
        for _ in range(25):
            graphs, k, values = _random_instance(rng)
            ref = _solve(graphs, k, values, "reference")
            bit = _solve(graphs, k, values, "bitset")
            assert ref == bit

    def test_check_backend_runs_clean(self):
        for k in (1, 2):
            result = _solve([cycle(3), star(3, 0)], k, (0, 1, 2), "check")
            reference = _solve([cycle(3), star(3, 0)], k, (0, 1, 2), "reference")
            assert result == reference

    def test_searches_deeper_than_the_default_recursion_limit(self):
        # The searches recurse once per assigned view, and Python's
        # default limit is 1,000 frames.
        views = 1500
        executions = [(idx,) for idx in range(views)]
        domains = [(0, 1)] * views
        solvable, assignment, reduced = solve_csp(
            executions, domains, 1, backend="check"
        )
        assert solvable and reduced == views
        assert witness_ok(executions, domains, assignment, 1)


@needs_sat
class TestSatMatchesBitset:
    def test_randomized_verdicts(self):
        rng = random.Random(0x5A7)
        for _ in range(30):
            graphs, k, values = _random_instance(rng)
            bit = _solve(graphs, k, values, "bitset")
            sat = _solve(graphs, k, values, "sat")
            assert sat.solvable == bit.solvable
            assert sat.execution_count == bit.execution_count
            if sat.solvable:
                _assert_valid_witness(graphs, k, values, sat)

    def test_sat_in_available_backends(self):
        assert available_backends() == ("reference", "bitset", "sat")


# ----------------------------------------------------------------------
# Pinned verdicts on the two heavy one-round workloads
# ----------------------------------------------------------------------

def _classes_densest_first(n):
    return sorted(
        iter_isomorphism_classes(iter_all_digraphs(n)),
        key=lambda g: (-g.proper_edge_count, g.out_rows),
    )


class TestHeavyWorkloadVerdicts:
    """``(solvable, view_count, execution_count)`` per k on the two
    workloads ``benchmarks/bench_csp_backends.py`` times, with the store
    off and the cache cleared.  The constants date
    from the bitset backend's introduction; never regenerate them."""

    @staticmethod
    def _verdicts(pool, ks):
        with store_pkg.disabled():
            KERNEL_CACHE.clear()
            try:
                results = [decide_one_round_solvability(pool, k) for k in ks]
            finally:
                KERNEL_CACHE.clear()
        return [
            (r.solvable, r.view_count, r.execution_count) for r in results
        ]

    def test_heaviest_n3_class(self):
        # The full symmetric model of the sparsest n = 3 class.
        model = symmetric_closed_above([_classes_densest_first(3)[-1]])
        pool = sorted(model.iter_graphs(max_graphs=1 << 12))
        assert len(pool) == 64
        assert self._verdicts(pool, (1, 2, 3)) == [
            (False, 26, 256),
            (False, 63, 864),
            (True, 124, 2048),
        ]

    def test_n4_tail_sample(self):
        # The first 256 sorted graphs of the full model of the sparsest
        # n = 4 class whose up-set has at most 2^10 graphs.
        g = next(
            g
            for g in reversed(_classes_densest_first(4))
            if upward_closure_size(g) <= 1 << 10
        )
        pool = sorted(symmetric_closed_above([g]).iter_graphs())[:256]
        assert len(pool) == 256
        assert self._verdicts(pool, (1, 2)) == [
            (False, 80, 768),
            (False, 255, 3888),
        ]


# ----------------------------------------------------------------------
# The mask-native subsumption reduction
# ----------------------------------------------------------------------

class TestReduceExecutions:
    def test_drops_strict_subsets_keeps_order(self):
        rows = [(0, 1), (0, 1, 2), (3,), (2, 3), (0, 3)]
        assert reduce_executions(rows) == [(0, 1, 2), (2, 3), (0, 3)]

    def test_equal_rows_both_kept(self):
        # Incomparable rows all survive, and so do copies of a row: equal
        # rows are not strict supersets of each other.  Rows compare as
        # sets, so the same views in another order, or one view twice,
        # make equal rows too.
        rows = [(0, 1), (1, 2), (0, 2)]
        assert reduce_executions(rows) == rows
        rows = [(0, 1), (0, 1), (2,)]
        assert reduce_executions(rows) == rows
        rows = [(1, 0), (0, 1), (0, 0, 1), (0,)]
        assert reduce_executions(rows) == rows[:3]

    def test_empty_row(self):
        assert reduce_executions([()]) == [()]
        assert reduce_executions([(), (1,)]) == [(1,)]

    def test_matches_reference_reduction(self):
        # Rows are drawn with repeats: the reduction must keep every copy
        # of an undominated row.
        rng = random.Random(11)
        for _ in range(50):
            universe = rng.randint(3, 8)
            rows = [
                tuple(
                    sorted(
                        rng.sample(range(universe), rng.randint(1, universe))
                    )
                )
                for _ in range(rng.randint(1, 12))
            ]
            sets = [frozenset(r) for r in rows]
            expected = [
                rows[i]
                for i, es in enumerate(sets)
                if not any(
                    i != j and es < other for j, other in enumerate(sets)
                )
            ]
            assert reduce_executions(rows) == expected


# ----------------------------------------------------------------------
# View construction: packed keys against frozenset views
# ----------------------------------------------------------------------

def _frozenset_build(graphs, values, colored=False):
    """The one-round CSP built one ``frozenset`` view per (graph,
    assignment, process): the definition the packed-key builder must
    reproduce exactly, view indices and rows alike.  The rows are every
    execution's, before :func:`_reduced`."""
    n = graphs[0].n
    index = {}
    rows = []
    for g in graphs:
        in_neighbors = [g.in_neighbors(p) for p in range(n)]
        for assignment in product(values, repeat=n):
            row = set()
            for p in range(n):
                view = frozenset((q, assignment[q]) for q in in_neighbors[p])
                key = (p, view) if colored else view
                row.add(index.setdefault(key, len(index)))
            rows.append(tuple(sorted(row)))
    return index, rows


def _reduced(rows):
    """The rows a search is handed, by definition: the distinct rows in
    order, minus every row that is a strict subset of another."""
    rows = list(dict.fromkeys(rows))
    sets = [frozenset(row) for row in rows]
    return [
        row for row, views in zip(rows, sets)
        if not any(views < other for other in sets)
    ]


def _elements(view_index):
    # ``1 == True``: compare which of the two each view actually holds.
    return [sorted(map(repr, view)) for view in view_index]


class TestViewConstruction:
    VALUE_SETS = (
        (0, 1),
        (0, 1, 2),
        ("a", "b"),
        ("b", "a", "c"),
        (0, 0, 1),
        (1, True, 2),
    )

    def test_matches_frozenset_builder(self):
        rng = random.Random(0xB11D)
        for _ in range(80):
            n = rng.randint(1, 4)
            graphs = [
                Digraph(n, tuple(rng.randrange(1 << n) for _ in range(n)))
                for _ in range(rng.randint(1, 6))
            ]
            values = rng.choice(self.VALUE_SETS)
            search = SolvabilitySearch(graphs, 1, values)
            index, rows = _frozenset_build(graphs, values)
            assert list(search._view_index.items()) == list(index.items())
            assert _elements(search._view_index) == _elements(index)
            assert search._executions == _reduced(rows)

    def test_colored_matches_frozenset_builder(self):
        # Graphs repeat here, so the colored rows must come out distinct;
        # none is dropped otherwise, as no colored row holds another.
        rng = random.Random(0xC0105)
        for _ in range(80):
            n = rng.randint(1, 4)
            pool = [
                Digraph(n, tuple(rng.randrange(1 << n) for _ in range(n)))
                for _ in range(rng.randint(1, 3))
            ]
            graphs = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
            values = rng.choice(self.VALUE_SETS)
            index, rows = index_views(graphs, values, colored=True)
            want_index, want_rows = _frozenset_build(
                graphs, values, colored=True
            )
            assert list(index.items()) == list(want_index.items())
            assert _elements(index) == _elements(want_index)
            assert rows == _reduced(want_rows) == list(dict.fromkeys(want_rows))

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_frozenset_builder_on_n3_classes(self, k):
        values = tuple(range(k + 1))
        for g in iter_isomorphism_classes(iter_all_digraphs(3)):
            graphs = list(symmetric_closed_above([g]).iter_graphs())
            search = SolvabilitySearch(graphs, k, values)
            index, rows = _frozenset_build(graphs, values)
            assert list(search._view_index.items()) == list(index.items())
            assert search._executions == _reduced(rows)

    def test_equal_values_share_a_digit(self):
        result = _solve([cycle(3)], 1, (1, True, 2), "bitset")
        assert result.describe() == (
            "1-set agreement (1 round): IMPOSSIBLE [12 views, 8 executions]"
        )

    @pytest.mark.parametrize("values", [(0, 1), (0, "a")])
    def test_values_need_not_compare(self, values):
        # 0 and "a" do not compare: no search may sort the values.
        want = "1-set agreement (1 round): IMPOSSIBLE [12 views, 8 executions]"
        g = cycle(3)
        assert decide_one_round_solvability([g], 1, values).describe() == want
        assert decide_one_round_solvability_colored(
            [g], 1, values
        ).describe() == want
        assert decide_multi_round_solvability(
            [g], 1, 1, values
        ).describe() == want

    def test_unorderable_values_get_a_valid_witness(self):
        values = (None, "a", 0)
        result = _solve([cycle(3), star(3, 0)], 2, values, "check")
        _assert_valid_witness([cycle(3), star(3, 0)], 2, values, result)

    def test_searches_hand_over_distinct_undominated_rows(self, monkeypatch):
        # The builders own the subsumption reduction: whatever reaches a
        # backend is already distinct and has no row inside another.
        handed = []

        def spy(executions, domains, k, backend=None):
            handed.append(executions)
            return solve_csp(executions, domains, k, backend=backend)

        monkeypatch.setattr(solvability_module, "solve_csp", spy)
        rng = random.Random(0x5E7)
        for _ in range(15):
            graphs, k, values = _random_instance(rng)
            searches = (
                lambda: SolvabilitySearch(graphs, k, values).solve(),
                lambda: decide_one_round_solvability_colored(
                    graphs, k, values
                ),
                lambda: decide_multi_round_solvability(
                    graphs[:2], 2, k, values[:2]
                ),
            )
            for search in searches:
                search()
                rows = handed.pop()
                assert len(set(rows)) == len(rows)
                assert reduce_executions(rows) == rows

    @pytest.mark.parametrize("k", [1, 2])
    def test_colored_matches_frozenset_builder_on_n3_classes(
        self, k, monkeypatch
    ):
        # The colored search must hand the solver exactly the CSP the
        # frozenset builder makes; its view count, verdict and witness
        # are then that CSP's.  Spying on the hand-over keeps this to one
        # solve per class (one class takes seconds at k = 2).
        handed = []

        def spy(index, rows, k, domains, backend="bitset"):
            handed.append((index, rows, domains))
            return _solve_csp(index, rows, k, domains=domains, backend=backend)

        monkeypatch.setattr(colored_module, "_solve_csp", spy)
        values = tuple(range(k + 1))
        for g in iter_isomorphism_classes(iter_all_digraphs(3)):
            graphs = list(symmetric_closed_above([g]).iter_graphs())
            result = decide_one_round_solvability_colored(graphs, k)
            index, rows, domains = handed.pop()
            want_index, want_rows = _frozenset_build(
                graphs, values, colored=True
            )
            assert list(index.items()) == list(want_index.items())
            assert rows == want_rows
            assert domains == [
                tuple(sorted({v for _, v in view})) for _, view in want_index
            ]
            assert result.view_count == len(want_index)
            if result.solvable:
                assert list(result.decision_map) == list(want_index)


# ----------------------------------------------------------------------
# Every CSP of the n = 3 sweep under ``check``
# ----------------------------------------------------------------------

class TestE10UnderCheck:
    @pytest.mark.parametrize("k", [1, 2])
    def test_every_e10_csp_agrees(self, k):
        # The CSPs `sweep --n 3` searches: k = 3 = n is answered without
        # one.  `check` runs every available backend and raises on any
        # disagreement; its answer must then be the memoized bitset one.
        classes = _classes_densest_first(3)
        assert len(classes) == 16
        for g in classes:
            model = symmetric_closed_above([g])
            full = sorted(model.iter_graphs(max_graphs=DEFAULT_BUDGET))
            checked = SolvabilitySearch(full, k, range(k + 1)).solve("check")
            assert checked == decide_one_round_solvability(full, k)


# ----------------------------------------------------------------------
# Backend names and kernel versions
# ----------------------------------------------------------------------

class TestBackendNames:
    def test_unknown_name_raises(self):
        with pytest.raises(VerificationError, match="unknown CSP backend"):
            solve_csp([(0,)], [(0, 1)], 1, backend="minisat")

    def test_sat_gated_on_import(self):
        if sat_available():
            solvable, _assignment, _reduced = solve_csp(
                [(0,)], [(0, 1)], 1, backend="sat"
            )
            assert solvable
        else:
            with pytest.raises(VerificationError, match="python-sat"):
                solve_csp([(0,)], [(0, 1)], 1, backend="sat")

    def test_kernel_versions_keep_the_bitset_suffix(self):
        # The versions the stored rows were written under, so a store
        # banked before the memoized kernels lost their backend switch
        # stays live.
        import repro.analysis.sweeps  # noqa: F401 — registers the kernels

        assert KERNEL_VERSIONS["one_round_solvability"] == "2+bitset"
        assert KERNEL_VERSIONS["solvability_subshard"] == "1+bitset"


# ----------------------------------------------------------------------
# Store versions of the CSP kernel
# ----------------------------------------------------------------------

@pytest.fixture
def rw_store(tmp_path):
    KERNEL_CACHE.clear()
    store = store_pkg.configure(path=tmp_path / "results.sqlite", mode="rw")
    yield store
    store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
    KERNEL_CACHE.clear()


def _store_rows(store, kernel):
    store.flush()
    with sqlite3.connect(store.path) as conn:
        return sorted(
            conn.execute(
                "SELECT version, COUNT(*) FROM results WHERE kernel = ? "
                "GROUP BY version",
                (kernel,),
            ).fetchall()
        )


def _plant_other_versions(store):
    """Rows of an older kernel version and of two oracle backends."""
    store.flush()
    with sqlite3.connect(store.path) as conn:
        for version in ("1", "2+reference", "2+check"):
            conn.execute(
                "INSERT INTO results "
                "(kernel, version, key_hash, value, checksum, created) "
                "VALUES ('one_round_solvability', ?, 'deadbeef', "
                "x'00', 'bogus', 0)",
                (version,),
            )
        conn.commit()


class TestStoreVersions:
    def test_row_lands_under_the_bitset_version(self, rw_store):
        decide_one_round_solvability([cycle(3)], 1)
        assert _store_rows(rw_store, "one_round_solvability") == [
            ("2+bitset", 1)
        ]

    def test_warm_store_answers_with_a_hit(self, rw_store):
        pool = [cycle(3), star(3, 0)]
        first = decide_one_round_solvability(pool, 2)
        store = store_pkg.configure(path=rw_store.path, mode=rw_store.mode)
        KERNEL_CACHE.clear()
        second = decide_one_round_solvability(pool, 2)
        assert first == second
        stats = store.stats()
        rows = {name: (h, m) for name, h, m, _w in stats.by_kernel}
        assert rows["one_round_solvability"] == (1, 0)

    def test_db_stats_marks_other_versions_stale(self, rw_store):
        decide_one_round_solvability([cycle(3)], 1)
        _plant_other_versions(rw_store)
        info = rw_store.db_stats()
        stale = {
            row["version"]: row["stale"]
            for row in info["kernels"]
            if row["kernel"] == "one_round_solvability"
        }
        assert stale == {
            "1": True,
            "2+bitset": False,
            "2+check": True,
            "2+reference": True,
        }
        assert info["stale_entries"] == 3

    def test_vacuum_deletes_exactly_the_stale_rows(self, rw_store):
        decide_one_round_solvability([cycle(3)], 1)
        _plant_other_versions(rw_store)
        report = rw_store.vacuum()
        assert report["deleted"] == 3
        assert _store_rows(rw_store, "one_round_solvability") == [
            ("2+bitset", 1)
        ]
