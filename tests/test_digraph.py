"""Unit and property tests for repro.graphs.digraph."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._bitops import full_mask, mask_of, popcount
from repro.errors import GraphError, ProcessMismatchError
from repro.graphs import Digraph


def random_digraphs(max_n: int = 5):
    """Hypothesis strategy for digraphs with arbitrary proper edges."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                max_size=n * n,
            )
        )
        return Digraph.from_edges(n, edges)

    return build()


class TestConstruction:
    def test_self_loops_forced(self):
        g = Digraph(3, [0, 0, 0])
        assert all(g.has_edge(p, p) for p in range(3))

    def test_from_edges(self):
        g = Digraph.from_edges(3, [(0, 1)])
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_zero_processes_rejected(self):
        with pytest.raises(GraphError):
            Digraph(0, [])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(GraphError):
            Digraph(3, [0, 0])

    def test_row_out_of_universe_rejected(self):
        with pytest.raises(GraphError):
            Digraph(2, [0b100, 0])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Digraph.from_edges(2, [(0, 2)])

    def test_looped_row_tuple_kept_as_given(self):
        rows = (0b011, 0b110, 0b100)
        assert Digraph(3, rows).out_rows is rows

    def test_bool_row_stored_as_int(self):
        # True already carries process 0's self-loop.
        g = Digraph(2, (True, 0b10))
        assert g.out_rows == (1, 2)
        assert type(g.out_rows[0]) is int

    def test_empty_and_complete(self):
        e = Digraph.empty(3)
        c = Digraph.complete(3)
        assert e.proper_edge_count == 0
        assert c.proper_edge_count == 6
        assert e.is_subgraph_of(c)


class TestAccessors:
    def test_in_out_duality(self):
        g = Digraph.from_edges(3, [(0, 1), (2, 1)])
        assert g.in_neighbors(1) == (0, 1, 2)
        assert g.out_neighbors(0) == (0, 1)

    def test_edges_include_loops(self):
        g = Digraph.empty(2)
        assert sorted(g.edges()) == [(0, 0), (1, 1)]
        assert list(g.proper_edges()) == []

    def test_edge_count(self):
        g = Digraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.edge_count == 5
        assert g.proper_edge_count == 2

    def test_out_of_set_contains_members(self):
        g = Digraph.from_edges(4, [(0, 1)])
        members = mask_of([0, 2])
        assert g.out_of_set(members) & members == members

    def test_dominates(self):
        g = Digraph.from_edges(3, [(0, 1), (0, 2)])
        assert g.dominates(mask_of([0]))
        assert not g.dominates(mask_of([1]))


def plain_in_rows(g):
    """The in-rows transposed edge by edge."""
    rows = [0] * g.n
    for u, v in g.edges():
        rows[v] |= 1 << u
    return tuple(rows)


class TestInRows:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_match_a_plain_transposition(self, n):
        # Up to 8 processes the in-rows come from a table, past 8 from a
        # loop: both sides of the limit are read here.
        rng = random.Random(n)
        graphs = [Digraph.empty(n), Digraph.complete(n)] + [
            Digraph(n, [rng.getrandbits(n) for _ in range(n)])
            for _ in range(25)
        ]
        for g in graphs:
            assert g.in_rows == plain_in_rows(g)
            assert all(type(row) is int for row in g.in_rows)


class TestDerived:
    def test_with_without_edges(self):
        g = Digraph.empty(3)
        h = g.with_edges([(0, 1)])
        assert h.has_edge(0, 1)
        assert h.without_edges([(0, 1)]) == g

    def test_without_edges_keeps_loops(self):
        g = Digraph.empty(2)
        assert g.without_edges([(0, 0)]) == g

    def test_reverse_involution(self):
        g = Digraph.from_edges(3, [(0, 1), (1, 2)])
        assert g.reverse().reverse() == g

    def test_permute_identity(self):
        g = Digraph.from_edges(3, [(0, 1)])
        assert g.permute([0, 1, 2]) == g

    def test_permute_moves_edges(self):
        g = Digraph.from_edges(3, [(0, 1)])
        h = g.permute([1, 2, 0])
        assert h.has_edge(1, 2)

    def test_permute_rejects_non_permutation(self):
        g = Digraph.empty(3)
        with pytest.raises(GraphError):
            g.permute([0, 0, 1])
        g = Digraph.from_edges(2, [(0, 1)])
        for perm in ([1.0, 0.0], ["1", "0"]):
            with pytest.raises(GraphError, match=r"is not a permutation of 0\.\.1"):
                g.permute(perm)
        assert g.permute([True, False]) == g.permute([1, 0])

    def test_subgraph_mismatch_rejected(self):
        with pytest.raises(ProcessMismatchError):
            Digraph.empty(2).is_subgraph_of(Digraph.empty(3))


class TestPickle:
    # Pickle protocol 5 bytes written by the code that cached the in-rows
    # in the instance dict.  READ is from_edges(3, [(0, 1), (1, 2)]) after
    # in_mask and edge_count were read, so both sit in the dict half of
    # its state; FRESH is from_edges(4, [(0, 1), (2, 3), (3, 0)]) with
    # nothing cached, so its state has no dict half.
    READ = (
        b"\x80\x05\x95w\x00\x00\x00\x00\x00\x00\x00\x8c\x14repro.graphs.digraph"
        b"\x94\x8c\x07Digraph\x94\x93\x94)\x81\x94}\x94(\x8c\x03_in\x94K\x01K\x03"
        b"K\x06\x87\x94\x8c\nedge_count\x94K\x05u}\x94(\x8c\x02_n\x94K\x03\x8c\x04"
        b"_out\x94K\x03K\x06K\x04\x87\x94\x8c\x05_hash\x94\x8a\x08\xb29\xa8d\xe4"
        b"\x03\xcb3u\x86\x94b."
    )
    FRESH = (
        b"\x80\x05\x95Z\x00\x00\x00\x00\x00\x00\x00\x8c\x14repro.graphs.digraph"
        b"\x94\x8c\x07Digraph\x94\x93\x94)\x81\x94N}\x94(\x8c\x02_n\x94K\x04\x8c"
        b"\x04_out\x94(K\x03K\x02K\x0cK\tt\x94\x8c\x05_hash\x94\x8a\x08\\\x0c\x9e"
        b"\xec\x0eG\xf9\x8au\x86\x94b."
    )

    @staticmethod
    def assert_same_graph(loaded, g):
        assert loaded == g
        assert hash(loaded) == hash(g)
        assert loaded.in_rows == g.in_rows
        for v in g.processes():
            assert loaded.in_neighbors(v) == g.in_neighbors(v)
        assert loaded.reverse() == g.reverse()
        assert loaded.edge_count == g.edge_count

    @pytest.mark.parametrize(
        "blob, edges",
        [
            (READ, (3, [(0, 1), (1, 2)])),
            (FRESH, (4, [(0, 1), (2, 3), (3, 0)])),
        ],
        ids=["read", "fresh"],
    )
    def test_older_pickles_load(self, blob, edges):
        self.assert_same_graph(pickle.loads(blob), Digraph.from_edges(*edges))

    @pytest.mark.parametrize("read", [False, True], ids=["fresh", "read"])
    def test_round_trip(self, read):
        g = Digraph.from_edges(4, [(0, 1), (2, 3), (3, 0)])
        if read:
            g.in_rows, g.edge_count
        for loaded in (pickle.loads(pickle.dumps(g)), copy.copy(g)):
            self.assert_same_graph(loaded, Digraph(g.n, g.out_rows))

    def test_pickles_in_the_older_form(self):
        # The in-rows stay out of a pickle, so the older code, which would
        # take a None slot value for its cached in-rows, loads it too.
        g = Digraph.from_edges(4, [(0, 1), (2, 3), (3, 0)])
        assert pickle.dumps(g, protocol=5) == self.FRESH
        g.in_rows
        assert pickle.dumps(g, protocol=5) == self.FRESH


class TestInterop:
    def test_networkx_roundtrip(self):
        g = Digraph.from_edges(4, [(0, 1), (2, 3), (3, 0)])
        assert Digraph.from_networkx(g.to_networkx()) == g

    def test_from_networkx_bad_nodes(self):
        import networkx as nx

        h = nx.DiGraph()
        h.add_node(5)
        with pytest.raises(GraphError):
            Digraph.from_networkx(h)


class TestPropertyBased:
    @given(random_digraphs())
    def test_in_out_consistency(self, g):
        for u in g.processes():
            for v in g.processes():
                assert g.has_edge(u, v) == bool(g.in_mask(v) >> u & 1)
        for v in g.processes():
            assert g.in_rows[v] == g.in_mask(v)
        assert g.reverse().out_rows == g.in_rows
        # Read first on a fresh graph, the in-rows are the same.
        assert Digraph(g.n, g.out_rows).in_rows == g.in_rows

    @given(random_digraphs())
    def test_edge_count_is_sum_of_degrees(self, g):
        assert g.edge_count == sum(popcount(g.in_mask(v)) for v in g.processes())

    @given(random_digraphs())
    def test_reverse_preserves_edge_count(self, g):
        assert g.reverse().edge_count == g.edge_count

    @given(random_digraphs())
    def test_full_set_always_dominates(self, g):
        assert g.dominates(full_mask(g.n))

    @given(random_digraphs())
    def test_hash_equals_on_equal(self, g):
        h = Digraph(g.n, g.out_rows)
        assert g == h
        assert hash(g) == hash(h)
