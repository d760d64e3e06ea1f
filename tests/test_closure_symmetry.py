"""Tests for upward closures (Def 2.3) and symmetric closures (Def 2.4)."""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import given

from repro._bitops import full_mask, iter_supersets
from repro.errors import GraphError, ProcessMismatchError
from repro.graphs import (
    Digraph,
    canonical_form,
    complete_graph,
    cycle,
    in_model,
    in_upward_closure,
    is_symmetric,
    iter_all_digraphs,
    iter_isomorphism_classes,
    iter_model_graphs,
    iter_upward_closure,
    minimal_generators,
    missing_edges,
    orbit,
    sample_superset,
    star,
    symmetric_closure,
    upward_closure_size,
)
from repro.models import ClosedAboveModel
from tests.test_digraph import random_digraphs


def reference_upward_closure(g):
    """Reference enumeration of ``↑g``: a recursion over the rows, the
    last row varying fastest, each row from its fullest superset down to
    ``g``'s own.  The enumerators must keep this order."""
    universe = full_mask(g.n)
    free_rows = [universe & ~row for row in g.out_rows]

    def recurse(index, rows):
        if index == g.n:
            yield Digraph(g.n, rows)
            return
        for extra in iter_supersets(0, free_rows[index]):
            rows[index] = g.out_rows[index] | extra
            yield from recurse(index + 1, rows)
        rows[index] = g.out_rows[index]

    yield from recurse(0, list(g.out_rows))


def reference_model_graphs(generators):
    seen = set()
    for g in generators:
        for h in reference_upward_closure(g):
            if h not in seen:
                seen.add(h)
                yield h


def reference_minimal_generators(graphs):
    """All-pairs reference: the distinct graphs with no other distinct
    graph below them."""
    distinct = set(graphs)
    return frozenset(
        g for g in distinct
        if not any(h != g and h.is_subgraph_of(g) for h in distinct)
    )


def rows_of(graphs):
    return [h.out_rows for h in graphs]


def class_models(n, max_missing):
    """``(representative, sorted Sym generators)`` of every class with at
    most ``max_missing`` missing proper edges."""
    for g in iter_isomorphism_classes(iter_all_digraphs(n)):
        if len(missing_edges(g)) <= max_missing:
            yield g, sorted(symmetric_closure([g]))


class TestUpwardClosure:
    def test_generator_in_own_closure(self):
        g = cycle(4)
        assert in_upward_closure(g, g)

    def test_clique_in_every_closure(self):
        g = cycle(4)
        assert in_upward_closure(complete_graph(4), g)

    def test_subgraph_not_in_closure(self):
        g = cycle(4)
        assert not in_upward_closure(Digraph.empty(4), g)

    def test_closure_size(self):
        g = cycle(3)  # 3 proper edges present, 3 missing
        assert upward_closure_size(g) == 8
        assert len(missing_edges(g)) == 3

    def test_enumeration_matches_size(self):
        g = cycle(3)
        graphs = list(iter_upward_closure(g))
        assert len(graphs) == 8
        assert len(set(graphs)) == 8
        assert all(in_upward_closure(h, g) for h in graphs)

    def test_enumeration_budget(self):
        with pytest.raises(GraphError):
            list(iter_upward_closure(Digraph.empty(5), max_graphs=10))

    def test_model_budget_caps_the_union(self):
        # Each up-set has 16 graphs; their union has 16 + 16 - 4 = 28.
        generators = [star(3, 0), star(3, 1)]
        assert len(list(iter_model_graphs(generators, max_graphs=28))) == 28
        with pytest.raises(GraphError, match="more than the budget of 27"):
            list(iter_model_graphs(generators, max_graphs=27))
        with pytest.raises(GraphError, match="more than the budget of 16"):
            list(iter_model_graphs(generators, max_graphs=16))

    def test_model_budget_refuses_a_large_upset_up_front(self):
        graphs = iter_model_graphs([Digraph.empty(5)], max_graphs=10)
        with pytest.raises(GraphError, match="↑G has 1048576 graphs"):
            next(graphs)

    def test_in_model_union(self):
        generators = [star(3, 0), star(3, 1)]
        assert in_model(star(3, 0), generators)
        assert not in_model(Digraph.empty(3), generators)

    def test_minimal_generators_drops_supersets(self):
        g = cycle(4)
        bigger = g.with_edges([(0, 2)])
        assert minimal_generators([g, bigger]) == frozenset({g})

    def test_minimal_generators_keeps_incomparable(self):
        a = star(3, 0)
        b = star(3, 1)
        assert minimal_generators([a, b]) == frozenset({a, b})

    def test_minimal_generators_empty_rejected(self):
        with pytest.raises(GraphError):
            minimal_generators([])

    @pytest.mark.parametrize(
        "generators",
        [
            [Digraph.complete(2), Digraph.empty(4)],  # both have 4 edges
            [Digraph.empty(3), Digraph.empty(4)],
        ],
        ids=["equal-edge-counts", "fewer-edges"],
    )
    def test_mixed_process_counts_rejected(self, generators):
        with pytest.raises(ProcessMismatchError):
            minimal_generators(generators)
        with pytest.raises(ProcessMismatchError):
            ClosedAboveModel(generators)

    def test_minimal_generators_of_every_n3_class_closure(self):
        for g in iter_isomorphism_classes(iter_all_digraphs(3)):
            sym = symmetric_closure([g])
            assert minimal_generators(sym) == reference_minimal_generators(sym)

    def test_minimal_generators_on_chains_with_duplicates(self):
        rng = random.Random(24)
        for _ in range(200):
            n = rng.randint(1, 4)
            graphs = []
            for _ in range(rng.randint(1, 3)):
                # A nested chain: each link adds random edges to the last.
                g = Digraph(n, [rng.getrandbits(n) for _ in range(n)])
                for _ in range(rng.randint(1, 4)):
                    graphs.append(g)
                    g = sample_superset(g, rng, rng.random())
            # Equal copies as distinct objects.
            graphs += [Digraph(n, h.out_rows) for h in graphs[:rng.randint(0, 3)]]
            rng.shuffle(graphs)
            assert minimal_generators(graphs) == reference_minimal_generators(graphs)

    def test_sample_superset_in_closure(self):
        rng = random.Random(0)
        g = cycle(4)
        for _ in range(20):
            assert in_upward_closure(sample_superset(g, rng), g)

    def test_sample_superset_probability_extremes(self):
        rng = random.Random(0)
        g = cycle(4)
        assert sample_superset(g, rng, 0.0) == g
        assert sample_superset(g, rng, 1.0) == complete_graph(4)

    def test_sample_superset_bad_probability(self):
        with pytest.raises(GraphError):
            sample_superset(cycle(3), random.Random(0), 1.5)


class TestEnumerationOrder:
    """The enumerators yield the same graphs in the same order as the
    recursive reference above."""

    def test_all_n3_classes(self):
        classes = list(class_models(3, 6))
        assert len(classes) == 16
        for g, generators in classes:
            assert rows_of(iter_upward_closure(g)) == rows_of(
                reference_upward_closure(g)
            )
            assert rows_of(iter_model_graphs(generators)) == rows_of(
                reference_model_graphs(generators)
            )

    def test_n4_classes_up_to_11_missing_edges(self):
        total = 0
        for g, generators in class_models(4, 11):
            got = rows_of(iter_model_graphs(generators))
            assert got == rows_of(reference_model_graphs(generators)), g
            assert rows_of(iter_upward_closure(g)) == rows_of(
                reference_upward_closure(g)
            ), g
            total += len(got)
        assert total == 198_473

    def test_non_symmetric_overlapping_generators(self):
        a = Digraph.from_edges(4, [(0, 1), (1, 2)])
        b = Digraph.from_edges(4, [(1, 2), (2, 3)])
        model = ClosedAboveModel([a, b])
        assert not model.is_symmetric()
        generators = list(model.iter_generators())
        got = list(model.iter_graphs())
        assert got == list(reference_model_graphs(generators))
        # 2**10 + 2**10 - 2**9: the overlap is counted once.
        assert len(got) == 1536


def assert_built_like_init(h):
    """``h`` is what ``Digraph(h.n, h.out_rows)`` builds, slot for slot."""
    built = Digraph(h.n, h.out_rows)
    assert all(type(row) is int for row in h.out_rows)
    # Pickled first: reading edge_count fills the instance dict.
    assert pickle.dumps(h, protocol=5) == pickle.dumps(built, protocol=5)
    assert h == built
    assert hash(h) == hash(built)
    assert h.in_rows == built.in_rows
    assert h.edge_count == built.edge_count


class TestDerivedRows:
    """The graphs built from rows derived from a valid graph, without the
    constructor's checks, cannot be told from checked ones."""

    @pytest.mark.parametrize("n, max_missing", [(3, 6), (4, 11)])
    def test_built_like_init(self, n, max_missing):
        shift = (*range(1, n), 0)
        for g, generators in class_models(n, max_missing):
            for h in iter_upward_closure(g):
                assert_built_like_init(h)
            for h in iter_model_graphs(generators):
                assert_built_like_init(h)
            for h in generators:
                assert_built_like_init(h.reverse())
                assert_built_like_init(h.permute(shift))


class TestSymmetricClosure:
    def test_orbit_size_star(self):
        # A star on n processes has n relabellings (one per centre).
        assert len(orbit(star(4, 0))) == 4

    def test_orbit_of_clique_is_singleton(self):
        assert orbit(complete_graph(3)) == frozenset({complete_graph(3)})

    def test_symmetric_closure_is_symmetric(self):
        sym = symmetric_closure([cycle(4)])
        assert is_symmetric(sym)

    def test_symmetric_closure_idempotent(self):
        sym = symmetric_closure([star(4, 2)])
        assert symmetric_closure(sym) == sym

    def test_sym_empty_rejected(self):
        with pytest.raises(GraphError):
            symmetric_closure([])

    def test_canonical_form_identifies_isomorphs(self):
        g = star(4, 0)
        h = star(4, 3)
        assert canonical_form(g) == canonical_form(h)
        assert canonical_form(g) != canonical_form(cycle(4))

    def test_iter_isomorphism_classes(self):
        graphs = [star(3, i) for i in range(3)] + [cycle(3)]
        classes = list(iter_isomorphism_classes(graphs))
        assert len(classes) == 2

    @given(random_digraphs(4))
    def test_orbit_members_isomorphic_invariants(self, g):
        sizes = {h.proper_edge_count for h in orbit(g)}
        assert sizes == {g.proper_edge_count}
