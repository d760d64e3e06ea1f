"""Tests for nerve complexes (Def 4.10, Lemma 4.11) and shellability (4.4)."""

from __future__ import annotations

import pytest

from repro.analysis.tables import figure4a_complex, figure4b_complex
from repro.errors import TopologyError
from repro.topology import (
    Simplex,
    SimplicialComplex,
    find_shelling_order,
    is_cover,
    is_shellable,
    is_shelling_order,
    is_valid_shelling_step,
    nerve_complex,
    nerve_lemma_hypothesis_holds,
    nerve_lemma_transfer,
)


def tri(*colors):
    return Simplex((c, "v") for c in colors)


class TestNerve:
    def test_two_overlapping_triangles(self):
        a = SimplicialComplex([tri(0, 1, 2)])
        b = SimplicialComplex([tri(1, 2, 3)])
        nerve = nerve_complex([a, b])
        # Intersection non-empty -> the nerve is an edge (a 1-simplex).
        assert nerve.dimension == 1
        assert len(nerve) == 1

    def test_disjoint_pieces(self):
        a = SimplicialComplex([tri(0, 1)])
        b = SimplicialComplex([tri(2, 3)])
        nerve = nerve_complex([a, b])
        assert nerve.dimension == 0
        assert len(nerve) == 2

    def test_empty_cover_rejected(self):
        with pytest.raises(TopologyError):
            nerve_complex([])

    def test_is_cover(self):
        c = SimplicialComplex([tri(0, 1, 2), tri(1, 2, 3)])
        a = SimplicialComplex([tri(0, 1, 2)])
        b = SimplicialComplex([tri(1, 2, 3)])
        assert is_cover(c, [a, b])
        assert not is_cover(c, [a])

    def test_nerve_lemma_on_contractible_union(self):
        """Two triangles sharing an edge: nerve lemma certifies 1-connected."""
        a = SimplicialComplex([tri(0, 1, 2)])
        b = SimplicialComplex([tri(1, 2, 3)])
        assert nerve_lemma_hypothesis_holds([a, b], k=1)
        assert nerve_lemma_transfer([a, b], k=1) is True

    def test_nerve_lemma_hypothesis_fails(self):
        """Two triangles meeting in a point: intersection is only a point,
        which is fine for k=0 but the *union* connectivity needs care —
        here the hypothesis for k=1 fails (point is not 0-connected? it is;
        dim constraint k-|J|+1 = 0 satisfied by a point) so we check a
        genuinely failing case: disjoint pieces at k=0."""
        a = SimplicialComplex([tri(0, 1)])
        b = SimplicialComplex([tri(2, 3)])
        # Intersection empty => hypothesis trivially holds; the nerve then
        # reports the disconnection.
        assert nerve_lemma_hypothesis_holds([a, b], k=0)
        assert nerve_lemma_transfer([a, b], k=0) is False

    def test_nerve_lemma_silent_when_hypothesis_fails(self):
        # A cover piece that is itself disconnected breaks the hypothesis
        # at k=1 (each J={i} needs (k-|J|+1)=1-connectivity... the
        # disconnected piece is not even 0-connected).
        weird = SimplicialComplex([tri(0, 1), tri(4, 5)])
        other = SimplicialComplex([tri(1, 4)])
        assert nerve_lemma_transfer([weird, other], k=1) is None


class TestShellingSteps:
    def test_first_step_always_valid(self):
        assert is_valid_shelling_step([], tri(0, 1, 2))

    def test_edge_glue_valid(self):
        assert is_valid_shelling_step([tri(0, 1, 2)], tri(1, 2, 3))

    def test_vertex_glue_invalid(self):
        assert not is_valid_shelling_step([tri(0, 1, 2)], tri(2, 3, 4))

    def test_disjoint_invalid(self):
        assert not is_valid_shelling_step([tri(0, 1, 2)], tri(3, 4, 5))

    def test_is_shelling_order(self):
        assert is_shelling_order([tri(0, 1, 2), tri(1, 2, 3), tri(2, 3, 0)])
        assert not is_shelling_order([tri(0, 1, 2), tri(2, 3, 4)])


class TestShellability:
    def test_figure_4a_shellable(self):
        assert is_shellable(figure4a_complex())

    def test_figure_4b_not_shellable(self):
        assert not is_shellable(figure4b_complex())

    def test_simplex_boundary_shellable(self):
        """Lemma 4.15 (special case): boundaries of simplexes shell."""
        tetra = Simplex((i, "v") for i in range(4))
        boundary = SimplicialComplex.from_simplices(tetra.boundary())
        order = find_shelling_order(boundary)
        assert order is not None
        assert len(order) == 4
        assert is_shelling_order(order)

    def test_lemma_4_15_any_order_works(self):
        """Lemma 4.15: any facet order of a pure (d-1)-subcomplex of a
        simplex boundary is a shelling order."""
        from itertools import permutations

        tetra = Simplex((i, "v") for i in range(4))
        facets = sorted(tetra.boundary(), key=lambda s: sorted(s.colors()))
        for perm in permutations(facets[:3]):
            assert is_shelling_order(list(perm))

    def test_empty_complex(self):
        assert find_shelling_order(SimplicialComplex.empty()) == []
        assert is_shellable(SimplicialComplex.empty())

    def test_single_facet(self):
        c = SimplicialComplex([tri(0, 1, 2)])
        assert is_shellable(c)

    def test_non_pure_rejected(self):
        c = SimplicialComplex([tri(0, 1, 2), tri(3, 4)])
        with pytest.raises(TopologyError):
            is_shellable(c)

    def test_pseudosphere_is_shellable(self):
        """Pseudospheres are shellable (they are vertex-decomposable)."""
        from repro.topology import Pseudosphere

        ps = Pseudosphere.uniform((0, 1), ("a", "b"))
        assert is_shellable(ps.to_complex())

    def test_order_requires_backtracking_sometimes(self):
        """A triangulated square ring (annulus boundary-like): shellable
        but not every order works, exercising the DFS."""
        facets = [tri(0, 1, 2), tri(1, 2, 3), tri(2, 3, 0), tri(3, 0, 1)]
        c = SimplicialComplex.from_simplices(facets)
        order = find_shelling_order(c)
        assert order is not None
        assert is_shelling_order(order)
