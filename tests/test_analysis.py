"""Tests for the analysis package: renderers and (fast) experiment tables."""

from __future__ import annotations

import pytest

from repro.analysis.render import (
    render_complex,
    render_graph,
    render_simplex,
    render_table,
)
from repro.analysis.tables import (
    e01_figure1_table,
    e02_figure2_report,
    e04_shellability_table,
    e06_star_union_table,
    e07_product_closure_report,
    e13_lemma48_table,
    figure4a_complex,
    figure4b_complex,
)
from repro.graphs import figure2_graph, star
from repro.topology import Simplex, SimplicialComplex, uninterpreted_simplex


class TestRender:
    def test_render_graph(self):
        out = render_graph(star(3, 0), "star")
        assert "star:" in out
        assert "p1 -> [p2, p3]" in out

    def test_render_simplex_uninterpreted(self):
        sigma = uninterpreted_simplex(figure2_graph())
        out = render_simplex(sigma)
        assert "(p1, " in out and "(p3, " in out

    def test_render_simplex_interpreted_pairs(self):
        s = Simplex([(0, frozenset({(1, "x")}))])
        out = render_simplex(s)
        assert "p2=x" in out

    def test_render_complex_truncates(self):
        c = SimplicialComplex.from_simplices(
            Simplex([(i, "v")]) for i in range(20)
        )
        out = render_complex(c, max_facets=3)
        assert "more facets" in out

    def test_render_table_alignment(self):
        out = render_table(["a", "long header"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert len(set(len(line.rstrip()) for line in lines[:2])) <= 2


class TestFigure4Complexes:
    def test_4a_shape(self):
        c = figure4a_complex()
        assert c.dimension == 2 and len(c) == 2 and c.is_pure()

    def test_4b_shape(self):
        c = figure4b_complex()
        assert c.dimension == 2 and len(c) == 2
        assert len(c.vertices) == 5


class TestFastTables:
    """The cheap experiment builders run in-tests; the heavy ones are
    exercised by their benchmarks."""

    def test_e01(self):
        headers, rows = e01_figure1_table()
        assert len(rows) == 2
        assert all(row[-1] for row in rows)  # both tight

    def test_e02(self):
        _, rows = e02_figure2_report()
        assert all(row[-1] for row in rows)

    def test_e04(self):
        _, rows = e04_shellability_table()
        assert all(row[-1] for row in rows)

    def test_e06_small(self):
        _, rows = e06_star_union_table([(4, 2), (5, 3)])
        assert all(row[-1] for row in rows)

    def test_e07(self):
        _, rows = e07_product_closure_report()
        values = {r[0]: r[1] for r in rows}
        assert values["gap witness found"] is True

    def test_e13(self):
        _, rows = e13_lemma48_table(samples=2)
        assert all(row[-1] for row in rows)
