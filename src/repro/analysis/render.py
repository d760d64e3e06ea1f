"""ASCII rendering of graphs, complexes and tables for reports and benches.

The graph and topology types are annotations only, so rendering a table
loads no :mod:`repro.topology`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..graphs.digraph import Digraph
    from ..topology.complexes import SimplicialComplex
    from ..topology.simplex import Simplex

__all__ = ["render_graph", "render_simplex", "render_complex", "render_table"]


def render_graph(g: Digraph, label: str | None = None) -> str:
    """Adjacency-list rendering with the paper's ``p1..pn`` names."""
    lines = []
    if label:
        lines.append(f"{label}:")
    for u in g.processes():
        heard_by = ", ".join(f"p{v + 1}" for v in g.out_neighbors(u) if v != u)
        lines.append(f"  p{u + 1} -> [{heard_by}]")
    return "\n".join(lines)


def _view_str(view) -> str:
    from ..topology.simplex import stable_key

    if isinstance(view, frozenset):
        inner = ", ".join(
            str(x) if not isinstance(x, tuple) else f"p{x[0] + 1}={x[1]}"
            for x in sorted(view, key=stable_key)
        )
        return "{" + inner + "}"
    return str(view)


def render_simplex(s: Simplex) -> str:
    """One-line rendering of a colored simplex."""
    parts = []
    for color, view in s:
        name = f"p{color + 1}" if isinstance(color, int) else str(color)
        parts.append(f"({name}, {_view_str(view)})")
    return "{" + ", ".join(parts) + "}"


def render_complex(c: SimplicialComplex, max_facets: int = 16) -> str:
    """Facet-by-facet rendering, truncated for huge complexes."""
    lines = [repr(c)]
    for i, facet in enumerate(c):
        if i >= max_facets:
            lines.append(f"  ... ({len(c) - max_facets} more facets)")
            break
        lines.append(f"  {render_simplex(facet)}")
    return "\n".join(lines)


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Plain monospace table used by every benchmark's report output."""
    cells = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out = []
    for index, row in enumerate(cells):
        out.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            out.append("  ".join("-" * width for width in widths))
    return "\n".join(out)
