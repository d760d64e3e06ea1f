#!/usr/bin/env python3
"""A tour of the combinatorial-topology machinery behind the lower bounds.

Walks the objects of Section 4 on concrete instances:

1. the uninterpreted simplex of Figure 2's graph;
2. pseudospheres, Lemma 4.6 intersections, Lemma 4.7 connectivity measured
   by homology;
3. Lemma 4.8: the uninterpreted complex of ↑G *is* a pseudosphere;
4. Thm 4.12: (n-2)-connectivity of closed-above uninterpreted complexes;
5. shellability of Figure 4's complexes;
6. the one-round protocol complex of a model and the connectivity that
   makes k-set agreement impossible.

Run:  python examples/topology_tour.py
"""

from __future__ import annotations

from repro.analysis.render import render_complex, render_simplex
from repro.analysis.tables import figure4a_complex, figure4b_complex
from repro.graphs import figure2_graph, star, symmetric_closure
from repro.models import symmetric_closed_above
from repro.topology import (
    Pseudosphere,
    connectivity_of_closed_above,
    find_shelling_order,
    homological_connectivity,
    input_complex,
    one_round_protocol_complex,
    reduced_betti_numbers,
    uninterpreted_complex_of_closed_above,
    uninterpreted_simplex,
    verify_lemma_4_8,
)


def main() -> None:
    # 1 — Figure 2.
    g = figure2_graph()
    sigma = uninterpreted_simplex(g)
    print("1. Uninterpreted simplex of Fig 2's graph:")
    print(f"   {render_simplex(sigma)}\n")

    # 2 — pseudospheres.
    ps = Pseudosphere.uniform((0, 1, 2), ("a", "b"))
    complex_ = ps.to_complex()
    print("2. Pseudosphere φ(3 processes; {a,b}):")
    print(f"   facets={len(complex_)}, dim={complex_.dimension}")
    print(f"   reduced Betti numbers: {reduced_betti_numbers(complex_)}")
    print(
        f"   measured connectivity {homological_connectivity(complex_)} == "
        f"Lemma 4.7's n-2 = {ps.predicted_connectivity()}\n"
    )

    other = Pseudosphere({0: {"a"}, 1: {"a", "b"}, 2: {"a", "b"}})
    inter = ps.intersection(other)
    print("   Lemma 4.6 (symbolic intersection):")
    print(f"   {ps!r}\n   ∩ {other!r}\n   = {inter!r}\n")

    # 3 — Lemma 4.8.
    print(f"3. Lemma 4.8 machine-checked on Fig 2's graph: {verify_lemma_4_8(g)}\n")

    # 4 — Thm 4.12.
    generators = sorted(symmetric_closure([g]))
    measured = connectivity_of_closed_above(generators)
    print(
        f"4. Thm 4.12 on Sym(↑fig2): measured connectivity {measured} "
        f">= n-2 = {g.n - 2}"
    )
    complex_ = uninterpreted_complex_of_closed_above(generators)
    print(f"   {render_complex(complex_, max_facets=4)}\n")

    # 5 — Figure 4 shellability.
    order = find_shelling_order(figure4a_complex())
    print("5. Fig 4a shelling order:")
    for facet in order:
        print(f"   {render_simplex(facet)}")
    print(f"   Fig 4b shellable? {find_shelling_order(figure4b_complex()) is not None}\n")

    # 6 — a protocol complex and its obstruction.
    model = symmetric_closed_above([star(3, 0)])
    graphs = sorted(model.iter_graphs())
    inputs = input_complex(3, (0, 1, 2))
    protocol = one_round_protocol_complex(graphs, inputs)
    conn = homological_connectivity(protocol)
    print(
        "6. One-round protocol complex of Sym(↑star(3)) over Ψ(Π, {0,1,2}):"
    )
    print(f"   facets={len(protocol)}, connectivity={conn}")
    print(
        f"   {conn}-connected => {int(conn) + 1}-set agreement impossible "
        f"(Thm 6.13 with s=1: n-s = 2). The matching upper bound is "
        f"γ_eq = 3."
    )


if __name__ == "__main__":
    main()
