"""Experiment table builders (the E1..E14 index of DESIGN.md).

Each ``e*_...`` function computes one experiment's rows and returns
``(headers, rows)``; the matching ``benchmarks/bench_E*.py`` times it and
prints the table, and EXPERIMENTS.md records the outputs next to the
paper's claims.

Every builder runs in one process: ``python -m repro experiments --jobs
N`` fans whole experiments, not rows, out over the batch driver.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence

from ..agreement.algorithms import FloodMin, MinOfDominatingSet
from ..agreement.task import KSetAgreement
from ..bounds.lower import (
    lower_bound_general,
    lower_bound_general_multi_round,
    lower_bound_simple,
    lower_bound_simple_multi_round,
    lower_bound_star_unions,
)
from ..bounds.report import bound_report
from ..bounds.upper import (
    best_upper_bound,
    upper_bound_covering_sequence,
    upper_bound_gamma_eq,
    upper_bound_simple,
    upper_bound_simple_multi_round,
)
from ..combinatorics.covering import covering_number, covering_numbers
from ..combinatorics.distributed import (
    distributed_domination_number,
    max_covering_coefficient,
    max_covering_number,
)
from ..combinatorics.domination import (
    equal_domination_number,
    equal_domination_number_of_set,
)
from ..combinatorics.sequences import covering_sequence, rounds_to_reach_all
from ..graphs.digraph import Digraph
from ..graphs.dominating import domination_number
from ..graphs.families import (
    bidirectional_cycle,
    cycle,
    figure1_second,
    figure1_star,
    figure2_graph,
    out_tree,
    star,
    tournament,
    union_of_stars,
    wheel,
)
from ..graphs.operations import graph_power
from ..graphs.symmetry import symmetric_closure
from ..models.closed_above import simple_closed_above, symmetric_closed_above
from ..models.heard_of import nonempty_kernel_model, tournament_closed_above
from ..models.products import closure_product_gap
from ..topology.complexes import SimplicialComplex
from ..topology.connectivity import verify_lemma_4_8
from ..topology.homology import (
    homological_connectivity,
    reduced_betti_numbers,
)
from ..topology.pseudosphere import Pseudosphere
from ..topology.shelling import is_shellable
from ..topology.simplex import Simplex
from ..topology.uninterpreted import (
    uninterpreted_complex_of_closed_above,
    uninterpreted_simplex,
)
from ..verification.exhaustive import verify_algorithm
from ..verification.solvability import decide_one_round_solvability

Table = tuple[list[str], list[list[object]]]

__all__ = [
    "figure4a_complex",
    "figure4b_complex",
    "e01_figure1_table",
    "e02_figure2_report",
    "e03_pseudosphere_table",
    "e04_shellability_table",
    "e05_simple_tightness_table",
    "e06_star_union_table",
    "e07_product_closure_report",
    "e08_model_connectivity_table",
    "e09_covering_sequence_table",
    "e10_solvability_frontier_table",
    "e11_multiround_upper_table",
    "e12_multiround_lower_table",
    "e13_lemma48_table",
    "e14_heard_of_table",
    "e15_achieved_k_table",
    "e16_colored_vs_oblivious_table",
]


# ----------------------------------------------------------------------
# Figure 4's two complexes
# ----------------------------------------------------------------------

def figure4a_complex() -> SimplicialComplex:
    """Fig 4a: two triangles glued along an edge — shellable."""
    t1 = Simplex([(0, "v"), (1, "v"), (2, "v")])
    t2 = Simplex([(1, "v"), (2, "v"), (3, "v")])
    return SimplicialComplex.from_simplices([t1, t2])


def figure4b_complex() -> SimplicialComplex:
    """Fig 4b: two triangles sharing only one vertex — not shellable."""
    t1 = Simplex([(0, "v"), (1, "v"), (2, "v")])
    t2 = Simplex([(2, "v"), (3, "v"), (4, "v")])
    return SimplicialComplex.from_simplices([t1, t2])


# ----------------------------------------------------------------------
# E1 — Figure 1 + Sec 3.2 worked example
# ----------------------------------------------------------------------

def e01_figure1_table() -> Table:
    """Combinatorial numbers and one-round bounds for Fig 1's two models."""
    headers = [
        "model",
        "n",
        "gamma_eq",
        "cov_1..cov_3",
        "best Thm3.7 k",
        "Thm3.4 k",
        "best upper k",
        "lower (impossible k)",
        "tight",
    ]
    rows: list[list[object]] = []
    for name, g in (("Sym(star)", figure1_star()), ("Sym(fig1-right)", figure1_second())):
        sym = tuple(symmetric_closure([g]))
        n = g.n
        gamma_eq = equal_domination_number_of_set(sym)
        covs = [
            min(covering_number(h, i) for h in sym) for i in range(1, 4)
        ]
        covering_ks = [
            i + (n - min(covering_number(h, i) for h in sym))
            for i in range(1, gamma_eq)
        ]
        report = bound_report(sym)
        rows.append(
            [
                name,
                n,
                gamma_eq,
                "/".join(map(str, covs)),
                min(covering_ks) if covering_ks else "-",
                upper_bound_gamma_eq(sym).k,
                report.best_upper.k,
                report.best_lower.k,
                report.tight,
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# E2 — Figure 2
# ----------------------------------------------------------------------

def e02_figure2_report() -> Table:
    """The uninterpreted simplex of Fig 2's graph, vertex by vertex."""
    g = figure2_graph()
    sigma = uninterpreted_simplex(g)
    expected = {
        0: frozenset({0, 2}),
        1: frozenset({0, 1}),
        2: frozenset({2}),
    }
    headers = ["process", "view In_G(p)", "paper (Fig 2b)", "match"]
    rows = []
    for p in range(g.n):
        view = sigma.view_of(p)
        rows.append(
            [
                f"p{p + 1}",
                "{" + ",".join(f"p{q + 1}" for q in sorted(view)) + "}",
                "{" + ",".join(f"p{q + 1}" for q in sorted(expected[p])) + "}",
                view == expected[p],
            ]
        )
    return headers, rows


# ----------------------------------------------------------------------
# E3 — pseudospheres (Fig 3, Lemmas 4.6/4.7)
# ----------------------------------------------------------------------

def e03_pseudosphere_table(max_n: int = 5) -> Table:
    """Lemma 4.7 measured: connectivity of φ(n processes; v values each)."""
    headers = [
        "n",
        "views/process",
        "facets",
        "reduced betti",
        "measured conn",
        "Lemma 4.7 (n-2)",
        "match",
    ]
    rows = []
    for n in range(2, max_n + 1):
        for v in (2, 3):
            if v**n > 300:
                continue
            ps = Pseudosphere.uniform(tuple(range(n)), tuple(range(v)))
            complex_ = ps.to_complex()
            betti = reduced_betti_numbers(complex_)
            measured = homological_connectivity(complex_)
            predicted = ps.predicted_connectivity()
            rows.append(
                [
                    n,
                    v,
                    len(complex_),
                    betti,
                    measured,
                    predicted,
                    measured >= predicted,
                ]
            )
    return headers, rows


# ----------------------------------------------------------------------
# E4 — shellability (Fig 4)
# ----------------------------------------------------------------------

def e04_shellability_table() -> Table:
    """Fig 4's complexes plus control cases through the shelling checker."""
    tetra = Simplex([(i, "v") for i in range(4)])
    boundary = SimplicialComplex.from_simplices(tetra.boundary())
    wedge_of_circles = SimplicialComplex.from_simplices(
        [
            *Simplex([(i, "v") for i in (0, 1, 2)]).boundary(),
            *Simplex([(i, "v") for i in (2, 3, 4)]).boundary(),
        ]
    )
    disconnected = SimplicialComplex.from_simplices(
        [Simplex([(0, "v"), (1, "v")]), Simplex([(2, "v"), (3, "v")])]
    )
    cases = [
        ("Fig 4a (triangles sharing edge)", figure4a_complex(), True),
        ("Fig 4b (triangles sharing vertex)", figure4b_complex(), False),
        ("boundary of tetrahedron", boundary, True),
        # 1-dimensional controls: shellable graphs are exactly the
        # connected ones.
        ("wedge of two circles (connected)", wedge_of_circles, True),
        ("two disjoint edges (disconnected)", disconnected, False),
    ]
    headers = ["complex", "dim", "facets", "shellable", "paper/expected", "match"]
    rows = []
    for name, complex_, expected in cases:
        got = is_shellable(complex_)
        rows.append(
            [name, complex_.dimension, len(complex_), got, expected, got == expected]
        )
    return headers, rows


# ----------------------------------------------------------------------
# E5 — tightness on simple closed-above models (Thm 3.2 / 5.1)
# ----------------------------------------------------------------------

def _e05_row(name: str, g: Digraph, include_search: bool) -> list[object]:
    """One candidate of E5 (:func:`e05_simple_tightness_table`)."""
    gamma = domination_number(g)
    model = simple_closed_above(g)
    algorithm = MinOfDominatingSet(g)
    task = KSetAgreement(gamma, range(gamma + 1))
    verified = verify_algorithm(
        algorithm, model, task, superset_samples=5
    ).ok
    if gamma == 1 or not include_search:
        search_result = "n/a"
        confirmed = "vacuous" if gamma == 1 else "skipped"
    else:
        result = decide_one_round_solvability([g], gamma - 1)
        search_result = "UNSAT" if not result.solvable else "SAT(!)"
        confirmed = not result.solvable
    return [name, gamma, verified, search_result, confirmed]


def e05_simple_tightness_table(include_search: bool = True) -> Table:
    """γ(G)-set solvable (verified) and (γ(G)-1)-set impossible (searched)."""
    candidates: list[tuple[str, Digraph]] = [
        ("star(4)", star(4, 0)),
        ("cycle(4)", cycle(4)),
        ("wheel(4)", wheel(4)),
        ("cycle(5)", cycle(5)),
        ("out_tree(5)", out_tree(5)),
        ("tournament(4)", tournament(4)),
        ("union_of_stars(5,2)", union_of_stars(5, (0, 1))),
    ]
    headers = [
        "generator G",
        "gamma(G)",
        "Thm3.2 verified",
        "search k=gamma-1",
        "Thm5.1 confirmed",
    ]
    return headers, [
        _e05_row(name, g, include_search) for name, g in candidates
    ]


# ----------------------------------------------------------------------
# E6 — union-of-stars models (Thm 5.4 / 6.13)
# ----------------------------------------------------------------------

def _e06_row(n: int, s: int) -> list[object]:
    """One ``(n, s)`` case of E6 (:func:`e06_star_union_table`)."""
    sym = tuple(sorted(symmetric_closure([union_of_stars(n, tuple(range(s)))])))
    gd = distributed_domination_number(sym)
    lower = lower_bound_general(sym)
    upper = best_upper_bound(sym)
    closed_form = lower_bound_star_unions(n, s)
    return [
        n,
        s,
        gd,
        n - s + 1,
        lower.k,
        closed_form.k,
        upper.k,
        n - s + 1,
        upper.k == lower.k + 1,
    ]


def e06_star_union_table(
    cases: Sequence[tuple[int, int]] | None = None,
) -> Table:
    """The paper's flagship tight family: unions of ``s`` stars on ``n``."""
    if cases is None:
        cases = [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3)]
    headers = [
        "n",
        "s",
        "gamma_dist",
        "paper n-s+1",
        "lower (Thm5.4) k",
        "paper impossible n-s",
        "upper (best) k",
        "paper solvable n-s+1",
        "tight",
    ]
    return headers, [_e06_row(n, s) for n, s in cases]


# ----------------------------------------------------------------------
# E7 — products vs closure (Sec 6.1)
# ----------------------------------------------------------------------

def e07_product_closure_report(n: int = 6) -> Table:
    """The C_n ⊗ C_n example: closure-above is not product-invariant."""
    g = cycle(n)
    squared = graph_power(g, 2)
    witnesses = closure_product_gap(g, g, max_witnesses=1)
    headers = ["quantity", "value"]
    rows: list[list[object]] = [
        ["cycle n", n],
        ["edges of C_n^2 (proper)", squared.proper_edge_count],
        ["gap witness found", bool(witnesses)],
    ]
    if witnesses:
        extra = sorted(
            set(witnesses[0].proper_edges()) - set(squared.proper_edges())
        )
        rows.append(["witness extra edge(s)", extra])
    return headers, rows


# ----------------------------------------------------------------------
# E8 — connectivity of closed-above models (Thm 4.12)
# ----------------------------------------------------------------------

def _e08_row(name: str, generators: list[Digraph]) -> list[object]:
    """One model of E8 (:func:`e08_model_connectivity_table`)."""
    n = generators[0].n
    complex_ = uninterpreted_complex_of_closed_above(generators)
    measured = homological_connectivity(complex_)
    return [name, n, len(complex_), measured, n - 2, measured >= n - 2]


def e08_model_connectivity_table() -> Table:
    """(n-2)-connectivity of uninterpreted complexes, measured by homology."""
    cases: list[tuple[str, list[Digraph]]] = [
        ("simple: fig2 (n=3)", [figure2_graph()]),
        ("simple: cycle(3)", [cycle(3)]),
        ("simple: cycle(4)", [cycle(4)]),
        ("simple: star(4)", [star(4, 0)]),
        ("general: Sym(cycle(3))", sorted(symmetric_closure([cycle(3)]))),
        (
            "general: {cycle(4), wheel(4)}",
            [cycle(4), wheel(4)],
        ),
        (
            "general: Sym(union_of_stars(4,2))",
            sorted(symmetric_closure([union_of_stars(4, (0, 1))])),
        ),
    ]
    headers = ["model", "n", "facets", "measured conn", "Thm 4.12 (n-2)", "ok"]
    return headers, [
        _e08_row(name, generators) for name, generators in cases
    ]


# ----------------------------------------------------------------------
# E9 — covering sequences (Thm 6.7 / 6.9)
# ----------------------------------------------------------------------

def e09_covering_sequence_table() -> Table:
    """Rounds for the i-th covering sequence to flood, plus verified runs."""
    cases: list[tuple[str, Digraph, int]] = [
        ("cycle(4)", cycle(4), 1),
        ("cycle(5)", cycle(5), 1),
        ("cycle(6)", cycle(6), 1),
        ("cycle(6)", cycle(6), 2),
        ("bidi_cycle(6)", bidirectional_cycle(6), 1),
        ("out_tree(7)", out_tree(7), 1),
        ("wheel(4)", wheel(4), 2),
    ]
    headers = [
        "G",
        "i",
        "covering sequence",
        "rounds to n",
        "FloodMin verified",
    ]
    rows = []
    for name, g, i in cases:
        seq = covering_sequence(g, i)
        rounds = rounds_to_reach_all(g, i)
        if rounds is None:
            verified = "n/a (stalls)"
        else:
            model = simple_closed_above(g)
            task = KSetAgreement(i, range(i + 1))
            report = verify_algorithm(
                FloodMin(rounds), model, task, superset_samples=2
            )
            verified = report.ok
        rows.append([name, i, seq, rounds, verified])
    return headers, rows


# ----------------------------------------------------------------------
# E10 — exhaustive one-round solvability frontier
# ----------------------------------------------------------------------

def e10_solvability_frontier_table(n: int = 3) -> Table:
    """Exact solvable k for every symmetric model on n processes vs bounds.

    Enumerates symmetric closed-above models generated by a single graph
    class on ``n`` processes (deduplicated up to isomorphism).  For each,
    finds the exact smallest solvable ``k`` by CSP search over the *full*
    allowed graph set, and compares with the paper's interval.

    Delegates to :func:`repro.analysis.sweeps.solvability_sweep`: each
    isomorphism class is one resumable shard whose verdict persists in
    the result store, so reruns (and the ``n = 4`` sweep behind ``python
    -m repro sweep``) only pay for classes never seen before.
    """
    from .sweeps import solvability_sweep

    report = solvability_sweep(n)
    return report.headers, report.rows


# ----------------------------------------------------------------------
# E11 — multi-round upper bounds
# ----------------------------------------------------------------------

def e11_multiround_upper_table(max_rounds: int = 3) -> Table:
    """γ(G^r) decay and friends (Thms 6.3, 6.7)."""
    cases = [
        ("cycle(6)", cycle(6)),
        ("cycle(7)", cycle(7)),
        ("bidi_cycle(7)", bidirectional_cycle(7)),
        ("out_tree(7)", out_tree(7)),
        ("wheel(5)", wheel(5)),
    ]
    headers = ["G", "r", "gamma(G^r) [Thm6.3]", "cov-seq k=1 rounds [Thm6.7]"]
    rows = []
    for name, g in cases:
        seq_rounds = rounds_to_reach_all(g, 1)
        for r in range(1, max_rounds + 1):
            bound = upper_bound_simple_multi_round(g, r)
            rows.append(
                [name, r, bound.k, seq_rounds if r == 1 else ""]
            )
    return headers, rows


# ----------------------------------------------------------------------
# E12 — multi-round lower bounds (Thms 6.10 / 6.11)
# ----------------------------------------------------------------------

def e12_multiround_lower_table(max_rounds: int = 3) -> Table:
    """Impossible vs solvable k per family and round count (oblivious)."""
    cases = [
        ("cycle(6)", [cycle(6)]),
        ("cycle(7)", [cycle(7)]),
        ("Sym(stars s=2, n=4)", sorted(symmetric_closure([union_of_stars(4, (0, 1))]))),
        ("Sym(stars s=2, n=5)", sorted(symmetric_closure([union_of_stars(5, (0, 1))]))),
    ]
    headers = ["model", "r", "impossible k (6.10/6.11)", "solvable k (6.3/6.4)", "gap"]
    rows = []
    for name, generators in cases:
        for r in range(1, max_rounds + 1):
            if len(generators) == 1:
                lower = lower_bound_simple_multi_round(generators[0], r)
                upper = upper_bound_simple_multi_round(generators[0], r)
            else:
                lower = lower_bound_general_multi_round(generators, r)
                upper = best_upper_bound(generators, r)
            rows.append([name, r, lower.k, upper.k, upper.k - lower.k - 1])
    return headers, rows


# ----------------------------------------------------------------------
# E13 — Lemma 4.8 machine check
# ----------------------------------------------------------------------

def e13_lemma48_table(samples: int = 5, n: int = 3, seed: int = 7) -> Table:
    """↑G's uninterpreted complex equals the predicted pseudosphere."""
    from ..graphs.generators import random_digraph

    rng = random.Random(seed)
    cases = [("fig2", figure2_graph()), ("cycle(3)", cycle(3)), ("star(3)", star(3, 0))]
    for index in range(samples):
        cases.append((f"random#{index}", random_digraph(n, rng, 0.4)))
    headers = ["G", "|↑G|", "Lemma 4.8 holds"]
    rows = []
    for name, g in cases:
        from ..graphs.closure import upward_closure_size

        rows.append([name, upward_closure_size(g), verify_lemma_4_8(g)])
    return headers, rows


# ----------------------------------------------------------------------
# E14 — Heard-Of style models (Sec 2.1)
# ----------------------------------------------------------------------

def e15_achieved_k_table() -> Table:
    """Exact achieved k of each witness algorithm vs the theorem guarantee.

    The worst-case adversary search measures what the constructed algorithm
    *actually* achieves over generator executions — showing where the
    theorem's analysis is exact for its own witness.
    """
    from ..models.closed_above import simple_closed_above
    from ..verification.adversarial import achieved_k

    cases = [
        (
            "MinDom on ↑wheel(4)",
            MinOfDominatingSet(wheel(4)),
            simple_closed_above(wheel(4)),
            upper_bound_simple(wheel(4)).k,
        ),
        (
            "MinDom on ↑cycle(4)",
            MinOfDominatingSet(cycle(4)),
            simple_closed_above(cycle(4)),
            upper_bound_simple(cycle(4)).k,
        ),
        (
            "MinDom on ↑cycle(5)",
            MinOfDominatingSet(cycle(5)),
            simple_closed_above(cycle(5)),
            upper_bound_simple(cycle(5)).k,
        ),
        (
            "FloodMin on Sym(↑C4)",
            FloodMin(1),
            symmetric_closed_above([cycle(4)]),
            3,  # γ_eq
        ),
        (
            "FloodMin on Sym(↑wheel4)",
            FloodMin(1),
            symmetric_closed_above([wheel(4)]),
            3,  # covering bound (Thm 3.7)
        ),
        (
            "FloodMin on Sym(↑stars(5,2))",
            FloodMin(1),
            symmetric_closed_above([union_of_stars(5, (0, 1))]),
            4,  # γ_eq = n - s + 1
        ),
    ]
    headers = ["algorithm/model", "guarantee k", "achieved k", "analysis exact"]
    rows = []
    for name, algorithm, model, guarantee in cases:
        achieved = achieved_k(algorithm, model)
        rows.append([name, guarantee, achieved, achieved == guarantee])
    return headers, rows


def e16_colored_vs_oblivious_table() -> Table:
    """Sec 5 remark: identity adds no one-round power on full models.

    Over generator *subsets* colored maps can win (the star case); over the
    full closed-above graph set the verdicts coincide — machine-checking
    "a one round full information protocol is an oblivious algorithm".
    """
    from ..models.closed_above import simple_closed_above
    from ..verification.colored import decide_one_round_solvability_colored

    cases = [
        ("Sym(↑star(3))", symmetric_closed_above([star(3, 0)])),
        ("↑cycle(3)", simple_closed_above(cycle(3))),
        ("Sym(↑cycle(3))", symmetric_closed_above([cycle(3)])),
        ("↑fig2", simple_closed_above(figure2_graph())),
    ]
    headers = [
        "model", "k",
        "generators: obl/colored",
        "full model: obl/colored",
        "full-model equal",
    ]
    rows = []
    for name, model in cases:
        generators = sorted(model.generators)
        full = sorted(model.iter_graphs())
        for k in (1, 2):
            gen_o = decide_one_round_solvability(generators, k).solvable
            gen_c = decide_one_round_solvability_colored(generators, k).solvable
            full_o = decide_one_round_solvability(full, k).solvable
            full_c = decide_one_round_solvability_colored(full, k).solvable
            rows.append(
                [
                    name, k,
                    f"{gen_o}/{gen_c}",
                    f"{full_o}/{full_c}",
                    full_o == full_c,
                ]
            )
    return headers, rows


def e14_heard_of_table(n: int = 4) -> Table:
    """Classical predicates as closed-above models, with their intervals."""
    kernel_model = nonempty_kernel_model(n)
    tournament_model = tournament_closed_above(n)
    cases = [
        ("non-empty kernel", kernel_model),
        ("tournament (closed-above)", tournament_model),
    ]
    headers = [
        "model",
        "n",
        "generators",
        "gamma_eq",
        "upper k",
        "lower k",
        "tight",
    ]
    rows = []
    for name, model in cases:
        generators = sorted(model.generators)
        report = bound_report(generators)
        rows.append(
            [
                name,
                n,
                len(generators),
                equal_domination_number_of_set(generators),
                report.best_upper.k,
                report.best_lower.k,
                report.tight,
            ]
        )
    return headers, rows
