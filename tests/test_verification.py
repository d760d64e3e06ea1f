"""Tests for the verification harness — and, through it, the theorems.

These are the integration tests that close the loop: the paper's upper
bounds are replayed by exhaustive execution, and its lower bounds are
confirmed by the exact solvability search (UNSAT on a model subset implies
impossibility on the model).
"""

from __future__ import annotations

import random

import pytest

from repro.agreement import FloodMin, KSetAgreement, MinOfDominatingSet
from repro.errors import VerificationError
from repro.graphs import (
    complete_graph,
    cycle,
    domination_number,
    star,
    symmetric_closure,
    union_of_stars,
    wheel,
)
from repro.models import simple_closed_above, symmetric_closed_above
from repro.verification import (
    SolvabilitySearch,
    decide_multi_round_solvability,
    decide_one_round_solvability,
    decide_one_round_solvability_colored,
    exhaustive_inputs,
    find_violation,
    tightness_certificate,
    verify_algorithm,
)


class TestExhaustiveInputs:
    def test_count(self):
        assert len(list(exhaustive_inputs(3, (0, 1)))) == 8

    def test_coverage(self):
        for inputs in exhaustive_inputs(2, (0, 1)):
            assert set(inputs) == {0, 1}

    def test_empty_values_rejected(self):
        with pytest.raises(VerificationError):
            list(exhaustive_inputs(2, ()))


class TestVerifyAlgorithm:
    def test_thm32_verified_on_families(self):
        """Thm 3.2: MinOfDominatingSet solves γ(G)-set agreement on ↑G."""
        for g in (star(4, 0), cycle(4), wheel(4), union_of_stars(4, (0, 1))):
            gamma = domination_number(g)
            model = simple_closed_above(g)
            task = KSetAgreement(gamma, range(gamma + 1))
            report = verify_algorithm(
                MinOfDominatingSet(g), model, task, superset_samples=5
            )
            assert report.ok, (g, report.failures[:1])

    def test_thm32_exhaustive_closure(self):
        """Full-closure check (no sampling gap) on a small instance."""
        g = cycle(3)
        model = simple_closed_above(g)
        task = KSetAgreement(domination_number(g), range(3))
        report = verify_algorithm(
            MinOfDominatingSet(g), model, task, exhaustive_closure=True
        )
        assert report.ok
        assert report.executions == 8 * 27

    def test_thm34_verified(self):
        """Thm 3.4: FloodMin solves γ_eq(S)-set agreement."""
        sym = symmetric_closed_above([cycle(4)])
        task = KSetAgreement(3, range(4))  # γ_eq(C4) = 3
        report = verify_algorithm(FloodMin(1), sym, task, superset_samples=3)
        assert report.ok

    def test_thm37_verified_on_fig1_model(self):
        """Thm 3.7: the covering bound's 3-set agreement on Sym(wheel4)."""
        sym = symmetric_closed_above([wheel(4)])
        task = KSetAgreement(3, range(4))
        report = verify_algorithm(FloodMin(1), sym, task, superset_samples=3)
        assert report.ok

    def test_thm69_multi_round_verified(self):
        """Thm 6.9: FloodMin solves 1-set agreement once the covering
        sequence floods — 3 rounds for Sym(C4)."""
        sym = symmetric_closed_above([cycle(4)])
        task = KSetAgreement(1, range(2))
        report = verify_algorithm(FloodMin(3), sym, task, superset_samples=1)
        assert report.ok

    def test_failure_detected(self):
        """FloodMin(1) cannot solve consensus on Sym(C4): the report must
        carry a counterexample."""
        sym = symmetric_closed_above([cycle(4)])
        task = KSetAgreement(1, range(2))
        report = verify_algorithm(
            FloodMin(1), sym, task, superset_samples=0,
            stop_at_first_failure=True,
        )
        assert not report.ok
        failure = report.failures[0]
        assert len(set(failure.decisions.values())) > 1


#: The three solvability searches, called as ``search(graphs, k, values)``.
_SEARCHES = {
    "one-round": decide_one_round_solvability,
    "multi-round": lambda graphs, k, values: decide_multi_round_solvability(
        graphs, 1, k, values
    ),
    "colored": decide_one_round_solvability_colored,
}


class TestSolvabilitySearch:
    @pytest.mark.parametrize("search", _SEARCHES.values(), ids=list(_SEARCHES))
    @pytest.mark.parametrize(
        "graphs, k, values, message",
        [
            ([], 1, None, "need at least one graph"),
            ([cycle(3), cycle(4)], 1, None,
             "graphs must share the process count"),
            ([cycle(3)], 0, None, "k must be positive, got 0"),
            ([cycle(3)], 1, (0,),
             "need at least two values (one value makes the task trivial "
             "and breaks the validity-restriction argument)"),
        ],
        ids=["no-graphs", "mixed-n", "k-zero", "one-value"],
    )
    def test_every_search_checks_its_inputs_alike(
        self, search, graphs, k, values, message
    ):
        with pytest.raises(VerificationError) as excinfo:
            search(graphs, k, values)
        assert str(excinfo.value) == message

    def test_validation(self):
        with pytest.raises(VerificationError):
            SolvabilitySearch([], 1, (0, 1))
        with pytest.raises(VerificationError):
            SolvabilitySearch([cycle(3)], 0, (0, 1))
        with pytest.raises(VerificationError):
            SolvabilitySearch([cycle(3)], 1, (0,))
        with pytest.raises(VerificationError):
            SolvabilitySearch([cycle(3), cycle(4)], 1, (0, 1))

    def test_consensus_possible_on_clique_model(self):
        result = decide_one_round_solvability([complete_graph(3)], 1)
        assert result.solvable
        assert result.decision_map is not None

    def test_witness_map_is_consistent(self):
        """Replay the witness decision map against every execution."""
        from itertools import product as iproduct

        graphs = [complete_graph(3), star(3, 0)]
        result = decide_one_round_solvability(graphs, 1)
        assert result.solvable
        delta = result.decision_map
        for g in graphs:
            for assignment in iproduct((0, 1), repeat=3):
                decided = set()
                for p in range(3):
                    view = frozenset(
                        (q, assignment[q]) for q in g.in_neighbors(p)
                    )
                    value = delta[view]
                    assert value in {v for _, v in view}  # validity
                    decided.add(value)
                assert len(decided) <= 1

    def test_thm51_star_consensus(self):
        """γ(star) = 1: consensus solvable even on the fixed star graph."""
        assert decide_one_round_solvability([star(3, 0)], 1).solvable

    def test_thm51_cycle_impossibility(self):
        """γ(C4) = 2: consensus is impossible on the fixed C4 — and a
        fortiori on ↑C4 (Thm 5.1)."""
        result = decide_one_round_solvability([cycle(4)], 1)
        assert not result.solvable

    def test_thm54_star_impossibility_needs_full_model(self):
        """Thm 5.4 / 6.13 with (n, s) = (3, 1): 2-set agreement is
        impossible on Sym(↑star(3)).

        Instructive subtlety: the generator subset alone is SAT (star views
        are tiny, leaving the decision map slack) — the impossibility only
        materialises over the full allowed graph set, which is exactly why
        Thm 5.4's proof works with the pseudospheres of ``↑G`` rather than
        the generators' uninterpreted simplexes."""
        model = symmetric_closed_above([star(3, 0)])
        generators = sorted(model.generators)
        assert decide_one_round_solvability(generators, 2).solvable
        full = sorted(model.iter_graphs())
        result = decide_one_round_solvability(full, 2)
        assert not result.solvable

    def test_thm54_wheel_two_set_impossibility(self):
        """The Fig 1 model: 2-set agreement UNSAT on Sym(wheel4)'s
        generators, confirming the lower bound side of the tight k=3."""
        generators = sorted(symmetric_closure([wheel(4)]))
        result = decide_one_round_solvability(generators, 2)
        assert not result.solvable

    def test_sat_on_full_small_model(self):
        """2-set agreement on the full ↑C3 model: γ(C3) = 2, so SAT."""
        model = simple_closed_above(cycle(3))
        graphs = sorted(model.iter_graphs())
        assert decide_one_round_solvability(graphs, 2).solvable

    def test_unsat_on_full_small_model(self):
        """Consensus on full ↑C3: γ = 2 says impossible; exact search
        over the complete allowed set settles it."""
        model = simple_closed_above(cycle(3))
        graphs = sorted(model.iter_graphs())
        assert not decide_one_round_solvability(graphs, 1).solvable


class TestCertificates:
    def test_flood_min_violation_found(self):
        sym = symmetric_closed_above([cycle(4)])
        violation = find_violation(FloodMin(1), sym, 1, superset_samples=0)
        assert violation is not None
        assert len(set(violation.decisions.values())) >= 2

    def test_no_violation_for_true_guarantee(self):
        sym = symmetric_closed_above([cycle(4)])
        assert find_violation(FloodMin(1), sym, 3, superset_samples=2) is None

    def test_tightness_certificate(self):
        """FloodMin(1) achieves exactly γ_eq = 3 on Sym(C4)."""
        sym = symmetric_closed_above([cycle(4)])
        cert = tightness_certificate(FloodMin(1), sym, 3)
        assert len(set(cert.decisions.values())) == 3

    def test_tightness_certificate_rejects_slack_claim(self):
        """MinOfDominatingSet on ↑star achieves 1; claiming 2 is slack."""
        model = simple_closed_above(star(3, 0))
        with pytest.raises(VerificationError):
            tightness_certificate(MinOfDominatingSet(star(3, 0)), model, 2)

    def test_tightness_certificate_validation(self):
        model = simple_closed_above(star(3, 0))
        with pytest.raises(VerificationError):
            tightness_certificate(MinOfDominatingSet(star(3, 0)), model, 1)
