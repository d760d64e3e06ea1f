"""Tests for multi-round solvability, decision-map algorithms, tightness."""

from __future__ import annotations

from itertools import product

import pytest

from repro.agreement import DecisionMapAlgorithm, KSetAgreement, execute
from repro.errors import AlgorithmError, VerificationError
from repro.graphs import complete_graph, cycle, graph_power, star, symmetric_closure
from repro.models import simple_closed_above, symmetric_closed_above
from repro.verification import (
    analyze_tightness,
    decide_multi_round_solvability,
    decide_one_round_solvability,
    exact_one_round_frontier,
)


class TestMultiRoundSolvability:
    def test_matches_one_round_at_r1(self):
        for g in (cycle(3), star(3, 0)):
            one = decide_one_round_solvability([g], 2)
            multi = decide_multi_round_solvability([g], 1, 2)
            assert one.solvable == multi.solvable

    def test_thm610_consensus_on_c4_two_rounds(self):
        """γ(C4²) = 2: consensus stays impossible after two rounds."""
        assert graph_power(cycle(4), 2).proper_edge_count == 8
        result = decide_multi_round_solvability([cycle(4)], 2, 1)
        assert not result.solvable
        assert result.rounds == 2
        assert "2 rounds" in result.describe()

    def test_two_set_on_c4_two_rounds_sat(self):
        """γ(C4²) = 2: 2-set agreement becomes solvable."""
        assert decide_multi_round_solvability([cycle(4)], 2, 2).solvable

    def test_consensus_eventually_solvable_on_fixed_cycle(self):
        """After n-1 rounds of C3 everyone heard everyone."""
        result = decide_multi_round_solvability([cycle(3)], 2, 1)
        assert result.solvable

    def test_star_model_multi_round_stuck(self):
        """Sym(stars, s=1, n=3): 2-set agreement impossible at r = 1 and 2
        over the full allowed set — Thm 6.13 is round-independent.

        The full model has 37 graphs; two rounds already cost 37² graph
        sequences, so this is the practical ceiling of the instrument.
        """
        model = symmetric_closed_above([star(3, 0)])
        full = sorted(model.iter_graphs())
        assert len(full) == 37
        assert not decide_multi_round_solvability(full, 1, 2).solvable
        assert not decide_multi_round_solvability(full, 2, 2).solvable

    def test_validation(self):
        with pytest.raises(VerificationError):
            decide_multi_round_solvability([], 1, 1)
        with pytest.raises(VerificationError):
            decide_multi_round_solvability([cycle(3)], 0, 1)
        with pytest.raises(VerificationError):
            decide_multi_round_solvability([cycle(3)], 1, 0)
        with pytest.raises(VerificationError):
            decide_multi_round_solvability([cycle(3), cycle(4)], 1, 1)
        with pytest.raises(VerificationError):
            decide_multi_round_solvability([cycle(3)], 1, 1, values=(7,))


class TestMultiRoundWitnesses:
    @pytest.mark.parametrize(
        "pool, k, executions",
        [
            ([cycle(4)], 2, 81),
            ([cycle(3)], 1, 8),
            (sorted(symmetric_closure([cycle(3)])), 2, 108),
        ],
        ids=["C4-k2", "C3-k1", "Sym(C3)-k2"],
    )
    def test_two_round_witness_is_a_two_round_algorithm(
        self, pool, k, executions
    ):
        """The SAT witness, run as a 2-round algorithm on every script
        over the pool and every input, decides at most k values."""
        result = decide_multi_round_solvability(pool, 2, k)
        assert result.solvable
        algorithm = DecisionMapAlgorithm(result.decision_map, rounds=2)
        n = pool[0].n
        ran = 0
        for script in product(pool, repeat=2):
            for assignment in product(range(k + 1), repeat=n):
                inputs = dict(enumerate(assignment))
                outcome = execute(algorithm, inputs, script)
                assert len(set(outcome.decisions.values())) <= k
                ran += 1
        assert ran == executions


class TestDecisionMapAlgorithm:
    def test_witness_map_replays(self):
        """SAT certificate -> runnable algorithm -> verified execution."""
        graphs = sorted(symmetric_closure([cycle(3)]))
        result = decide_one_round_solvability(graphs, 2)
        assert result.solvable
        algorithm = DecisionMapAlgorithm(result.decision_map)
        task = KSetAgreement(2, (0, 1, 2))
        for g in graphs:
            outcome = execute(algorithm, {0: 0, 1: 1, 2: 2}, [g], task)
            assert outcome.ok

    def test_validity_enforced(self):
        bad = {frozenset({(0, 1)}): 99}
        with pytest.raises(AlgorithmError):
            DecisionMapAlgorithm(bad)
        DecisionMapAlgorithm(bad, enforce_validity=False)  # opt-out works

    def test_empty_map_rejected(self):
        with pytest.raises(AlgorithmError):
            DecisionMapAlgorithm({})

    def test_uncovered_view_raises(self):
        algorithm = DecisionMapAlgorithm({frozenset({(0, 1)}): 1})
        with pytest.raises(AlgorithmError):
            algorithm.decide(frozenset({(0, 2)}))

    def test_metadata(self):
        algorithm = DecisionMapAlgorithm({frozenset({(0, 1)}): 1})
        assert algorithm.size == 1
        assert "rounds=1" in algorithm.name()


class TestTightnessAnalysis:
    def test_cycle3_tight_both_sides(self):
        analysis = analyze_tightness(simple_closed_above(cycle(3)))
        assert analysis.exact_k == 2
        assert analysis.lower_tight and analysis.upper_tight
        assert "tight" in analysis.describe()

    def test_clique_model(self):
        analysis = analyze_tightness(simple_closed_above(complete_graph(3)))
        assert analysis.exact_k == 1
        assert analysis.upper_tight

    def test_star_model(self):
        analysis = analyze_tightness(symmetric_closed_above([star(3, 0)]))
        assert analysis.exact_k == 3
        assert analysis.lower_sound and analysis.upper_sound

    def test_frontier_guard(self):
        model = simple_closed_above(cycle(5))  # ↑C5 has 2^15 graphs
        with pytest.raises(Exception):
            exact_one_round_frontier(model, max_graphs=16)
