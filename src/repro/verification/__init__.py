"""Machine verification: exhaustive algorithm checks, exact solvability
searches, and counterexample certificates."""

from .adversarial import WorstCase, achieved_k, worst_case_decisions
from .backends import available_backends, sat_available
from .certificates import find_violation, tightness_certificate
from .colored import decide_one_round_solvability_colored
from .exhaustive import VerificationReport, exhaustive_inputs, verify_algorithm
from .multi_round import decide_multi_round_solvability
from .tightness import (
    TightnessAnalysis,
    analyze_tightness,
    exact_one_round_frontier,
)
from .solvability import (
    SolvabilityResult,
    SolvabilitySearch,
    decide_one_round_solvability,
)

__all__ = [
    "WorstCase",
    "achieved_k",
    "worst_case_decisions",
    "available_backends",
    "sat_available",
    "decide_one_round_solvability_colored",
    "find_violation",
    "tightness_certificate",
    "VerificationReport",
    "exhaustive_inputs",
    "verify_algorithm",
    "SolvabilityResult",
    "SolvabilitySearch",
    "decide_one_round_solvability",
    "decide_multi_round_solvability",
    "TightnessAnalysis",
    "analyze_tightness",
    "exact_one_round_frontier",
]
