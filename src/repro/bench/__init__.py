"""repro.bench — the variance-aware benchmark harness and perf trajectory.

The committed perf record of this repo is a sequence of schema-versioned
JSON *trajectory points* (``benchmarks/BENCH_<rev>.json``), each one
produced by ``python -m repro bench run``: named scenarios
(:data:`~repro.bench.scenarios.SCENARIOS`) executed over a declared
``{executor, workers, seeding, backend}`` matrix, timed
by the adaptive variance engine (:func:`~repro.bench.variance.measure`:
warmups, then repeat until the CV settles), and attributed by an
embedded :mod:`repro.obs` trace digest per cell.

``python -m repro bench compare OLD NEW`` diffs two points and exits
nonzero on a median regression or result drift — the gate CI's
``bench-smoke`` job runs against the last landed point instead of
scattered static ``>= Nx`` constants.
"""

from __future__ import annotations

from .compare import (
    DEFAULT_TOLERANCE,
    BenchFormatError,
    compare_snapshots,
    describe_comparison,
    load_snapshot,
)
from .harness import (
    SCHEMA,
    list_scenarios,
    run_bench,
    validate_snapshot,
    write_snapshot,
)
from .scenarios import SCENARIOS, Cell, CellRun, Scenario, select_scenarios
from .variance import (
    DEFAULT_CONFIG,
    QUICK_CONFIG,
    Measurement,
    VarianceConfig,
    measure,
    quantile,
)

__all__ = [
    "BenchFormatError",
    "Cell",
    "CellRun",
    "DEFAULT_CONFIG",
    "DEFAULT_TOLERANCE",
    "Measurement",
    "QUICK_CONFIG",
    "SCENARIOS",
    "SCHEMA",
    "Scenario",
    "VarianceConfig",
    "compare_snapshots",
    "describe_comparison",
    "list_scenarios",
    "load_snapshot",
    "measure",
    "quantile",
    "run_bench",
    "select_scenarios",
    "validate_snapshot",
    "write_snapshot",
]
