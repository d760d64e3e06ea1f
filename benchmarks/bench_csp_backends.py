"""Benchmarks and acceptance checks for the CSP compute backends.

Times the ``reference`` and ``bitset`` backends (and ``sat`` when
`python-sat` is installed) on the two workloads that dominate the E10
frontier's wall-clock:

* the **heaviest n=3 class** (the empty-graph generator, whose symmetric
  closed-above model is all 64 graphs), searching every candidate
  ``k = 1..3`` over the full model (the sweep's ``solvability_subshard``
  jobs run the same searches, answering ``k = 3`` without one);
* a **sampled n=4 tail class** (the sparsest 2-edge representative,
  first 256 graphs of its enumerated model, ``k = 1..2``) — the shape of
  the sub-shards the n=4 sweep spends its time in.

Acceptance (run in CI by the ``backends-smoke`` job with
``--benchmark-disable``): the bitset backend is **>= 3x** faster than the
reference on the heaviest n=3 class, with equal verdicts everywhere.
Measured on a 2-core Xeon under CPython 3.11 (see EXPERIMENTS.md):
~58-80x on n=3, ~130-150x on the n=4 tail sample.  Both backends get
rows the builder already reduced; only the reference still scans them
pairwise for dominated rows, as the oracle.

Each timing is the fastest of one or two runs of
:meth:`~repro.verification.SolvabilitySearch.solve`, which builds and
searches the CSP without the kernel cache or the store, so every run is
cold.  These tests only *gate*; the repository benchmark
(``BENCHMARK.json``, ``perfbench/``) is the timing of record.
"""

from __future__ import annotations

import time

import pytest

from repro.verification import SolvabilitySearch, sat_available

#: The acceptance bound for bitset vs reference on the heaviest n=3
#: class.  Measured ~58-80x; 3x leaves headroom for loaded CI machines.
MIN_SPEEDUP = 3.0


def _heaviest_n3_model():
    """All 64 graphs: the full model of the sparsest n=3 class."""
    from repro.graphs.generators import iter_all_digraphs
    from repro.graphs.symmetry import iter_isomorphism_classes
    from repro.models.closed_above import symmetric_closed_above

    representatives = sorted(
        iter_isomorphism_classes(iter_all_digraphs(3)),
        key=lambda g: (-g.proper_edge_count, g.out_rows),
    )
    model = symmetric_closed_above([representatives[-1]])
    return sorted(model.iter_graphs(max_graphs=1 << 12))


def _n4_tail_sample():
    """First 256 graphs of the sparsest n=4 class whose up-set fits 2**10."""
    from repro.graphs.closure import upward_closure_size
    from repro.graphs.generators import iter_all_digraphs
    from repro.graphs.symmetry import iter_isomorphism_classes
    from repro.models.closed_above import symmetric_closed_above

    representatives = sorted(
        iter_isomorphism_classes(iter_all_digraphs(4)),
        key=lambda g: (-g.proper_edge_count, g.out_rows),
    )
    for g in reversed(representatives):
        if upward_closure_size(g) > 1 << 10:
            continue  # up-set exceeds the budget; densify
        full = sorted(symmetric_closed_above([g]).iter_graphs())
        return full[:256]
    raise AssertionError("no enumerable n=4 tail class")


def _solve(pool, k, backend):
    return SolvabilitySearch(pool, k, range(k + 1)).solve(backend)


def _time_backend(pool, ks, backend, repeats=2):
    """Cold time for the per-k searches; returns (seconds, verdicts).

    The time is the fastest of ``repeats`` runs.  Nothing is memoized
    between runs, so there is no warmup: it would measure nothing
    different from a timed run.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        results = [_solve(pool, k, backend) for k in ks]
        best = min(best, time.perf_counter() - started)
    verdicts = [
        (r.solvable, r.view_count, r.execution_count) for r in results
    ]
    return best, verdicts


def test_bitset_acceptance_on_heaviest_n3_class():
    """Acceptance: bitset >= 3x over reference on the heaviest n=3 class,
    identical verdicts (solvable, view count, reduced execution count)."""
    pool = _heaviest_n3_model()
    ks = (1, 2, 3)
    ref_time, ref_verdicts = _time_backend(pool, ks, "reference")
    bit_time, bit_verdicts = _time_backend(pool, ks, "bitset")
    assert bit_verdicts == ref_verdicts
    speedup = ref_time / bit_time
    assert speedup >= MIN_SPEEDUP, (
        f"bitset {bit_time:.3f}s vs reference {ref_time:.3f}s — "
        f"{speedup:.1f}x, need >= {MIN_SPEEDUP}x"
    )
    if sat_available():
        _, sat_verdicts = _time_backend(pool, ks, "sat")
        assert [v[0] for v in sat_verdicts] == [v[0] for v in ref_verdicts]


def test_backends_agree_on_n4_tail_sample():
    """The n=4 tail shape: bitset must not lose to reference, verdicts
    equal.  (No hard multiple here — the acceptance bound lives on the
    n=3 workload, which CI machines time more stably.)"""
    pool = _n4_tail_sample()
    ks = (1, 2)
    ref_time, ref_verdicts = _time_backend(pool, ks, "reference", repeats=1)
    bit_time, bit_verdicts = _time_backend(pool, ks, "bitset", repeats=1)
    assert bit_verdicts == ref_verdicts
    assert bit_time <= ref_time, (
        f"bitset {bit_time:.3f}s slower than reference {ref_time:.3f}s"
    )
    if sat_available():
        _, sat_verdicts = _time_backend(pool, ks, "sat", repeats=1)
        assert [v[0] for v in sat_verdicts] == [v[0] for v in ref_verdicts]


@pytest.mark.skipif(not sat_available(), reason="python-sat not installed")
def test_sat_backend_decides_heaviest_n3_class():
    """The sat backend agrees on the heaviest n=3 class (timed above)."""
    pool = _heaviest_n3_model()
    for k in (1, 2, 3):
        sat = _solve(pool, k, "sat")
        bit = _solve(pool, k, "bitset")
        assert sat.solvable == bit.solvable
        assert sat.execution_count == bit.execution_count
