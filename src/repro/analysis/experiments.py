"""Run every experiment and emit the EXPERIMENTS.md body.

Usage::

    python -m repro.analysis.experiments            # all experiments
    python -m repro.analysis.experiments E1 E6      # a subset
    python -m repro experiments --jobs 4            # parallel fan-out

Each experiment is submitted as one engine job
(:func:`repro.engine.batch.run_batch`), so ``jobs=N`` fans them out over
worker processes; the serial default produces byte-identical tables.  The
heavy experiments (E10 at n=3, E5's searches) take a couple of minutes
combined; everything else is seconds.  Every table is followed by a cache
footer — the kernel-cache hits/misses attributable to that experiment —
so caching regressions show up directly in the report output.
"""

from __future__ import annotations

import sys
import time
from collections.abc import Callable

from ..engine.batch import Job, describe_dist_metrics, run_batch
from ..engine.cache import CacheStats
from .render import render_table
from .tables import (
    e01_figure1_table,
    e02_figure2_report,
    e03_pseudosphere_table,
    e04_shellability_table,
    e05_simple_tightness_table,
    e06_star_union_table,
    e07_product_closure_report,
    e08_model_connectivity_table,
    e09_covering_sequence_table,
    e10_solvability_frontier_table,
    e11_multiround_upper_table,
    e12_multiround_lower_table,
    e13_lemma48_table,
    e14_heard_of_table,
    e15_achieved_k_table,
    e16_colored_vs_oblivious_table,
)

EXPERIMENTS: dict[str, tuple[str, Callable]] = {
    "E1": ("Figure 1 / Sec 3.2 worked example", e01_figure1_table),
    "E2": ("Figure 2: uninterpreted simplex", e02_figure2_report),
    "E3": ("Figure 3 / Lemma 4.7: pseudosphere connectivity", e03_pseudosphere_table),
    "E4": ("Figure 4: shellability", e04_shellability_table),
    "E5": ("Thm 3.2 / 5.1 tightness on simple models", e05_simple_tightness_table),
    "E6": ("Thm 5.4 / 6.13: union-of-stars family", e06_star_union_table),
    "E7": ("Sec 6.1: product vs closure gap", e07_product_closure_report),
    "E8": ("Thm 4.12: closed-above connectivity", e08_model_connectivity_table),
    "E9": ("Thm 6.7 / 6.9: covering sequences", e09_covering_sequence_table),
    "E10": ("Exhaustive solvability frontier (n=3)", e10_solvability_frontier_table),
    "E11": ("Thm 6.3 / 6.7: multi-round uppers", e11_multiround_upper_table),
    "E12": ("Thm 6.10 / 6.11: multi-round lowers", e12_multiround_lower_table),
    "E13": ("Lemma 4.8 machine check", e13_lemma48_table),
    "E14": ("Heard-Of models (Sec 2.1)", e14_heard_of_table),
    "E15": ("Achieved k vs theorem guarantee", e15_achieved_k_table),
    "E16": ("Colored vs oblivious one-round power", e16_colored_vs_oblivious_table),
}


def _run_experiment(key: str) -> tuple[list[str], list[list[object]]]:
    """Compute one experiment's table; the engine job behind :func:`run`."""
    _, builder = EXPERIMENTS[key]
    return builder()


def _cache_footer(stats: CacheStats, store_stats=None) -> str:
    """One-line cache (and, when persistence is on, store) summary."""
    line = (
        f"cache: {stats.hits} hits / {stats.misses} misses "
        f"({stats.hit_rate:.0%} hit rate)"
    )
    if store_stats is not None:
        line += (
            f"; store: {store_stats.hits} hits / {store_stats.misses} misses"
            f" / {store_stats.writes} writes"
        )
    return line


def run(
    selected: list[str] | None = None,
    stream=None,
    jobs: int = 1,
    executor=None,
) -> None:
    """Run the selected experiments (default: all), printing tables.

    ``stream`` defaults to the *current* ``sys.stdout`` (resolved at call
    time so output capture/redirection works).  ``jobs`` fans the
    experiments out over worker processes; an ``executor`` (a
    :class:`repro.dist.DistExecutor`) fans them out over remote workers
    instead.  Tables are printed in request order either way,
    byte-identical serially, on a pool and on a cluster.
    """
    if stream is None:
        stream = sys.stdout
    chosen = selected or list(EXPERIMENTS)
    for key in chosen:
        if key not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {key!r}; choose from {', '.join(EXPERIMENTS)}"
            )
    tasks = [Job(name=key, fn=_run_experiment, args=(key,)) for key in chosen]
    start = time.perf_counter()
    batch = run_batch(tasks, jobs=jobs, executor=executor)
    wall = time.perf_counter() - start
    for key, result in zip(chosen, batch.results):
        title, _ = EXPERIMENTS[key]
        headers, rows = result.value
        print(f"## {key} — {title}  ({result.elapsed:.1f}s)", file=stream)
        print(file=stream)
        print("```", file=stream)
        print(render_table(headers, rows), file=stream)
        print(f"[{_cache_footer(result.stats, result.store_stats)}]", file=stream)
        print("```", file=stream)
        print(file=stream)
    if batch.jobs > 1:
        print(
            f"ran {len(chosen)} experiment(s) on {batch.jobs} workers in "
            f"{wall:.1f}s ({batch.elapsed:.1f}s of compute); "
            f"{_cache_footer(batch.stats, batch.store_stats)}",
            file=stream,
        )
    if batch.dist_metrics is not None:
        # Coordinator-side accounting of a distributed run: how the
        # cluster behaved, not just what it computed.
        print(describe_dist_metrics(batch.dist_metrics), file=stream)


if __name__ == "__main__":
    run(sys.argv[1:] or None)
