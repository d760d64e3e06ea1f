"""Steadiness check: two sets of runs of the same code, alternating.

Usage::

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

For each workload, run ``i`` of each set uses seed ``i`` (1 to
``runs``) and the two sets take turns going first.  For every end-to-end
metric in ``BENCHMARK.json`` it prints each set's median, quartiles and
spread (quartile distance over median, from ``statistics.quantiles(n=4)``)
beside the metric's bound, and how much worse the second set's median
is than the first's.  A metric passes when both spreads and the median
shift stay within its bound; exits 1 if any metric fails.  Spreads
above a third of the bound are flagged.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.report import WORKLOAD_NAMES, invoke  # noqa: E402
from perfbench.run import benchmark_spec  # noqa: E402


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which ``second`` is worse than ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    metrics = spec["end_to_end"]
    ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        sets: list[list[dict]] = [[], []]
        for seed in range(1, args.runs + 1):
            for which in (0, 1) if seed % 2 else (1, 0):
                start = time.perf_counter()
                _, result = invoke(workload, seed, spec["run_seconds"])
                wall = time.perf_counter() - start
                if not result["correct"]:
                    print(f"{workload} seed {seed}: ops failed", flush=True)
                    ok = False
                sets[which].append(result["metrics"])
                print(f"{workload} set {which + 1} seed {seed} ({wall:.0f} s): "
                      + "  ".join(
                          f"{m['name']}={result['metrics'][m['name']]['value']:.5g}"
                          for m in metrics
                      ), flush=True)
        print(f"\n{workload}: {args.runs} runs a set")
        print(f"  {'metric':<18}{'bound':>7}  {'set':<4}{'median':>11}"
              f"{'q1':>11}{'q3':>11}{'spread':>8}")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for which in (0, 1):
                values = [run[name]["value"] for run in sets[which]]
                median, q1, q3, share = spread(values)
                medians.append(median)
                flag = ""
                if share > bound:
                    flag, ok = "  OVER BOUND", False
                elif share > bound / 3:
                    flag = "  above bound/3"
                print(f"  {name:<18}{bound:>7.0%}  {which + 1:<4}{median:>11.5g}"
                      f"{q1:>11.5g}{q3:>11.5g}{share:>8.1%}{flag}")
            shift = worse_by(medians[0], medians[1], metric["better"])
            verdict = "ok" if shift <= bound else "WORSE THAN BOUND"
            ok = ok and shift <= bound
            print(f"  {'':<18}{'':>7}  second median worse by {shift:+.1%}: "
                  f"{verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
