"""Run every workload once and print its end-to-end metrics with units.

Usage::

    python3 perfbench/report.py [--trace]

Each workload runs in its own process (``run.py``, seed 1, for the
``run_seconds`` of ``BENCHMARK.json``), so memo state and peak memory do
not carry over.  The block printed per workload names
setup_s, p50_s, p90_s (with its sample count), throughput_per_s,
error_rate and peak_rss_mb; ``--trace`` adds a traced run and its layer
shares.  Exits 1 if any op failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.run import LAYER_HEADER, benchmark_spec  # noqa: E402
from perfbench.workloads import HERE, ROOT, WORKLOADS  # noqa: E402

WORKLOAD_NAMES = tuple(WORKLOADS)


def invoke(workload: str, seed: int, seconds: float, trace: int = 0):
    """One ``run.py`` run; returns (text lines, parsed result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}"
        )
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seconds = benchmark_spec()["run_seconds"]
    correct = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            text, result = invoke(workload, 1, seconds, trace)
            if trace:
                text = text[text.index(LAYER_HEADER):]
            print("\n".join(text))
            correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
