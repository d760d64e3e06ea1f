"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs ops back to back (a closed loop, one op in flight, at
most one child process at a time) in whole passes over the workload's
op set until ``--seconds`` have passed.  Every op's output is checked.
Every timing is calibrated (see ``timing.py``).  With ``--trace 1`` the
same ops run once more with wrappers around each layer's entry points
(see ``tracing.py``) and the per-layer metrics are printed instead of
the end-to-end ones.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.timing import Calibrator, Sample, summarize  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Installation,
    Recorder,
    TracedOp,
    layer_metrics,
)
from perfbench.workloads import (  # noqa: E402
    HERE,
    ROOT,
    SRC,
    WORKLOADS,
)

#: Cold set-ups per run: at least SETUP_REPS, and more until they have
#: taken SETUP_SECONDS (raw).  ``setup_s`` is their median.  One cold
#: set-up varied by about 9% (CV) on the 2-core host the benchmark was
#: written on, so the short ones (about 1 s raw for n4_consensus_cold,
#: 0.6 s for sweep_n3_cold) need more than three for a median that
#: repeats between runs; the 4 s set-up of n4_consensus_warm stops at
#: three.
SETUP_REPS = 3
SETUP_SECONDS = 6.0

#: Least time the traced run spends in traced ops (whole passes).
TRACE_SECONDS = 5.0

LAYER_HEADER = "  layer share of traced op time:"


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metrics a run reports and their units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, calibrator: Calibrator) -> list[tuple[float, int]]:
    """Cold set-ups (see :data:`SETUP_REPS`), then this process's own.

    Each rep is a set-up as a fresh process pays it (``cold_setup`` in
    ``workloads.py``).  Returns each rep's raw seconds and the index of
    the calibration sample before it.  The set-up that readies this
    process for the timed ops is not timed.
    """
    reps = []
    start = time.perf_counter()
    while len(reps) < SETUP_REPS or time.perf_counter() - start < SETUP_SECONDS:
        before = calibrator.sample()
        reps.append((workload.cold_setup(), before))
    calibrator.sample()
    workload.prepare()
    return reps


def setup_seconds(reps: list[tuple[float, int]], calibrator: Calibrator) -> float:
    """``setup_s``: the median rep, each scaled like an op."""
    return statistics.median(raw * calibrator.scale(before) for raw, before in reps)


class Failures:
    """Counts failed ops and reports the first few on standard error."""

    def __init__(self, shown: int = 3):
        self.count = 0
        self.shown = shown

    def record(self, message: str) -> None:
        self.count += 1
        if self.count <= self.shown:
            print(f"op failed: {message}", file=sys.stderr)


def run_op(workload, op, calibrator: Calibrator, failures: Failures) -> Sample:
    before = calibrator.last_index
    cpu0 = workload.cpu_clock()
    start = time.perf_counter()
    try:
        output = workload.run(op)
    except Exception:
        raw = time.perf_counter() - start
        failures.record(traceback.format_exc())
        return Sample(raw, workload.cpu_clock() - cpu0, False, before)
    raw = time.perf_counter() - start
    cpu = workload.cpu_clock() - cpu0
    try:
        workload.check(op, output)
    except Exception as exc:
        failures.record(f"{type(exc).__name__}: {exc}")
        return Sample(raw, cpu, False, before)
    return Sample(raw, cpu, True, before)


def timed_loop(workload, seconds: float, calibrator: Calibrator,
               failures: Failures) -> tuple[list[Sample], int]:
    """Whole passes over the op set until ``seconds`` have passed."""
    ops = workload.ops()
    samples: list[Sample] = []
    passes = 0
    calibrator.sample()
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for op in ops:
            samples.append(run_op(workload, op, calibrator, failures))
            calibrator.maybe_sample()
        passes += 1
    calibrator.sample()
    return samples, passes


def traced_population(workload, calibrator: Calibrator) -> dict[str, float]:
    """Store writes per op, from one traced population of the warm store.

    The warm ops only read the store; its write path runs in set-up.
    """
    recorder = Recorder(time.perf_counter)
    installation = Installation(recorder)
    before = calibrator.sample()
    try:
        written = workload.populate()
    finally:
        installation.remove()
    calibrator.sample()
    flush = sum(s.end - s.start for s in recorder.spans if s.name == "store.flush")
    ops = len(workload.ops())
    return {
        "store.writes": written / ops,
        "store.flush_self_s": flush * calibrator.scale(before) / ops,
    }


def traced_pass(workload, calibrator: Calibrator, failures: Failures):
    """Whole traced passes over the op set for at least
    :data:`TRACE_SECONDS`; returns (per-layer metrics, ops run)."""
    extra = traced_population(workload, calibrator) if workload.populates else {}
    recorder = Recorder(time.perf_counter)
    # Out-of-process ops install the wrappers in their own child.
    installation = Installation(recorder) if workload.in_process else None
    absent = set(installation.absent_layers) if installation else set()
    rows = []
    calibrator.sample()
    start = time.perf_counter()
    try:
        while not rows or time.perf_counter() - start < TRACE_SECONDS:
            for op in workload.ops():
                index = recorder.op = len(rows)
                before = calibrator.last_index
                output, wall, cache, store, child_absent = workload.run_traced(
                    op, recorder, index
                )
                absent.update(child_absent)
                try:
                    workload.check(op, output)
                except Exception as exc:
                    failures.record(f"traced: {type(exc).__name__}: {exc}")
                rows.append((index, wall, before, cache, store))
                calibrator.maybe_sample()
    finally:
        if installation is not None:
            installation.remove()
    calibrator.sample()
    traced = [
        TracedOp(index, wall, calibrator.scale(before), cache, store)
        for index, wall, before, cache, store in rows
    ]
    metrics = layer_metrics(recorder.spans, traced)
    metrics.update(extra)
    metrics["host.absent_layers"] = len(absent)
    metrics["host.traced_p50_s"] = statistics.median(
        o.wall_s * o.scale for o in traced
    )
    for name in sorted(absent):
        print(f"absent layer: {name}", file=sys.stderr)
    return metrics, len(traced)


def report(workload, seed, summary, setup_s, setups, peak_rss, passes,
           layers) -> None:
    """Human-readable block; the JSON result line follows it."""
    print(f"{workload.name} seed {seed}: {summary.attempted} ops in {passes} "
          f"passes, {len(workload.ops())} ops a pass")
    p90 = (
        f"{summary.p90_s:.6f} s  ({summary.samples} samples)"
        if summary.p90_s is not None
        else f"n/a  ({summary.samples} samples; ten beyond p90 needs 100)"
    )
    for name, text in (
        ("setup_s", f"{setup_s:.6f} s  ({setups} cold set-ups)"),
        ("p50_s", f"{summary.p50_s:.6f} s  ({summary.samples} samples)"),
        ("p90_s", p90),
        ("throughput_per_s", f"{summary.throughput_per_s:.4f} 1/s"),
        ("error_rate", f"{summary.error_rate:g}  "
                       f"({summary.failed} of {summary.attempted} failed)"),
        ("peak_rss_mb", f"{peak_rss:.1f} MB"),
        ("host.calib_s", f"{summary.calib_s:.6f} s (raw)"),
        ("host.raw_p50_s", f"{summary.raw_p50_s:.6f} s"),
    ):
        print(f"  {name:<18} {text}")
    if layers:
        print(LAYER_HEADER)
        for name, value in sorted(layers.items()):
            if name.endswith("share"):
                print(f"    {name[:-6]:<22} {value:7.1%}")
        print(f"  host.trace_overhead {layers['host.trace_overhead']:.3f} "
              f"(traced p50 over untraced p50)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Bytecode is compiled before any timer starts.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    spec = benchmark_spec()
    failures = Failures()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        calibrator = Calibrator()
        setup_reps = set_up(workload, calibrator)
        samples, passes = timed_loop(workload, args.seconds, calibrator, failures)
        summary = summarize(samples, calibrator)
        setup_s = setup_seconds(setup_reps, calibrator)
        peak_rss = workload.peak_rss_mb()
        layers: dict[str, float] = {}
        traced = 0
        if args.trace:
            layers, traced = traced_pass(workload, calibrator, failures)
            layers.update({
                "host.calib_s": summary.calib_s,
                "host.raw_p50_s": summary.raw_p50_s,
                "host.raw_throughput_per_s": summary.raw_throughput_per_s,
                "host.cpu_s": summary.cpu_s,
                "host.wait_s": summary.wait_s,
                "host.trace_overhead": layers["host.traced_p50_s"] / summary.p50_s,
            })
        report(workload, args.seed, summary, setup_s, len(setup_reps), peak_rss,
               passes, layers)
    if args.trace:
        metrics, wanted = layers, spec["per_layer"]
    else:
        metrics = {
            "setup_s": setup_s,
            "p50_s": summary.p50_s,
            "throughput_per_s": summary.throughput_per_s,
            "peak_rss_mb": peak_rss,
        }
        wanted = spec["end_to_end"]
    attempted = summary.attempted + traced
    print(json.dumps({
        "correct": failures.count == 0,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
