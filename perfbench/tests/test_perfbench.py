"""Self-tests of the benchmark's own logic; none of them runs the program."""

from __future__ import annotations

import json
import subprocess
import sys
import types

import pytest

from perfbench import run
from perfbench.timing import Calibrator, Sample, p90_with_tail, summarize
from perfbench.tracing import (
    Installation,
    Probe,
    Recorder,
    Span,
    TracedOp,
    layer_metrics,
    self_times,
)
from perfbench.workloads import (
    EXPECTED,
    N4_PROFILE,
    OpFailed,
    SweepN3Cold,
    draw_n4_classes,
    load_n4_expected,
)


class FakeHost:
    """A clock that only moves when told to, and scripted calibrations."""

    def __init__(self, calibrations):
        self.now = 0.0
        self.calibrations = list(calibrations)

    def clock(self) -> float:
        return self.now

    def measure(self) -> float:
        return self.calibrations.pop(0)


def test_calibration_scales_by_the_samples_around_an_op():
    host = FakeHost([0.02, 0.04])
    calibrator = Calibrator(host.clock, host.measure, reference=0.03)
    before = calibrator.sample()
    calibrator.sample()
    # Median of the bracketing samples is 0.03, the reference: no change.
    assert calibrator.scale(before) == pytest.approx(1.0)


def test_setup_is_the_median_cold_rep_scaled_like_an_op(monkeypatch):
    # A host three times slower than the reference host.
    host = FakeHost([0.09] * 4)
    calibrator = Calibrator(host.clock, host.measure, reference=0.03)
    events = []
    raws = iter([2.0, 1.0, 3.0])

    def cold_setup():
        events.append("cold")
        return next(raws)

    workload = types.SimpleNamespace(
        cold_setup=cold_setup, prepare=lambda: events.append("prepare")
    )
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)
    reps = run.set_up(workload, calibrator)
    assert events == ["cold"] * run.SETUP_REPS + ["prepare"]
    assert run.setup_seconds(reps, calibrator) == pytest.approx(2.0 / 3)


def test_summary_halves_ops_that_ran_on_a_host_twice_as_slow():
    # The host halves its speed after the sixth op; so do the ops.
    host = FakeHost([0.01] * 6 + [0.02] * 7)
    calibrator = Calibrator(host.clock, host.measure, reference=0.01)
    samples = []
    calibrator.sample()
    for raw in [1.0] * 6 + [2.0] * 6:
        samples.append(Sample(raw, raw, True, calibrator.last_index))
        calibrator.sample()
    summary = summarize(samples, calibrator)
    scaled = [s.scaled_s for s in samples]
    # Only the op at the change sees a window of mixed samples.
    assert scaled == pytest.approx([1.0] * 5 + [2 / 3] + [1.0] * 6)
    assert summary.p50_s == pytest.approx(1.0)
    assert summary.raw_p50_s == 1.5
    assert summary.throughput_per_s == pytest.approx(12 / sum(scaled))
    assert summary.calib_s == pytest.approx(0.02)


def test_p90_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert p90_with_tail(values) == 90
    assert sum(v > 90 for v in values) == 10
    assert p90_with_tail(values[:99]) is None


def _sweep_with_expected_rows(rows):
    workload = SweepN3Cold.__new__(SweepN3Cold)
    workload.expected_rows = rows
    real = json.loads((EXPECTED / "e10_rows.json").read_text())["rows"]
    workload.run = lambda op: subprocess.CompletedProcess(
        [], 0, json.dumps({"rows": real}), ""
    )
    workload.cpu_clock = lambda: 0.0
    return workload, real


def test_corrupted_expected_row_counts_as_a_failed_op():
    committed = json.loads((EXPECTED / "e10_rows.json").read_text())["rows"]
    corrupted = [list(row) for row in committed]
    corrupted[3][2] = "4"
    workload, real = _sweep_with_expected_rows(corrupted)
    with pytest.raises(OpFailed):
        workload.check(None, workload.run(None))

    host = FakeHost([0.01] * 4)
    calibrator = Calibrator(host.clock, host.measure)
    calibrator.sample()
    failures = run.Failures(shown=0)
    sample = run.run_op(workload, None, calibrator, failures)
    assert not sample.ok
    assert failures.count == 1

    workload.expected_rows = real
    assert run.run_op(workload, None, calibrator, failures).ok
    assert failures.count == 1


def test_seeds_draw_different_classes_with_one_size_profile():
    expected = load_n4_expected()
    assert len(expected) == 218
    assert sum(row["solvable"] for row in expected.values()) == 1
    draws = [draw_n4_classes(seed, expected) for seed in range(1, 6)]
    profiles = {
        tuple(sorted(expected[key]["graphs"] for key in drawn))
        for drawn in draws
    }
    assert profiles == {tuple(sorted(N4_PROFILE))}
    assert len({frozenset(drawn) for drawn in draws}) > 1
    assert draw_n4_classes(3, expected) == draws[2]


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_layer")

    def work(n):
        return list(range(n))

    module.work = work
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_missing_entry_point_is_reported_absent(fake_module):
    recorder = Recorder()
    probes = (
        Probe("present", fake_module.__name__, "work", counts=lambda a, k, r: {
            "present.items": len(r)
        }),
        Probe("renamed", fake_module.__name__, "old_name"),
        Probe("gone", "perfbench_no_such_module", "work"),
        Probe("method", fake_module.__name__, "Missing.method"),
    )
    installation = Installation(recorder, probes)
    assert [p.layer for p in installation.absent] == ["renamed", "gone", "method"]
    original = fake_module.work.__wrapped__
    recorder.op = 0
    assert fake_module.work(3) == [0, 1, 2]
    installation.remove()
    assert fake_module.work is original
    assert [(s.name, s.op, s.counts) for s in recorder.spans] == [
        ("present", 0, {"present.items": 3})
    ]


def test_self_time_subtracts_children_and_rest_is_unattributed():
    spans = [
        Span("verification.search", 0.0, 10.0, op=0),
        Span("verification.reduce", 2.0, 8.0, parent=0, op=0),
        Span("unknown.layer", 8.0, 9.0, parent=0, op=0),
    ]
    assert self_times(spans) == [3.0, 6.0, 1.0]
    metrics = layer_metrics(spans, [TracedOp(0, 12.0, 0.5)])
    assert metrics["verification.reduce.self_s"] == 3.0
    assert metrics["verification.search.self_s"] == 1.5
    assert metrics["verification.reduce.share"] == pytest.approx(0.5)
    # 12 s of op: 9 s in known layers, the unknown layer and the gap
    # outside every span are unattributed.
    assert metrics["host.unattributed_s"] == pytest.approx(1.5)
    assert metrics["host.unattributed_share"] == pytest.approx(0.25)
