"""Tests for repro.obs: tracing, shipping, export, watch mode.

The load-bearing properties:

* tracing is inert by default and **never changes results** — traced and
  untraced sweeps produce identical rows serially, on a pool and on a
  cluster;
* span shipping follows the store-row path: workers drain into
  ``JobResult.trace_events``, parents absorb, only the parent exports
  (and garbage shipped by a dying worker is dropped, never written);
* clock-offset correction is a constant shift — order and durations of
  a lane's events survive it exactly;
* ``summarize_trace`` aggregates a committed fixture trace to known
  numbers.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading

import pytest

from repro import store as store_pkg
from repro.analysis.sweeps import solvability_sweep
from repro.dist import DistExecutor, watch_status
from repro.dist.worker import run_worker
from repro.engine import KERNEL_CACHE
from repro.errors import DistError
from repro.obs import (
    TRACER,
    configure_trace,
    estimate_clock_offset,
    write_trace,
)
from repro.obs.export import (
    describe_summary,
    load_trace,
    summarize_trace,
    write_chrome_trace,
)
from repro.obs.trace import Tracer

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "summary_trace.json")


@pytest.fixture
def no_store():
    KERNEL_CACHE.clear()
    with store_pkg.RESULT_STORE.disabled():
        yield
    KERNEL_CACHE.clear()


@pytest.fixture
def traced(tmp_path):
    """Enable the global tracer for one test, restoring the default."""
    path = str(tmp_path / "trace.json")
    TRACER.clear()
    configure_trace(path)
    yield path
    TRACER.clear()
    TRACER.clock_offset = 0.0
    configure_trace(None, enabled=False)


class TestTracer:
    """The span/instant hot path, on a private Tracer instance."""

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("kernel:x", cat="kernel") as sp:
            sp.set(tier="memo")  # the no-op twin absorbs the same calls
        tracer.instant("dist:lease", cat="dist")
        assert tracer.snapshot() == ()

    def test_span_records_duration_lane_and_attrs(self):
        tracer = Tracer(enabled=True)
        with tracer.span("kernel:x", cat="kernel", n=3) as sp:
            sp.set(tier="computed")
        (event,) = tracer.snapshot()
        assert event["name"] == "kernel:x"
        assert event["cat"] == "kernel"
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
        assert event["lane"].endswith(f":{os.getpid()}")
        assert event["tid"] == threading.get_ident()
        assert event["args"] == {"n": 3, "tier": "computed"}

    def test_span_records_error_attr_on_exception(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("job:boom", cat="job"):
                raise ValueError("nope")
        (event,) = tracer.snapshot()
        assert event["args"]["error"] == "ValueError"

    def test_instant_records_zero_duration_event(self):
        tracer = Tracer(enabled=True)
        tracer.instant("dist:requeue", cat="dist", index=4)
        (event,) = tracer.snapshot()
        assert event["ph"] == "i"
        assert "dur" not in event
        assert event["args"] == {"index": 4}

    def test_drain_empties_the_buffer(self):
        tracer = Tracer(enabled=True)
        tracer.instant("a")
        tracer.instant("b")
        assert len(tracer.drain()) == 2
        assert tracer.snapshot() == ()
        assert tracer.drain() == ()

    def test_buffer_cap_drops_and_counts(self, monkeypatch):
        monkeypatch.setattr("repro.obs.trace.MAX_EVENTS", 2)
        tracer = Tracer(enabled=True)
        for i in range(5):
            tracer.instant(f"e{i}")
        assert len(tracer.snapshot()) == 2
        assert tracer.dropped == 3

    def test_absorb_drops_garbage_keeps_valid(self):
        """The killed/byzantine-worker guard: only well-formed events land."""
        tracer = Tracer(enabled=True)
        good = {
            "name": "kernel:x", "cat": "kernel", "ph": "X",
            "ts": 12.5, "dur": 0.25, "lane": "h:1", "tid": 1, "args": {},
        }
        garbage = [
            "not a dict",
            None,
            42,
            {"name": "missing-keys"},
            {**good, "ts": float("nan")},
            {**good, "ts": float("inf")},
            {**good, "dur": float("nan")},
            {**good, "ts": "yesterday"},
        ]
        assert tracer.absorb(garbage + [good]) == 1
        assert tracer.snapshot() == (good,)

    def test_absorb_noop_when_disabled(self):
        tracer = Tracer(enabled=False)
        assert tracer.absorb([{"name": "x", "cat": "c", "ph": "i",
                               "ts": 1.0, "lane": "h:1"}]) == 0
        assert tracer.snapshot() == ()


class TestClockOffset:
    def test_ntp_midpoint_estimate(self):
        assert estimate_clock_offset(1.0, 3.0, 12.0) == 10.0
        assert estimate_clock_offset(5.0, 5.0, 5.0) == 0.0
        assert estimate_clock_offset(10.0, 12.0, 1.0) == -10.0

    def test_offset_preserves_order_and_durations(self):
        """The correction is one constant shift: monotonicity survives."""
        tracer = Tracer(enabled=True)
        for i in range(10):
            tracer._record({
                "name": f"e{i}", "cat": "t", "ph": "X",
                "ts": 100.0 + i, "dur": 0.5 * i, "lane": "h:1",
                "tid": 1, "args": {},
            })
        before = tracer.snapshot()
        tracer.clock_offset = -7.25
        after = tracer.drain()
        assert [e["name"] for e in after] == [e["name"] for e in before]
        stamps = [e["ts"] for e in after]
        assert stamps == sorted(stamps)
        for b, a in zip(before, after):
            assert a["ts"] == pytest.approx(b["ts"] - 7.25)
            assert a["dur"] == b["dur"]

    def test_zero_offset_drain_is_identity(self):
        tracer = Tracer(enabled=True)
        tracer.instant("e")
        (before,) = tracer.snapshot()
        (after,) = tracer.drain()
        assert after is before  # no copy on the common path


class TestTracedEquivalence:
    """Tracing never changes results: traced == untraced, serial, pool and
    dist alike."""

    def _rows(self, **run):
        KERNEL_CACHE.clear()
        report = solvability_sweep(3, limit=6, **run)
        return json.dumps(
            [[repr(cell) for cell in row] for row in report.rows]
        )

    def test_serial_and_pool_traced_rows_identical(self, no_store, tmp_path):
        untraced = self._rows()
        configure_trace(str(tmp_path / "t.json"))
        try:
            assert self._rows() == untraced
            assert self._rows(jobs=2) == untraced
        finally:
            TRACER.clear()
            configure_trace(None, enabled=False)

    def test_dist_traced_rows_identical(self, no_store, tmp_path):
        untraced = self._rows()
        configure_trace(str(tmp_path / "t.json"))
        try:
            def launch(address):
                threading.Thread(
                    target=run_worker, args=address, daemon=True
                ).start()

            traced = self._rows(executor=DistExecutor(":0", on_bound=launch))
            assert traced == untraced
        finally:
            TRACER.clear()
            TRACER.clock_offset = 0.0
            configure_trace(None, enabled=False)

    def test_traced_sweep_covers_every_instrumented_layer(
        self, no_store, traced
    ):
        KERNEL_CACHE.clear()
        solvability_sweep(3, limit=6, jobs=2)
        count = write_trace()
        assert count > 0
        events = load_trace(traced)
        cats = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"sweep", "job", "kernel"} <= cats
        # Pool children land in their own lanes next to the parent's.
        lanes = {
            e["args"]["name"] for e in events if e.get("ph") == "M"
        }
        assert len(lanes) >= 2

    def test_killed_worker_garbage_never_corrupts_the_file(
        self, traced
    ):
        """Garbage shipped home is dropped; the export stays parseable."""
        TRACER.instant("dist:lease", cat="dist")
        kept = TRACER.absorb([
            {"partial": "span from a dying worker"},
            b"\x00torn pickle",
            {"name": "ok", "cat": "job", "ph": "X", "ts": 1.0,
             "dur": 0.5, "lane": "dead:9", "tid": 1, "args": {}},
        ])
        assert kept == 1
        assert write_trace() == 2
        events = load_trace(traced)  # json.load validates the file
        assert sum(1 for e in events if e.get("ph") != "M") == 2


class TestExport:
    def test_chrome_trace_round_trip(self, tmp_path):
        path = str(tmp_path / "chrome.json")
        events = [
            {"name": "kernel:x", "cat": "kernel", "ph": "X", "ts": 2.0,
             "dur": 0.5, "lane": "hostA:1", "tid": 7,
             "args": {"tier": "memo"}},
            {"name": "dist:lease", "cat": "dist", "ph": "i", "ts": 2.1,
             "lane": "hostB:2", "tid": 8, "args": {}},
        ]
        assert write_chrome_trace(path, events) == 2
        loaded = load_trace(path)
        meta = [e for e in loaded if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["hostA:1", "hostB:2"]
        span = next(e for e in loaded if e["ph"] == "X")
        assert span["ts"] == 2.0e6 and span["dur"] == 0.5e6  # seconds -> µs
        instant = next(e for e in loaded if e["ph"] == "i")
        assert instant["s"] == "t"
        assert {m["pid"] for m in meta} == {span["pid"], instant["pid"]}

    def test_empty_trace_is_still_a_valid_file(self, tmp_path):
        path = str(tmp_path / "empty.json")
        assert write_chrome_trace(path, []) == 0
        assert load_trace(path) == []

    def test_load_trace_accepts_bare_array_form(self):
        events = load_trace(FIXTURE)
        assert any(e.get("ph") == "X" for e in events)

    def test_load_trace_rejects_non_trace_json(self, tmp_path):
        # An object without traceEvents (a `sweep --json` output, say) is
        # not an empty trace.
        path = tmp_path / "not.json"
        for payload in ('{"traceEvents": "nope"}', '{"rows": []}'):
            path.write_text(payload)
            with pytest.raises(ValueError):
                load_trace(str(path))


class TestSummary:
    """Exact aggregation numbers on the committed fixture trace."""

    def test_fixture_summary_numbers(self):
        summary = summarize_trace(load_trace(FIXTURE))
        assert summary["events"] == 6
        assert summary["spans"] == 5
        assert summary["instants"] == {"dist:lease": 1}
        assert summary["categories"] == {"job": 2, "kernel": 3}
        assert summary["wall"] == pytest.approx(1.5)
        assert summary["kernel_calls"] == 3
        assert summary["tier_counts"]["computed"] == 1
        assert summary["tier_counts"]["memo"] == 1
        assert summary["tier_counts"]["store"] == 1
        assert summary["tier_rates"]["memo"] == pytest.approx(1 / 3)

    def test_fixture_self_time_subtracts_children(self):
        summary = summarize_trace(load_trace(FIXTURE))
        top = summary["top_kernels"][0]
        assert top["kernel"] == "solvability_shard"
        assert top["count"] == 2
        # Lane A: 0.8s minus the nested 0.3s iso_key; lane B: 1.0s whole.
        assert top["self"] == pytest.approx(0.5 + 1.0)
        assert top["total"] == pytest.approx(0.8 + 1.0)
        assert top["tiers"] == {"computed": 1, "store": 1}
        iso = next(k for k in summary["top_kernels"]
                   if k["kernel"] == "iso_key")
        assert iso["self"] == pytest.approx(0.3)
        # job self-time: 1.0 - 0.8 and 1.5 - 1.0 (kernels subtracted).
        assert summary["self_total"] == pytest.approx(
            0.2 + 0.5 + 0.3 + 0.5 + 1.0
        )

    def test_fixture_worker_utilization_and_straggler(self):
        summary = summarize_trace(load_trace(FIXTURE))
        rows = {w["worker"]: w for w in summary["workers"]}
        assert rows["hostA:100"]["jobs"] == 1
        assert rows["hostA:100"]["busy"] == pytest.approx(1.0)
        assert rows["hostA:100"]["idle"] == pytest.approx(0.5)
        assert rows["hostA:100"]["utilization"] == pytest.approx(1.0 / 1.5)
        assert rows["hostB:200"]["utilization"] == pytest.approx(1.0)
        straggler = summary["straggler"]
        assert straggler["worker"] == "hostB:200"
        assert straggler["gap"] == pytest.approx(0.5)

    def test_describe_summary_renders_every_section(self):
        summary = summarize_trace(load_trace(FIXTURE))
        text = describe_summary(summary)
        assert "kernel calls: 3" in text
        assert "solvability_shard" in text
        assert "hostB:200" in text
        assert "straggler" in text
        assert "dist:lease=1" in text

    def test_summary_is_json_serializable(self):
        json.dumps(summarize_trace(load_trace(FIXTURE)))

    def test_empty_trace_summary(self):
        summary = summarize_trace([])
        assert summary["events"] == 0
        assert summary["wall"] == 0.0
        assert summary["straggler"] is None
        describe_summary(summary)  # must not raise


class TestWatchStatus:
    def _probe_sequence(self, payloads):
        calls = {"n": 0}

        def probe(address, timeout=5.0):
            i = calls["n"]
            calls["n"] += 1
            if i >= len(payloads):
                raise DistError("gone")
            return payloads[i]

        return probe

    def test_json_mode_emits_one_object_per_poll(self):
        stream = io.StringIO()
        polls = watch_status(
            ":0",
            interval=0.01,
            probe=self._probe_sequence([{"a": 1}, {"a": 2}]),
            stream=stream,
            sleep=lambda _: None,
        )
        assert polls == 2
        lines = stream.getvalue().strip().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"a": 2}]

    def test_human_mode_clears_and_reprints(self):
        stream = io.StringIO()
        watch_status(
            ":0",
            interval=0.01,
            count=2,
            render=lambda status: f"jobs={status['a']}",
            probe=self._probe_sequence([{"a": 1}, {"a": 2}, {"a": 3}]),
            stream=stream,
            sleep=lambda _: None,
        )
        text = stream.getvalue()
        assert text.count("\x1b[2J") == 2
        assert "jobs=2" in text and "jobs=3" not in text

    def test_coordinator_vanishing_ends_the_watch(self):
        polls = watch_status(
            ":0",
            interval=0.01,
            probe=self._probe_sequence([{"a": 1}]),
            stream=io.StringIO(),
            sleep=lambda _: None,
        )
        assert polls == 1

    def test_never_answering_address_raises_immediately(self):
        with pytest.raises(DistError):
            watch_status(
                ":0",
                interval=0.01,
                probe=self._probe_sequence([]),
                stream=io.StringIO(),
                sleep=lambda _: None,
            )

    def test_invalid_interval_and_count_rejected(self):
        with pytest.raises(DistError):
            watch_status(":0", interval=0.0)
        with pytest.raises(DistError):
            watch_status(":0", interval=1.0, count=0)


class TestTraceCLI:
    def test_trace_summary_human_and_json(self, capsys):
        from repro.__main__ import main

        assert main(["trace", "summary", FIXTURE]) == 0
        human = capsys.readouterr().out
        assert "kernel calls: 3" in human
        assert main(["trace", "summary", FIXTURE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spans"] == 5

    def test_trace_summary_missing_file_fails_cleanly(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["trace", "summary", "/nonexistent/trace.json"])

    def test_trace_summary_refuses_a_json_file_without_events(self, tmp_path):
        from repro.__main__ import main

        path = tmp_path / "sweep.json"
        path.write_text('{"n": 3, "rows": []}')
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "summary", str(path)])
        assert str(excinfo.value.code).startswith(
            f"trace summary: {path}: not a trace file"
        )

    def test_trace_summary_refuses_a_negative_top(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "summary", FIXTURE, "--top", "-1"])
        assert excinfo.value.code == (
            "trace summary: --top must be at least 0, got -1"
        )
        assert capsys.readouterr().out == ""

    def test_dist_status_watch_rejects_bad_interval(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["dist", "status", ":1", "--watch", "0", "--timeout", "1"])
