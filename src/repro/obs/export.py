"""Trace export (Chrome ``trace_event`` JSON) and offline aggregation.

The buffered events (:mod:`repro.obs.trace`) keep timestamps in
wall-clock *seconds* and identify processes by a ``lane`` string
(``host:pid``).  :func:`write_chrome_trace` converts to the Chrome
format Perfetto / ``chrome://tracing`` load directly: timestamps in
microseconds, one synthetic integer ``pid`` per lane (with a ``ph='M'``
``process_name`` metadata record carrying the original label), so a
cluster run renders as one lane per worker process.

:func:`summarize_trace` is the offline half — it recovers what a
profiler would show without one attached: top kernels by *self* time
(child spans subtracted via per-thread nesting), hit-rate per cache
tier from the kernel spans' ``tier`` attribute, and per-worker
utilization / straggler breakdown from the job spans.  The ``trace
summary`` CLI prints :func:`describe_summary` over it.

Writes are atomic (temp file + ``os.replace``): a run killed mid-export
leaves either the previous trace or none — never a torn JSON file.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = [
    "write_chrome_trace",
    "load_trace",
    "summarize_trace",
    "describe_summary",
]

#: Microseconds per second — Chrome trace timestamps are integer-ish µs.
_US = 1_000_000

#: The kernel-call cache tiers, in lookup order (for stable reporting).
TIERS = ("memo", "seed", "store", "computed", "bypass")


def _chrome_events(events) -> list[dict]:
    """Convert buffered events to Chrome ``trace_event`` records."""
    lanes: dict[str, int] = {}
    out: list[dict] = []
    for event in events:
        lane = str(event.get("lane", "?"))
        pid = lanes.get(lane)
        if pid is None:
            pid = lanes[lane] = len(lanes) + 1
            out.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": lane},
                }
            )
        record = {
            "name": event["name"],
            "cat": event.get("cat", "span"),
            "ph": event["ph"],
            "ts": event["ts"] * _US,
            "pid": pid,
            "tid": event.get("tid", 0),
            "args": event.get("args", {}),
        }
        if event["ph"] == "X":
            record["dur"] = event.get("dur", 0.0) * _US
        elif event["ph"] == "i":
            record["s"] = "t"  # instant scope: thread
        out.append(record)
    return out


def write_chrome_trace(path: str, events) -> int:
    """Write *events* to *path* as Chrome trace JSON, atomically.

    Returns the number of trace events written (metadata records not
    counted).  An empty event list still writes a valid (empty) trace so
    downstream tooling never sees a missing file after a traced run.
    """
    records = _chrome_events(events)
    payload = {
        "traceEvents": records,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".trace-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return sum(1 for r in records if r["ph"] != "M")


def load_trace(path: str) -> list[dict]:
    """Read a Chrome trace file back into its ``traceEvents`` list.

    Accepts both the object form written here and a bare JSON array
    (Chrome accepts either), so fixtures can use whichever reads best.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        events = payload.get("traceEvents")
    else:
        events = payload
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a Chrome trace (no traceEvents list)")
    return [e for e in events if isinstance(e, dict)]


def _lane_names(events) -> dict:
    """Map synthetic pid → original lane label from metadata records."""
    names = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            label = event.get("args", {}).get("name")
            if label:
                names[event.get("pid")] = str(label)
    return names


def _self_times(spans) -> dict:
    """Per-span self time: duration minus time covered by nested spans.

    Spans nest per (pid, tid): sorted by start (ties broken longest
    first, so parents precede their children), a span whose interval
    lies inside the stack top is a child; its duration is charged to
    itself and subtracted from the parent.  Returns
    ``{id(span): self_us}``.
    """
    self_us = {id(s): float(s.get("dur", 0.0)) for s in spans}
    by_thread: dict = {}
    for s in spans:
        by_thread.setdefault((s.get("pid"), s.get("tid")), []).append(s)
    for group in by_thread.values():
        group.sort(key=lambda s: (s["ts"], -float(s.get("dur", 0.0))))
        stack: list[dict] = []
        for s in group:
            end = s["ts"] + float(s.get("dur", 0.0))
            while stack and s["ts"] >= stack[-1]["_end"] - 1e-9:
                stack.pop()
            if stack:
                self_us[id(stack[-1])] -= float(s.get("dur", 0.0))
            s["_end"] = end
            stack.append(s)
        for s in group:
            s.pop("_end", None)
    return self_us


def summarize_trace(events) -> dict:
    """Aggregate a loaded Chrome trace into a JSON-ready report.

    All durations in the report are **seconds** (the trace stores µs).
    """
    lane_names = _lane_names(events)
    spans = [
        e
        for e in events
        if e.get("ph") == "X" and isinstance(e.get("ts"), (int, float))
    ]
    instants = [e for e in events if e.get("ph") == "i"]
    self_us = _self_times(spans)

    starts = [s["ts"] for s in spans] + [i.get("ts", 0.0) for i in instants]
    ends = [s["ts"] + float(s.get("dur", 0.0)) for s in spans]
    t0 = min(starts) if starts else 0.0
    t1 = max(ends + starts) if (ends or starts) else 0.0
    wall = max(t1 - t0, 0.0) / _US

    # --- kernels: count / total / self time, tier hit attribution -----
    kernels: dict[str, dict] = {}
    tier_counts = {tier: 0 for tier in TIERS}
    for s in spans:
        if s.get("cat") != "kernel":
            continue
        name = s["name"].split(":", 1)[-1]
        entry = kernels.setdefault(
            name, {"count": 0, "total": 0.0, "self": 0.0, "tiers": {}}
        )
        entry["count"] += 1
        entry["total"] += float(s.get("dur", 0.0)) / _US
        entry["self"] += max(self_us[id(s)], 0.0) / _US
        tier = s.get("args", {}).get("tier")
        if tier:
            entry["tiers"][tier] = entry["tiers"].get(tier, 0) + 1
            if tier in tier_counts:
                tier_counts[tier] += 1
            else:
                tier_counts[tier] = 1
    kernel_calls = sum(tier_counts.values())
    tier_rates = {
        tier: (count / kernel_calls if kernel_calls else 0.0)
        for tier, count in tier_counts.items()
    }
    top_kernels = sorted(
        ({"kernel": k, **v} for k, v in kernels.items()),
        key=lambda e: e["self"],
        reverse=True,
    )

    # --- per-worker lanes: busy (job spans), utilization, stragglers --
    workers: dict = {}
    for s in spans:
        pid = s.get("pid")
        lane = lane_names.get(pid, str(pid))
        info = workers.setdefault(
            lane, {"busy": 0.0, "jobs": 0, "first": None, "last": None}
        )
        end = s["ts"] + float(s.get("dur", 0.0))
        info["first"] = s["ts"] if info["first"] is None else min(info["first"], s["ts"])
        info["last"] = end if info["last"] is None else max(info["last"], end)
        if s.get("cat") == "job":
            info["busy"] += float(s.get("dur", 0.0)) / _US
            info["jobs"] += 1
    worker_rows = []
    for lane in sorted(workers):
        info = workers[lane]
        span_wall = (
            (info["last"] - info["first"]) / _US
            if info["first"] is not None
            else 0.0
        )
        busy = info["busy"]
        worker_rows.append(
            {
                "worker": lane,
                "jobs": info["jobs"],
                "busy": busy,
                "wall": wall,
                "idle": max(wall - busy, 0.0),
                "utilization": (busy / wall) if wall else 0.0,
                "finished_at": (
                    (info["last"] - t0) / _US if info["last"] is not None else 0.0
                ),
                "span": span_wall,
            }
        )
    finishes = [w["finished_at"] for w in worker_rows]
    straggler = None
    if len(finishes) > 1:
        last, prev = sorted(finishes)[-1], sorted(finishes)[-2]
        slowest = max(worker_rows, key=lambda w: w["finished_at"])
        straggler = {
            "worker": slowest["worker"],
            "finished_at": last,
            "gap": last - prev,
        }

    # --- instants by name (lease grants, requeues, replays...) --------
    instant_counts: dict[str, int] = {}
    for i in instants:
        instant_counts[i.get("name", "?")] = instant_counts.get(i.get("name", "?"), 0) + 1

    categories: dict[str, int] = {}
    self_by_category: dict[str, float] = {}
    for s in spans:
        cat = s.get("cat", "span")
        categories[cat] = categories.get(cat, 0) + 1
        self_by_category[cat] = (
            self_by_category.get(cat, 0.0) + max(self_us[id(s)], 0.0) / _US
        )

    return {
        "events": len(spans) + len(instants),
        "spans": len(spans),
        "instants": dict(sorted(instant_counts.items())),
        "categories": dict(sorted(categories.items())),
        "self_by_category": dict(sorted(self_by_category.items())),
        "wall": wall,
        "self_total": sum(max(v, 0.0) for v in self_us.values()) / _US,
        "kernel_calls": kernel_calls,
        "tier_counts": tier_counts,
        "tier_rates": tier_rates,
        "top_kernels": top_kernels,
        "workers": worker_rows,
        "straggler": straggler,
    }


def _pct(value: float) -> str:
    return f"{100.0 * value:.1f}%"


def describe_summary(summary: dict, *, top: int = 8) -> str:
    """Human-readable rendering of :func:`summarize_trace` output."""
    lines = [
        f"trace: {summary['events']} events "
        f"({summary['spans']} spans), wall {summary['wall']:.3f}s, "
        f"busy (self) {summary['self_total']:.3f}s"
    ]
    if summary["kernel_calls"]:
        rates = summary["tier_rates"]
        tiers = "  ".join(
            f"{tier}={_pct(rates[tier])}"
            for tier in TIERS
            if summary["tier_counts"].get(tier)
        )
        lines.append(f"kernel calls: {summary['kernel_calls']}  [{tiers}]")
        lines.append("top kernels by self-time:")
        for entry in summary["top_kernels"][:top]:
            tiers = ",".join(
                f"{t}:{n}" for t, n in sorted(entry["tiers"].items())
            )
            lines.append(
                f"  {entry['kernel']:<24} self {entry['self']:.3f}s  "
                f"total {entry['total']:.3f}s  calls {entry['count']}  [{tiers}]"
            )
    if summary["workers"]:
        lines.append("workers:")
        for w in summary["workers"]:
            lines.append(
                f"  {w['worker']:<24} jobs {w['jobs']:<4} busy {w['busy']:.3f}s  "
                f"idle {w['idle']:.3f}s  util {_pct(w['utilization'])}"
            )
    if summary.get("straggler"):
        s = summary["straggler"]
        lines.append(
            f"straggler: {s['worker']} finished {s['gap']:.3f}s after the "
            f"next-latest lane"
        )
    if summary["instants"]:
        inst = "  ".join(f"{k}={v}" for k, v in summary["instants"].items())
        lines.append(f"events: {inst}")
    return "\n".join(lines)
