"""Spans around the program's public entry points, for the traced run.

The benchmark wraps the entry points in :data:`PROBES` from its own
files; the program itself is not changed.  Every call of a wrapped entry
point records a span (layer, start, end, parent span, op id) in memory;
a layer's self time is its spans' durations minus their child spans'.
An entry point that cannot be found (renamed or removed) is reported as
absent, and its time then shows up as unattributed instead of failing
the run.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

Counts = Callable[[tuple, dict, object], dict]


def _model_graphs(args, kwargs, result) -> dict:
    return {"models.graphs": len(result)}


def _search_counts(args, kwargs, result) -> dict:
    # solve_csp(executions, domains, k): one domain per view, so the
    # domains the build hands to the search count the views it built.
    domains = args[1] if len(args) > 1 else kwargs["domains"]
    solvable = bool(result[0])
    return {
        "verification.build.views": len(domains),
        "verification.search.sat": int(solvable),
        "verification.search.unsat": int(not solvable),
    }


def _reduce_counts(args, kwargs, result) -> dict:
    rows = args[0] if args else kwargs["executions"]
    return {
        "verification.reduce.rows_in": len(rows),
        "verification.reduce.rows_kept": len(result),
    }


def _batch_jobs(args, kwargs, result) -> dict:
    return {"engine.batch.jobs": len(args[0]) if args else 0}


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point: ``attr`` is ``name`` or ``Class.method``.

    ``materialise`` drains a returned iterator inside the span, so the
    span covers the enumeration rather than the creation of a generator.
    """

    layer: str
    module: str
    attr: str
    materialise: bool = False
    counts: Counts | None = None

    @property
    def target(self) -> str:
        return f"{self.module}.{self.attr}"


#: Entry points and the layer each one's time is charged to.  The search
#: span encloses the reduction span, so search self time excludes it.
PROBES = (
    Probe("graphs", "repro.graphs.generators", "iter_all_digraphs", True),
    Probe("graphs", "repro.graphs.symmetry", "iter_isomorphism_classes", True),
    Probe("graphs", "repro.graphs.symmetry", "symmetric_closure"),
    Probe(
        "models", "repro.models.closed_above", "ClosedAboveModel.iter_graphs",
        True, _model_graphs,
    ),
    Probe("bounds", "repro.bounds.report", "bound_report"),
    Probe(
        "verification.build", "repro.verification.solvability",
        "SolvabilitySearch.__init__",
    ),
    Probe(
        "verification.search", "repro.verification.backends", "solve_csp",
        counts=_search_counts,
    ),
    Probe(
        "verification.reduce", "repro.verification.backends.bitset",
        "reduce_executions", counts=_reduce_counts,
    ),
    Probe("engine.batch", "repro.engine.batch", "run_batch", counts=_batch_jobs),
    Probe("analysis.sweeps", "repro.analysis.sweeps", "solvability_sweep"),
    Probe("analysis.sweeps.plan", "repro.analysis.sweeps", "plan_sweep"),
    Probe("store.load", "repro.store.backend", "ResultStore.load"),
    Probe("store.flush", "repro.store.backend", "ResultStore.flush"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    counts: dict = field(default_factory=dict)


class Recorder:
    """In-memory span stack for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, counts: dict | None = None) -> None:
        span = self.spans[index]
        span.end = self.clock()
        if counts:
            span.counts = counts
        self._stack.pop()

    def add(self, span: Span) -> None:
        """Append a span recorded elsewhere (another process's clock must
        be the same system-wide monotonic clock)."""
        self.spans.append(span)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _wrap(probe: Probe, original: Callable, recorder: Recorder) -> Callable:
    def wrapper(*args, **kwargs):
        index = recorder.open(probe.layer)
        counts = None
        try:
            result = original(*args, **kwargs)
            if probe.materialise:
                result = list(result)
            if probe.counts is not None:
                counts = probe.counts(args, kwargs, result)
        finally:
            recorder.close(index, counts)
        return iter(result) if probe.materialise else result

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", probe.attr)
    wrapper.__qualname__ = getattr(original, "__qualname__", probe.attr)
    wrapper.__doc__ = getattr(original, "__doc__", None)
    return wrapper


def _resolve(probe: Probe):
    """(owner, name, original) for a probe, or None when it is absent."""
    try:
        module = importlib.import_module(probe.module)
    except ImportError:
        return None
    owner = module
    *path, name = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(
        owner, name, None
    )
    if not callable(original):
        return None
    return owner, name, original


class Installation:
    """Wrappers installed for one recorder; :meth:`remove` undoes them."""

    def __init__(self, recorder: Recorder, probes=PROBES):
        self.absent: list[Probe] = []
        self._undo: list[tuple[object, str, object]] = []
        for probe in probes:
            found = _resolve(probe)
            if found is None:
                self.absent.append(probe)
                continue
            owner, name, original = found
            wrapper = _wrap(probe, original, recorder)
            self._patch(owner, name, wrapper)
            if not isinstance(owner, type):
                # Rebind every module that imported the function by name.
                for mod_name, module in list(sys.modules.items()):
                    if (
                        module is not owner
                        and mod_name.split(".")[0] == "repro"
                        and getattr(module, name, None) is original
                    ):
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def remove(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    @property
    def absent_layers(self) -> list[str]:
        return [f"{p.layer} ({p.target})" for p in self.absent]


@dataclass
class TracedOp:
    """One traced op: wall time, calibration scale and counter deltas."""

    op: int
    wall_s: float
    scale: float
    cache: tuple[int, int] = (0, 0)
    store: tuple[int, int, int] = (0, 0, 0)


#: Layers whose share of op time is reported, with the span names each
#: one covers.  ``import`` spans exist only for ops that start a process.
SHARE_LAYERS = {
    "import": ("import",),
    "graphs": ("graphs",),
    "models": ("models",),
    "bounds": ("bounds",),
    "verification.build": ("verification.build",),
    "verification.reduce": ("verification.reduce",),
    "verification.search": ("verification.search",),
    "engine.batch": ("engine.batch",),
    "analysis.sweeps": ("analysis.sweeps", "analysis.sweeps.plan"),
    "store": ("store.load", "store.flush"),
}

#: Span names whose call counts are reported as ``<name>.calls``.
CALL_LAYERS = (
    "graphs", "models", "bounds", "verification.build",
    "verification.reduce", "verification.search",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], ops: list[TracedOp]) -> dict[str, float]:
    """Per-op means of every layer's calls, counts and calibrated self time.

    Self times are scaled by their op's calibration factor; shares are
    layer self time over op time, summed over the traced ops.
    """
    count = len(ops)
    scale = {o.op: o.scale for o in ops}
    own = self_times(spans)
    self_by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span, seconds in zip(spans, own):
        factor = scale.get(span.op, 1.0)
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + seconds * factor
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
    total = sum(o.wall_s * o.scale for o in ops)
    out: dict[str, float] = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = calls.get(layer, 0) / count
    for key in (
        "models.graphs", "verification.build.views",
        "verification.reduce.rows_in", "verification.reduce.rows_kept",
        "verification.search.sat", "verification.search.unsat",
        "engine.batch.jobs",
    ):
        out[key] = counts.get(key, 0) / count
    out["verification.reduce.kept_ratio"] = _ratio(
        counts.get("verification.reduce.rows_kept", 0),
        counts.get("verification.reduce.rows_in", 0),
    )
    for name in SHARE_LAYERS:
        if name != "store":
            out[f"{name}.self_s"] = self_by_name.get(name, 0.0) / count
    out["analysis.sweeps.plan_self_s"] = (
        self_by_name.get("analysis.sweeps.plan", 0.0) / count
    )
    out["store.load_self_s"] = self_by_name.get("store.load", 0.0) / count
    out["store.flush_self_s"] = self_by_name.get("store.flush", 0.0) / count
    out["store.loads"] = calls.get("store.load", 0) / count
    hits = sum(o.cache[0] for o in ops)
    misses = sum(o.cache[1] for o in ops)
    out["engine.cache.hits"] = hits / count
    out["engine.cache.misses"] = misses / count
    out["engine.cache.hit_ratio"] = _ratio(hits, hits + misses)
    s_hits = sum(o.store[0] for o in ops)
    s_misses = sum(o.store[1] for o in ops)
    out["store.hits"] = s_hits / count
    out["store.misses"] = s_misses / count
    out["store.writes"] = sum(o.store[2] for o in ops) / count
    out["store.hit_ratio"] = _ratio(s_hits, s_hits + s_misses)
    attributed = 0.0
    for layer, names in SHARE_LAYERS.items():
        seconds = sum(self_by_name.get(name, 0.0) for name in names)
        attributed += seconds
        out[f"{layer}.share"] = _ratio(seconds, total)
    out["host.unattributed_s"] = (total - attributed) / count
    out["host.unattributed_share"] = _ratio(total - attributed, total)
    return out
