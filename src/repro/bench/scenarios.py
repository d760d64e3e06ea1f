"""The bench matrix: named scenarios × declared cells.

A **scenario** is one workload shape that matters to the frontier's
wall-clock (the E10 sweep, the heaviest ``n = 3`` class, the ``n = 4``
tail, store warm/cold, seeded dist); a **cell** is one point of the
declared ``{executor, workers, seeding, backend}`` matrix that scenario
runs under.  The registry is static data — ``bench list`` and CI read
the same :data:`SCENARIOS` the runner executes, so the docs cannot
drift from what actually runs.

Every cell builder returns a :class:`CellRun` whose ``setup`` hook makes
repeats independent (cold kernel cache, fresh or deliberately warm
store) and whose ``fn`` returns a small JSON-able result — the verdicts
or row fingerprints — so a committed trajectory point can detect *result
drift* between revisions, not only slowdowns.

Isolation discipline (the contamination the old one-shot scripts had):
``prepare``/``cleanup`` bracket a cell with explicit store
configuration — never leaking a temp store into the next cell — and
``setup`` runs before **every** timed repeat, outside the timed window.
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

__all__ = [
    "Cell",
    "CellRun",
    "SCENARIOS",
    "Scenario",
    "select_scenarios",
]


@dataclass(frozen=True)
class Cell:
    """One point of the bench matrix; its id keys trajectory comparisons."""

    executor: str = "serial"
    workers: int = 1
    seeding: str = "none"
    """Store posture: ``none`` (store off), ``cold`` (fresh rw store per
    repeat), ``warm`` (pre-populated rw store), ``seeded`` (warm
    coordinator store streamed to store-less workers at handshake)."""
    backend: str = "bitset"
    quick: bool = False
    """Part of the ``--quick`` matrix (the CI smoke subset)?"""

    @property
    def cell_id(self) -> str:
        return f"{self.executor}:w{self.workers}:{self.seeding}:{self.backend}"

    def to_dict(self) -> dict:
        return {
            "executor": self.executor,
            "workers": self.workers,
            "seeding": self.seeding,
            "backend": self.backend,
        }


@dataclass
class CellRun:
    """An executable cell: the timed body plus its isolation hooks.

    ``prepare``/``cleanup`` run once around the whole cell (enter/exit
    store configuration, spawn/reap helpers); ``setup`` runs before every
    repeat, outside the timed window (reset caches, respawn workers).
    """

    cell: Cell
    fn: Callable[[], object]
    setup: Callable[[], None] | None = None
    prepare: Callable[[], None] | None = None
    cleanup: Callable[[], None] | None = None


@dataclass(frozen=True)
class Scenario:
    """A named workload with its declared matrix and cell builder."""

    name: str
    description: str
    cells: tuple[Cell, ...]
    builder: Callable[[Cell], CellRun] = field(repr=False)

    def matrix(self, quick: bool = False) -> tuple[Cell, ...]:
        if quick:
            return tuple(c for c in self.cells if c.quick)
        return self.cells

    def build(self, cell: Cell) -> CellRun:
        return self.builder(cell)

    def to_dict(self, quick: bool = False) -> dict:
        return {
            "scenario": self.name,
            "description": self.description,
            "cells": [
                {"id": c.cell_id, "quick": c.quick, **c.to_dict()}
                for c in self.matrix(quick)
            ],
        }


# ----------------------------------------------------------------------
# Shared workload ingredients
# ----------------------------------------------------------------------

_SRC = str(Path(__file__).resolve().parents[2])


@lru_cache(maxsize=None)
def _representatives(n: int) -> tuple:
    from ..graphs.generators import iter_all_digraphs
    from ..graphs.symmetry import iter_isomorphism_classes

    return tuple(
        sorted(
            iter_isomorphism_classes(iter_all_digraphs(n)),
            key=lambda g: (-g.proper_edge_count, g.out_rows),
        )
    )


@lru_cache(maxsize=None)
def _heaviest_n3_model() -> tuple:
    """All 64 graphs: the full model of the sparsest n=3 class."""
    from ..models.closed_above import symmetric_closed_above

    model = symmetric_closed_above([_representatives(3)[-1]])
    return tuple(sorted(model.iter_graphs(max_graphs=1 << 12)))


@lru_cache(maxsize=None)
def _n4_tail_sample() -> tuple:
    """First 256 graphs of the sparsest n=4 class whose up-set fits 2**10."""
    from ..graphs.closure import upward_closure_size
    from ..models.closed_above import symmetric_closed_above

    for g in reversed(_representatives(4)):
        if upward_closure_size(g) > 1 << 10:
            continue  # up-set exceeds the budget; densify
        full = sorted(symmetric_closed_above([g]).iter_graphs())
        return tuple(full[:256])
    raise RuntimeError("no enumerable n=4 tail class")


def _clear_kernel_cache() -> None:
    from ..engine import KERNEL_CACHE

    KERNEL_CACHE.clear()


def _executor_for(cell: Cell):
    """A fresh executor for one repeat of ``cell`` (in-process workers)."""
    from ..dist import DistExecutor, PoolExecutor, SerialExecutor
    from ..dist.worker import run_worker

    if cell.executor == "serial":
        return SerialExecutor()
    if cell.executor == "pool":
        return PoolExecutor(cell.workers)

    def launch(address):
        for _ in range(cell.workers):
            threading.Thread(
                target=run_worker, args=address, daemon=True
            ).start()

    return DistExecutor(":0", on_bound=launch)


def _rows_fingerprint(rows) -> list:
    """The sweep table as JSON-able strings (the ``sweep --json`` shape)."""
    return [[repr(value) for value in row] for row in rows]


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _worker_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _SRC + (os.pathsep + existing if existing else "")
    env["REPRO_STORE"] = "off"
    return env


def _spawn_workers(address: tuple[str, int], count: int) -> list:
    return [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"{address[0]}:{address[1]}",
                "--retry", "60",
            ],
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# Scenario: the E10 n=3 frontier, cold, across executors
# ----------------------------------------------------------------------

def _build_e10_sweep(cell: Cell) -> CellRun:
    import repro.store as store_pkg

    from ..analysis.sweeps import solvability_sweep

    stack = contextlib.ExitStack()

    def prepare() -> None:
        stack.enter_context(store_pkg.RESULT_STORE.disabled())
        _clear_kernel_cache()

    def fn() -> object:
        report = solvability_sweep(
            3,
            executor=_executor_for(cell),
            backend=cell.backend,
        )
        return {
            "classes": len(report.rows),
            "within": sum(1 for row in report.rows if row[3]),
            "rows": _rows_fingerprint(report.rows),
        }

    def cleanup() -> None:
        stack.close()
        _clear_kernel_cache()

    return CellRun(
        cell=cell,
        fn=fn,
        setup=_clear_kernel_cache,
        prepare=prepare,
        cleanup=cleanup,
    )


# ----------------------------------------------------------------------
# Scenario: raw backend searches (no caching tiers at all)
# ----------------------------------------------------------------------

def _build_backend_search(pool_builder, ks) -> Callable[[Cell], CellRun]:
    def build(cell: Cell) -> CellRun:
        import repro.store as store_pkg

        from ..verification import decide_one_round_solvability

        stack = contextlib.ExitStack()
        pool = list(pool_builder())

        def prepare() -> None:
            stack.enter_context(store_pkg.RESULT_STORE.disabled())
            _clear_kernel_cache()

        def fn() -> object:
            results = [
                decide_one_round_solvability(pool, k, backend=cell.backend)
                for k in ks
            ]
            return [
                [r.solvable, r.view_count, r.execution_count]
                for r in results
            ]

        def cleanup() -> None:
            stack.close()
            _clear_kernel_cache()

        return CellRun(
            cell=cell,
            fn=fn,
            setup=_clear_kernel_cache,
            prepare=prepare,
            cleanup=cleanup,
        )

    return build


# ----------------------------------------------------------------------
# Scenario: store cold vs warm (the persistence tiers themselves)
# ----------------------------------------------------------------------

def _build_store_sweep(cell: Cell) -> CellRun:
    import repro.store as store_pkg

    from ..analysis.sweeps import solvability_sweep

    state: dict = {"tmp": None, "repeat": 0}

    def prepare() -> None:
        state["tmp"] = tempfile.TemporaryDirectory(prefix="repro-bench-")
        _clear_kernel_cache()
        if cell.seeding == "warm":
            store = store_pkg.configure(
                path=os.path.join(state["tmp"].name, "warm.sqlite"),
                mode="rw",
            )
            solvability_sweep(3, backend=cell.backend)
            store.flush()

    def setup() -> None:
        _clear_kernel_cache()
        if cell.seeding == "cold":
            # A brand-new store file per repeat: every repeat pays the
            # full compute + write cost, none reads its predecessor's.
            state["repeat"] += 1
            store_pkg.configure(
                path=os.path.join(
                    state["tmp"].name, f"cold-{state['repeat']}.sqlite"
                ),
                mode="rw",
            )

    def fn() -> object:
        report = solvability_sweep(3, backend=cell.backend)
        return {
            "classes": len(report.rows),
            "resumed": report.resumed,
            "within": sum(1 for row in report.rows if row[3]),
        }

    def cleanup() -> None:
        store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
        if state["tmp"] is not None:
            state["tmp"].cleanup()
        _clear_kernel_cache()

    return CellRun(
        cell=cell, fn=fn, setup=setup, prepare=prepare, cleanup=cleanup
    )


# ----------------------------------------------------------------------
# Scenario: seeded distributed run (subprocess workers, warm coordinator)
# ----------------------------------------------------------------------

def _build_dist_seeded(cell: Cell) -> CellRun:
    import repro.store as store_pkg

    from ..analysis.sweeps import solvability_sweep
    from ..dist import DistExecutor

    state: dict = {"tmp": None, "port": None, "workers": []}

    def _reap() -> None:
        for worker in state["workers"]:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
        state["workers"] = []

    def prepare() -> None:
        state["tmp"] = tempfile.TemporaryDirectory(prefix="repro-bench-")
        _clear_kernel_cache()
        store = store_pkg.configure(
            path=os.path.join(state["tmp"].name, "seed.sqlite"), mode="rw"
        )
        solvability_sweep(3, backend=cell.backend)
        store.flush()

    def setup() -> None:
        # Fresh store-less worker subprocesses each repeat, with a head
        # start for interpreter boot + imports — the timed window then
        # measures handshake seeding, queue service, and assembly only.
        _reap()
        _clear_kernel_cache()
        port = _free_port()
        state["port"] = port
        state["workers"] = _spawn_workers(("127.0.0.1", port), cell.workers)
        time.sleep(2.0)

    def fn() -> object:
        report = solvability_sweep(
            3,
            executor=DistExecutor(f"127.0.0.1:{state['port']}"),
            backend=cell.backend,
        )
        return {
            "classes": len(report.rows),
            "resumed": report.resumed,
            "within": sum(1 for row in report.rows if row[3]),
        }

    def cleanup() -> None:
        _reap()
        store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
        if state["tmp"] is not None:
            state["tmp"].cleanup()
        _clear_kernel_cache()

    return CellRun(
        cell=cell, fn=fn, setup=setup, prepare=prepare, cleanup=cleanup
    )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        name="e10_sweep",
        description=(
            "the full n=3 solvability frontier (16 classes), cold caches, "
            "store off — serial / pool / dist executors"
        ),
        cells=(
            Cell(executor="serial", workers=1, backend="bitset", quick=True),
            Cell(executor="pool", workers=2, backend="bitset", quick=True),
            Cell(executor="serial", workers=1, backend="reference"),
            Cell(executor="dist", workers=2, backend="bitset"),
        ),
        builder=_build_e10_sweep,
    ),
    Scenario(
        name="heaviest_n3_class",
        description=(
            "per-k CSP searches (k=1..3) over the heaviest n=3 class's "
            "full 64-graph model, all caching tiers off"
        ),
        cells=(
            Cell(backend="bitset", quick=True),
            Cell(backend="reference"),
        ),
        builder=_build_backend_search(_heaviest_n3_model, (1, 2, 3)),
    ),
    Scenario(
        name="n4_tail_sample",
        description=(
            "per-k CSP searches (k=1..2) over 256 graphs of the sparsest "
            "enumerable n=4 tail class, all caching tiers off"
        ),
        cells=(
            Cell(backend="bitset", quick=True),
            Cell(backend="reference"),
        ),
        builder=_build_backend_search(_n4_tail_sample, (1, 2)),
    ),
    Scenario(
        name="store_warm_cold",
        description=(
            "the n=3 sweep against the persistent store: cold (fresh rw "
            "file per repeat) vs warm (pre-populated, kernel cache cleared)"
        ),
        cells=(
            Cell(seeding="cold", quick=True),
            Cell(seeding="warm", quick=True),
        ),
        builder=_build_store_sweep,
    ),
    Scenario(
        name="dist_seeded",
        description=(
            "the n=3 sweep over store-less worker subprocesses seeded at "
            "handshake from a warm coordinator store"
        ),
        cells=(
            Cell(executor="dist", workers=2, seeding="seeded"),
        ),
        builder=_build_dist_seeded,
    ),
)

_BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}


def select_scenarios(names=None) -> tuple[Scenario, ...]:
    """Resolve scenario names (``None`` = all), rejecting unknowns."""
    if not names:
        return SCENARIOS
    unknown = [name for name in names if name not in _BY_NAME]
    if unknown:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(
            f"unknown scenario(s) {', '.join(sorted(unknown))}; "
            f"known: {known}"
        )
    return tuple(_BY_NAME[name] for name in names)
