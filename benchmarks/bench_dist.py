"""Benchmarks and acceptance checks for the distributed executor.

The headline measurement: the full n=3 solvability frontier (16
isomorphism classes, 64 jobs, the E10 workload) executed serially, on a
2-process pool, and distributed over localhost to two
``python -m repro worker`` subprocesses — all three from a cold kernel
cache and with the persistent store off, so every run pays the real CSP
cost.

Acceptance (plain functions, run in CI with ``--benchmark-disable``):

* **dist wins**: two localhost workers finish the frontier at least 1.5x
  faster than the serial reference (the two heaviest shards are ~2/3 of
  the serial total, so the theoretical ceiling is ~2x; 1.5x leaves
  margin for socket overhead and loaded CI machines);
* **dist transparency**: the distributed run's rows are identical to the
  serial reference's;
* **seeding wins**: against a coordinator holding a warm store, which
  it streams at handshake, two workers with *empty* local stores
  finish the same frontier at least 2x faster than the same two workers
  unseeded — the store-seeding handshake replaces every CSP search with
  a seed-tier hit, so the seeded run is pure queue service and table
  assembly.

Each timing is the fastest of one or two cold runs.  Worker spawning
and the interpreter head start happen in each run's ``setup`` step,
*outside* the timed window, so the quoted seconds contain only queue
service, job execution, and result streaming.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.store as store_pkg
from repro.analysis.sweeps import solvability_sweep
from repro.dist import DistExecutor
from repro.engine import KERNEL_CACHE

_SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _cold_min(fn, setup, repeats: int):
    """Run ``setup``, then time one ``fn()`` call, ``repeats`` times.

    Returns (the smallest time, the last call's value).  There is no
    warmup: every run starts from cleared caches, so a warmup would just
    be one more identical cold run.
    """
    best = float("inf")
    for _ in range(repeats):
        setup()
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _measure_serial_sweep(repeats: int = 2):
    """Cold serial frontier, fastest of ``repeats`` runs: (seconds, rows)."""
    return _cold_min(
        lambda: solvability_sweep(3, jobs=1).rows,
        KERNEL_CACHE.clear,
        repeats,
    )


def _measure_dist_sweep(workers: int = 2, repeats: int = 2):
    """The distributed counterpart: fresh worker subprocesses per run.

    Each run's ``setup`` step reaps the previous run's workers,
    clears the kernel cache, spawns fresh workers against a pre-picked
    port (they retry-connect for up to a minute) and gives them a head
    start for interpreter start-up and imports — the timed window then
    measures queue service and computation, not ``python`` booting.
    """
    state: dict = {"spawned": [], "port": None}

    def _reap() -> None:
        for worker in state["spawned"]:
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
        state["spawned"] = []

    def setup() -> None:
        _reap()
        KERNEL_CACHE.clear()
        state["port"] = _free_port()
        state["spawned"] = _spawn_workers(
            ("127.0.0.1", state["port"]), workers
        )
        time.sleep(2.0)  # interpreter + import head start, off the clock

    def run():
        executor = DistExecutor(f"127.0.0.1:{state['port']}")
        return solvability_sweep(3, executor=executor).rows

    try:
        return _cold_min(run, setup, repeats)
    finally:
        _reap()


# ----------------------------------------------------------------------
# Timing benchmarks
# ----------------------------------------------------------------------

def test_bench_frontier_serial(benchmark):
    def once():
        KERNEL_CACHE.clear()
        return solvability_sweep(3, jobs=1).rows

    with store_pkg.RESULT_STORE.disabled():
        rows = benchmark(once)
    assert len(rows) == 16


def test_bench_frontier_dist_two_workers(benchmark):
    def once():
        _, rows = _measure_dist_sweep(2, repeats=1)
        return rows

    with store_pkg.RESULT_STORE.disabled():
        rows = benchmark(once)
    assert len(rows) == 16


# ----------------------------------------------------------------------
# Acceptance checks (run with --benchmark-disable in CI)
# ----------------------------------------------------------------------

@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="a 2-worker speedup needs at least 2 cores",
)
def test_dist_two_workers_at_least_1_5x_faster_than_serial():
    """Acceptance: distributing the frontier over two localhost workers
    beats the serial reference by >=1.5x, with identical rows.

    The two heaviest shards are ~2/3 of the serial total, so the
    theoretical 2-worker ceiling is ~2x; 1.5x leaves room for queue
    overhead and the cross-shard kernel reuse that only the single
    process enjoys.  CI runs this on multi-core runners.
    """
    with store_pkg.RESULT_STORE.disabled():
        serial, serial_rows = _measure_serial_sweep()
        dist, dist_rows = _measure_dist_sweep(2)
    KERNEL_CACHE.clear()
    assert dist_rows == serial_rows
    assert dist * 1.5 <= serial, (
        f"dist (2 workers) {dist:.2f}s vs serial {serial:.2f}s "
        f"({serial / dist:.2f}x)"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="the unseeded 2-worker reference needs at least 2 cores",
)
def test_seeded_dist_beats_unseeded():
    """Acceptance: store seeding turns a cold 2-worker frontier run into
    a warm one — at least 2x faster than the unseeded reference, with
    identical rows.

    Both runs use fresh ``python -m repro worker`` subprocesses started
    with ``REPRO_STORE=off`` (empty local stores, the remote-host
    scenario).  Only the coordinator side differs: the unseeded run has
    no active store, the seeded run holds the warm store built serially
    beforehand and streams it at handshake.  The real measured gap is
    ~10x+ (the whole CSP cost vanishes); 2x leaves room for loaded CI
    machines.
    """
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        store = store_pkg.configure(
            path=os.path.join(tmp, "seed-bench.sqlite"), mode="rw"
        )
        try:
            KERNEL_CACHE.clear()
            reference = solvability_sweep(3, jobs=1)
            store.flush()

            with store.disabled():
                unseeded, unseeded_rows = _measure_dist_sweep(
                    2, repeats=1
                )
            seeded, seeded_rows = _measure_dist_sweep(2, repeats=1)
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
            KERNEL_CACHE.clear()
    assert unseeded_rows == reference.rows
    assert seeded_rows == reference.rows
    assert seeded * 2 <= unseeded, (
        f"seeded (2 workers) {seeded:.2f}s vs unseeded {unseeded:.2f}s "
        f"({unseeded / seeded:.2f}x)"
    )


def test_dist_matches_pool_rows():
    """Transparency: pool and dist agree shard for shard."""
    with store_pkg.RESULT_STORE.disabled():
        KERNEL_CACHE.clear()
        pool = solvability_sweep(3, limit=8, jobs=2)
        KERNEL_CACHE.clear()
        _, dist_rows = _measure_dist_sweep(2, repeats=1)
    KERNEL_CACHE.clear()
    assert dist_rows[:8] == pool.rows
