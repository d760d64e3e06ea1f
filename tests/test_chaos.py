"""Kill/restart chaos matrix: the cluster survives what CI throws at it.

Each test here is one scenario of the CI ``chaos-smoke`` matrix (PR 10):

* ``kill-worker-mid-job`` — SIGKILL a worker subprocess while it holds a
  leased sweep job;
* ``kill-coordinator-mid-sweep`` — SIGKILL the *coordinator* process of
  a distributed sweep, then rerun the sweep against the same store.

Every scenario asserts the same ground truth: the rows produced under
chaos are byte-identical to a serial reference computed with no store
and no cluster, and no *completed* work is lost (store rows / status
accounting).  The kill is raced against a fast run, so each scenario
tolerates the benign outcome where the victim dies after finishing —
the invariants are asserted unconditionally, the chaos-specific
counters only when the kill demonstrably landed mid-run.

The scenarios fork subprocesses and burn real CSP time, so they only
run with ``REPRO_CHAOS=1`` (the chaos-smoke job sets it); tier-1
``pytest -q`` skips them.  Set ``CHAOS_LOG_DIR=DIR`` to save every
subprocess's combined output as ``DIR/<scenario>-<role>.log`` — the CI
job uploads that directory as an artifact on failure.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.store as store_pkg
from repro.analysis.sweeps import solvability_sweep
from repro.dist import DistExecutor, probe_status
from repro.engine import KERNEL_CACHE
from repro.errors import DistError

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS") != "1",
    reason="chaos scenarios run only with REPRO_CHAOS=1 (CI chaos-smoke)",
)

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

#: Classes per sweep.  The CI chaos-smoke matrix sets 16 — the full E10
#: frontier — while the local default keeps a chaos pass under a minute.
_LIMIT = int(os.environ.get("REPRO_CHAOS_LIMIT", "6"))


@pytest.fixture
def chaos_store(tmp_path):
    """Serial-reference store hygiene: start and finish with store off."""
    KERNEL_CACHE.clear()
    store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
    yield tmp_path
    store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
    KERNEL_CACHE.clear()


def _save_log(name: str, text: str) -> None:
    log_dir = os.environ.get("CHAOS_LOG_DIR")
    if not log_dir:
        return
    os.makedirs(log_dir, exist_ok=True)
    with open(os.path.join(log_dir, f"{name}.log"), "w") as fh:
        fh.write(text or "")


def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _worker_env(store_path=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    if store_path is None:
        env["REPRO_STORE"] = "off"
    else:
        env["REPRO_STORE"] = "rw"
        env["REPRO_STORE_PATH"] = str(store_path)
    return env


def _spawn_worker(address, env):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", f"{address[0]}:{address[1]}", "--retry", "60",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _drain_worker(worker, scenario: str, role: str) -> str:
    if worker.poll() is None:
        worker.kill()
    try:
        out, _ = worker.communicate(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - last resort
        out = "<worker did not exit>"
    _save_log(f"{scenario}-{role}", out)
    return out or ""


def _serial_reference(limit: int = _LIMIT):
    """Storeless in-process reference rows (and headers) for n=3."""
    report = solvability_sweep(3, limit=limit, jobs=1)
    KERNEL_CACHE.clear()
    return report.rows


def _kill_first_leaseholder(address_box, victim, killed_box):
    """Poll the coordinator; SIGKILL ``victim`` once it holds a lease.

    Waits for *two* concurrent leases: with exactly two workers, that
    guarantees the victim (worker 0) is holding one, so its death must
    orphan a leased job.  If the batch finishes before that ever
    happens the kill is skipped (benign race) and ``killed_box`` stays
    empty — the caller's correctness assertions still run.
    """
    deadline = time.monotonic() + 60.0
    answered = False
    while time.monotonic() < deadline:
        address = address_box.get("address")
        if address is None:
            time.sleep(0.005)
            continue
        try:
            status = probe_status(address, timeout=2.0)
        except (DistError, OSError):
            if answered:
                return  # coordinator finished before a lease was seen
            time.sleep(0.005)
            continue
        answered = True
        if status["leases"] >= 2 and status["completed"] < status["jobs"]:
            victim.kill()
            killed_box["mid_run"] = True
            return
        time.sleep(0.005)


def _assert_nothing_lost(store, limit: int) -> None:
    """Store-row accounting: a pure-assembly rerun proves every
    completed shard's rows really landed — zero lost completed work."""
    store.flush()
    KERNEL_CACHE.clear()
    rerun = solvability_sweep(3, limit=limit, jobs=1)
    assert rerun.resumed == limit


def _run_kill_worker_scenario(tmp_path, scenario):
    limit = _LIMIT
    rows_ref = _serial_reference(limit)
    store = store_pkg.configure(
        path=tmp_path / f"{scenario}.sqlite", mode="rw"
    )
    KERNEL_CACHE.clear()

    env = _worker_env()
    workers = []
    address_box, killed_box = {}, {}

    def on_bound(address):
        address_box["address"] = address
        workers.extend(_spawn_worker(address, env) for _ in range(2))

    executor = DistExecutor(":0", on_bound=on_bound)
    monitor = threading.Thread(
        target=_kill_first_leaseholder,
        args=(address_box, _Lazy(workers, 0), killed_box),
        daemon=True,
    )
    monitor.start()
    try:
        dist = solvability_sweep(3, limit=limit, executor=executor)
    finally:
        outs = [
            _drain_worker(w, scenario, f"worker{i}")
            for i, w in enumerate(workers)
        ]
    monitor.join(timeout=60.0)

    assert dist.rows == rows_ref, outs
    _assert_nothing_lost(store, limit)
    if killed_box.get("mid_run"):
        # The kill landed while work was outstanding: the victim's
        # leased job must have been requeued and re-served.
        assert dist.batch.dist_metrics["requeues"] >= 1


class _Lazy:
    """Defer 'which process is the victim' until the kill moment."""

    def __init__(self, workers, index):
        self._workers = workers
        self._index = index

    def kill(self):
        self._workers[self._index].kill()


def test_kill_worker_mid_job(chaos_store):
    """Scenario 1: SIGKILL a worker holding a sweep job lease."""
    _run_kill_worker_scenario(chaos_store, "kill-worker-mid-job")


def test_kill_coordinator_mid_sweep_then_rerun(chaos_store):
    """Scenario 2: SIGKILL the coordinator of a distributed sweep mid-run,
    then rerun the same sweep against the same store — byte-identical
    rows, and the jobs the dead coordinator banked answered from the
    store instead of recomputed."""
    scenario = "kill-coordinator-mid-sweep"
    limit = _LIMIT
    rows_ref = _serial_reference(limit)
    store_path = chaos_store / f"{scenario}.sqlite"
    port = _free_port()

    coordinator = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "sweep",
            "--n", "3", "--limit", str(limit),
            "--distributed", f"127.0.0.1:{port}", "--json",
        ],
        env=_worker_env(store_path),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    worker = _spawn_worker(("127.0.0.1", port), _worker_env())
    killed = False
    deadline = time.monotonic() + 120.0
    try:
        while time.monotonic() < deadline:
            if coordinator.poll() is not None:
                break  # finished before the kill window closed: benign
            try:
                status = probe_status(("127.0.0.1", port), timeout=2.0)
            except DistError:
                time.sleep(0.01)
                continue
            if status["completed"] >= 2:
                coordinator.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.01)
    finally:
        try:
            coordinator.wait(timeout=30)
        except subprocess.TimeoutExpired:
            coordinator.kill()
            coordinator.wait(timeout=30)
        _save_log(
            f"{scenario}-coordinator", coordinator.stdout.read() or ""
        )
        _drain_worker(worker, scenario, "worker")
    assert killed or coordinator.returncode == 0

    # Rerun on the survivor: same command, same store.
    store = store_pkg.configure(path=store_path, mode="rw")
    KERNEL_CACHE.clear()
    rerun = solvability_sweep(3, limit=limit)
    assert rerun.rows == rows_ref
    # The coordinator answers a status probe only between landings, and
    # it lands a job by flushing its rows, so the two completions the
    # kill waited for are in the store: the rerun must hit them.
    hits = sum(
        hits
        for name, hits, _misses, _writes in rerun.batch.store_stats.by_kernel
        if name in ("solvability_bounds", "solvability_subshard")
    )
    assert hits >= 1
    _assert_nothing_lost(store, limit)
