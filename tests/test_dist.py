"""Tests for the distributed executor (repro.dist).

Covers the wire protocol, the equivalence of ``run_batch`` serially, on
a pool and through a ``DistExecutor`` (serial == pool == dist),
at-least-once delivery (requeue on worker death and on lease expiry),
the coordinator-only SQLite write invariant, and a full coordinator +
worker-subprocesses integration run of the sweep machinery.
"""

from __future__ import annotations

import operator
import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.store as store_pkg
from repro.analysis.sweeps import solvability_sweep
from repro.dist import (
    CheckpointWriter,
    Coordinator,
    DistExecutor,
    load_checkpoint,
    parse_address,
    probe_status,
    run_workers,
)
from repro.dist import protocol as protocol_module
from repro.dist.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    request,
    send_message,
)
from repro.dist.worker import run_worker
from repro.engine import (
    KERNEL_CACHE,
    Job,
    JobError,
    JobFailure,
    JobResult,
    execute_job,
    run_batch,
)
from repro.engine.batch import describe_dist_metrics
from repro.errors import ConfigError, DistError
from repro.obs.trace import TRACER


def _mul_jobs(count: int = 6) -> list[Job]:
    """Trivial picklable jobs with distinct, order-revealing values."""
    return [Job(f"mul[{i}]", operator.mul, (i, 7)) for i in range(count)]


@pytest.fixture
def fresh_cache():
    KERNEL_CACHE.clear()
    yield
    KERNEL_CACHE.clear()


@pytest.fixture
def tmp_store(tmp_path):
    KERNEL_CACHE.clear()
    store = store_pkg.configure(path=tmp_path / "dist.sqlite", mode="rw")
    yield store
    store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
    KERNEL_CACHE.clear()


class _FakeWorker:
    """A raw protocol client: lets tests drive (and abuse) the wire."""

    def __init__(self, address, name="fake"):
        self.sock = socket.create_connection(address, timeout=10.0)
        self.name = name

    def handshake(self, version=PROTOCOL_VERSION, **extra):
        hello = {"version": version, "worker": self.name, **extra}
        return request(self.sock, "hello", hello)

    def drain_seed(self) -> int:
        """Read the handshake's seed stream; returns total rows shipped."""
        rows = 0
        while True:
            kind, payload = recv_message(self.sock)
            assert kind == "store_seed", kind
            rows += len(payload.get("rows") or ())
            if payload.get("done"):
                return rows

    def next_job(self):
        return request(self.sock, "next", {})

    def request_bye(self):
        send_message(self.sock, "bye", {})

    def finish(self, index, job):
        outcome = execute_job(job)
        if isinstance(outcome, JobFailure):
            outcome = outcome.sanitized()
        return request(self.sock, "result", {"index": index, "outcome": outcome})

    def close(self):
        self.sock.close()


class TestProtocol:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_message(a, "job", {"index": 3, "payload": [1, 2, 3]})
            kind, payload = recv_message(b)
            assert kind == "job"
            assert payload == {"index": 3, "payload": [1, 2, 3]}
        finally:
            a.close()
            b.close()

    def test_eof_is_none_and_torn_frame_raises(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00")  # half a length header, then EOF
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 31).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="exceeds"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_version_mismatch_rejected_by_coordinator(self):
        # 999 is from the future; PROTOCOL_VERSION - 1 is a worker one
        # release behind, refused at hello rather than mid-conversation.
        with Coordinator(_mul_jobs(1)) as coord:
            for version in (999, PROTOCOL_VERSION - 1):
                client = _FakeWorker(coord.address)
                try:
                    kind, payload = client.handshake(version=version)
                    assert kind == "reject"
                    assert payload["reason"] == (
                        f"protocol version {version} != {PROTOCOL_VERSION}"
                    )
                finally:
                    client.close()


class TestParseAddress:
    def test_forms(self):
        assert parse_address("1.2.3.4:9000") == ("1.2.3.4", 9000)
        assert parse_address(":7071") == ("127.0.0.1", 7071)
        assert parse_address("7071") == ("127.0.0.1", 7071)

    def test_rejects_garbage_and_bad_ports(self):
        with pytest.raises(DistError):
            parse_address("host:notaport")
        with pytest.raises(DistError):
            parse_address("host:70000")


class TestMakeExecutor:
    """How ``--jobs`` / ``--distributed`` become a batch run."""

    def test_distributed_flag_builds_a_dist_executor(self):
        from argparse import Namespace

        from repro.__main__ import _executor_for

        args = Namespace(
            command="sweep", jobs=1, distributed=":0", seed_store="off"
        )
        executor = _executor_for(args)
        assert isinstance(executor, DistExecutor)
        assert (executor.host, executor.port) == ("127.0.0.1", 0)
        assert executor.seed_store is False
        # Without --distributed the batch runs here, on --jobs.
        args.distributed = None
        assert _executor_for(args) is None

    def test_rejects_non_positive_jobs(self):
        # The batch driver checks ``jobs`` even when an executor runs the
        # batch elsewhere, and the worker fleet raises the same error.
        for jobs, call in (
            (0, lambda: run_batch([], jobs=0)),
            (-2, lambda: run_batch([], jobs=-2)),
            (0, lambda: run_batch([], jobs=0, executor=DistExecutor(":0"))),
            (0, lambda: run_workers("127.0.0.1", 1, jobs=0)),
        ):
            with pytest.raises(
                ConfigError, match=f"^jobs must be a positive int, got {jobs}$"
            ):
                call()


def _serve_with_local_worker(tasks, **coord_kwargs):
    """Run a batch through a Coordinator served by one in-thread worker."""
    coord = Coordinator(tasks, **coord_kwargs)
    host, port = coord.start()
    thread = threading.Thread(
        target=run_worker, args=(host, port), daemon=True
    )
    thread.start()
    try:
        return coord.serve()
    finally:
        thread.join(timeout=10.0)


class TestEquivalence:
    def test_serial_pool_dist_identical_values(self, fresh_cache):
        tasks = _mul_jobs(8)
        serial = run_batch(tasks)
        pool = run_batch(tasks, jobs=2)
        dist = _serve_with_local_worker(tasks)
        assert serial.values == pool.values == dist.values
        assert [r.name for r in dist.results] == [t.name for t in tasks]

    def test_dist_executor_on_bound_and_counters(self, fresh_cache):
        tasks = _mul_jobs(5)
        bound = {}

        def launch(address):
            bound["address"] = address
            threading.Thread(
                target=run_worker, args=address, daemon=True
            ).start()

        executor = DistExecutor(":0", on_bound=launch)
        result = executor.run(tasks)
        assert result.values == tuple(i * 7 for i in range(5))
        assert executor.bound_address == bound["address"]
        assert result.jobs == 1
        assert result.dist_metrics["requeues"] == 0

    def test_dist_failures_surface_with_job_names(self, fresh_cache):
        tasks = [
            Job("ok", operator.mul, (3, 7)),
            Job("boom", operator.truediv, (1, 0)),
        ]
        with pytest.raises(JobError) as excinfo:
            _serve_with_local_worker(tasks)
        (failure,) = excinfo.value.failures
        assert failure.name == "boom"
        assert failure.index == 1
        assert "ZeroDivisionError" in failure.message
        assert "division by zero" in failure.traceback


class TestDistMetricsInBatchResult:
    """Coordinator-side metrics threaded onto the batch result."""

    def test_serial_has_no_dist_metrics(self, fresh_cache):
        tasks = _mul_jobs(3)
        assert run_batch(tasks).dist_metrics is None

    def test_pool_fills_dist_metrics_in_coordinator_shape(self, fresh_cache):
        """Pool runs report per-worker-process metrics like dist runs do."""
        metrics = run_batch(_mul_jobs(5), jobs=2).dist_metrics
        assert metrics is not None
        assert metrics["requeues"] == 0
        assert metrics["rows_seeded"] == 0
        assert sum(w["completed"] for w in metrics["workers"]) == 5
        for snapshot in metrics["workers"]:
            assert {
                "worker",
                "completed",
                "failed",
                "seeded_rows",
                "elapsed",
                "jobs_per_minute",
                "idle",
            } <= set(snapshot)

    def test_dist_metrics_report_per_worker_throughput(self, fresh_cache):
        tasks = _mul_jobs(5)
        executor = DistExecutor(
            ":0",
            on_bound=lambda address: threading.Thread(
                target=run_worker, args=address, daemon=True
            ).start(),
        )
        result = executor.run(tasks)
        metrics = result.dist_metrics
        assert metrics is not None
        assert metrics["requeues"] == 0
        assert metrics["rows_seeded"] == 0
        (worker,) = metrics["workers"]
        assert worker["completed"] == len(tasks)
        assert worker["failed"] == 0
        assert worker["jobs_per_minute"] > 0

    @pytest.mark.parametrize("path", ["pool", "dist"])
    def test_worker_rows_count_busy_time(self, fresh_cache, path):
        """A pool row and a cluster row mean the same thing: ``elapsed``
        is the worker's summed job time and ``jobs_per_minute`` its
        completions per busy minute."""
        tasks = _mul_jobs(6)
        if path == "pool":
            result = run_batch(tasks, jobs=2)
        else:
            result = DistExecutor(
                ":0",
                on_bound=lambda address: threading.Thread(
                    target=run_worker, args=address, daemon=True
                ).start(),
            ).run(tasks)
        rows = result.dist_metrics["workers"]
        for row in rows:
            assert row["jobs_per_minute"] == (
                60 * row["completed"] / row["elapsed"]
            )
        assert sum(row["elapsed"] for row in rows) == pytest.approx(
            sum(r.elapsed for r in result.results)
        )

    def test_one_renderer_for_status_and_pool_metrics(self, fresh_cache):
        """A live coordinator's status and a pool run's metrics render
        through the same formatter, one full line per worker."""
        pool = run_batch(_mul_jobs(4), jobs=2).dist_metrics
        with Coordinator(_mul_jobs(2)) as coord:
            client = _FakeWorker(coord.address, name="w1")
            try:
                assert client.handshake()[0] == "welcome"
                status = coord.status_snapshot()
            finally:
                client.close()
        assert [w["worker"] for w in status["workers"]] == ["w1"]
        worker_line = re.compile(
            r"  worker (\S+): \d+ done, \d+ failed, \d+\.\d jobs/min, "
            r"0 seeded, idle \d+\.\ds"
        )
        for metrics in (pool, status):
            first, *rows = describe_dist_metrics(metrics).splitlines()
            assert first == "dist: 0 row(s) seeded, 0 requeue(s)"
            assert [worker_line.fullmatch(row)[1] for row in rows] == [
                w["worker"] for w in metrics["workers"]
            ]

    def test_seeded_run_metrics_count_rows_seeded(self, tmp_store):
        graphs = _warm_domination_store(tmp_store)
        from repro.combinatorics.domination import domination_number

        tasks = [
            Job(f"dom[{i}]", domination_number, (g,))
            for i, g in enumerate(graphs)
        ]
        coord = Coordinator(tasks)
        address = coord.start()
        worker = _spawn_cli_worker(address, _storeless_worker_env())
        result = coord.serve()
        worker.communicate(timeout=30)
        metrics = result.dist_metrics
        assert metrics["rows_seeded"] >= len(graphs)
        (worker_row,) = metrics["workers"]
        assert worker_row["seeded_rows"] == metrics["rows_seeded"]


class TestAtLeastOnce:
    def test_requeue_when_worker_dies_holding_a_job(self, fresh_cache):
        tasks = _mul_jobs(3)
        with Coordinator(tasks, wait_delay=0.05) as coord:
            doomed = _FakeWorker(coord.address, name="doomed")
            kind, _ = doomed.handshake()
            assert kind == "welcome"
            kind, payload = doomed.next_job()
            assert kind == "job"
            held_index = payload["index"]
            doomed.close()  # dies mid-job: the lease must be requeued

            deadline = time.monotonic() + 5.0
            while coord.requeues == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert coord.requeues == 1

            # A healthy worker now completes everything, including the
            # requeued job the dead worker took down with it.
            host, port = coord.address
            threading.Thread(
                target=run_worker, args=(host, port), daemon=True
            ).start()
            result = coord.serve()
        assert result.values == tuple(i * 7 for i in range(3))
        assert held_index in range(3)

    def test_requeue_when_lease_expires_without_heartbeat(self, fresh_cache):
        tasks = _mul_jobs(2)
        with Coordinator(tasks, lease_timeout=0.3, wait_delay=0.05) as coord:
            silent = _FakeWorker(coord.address, name="silent")
            silent.handshake()
            kind, payload = silent.next_job()
            assert kind == "job"
            taken = payload["index"]
            try:
                # Stay connected but never heartbeat or answer: a wedged
                # worker.  The monitor must reclaim the job.
                deadline = time.monotonic() + 5.0
                while coord.requeues == 0 and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert coord.requeues == 1

                rescuer = _FakeWorker(coord.address, name="rescuer")
                rescuer.handshake()
                seen = set()
                reply = rescuer.next_job()
                for _ in range(10):
                    kind, payload = reply
                    if kind == "done":
                        break
                    if kind == "wait":
                        time.sleep(payload["delay"])
                        reply = rescuer.next_job()
                        continue
                    index = payload["index"]
                    seen.add(index)
                    # result replies piggyback the next directive
                    reply = rescuer.finish(index, tasks[index])
                rescuer.close()
                assert taken in seen  # the reclaimed job really was re-served
            finally:
                silent.close()
            result = coord.serve()
        assert result.values == (0, 7)

    def test_sweep_is_served_on_the_fixed_lease(self, fresh_cache):
        """Every lease is ``lease_timeout``, sweep jobs included, so the
        welcome advertises a heartbeat of a third of it."""
        from repro.analysis.sweeps import plan_sweep
        from repro.graphs.families import cycle

        plan = plan_sweep([cycle(3)], 3)
        with Coordinator(plan.tasks, lease_timeout=6.0) as coord:
            worker = _FakeWorker(coord.address)
            try:
                kind, payload = worker.handshake()
            finally:
                worker.close()
        assert kind == "welcome"
        assert payload["heartbeat"] == 2.0

    def test_duplicate_result_ignored(self, fresh_cache):
        tasks = _mul_jobs(1)
        with Coordinator(tasks, lease_timeout=0.2, wait_delay=0.05) as coord:
            slow = _FakeWorker(coord.address, name="slow")
            slow.handshake()
            kind, payload = slow.next_job()
            assert kind == "job"
            index = payload["index"]
            # Let the lease expire, get the job requeued and completed by
            # someone else, then deliver the stale duplicate.
            deadline = time.monotonic() + 5.0
            while coord.requeues == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            fast = _FakeWorker(coord.address, name="fast")
            fast.handshake()
            kind, payload2 = fast.next_job()
            assert kind == "job" and payload2["index"] == index
            fast.finish(index, tasks[index])
            fast.close()
            kind, _ = slow.finish(index, tasks[index])  # late duplicate
            assert kind == "done"
            slow.close()
            # The dropped duplicate must not inflate the status probe's
            # per-worker throughput: only the winning result counts.
            per_worker = {
                w["worker"]: w["completed"]
                for w in coord.status_snapshot()["workers"]
            }
            assert per_worker == {"fast": 1, "slow": 0}
            result = coord.serve()
        assert result.values == (0,)


class TestStoreInvariant:
    def test_worker_mode_defers_all_writes(self, tmp_store):
        tmp_store.worker_mode = True
        tmp_store.save("k", "1", ("key",), 42)
        assert tmp_store.flush() == 0
        assert not os.path.exists(tmp_store.path)  # nothing ever hit SQLite
        rows = tmp_store.drain_pending()
        assert len(rows) == 1
        assert tmp_store.stats().writes == 1
        assert tmp_store.drain_pending() == ()  # the drain took everything
        tmp_store.worker_mode = False
        tmp_store.absorb_rows(rows)
        tmp_store.flush()
        assert os.path.exists(tmp_store.path)
        assert tmp_store.load("k", "1", ("key",)) == 42

    def test_in_thread_worker_with_rw_store_loses_nothing(self, tmp_store):
        """Regression: a worker thread sharing the coordinator's process
        must not flip the shared store into deferred-write mode — rows
        have to reach SQLite and the farewell exchange must complete."""
        from repro.combinatorics.domination import domination_number
        from repro.graphs.families import cycle, star, wheel

        graphs = [cycle(5), star(5), wheel(5)]
        tasks = [
            Job(f"dom[{i}]", domination_number, (g,))
            for i, g in enumerate(graphs)
        ]
        coord = Coordinator(tasks)
        host, port = coord.start()
        outcome = {}
        thread = threading.Thread(
            target=lambda: outcome.update(report=run_worker(host, port)),
            daemon=True,
        )
        thread.start()
        result = coord.serve()
        thread.join(timeout=10.0)
        assert result.store_stats is not None
        assert result.store_stats.writes >= 3
        assert outcome["report"].clean, "farewell exchange did not complete"
        assert not tmp_store.worker_mode
        # Local-worker activity must not be absorbed twice: the store's
        # totals equal the batch's per-job deltas, not double them.
        assert tmp_store.stats().writes == result.store_stats.writes
        assert KERNEL_CACHE.stats().lookups == result.stats.lookups
        # The rows are genuinely in SQLite, not stranded in a buffer.
        fresh = store_pkg.ResultStore(tmp_store.path, mode="ro")
        version = domination_number.kernel_version
        from repro.engine import iso_key

        assert (
            fresh.load("domination_number", version, iso_key(cycle(5)))
            is not store_pkg.MISS
        )
        fresh.close()

    def test_coordinator_is_the_only_writer(self, tmp_store):
        """A dist batch against an rw store: a real worker subprocess
        computes, but the rows land only via the coordinator's flushes."""
        from repro.combinatorics.domination import domination_number
        from repro.graphs.families import cycle, star, wheel

        graphs = [cycle(5), star(5), wheel(5)]
        tasks = [
            Job(f"dom[{i}]", domination_number, (g,))
            for i, g in enumerate(graphs)
        ]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        env["REPRO_STORE"] = "rw"
        env["REPRO_STORE_PATH"] = tmp_store.path
        coord = Coordinator(tasks)
        address = coord.start()
        worker = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"{address[0]}:{address[1]}", "--retry", "30",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        result = coord.serve()
        out, _ = worker.communicate(timeout=30)
        assert worker.returncode == 0, out
        assert result.values == tuple(
            domination_number.__wrapped__(g) for g in graphs
        )
        assert result.store_stats is not None
        assert result.store_stats.writes >= 3
        info = tmp_store.db_stats()
        kernels = {row["kernel"] for row in info["kernels"]}
        assert "domination_number" in kernels


class TestWorkerSubprocesses:
    """Coordinator + real `python -m repro worker` subprocesses."""

    @staticmethod
    def _spawn_worker(address, env, jobs=1):
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", f"{address[0]}:{address[1]}",
                "--retry", "30", "--jobs", str(jobs),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def test_sweep_distributed_matches_serial(self, tmp_path, fresh_cache):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        env["REPRO_STORE"] = "off"
        with store_pkg.RESULT_STORE.disabled():
            serial = solvability_sweep(3, limit=6, jobs=1)
            KERNEL_CACHE.clear()

            workers = []

            def launch(address):
                workers.extend(
                    self._spawn_worker(address, env) for _ in range(2)
                )
                # Keep the coordinator listening until both workers have
                # joined: the six shards take well under a second, so a
                # worker still starting up when the last result lands
                # would find the listener closed and sit out its whole
                # --retry budget.
                deadline = time.monotonic() + 30.0
                while len(probe_status(address)["workers"]) < 2:
                    assert time.monotonic() < deadline, "workers never joined"
                    time.sleep(0.05)

            executor = DistExecutor(":0", on_bound=launch)
            dist = solvability_sweep(3, limit=6, executor=executor)
        try:
            assert dist.rows == serial.rows
            assert dist.headers == serial.headers
            served = 0
            for worker in workers:
                out, _ = worker.communicate(timeout=30)
                assert worker.returncode == 0, out
                match = re.search(r"(\d+) job\(s\) completed", out)
                assert match, f"worker never reported: {out}"
                served += int(match.group(1))
            # Every shard ran remotely (>= because requeues may replay).
            assert served >= 6
            assert dist.batch.jobs == 2
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()

    def test_killed_worker_subprocess_requeues(self, fresh_cache):
        """Kill -9 a real worker mid-job; the batch must still finish."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src)
        env["REPRO_STORE"] = "off"
        tasks = [Job("nap", time.sleep, (30.0,))] + _mul_jobs(2)
        coord = Coordinator(tasks, wait_delay=0.05)
        address = coord.start()
        victim = self._spawn_worker(address, env)
        # The victim takes the 30s nap job first (submission order).
        deadline = time.monotonic() + 20.0
        while not coord._leases and time.monotonic() < deadline:
            time.sleep(0.05)
        assert coord._leases, "victim never leased a job"
        victim.kill()
        deadline = time.monotonic() + 10.0
        while coord.requeues == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert coord.requeues >= 1
        # Replace the nap with an instant job so the rescuer finishes:
        # at-least-once semantics let us swap the *task list* only because
        # nothing completed yet and the index is the identity.
        coord._tasks[0] = Job("nap", operator.mul, (6, 7))
        host, port = address
        threading.Thread(
            target=run_worker, args=(host, port), daemon=True
        ).start()
        result = coord.serve()
        victim.communicate(timeout=10)
        assert result.values == (42, 0, 7)


class TestProtocolFraming:
    """Framing edge cases, exercised directly rather than via clients."""

    def test_send_refuses_oversized_frame(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "MAX_FRAME", 64)
        a, b = socket.socketpair()
        try:
            with pytest.raises(ProtocolError, match="refusing to send"):
                send_message(a, "blob", bytes(1024))
            # Nothing reached the wire: the peer sees a clean idle socket.
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)
        finally:
            a.close()
            b.close()

    def test_truncated_payload_raises(self):
        a, b = socket.socketpair()
        try:
            # Header promises 100 bytes; only 4 arrive before EOF.
            a.sendall((100).to_bytes(4, "big") + b"torn")
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_header_without_payload_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall((100).to_bytes(4, "big"))
            a.close()
            with pytest.raises(
                ProtocolError, match="between header and payload"
            ):
                recv_message(b)
        finally:
            b.close()

    def test_undecodable_payload_raises(self):
        a, b = socket.socketpair()
        try:
            garbage = b"\x93not a pickle"
            a.sendall(len(garbage).to_bytes(4, "big") + garbage)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_pair_pickle_raises(self):
        import pickle

        a, b = socket.socketpair()
        try:
            blob = pickle.dumps((1, 2, 3))  # not a (kind, payload) pair
            a.sendall(len(blob).to_bytes(4, "big") + blob)
            with pytest.raises(ProtocolError, match="undecodable"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_non_string_kind_raises(self):
        import pickle

        a, b = socket.socketpair()
        try:
            blob = pickle.dumps((42, {}))
            a.sendall(len(blob).to_bytes(4, "big") + blob)
            with pytest.raises(ProtocolError, match="kind must be a string"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_worker_refuses_on_version_mismatch(self, monkeypatch):
        """run_worker itself (not just the fake client) must surface a
        coordinator's version rejection as a DistError."""
        import repro.dist.worker as worker_module

        monkeypatch.setattr(worker_module, "PROTOCOL_VERSION", 999)
        with Coordinator(_mul_jobs(1)) as coord:
            host, port = coord.address
            with pytest.raises(DistError, match="999"):
                run_worker(host, port, retry=5.0)

    def test_status_probe_version_mismatch_rejected(self, monkeypatch):
        import repro.dist.executor as executor_module

        with Coordinator(_mul_jobs(1)) as coord:
            monkeypatch.setattr(executor_module, "PROTOCOL_VERSION", 999)
            with pytest.raises(DistError, match="rejected"):
                probe_status(coord.address)


def _warm_domination_store(store):
    """Compute three domination kernels into ``store``; returns graphs."""
    from repro.combinatorics.domination import domination_number
    from repro.graphs.families import cycle, star, wheel

    graphs = [cycle(5), star(5), wheel(5)]
    for g in graphs:
        domination_number(g)
    store.flush()
    KERNEL_CACHE.clear()
    return graphs


def _storeless_worker_env() -> dict:
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    env["REPRO_STORE"] = "off"
    return env


def _spawn_cli_worker(address, env):
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--connect", f"{address[0]}:{address[1]}", "--retry", "30",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


class TestNetworkWarmStart:
    """Store seeding and the status probe."""

    @pytest.mark.parametrize("worker_store", ["off", "rw"])
    def test_seeded_worker_recomputes_nothing(self, tmp_store, worker_store):
        """A worker seeded at handshake serves every kernel from the seed
        tier: zero misses, zero writes, identical values.  That holds for
        a storeless worker and for one whose own store is the
        coordinator's file, which gets the full stream as well."""
        from repro.combinatorics.domination import domination_number

        graphs = _warm_domination_store(tmp_store)
        tasks = [
            Job(f"dom[{i}]", domination_number, (g,))
            for i, g in enumerate(graphs)
        ]
        env = _storeless_worker_env()
        if worker_store == "rw":
            env["REPRO_STORE"] = "rw"
            env["REPRO_STORE_PATH"] = tmp_store.path
        coord = Coordinator(tasks)
        address = coord.start()
        worker = _spawn_cli_worker(address, env)
        result = coord.serve()
        out, _ = worker.communicate(timeout=30)
        assert worker.returncode == 0, out
        assert "store row(s) seeded" in out
        assert result.values == tuple(
            domination_number.__wrapped__(g) for g in graphs
        )
        stats = result.store_stats
        assert stats is not None
        assert stats.seed_hits >= 1
        assert stats.misses == 0  # nothing recomputed
        assert stats.writes == 0  # nothing recomputed, so nothing to bank
        assert stats.hits == stats.seed_hits
        assert coord.rows_seeded >= len(graphs)

    def test_fresh_worker_gets_full_stream(self, tmp_store):
        graphs = _warm_domination_store(tmp_store)
        with Coordinator(_mul_jobs(1)) as coord:
            worker = _FakeWorker(coord.address)
            try:
                kind, welcome = worker.handshake()
                assert kind == "welcome"
                assert welcome["seed"]["enabled"]
                assert worker.drain_seed() >= len(graphs)
                worker.request_bye()
            finally:
                worker.close()
            assert coord.rows_seeded >= len(graphs)

    def test_seeding_skipped_for_in_process_worker(self, tmp_store):
        """An in-process worker reads the coordinator's store directly;
        streaming it a copy would only duplicate memory."""
        from repro.combinatorics.domination import domination_number

        graphs = _warm_domination_store(tmp_store)
        tasks = [
            Job(f"dom[{i}]", domination_number, (g,))
            for i, g in enumerate(graphs)
        ]
        result = _serve_with_local_worker(tasks)
        assert result.values == tuple(
            domination_number.__wrapped__(g) for g in graphs
        )
        assert result.store_stats.seed_hits == 0
        assert not tmp_store.worker_mode
        assert tmp_store.seed_rows == 0

    def test_status_probe_reports_queue_and_seed_counters(self, tmp_store):
        graphs = _warm_domination_store(tmp_store)
        from repro.combinatorics.domination import domination_number

        tasks = [
            Job(f"dom[{i}]", domination_number, (g,))
            for i, g in enumerate(graphs)
        ]
        coord = Coordinator(tasks)
        address = coord.start()
        try:
            status = probe_status(address)
            assert status["jobs"] == len(tasks)
            assert status["queue_depth"] == len(tasks)
            assert status["completed"] == 0
            assert status["leases"] == 0
            assert status["seed_store"] is True
            assert status["workers"] == []
            worker = _spawn_cli_worker(address, _storeless_worker_env())
            result = coord.serve()
            worker.communicate(timeout=30)
            snapshot = coord.status_snapshot()
            assert snapshot["completed"] == len(tasks)
            assert snapshot["queue_depth"] == 0
            assert snapshot["rows_seeded"] >= len(graphs)
            (worker_row,) = snapshot["workers"]
            assert worker_row["completed"] == len(tasks)
            assert worker_row["seeded_rows"] == snapshot["rows_seeded"]
            assert worker_row["jobs_per_minute"] > 0
            assert result.values == tuple(
                domination_number.__wrapped__(g) for g in graphs
            )
        finally:
            coord.close()

    def test_status_probe_dead_port_raises(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(DistError, match="no coordinator"):
            probe_status(("127.0.0.1", port), timeout=1.0)
        # A timeout of 0 or below is refused before anything connects.
        for timeout in (0, -1):
            with pytest.raises(
                DistError, match=f"^timeout must be positive, got {timeout}$"
            ):
                probe_status(("127.0.0.1", port), timeout=timeout)

    def test_cli_dist_status(self, tmp_store, capsys):
        from repro.__main__ import main

        with Coordinator(_mul_jobs(4)) as coord:
            host, port = coord.address
            assert main(["dist", "status", f"{host}:{port}"]) == 0
            out = capsys.readouterr().out
            assert "0/4 jobs done" in out
            assert "queue depth 4" in out
            assert main(["dist", "status", f"{host}:{port}", "--json"]) == 0
            payload = __import__("json").loads(capsys.readouterr().out)
            assert payload["queue_depth"] == 4
            with pytest.raises(SystemExit) as excinfo:
                main(["dist", "status", f"{host}:{port}", "--timeout", "0"])
            assert excinfo.value.code == (
                "dist status: timeout must be positive, got 0.0"
            )

    def test_status_reports_seeding_off_without_a_store(self, capsys):
        """Seeding needs a store to seed from: a coordinator without one
        offers no seed, and its status says so."""
        from repro.__main__ import main

        with store_pkg.RESULT_STORE.disabled():
            with Coordinator(_mul_jobs(2)) as coord:
                assert coord.status_snapshot()["seed_store"] is False
                host, port = coord.address
                assert main(["dist", "status", f"{host}:{port}"]) == 0
        assert "  store seeding off\n" in capsys.readouterr().out

    def test_seeded_sweep_cold_remote_equals_warm(self, tmp_store):
        """Acceptance: workers with empty local stores, seeded from the
        coordinator's warm store, reproduce the serial E10-style sweep
        with >=1 seeded hit and zero recomputation of seeded kernels."""
        serial = solvability_sweep(3, limit=6, jobs=1)
        tmp_store.flush()
        KERNEL_CACHE.clear()

        env = _storeless_worker_env()
        workers = []
        executor = DistExecutor(
            ":0",
            on_bound=lambda address: workers.extend(
                _spawn_cli_worker(address, env) for _ in range(2)
            ),
        )
        dist = solvability_sweep(3, limit=6, executor=executor)
        try:
            assert dist.rows == serial.rows
            assert dist.headers == serial.headers
            stats = dist.batch.store_stats
            assert stats is not None
            assert stats.seed_hits >= 1
            # Seeding alone answers the rerun: no kernel anywhere missed
            # the seed tier, so nothing was computed or banked.
            assert (stats.misses, stats.writes) == (0, 0)
            by_kernel = {
                name: (h, m, w)
                for name, h, m, w in stats.by_kernel
            }
            # Every job answered warm: all hits, zero recomputation of
            # seeded kernels (a recompute would miss and write).
            assert by_kernel["solvability_bounds"] == (6, 0, 0)
            assert by_kernel["solvability_subshard"] == (6 * 3, 0, 0)
            assert dist.batch.dist_metrics["rows_seeded"] >= 1
            assert dist.resumed == dist.sharded == 6
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                else:
                    worker.communicate(timeout=10)


class TestDistCheckpoint:
    """Coordinator-side checkpoint recording and completed-job replay."""

    def test_completed_jobs_replay_in_parent_not_redispatch(
        self, fresh_cache
    ):
        tasks = _mul_jobs(4)
        result = _serve_with_local_worker(tasks, completed=[0, 2])
        assert result.values == (0, 7, 14, 21)
        metrics = result.dist_metrics
        assert metrics["replayed"] == 2
        # The worker only ever saw the two non-replayed jobs.
        assert sum(w["completed"] for w in metrics["workers"]) == 2

    def test_pool_counts_replays_apart_from_its_workers(self, fresh_cache):
        """A pool batch reports replays as the coordinator does: under
        ``replayed``, with no worker row for the parent that ran them."""
        tasks = _mul_jobs(6)
        result = run_batch(tasks, jobs=2, completed=[0, 1])
        assert result.values == tuple(i * 7 for i in range(6))
        metrics = result.dist_metrics
        assert metrics["replayed"] == 2
        lanes = [w["worker"] for w in metrics["workers"]]
        assert TRACER.lane() not in lanes
        assert sum(w["completed"] for w in metrics["workers"]) == 4

    def test_pool_with_nothing_left_to_run_spawns_none(self, fresh_cache):
        tasks = _mul_jobs(4)
        result = run_batch(tasks, jobs=2, completed=range(4))
        assert result.values == (0, 7, 14, 21)
        assert result.jobs == 1
        assert result.dist_metrics is None

    def test_serve_records_checkpoint_completions(
        self, fresh_cache, tmp_path
    ):
        tasks = _mul_jobs(4)
        path = tmp_path / "dist.ckpt"
        writer = CheckpointWriter(
            path=path,
            fingerprint="fp",
            tasks=tuple(t.name for t in tasks),
            interval=0.0,
        )
        result = _serve_with_local_worker(tasks, checkpoint=writer)
        assert result.values == (0, 7, 14, 21)
        state = load_checkpoint(path)
        assert state.fingerprint == "fp"
        assert set(state.completed) == {t.name for t in tasks}
        assert state.remaining == ()

    def test_out_of_range_completed_rejected(self):
        with pytest.raises(DistError, match="completed"):
            Coordinator(_mul_jobs(2), completed=[5])
