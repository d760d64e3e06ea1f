"""Tests for coordinator checkpoint/resume (repro.dist.checkpoint).

Covers the on-disk format (atomic write, loud failure on garbage), the
throttled writer, name→plan resume mapping with fingerprint validation,
the sweep plan fingerprint, and the end-to-end
``solvability_sweep(checkpoint_path=..., resume_from=...)`` loop —
including the acceptance property that a resume against a warm store
replays banked work as pure hits (zero kernel recompute).
"""

from __future__ import annotations

import pickle

import pytest

import repro.store as store_pkg
from repro.analysis.sweeps import plan_fingerprint, plan_sweep, solvability_sweep
from repro.dist.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointState,
    CheckpointWriter,
    load_checkpoint,
    resume_completed,
    write_checkpoint,
)
from repro.engine import KERNEL_CACHE
from repro.errors import DistError


@pytest.fixture
def tmp_store(tmp_path):
    KERNEL_CACHE.clear()
    store = store_pkg.configure(path=tmp_path / "ckpt.sqlite", mode="rw")
    yield store
    store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
    KERNEL_CACHE.clear()


def _representatives(n: int, limit: int):
    from repro.graphs.generators import iter_all_digraphs
    from repro.graphs.symmetry import iter_isomorphism_classes

    reps = sorted(
        iter_isomorphism_classes(iter_all_digraphs(n)),
        key=lambda g: (-g.proper_edge_count, g.out_rows),
    )
    return reps[:limit]


class TestFormat:
    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        state = CheckpointState(
            fingerprint="abc123",
            tasks=("a", "b", "c"),
            completed=("b",),
            requeues=2,
        )
        write_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded == state
        assert loaded.remaining == ("a", "c")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DistError, match="no checkpoint"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(DistError, match="unreadable checkpoint"):
            load_checkpoint(path)

    def test_wrong_object_raises(self, tmp_path):
        path = tmp_path / "wrong.ckpt"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(DistError, match="not a coordinator checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.ckpt"
        state = CheckpointState(fingerprint="f", version=CHECKPOINT_VERSION + 1)
        path.write_bytes(pickle.dumps(state))
        with pytest.raises(DistError, match="version"):
            load_checkpoint(path)

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, CheckpointState(fingerprint="f"))
        write_checkpoint(path, CheckpointState(fingerprint="g"))
        assert load_checkpoint(path).fingerprint == "g"
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_file_with_the_dropped_pending_field_still_resumes(self, tmp_path):
        """Version-1 files written before ``CheckpointState`` lost its
        queued-job field still carry that field, as an empty tuple; they
        must load and resume exactly as before."""
        path = tmp_path / "older.ckpt"
        state = CheckpointState(
            fingerprint="fp", tasks=("a", "b", "c"), completed=("b",)
        )
        dropped_field = "pending_jobs"
        object.__setattr__(state, dropped_field, ())
        write_checkpoint(path, state)
        assert dropped_field.encode() in path.read_bytes()
        loaded = load_checkpoint(path)
        assert loaded.completed == ("b",)
        assert loaded.remaining == ("a", "c")
        present, dropped = resume_completed(
            loaded, ("a", "b", "c"), fingerprint="fp"
        )
        assert present == {"b"}
        assert dropped == 0


class TestWriter:
    def test_records_fold_into_state(self, tmp_path):
        writer = CheckpointWriter(
            path=tmp_path / "c.ckpt",
            fingerprint="fp",
            tasks=("a", "b", "c"),
            interval=0.0,
        )
        writer.record_done("b")
        writer.record_done("b")  # duplicate completion: recorded once
        writer.record_requeues(3)
        state = writer.flush()
        assert state.completed == ("b",)
        assert state.requeues == 3
        assert load_checkpoint(tmp_path / "c.ckpt") == state

    def test_throttle_limits_writes_flush_forces(self, tmp_path):
        writer = CheckpointWriter(
            path=tmp_path / "c.ckpt",
            fingerprint="fp",
            tasks=tuple(f"job{i}" for i in range(50)),
            interval=3600.0,
        )
        for i in range(50):
            writer.record_done(f"job{i}")
        assert writer.writes <= 1  # throttled: at most the first landed
        before = writer.writes
        state = writer.flush()
        assert writer.writes == before + 1
        assert len(state.completed) == 50
        assert set(load_checkpoint(tmp_path / "c.ckpt").completed) == {
            f"job{i}" for i in range(50)
        }

    def test_carried_completions_survive_a_second_crash(self, tmp_path):
        """A resumed run's writer starts from the first run's completions,
        so a crash during the resume still covers both runs."""
        writer = CheckpointWriter(
            path=tmp_path / "c.ckpt",
            fingerprint="fp",
            tasks=("a", "b", "c"),
            completed=("a",),
            interval=0.0,
        )
        writer.record_done("c")
        state = writer.flush()
        assert set(state.completed) == {"a", "c"}


class TestResumeMapping:
    def test_fingerprint_mismatch_refuses(self):
        state = CheckpointState(fingerprint="aaa", completed=("x",))
        with pytest.raises(DistError, match="does not match"):
            resume_completed(state, ("x",), fingerprint="bbb")

    def test_unknown_names_dropped_with_count(self):
        state = CheckpointState(
            fingerprint="fp", completed=("a", "gone", "c")
        )
        present, dropped = resume_completed(
            state, ("a", "b", "c"), fingerprint="fp"
        )
        assert present == {"a", "c"}
        assert dropped == 1


class TestPlanFingerprint:
    def test_sensitive_to_sweep_identity(self):
        reps = _representatives(3, 6)
        base = plan_fingerprint(plan_sweep(reps, 3))
        assert base != plan_fingerprint(plan_sweep(reps[:5], 3))  # limit
        assert base != plan_fingerprint(plan_sweep(reps, 3, budget=64))

    def test_pinned_for_the_n3_sweep(self):
        # The value checkpoints written while the CSP backend was a sweep
        # parameter carry: they must keep resuming.
        reps = _representatives(3, 16)
        assert len(reps) == 16
        assert plan_fingerprint(plan_sweep(reps, 3)) == "9c62cadfb3ea"


class TestSweepResume:
    def test_resume_replays_nothing_banked(self, tmp_store, tmp_path):
        """Acceptance: a full checkpoint + warm store resume produces
        byte-identical rows with zero kernel recompute — every shard is
        a store hit replayed in the parent."""
        ckpt = str(tmp_path / "sweep.ckpt")
        first = solvability_sweep(3, limit=6, checkpoint_path=ckpt)
        tmp_store.flush()
        KERNEL_CACHE.clear()

        resumed = solvability_sweep(
            3, limit=6, checkpoint_path=ckpt, resume_from=ckpt
        )
        assert resumed.rows == first.rows
        assert resumed.replayed == 6 * 4  # bounds + k=1..3, per class
        assert resumed.checkpoint_dropped == 0
        assert resumed.resumed == 6  # every class warm
        by_kernel = {
            name: (hits, misses, writes)
            for name, hits, misses, writes
            in resumed.batch.store_stats.by_kernel
        }
        # Zero recompute of banked kernels: all hits, no misses, no writes.
        assert by_kernel["solvability_bounds"] == (6, 0, 0)
        assert by_kernel["solvability_subshard"] == (6 * 3, 0, 0)

    def test_partial_checkpoint_resumes_the_remainder(
        self, tmp_store, tmp_path
    ):
        """A checkpoint that saw only part of the run (the crash window)
        replays exactly what it recorded and schedules the rest."""
        ckpt = tmp_path / "sweep.ckpt"
        first = solvability_sweep(3, limit=6, checkpoint_path=str(ckpt))
        tmp_store.flush()
        KERNEL_CACHE.clear()
        state = load_checkpoint(ckpt)
        partial = CheckpointState(
            fingerprint=state.fingerprint,
            tasks=state.tasks,
            completed=state.completed[:3],
        )
        write_checkpoint(ckpt, partial)

        resumed = solvability_sweep(3, limit=6, resume_from=str(ckpt))
        assert resumed.rows == first.rows
        assert resumed.replayed == 3

    def test_resume_refuses_a_different_sweep(self, tmp_store, tmp_path):
        ckpt = str(tmp_path / "sweep.ckpt")
        solvability_sweep(3, limit=6, checkpoint_path=ckpt)
        with pytest.raises(DistError, match="does not match"):
            solvability_sweep(3, limit=4, resume_from=ckpt)

    def test_cli_sweep_checkpoint_resume_json(self, tmp_store, tmp_path, capsys):
        import json

        from repro.__main__ import main

        ckpt = str(tmp_path / "cli.ckpt")
        assert main(
            ["sweep", "--n", "3", "--limit", "4", "--json",
             "--checkpoint", ckpt]
        ) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["replayed"] == 0
        tmp_store.flush()
        KERNEL_CACHE.clear()
        assert main(
            ["sweep", "--n", "3", "--limit", "4", "--json",
             "--checkpoint", ckpt, "--resume-from", ckpt]
        ) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["replayed"] == 4 * 4  # bounds + k=1..3, per class
        assert second["rows"] == first["rows"]

    def test_cli_sweep_missing_checkpoint_fails_loudly(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit, match="no checkpoint"):
            main(
                ["sweep", "--n", "3", "--limit", "2",
                 "--resume-from", str(tmp_path / "absent.ckpt")]
            )
