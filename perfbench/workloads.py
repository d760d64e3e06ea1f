"""The benchmark's three workloads: set-up, ops, and the check of each op.

``sweep_n3_cold``
    ``python -m repro sweep --n 3 --json`` in a fresh interpreter, store
    off: the reader's headline command, timed from process start.
``n4_consensus_cold``
    In process: enumerate the symmetric closed-above model of one n = 4
    class and decide k = 1 on it, kernel memo cleared, store off.
``n4_consensus_warm``
    The same ops answered from a store that set-up wrote in ``rw`` mode
    and the ops read in ``ro`` mode, memo cleared before each op.

Every op is checked against ``expected/``, which was written once from
the code the benchmark was introduced on; ops never regenerate it.

Each workload readies the process that runs its ops with ``prepare()``.
``cold_setup()`` returns the raw seconds one set-up takes in a process
that has not run the program yet, so that every measured set-up pays the
program's first-use costs, lazily imported modules included.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected"
SWEEP_CHILD = HERE / "sweep_child.py"
SETUP_CHILD = HERE / "setup_child.py"

SWEEP_ARGV = ("sweep", "--n", "3", "--json")

#: Model sizes (graphs in the enumerated symmetric closed-above model) of
#: the n = 4 op set.  One class of each size is drawn by the seed, so
#: every seed runs the same size profile.  Each size that more than one
#: class has is one whose classes took within about 15% of each other at
#: k = 1, so the seed changes which classes run and in what order, not
#: how much work a pass is.  The five middle sizes (577 to 721) took 0.11
#: to 0.16 s, the five below them under 0.06 s and the five above 0.2 to
#: 0.45 s, so p50 is a median over five similar ops, and p90 falls among
#: the heavy, reduction-bound ops.  Four middle sizes have one class each
#: and the two classes of 711 took within 1% of each other, so the seed
#: does not move p50.  A pass takes about 2.5 s on the reference host.
#: The 2269- to 4096-graph models (0.8 to 3 s each) are left out: one 3 s
#: op per pass left too few passes in a run for medians that repeat
#: between runs.
N4_PROFILE = (1, 25, 153, 249, 383, 577, 678, 711, 718, 721, 1198, 1210,
              1237, 1357, 1696)


def canonical_edges(edges, n: int = 4) -> tuple:
    """Smallest relabelled edge list: one key per isomorphism class,
    computed here so that it does not depend on the code under test."""
    edges = list(edges)
    return min(
        tuple(sorted((p[u], p[v]) for u, v in edges))
        for p in permutations(range(n))
    )


def load_n4_expected() -> dict[tuple, dict]:
    rows = json.loads((EXPECTED / "n4_k1.json").read_text())
    return {tuple(map(tuple, row["edges"])): row for row in rows}


def draw_n4_classes(seed: int, expected: dict[tuple, dict]) -> list[tuple]:
    """The op set for ``seed``: one class per profile size, shuffled."""
    rng = random.Random(seed)
    by_size: dict[int, list[tuple]] = {}
    for key, row in expected.items():
        by_size.setdefault(row["graphs"], []).append(key)
    drawn = [rng.choice(sorted(by_size[size])) for size in N4_PROFILE]
    rng.shuffle(drawn)
    return drawn


def clean_env(*paths: Path) -> dict[str, str]:
    """This environment minus every ``REPRO_*`` setting, with ``paths``
    as ``PYTHONPATH``: the program runs with its defaults (store off)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
    return env


class OpFailed(Exception):
    """An op's output differs from the expected one."""


class SweepN3Cold:
    """``python -m repro sweep --n 3 --json`` as a child process."""

    name = "sweep_n3_cold"
    in_process = False
    populates = False

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.expected_rows = json.loads((EXPECTED / "e10_rows.json").read_text())[
            "rows"
        ]
        self.env = clean_env(SRC)
        self.trace_env = clean_env(SRC, ROOT)

    def prepare(self) -> None:
        """Nothing: every op starts its own interpreter."""

    def cold_setup(self) -> float:
        """One warm-up op.  It starts its own interpreter, so it is cold
        every time without a set-up child."""
        start = time.perf_counter()
        self.check(None, self.run(None))
        return time.perf_counter() - start

    def ops(self) -> list:
        return [None]

    def cpu_clock(self) -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def run(self, op) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *SWEEP_ARGV],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
        )

    def check(self, op, proc: subprocess.CompletedProcess) -> None:
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr[-400:]}")
        rows = json.loads(proc.stdout)["rows"]
        if rows != self.expected_rows:
            raise OpFailed("sweep rows differ from the E10 table")

    def run_traced(self, op, recorder, index: int):
        """One CLI run under ``sweep_child.py``, which installs the
        wrappers in the child and writes its spans out when it ends."""
        from .tracing import Span

        out = self.workdir / f"spans-{index}.json"
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(SWEEP_CHILD), str(out), repr(spawned),
             *SWEEP_ARGV],
            cwd=ROOT, env=self.trace_env, capture_output=True, text=True,
        )
        ended = time.perf_counter()
        if proc.returncode != 0:
            return proc, ended - spawned, (0, 0), (0, 0, 0), []
        child = json.loads(out.read_text())
        offset = len(recorder.spans)
        for name, start, end, parent, counts in child["spans"]:
            recorder.add(Span(
                name, start, end,
                parent=None if parent is None else parent + offset,
                op=index, counts=counts,
            ))
        return (proc, ended - spawned, tuple(child["cache"]),
                tuple(child["store"]), child["absent"])


class N4ConsensusCold:
    """k = 1 on the full symmetric closed-above model of one n = 4 class."""

    name = "n4_consensus_cold"
    in_process = True
    populates = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.expected = load_n4_expected()
        self.classes: dict[tuple, object] = {}
        self._ops: list[tuple] = []
        self._cold_setups = 0

    def cold_setup(self) -> float:
        """:meth:`prepare` in a fresh interpreter (``setup_child.py``),
        with a directory of its own for anything it writes."""
        self._cold_setups += 1
        workdir = self.workdir / f"setup-{self._cold_setups}"
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(SETUP_CHILD), self.name, str(self.seed),
             str(workdir)],
            cwd=ROOT, env=clean_env(ROOT), capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise OpFailed(f"set-up exited {proc.returncode}: "
                           f"{proc.stderr[-400:]}")
        return float(proc.stdout.split()[-1])

    def import_program(self) -> None:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import repro  # noqa: F401
        from repro.engine import KERNEL_CACHE
        from repro.graphs.generators import iter_all_digraphs
        from repro.graphs.symmetry import iter_isomorphism_classes
        from repro.models.closed_above import symmetric_closed_above
        from repro.verification.solvability import decide_one_round_solvability
        import repro.store

        self.cache = KERNEL_CACHE
        self.store = repro.store
        self.iter_all_digraphs = iter_all_digraphs
        self.iter_isomorphism_classes = iter_isomorphism_classes
        self.symmetric_closed_above = symmetric_closed_above
        self.decide = decide_one_round_solvability

    def enumerate_classes(self) -> None:
        """All 218 classes, checked against the expected set."""
        self.cache.clear()
        graphs = self.iter_isomorphism_classes(self.iter_all_digraphs(4))
        self.classes = {
            canonical_edges(g.proper_edges()): g for g in graphs
        }
        if set(self.classes) != set(self.expected):
            raise OpFailed("n = 4 isomorphism classes differ from expected")
        self._ops = draw_n4_classes(self.seed, self.expected)

    def prepare(self) -> None:
        """Imports, class enumeration and one untimed warm-up op."""
        self.import_program()
        self.enumerate_classes()
        self.warm_up()

    def warm_up(self) -> None:
        op = min(self._ops, key=lambda key: (self.expected[key]["graphs"] < 2,
                                             self.expected[key]["graphs"]))
        self.check(op, self.run(op))

    def ops(self) -> list:
        return list(self._ops)

    def cpu_clock(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def run(self, op):
        self.cache.clear()
        model = self.symmetric_closed_above([self.classes[op]])
        graphs = list(model.iter_graphs())
        return len(graphs), self.decide(graphs, 1)

    def check(self, op, output) -> None:
        size, result = output
        want = self.expected[op]
        got = (size, result.solvable, result.view_count, result.execution_count)
        if got != (want["graphs"], want["solvable"], want["views"],
                   want["executions"]):
            raise OpFailed(f"class {op}: got {got}, expected {want}")

    def run_traced(self, op, recorder, index: int):
        store = self.store.RESULT_STORE
        before = store.stats()
        start = time.perf_counter()
        output = self.run(op)
        wall = time.perf_counter() - start
        cache = self.cache.stats()
        after = store.stats()
        return (
            output, wall, (cache.hits, cache.misses),
            (after.hits - before.hits, after.misses - before.misses,
             after.writes - before.writes),
            [],
        )


class N4ConsensusWarm(N4ConsensusCold):
    """The cold workload's ops answered from a store written in set-up."""

    name = "n4_consensus_warm"
    populates = True

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._stores = 0

    def prepare(self) -> None:
        """The cold workload's set-up, plus writing the store."""
        self.import_program()
        self.enumerate_classes()
        self.populate()
        self.warm_up()

    def populate(self) -> int:
        """Write every op's verdict to a fresh store, then reopen it
        read-only for the ops; returns the rows written."""
        self._stores += 1
        path = self.workdir / f"store-{self._stores}.sqlite"
        writer = self.store.configure(path=path, mode="rw")
        for op in self._ops:
            self.check(op, self.run(op))
        writer.flush()
        written = writer.stats().writes
        self.store.configure(path=path, mode="ro")
        return written


WORKLOADS = {
    cls.name: cls for cls in (SweepN3Cold, N4ConsensusCold, N4ConsensusWarm)
}
