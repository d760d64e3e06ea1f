"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.__main__ as cli
import repro.store as store_pkg
from repro.__main__ import main
from repro.engine import KERNEL_CACHE


@pytest.fixture
def tmp_store(tmp_path):
    """A writable temp store for store/sweep CLI tests, restored after."""
    KERNEL_CACHE.clear()
    store = store_pkg.configure(path=tmp_path / "cli.sqlite", mode="rw")
    yield store
    store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
    KERNEL_CACHE.clear()


class TestBounds:
    def test_wheel_symmetric(self, capsys):
        assert main(["bounds", "--family", "wheel", "--n", "4", "--symmetric"]) == 0
        out = capsys.readouterr().out
        assert "TIGHT" in out
        assert "solvable at k=3" in out

    def test_union_of_stars_with_centers(self, capsys):
        code = main(
            [
                "bounds", "--family", "union_of_stars", "--n", "5",
                "--centers", "0,1", "--symmetric",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "impossible at k=3" in out

    def test_multi_round(self, capsys):
        assert main(["bounds", "--family", "cycle", "--n", "6", "--rounds", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 round(s)" in out

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            main(["bounds", "--family", "nonsense", "--n", "3"])


class TestSearch:
    def test_unsat_exit_code(self, capsys):
        code = main(["search", "--family", "cycle", "--n", "4", "--k", "1"])
        assert code == 1
        assert "IMPOSSIBLE" in capsys.readouterr().out

    def test_sat_with_note(self, capsys):
        code = main(["search", "--family", "cycle", "--n", "4", "--k", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "solvable" in out
        assert "not disproved" in out

    def test_full_model(self, capsys):
        code = main(
            ["search", "--family", "cycle", "--n", "3", "--k", "2", "--full"]
        )
        assert code == 0
        assert "full model" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search", "--family", "cycle", "--n", "4", "--k", "1",
              "--full", "--budget", "10"], "more than the budget of 10"),
            # Each of the 6 generators' up-sets fits 256; their union
            # has 1194 graphs.
            (["search", "--family", "cycle", "--n", "4", "--symmetric",
              "--full", "--k", "2", "--budget", "256"],
             "more than the budget of 256"),
            (["search", "--family", "nonsense", "--n", "4", "--k", "1"],
             "unknown family 'nonsense'"),
            (["search", "--family", "cycle", "--n", "4", "--k", "0"],
             "k must be positive"),
            (["verify", "--family", "cycle", "--n", "3", "--k", "0"],
             "verify: k must be at least 1, got 0"),
            (["verify", "--family", "cycle", "--n", "3", "--k", "1",
              "--rounds", "0"], "verify: need at least one round, got 0"),
            (["bounds", "--family", "cycle", "--n", "3", "--rounds", "0"],
             "bounds: rounds must be positive, got 0"),
            (["bounds", "--family", "union_of_stars", "--n", "3",
              "--centers", "x"],
             "--centers must be comma-separated process ids, got 'x'"),
            (["search", "--family", "union_of_stars", "--n", "3", "--k", "1",
              "--centers", "x"],
             "--centers must be comma-separated process ids, got 'x'"),
            (["verify", "--family", "union_of_stars", "--n", "3", "--k", "1",
              "--centers", "0,,1"],
             "--centers must be comma-separated process ids, got '0,,1'"),
            (["search", "--family", "union_of_stars", "--n", "3", "--k", "1",
              "--centers", "0,,1"],
             "--centers must be comma-separated process ids, got '0,,1'"),
        ],
        ids=["model-over-budget", "symmetric-model-over-budget",
             "unknown-family", "k-zero", "verify-k-zero",
             "verify-rounds-zero", "bounds-rounds-zero",
             "bounds-centers-x", "search-centers-x", "verify-centers-empty",
             "search-centers-empty"],
    )
    def test_errors_exit_2_not_unsat(self, capsys, argv, message):
        """Exit 1 is a verdict ("not solvable", "FAILED"); an error must
        not look like one."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "4", "--full", "--budget", "10"],
             "search: ↑G has 256 graphs, more than the budget of 10; "
             "use sample_superset or a larger budget"),
            (["--n", "4", "--symmetric", "--full", "--budget", "256"],
             "search: the model has more than the budget of 256 graphs"),
        ],
        ids=["upset", "model"],
    )
    def test_budget_errors_name_no_library_parameter(
        self, capsys, flags, message
    ):
        """The one flag is ``--budget``; the line names no parameter."""
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--family", "cycle", "--k", "2", *flags])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == message + "\n"


class TestVerify:
    def test_passing(self, capsys):
        code = main(
            [
                "verify", "--family", "cycle", "--n", "4", "--k", "3",
                "--symmetric", "--samples", "1",
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_failing_prints_counterexample(self, capsys):
        code = main(
            [
                "verify", "--family", "cycle", "--n", "4", "--k", "1",
                "--samples", "0",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "counterexample" in out


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "E2"]) == 0
        out = capsys.readouterr().out
        assert "E2" in out and "p1" in out

    def test_table_footer_reports_cache_counts(self, capsys):
        assert main(["experiments", "E2"]) == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "misses" in out

    @staticmethod
    def _table_bodies(out: str) -> list[str]:
        """Table rows only — timings, cache footers, and the pool/dist
        per-worker throughput footer legitimately vary."""
        return [
            line
            for line in out.splitlines()
            if line
            and not line.startswith(
                ("##", "```", "[cache:", "ran ", "dist:", "  worker ")
            )
        ]

    def test_parallel_jobs_match_serial(self, capsys):
        assert main(["experiments", "E2", "E13"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiments", "E2", "E13", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert self._table_bodies(parallel) == self._table_bodies(serial)
        assert "2 workers" in parallel

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiments", "E99"])


@pytest.mark.parametrize(
    "argv",
    [
        ["experiments", "E1", "--jobs", "0"],
        ["experiments", "E1", "--jobs", "0", "--distributed", ":0"],
        ["worker", "--connect", ":1", "--jobs", "0"],
    ],
    ids=["experiments", "experiments-distributed", "worker"],
)
def test_rejects_non_positive_jobs(argv):
    # One line naming the command, as for ``sweep --jobs 0``; a string
    # SystemExit prints it on stderr and exits 1.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == (
        f"{argv[0]}: jobs must be a positive int, got 0"
    )


def _usage_lines() -> list[str]:
    """The commands of the CLI docstring's usage block, one string each,
    with every continuation line joined onto its command."""
    block = cli.__doc__.split("Usage::", 1)[1].split("\n\n")[1]
    lines: list[str] = []
    for line in block.splitlines():
        line = line.strip()
        if line.startswith("python -m repro "):
            lines.append(line)
        else:
            lines[-1] += " " + line
    return lines


def test_usage_flags_exist_in_subcommand_help(capsys):
    # Every ``--flag`` the usage block advertises must be one the
    # subcommand's parser accepts, so a copied usage line never fails
    # with "unrecognized arguments"; and every subcommand has a line.
    lines = _usage_lines()
    with pytest.raises(SystemExit):
        main(["--help"])
    choices = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out)
    assert {line.split()[3] for line in lines} == set(
        choices.group(1).split(",")
    )
    for line in lines:
        command = line.split()[3]
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            assert re.search(re.escape(flag) + r"(?![\w-])", help_text), (
                f"{flag} from {line!r} is not an option of {command!r}"
            )


class TestCacheStats:
    def test_probe_prints_speedup_and_kernels(self, capsys):
        assert main(["cache-stats", "--n", "4", "--passes", "2"]) == 0
        out = capsys.readouterr().out
        assert "pass 1 (cold)" in out
        assert "warm speedup" in out
        assert "kernel cache:" in out
        assert "domination_number" in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["cache-stats", "--n", "4", "--passes", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["speedup"] > 0
        assert len(payload["pass_times"]) == 2
        kernels = {row["kernel"] for row in payload["cache"]["by_kernel"]}
        assert "domination_number" in kernels

    def test_small_n_is_refused_in_one_line(self, capsys):
        # The probe workload builds a wheel, which needs 3 processes.  A
        # string SystemExit code is printed on stderr with exit status 1.
        with pytest.raises(SystemExit) as excinfo:
            main(["cache-stats", "--n", "2"])
        assert excinfo.value.code == (
            "cache-stats: --n must be at least 3 (a wheel needs 3 "
            "processes), got 2"
        )
        assert capsys.readouterr().out == ""


_ROOT = Path(__file__).resolve().parent.parent


class TestSweep:
    def test_n3_rows_match_the_committed_e10_table(self):
        """The CLI from process start reproduces the committed E10 table
        (the file the repository benchmark checks its sweep ops
        against); the file is only read, never written."""
        expected = json.loads(
            (_ROOT / "perfbench" / "expected" / "e10_rows.json").read_text()
        )
        env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
        env["REPRO_STORE"] = "off"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--n", "3", "--json"],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        payload = json.loads(proc.stdout)
        assert payload["headers"] == expected["headers"]
        assert payload["rows"] == expected["rows"]

    def test_limited_sweep_prints_table(self, capsys, tmp_store):
        assert main(["sweep", "--n", "3", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "exact solvable k" in out
        assert "2/16 isomorphism classes" in out

    def test_sweep_json_reports_resume_counts(self, capsys, tmp_store):
        assert main(["sweep", "--n", "3", "--limit", "2", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["sharded"] == 2 and first["resumed"] == 0
        KERNEL_CACHE.clear()
        store_pkg.configure()  # fresh instance, same file: new process
        assert main(["sweep", "--n", "3", "--limit", "2", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["resumed"] == 2
        assert second["rows"] == first["rows"]
        assert second["store"]["hits"] >= 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "0"], "n must be positive, got 0"),
            (["--jobs", "0"], "jobs must be a positive int, got 0"),
            (["--budget", "0"], "budget must be positive, got 0"),
            (["--limit", "0"], "limit must be positive, got 0"),
            # The values are checked before the executor is built.
            (["--jobs", "0", "--distributed", ":0"],
             "jobs must be a positive int, got 0"),
        ],
        ids=["--n", "--jobs", "--budget", "--limit", "--jobs-distributed"],
    )
    def test_rejects_non_positive(self, tmp_store, flags, message):
        # 0 must be rejected like any other non-positive value, never
        # read as "unset" and replaced by the default.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--n", "3", *flags])
        assert excinfo.value.code == f"sweep: {message}"

    def test_failed_jobs_exit_with_one_line(self, capsys, tmp_store):
        """A model over ``--budget`` fails its class's k < n jobs: the
        sweep exits 1 with one line naming every failed job, not a
        traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--n", "3", "--budget", "2", "--limit", "3"])
        assert excinfo.value.code == (
            "sweep: job 'sweep:n=3:1:k=1' failed: GraphError: the model "
            "has more than the budget of 2 graphs "
            "(+3 more failed job(s): 'sweep:n=3:1:k=2', "
            "'sweep:n=3:2:k=1', 'sweep:n=3:2:k=2')"
        )
        assert capsys.readouterr().out == ""


class TestStoreCLI:
    def test_stats_on_missing_file_is_empty(self, capsys, tmp_path):
        path = str(tmp_path / "absent.sqlite")
        try:
            assert main(["store", "stats", "--path", path, "--json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["db"]["entries"] == 0
            assert payload["db"]["exists"] is False
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")

    def test_stats_on_a_file_that_is_not_a_store_fails(self, tmp_path):
        path = tmp_path / "notes.sqlite"
        path.write_text("plain text, not a SQLite database\n" * 64)
        try:
            for extra in ([], ["--json"]):
                with pytest.raises(SystemExit) as excinfo:
                    main(["store", "stats", "--path", str(path), *extra])
                assert excinfo.value.code == (
                    f"store stats: store file {path} is unreadable"
                )
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")

    def test_stats_on_an_empty_sqlite_file_is_empty(self, capsys, tmp_path):
        # SQLite reads a zero-byte file as a database with no tables; the
        # rw store commands create the schema in it, so it is a store.
        path = tmp_path / "touched.sqlite"
        path.touch()
        try:
            assert main(["store", "stats", "--path", str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["db"]["entries"] == 0
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")

    def test_read_only_opens_leave_an_empty_file_untouched(self, tmp_path):
        path = tmp_path / "empty.sqlite"
        path.touch()
        try:
            assert main(["store", "stats", "--path", str(path)]) == 0
            assert path.stat().st_size == 0
            store = store_pkg.configure(path=path, mode="ro")
            assert store.load("k", "1", ("x",)) is store_pkg.MISS
            assert path.stat().st_size == 0
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "2"],
             "--n must be at least 3 (a wheel needs 3 processes), got 2"),
            (["--passes", "1"],
             "--passes must be at least 2 (one cold, one warm), got 1"),
        ],
        ids=["n-2", "passes-1"],
    )
    def test_probe_refuses_bad_args_before_any_work(
        self, capsys, tmp_path, flags, message
    ):
        path = tmp_path / "probe.sqlite"
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(["store", "probe", "--path", str(path), *flags])
            assert excinfo.value.code == f"store probe: {message}"
            assert capsys.readouterr().out == ""
            assert not path.exists()
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")

    def test_probe_then_stats_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "probe.sqlite")
        try:
            code = main(
                ["store", "probe", "--path", path, "--n", "4", "--json"]
            )
            assert code == 0
            probe = json.loads(capsys.readouterr().out)
            assert probe["store"]["writes"] > 0
            assert probe["store"]["hits"] > 0
            assert main(["store", "stats", "--path", path, "--json"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["db"]["entries"] > 0
            kernels = {row["kernel"] for row in stats["db"]["kernels"]}
            assert "domination_number" in kernels
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
            KERNEL_CACHE.clear()

    def test_probe_on_a_directory_reports_no_store_hits(self, capsys, tmp_path):
        # A directory cannot be opened as a store: a probe would count
        # every write and keep none, so it refuses before its first pass
        # and reports nothing, as `store stats` does.
        try:
            with pytest.raises(SystemExit) as excinfo:
                main(["store", "probe", "--path", str(tmp_path), "--n", "3",
                      "--json"])
            assert excinfo.value.code == (
                f"store probe: store file {tmp_path} is unreadable"
            )
            assert capsys.readouterr().out == ""
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
            KERNEL_CACHE.clear()

    def test_vacuum_integrity(self, capsys, tmp_path):
        path = str(tmp_path / "mgmt.sqlite")
        try:
            main(["store", "probe", "--path", path, "--n", "4"])
            capsys.readouterr()
            assert main(["store", "integrity", "--path", path]) == 0
            assert "OK" in capsys.readouterr().out
            assert main(["store", "vacuum", "--path", path]) == 0
            assert "vacuum:" in capsys.readouterr().out
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
            KERNEL_CACHE.clear()
