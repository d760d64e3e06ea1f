"""Tests for the bench harness: variance engine and compare gate.

Two contracts from the perf-trajectory PR:

* the **variance engine** measures deterministically under an injected
  fake clock — convergence stops sampling once the CV settles, the
  repeat cap bounds noisy cells, and the derived statistics (median,
  IQR, CV) are exactly the textbook values on known samples;
* the **compare gate** passes identical snapshots, fails injected
  regressions and result drift, and refuses cross-schema diffs with a
  distinct error (CLI exit 2, vs 1 for a genuine regression).
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.bench import (
    SCENARIOS,
    SCHEMA,
    BenchFormatError,
    Measurement,
    VarianceConfig,
    compare_snapshots,
    describe_comparison,
    measure,
    quantile,
    run_bench,
    select_scenarios,
    validate_snapshot,
    write_snapshot,
)


class FakeClock:
    """A perf_counter stand-in fed a script of per-run durations.

    ``measure`` samples the clock immediately before and after each
    ``fn()`` call; every *pair* of reads consumes one scripted duration,
    so the nth run appears to take exactly ``durations[n]`` seconds.
    """

    def __init__(self, durations):
        self._durations = iter(durations)
        self._now = 0.0
        self._pending = None

    def __call__(self) -> float:
        if self._pending is None:
            self._pending = next(self._durations)
            return self._now
        self._now += self._pending
        self._pending = None
        return self._now


class TestVarianceEngine:
    def test_converges_once_cv_settles(self):
        clock = FakeClock([5.0, 1.0, 1.0, 1.0])  # warmup, then 3 identical
        config = VarianceConfig(
            warmup=1, min_repeats=3, max_repeats=10, cv_threshold=0.10
        )
        m = measure(lambda: None, config=config, clock=clock)
        assert m.converged
        assert m.repeats == 3
        assert m.warmups == (5.0,)
        assert m.samples == (1.0, 1.0, 1.0)
        assert m.cv == 0.0

    def test_noisy_samples_run_to_the_cap(self):
        # Alternating 1s/10s keeps the CV far above any sane threshold.
        clock = FakeClock([1.0, 10.0, 1.0, 10.0, 1.0, 10.0])
        config = VarianceConfig(
            warmup=0, min_repeats=2, max_repeats=6, cv_threshold=0.10
        )
        m = measure(lambda: None, config=config, clock=clock)
        assert not m.converged
        assert m.repeats == 6
        assert m.cv > 0.10

    def test_median_iqr_cv_math_on_known_samples(self):
        m = Measurement(samples=(1.0, 2.0, 3.0, 4.0))
        assert m.min == 1.0
        assert m.mean == 2.5
        assert m.median == 2.5
        assert m.iqr == 1.5  # q75=3.25, q25=1.75
        # stdev = sqrt(5/3) ~= 1.2910; cv = stdev / mean.
        assert m.cv == pytest.approx(0.5163978, rel=1e-6)

    def test_quantile_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.25) == 1.75
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.75) == 3.25
        assert quantile([7.0], 0.5) == 7.0
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_setup_runs_before_every_run_and_value_is_last(self):
        calls = {"setup": 0, "fn": 0}

        def setup():
            calls["setup"] += 1

        def fn():
            calls["fn"] += 1
            return calls["fn"]

        clock = FakeClock([1.0] * 4)
        config = VarianceConfig(
            warmup=1, min_repeats=3, max_repeats=3, cv_threshold=0.10
        )
        m = measure(fn, config=config, clock=clock, setup=setup)
        assert calls["setup"] == calls["fn"] == 4  # 1 warmup + 3 timed
        assert m.value == 4  # the last timed run's return

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VarianceConfig(warmup=-1)
        with pytest.raises(ValueError):
            VarianceConfig(min_repeats=0)
        with pytest.raises(ValueError):
            VarianceConfig(min_repeats=5, max_repeats=2)
        with pytest.raises(ValueError):
            VarianceConfig(cv_threshold=-0.1)
        # Zero threshold = fixed repeat count; must be allowed.
        VarianceConfig(
            warmup=0, min_repeats=2, max_repeats=2, cv_threshold=0.0
        )


def _cell(scenario, cell_id, median, result=None):
    """A minimal schema-valid cell for compare tests."""
    return {
        "scenario": scenario,
        "id": cell_id,
        "cell": {},
        "repeats": 3,
        "warmups": 1,
        "converged": True,
        "seconds": {
            "min": median * 0.9,
            "median": median,
            "mean": median,
            "iqr": 0.0,
            "cv": 0.05,
            "samples": [median * 0.9, median, median * 1.1],
        },
        "obs": None,
        "result": result,
    }


def _snapshot(cells, revision="BENCH_T", schema=SCHEMA):
    return {
        "schema": schema,
        "revision": revision,
        "quick": True,
        "python": "3.11",
        "machine": "test",
        "cpus": 1,
        "config": None,
        "cells": cells,
    }


class TestCompareGate:
    def test_identical_snapshots_pass(self):
        snap = _snapshot([_cell("s", "a", 1.0, [1]), _cell("s", "b", 2.0)])
        report = compare_snapshots(snap, snap)
        assert report["ok"]
        assert not report["regressions"]
        assert not report["drift"]
        assert "PASS" in describe_comparison(report)

    def test_injected_20pct_regression_fails_under_tight_tolerance(self):
        old = _snapshot([_cell("s", "a", 1.0)])
        new = _snapshot([_cell("s", "a", 1.2)], revision="BENCH_N")
        report = compare_snapshots(old, new, tolerance=0.10)
        assert not report["ok"]
        assert len(report["regressions"]) == 1
        assert report["regressions"][0]["ratio"] == pytest.approx(1.2)
        assert "REGRESSION" in describe_comparison(report)
        assert "FAIL" in describe_comparison(report)

    def test_regression_beyond_default_tolerance_fails(self):
        old = _snapshot([_cell("s", "a", 1.0)])
        new = _snapshot([_cell("s", "a", 1.5)])
        assert not compare_snapshots(old, new)["ok"]

    def test_slowdown_within_tolerance_passes(self):
        old = _snapshot([_cell("s", "a", 1.0)])
        new = _snapshot([_cell("s", "a", 1.2)])
        assert compare_snapshots(old, new, tolerance=0.25)["ok"]

    def test_result_drift_is_fatal_even_when_faster(self):
        old = _snapshot([_cell("s", "a", 1.0, result=[[True, 1]])])
        new = _snapshot([_cell("s", "a", 0.5, result=[[False, 1]])])
        report = compare_snapshots(old, new)
        assert not report["ok"]
        assert len(report["drift"]) == 1
        assert "DRIFT" in describe_comparison(report)

    def test_schema_mismatch_raises_with_clear_message(self):
        old = _snapshot([_cell("s", "a", 1.0)], schema="repro-bench/0")
        new = _snapshot([_cell("s", "a", 1.0)])
        with pytest.raises(BenchFormatError, match="schema mismatch"):
            compare_snapshots(old, new)

    def test_one_sided_cells_never_fail_the_gate(self):
        old = _snapshot([_cell("s", "a", 1.0), _cell("s", "old-only", 9.0)])
        new = _snapshot([_cell("s", "a", 1.0), _cell("s", "new-only", 9.0)])
        report = compare_snapshots(old, new)
        assert report["ok"]
        assert report["only_old"] == [{"scenario": "s", "id": "old-only"}]
        assert report["only_new"] == [{"scenario": "s", "id": "new-only"}]

    def test_negative_tolerance_rejected(self):
        snap = _snapshot([_cell("s", "a", 1.0)])
        with pytest.raises(ValueError):
            compare_snapshots(snap, snap, tolerance=-0.1)


class TestSnapshotSchema:
    def test_validate_rejects_malformed_payloads(self):
        assert validate_snapshot([]) == ["snapshot is not a JSON object"]
        assert any(
            "schema" in p for p in validate_snapshot({"schema": "nope"})
        )
        assert any(
            "cells" in p
            for p in validate_snapshot(
                {"schema": SCHEMA, "revision": "X", "cells": []}
            )
        )
        bad_cell = _cell("s", "a", 1.0)
        del bad_cell["seconds"]
        problems = validate_snapshot(_snapshot([bad_cell]))
        assert any("seconds" in p for p in problems)

    def test_validate_rejects_duplicate_cells(self):
        snap = _snapshot([_cell("s", "a", 1.0), _cell("s", "a", 2.0)])
        assert any("duplicate" in p for p in validate_snapshot(snap))

    def test_write_snapshot_refuses_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot({"schema": "junk"}, str(tmp_path / "x.json"))

    def test_committed_trajectory_points_validate(self):
        for name in (
            "benchmarks/BENCH_6.json",
            "benchmarks/BENCH_8.json",
            "benchmarks/BENCH_15.json",
        ):
            with open(name) as handle:
                payload = json.load(handle)
            assert validate_snapshot(payload) == [], name


class TestBenchCli:
    def test_bench_list_json_enumerates_the_matrix(self, capsys):
        assert main(["bench", "list", "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert [s["scenario"] for s in listed] == [
            s.name for s in SCENARIOS
        ]
        total_cells = sum(len(s["cells"]) for s in listed)
        assert total_cells >= 3
        for scenario in listed:
            for cell in scenario["cells"]:
                assert ":" in cell["id"]

    def test_bench_list_quick_restricts_cells(self, capsys):
        assert main(["bench", "list", "--json", "--quick"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert all(
            cell["quick"]
            for scenario in listed
            for cell in scenario["cells"]
        )

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "run", "--scenario", "no-such-scenario"])

    def test_compare_cli_exit_codes(self, tmp_path, capsys):
        ok = _snapshot([_cell("s", "a", 1.0)])
        slow = _snapshot([_cell("s", "a", 2.0)], revision="BENCH_N")
        other_schema = _snapshot(
            [_cell("s", "a", 1.0)], schema="repro-bench/0"
        )
        ok_path = tmp_path / "ok.json"
        slow_path = tmp_path / "slow.json"
        alien_path = tmp_path / "alien.json"
        ok_path.write_text(json.dumps(ok))
        slow_path.write_text(json.dumps(slow))
        alien_path.write_text(json.dumps(other_schema))

        assert main(["bench", "compare", str(ok_path), str(ok_path)]) == 0
        capsys.readouterr()
        assert (
            main(["bench", "compare", str(ok_path), str(slow_path)]) == 1
        )
        capsys.readouterr()
        assert (
            main(["bench", "compare", str(ok_path), str(alien_path)]) == 2
        )
        err = capsys.readouterr().err
        assert "schema" in err
        assert (
            main(
                [
                    "bench", "compare", str(ok_path), str(slow_path),
                    "--tolerance", "150",
                ]
            )
            == 0
        )

    def test_compare_cli_missing_file_is_exit_2(self, tmp_path, capsys):
        ok_path = tmp_path / "ok.json"
        ok_path.write_text(json.dumps(_snapshot([_cell("s", "a", 1.0)])))
        code = main(
            ["bench", "compare", str(ok_path), str(tmp_path / "nope.json")]
        )
        assert code == 2


class TestRunBenchSmoke:
    def test_single_scenario_emits_a_valid_traced_point(self, tmp_path):
        config = VarianceConfig(
            warmup=0, min_repeats=2, max_repeats=2, cv_threshold=0.0
        )
        payload = run_bench(
            ["heaviest_n3_class"], quick=True, config=config
        )
        assert validate_snapshot(payload) == []
        (cell,) = payload["cells"]
        assert cell["scenario"] == "heaviest_n3_class"
        assert cell["repeats"] == 2
        assert cell["seconds"]["median"] > 0
        obs = cell["obs"]
        assert obs["kernel_calls"] > 0
        assert obs["tier_counts"]["computed"] > 0
        assert "kernel" in obs["self_by_category"]
        # The verdict triple matches the committed BENCH_6 reference.
        assert cell["result"] == [
            [False, 26, 256], [False, 63, 864], [True, 124, 2048]
        ]
        out = tmp_path / "point.json"
        write_snapshot(payload, str(out))
        assert validate_snapshot(json.loads(out.read_text())) == []

    def test_select_scenarios_rejects_unknown_names(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            select_scenarios(["nope"])
