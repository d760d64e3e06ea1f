"""API-surface and invariant tests: exports, doctests, report invariants."""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.experiments import EXPERIMENTS, run
from repro.bounds import BoundKind, bound_report
from repro.graphs import symmetric_closure
from tests.test_digraph import random_digraphs


class TestPackageSurface:
    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports_resolve(self):
        import repro.agreement
        import repro.analysis.render
        import repro.analysis.sweeps
        import repro.analysis.tables
        import repro.bounds
        import repro.combinatorics
        import repro.engine
        import repro.graphs
        import repro.models
        import repro.store
        import repro.topology
        import repro.verification

        for module in (
            repro.agreement,
            repro.analysis.render,
            repro.analysis.sweeps,
            repro.analysis.tables,
            repro.bounds,
            repro.combinatorics,
            repro.engine,
            repro.graphs,
            repro.store,
            repro.models,
            repro.topology,
            repro.verification,
        ):
            for name in module.__all__:
                assert getattr(module, name) is not None, (module, name)

    def test_math_packages_load_no_batch_driver(self):
        """Importing ``repro`` and its math packages loads no batch
        driver, store, cluster, tables or trace exporter, nor the stdlib
        modules they need, beyond what a bare interpreter has loaded;
        nor ``dataclasses`` or ``inspect`` (with ``ast`` and ``dis``):
        value classes are records and kernel sources come from
        ``linecache``."""
        code = (
            "import sys\n"
            "bare = set(sys.modules)\n"
            "import repro, repro.agreement, repro.bounds, "
            "repro.combinatorics, repro.graphs, repro.models, "
            "repro.topology, repro.verification\n"
            "print(*sorted(set(sys.modules) - bare))\n"
        )
        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        loaded = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        ).stdout.split()
        assert "repro.verification" in loaded
        forbidden = (
            "repro.engine.batch", "repro.engine.diagnostics", "repro.store",
            "repro.dist", "repro.analysis", "repro.obs.export",
            "multiprocessing", "socket", "selectors", "sqlite3",
            "hashlib", "pickle", "dataclasses", "inspect", "ast", "dis",
        )
        assert [
            name for name in loaded
            if any(name == f or name.startswith(f + ".") for f in forbidden)
        ] == []

    @pytest.mark.parametrize("output", [["--json"], []])
    def test_serial_sweep_loads_only_what_it_runs(self, output, tmp_path):
        """A serial sweep with the store off loads no pool, cluster,
        store file, table or topology module, nor the stdlib modules
        they need, nor ``dataclasses`` or ``inspect``: it reads no
        kernel version.  ``-X importtime`` also lists what atexit hooks
        import, which a ``sys.modules`` snapshot taken before exit
        misses."""

        def imported(*args: str) -> set[str]:
            env = {
                k: v for k, v in os.environ.items()
                if not k.startswith("REPRO_")
            }
            src = str(Path(__file__).resolve().parent.parent / "src")
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            stderr = subprocess.run(
                [sys.executable, "-X", "importtime", *args],
                capture_output=True, text=True, env=env, check=True,
                timeout=120, cwd=tmp_path,
            ).stderr
            return {
                line.rsplit("|", 1)[1].strip()
                for line in stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2
            }

        loaded = imported(
            "-m", "repro", "sweep", "--n", "3", "--limit", "2", *output
        ) - imported("-c", "pass")
        assert "repro.analysis.sweeps" in loaded
        forbidden = (
            "multiprocessing", "socket", "selectors", "signal", "pickle",
            "traceback", "sqlite3", "datetime", "hashlib", "decimal",
            "fractions", "repro.analysis.tables", "repro.topology",
            "repro.dist", "repro.obs.export", "dataclasses", "inspect",
            "ast", "dis",
        )
        assert sorted(
            name for name in loaded
            if any(name == f or name.startswith(f + ".") for f in forbidden)
        ) == []

    def test_version(self):
        assert repro.__version__ == "1.10.0"

    def test_quickstart_docstring_example(self):
        """The example in repro.__doc__ must keep working."""
        from repro import bound_report
        from repro.graphs import symmetric_closure, wheel

        report = bound_report(symmetric_closure([wheel(4)]))
        assert (report.best_upper.k, report.best_lower.k, report.tight) == (
            3,
            2,
            True,
        )


class TestExperimentRegistry:
    def test_all_sixteen_registered(self):
        assert len(EXPERIMENTS) == 16
        assert set(EXPERIMENTS) == {f"E{i}" for i in range(1, 17)}

    def test_run_writes_markdown(self):
        stream = io.StringIO()
        run(["E2"], stream=stream)
        out = stream.getvalue()
        assert out.startswith("## E2")
        assert "```" in out

    def test_run_unknown_id(self):
        with pytest.raises(SystemExit):
            run(["E99"], stream=io.StringIO())


class TestReportInvariants:
    @given(random_digraphs(4))
    @settings(max_examples=15, deadline=None)
    def test_report_structure_on_random_models(self, g):
        report = bound_report([g])
        assert report.best_upper.kind is BoundKind.UPPER
        assert report.best_lower.kind is BoundKind.LOWER
        assert 1 <= report.best_upper.k <= g.n
        assert 0 <= report.best_lower.k < g.n
        # Simple models: Thm 3.2/5.1 bracket is always consistent.
        thm_51 = [b for b in report.lower_bounds if b.theorem == "5.1"]
        thm_32 = [b for b in report.upper_bounds if b.theorem == "3.2"]
        assert thm_51[0].k == thm_32[0].k - 1

    @given(random_digraphs(3))
    @settings(max_examples=10, deadline=None)
    def test_symmetrisation_never_hurts_upper(self, g):
        """Cor 3.5: the symmetric model's γ_eq bound covers the orbit."""
        single = bound_report([g])
        sym = bound_report(sorted(symmetric_closure([g])))
        gamma_eq_single = [
            b for b in single.upper_bounds if b.theorem == "3.4"
        ][0]
        gamma_eq_sym = [b for b in sym.upper_bounds if b.theorem == "3.4"][0]
        # γ_eq is permutation-invariant, so the two must coincide.
        assert gamma_eq_single.k == gamma_eq_sym.k
