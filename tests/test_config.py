"""repro.config: layered frozen configs, builders, fingerprints, shims."""

from __future__ import annotations

import argparse

import pytest

from repro import store as store_pkg
from repro.analysis import sweeps
from repro.config import (
    DEFAULT_BUDGET,
    ExecutorConfig,
    SweepConfig,
    config_fingerprint,
)
from repro.dist import DistExecutor, PoolExecutor, SerialExecutor, make_executor
from repro.engine import KERNEL_CACHE
from repro.errors import ConfigError


def _ns(**kwargs) -> argparse.Namespace:
    return argparse.Namespace(**kwargs)


class TestMirroredDefaults:
    def test_sweep_constants_cannot_drift(self):
        """config mirrors sweeps' knob defaults without importing it."""
        assert DEFAULT_BUDGET == sweeps.DEFAULT_BUDGET
        assert SweepConfig().budget == sweeps.DEFAULT_BUDGET


class TestBuilders:
    def test_fluent_builder_equals_constructor(self):
        built = ExecutorConfig.builder().jobs(4).seed_store(False).build()
        assert built == ExecutorConfig(jobs=4, seed_store=False)

    def test_builder_rejects_unknown_field(self):
        with pytest.raises(AttributeError, match="jobs"):
            ExecutorConfig.builder().jbos(4)

    def test_builder_validates_at_build(self):
        with pytest.raises(ConfigError, match="jobs"):
            ExecutorConfig.builder().jobs(0).build()

    def test_nested_builder_composition(self):
        config = (
            SweepConfig.builder()
            .n(3)
            .executor(ExecutorConfig.builder().jobs(2).build())
            .build()
        )
        assert config.n == 3 and config.executor.jobs == 2

    def test_replace_revalidates(self):
        config = SweepConfig()
        assert config.replace(budget=3).budget == 3
        with pytest.raises(ConfigError):
            config.replace(budget=0)


class TestValidation:
    def test_executor(self):
        with pytest.raises(ConfigError):
            ExecutorConfig(jobs=0)
        with pytest.raises(ConfigError):
            ExecutorConfig(lease_timeout=0.0)

    def test_sweep(self):
        with pytest.raises(ConfigError):
            SweepConfig(n=0)
        with pytest.raises(ConfigError, match="budget"):
            SweepConfig(budget=0)


class TestFromEnv:
    def test_executor_env(self):
        env = {
            "REPRO_JOBS": "6",
            "REPRO_DISTRIBUTED": ":7071",
            "REPRO_SEED_STORE": "off",
        }
        config = ExecutorConfig.from_env(env)
        assert config == ExecutorConfig(
            jobs=6, distributed=":7071", seed_store=False
        )

    def test_executor_env_rejects_garbage(self):
        with pytest.raises(ConfigError):
            ExecutorConfig.from_env({"REPRO_JOBS": "many"})
        with pytest.raises(ConfigError):
            ExecutorConfig.from_env({"REPRO_SEED_STORE": "maybe"})


class TestFromArgs:
    def test_sweep_namespace_lifts_cleanly(self):
        args = _ns(
            n=3, limit=2, budget=512, backend="bitset", jobs=2,
            distributed=None, seed_store="on",
        )
        config = SweepConfig.from_args(args)
        assert config == SweepConfig(
            n=3, limit=2, budget=512, backend="bitset",
            executor=ExecutorConfig(jobs=2),
        )

    def test_missing_attributes_fall_back_to_defaults(self):
        assert ExecutorConfig.from_args(_ns()) == ExecutorConfig()
        assert SweepConfig.from_args(_ns()) == SweepConfig()

    def test_zero_is_not_unset(self):
        """Only None falls back to a default; 0 reaches validation."""
        with pytest.raises(ConfigError, match="budget"):
            SweepConfig.from_args(_ns(budget=0))
        with pytest.raises(ConfigError, match="jobs"):
            ExecutorConfig.from_args(_ns(jobs=0))


class TestFingerprint:
    def test_stable_across_equal_instances(self):
        a = SweepConfig(n=3, executor=ExecutorConfig(jobs=2))
        b = SweepConfig(n=3, executor=ExecutorConfig(jobs=2))
        assert a.fingerprint() == b.fingerprint()
        assert len(a.fingerprint()) == 12

    def test_sensitive_to_any_field(self):
        base = SweepConfig()
        assert base.fingerprint() != base.replace(budget=8).fingerprint()
        assert (
            base.fingerprint()
            != base.replace(executor=ExecutorConfig(jobs=2)).fingerprint()
        )

    def test_distinct_types_with_equal_fields_differ(self):
        # The class label is part of the digest: a config and a plain
        # mapping of the same fields still identify different things.
        assert ExecutorConfig().fingerprint() != config_fingerprint(
            ExecutorConfig().as_dict()
        )

    def test_asdict_round_trip_preserves_identity(self):
        config = SweepConfig(n=3, executor=ExecutorConfig(jobs=2))
        rebuilt = SweepConfig(**config.as_dict())
        assert rebuilt == config
        assert rebuilt.fingerprint() == config.fingerprint()

    def test_mapping_fingerprint(self):
        assert config_fingerprint({"a": 1}) == config_fingerprint({"a": 1})
        assert config_fingerprint({"a": 1}) != config_fingerprint({"a": 2})

    def test_unfingerprintable_raises_config_error(self):
        with pytest.raises(ConfigError):
            config_fingerprint(42)
        with pytest.raises(ConfigError):
            config_fingerprint({"fn": lambda: None})


class TestDeprecatedShims:
    """Old keyword surfaces must equal the config path exactly."""

    def test_make_executor_kwargs_equal_config(self):
        assert isinstance(make_executor(jobs=1), SerialExecutor)
        assert isinstance(
            make_executor(config=ExecutorConfig(jobs=1)), SerialExecutor
        )
        old = make_executor(jobs=3)
        new = make_executor(config=ExecutorConfig(jobs=3))
        assert type(old) is type(new) is PoolExecutor
        assert old.jobs == new.jobs == 3

    def test_make_executor_distributed_kwargs_equal_config(self):
        old = make_executor(distributed=":0", seed_store=False)
        new = make_executor(
            config=ExecutorConfig(distributed=":0", seed_store=False)
        )
        assert type(old) is type(new) is DistExecutor
        for attr in ("host", "port", "seed_store", "lease_timeout"):
            assert getattr(old, attr) == getattr(new, attr)

    def test_run_batch_config_equals_jobs_kwarg(self):
        import operator

        from repro.engine import Job, run_batch

        tasks = [Job(f"m[{i}]", operator.mul, (i, 7)) for i in range(4)]
        old = run_batch(tasks, jobs=2)
        new = run_batch(tasks, config=ExecutorConfig(jobs=2))
        assert old.values == new.values == tuple(i * 7 for i in range(4))

    def test_sweep_kwargs_equal_config(self, tmp_path):
        KERNEL_CACHE.clear()
        store_pkg.configure(path=tmp_path / "cfg.sqlite", mode="rw")
        try:
            old = sweeps.solvability_sweep(3, limit=1, budget=64)
            KERNEL_CACHE.clear()
            config = SweepConfig(n=3, limit=1, budget=64)
            new = sweeps.solvability_sweep(config=config)
            assert new.rows == old.rows
            assert new.config_fingerprint == old.config_fingerprint
            assert new.config_fingerprint == config.fingerprint()
        finally:
            store_pkg.configure(path=store_pkg.DEFAULT_PATH, mode="off")
            KERNEL_CACHE.clear()
