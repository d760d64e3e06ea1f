"""Layered, frozen run-configuration objects — one knob surface, composed.

Every run in this repo is shaped by the same handful of knobs — executor
(serial / pool / distributed), seeding, sweep size, backend — but until
now they travelled as an ever-growing keyword list
(``make_executor(jobs, distributed, seed_store, ...)``) plus environment
variables read at scattered call sites.  This module gives each layer one
frozen dataclass:

* :class:`ExecutorConfig` — how jobs run (jobs / distributed address /
  seeding / lease timeout);
* :class:`SweepConfig` — what a solvability sweep computes, embedding an
  :class:`ExecutorConfig`.

The result store is configured separately, by ``REPRO_STORE`` /
``REPRO_STORE_PATH`` or :func:`repro.store.configure`.

Configs compose instead of multiplying flags: a ``SweepConfig``
*contains* the ``ExecutorConfig`` it runs on, the way mpc4j's protocol
configs stack sub-protocol configs.  Each class offers four ways in, all
producing the same frozen value:

* the plain constructor (keyword arguments, validated);
* a fluent builder — ``ExecutorConfig.builder().jobs(8).build()``;
* ``from_env()`` — the documented ``REPRO_*`` environment variables;
* ``from_args()`` — an ``argparse`` namespace from the CLI surface.

Because configs are frozen and built from primitives, every config has a
stable :meth:`~_Config.fingerprint` (12 hex chars over the canonical
key encoding of its fields).  The fingerprint is the run's identity card:
``solvability_sweep`` stamps it into trace attributes and its JSON
report, so two result sets are comparable exactly when their
fingerprints match.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from .errors import ConfigError

__all__ = [
    "ExecutorConfig",
    "SweepConfig",
    "config_fingerprint",
]

#: Default sweep budget, mirrored from :mod:`repro.analysis.sweeps` (a
#: test asserts the mirror so the two cannot drift silently).
DEFAULT_BUDGET = 1 << 12


def config_fingerprint(value) -> str:
    """12-hex-char stable digest of a config object.

    The config's class name and its fields, which must be built from the
    canonical key primitives (str/int/float/bool/None, nested
    tuples/lists/dicts).  Deterministic across processes — it reuses the
    store's canonical key encoding, the same machinery that
    content-addresses kernel results.
    """
    from .store.keys import Unfingerprintable, encode_key

    if not dataclasses.is_dataclass(value) or isinstance(value, type):
        raise ConfigError(
            f"cannot fingerprint {type(value).__name__}: expected a config "
            "dataclass"
        )
    label = type(value).__name__
    data = dataclasses.asdict(value)
    try:
        blob = label.encode("utf-8") + b"|" + encode_key(data)
    except Unfingerprintable as exc:
        raise ConfigError(f"config contains unfingerprintable value: {exc}") from exc
    return hashlib.sha256(blob).hexdigest()[:12]


class _Builder:
    """Fluent setter-per-field builder for one config class.

    ``ExecutorConfig.builder().jobs(8).seed_store(False).build()`` — each
    dataclass field name is a setter returning the builder; unknown names
    fail fast with the valid field list, so typos cannot silently build a
    default config.
    """

    def __init__(self, config_cls, **initial):
        object.__setattr__(self, "_cls", config_cls)
        object.__setattr__(
            self, "_names", tuple(f.name for f in fields(config_cls))
        )
        object.__setattr__(self, "_values", dict(initial))

    def __getattr__(self, name):
        if name.startswith("_") or name not in self._names:
            raise AttributeError(
                f"{self._cls.__name__} has no field {name!r}; "
                f"fields: {', '.join(self._names)}"
            )

        def setter(value):
            self._values[name] = value
            return self

        return setter

    def build(self):
        """Construct (and validate) the frozen config."""
        return self._cls(**self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self._cls.__name__}.builder({self._values})"


class _Config:
    """Shared behaviour of every config dataclass."""

    @classmethod
    def builder(cls, **initial) -> _Builder:
        """A fluent builder pre-loaded with ``initial`` field values."""
        return _Builder(cls, **initial)

    def replace(self, **changes):
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> dict:
        """Nested plain-dict view (JSON-ready)."""
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        """The run-identity digest; see :func:`config_fingerprint`."""
        return config_fingerprint(self)


def _env_bool(env: Mapping[str, str], name: str, default: bool) -> bool:
    raw = env.get(name)
    if raw is None:
        return default
    text = raw.strip().lower()
    if text in ("1", "true", "on", "yes"):
        return True
    if text in ("0", "false", "off", "no"):
        return False
    raise ConfigError(f"{name}={raw!r} is not a boolean (on/off)")


def _env_int(env: Mapping[str, str], name: str, default: int) -> int:
    raw = env.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not an integer") from None


def _env_float(env: Mapping[str, str], name: str, default: float) -> float:
    raw = env.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{name}={raw!r} is not a number") from None


def _arg(args, name: str, default):
    """``args.name``, or ``default`` when the flag is absent or ``None``.

    Only ``None`` means unset: a falsy value such as ``--budget 0`` must
    reach validation and be rejected, not silently become the default.
    """
    value = getattr(args, name, None)
    return default if value is None else value


def _tristate(value, default: bool) -> bool:
    """Map CLI on/off strings (or booleans, or None) onto a bool."""
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("on", "true", "1", "yes"):
        return True
    if text in ("off", "false", "0", "no"):
        return False
    raise ConfigError(f"expected on/off, got {value!r}")


@dataclass(frozen=True)
class ExecutorConfig(_Config):
    """How a batch executes: the ``make_executor`` surface as a value.

    ``distributed`` (a ``HOST:PORT`` / ``:PORT`` spec) wins over ``jobs``,
    exactly as on the CLI; ``seed_store`` and ``lease_timeout`` only bind
    for the distributed executor.
    """

    jobs: int = 1
    distributed: str | None = None
    seed_store: bool = True
    lease_timeout: float = 60.0

    def __post_init__(self):
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ConfigError(f"jobs must be a positive int, got {self.jobs!r}")
        if self.lease_timeout <= 0:
            raise ConfigError(
                f"lease_timeout must be positive, got {self.lease_timeout!r}"
            )

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ExecutorConfig":
        env = os.environ if env is None else env
        return cls(
            jobs=_env_int(env, "REPRO_JOBS", 1),
            distributed=env.get("REPRO_DISTRIBUTED") or None,
            seed_store=_env_bool(env, "REPRO_SEED_STORE", True),
            lease_timeout=_env_float(env, "REPRO_LEASE_TIMEOUT", 60.0),
        )

    @classmethod
    def from_args(cls, args) -> "ExecutorConfig":
        """Lift the CLI's ``--jobs/--distributed/--seed-store`` flags."""
        return cls(
            jobs=_arg(args, "jobs", 1),
            distributed=getattr(args, "distributed", None),
            seed_store=_tristate(getattr(args, "seed_store", None), True),
            lease_timeout=_arg(args, "lease_timeout", 60.0),
        )

    def make(self, *, log=None, on_bound=None):
        """Build the executor this config describes.

        The config-native core of
        :func:`repro.dist.executor.make_executor`; the old keyword
        signature delegates here.
        """
        from .dist.executor import DistExecutor, PoolExecutor, SerialExecutor

        if self.distributed is not None:
            return DistExecutor(
                self.distributed,
                lease_timeout=self.lease_timeout,
                seed_store=self.seed_store,
                log=log,
                on_bound=on_bound,
            )
        if self.jobs > 1:
            return PoolExecutor(self.jobs)
        return SerialExecutor()


@dataclass(frozen=True)
class SweepConfig(_Config):
    """One solvability sweep, fully specified (embeds the executor)."""

    n: int = 4
    limit: int | None = None
    budget: int = DEFAULT_BUDGET
    backend: str | None = None
    executor: ExecutorConfig = field(default_factory=ExecutorConfig)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be positive, got {self.n!r}")
        if self.budget < 1:
            raise ConfigError(f"budget must be positive, got {self.budget!r}")
        if self.limit is not None and self.limit < 1:
            raise ConfigError(f"limit must be positive, got {self.limit!r}")
        if isinstance(self.executor, dict):  # tolerate asdict round trips
            object.__setattr__(self, "executor", ExecutorConfig(**self.executor))

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "SweepConfig":
        env = os.environ if env is None else env
        return cls(
            n=_env_int(env, "REPRO_SWEEP_N", 4),
            budget=_env_int(env, "REPRO_SWEEP_BUDGET", DEFAULT_BUDGET),
            backend=env.get("REPRO_CSP_BACKEND") or None,
            executor=ExecutorConfig.from_env(env),
        )

    @classmethod
    def from_args(cls, args) -> "SweepConfig":
        """Lift the ``sweep`` CLI namespace onto one config value."""
        return cls(
            n=getattr(args, "n", 4),
            limit=getattr(args, "limit", None),
            budget=_arg(args, "budget", DEFAULT_BUDGET),
            backend=getattr(args, "backend", None),
            executor=ExecutorConfig.from_args(args),
        )
