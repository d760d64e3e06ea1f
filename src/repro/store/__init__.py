"""Persistent, versioned kernel-result store — the cache's second tier.

:mod:`repro.engine.cache` memoizes the expensive kernels in-process; this
package spills those results to a SQLite file so *every* process starts
warm: reruns, CI jobs, and fresh workers pay the full kernel cost exactly
once per ``(kernel implementation, canonical key)`` pair, machine-wide.

Tiering (wired inside :func:`~repro.engine.cache.cached_kernel`)::

    call -> KernelCache (process RAM) -> ResultStore (SQLite) -> compute
                                   write-back <- ................|

Configuration is environment-first so no call site changes behaviour:

* ``REPRO_STORE`` — ``off`` (default), ``ro`` (warm-start only) or ``rw``
  (warm-start + write-back).
* ``REPRO_STORE_PATH`` — database file (default ``.repro-store.sqlite``
  in the working directory).

Programmatic control mirrors the cache layer: :func:`configure` swaps the
global store (tests point it at a temp file), :func:`disabled` is a
context manager turning persistence off for a block, and
:func:`active_store` is the hook the engine polls on every cache miss.

Stale-result safety: rows are keyed on a per-kernel *version* (a hash of
the kernel's source unless pinned via ``@cached_kernel(version=...)``), so
editing a kernel implementation orphans its old rows instead of replaying
them; ``python -m repro store vacuum`` garbage-collects the orphans.

Trust model: the store file is a local cache, not an interchange format —
values are pickles, so only point ``REPRO_STORE_PATH`` at files you (or
your CI) wrote.  Checksums guard against corruption, not tampering.
"""

from __future__ import annotations

import atexit
import os
import warnings

from .backend import (
    MISS,
    MODES,
    ResultStore,
    StoreError,
    StoreRow,
    StoreStats,
)
from .keys import Unfingerprintable, encode_key, fingerprint

__all__ = [
    "MISS",
    "MODES",
    "ResultStore",
    "StoreError",
    "StoreRow",
    "StoreStats",
    "Unfingerprintable",
    "encode_key",
    "fingerprint",
    "RESULT_STORE",
    "active_store",
    "configure",
    "disabled",
]

DEFAULT_PATH = ".repro-store.sqlite"


def _mode_from_env() -> str:
    mode = os.environ.get("REPRO_STORE", "off").strip().lower()
    if mode not in MODES:
        warnings.warn(
            f"REPRO_STORE={mode!r} is not one of {MODES}; store disabled",
            stacklevel=2,
        )
        return "off"
    return mode


def _path_from_env() -> str:
    return os.environ.get("REPRO_STORE_PATH", DEFAULT_PATH)


#: The process-global store every :func:`cached_kernel` miss falls through
#: to.  Replace it with :func:`configure`, not by assignment.
RESULT_STORE = ResultStore(path=_path_from_env(), mode=_mode_from_env())


def configure(
    path: str | None = None,
    mode: str | None = None,
    batch_size: int | None = None,
) -> ResultStore:
    """Replace the global store (flushing the old one first).

    Unspecified parameters keep the current store's value.  Returns the
    new store so tests can hold a handle::

        store = repro.store.configure(path=tmp / "s.sqlite", mode="rw")
    """
    global RESULT_STORE
    previous = RESULT_STORE
    replacement = ResultStore(
        path=previous.path if path is None else str(path),
        mode=previous.mode if mode is None else mode,
        batch_size=previous.batch_size if batch_size is None else batch_size,
    )
    previous.close()
    RESULT_STORE = replacement
    return replacement


def active_store() -> ResultStore | None:
    """The global store when persistence is on, else ``None``.

    The engine's miss path calls this on every kernel miss; returning
    ``None`` keeps the store layer entirely out of the picture when
    ``REPRO_STORE=off``.
    """
    store = RESULT_STORE
    return store if store.active else None


def disabled():
    """Context manager disabling the global store (mirrors
    :func:`repro.engine.cache_disabled`)."""
    return RESULT_STORE.disabled()


@atexit.register
def _flush_at_exit() -> None:  # pragma: no cover - exercised at shutdown
    try:
        RESULT_STORE.flush()
    except Exception:
        pass
