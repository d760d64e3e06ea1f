"""Exception hierarchy for the :mod:`repro` library."""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "ProcessMismatchError",
    "ModelError",
    "TopologyError",
    "AlgorithmError",
    "VerificationError",
    "EngineError",
    "StoreError",
    "DistError",
    "ConfigError",
]


class ReproError(Exception):
    """Base class for all library-specific errors."""


class GraphError(ReproError):
    """Raised for malformed graphs or invalid graph operations."""


class ProcessMismatchError(GraphError):
    """Raised when combining objects defined over different process sets."""


class ModelError(ReproError):
    """Raised for malformed communication models."""


class TopologyError(ReproError):
    """Raised for malformed simplexes/complexes or invalid topology ops."""


class AlgorithmError(ReproError):
    """Raised when an algorithm is run outside its contract."""


class VerificationError(ReproError):
    """Raised when a verification harness is misused."""


class EngineError(ReproError):
    """Raised by the compute engine (cache misuse, failed batch jobs)."""


class StoreError(ReproError):
    """Raised by the persistent result store (misuse, unwritable mode)."""


class DistError(EngineError):
    """Raised by the distributed executor (connection/handshake failures)."""


class ConfigError(ReproError):
    """Raised for invalid run settings, such as a non-positive ``jobs``."""
