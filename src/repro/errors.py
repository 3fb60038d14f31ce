"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish the failing subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(ReproError):
    """Invalid graph construction or query (unknown vertex, self loop, ...)."""


class TemplateError(ReproError):
    """Invalid search template (disconnected, unlabeled, bad edit-distance)."""


class PrototypeError(ReproError):
    """Prototype generation failed (e.g. requested distance disconnects H0)."""


class ConstraintError(ReproError):
    """Constraint generation or verification failed."""


class PartitionError(ReproError):
    """Invalid partitioning request (zero ranks, unknown vertex, ...)."""


class EngineError(ReproError):
    """The vertex-centric engine was driven incorrectly."""


class PipelineError(ReproError):
    """The approximate-matching pipeline was configured incorrectly."""


class CheckpointError(ReproError):
    """Saving or restoring distributed search state failed."""


class MemoryLimitExceeded(ReproError):
    """A computation exceeded its configured memory budget.

    Used by baselines that replicate the whole graph per rank (Arabesque-like
    systems) to reproduce the out-of-memory behaviour reported in the paper.
    """

    def __init__(self, used_bytes: int, limit_bytes: int, where: str = "") -> None:
        self.used_bytes = used_bytes
        self.limit_bytes = limit_bytes
        self.where = where
        message = (
            f"memory budget exceeded{f' in {where}' if where else ''}: "
            f"{used_bytes} bytes used, limit {limit_bytes} bytes"
        )
        super().__init__(message)
