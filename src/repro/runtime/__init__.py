"""Simulated HavoqGT-style distributed runtime.

In-process reproduction of the MPI substrate the paper builds on: hash and
delegate partitioning, an asynchronous vertex-centric visitor engine with
quiescence detection, message accounting (local / remote / cross-network),
and a parallel cost model.
"""

from .engine import Context, Engine
from .messages import CostModel, MessageStats, PhaseCounters
from .partition import (
    PartitionedGraph,
    block_assignment,
    hash_assignment,
)
from .quiescence import SafraDetector
from .trace import NULL_TRACER, NullTracer, Span, Tracer
from .visitor import Visitor

__all__ = [
    "Context",
    "CostModel",
    "Engine",
    "MessageStats",
    "NULL_TRACER",
    "NullTracer",
    "PartitionedGraph",
    "PhaseCounters",
    "SafraDetector",
    "Span",
    "Tracer",
    "Visitor",
    "block_assignment",
    "hash_assignment",
]
