"""Asynchronous vertex-centric execution engine (HavoqGT simulation).

The engine reproduces HavoqGT's programming model on one process:

* ``do_traversal(seed, visit)`` delivers a seed visitor to every vertex the
  algorithm chooses and then drains all visitor queues to quiescence;
* inside a ``visit`` callback the algorithm calls :meth:`Context.push` to
  send a visitor to a neighboring vertex — this is the only vertex-to-vertex
  communication channel, exactly as in the vertex-centric abstraction;
* each simulated MPI rank owns a visitor queue; the scheduler drains ranks
  round-robin in bounded batches, interleaving ranks the way asynchronous
  message-driven execution does;
* every push is recorded in :class:`~repro.runtime.messages.MessageStats`
  with local/remote/network classification, and quiescence closes a barrier
  interval so the cost model can compute the critical-path makespan.

Determinism: given the same graph, partitioning and algorithm, execution
order is fully deterministic (queues are FIFO, ranks are drained in index
order), which the test suite relies on.
"""

from __future__ import annotations

import functools
import time
from collections import deque
from contextlib import contextmanager
from typing import (
    Callable, ContextManager, Deque, Dict, Iterable, Iterator, List, Optional,
    Sequence, Tuple,
)

import numpy as np

from ..errors import EngineError
from .messages import MessageStats
from .metrics import MetricsRegistry
from .partition import PartitionedGraph
from .quiescence import SafraDetector
from .trace import NULL_TRACER
from .visitor import Visitor

VisitCallback = Callable[["Context", Visitor], None]


class Context:
    """Per-callback view of the engine handed to ``visit`` functions."""

    __slots__ = ("_engine", "_current_rank")

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._current_rank = 0

    @property
    def graph(self):
        return self._engine.pgraph.graph

    @property
    def pgraph(self) -> PartitionedGraph:
        return self._engine.pgraph

    def push(self, visitor: Visitor) -> None:
        """Send ``visitor`` to its target vertex's rank (counts a message)."""
        self._engine._enqueue(visitor, from_rank=self._current_rank)

    def broadcast(self, source: int, targets, payload) -> None:
        """Push one visitor per target — the hot path of Algs. 4 and 5.

        Equivalent to ``push(Visitor(t, payload, source))`` per target but
        with the per-push bookkeeping inlined; ``payload`` is shared by
        every visitor of the broadcast (never copied per target), and the
        delegate test is hoisted out of the loop for the common
        no-delegates configuration.
        """
        engine = self._engine
        assignment = engine._assignment
        queues = engine._queues
        current = self._current_rank
        matrix_row = engine._msg_matrix[current]
        delegates = engine._delegates
        if delegates:
            for target in targets:
                dst_rank = current if target in delegates else assignment[target]
                matrix_row[dst_rank] += 1
                queues[dst_rank].append(Visitor(target, payload, source))
        else:
            for target in targets:
                dst_rank = assignment[target]
                matrix_row[dst_rank] += 1
                queues[dst_rank].append(Visitor(target, payload, source))


class Engine:
    """Drives visitor queues over a partitioned graph.

    Parameters
    ----------
    pgraph:
        The partitioned background graph.
    stats:
        Message accounting sink; a fresh one is created if omitted.
    batch_size:
        How many visitors one rank processes before the scheduler rotates to
        the next rank — models asynchronous interleaving.
    tracer:
        Span tracer; every traversal (and every batched array round)
        records a ``round`` span with message/visit/worklist counters
        when tracing is enabled.  Defaults to the zero-overhead
        :data:`~repro.runtime.trace.NULL_TRACER`.
    metrics:
        Always-on :class:`~repro.runtime.metrics.MetricsRegistry` the hot
        modules (array fixpoint, token walks, NLCC) account into; a fresh
        registry is created if omitted so ``engine.metrics`` is never
        None.  The pipeline passes its per-run registry here, which is
        how one run's rounds aggregate across prototypes and levels.
    """

    def __init__(
        self,
        pgraph: PartitionedGraph,
        stats: Optional[MessageStats] = None,
        batch_size: int = 64,
        tracer=None,
        metrics=None,
    ) -> None:
        if batch_size <= 0:
            raise EngineError("batch_size must be positive")
        self.pgraph = pgraph
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stats = stats if stats is not None else MessageStats(pgraph.num_ranks)
        if self.stats.num_ranks != pgraph.num_ranks:
            raise EngineError("stats rank count does not match partitioning")
        self.batch_size = batch_size
        self._queues: List[Deque[Visitor]] = [deque() for _ in range(pgraph.num_ranks)]
        self._context = Context(self)
        self._running = False
        # Hot-path snapshots of the partitioning (read-only during a run);
        # ``_assignment`` is taken on first use, see below.
        self._delegates = pgraph.delegates
        self._rank_node = np.array(
            [pgraph.node_of_rank(r) for r in range(pgraph.num_ranks)]
        )
        # Per-traversal accounting accumulators, folded into `stats` at
        # quiescence (phases only change between traversals, so deferred
        # accounting is exact).  The buffers are zeroed in place between
        # traversals (`_zero_row` is the copy source) instead of being
        # reallocated — LCC runs one traversal per round.
        self._msg_matrix = [[0] * pgraph.num_ranks for _ in range(pgraph.num_ranks)]
        self._visit_counts = [0] * pgraph.num_ranks
        self._zero_row = [0] * pgraph.num_ranks
        self._detector = SafraDetector(pgraph.num_ranks)
        # Metric handles resolved once (hot paths pay one cell add each).
        self._m_traversals = self.metrics.counter("engine.traversals")
        self._m_batched_rounds = self.metrics.counter("engine.rounds_batched")

    @functools.cached_property
    def _assignment(self) -> Dict[int, int]:
        """The partition's vertex → rank dict, taken at the first visitor.

        Only per-visitor delivery reads it; an array-backend engine
        accounts through ``pgraph.rank_arrays`` and never makes a hash
        partition build its dict.
        """
        return self.pgraph.assignment

    def phase(self, name: str, **attrs: object) -> ContextManager[None]:
        """Attribute the block to ``MessageStats`` phase ``name``, and trace it.

        The phase and its span open together: with tracing on, the span
        ``name`` carries the registry's window over the block plus the
        phase's traffic (``messages``, ``remote_messages``, ``visits``,
        ``supersteps``).
        """
        if not self.tracer.enabled:
            return self.stats.phase(name)
        return self._traced_phase(name, attrs)

    @contextmanager
    def _traced_phase(
        self, name: str, attrs: Dict[str, object]
    ) -> Iterator[None]:
        stats = self.stats
        with stats.phase(name), self.tracer.span(
            name, metrics=self.metrics, **attrs
        ) as span:
            before = stats.traffic()
            yield
            after = stats.traffic()
            span.add(**{key: after[key] - before[key] for key in after})

    # ------------------------------------------------------------------
    def _enqueue(self, visitor: Visitor, from_rank: Optional[int]) -> None:
        dst_rank = self._assignment[visitor.target]
        if (
            self._delegates
            and visitor.source is not None
            and visitor.target in self._delegates
        ):
            # Delegate copies live on every rank: handle on the sender's rank.
            dst_rank = (
                from_rank
                if from_rank is not None
                else self._assignment[visitor.source]
            )
        if from_rank is not None:
            self._msg_matrix[from_rank][dst_rank] += 1
        self._queues[dst_rank].append(visitor)

    def do_traversal(
        self,
        seed_visitors: Iterable[Visitor],
        visit: VisitCallback,
    ) -> None:
        """Run one asynchronous traversal to quiescence.

        ``seed_visitors`` are delivered locally on their owning rank (no
        message cost — HavoqGT seeds via local iteration), then queues are
        drained; each dequeued visitor triggers ``visit(context, visitor)``
        which may push more visitors.  Returns at distributed quiescence,
        closing a barrier interval in the stats.
        """
        if self._running:
            raise EngineError("engine is not reentrant")
        self._running = True
        self._m_traversals.inc()
        tracing = self.tracer.enabled
        round_started = time.perf_counter() if tracing else 0.0
        try:
            seed_count = 0
            for visitor in seed_visitors:
                rank = self.pgraph.rank_of(visitor.target)
                self._queues[rank].append(visitor)
                seed_count += 1
            self._detector.reset()
            self._drain(visit)
            self.stats.record_quiescence(
                self._detector.control_messages(), self._detector.circuits()
            )
            self._fold_rounds(
                np.array([self._msg_matrix], dtype=np.int64),
                np.array([self._visit_counts], dtype=np.int64),
                [(round_started, time.perf_counter(), seed_count)]
                if tracing else None,
            )
            zero_row = self._zero_row
            for row in self._msg_matrix:
                row[:] = zero_row
            self._visit_counts[:] = zero_row
        finally:
            self._running = False

    def _drain(self, visit: VisitCallback) -> None:
        """Round-robin drain of all rank queues until global quiescence."""
        queues = self._queues
        context = self._context
        visit_counts = self._visit_counts
        detector = self._detector
        batch = self.batch_size
        active = True
        while active:
            active = False
            for rank, queue in enumerate(queues):
                if not queue:
                    detector.rank_idle(rank)
                    continue
                detector.rank_activated(rank)
                active = True
                context._current_rank = rank
                chunk = min(batch, len(queue))
                visit_counts[rank] += chunk
                pop = queue.popleft
                for _ in range(chunk):
                    visit(context, pop())
            detector.sweep_completed()

    def record_batched_rounds(
        self,
        matrices: np.ndarray,
        visits: np.ndarray,
        circuits: int = 2,
        spans: Optional[Sequence[Tuple[float, float, int]]] = None,
    ) -> None:
        """Account ``T`` batched (array-executed) broadcast rounds at once.

        The vectorized kernels (:mod:`repro.core.arraystate`) execute a
        whole round as structured arrays instead of per-message Visitor
        objects; they report the same rank-by-rank message matrix
        (``matrices[t]``, ``(T, ranks, ranks)``) and per-rank visit counts
        (``visits[t]``, ``(T, ranks)``) the object path would have
        produced for each round ``t``, plus the minimal clean
        termination-detection exchange (``circuits`` Safra circuits per
        round — two when no reactivation wave occurs).  Each round closes
        a barrier interval exactly like :meth:`do_traversal`.

        ``spans`` holds one ``(started, ended, worklist)`` stamp per round,
        taken while tracing; each becomes that round's ``round`` span
        under the current span.  Ignored when tracing is off.
        """
        if self._running:
            raise EngineError("engine is not reentrant")
        rounds = matrices.shape[0]
        self._m_batched_rounds.inc(rounds)
        self.stats.record_quiescence(
            self.pgraph.num_ranks * circuits * rounds, circuits * rounds
        )
        self._fold_rounds(matrices, visits, spans)

    def _fold_rounds(
        self,
        matrices: np.ndarray,
        visits: np.ndarray,
        spans: Optional[Sequence[Tuple[float, float, int]]],
    ) -> None:
        """Fold rounds into the stats; emit their spans while tracing."""
        if spans and self.tracer.enabled:
            messages = matrices.sum(axis=(1, 2)).tolist()
            local = np.trace(matrices, axis1=1, axis2=2).tolist()
            visited = visits.sum(axis=1).tolist()
            for (started, ended, worklist), sent, kept, seen in zip(
                spans, messages, local, visited
            ):
                self.tracer.record_span("round", started, ended, counters={
                    "messages": sent,
                    "remote_messages": sent - kept,
                    "visits": seen,
                    "worklist": worklist,
                })
        self.stats.record_rounds(matrices, visits, self._rank_node)

    def pending(self) -> int:
        """Total queued visitors (0 at quiescence)."""
        return sum(len(queue) for queue in self._queues)
