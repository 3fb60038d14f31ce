"""Real multi-core execution of prototype searches (worker processes).

The pipeline's ``parallel_deployments`` option *models* replica
deployments in the simulated cost; this module additionally *executes*
prototype searches on worker processes, cutting wall-clock time on
multi-core machines.  Each worker behaves like one replica deployment of
§4: it receives the run's prototype set, constraint planner and search
partition (the deployment, reload or reshuffle partition the in-process
searches use) through the fork, attaches to the background graph's
shared-memory CSR (one copy of the frozen arrays, exported by
:mod:`repro.runtime.shm` and mapped zero-copy by every worker), and keeps
its own NLCC work-recycling cache across the tasks it serves — exactly
the sharing a physical replica would have.  A task is one call of the
drivers' own search (:func:`~repro.core.pipeline.search_one`), so a
pooled search is charged what the same search costs in-process.

Tasks ship as :class:`PoolTask` wire objects in one of two payload kinds,
one per ``PipelineOptions.backend``:

* ``"array"`` — two ``np.packbits`` bitmaps (active vertices, alive
  directed edges) cut straight from the level scope's
  :class:`~repro.core.arraystate.ArraySearchState`; the worker re-derives
  the uint64 role masks from the prototype's labels (bit-identical, see
  ``ArraySearchState.from_scope_payload``) and runs the search without
  ever materializing a dict state.  Results return as packed solution
  bitmaps the parent ORs into the level union.
* ``"dict"`` — the reference backend's ``(candidates, edges)`` lists.
  Candidate role sets ship unsorted; determinism comes from
  :meth:`PrototypeSearchPool.search_level` returning results in task
  order, not from payload ordering.

Results are identical to sequential execution (outcomes are pure
functions of the shipped starting scope); only wall-clock changes.  Each
task ships its ``MessageStats`` and its registry's export home, and the
parent charges both to the run exactly as it does an in-process search.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import WorkerPoolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..core.arraystate import ArraySearchState
    from ..core.ordering import ConstraintPlanner
    from ..core.pipeline import PipelineOptions
    from ..core.prototypes import Prototype, PrototypeSet
    from ..core.results import PrototypeSearchOutcome
    from ..core.state import SearchState
    from .partition import PartitionedGraph
    from .shm import SharedCsrHandle

#: per-worker state, populated by the pool initializer
_WORKER: Dict[str, Any] = {}


class PoolTask:
    """One prototype-search work item in wire form.

    ``kind`` selects the payload format: ``"array"`` carries
    ``(vertex_bits, edge_bits, warm_bits_or_None)`` packed bitmaps over
    the shared CSR, ``"dict"`` carries the reference backend's
    ``(candidates, edges)`` lists.  ``units`` is the scope size
    (active vertices + canonical active edges), precomputed at pack time
    so LPT ordering costs the same regardless of payload format.
    """

    __slots__ = ("proto_id", "kind", "data", "units")

    def __init__(
        self, proto_id: int, kind: str, data: Tuple[Any, ...], units: int
    ) -> None:
        self.proto_id = proto_id
        self.kind = kind
        self.data = data
        self.units = units

    def __getstate__(self) -> Tuple[int, str, Tuple[Any, ...], int]:
        return (self.proto_id, self.kind, self.data, self.units)

    def __setstate__(
        self, state: Tuple[int, str, Tuple[Any, ...], int]
    ) -> None:
        self.proto_id, self.kind, self.data, self.units = state


def array_task(
    proto_id: int,
    scope: "ArraySearchState",
    warm_mask: Optional[Any] = None,
) -> PoolTask:
    """Pack an array scope cut into an ``"array"`` :class:`PoolTask`."""
    from ..core.arraystate import pack_bits

    vertex_bits, edge_bits = scope.scope_payload()
    warm_bits = None if warm_mask is None else pack_bits(warm_mask)
    vertices, edges = scope.active_counts()
    return PoolTask(
        proto_id, "array", (vertex_bits, edge_bits, warm_bits),
        vertices + edges,
    )


def dict_task(proto_id: int, state: "SearchState") -> PoolTask:
    """Pack a dict scope into a ``"dict"`` :class:`PoolTask`."""
    candidates, edges = state_to_payload(state)
    return PoolTask(
        proto_id, "dict", (candidates, edges), len(candidates) + len(edges)
    )


def _init_worker(
    prototypes: "PrototypeSet",
    planner: "ConstraintPlanner",
    pgraph: "PartitionedGraph",
    options: "PipelineOptions",
    shm_handle: Optional["SharedCsrHandle"] = None,
) -> None:
    """Runs once per worker process: keep the run's parts, attach the CSR.

    The prototype set, planner and search partition are the run's own
    (they arrive through the fork); the worker only adds its NLCC cache.
    When the pool exported the graph's CSR to shared memory, the worker
    attaches to the segment and installs the zero-copy view as the
    graph's memoized CSR, so every ``csr_of(graph)`` in the search stack
    reads the one shared copy.
    """
    from ..core.state import NlccCache

    graph = pgraph.graph
    if shm_handle is not None:
        from .shm import attach_shared_csr

        try:
            graph._csr_cache = attach_shared_csr(shm_handle, graph)
        except (FileNotFoundError, OSError):  # pragma: no cover - attach race
            pass  # csr_of() rebuilds locally; results are unaffected

    _WORKER.update(
        options=options,
        prototypes={p.id: p for p in prototypes},
        planner=planner,
        pgraph=pgraph,
        cache=NlccCache() if options.work_recycling else None,
    )


def _search_task(task: PoolTask) -> Dict[str, Any]:
    """Search one prototype inside a worker; returns a plain-data outcome.

    ``"array"`` tasks reconstruct an :class:`ArraySearchState` over the
    attached shared CSR and hand it to the drivers' own
    :func:`~repro.core.pipeline.search_one` — no dict state exists at any
    point.  Their result payload additionally carries packed solution
    bitmaps (``solution_bits``) for the parent's level union.

    When the shipped options carry an enabled tracer, the worker builds a
    fresh local :class:`~repro.runtime.trace.Tracer` (span forests never
    cross process boundaries implicitly — pickled tracers arrive empty)
    and returns its closed spans as payloads for the parent to graft.

    Counts follow the same grafting model but are always on: each task
    accounts into a fresh per-task
    :class:`~repro.runtime.metrics.MetricsRegistry` (fresh, not the
    worker-lifetime options registry, so totals are never double-counted
    across tasks) whose packed :meth:`export` rides the payload for the
    parent to :meth:`merge`, and into a fresh ``MessageStats``, shipped
    whole.
    """
    import os

    from ..core.pipeline import search_one
    from ..core.state import SearchState
    from .metrics import MetricsRegistry
    from .trace import NULL_TRACER, Tracer

    pgraph = _WORKER["pgraph"]
    graph = pgraph.graph
    options = _WORKER["options"]
    proto = _WORKER["prototypes"][task.proto_id]
    tracing = getattr(options.tracer, "enabled", False)
    tracer = Tracer() if tracing else NULL_TRACER
    registry = MetricsRegistry()

    state: "SearchState | ArraySearchState"
    warm_mask = None
    if task.kind == "array":
        from ..core.arraystate import ArraySearchState, csr_of, unpack_bits

        csr = csr_of(graph)
        vertex_bits, edge_bits, warm_bits = task.data
        state = ArraySearchState.from_scope_payload(
            csr, proto, vertex_bits, edge_bits
        )
        if warm_bits is not None:
            warm_mask = unpack_bits(warm_bits, csr.num_vertices)
    else:
        candidates_payload, edges_payload = task.data
        candidates = {v: set(roles) for v, roles in candidates_payload}
        active_edges: Dict[int, set] = {v: set() for v in candidates}
        for u, v in edges_payload:
            active_edges.setdefault(u, set()).add(v)
            active_edges.setdefault(v, set()).add(u)
        state = SearchState(graph, candidates, active_edges)

    outcome, stats = search_one(
        proto, state, warm_mask, pgraph, _WORKER["planner"],
        _WORKER["cache"], options, tracer, registry,
    )
    return {
        "proto_id": task.proto_id,
        "solution_vertices": sorted(outcome.solution_vertices),
        "solution_edges": sorted(outcome.solution_edges),
        "solution_bits": (
            state.solution_payload() if task.kind == "array" else None
        ),
        "match_mappings": outcome.match_mappings,
        "distinct_matches": outcome.distinct_matches,
        "stats": stats,
        "wall_seconds": outcome.wall_seconds,
        "trace_spans": (
            [span.to_payload() for span in tracer.roots] if tracing else None
        ),
        "trace_worker": os.getpid() if tracing else None,
        "metrics": registry.export(),
    }


def payload_to_outcome(
    proto: "Prototype",
    payload: Dict[str, Any],
    options: "PipelineOptions",
) -> "PrototypeSearchOutcome":
    """Rebuild a :class:`PrototypeSearchOutcome` from a worker's payload.

    Worker spans, if the payload carries any, are grafted under the
    currently open span of ``options.tracer``, labeled with the worker
    pid (``perf_counter`` is CLOCK_MONOTONIC, shared across forked
    workers, so timestamps line up).  The worker's exported per-task
    registry is folded into ``options.metrics`` additively — the
    cross-process half of the bit-exact counter-parity contract — and is
    the outcome's ``counts``.  Its ``MessageStats`` (``payload["stats"]``)
    is the caller's to charge.
    """
    from ..core.results import PrototypeSearchOutcome

    if payload.get("trace_spans"):
        options.tracer.attach(
            payload["trace_spans"], worker=payload.get("trace_worker")
        )
    outcome = PrototypeSearchOutcome(proto)
    outcome.counts = options.metrics.merge(payload.get("metrics"))
    outcome.solution_vertices = set(payload["solution_vertices"])
    outcome.solution_edges = {
        (int(u), int(v)) for u, v in payload["solution_edges"]
    }
    outcome.match_mappings = payload["match_mappings"]
    outcome.distinct_matches = payload["distinct_matches"]
    outcome.wall_seconds = payload["wall_seconds"]
    return outcome


class PrototypeSearchPool:
    """A pool of replica workers executing prototype searches.

    ``prototypes``, ``planner`` and ``pgraph`` are the run's prototype
    set, constraint planner and search partition; every worker searches
    with them, so a task costs what it costs in-process.  On the array
    backend the pool exports the partitioned graph's CSR to a
    shared-memory segment at construction, workers attach zero-copy, and
    callers ship packed-bitmap tasks; the reference backend exports
    nothing and ships dict tasks.  Closing the pool unlinks the segment.

    Use as a context manager; submit per-level batches with
    :meth:`search_level`.
    """

    def __init__(
        self,
        prototypes: "PrototypeSet",
        planner: "ConstraintPlanner",
        pgraph: "PartitionedGraph",
        options: "PipelineOptions",
        processes: int,
    ) -> None:
        if processes <= 1:
            raise ValueError("a pool needs at least two processes")
        import multiprocessing as mp

        self._options = options
        self._processes = processes
        self._shm: Optional[Any] = None
        shm_handle: Optional["SharedCsrHandle"] = None
        if options.backend == "array":
            from ..core.arraystate import csr_of
            from .shm import SharedGraphCsr

            self._shm = SharedGraphCsr(csr_of(pgraph.graph))
            shm_handle = self._shm.handle
            options.metrics.gauge("shm.segment_bytes").set(
                float(self._shm.nbytes)
            )
        self._pool = ProcessPoolExecutor(
            max_workers=processes,
            mp_context=mp.get_context("fork"),
            initializer=_init_worker,
            initargs=(prototypes, planner, pgraph, options, shm_handle),
        )
        #: measured wall seconds of the last search of each prototype
        self._wall_history: Dict[int, float] = {}
        #: exponential moving average of wall seconds per scope unit
        #: (active vertices + edges) — the cost model for unseen protos
        self._ema_rate: Optional[float] = None

    def _task_cost(self, task: PoolTask) -> float:
        """Predicted wall seconds for one :class:`PoolTask`.

        Prefers the prototype's own measured wall time from an earlier
        level (the tracing layer's per-prototype numbers flow back through
        the result payloads); otherwise scales the scope size — the
        ``units`` precomputed at pack time, identical for both payload
        formats — by the observed seconds-per-unit rate.  With no history
        at all, scope size alone still yields a sensible big-first order.
        """
        exact = self._wall_history.get(task.proto_id)
        if exact is not None:
            return exact
        if self._ema_rate is not None:
            return task.units * self._ema_rate
        return float(task.units)

    def _record_result(self, task: PoolTask, result: Dict[str, Any]) -> None:
        wall = result.get("wall_seconds")
        if wall is None:
            return
        self._wall_history[task.proto_id] = wall
        if task.units > 0:
            rate = wall / task.units
            self._ema_rate = (
                rate
                if self._ema_rate is None
                else 0.7 * self._ema_rate + 0.3 * rate
            )

    def search_level(self, tasks: List[PoolTask]) -> List[Dict[str, Any]]:
        """Run a level's :class:`PoolTask` batch; keeps task order.

        Tasks are submitted longest-predicted-first (greedy LPT): the
        executor hands queued tasks to workers as they free up, so a
        descending-cost submission order is exactly the classic LPT
        packing — the big prototypes can no longer land last and stretch
        the level's makespan, as round-robin chunking allowed.  Results
        are returned in the original task order regardless, which is what
        makes worker-side iteration order irrelevant to determinism.

        Per-level worker utilization lands in the run's metrics registry:
        ``pool.busy_seconds`` sums the tasks' measured search walls and
        ``pool.idle_seconds`` is the remainder of the level's
        ``wall × processes`` budget — together they put a number on the
        straggler effect LPT is there to bound.

        A dead worker raises :class:`~repro.errors.WorkerPoolError` after
        closing the pool (and unlinking its segment); no partial level
        is ever returned.
        """
        level_started = time.perf_counter()
        order = sorted(
            range(len(tasks)),
            key=lambda i: (-self._task_cost(tasks[i]), i),
        )
        results: List[Dict[str, Any]] = []
        try:
            # inside the try: a worker that dies while later tasks are
            # still being submitted breaks the executor at ``submit``
            futures: Dict[int, "Future[Dict[str, Any]]"] = {
                i: self._pool.submit(_search_task, tasks[i]) for i in order
            }
            for i in range(len(tasks)):
                result = futures[i].result()
                self._record_result(tasks[i], result)
                results.append(result)
        except BrokenProcessPool as exc:
            # A worker died (killed, os._exit, segfault): the executor is
            # unusable and the level incomplete.  Release the segment now
            # and surface a typed error; partial results are dropped.
            self.close()
            raise WorkerPoolError(
                f"a pool worker died while searching {len(tasks)} "
                f"prototypes; {len(results)} finished and were discarded"
            ) from exc
        busy = sum(r.get("wall_seconds") or 0.0 for r in results)
        level_wall = time.perf_counter() - level_started
        metrics = self._options.metrics
        metrics.counter("pool.busy_seconds").inc(busy)
        metrics.counter("pool.idle_seconds").inc(
            max(0.0, level_wall * self._processes - busy)
        )
        return results

    def close(self) -> None:
        self._pool.shutdown()
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    def __enter__(self) -> "PrototypeSearchPool":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()


def state_to_payload(state: "SearchState") -> Tuple[List[Any], List[Any]]:
    """Serialize a SearchState's candidates/edges for shipping to workers.

    Role sets ship in set-iteration order: ``search_level`` returns
    results in task order, so payload ordering never reaches any
    order-sensitive consumer and the old per-vertex ``sorted()`` was pure
    shipping overhead.
    """
    candidates = [(v, list(state.candidates[v])) for v in state.candidates]
    edges = state.active_edge_list()
    return candidates, edges
