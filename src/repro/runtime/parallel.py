"""Real multi-core execution of prototype searches (worker processes).

The pipeline's ``parallel_deployments`` option *models* replica
deployments in the simulated cost; this module additionally *executes*
prototype searches on worker processes, cutting wall-clock time on
multi-core machines.  Each worker behaves like one replica deployment of
§4: it attaches to the background graph's shared-memory CSR (one copy of
the frozen arrays, exported by :mod:`repro.runtime.shm` and mapped
zero-copy by every worker), rebuilds the prototype set deterministically,
and keeps its own NLCC work-recycling cache across the tasks it serves —
exactly the sharing a physical replica would have.

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
functions of the shipped starting scope); only wall-clock changes.
Simulated makespans are computed inside the workers from their own
message traces.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import WorkerPoolError

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..core.arraystate import ArraySearchState
    from ..core.pipeline import PipelineOptions
    from ..core.prototypes import Prototype
    from ..core.results import PrototypeSearchOutcome
    from ..core.state import SearchState
    from ..core.template import PatternTemplate
    from ..graph.graph import Graph
    from .shm import SharedCsrHandle
    from .trace import Tracer

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
    graph: "Graph",
    template: "PatternTemplate",
    k: int,
    options: "PipelineOptions",
    shm_handle: Optional["SharedCsrHandle"] = None,
) -> None:
    """Runs once per worker process: build the shared per-replica state.

    When the pool exported the graph's CSR to shared memory, the worker
    attaches to the segment and installs the zero-copy view as the
    graph's memoized CSR, so every ``csr_of(graph)`` in the search stack
    reads the one shared copy.
    """
    from ..core.ordering import ConstraintPlanner
    from ..core.prototypes import generate_prototypes
    from ..core.state import NlccCache
    from .partition import PartitionedGraph

    if shm_handle is not None:
        from .shm import attach_shared_csr

        try:
            graph._csr_cache = attach_shared_csr(shm_handle, graph)
        except (FileNotFoundError, OSError):  # pragma: no cover - attach race
            pass  # csr_of() rebuilds locally; results are unaffected

    protos = generate_prototypes(template, k, options.max_prototypes)
    _WORKER.update(
        graph=graph,
        options=options,
        prototypes={p.id: p for p in protos},
        # constraints are planned per task, and only for a scope that
        # survives LCC: init does not scale with the prototype count
        planner=ConstraintPlanner(
            graph, options.include_full_walk, options.constraint_ordering
        ),
        cache=NlccCache() if options.work_recycling else None,
        # one partition per worker: its hash assignment and per-CSR rank
        # arrays are shared by every task the worker serves
        pgraph=PartitionedGraph(
            graph,
            options.num_ranks,
            delegate_degree_threshold=options.delegate_degree_threshold,
            ranks_per_node=options.ranks_per_node,
        ),
    )


def _search_task(task: PoolTask) -> Dict[str, Any]:
    """Search one prototype inside a worker; returns a plain-data outcome.

    ``"array"`` tasks reconstruct an :class:`ArraySearchState` over the
    attached shared CSR and hand it to :func:`search_prototype` — no dict
    state exists at any point.  Their result payload additionally carries
    packed solution bitmaps (``solution_bits``) for the parent's level
    union.

    When the shipped options carry an enabled tracer, the worker builds a
    fresh local :class:`~repro.runtime.trace.Tracer` (span forests never
    cross process boundaries implicitly — pickled tracers arrive empty)
    and returns its closed spans as payloads for the parent to graft.

    Metrics follow the same grafting model but are always on: each task
    accounts into a fresh per-task
    :class:`~repro.runtime.metrics.MetricsRegistry` (fresh, not the
    worker-lifetime options registry, so totals are never double-counted
    across tasks) whose packed :meth:`export` rides the payload for the
    parent to :meth:`merge`.  The worker-lifetime
    ``options.constraint_costs`` model, by contrast, deliberately spans
    tasks: measured NLCC costs recycle across every prototype this
    worker serves.
    """
    import os

    from ..core.search import search_prototype
    from ..core.state import SearchState
    from .engine import Engine
    from .messages import MessageStats
    from .metrics import MetricsRegistry
    from .trace import NULL_TRACER, Tracer

    graph = _WORKER["graph"]
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

    stats = MessageStats(options.num_ranks)
    engine = Engine(
        _WORKER["pgraph"], stats, options.batch_size,
        tracer=tracer, metrics=registry,
    )
    outcome = search_prototype(
        state,
        proto,
        _WORKER["planner"].plan(proto.graph),
        engine,
        cache=_WORKER["cache"],
        recycle=options.work_recycling,
        count_matches=options.count_matches,
        verification=options.verification,
        warm_mask=warm_mask,
        adaptive=options.adaptive,
        constraint_costs=options.constraint_costs,
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
        "lcc_iterations": outcome.lcc_iterations,
        "post_lcc_vertices": outcome.post_lcc_vertices,
        "post_lcc_edges": outcome.post_lcc_edges,
        "nlcc_constraints_checked": outcome.nlcc_constraints_checked,
        "nlcc_constraints_skipped": outcome.nlcc_constraints_skipped,
        "nlcc_roles_eliminated": outcome.nlcc_roles_eliminated,
        "nlcc_recycled": outcome.nlcc_recycled,
        "nlcc_tokens_launched": outcome.nlcc_tokens_launched,
        "nlcc_completions": outcome.nlcc_completions,
        "nlcc_dedup_merged": outcome.nlcc_dedup_merged,
        "exact": outcome.exact,
        "simulated_seconds": options.cost_model.makespan(stats),
        "messages": stats.total_messages,
        "remote_messages": stats.total_remote_messages,
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
    tracer: Optional["Tracer"] = None,
    metrics: Optional[Any] = None,
) -> "PrototypeSearchOutcome":
    """Rebuild a :class:`PrototypeSearchOutcome` from a worker's payload.

    When ``tracer`` is given and the payload carries worker spans, the
    span tree is grafted under the currently open span, labeled with the
    worker pid (``perf_counter`` is CLOCK_MONOTONIC, shared across forked
    workers, so timestamps line up).  When ``metrics`` (the parent run's
    :class:`~repro.runtime.metrics.MetricsRegistry`) is given, the
    worker's exported per-task registry is folded in additively — the
    cross-process half of the bit-exact counter-parity contract.
    """
    from ..core.results import PrototypeSearchOutcome

    if tracer is not None and payload.get("trace_spans"):
        tracer.attach(payload["trace_spans"], worker=payload.get("trace_worker"))
    if metrics is not None:
        metrics.merge(payload.get("metrics"))
    outcome = PrototypeSearchOutcome(proto)
    outcome.solution_vertices = set(payload["solution_vertices"])
    outcome.solution_edges = {
        (int(u), int(v)) for u, v in payload["solution_edges"]
    }
    outcome.match_mappings = payload["match_mappings"]
    outcome.distinct_matches = payload["distinct_matches"]
    outcome.lcc_iterations = payload["lcc_iterations"]
    outcome.post_lcc_vertices = payload.get("post_lcc_vertices", 0)
    outcome.post_lcc_edges = payload.get("post_lcc_edges", 0)
    outcome.nlcc_constraints_checked = payload["nlcc_constraints_checked"]
    outcome.nlcc_constraints_skipped = payload["nlcc_constraints_skipped"]
    outcome.nlcc_roles_eliminated = payload["nlcc_roles_eliminated"]
    outcome.nlcc_recycled = payload["nlcc_recycled"]
    outcome.nlcc_tokens_launched = payload.get("nlcc_tokens_launched", 0)
    outcome.nlcc_completions = payload.get("nlcc_completions", 0)
    outcome.nlcc_dedup_merged = payload.get("nlcc_dedup_merged", 0)
    outcome.exact = payload["exact"]
    outcome.simulated_seconds = payload["simulated_seconds"]
    outcome.messages = payload["messages"]
    outcome.remote_messages = payload["remote_messages"]
    outcome.wall_seconds = payload["wall_seconds"]
    return outcome


class PrototypeSearchPool:
    """A pool of replica workers executing prototype searches.

    On the array backend the pool exports the graph's CSR to a
    shared-memory segment at construction, workers attach zero-copy, and
    callers ship packed-bitmap tasks; the reference backend exports
    nothing and ships dict tasks.  Closing the pool unlinks the segment.

    Use as a context manager; submit per-level batches with
    :meth:`search_level`.
    """

    def __init__(
        self,
        graph: "Graph",
        template: "PatternTemplate",
        k: int,
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

            self._shm = SharedGraphCsr(csr_of(graph))
            shm_handle = self._shm.handle
            options.metrics.gauge("shm.segment_bytes").set(
                float(self._shm.nbytes)
            )
        self._pool = ProcessPoolExecutor(
            max_workers=processes,
            mp_context=mp.get_context("fork"),
            initializer=_init_worker,
            initargs=(graph, template, k, options, shm_handle),
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


class BatchJob:
    """One per-class root pipeline of a template-library batch.

    Plain data: the class representative template, the edit distance the
    root runs at (the max over its absorbed family members), the shared
    prototype set, and a scheduling cost estimate.  Built by
    :mod:`repro.core.batch`, executed by :class:`TemplateBatchScheduler`.
    """

    __slots__ = ("name", "template", "k", "prototype_set", "cost")

    def __init__(
        self,
        name: str,
        template: "PatternTemplate",
        k: int,
        prototype_set: Any,
        cost: float,
    ) -> None:
        self.name = name
        self.template = template
        self.k = k
        self.prototype_set = prototype_set
        self.cost = cost


class TemplateBatchScheduler:
    """Cost-ordered executor for a batch's per-class root pipelines.

    Jobs run longest-estimate-first (the LPT order the pooled levels
    already use), each through one :func:`~repro.core.pipeline
    .run_pipeline` sharing the batch's ``M*`` memo.  In-process runs
    compact onto ``G[M*]`` themselves (``pipeline.compact_scope``).  A
    pooled array run cannot, so when the memoized ``M*`` of a class
    prunes the background graph below ``options.aux_view_ratio`` the
    scheduler packs the surviving scope into a
    :meth:`GraphCsr.induced_view` and runs the whole pipeline over the
    view — and because ``PrototypeSearchPool`` exports ``csr_of(graph)``
    of whatever graph it is built on, the *pruned* arrays ship through
    the existing shared-memory segment, so workers attach the auxiliary
    view zero-copy.
    """

    def __init__(
        self,
        graph: "Graph",
        options: "PipelineOptions",
        memo: Optional[Any] = None,
    ) -> None:
        self.graph = graph
        self.options = options
        #: shared :class:`~repro.core.candidate_set.CandidateSetMemo`
        self.memo = memo
        #: job names in execution (LPT) order
        self.order: List[str] = []
        #: per-job scheduling cost estimates, recorded as jobs run — the
        #: batch report pairs them with measured pipeline walls
        self.costs: Dict[str, float] = {}
        #: auxiliary M*-views materialized (pooled runs ship them zero-copy)
        self.views_shipped = 0
        self.view_sizes: List[Tuple[int, int]] = []

    def run(self, jobs: List[BatchJob]) -> Dict[str, Any]:
        """Execute every job; returns ``{job name: PipelineResult}``."""
        results: Dict[str, Any] = {}
        for job in sorted(jobs, key=lambda j: (-j.cost, j.name)):
            self.order.append(job.name)
            self.costs[job.name] = job.cost
            results[job.name] = self._run_job(job)
        return results

    def _run_job(self, job: BatchJob) -> Any:
        from ..core.pipeline import run_pipeline

        options = self.options
        run_graph = self.graph
        run_memo = self.memo
        # An in-process run compacts onto G[M*] itself (compact_scope)
        # and keeps the memo; a pooled one cannot — its workers attach
        # the graph the pool exports — so it is handed the view as its
        # graph here.
        if (
            run_memo is not None
            and options.aux_views
            and options.use_max_candidate_set
            and options.worker_processes > 1
            and options.backend == "array"
        ):
            view_graph = self._mstar_view(job)
            if view_graph is not None:
                run_graph = view_graph
                # Memoized states live over the full graph; the view's
                # (identical, see candidate_set) M* recomputes cheaply.
                run_memo = None
        return run_pipeline(
            run_graph, job.template, job.k, options,
            prototype_set=job.prototype_set, candidate_memo=run_memo,
        )

    def _mstar_view(self, job: BatchJob) -> Optional["Graph"]:
        """``G[M*]`` as an induced-view graph when M* prunes enough.

        Rerunning the arc-consistency fixed point on the vertex-induced
        view converges to the same fixed point (every surviving role's
        witnesses are surviving candidates, so all derivations carry
        over), which makes the pipeline-over-view bit-identical to the
        pipeline-over-``G``.
        """
        from ..core.arraystate import csr_of
        from ..core.candidate_set import max_candidate_arrays
        from ..core.pipeline import _initial_assignment
        from .engine import Engine
        from .messages import MessageStats
        from .partition import PartitionedGraph

        options = self.options
        graph = self.graph
        pgraph = PartitionedGraph(
            graph,
            options.num_ranks,
            assignment=_initial_assignment(graph, options.num_ranks, options),
            delegate_degree_threshold=options.delegate_degree_threshold,
            ranks_per_node=options.ranks_per_node,
        )
        engine = Engine(
            pgraph, MessageStats(options.num_ranks), options.batch_size,
            tracer=options.tracer,
        )
        astate = max_candidate_arrays(
            graph, job.template, engine,
            memo=self.memo, adaptive=options.adaptive,
        )
        vertices = astate.num_active_vertices
        csr = csr_of(graph)
        if vertices == 0 or vertices > options.aux_view_ratio * csr.num_vertices:
            return None
        view = csr.induced_view(astate.vertex_active)
        self.views_shipped += 1
        self.view_sizes.append(
            (view.num_vertices, view.num_directed_edges // 2)
        )
        return view.graph
