"""The approximate matching pipeline (Alg. 1).

Bottom-up edit-distance sweep: generate prototypes, build the maximum
candidate set, then search each level — starting from the furthest
edit-distance — inside the union of the previous level's solution
subgraphs (the containment rule), recycling non-local constraint results
across prototypes, and producing the per-vertex approximate match vectors.

Every optimization of §4/§5.4 is a :class:`PipelineOptions` knob, so the
ablation benchmarks (naïve / X / Y / Z scenarios of Fig. 8) are plain
option combinations of the same code path.  What the array backend
decides by a fixed rule over exact counts — the ``M*`` and level views
(:data:`AUX_VIEW_RATIO`), the fixpoint's dense rounds — is not an option.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, NamedTuple, Optional, Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from .restart import Checkpoint

from ..errors import PipelineError
from ..graph.graph import Graph, canonical_edge
from ..runtime.engine import Engine
from ..runtime.messages import CostModel, MessageStats
from ..runtime.metrics import MetricsRegistry
from ..runtime.partition import (
    PartitionedGraph, degree_packing, graph_degrees, hash_assignment,
)
from ..runtime.trace import NULL_TRACER
from .arraystate import ArraySearchState
from .enumeration import distinct_match_count, extend_from_child_matches
from .candidate_set import (
    CandidateSetMemo,
    max_candidate_arrays,
    max_candidate_set,
)
from .memos import memo_stats
from .ordering import (
    ConstraintPlanner,
    estimate_prototype_cost,
    parallel_makespan,
    schedule_prototypes,
)
from .prototypes import Prototype, PrototypeSet, generate_prototypes
from .results import LevelReport, PipelineResult, PrototypeSearchOutcome
from .search import search_prototype
from .state import NlccCache, SearchState
from .template import PatternTemplate


@dataclass
class PipelineOptions:
    """Configuration of one pipeline run.

    Defaults correspond to the paper's fully optimized system (scenario Y
    of Fig. 8 — bottom-up with search-space reduction and work recycling);
    set ``reload_ranks``/``parallel_deployments`` for scenario Z, or
    disable groups of options for the ablations and the naïve baseline
    (see :func:`repro.core.naive.naive_options`).  One field per decision:
    ``search_space_reduction`` is ``M*`` and the containment rule together
    (the step Fig. 8's scenario X adds), and the load balancing of §4 is
    ``reload_ranks`` — ``num_ranks`` reshuffles the pruned graph on the
    same deployment, fewer ranks reload it on a smaller one.  The
    ``M*`` and level views and the fixpoint's dense-round switch have no
    field: they apply wherever they are sound.  Neither have the engine's
    visitor batch (every engine runs with its default) nor the full walk:
    a prototype's constraints end in it exactly when they are not exact
    without it.
    """

    #: simulated MPI ranks of the primary deployment
    num_ranks: int = 4
    #: ranks sharing a physical node (locality experiments, Fig. 12)
    ranks_per_node: int = 1
    #: degree threshold for delegate (hub) partitioning; None disables
    delegate_degree_threshold: Optional[int] = None
    #: initial vertex-to-rank assignment: "hash" (HavoqGT default) or
    #: "block" (contiguous ids — skew-prone, the no-load-balancing strawman)
    partition_strategy: str = "hash"
    #: search-space reduction: compute M* before any search (§3.1) and
    #: search each level inside the previous level's solution union
    #: (Obs. 1's containment rule); off, every prototype is searched from
    #: the unpruned background graph (the naïve baseline)
    search_space_reduction: bool = True
    #: execution: "array" (level state in CSR bit vectors, vectorized
    #: semi-naive fixpoints, batched token frontiers) or "reference" (the
    #: paper's visitor model on dict-of-sets state: every active vertex
    #: re-broadcasts every LCC round, one Python token per NLCC message,
    #: every prototype checks its complete constraint list — the message
    #: and visit counts of the paper's message analysis).  Answers are
    #: identical.
    backend: str = "array"
    #: redundant work elimination: recycle NLCC results (Obs. 2)
    work_recycling: bool = True
    #: NLCC constraint ordering: True (rare-labels-first heuristic, §5.4),
    #: False (kind/length order only), or "walk-cost" (the [65]-style
    #: statistics-driven pruning-efficiency order)
    constraint_ordering: object = True
    #: count match mappings / distinct matches per prototype
    count_matches: bool = False
    #: keep the enumerated match mappings in each outcome
    collect_matches: bool = False
    #: derive matches of level-δ prototypes from level-δ+1 matches (§4)
    enumeration_optimization: bool = False
    #: rebalance the pruned graph after M*: reload it, packed by degree,
    #: on this many ranks — ``num_ranks`` is the same-deployment reshuffle
    #: of Fig. 9(a), fewer ranks the smaller deployments of §5.4; None or
    #: 0 searches on the primary deployment's partition
    reload_ranks: Optional[int] = None
    #: number of replica deployments searching prototypes in parallel
    parallel_deployments: int = 1
    #: LPT prototype scheduling across replicas (Fig. 9(b) middle)
    prototype_ordering: bool = True
    #: cost estimates used for scheduling: "estimate" or "measured"
    prototype_cost_source: str = "estimate"
    #: simulated per-message, per-visit and per-superstep costs every
    #: ``*_seconds`` figure of the run is computed with
    cost_model: CostModel = field(default_factory=CostModel)
    #: guard against prototype explosion
    max_prototypes: Optional[int] = 200_000
    #: span tracer (:class:`repro.runtime.trace.Tracer`) threaded into
    #: every engine of the run; the default NULL_TRACER records nothing
    #: and costs one attribute check per guarded site.
    tracer: object = NULL_TRACER
    #: always-on metrics registry threaded into every engine of the run;
    #: its snapshot surfaces as ``stats_document["metrics"]``, rendered
    #: by ``repro report``
    metrics: object = field(default_factory=MetricsRegistry)

    def __post_init__(self) -> None:
        if self.backend not in ("reference", "array"):
            raise PipelineError(f"unknown backend {self.backend!r}")
        if self.parallel_deployments <= 0:
            raise PipelineError("parallel_deployments must be positive")
        if self.reload_ranks is not None and self.reload_ranks < 0:
            raise PipelineError("reload_ranks must not be negative")
        if self.prototype_cost_source not in ("estimate", "measured"):
            raise PipelineError(
                f"unknown prototype_cost_source {self.prototype_cost_source!r}"
            )
        if self.partition_strategy not in ("hash", "block"):
            raise PipelineError(
                f"unknown partition_strategy {self.partition_strategy!r}"
            )
        if self.constraint_ordering not in (True, False, "walk-cost"):
            raise PipelineError(
                f"unknown constraint_ordering {self.constraint_ordering!r}"
            )


#: simulated seconds per active edge to checkpoint + reload a pruned graph
REBALANCE_COST_PER_EDGE = 2.0e-6

#: re-pack the run onto a GraphMini-style ``GraphCsr.induced_view`` once
#: its scope keeps at most this fraction of the current CSR's vertices.
#: One rule, three places: the label view ``M*`` runs on
#: (``max_candidate_arrays``) and the ``M*`` view nested on it
#: (:func:`compact_scope`), both through :func:`takes_view`, and the level
#: views of the bottom-up sweep, re-checked per level so views nest as
#: the sweep keeps pruning.  Views keep vertex ids and every alive edge
#: (the label view's fixpoint charges the cut edges' first round in
#: closed form), so answers and message counts are the same on and off a
#: view.
AUX_VIEW_RATIO = 0.6


def run_pipeline(
    graph: Graph,
    template: PatternTemplate,
    k: int,
    options: Optional[PipelineOptions] = None,
    prototype_set: Optional[PrototypeSet] = None,
    candidate_memo: Optional["CandidateSetMemo"] = None,
) -> PipelineResult:
    """Find all matches within edit-distance ``k`` of ``template``.

    Returns a :class:`~repro.core.results.PipelineResult` with per-vertex
    match vectors, per-prototype exact solution subgraphs, per-level
    timing/size breakdowns and aggregated message statistics.

    When ``options.tracer`` is an enabled tracer, the whole run is
    recorded as one ``pipeline`` span containing per-level, per-prototype
    and per-phase child spans (see :mod:`repro.runtime.trace`).

    ``candidate_memo`` (batched runs; see :mod:`repro.core.batch`) shares
    the edit-distance-independent ``M*`` fixed point across pipelines over
    the same background graph — it must be scoped to one graph by the
    caller.
    """
    options = options or PipelineOptions()
    with options.tracer.span(
        "pipeline", metrics=options.metrics, template=template.name, k=k,
        mode="bottom-up", backend=options.backend,
    ):
        return _run_bottom_up(
            graph, template, k, options, prototype_set, candidate_memo
        )


def _run_bottom_up(
    graph: Graph,
    template: PatternTemplate,
    k: int,
    options: PipelineOptions,
    prototype_set: Optional[PrototypeSet],
    candidate_memo: Optional["CandidateSetMemo"] = None,
    checkpoint: Optional["Checkpoint"] = None,
) -> PipelineResult:
    """Alg. 1 body; the caller owns the enclosing ``pipeline`` span.

    ``checkpoint`` (:mod:`repro.core.restart`) persists ``base`` after
    :func:`compact_scope` and every finished level; a resumed run takes
    ``base``, the last finished level's union and the finished levels'
    reports from it instead of searching them again.
    """
    tracer = options.tracer
    metrics = options.metrics
    started = start_run(options)
    protos = prototype_set or generate_prototypes(
        template, k, max_prototypes=options.max_prototypes
    )
    planner = planner_for(graph, options)
    label_frequencies = planner.label_frequencies

    result = PipelineResult(template.name, k, protos, backend=options.backend)
    all_stats: List[MessageStats] = []
    cache = NlccCache() if options.work_recycling else None
    cost_model = options.cost_model

    # ------------------------------------------------------------- M*
    base_pgraph = partition(graph, options.num_ranks, options)
    mcs_stats = MessageStats(options.num_ranks)
    # The backend fixes the state form of the whole run: on the array
    # backend M* comes straight out of the vectorized fixpoint, every
    # prototype scope is cut from it (or from the previous level's union)
    # in array form with a warm-seeded first LCC round, and each level's
    # solution subgraphs are OR-ed into an array union; the reference
    # backend keeps all of it in dict-of-sets form.
    array = options.backend == "array"
    base: "SearchState | ArraySearchState"
    if checkpoint is not None and checkpoint.resuming:
        base = checkpoint.restored_base(graph, array)
    elif options.search_space_reduction:
        base = max_candidate_scope(
            graph, template, base_pgraph, mcs_stats, options,
            memo=candidate_memo,
        )
    elif array:
        base = ArraySearchState.initial(graph, template)
    else:
        base = SearchState.initial(graph, template)
    all_stats.append(mcs_stats)
    base = compact_scope(base, options)
    (
        result.candidate_set_vertices,
        result.candidate_set_edges,
    ) = base.active_counts()
    result.candidate_set_seconds = cost_model.makespan(mcs_stats)
    #: the previous level's union, in the run's state form
    union_prev = None if checkpoint is None else checkpoint.start(base, result)

    # ---------------------------------------------- search deployment
    infrastructure = 0.0
    rebalancing = _reload_requested(options)
    if rebalancing:
        deployment_ranks = _replica_ranks(options.reload_ranks, options)
        vertices, degrees = _pruned_degrees(base)
        infrastructure += REBALANCE_COST_PER_EDGE * (
            sum(degrees) + len(vertices)
        )
        assignment = _initial_assignment(graph, deployment_ranks, options)
        if assignment is None:
            assignment = hash_assignment(graph.vertices(), deployment_ranks)
        assignment.update(degree_packing(vertices, degrees, deployment_ranks))
        search_pgraph = partition(graph, deployment_ranks, options, assignment)
    else:
        search_pgraph = deployment_partition(graph, base_pgraph, options)

    # ------------------------------------------------------ level sweep
    # Per-child stored matches for the enumeration optimization: dense
    # ArrayMatchSet tables on the array backend, per-match dict lists
    # otherwise (full-walk collections, reference searches).
    stored_matches: Dict[int, Any] = {}
    deepest = protos.max_distance
    # a resumed run starts below the last level its checkpoint finished
    first = result.levels[-1].distance - 1 if result.levels else deepest

    aux_view_reuse = metrics.counter("aux_view.reuse")
    on_aux_view = False
    for distance in range(first, -1, -1):
        with tracer.span("level", metrics=metrics, distance=distance):
            level_start = (time.perf_counter(), metrics.mark())
            level = LevelReport(distance)
            next_stored: Dict[int, Any] = {}
            # Union of this level's solution subgraphs = next level's scope.
            union = empty_union(base)
            for proto in protos.at(distance):
                outcome = None
                if options.enumeration_optimization and distance < deepest:
                    outcome = _try_extension(proto, stored_matches, graph)
                if outcome is not None:
                    # derived on the CSR the level's union and scopes use
                    proto_state = scope_from_ids(
                        base, outcome.solution_vertices, outcome.solution_edges,
                    )
                    next_stored[proto.id] = (
                        outcome.match_set
                        if outcome.match_set is not None
                        else outcome.matches
                    )
                else:
                    proto_state, warm_mask = _starting_scope(
                        proto, distance, deepest, base, union_prev, options,
                    )
                    if on_aux_view:
                        aux_view_reuse.inc()
                    outcome, stats = search_one(
                        proto, proto_state, warm_mask, search_pgraph,
                        planner, cache, options, tracer, metrics,
                        collect_matches=(
                            options.collect_matches
                            or options.enumeration_optimization
                        ),
                    )
                    charge(outcome, stats, options, all_stats)
                    if (
                        outcome.matches is not None
                        and options.enumeration_optimization
                    ):
                        next_stored[proto.id] = (
                            outcome.match_set
                            if outcome.match_set is not None
                            else outcome.matches
                        )
                if not options.collect_matches:
                    outcome.matches = None
                record_outcome(level, outcome, result)
                if array:
                    union.absorb_solution(*proto_state.solution_masks())
                else:
                    union.union_with(proto_state)

            union_prev = union
            finish_level(
                level, result, options, label_frequencies,
                union.active_counts(), rebalancing, level_start,
            )
            if checkpoint is not None:
                checkpoint.level_done(level, result, union)
            stored_matches = next_stored

            # GraphMini-style auxiliary graph: once the union has pruned
            # far enough, pack the surviving adjacency into a compact CSR
            # sub-view and run the remaining levels on it.  Sound only
            # when every remaining prototype starts from the union
            # (child-linked + containment on): the view is
            # vertex-induced, so Obs. 1's readmitted background edges
            # between surviving vertices are all present and the
            # restricted scopes are bit-identical to the full-graph ones.
            # Views nest as later levels keep pruning (on top of
            # compact_scope's M* view); the partition is keyed by vertex
            # id, which views preserve, so it stays.
            if (
                array
                and distance > 0
                and options.search_space_reduction
                and not rebalancing
                and level.union_vertices > 0
                and level.union_vertices
                <= AUX_VIEW_RATIO * base.csr.num_vertices
                and all(
                    p.child_links
                    for d in range(distance)
                    for p in protos.at(d)
                )
            ):
                with tracer.span("aux_view", metrics=metrics, distance=distance):
                    view = base.csr.induced_view(union.vertex_active)
                    base = base.restrict_to_view(view)
                    union_prev = union.restrict_to_view(view)
                    size = (view.num_vertices, view.num_directed_edges // 2)
                    metrics.counter("aux_view.built").inc()
                    metrics.counter("aux_view.vertices").inc(size[0])
                    metrics.counter("aux_view.edges").inc(size[1])
                on_aux_view = True
                result.aux_view_sizes.append(size)

    # ------------------------------------------------------------ totals
    result.total_infrastructure_seconds = infrastructure + sum(
        level.infrastructure_seconds for level in result.levels
    )
    result.total_simulated_seconds = (
        result.candidate_set_seconds
        + sum(level.search_seconds for level in result.levels)
        + result.total_infrastructure_seconds
    )
    return finish_run(result, options, all_stats, cache, started)


class RunStart(NamedTuple):
    """What :func:`finish_run` measures a run against."""

    wall: float
    memos: Dict[str, int]
    mark: Dict[str, float]


def start_run(options: PipelineOptions) -> RunStart:
    """Open a run's wall clock, process-wide memo snapshot and registry
    window."""
    return RunStart(time.perf_counter(), memo_stats(), options.metrics.mark())


def finish_run(
    result: PipelineResult,
    options: PipelineOptions,
    all_stats: List[MessageStats],
    cache: Optional[NlccCache],
    started: RunStart,
) -> PipelineResult:
    """Run epilogue shared by the bottom-up and exploratory drivers.

    Wall time, merged message accounting, the NLCC cache's size, the
    run's share of the process-wide memos' traffic (``cache.kernel.*``,
    ``cache.label_view.*``, ``cache.shape.*``: the delta against the
    snapshot :func:`start_run` took) and the registry's window over the
    run (``result.counts``).
    """
    metrics = options.metrics
    result.total_wall_seconds = time.perf_counter() - started.wall
    result.message_summary = merge_message_stats(all_stats)
    if cache is not None:
        result.nlcc_cache_size = cache.size()
    for name, after in memo_stats().items():
        delta = after - started.memos[name]
        if delta:
            metrics.counter(f"cache.{name}").inc(delta)
    result.counts = metrics.since(started.mark)
    result.metrics = metrics
    return result


def charge(
    outcome: PrototypeSearchOutcome,
    stats: MessageStats,
    options: PipelineOptions,
    all_stats: List[MessageStats],
) -> None:
    """Charge one prototype search's traffic to its outcome and the run."""
    outcome.simulated_seconds = options.cost_model.makespan(stats)
    outcome.messages = stats.total_messages
    outcome.remote_messages = stats.total_remote_messages
    all_stats.append(stats)


def planner_for(graph: Graph, options: PipelineOptions) -> ConstraintPlanner:
    """The run's constraint planner, as ``options`` orders constraints."""
    return ConstraintPlanner(graph, options.constraint_ordering)


def partition(
    graph: Graph,
    ranks: int,
    options: PipelineOptions,
    assignment: Optional[Dict[int, int]] = None,
) -> PartitionedGraph:
    """``graph`` on ``ranks`` ranks, as ``options`` partitions it."""
    return PartitionedGraph(
        graph,
        ranks,
        assignment=(
            assignment if assignment is not None
            else _initial_assignment(graph, ranks, options)
        ),
        delegate_degree_threshold=options.delegate_degree_threshold,
        ranks_per_node=options.ranks_per_node,
    )


def _replica_ranks(ranks: int, options: PipelineOptions) -> int:
    """Ranks of one of ``options.parallel_deployments`` replicas."""
    return max(1, ranks // options.parallel_deployments)


def deployment_partition(
    graph: Graph, base_pgraph: PartitionedGraph, options: PipelineOptions
) -> PartitionedGraph:
    """The partition one replica deployment searches prototypes on (§4)."""
    ranks = _replica_ranks(options.num_ranks, options)
    if ranks == options.num_ranks:
        return base_pgraph
    return partition(graph, ranks, options)


def _initial_assignment(
    graph: Graph, num_ranks: int, options: PipelineOptions
) -> Optional[Dict[int, int]]:
    """Explicit initial vertex-to-rank map, or ``None`` for the hash default.

    A hash partition needs no dict: :class:`PartitionedGraph` computes
    its ranks from the vertex ids.
    """
    if options.partition_strategy == "block":
        from ..runtime.partition import block_assignment

        return block_assignment(sorted(graph.vertices()), num_ranks)
    return None


def _reload_requested(options: PipelineOptions) -> bool:
    """Whether the search runs on a reloaded deployment.

    ``reload_ranks`` is Optional[int]; ``reload_ranks=0`` must disable
    the reload exactly like None instead of leaking a falsy int into the
    flag or the rank arithmetic (``tests/test_source_contracts.py``).
    """
    return options.reload_ranks is not None and options.reload_ranks != 0


def _pruned_degrees(
    base: "SearchState | ArraySearchState",
) -> Tuple[List[int], List[int]]:
    """Vertices and degrees of the pruned graph the reshuffle packs (§4).

    The array backend reads both off its bitmaps
    (:meth:`ArraySearchState.active_degrees`); the reference backend
    materializes the pruned graph.  Same vertices, order and degrees.
    """
    if isinstance(base, ArraySearchState):
        return base.active_degrees()
    return graph_degrees(base.to_graph())


def takes_view(kept: int, total: int, options: PipelineOptions) -> bool:
    """Whether a run moves onto the induced view of ``kept`` of the
    current CSR's ``total`` vertices.

    The rule of the label view ``M*`` runs on and of the ``M*`` view
    :func:`compact_scope` nests on it: the array backend, something
    dropped and at most :data:`AUX_VIEW_RATIO` kept.  It declines when
    rebalancing (which exports the scope to a dict graph anyway).
    """
    return (
        options.backend == "array"
        and not _reload_requested(options)
        and kept < total
        and kept <= AUX_VIEW_RATIO * total
    )


def compact_scope(
    base: "SearchState | ArraySearchState",
    options: PipelineOptions,
) -> "SearchState | ArraySearchState":
    """Re-pack the run onto ``G[M*]`` when ``M*`` pruned enough (§3.1).

    The one compaction point of both level drivers, called straight
    after ``M*``: ``base`` moves onto the :meth:`GraphCsr.induced_view`
    of its candidates — nested on the label view ``M*`` ran on, when it
    ran on one — and every later scope cut, fixpoint, walk, enumeration
    and level union runs over arrays sized to ``M*`` instead of ``G``
    (the paper's system checkpoints and reloads the pruned graph here).
    Nothing observable moves: after the fixpoint every alive edge joins
    two candidates and Obs. 1 only readmits edges between candidates,
    all of which a vertex-induced view holds; the view keeps vertex ids,
    so answers need no remapping and the run's ``PartitionedGraph`` —
    keyed by id — reads the same ranks through ``rank_arrays(view)``,
    hence the same message and visit counts.

    Whether to nest is :func:`takes_view`, and a reference or naive
    ``base`` never moves.  The ``scope_view.*`` counters report the
    innermost view the levels search — ``G[M*]`` or, when ``M*`` kept
    more than :data:`AUX_VIEW_RATIO` of it, the label view
    (``PipelineResult.scope_view`` reads them).
    """
    if not (
        isinstance(base, ArraySearchState) and options.search_space_reduction
    ):
        return base
    csr = base.csr
    nest = takes_view(base.num_active_vertices, csr.num_vertices, options)
    if not nest and csr.parent is None:
        return base
    metrics = options.metrics
    with options.tracer.span("scope_view", metrics=metrics):
        if nest:
            base = base.restrict_to_view(csr.induced_view(base.vertex_active))
        view = base.csr
        metrics.counter("scope_view.built").inc()
        metrics.counter("scope_view.vertices").inc(view.num_vertices)
        metrics.counter("scope_view.edges").inc(view.num_directed_edges // 2)
    return base


def finish_level(
    level: LevelReport,
    result: PipelineResult,
    options: PipelineOptions,
    label_frequencies: Dict[int, int],
    union_sizes: Tuple[int, int],
    rebalancing: bool,
    level_start: Tuple[float, Dict[str, float]],
) -> None:
    """Level epilogue of both drivers: scheduling time, union sizes.

    ``union_sizes`` is the level union's ``(vertices, edges)``;
    ``level_start`` is the level's ``perf_counter`` stamp and registry
    mark; the level's counts (``level.counts``) are the window since.
    """
    costs = [o.simulated_seconds for o in level.outcomes]
    if options.parallel_deployments > 1 and len(costs) > 1:
        if options.prototype_cost_source == "measured":
            schedule_costs = costs
        else:
            schedule_costs = [
                estimate_prototype_cost(o.prototype, label_frequencies)
                for o in level.outcomes
            ]
        batches = schedule_prototypes(
            schedule_costs,
            options.parallel_deployments,
            optimize=options.prototype_ordering,
        )
        level.search_seconds = parallel_makespan(costs, batches)
    else:
        level.search_seconds = sum(costs)
    union_vertices, union_edges = union_sizes
    metrics = options.metrics
    metrics.counter("level.prototypes").inc(len(level.outcomes))
    metrics.counter("level.union_vertices").inc(union_vertices)
    metrics.counter("level.union_edges").inc(union_edges)
    if rebalancing and level.distance > 0:
        level.infrastructure_seconds = REBALANCE_COST_PER_EDGE * (
            2 * union_edges + union_vertices
        )
    level_wall, mark = level_start
    level.counts = metrics.since(mark)
    level.wall_seconds = time.perf_counter() - level_wall
    result.levels.append(level)


def empty_union(
    base: "SearchState | ArraySearchState",
) -> "SearchState | ArraySearchState":
    """An empty level union in ``base``'s state form and over its CSR."""
    if isinstance(base, ArraySearchState):
        return ArraySearchState.empty(base.csr)
    return SearchState.empty(base.graph)


def search_one(
    proto: Prototype,
    scope: "SearchState | ArraySearchState",
    warm_mask: Optional[Any],
    pgraph: PartitionedGraph,
    planner: ConstraintPlanner,
    cache: Optional[NlccCache],
    options: PipelineOptions,
    tracer: Any,
    metrics: Any,
    collect_matches: bool = False,
) -> Tuple[PrototypeSearchOutcome, MessageStats]:
    """One prototype search (Alg. 2) on ``pgraph``: the outcome and the
    traffic it cost.

    The one place a search engine is built — for the level drivers and
    the flip family alike, so a search's counts depend on the partition
    it is handed and nothing else.  It accounts into ``tracer`` and
    ``metrics``; charging the returned stats is the caller's job
    (:func:`charge`).
    """
    stats = MessageStats(pgraph.num_ranks)
    engine = Engine(pgraph, stats, tracer=tracer, metrics=metrics)
    outcome = search_prototype(
        scope,
        proto,
        planner.plan(proto.graph),
        engine,
        cache=cache,
        recycle=options.work_recycling,
        count_matches=options.count_matches,
        collect_matches=collect_matches,
        warm_mask=warm_mask,
    )
    return outcome, stats


def record_outcome(
    level: LevelReport, outcome: PrototypeSearchOutcome, result: PipelineResult
) -> None:
    """Add a searched prototype to its level and to the match vectors."""
    level.outcomes.append(outcome)
    for vertex in outcome.solution_vertices:
        result.match_vectors.setdefault(vertex, set()).add(outcome.proto_id)


def max_candidate_scope(
    graph: Graph,
    template: PatternTemplate,
    pgraph: PartitionedGraph,
    stats: MessageStats,
    options: PipelineOptions,
    memo: Optional["CandidateSetMemo"] = None,
) -> "SearchState | ArraySearchState":
    """``M*`` on ``pgraph``, its traffic charged to ``stats``, in the
    state form ``options.backend`` searches — on the array backend over
    the label view when :func:`takes_view` holds."""
    engine = Engine(
        pgraph, stats, tracer=options.tracer, metrics=options.metrics
    )
    if options.backend == "array":
        return max_candidate_arrays(
            graph, template, engine, memo=memo,
            view_rule=lambda kept, total: takes_view(kept, total, options),
        )
    return max_candidate_set(graph, template, engine, memo=memo)


def _starting_scope(
    proto: Prototype,
    distance: int,
    deepest: int,
    base: "SearchState | ArraySearchState",
    union: "SearchState | ArraySearchState | None",
    options: PipelineOptions,
) -> Tuple["SearchState | ArraySearchState", Optional[Any]]:
    """Scope for one prototype search, per the containment rule.

    Works on either state form (``base`` and ``union`` share one) and
    returns ``(scope, warm_mask)``.  When an array scope derives from the
    previous level's union, ``warm_mask`` flags the vertices whose state
    actually differs from that union (activity changes plus endpoints of
    aliveness changes) — the surviving worklist that seeds the first LCC
    round's broadcast accounting instead of a cold full broadcast.
    Reference scopes and scopes cut fresh from M* keep the cold broadcast
    (``warm_mask=None``).
    """
    if not options.search_space_reduction:
        # Naive mode: a fresh, fully-unpruned state per prototype --
        # the per-prototype re-pruning cost the pipeline avoids.
        return type(base).initial(base.graph, proto.graph), None
    if distance >= deepest or union is None or not proto.child_links:
        return base.for_prototype_search(proto), None
    link = proto.child_links[0]
    a, b = link.removed_edge
    template_graph = proto.template.graph
    pair = (template_graph.label(a), template_graph.label(b))
    scoped = union.for_prototype_search(proto, readmit_label_pairs=[pair])
    if not isinstance(scoped, ArraySearchState):
        return scoped, None
    warm = scoped.vertex_active != union.vertex_active
    csr = scoped.csr
    diff = np.nonzero(scoped.edge_alive != union.edge_alive)[0]
    warm[csr.src[diff]] = True
    warm[csr.indices[diff]] = True
    return scoped, warm


def _try_extension(
    proto: Prototype,
    stored_matches: Dict[int, Any],
    graph: Graph,
) -> Optional[PrototypeSearchOutcome]:
    """Derive this prototype's result from a child's stored matches (§4).

    Children searched on the array backend store dense
    :class:`~repro.core.enumeration.ArrayMatchSet` tables; those extend
    through the batched array probe.  Dict match lists (full-walk
    collections, reference searches) use the per-match probe on
    ``graph``.  The outcome carries the solution as vertex and edge ids;
    the caller turns them into the run's state form
    (:func:`scope_from_ids`).
    """
    from .enumeration import ArrayMatchSet, extend_from_child_matches_array

    for link in proto.child_links:
        stored = stored_matches.get(link.child.id)
        if stored is None:
            continue
        started = time.perf_counter()
        if isinstance(stored, ArrayMatchSet):
            match_set = extend_from_child_matches_array(
                proto, link.child, stored
            )
            matches = match_set.mappings()
        else:
            match_set = None
            matches = extend_from_child_matches(
                proto, link.child, stored, graph
            )
        outcome = PrototypeSearchOutcome(proto)
        outcome.matches = matches
        outcome.match_set = match_set
        outcome.match_mappings = len(matches)
        outcome.distinct_matches = distinct_match_count(proto, len(matches))
        proto_edges = list(proto.graph.edges())
        outcome.solution_vertices = {v for m in matches for v in m.values()}
        outcome.solution_edges = {
            canonical_edge(m[u], m[v]) for m in matches for u, v in proto_edges
        }
        outcome.wall_seconds = time.perf_counter() - started
        # Simulated cost: one edge probe per child match.
        outcome.simulated_seconds = 1.0e-7 * max(len(stored), 1)
        return outcome
    return None


def scope_from_ids(
    form: "SearchState | ArraySearchState",
    vertices: Iterable[int],
    edges: Iterable[Tuple[int, int]],
) -> "SearchState | ArraySearchState":
    """The scope of ``vertices`` / ``edges`` in ``form``'s state form.

    Over ``form``'s CSR (array) or graph (reference), so it lines up with
    the run's current base — a root, the ``M*`` view or a level view.
    """
    if isinstance(form, ArraySearchState):
        return ArraySearchState.from_ids(form.csr, vertices, edges)
    return SearchState.from_ids(form.graph, vertices, edges)


def merge_message_stats(stats_list: List[MessageStats]) -> Dict[str, object]:
    """Aggregate message accounting across all engines of a run."""
    total = 0
    remote = 0
    visits = 0
    barriers = 0
    control = 0
    peak_interval_messages = 0
    phases: Dict[str, Dict[str, int]] = {}
    for stats in stats_list:
        total += stats.total_messages
        remote += stats.total_remote_messages
        visits += stats.total_visits
        barriers += stats.total_barriers
        control += stats.control_messages
        if stats.intervals:
            peak_interval_messages = max(
                peak_interval_messages,
                max(interval[1] for interval in stats.intervals),
            )
        for name, counters in stats.phases.items():
            bucket = phases.setdefault(
                name, {"messages": 0, "remote_messages": 0, "visits": 0}
            )
            bucket["messages"] += counters.messages
            bucket["remote_messages"] += counters.remote_messages
            bucket["visits"] += counters.visits
    return {
        "total_messages": total,
        "remote_messages": remote,
        "remote_fraction": remote / total if total else 0.0,
        "total_visits": visits,
        "barriers": barriers,
        "control_messages": control,
        "peak_interval_messages": peak_interval_messages,
        "phases": phases,
    }
