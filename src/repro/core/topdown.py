"""Top-down exploratory search mode (§4, §5.5).

The bottom-up pipeline (Alg. 1) requires a fixed ``k``.  Exploratory search
inverts the sweep: start with exact matches of the full template and
*relax* — increase the edit-distance one level at a time — until a
user-defined stopping condition is met (by default: the first level at
which any match exists, the WDC-4 6-Clique scenario of §5.5).

Each level reuses the same prototype search machinery; the maximum
candidate set is computed once, and NLCC work recycling applies across
levels exactly as in the bottom-up mode (here it flows "top-down", the
first direction of Obs. 2).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from ..graph.graph import Graph
from ..runtime.engine import Engine
from ..runtime.messages import MessageStats
from ..runtime.partition import PartitionedGraph
from .arraystate import ArraySearchState
from .ordering import ConstraintPlanner
from .pipeline import (
    PipelineOptions,
    compact_scope,
    compile_cache_totals,
    finish_run,
    max_candidate_scope,
)
from .prototypes import generate_prototypes
from .results import LevelReport, PipelineResult
from .search import search_prototype
from .state import NlccCache, SearchState
from .template import PatternTemplate

#: stop as soon as a level produced at least one matching vertex
def first_match_condition(level: LevelReport) -> bool:
    """Default stopping condition: some prototype at this level matched."""
    return any(outcome.has_matches for outcome in level.outcomes)


def exploratory_search(
    graph: Graph,
    template: PatternTemplate,
    max_k: Optional[int] = None,
    stop_condition: Callable[[LevelReport], bool] = first_match_condition,
    options: Optional[PipelineOptions] = None,
) -> PipelineResult:
    """Search top-down, relaxing the template until ``stop_condition``.

    Returns a :class:`PipelineResult` whose levels run from distance 0
    upward; levels beyond the stopping level are not searched.  If no level
    satisfies the condition within ``max_k`` (default: the template's
    maximum meaningful distance), all levels appear with their (empty)
    outcomes.
    """
    options = options or PipelineOptions()
    if max_k is None:
        max_k = template.max_meaningful_distance()
    with options.tracer.span(
        "pipeline", template=template.name, k=max_k, mode="exploratory",
        backend=options.backend,
    ):
        return _run_exploratory(graph, template, max_k, stop_condition, options)


def _run_exploratory(
    graph: Graph,
    template: PatternTemplate,
    max_k: int,
    stop_condition: Callable[[LevelReport], bool],
    options: PipelineOptions,
) -> PipelineResult:
    """Top-down sweep body; the caller owns the ``pipeline`` span."""
    tracer = options.tracer
    wall_start = time.perf_counter()
    compile_caches_before = compile_cache_totals()
    protos = generate_prototypes(template, max_k, options.max_prototypes)
    planner = ConstraintPlanner(
        graph, options.include_full_walk, options.constraint_ordering
    )
    cache = NlccCache() if options.work_recycling else None
    cost_model = options.cost_model

    pgraph = PartitionedGraph(
        graph,
        options.num_ranks,
        delegate_degree_threshold=options.delegate_degree_threshold,
        ranks_per_node=options.ranks_per_node,
    )
    mcs_stats = MessageStats(options.num_ranks)
    mcs_engine = Engine(
        pgraph, mcs_stats, options.batch_size, tracer=tracer,
        metrics=options.metrics,
    )
    # Every exploratory scope is cut from M*, in the backend's state form.
    base = max_candidate_scope(graph, template, mcs_engine, options)

    result = PipelineResult(template.name, max_k, protos, backend=options.backend)
    base = compact_scope(base, options, result)
    (
        result.candidate_set_vertices,
        result.candidate_set_edges,
    ) = base.active_counts()
    result.candidate_set_seconds = cost_model.makespan(mcs_stats)
    all_stats: List[MessageStats] = [mcs_stats]

    pool = None
    if options.worker_processes > 1:
        from ..runtime.parallel import PrototypeSearchPool

        pool = PrototypeSearchPool(
            graph, template, max_k, options, options.worker_processes
        )

    try:
        for distance in range(0, protos.max_distance + 1):
            with tracer.span("level", distance=distance) as level_span:
                level_wall = time.perf_counter()
                level = LevelReport(distance)
                if pool is not None and len(protos.at(distance)) > 1:
                    _pooled_exploratory_level(
                        pool, protos, distance, base, options, level, result,
                    )
                else:
                    _inline_exploratory_level(
                        pgraph, protos, distance, base, planner,
                        cache, options, level, result, all_stats,
                    )
                level.search_seconds = sum(
                    o.simulated_seconds for o in level.outcomes
                )
                level.union_vertices = len(
                    {v for o in level.outcomes for v in o.solution_vertices}
                )
                level.post_lcc_vertices = sum(
                    o.post_lcc_vertices for o in level.outcomes
                )
                level.post_lcc_edges = sum(
                    o.post_lcc_edges for o in level.outcomes
                )
                level_span.add(
                    prototypes=len(level.outcomes),
                    union_vertices=level.union_vertices,
                    post_lcc_vertices=level.post_lcc_vertices,
                    post_lcc_edges=level.post_lcc_edges,
                )
                level.wall_seconds = time.perf_counter() - level_wall
                result.levels.append(level)
            if stop_condition(level):
                break
    finally:
        if pool is not None:
            pool.close()

    result.total_simulated_seconds = result.candidate_set_seconds + sum(
        level.search_seconds for level in result.levels
    )
    return finish_run(
        result, options, all_stats, cache, compile_caches_before, wall_start
    )


def _inline_exploratory_level(
    pgraph: PartitionedGraph,
    protos,
    distance: int,
    base: "SearchState | ArraySearchState",
    planner: ConstraintPlanner,
    cache: Optional[NlccCache],
    options: PipelineOptions,
    level: LevelReport,
    result: PipelineResult,
    all_stats: List[MessageStats],
) -> None:
    """Search one exploratory level in-process."""
    tracer = options.tracer
    cost_model = options.cost_model
    for proto in protos.at(distance):
        stats = MessageStats(options.num_ranks)
        engine = Engine(
            pgraph, stats, options.batch_size, tracer=tracer,
            metrics=options.metrics,
        )
        outcome = search_prototype(
            base.for_prototype_search(proto),
            proto,
            planner.plan(proto.graph),
            engine,
            cache=cache,
            recycle=options.work_recycling,
            count_matches=options.count_matches,
            collect_matches=options.collect_matches,
            verification=options.verification,
            adaptive=options.adaptive,
            constraint_costs=options.constraint_costs,
        )
        outcome.simulated_seconds = cost_model.makespan(stats)
        outcome.messages = stats.total_messages
        outcome.remote_messages = stats.total_remote_messages
        all_stats.append(stats)
        level.outcomes.append(outcome)
        for vertex in outcome.solution_vertices:
            result.match_vectors.setdefault(vertex, set()).add(proto.id)


def _pooled_exploratory_level(
    pool,
    protos,
    distance: int,
    base: "SearchState | ArraySearchState",
    options: PipelineOptions,
    level: LevelReport,
    result: PipelineResult,
) -> None:
    """Search one exploratory level on the worker pool.

    Every scope is cut fresh from M* (no cross-level unions top-down), so
    warm seeds never apply; array scopes ship as packed bitmaps over the
    shared CSR, reference scopes as dict payloads.  Workers plan the
    constraints of the tasks they are handed.  Like the bottom-up pooled
    path, worker message traces fold into the per-outcome totals but not
    ``result.message_summary``.
    """
    from ..runtime.parallel import array_task, dict_task, payload_to_outcome

    tasks = []
    for proto in protos.at(distance):
        scope = base.for_prototype_search(proto)
        if isinstance(scope, ArraySearchState):
            tasks.append(array_task(proto.id, scope))
        else:
            tasks.append(dict_task(proto.id, scope))
    tracer = options.tracer
    for payload in pool.search_level(tasks):
        proto = protos.by_id(payload["proto_id"])
        outcome = payload_to_outcome(
            proto, payload, tracer=tracer, metrics=options.metrics
        )
        level.outcomes.append(outcome)
        for vertex in outcome.solution_vertices:
            result.match_vectors.setdefault(vertex, set()).add(proto.id)


def stopping_distance(result: PipelineResult) -> Optional[int]:
    """The first distance at which matches were found, if any."""
    for level in result.levels:
        if any(outcome.has_matches for outcome in level.outcomes):
            return level.distance
    return None
