"""Top-down exploratory search mode (§4, §5.5).

The bottom-up pipeline (Alg. 1) requires a fixed ``k``.  Exploratory search
inverts the sweep: start with exact matches of the full template and
*relax* — increase the edit-distance one level at a time — until a
user-defined stopping condition is met (by default: the first level at
which any match exists, the WDC-4 6-Clique scenario of §5.5).

Each level reuses the same prototype search machinery and the bottom-up
driver's scope and deployment step (:func:`~repro.core.pipeline.run_scope`),
so the maximum candidate set is computed once under search-space reduction
only.  NLCC work recycling applies across levels exactly as in the
bottom-up mode (here it flows "top-down", the first direction of Obs. 2).
With no level below to extend from, ``enumeration_optimization`` raises.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..graph.graph import Graph
from .pipeline import (
    PipelineOptions,
    _starting_scope,
    charge,
    finish_level,
    finish_run,
    planner_for,
    record_outcome,
    reject_extension,
    run_scope,
    search_one,
    start_run,
)
from .prototypes import generate_prototypes
from .results import LevelReport, PipelineResult
from .state import NlccCache
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
    reject_extension(options, "exploratory search")
    if max_k is None:
        max_k = template.max_meaningful_distance()
    with options.tracer.span(
        "pipeline", metrics=options.metrics, template=template.name, k=max_k,
        mode="exploratory", backend=options.backend,
    ):
        return _run_exploratory(graph, template, max_k, stop_condition, options)


def _run_exploratory(
    graph: Graph,
    template: PatternTemplate,
    max_k: int,
    stop_condition: Callable[[LevelReport], bool],
    options: PipelineOptions,
) -> PipelineResult:
    """Top-down sweep body; the caller owns the ``pipeline`` span.

    Every scope starts fresh (no cross-level unions top-down), so warm
    seeds never apply.  Levels end in the bottom-up epilogue
    (:func:`~repro.core.pipeline.finish_level`).
    """
    tracer = options.tracer
    metrics = options.metrics
    started = start_run(options)
    protos = generate_prototypes(template, max_k, options.max_prototypes)
    planner = planner_for(graph, options)
    cache = NlccCache() if options.work_recycling else None
    scope = run_scope(graph, template, options)

    result = PipelineResult(template.name, max_k, protos, backend=options.backend)
    result.candidate_set_vertices, result.candidate_set_edges = (
        scope.base.active_counts()
    )
    result.candidate_set_seconds = options.cost_model.makespan(scope.mstar_stats)
    all_stats = [scope.mstar_stats]

    for distance in range(0, protos.max_distance + 1):
        with tracer.span("level", metrics=metrics, distance=distance):
            level_start = (time.perf_counter(), metrics.mark())
            level = LevelReport(distance)
            for proto in protos.at(distance):
                outcome, stats = search_one(
                    proto, *_starting_scope(proto, scope.base, None, options),
                    scope.search_pgraph, planner, cache, options, tracer,
                    metrics, collect_matches=options.collect_matches,
                )
                charge(outcome, stats, options, all_stats)
                record_outcome(level, outcome, result)
            # An exploratory level's union counts its vertices only: the
            # answer fingerprints recorded for the exploratory benchmark
            # workload pin its edges at 0.
            union_vertices = len(
                {v for o in level.outcomes for v in o.solution_vertices}
            )
            finish_level(
                level, result, options, planner.label_frequencies,
                (union_vertices, 0), False, level_start,
            )
        if stop_condition(level):
            break
    return finish_run(
        result, options, all_stats, cache, started, scope.reload_seconds
    )


def stopping_distance(result: PipelineResult) -> Optional[int]:
    """The first distance at which matches were found, if any."""
    for level in result.levels:
        if any(outcome.has_matches for outcome in level.outcomes):
            return level.distance
    return None
