"""Level-granular pipeline checkpointing and restart (§4, "Load Balancing").

The paper's system checkpoints the execution state between edit-distance
levels — that is what allows it to *reload* the pruned graph on a
rebalanced or smaller deployment and resume the sweep.  This module makes
the same capability available around :func:`~repro.core.pipeline.run_pipeline`:

* :func:`run_pipeline_with_checkpoints` saves, after the candidate set and
  after every completed level, everything needed to resume: the level
  union's active vertices/edges, the per-vertex match vectors so far, and
  the per-prototype solution subgraphs;
* :func:`resume_pipeline` restores that state and continues the bottom-up
  sweep from the first incomplete level — on the same or a different
  deployment size (the reload scenario of §5.4).

Resumed runs produce results identical to uninterrupted ones (validated by
the failure-injection tests), because the containment rule only needs the
previous level's union.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from ..errors import CheckpointError
from ..graph.graph import Graph
from ..runtime.engine import Engine
from ..runtime.messages import MessageStats
from ..runtime.partition import PartitionedGraph
from .arraystate import ArraySearchState
from .pipeline import PipelineOptions, max_candidate_scope
from .prototypes import generate_prototypes
from .results import PipelineResult
from .state import SearchState
from .template import PatternTemplate

PathLike = Union[str, Path]

MANIFEST = "pipeline_checkpoint.json"


def _state_payload(state: SearchState) -> Dict:
    return {
        "candidates": {str(v): sorted(state.roles(v)) for v in state.active_vertices()},
        "edges": state.active_edge_list(),
    }


def _restore_state(graph: Graph, payload: Dict) -> SearchState:
    candidates = {int(v): set(roles) for v, roles in payload["candidates"].items()}
    active_edges: Dict[int, Set[int]] = {v: set() for v in candidates}
    for u, v in payload["edges"]:
        active_edges.setdefault(int(u), set()).add(int(v))
        active_edges.setdefault(int(v), set()).add(int(u))
    return SearchState(graph, candidates, active_edges)


def run_pipeline_with_checkpoints(
    graph: Graph,
    template: PatternTemplate,
    k: int,
    checkpoint_dir: PathLike,
    options: Optional[PipelineOptions] = None,
    fail_after_level: Optional[int] = None,
) -> PipelineResult:
    """Run the pipeline, persisting a resumable checkpoint per level.

    ``fail_after_level`` aborts (raises ``RuntimeError``) right after the
    checkpoint for that edit-distance level is written — the failure
    injection hook used by the tests.
    """
    options = options or PipelineOptions()
    directory = Path(checkpoint_dir)
    directory.mkdir(parents=True, exist_ok=True)

    # Delegate the actual searching to run_pipeline level by level: run the
    # full sweep but capture state via the per-level union recomputation.
    # For checkpointing we re-execute the sweep explicitly.
    protos = generate_prototypes(template, k, options.max_prototypes)
    deepest = protos.max_distance

    manifest = {
        "template": template.name,
        "k": deepest,
        "completed_levels": [],
        "match_vectors": {},
        "outcomes": {},
    }

    with options.tracer.span(
        "pipeline", template=template.name, k=deepest, mode="checkpointed",
        backend=options.backend,
    ):
        # Base candidate set (checkpointed as the pre-sweep state).
        pgraph = PartitionedGraph(
            graph, options.num_ranks,
            delegate_degree_threshold=options.delegate_degree_threshold,
            ranks_per_node=options.ranks_per_node,
        )
        engine = Engine(
            pgraph, MessageStats(options.num_ranks), options.batch_size,
            tracer=options.tracer, metrics=options.metrics,
        )
        if options.use_max_candidate_set:
            base_state = max_candidate_scope(graph, template, engine, options)
            if isinstance(base_state, ArraySearchState):
                # checkpoints are dict payloads; the searches re-import
                base_state = base_state.to_search_state()
        else:
            base_state = SearchState.initial(graph, template)
        manifest["base_state"] = _state_payload(base_state)
        _write_manifest(directory, manifest)

        return _sweep(
            graph, template, protos, base_state, options,
            manifest, directory, start_level=deepest,
            fail_after_level=fail_after_level,
        )


def resume_pipeline(
    graph: Graph,
    template: PatternTemplate,
    checkpoint_dir: PathLike,
    options: Optional[PipelineOptions] = None,
) -> PipelineResult:
    """Resume an interrupted checkpointed run from its last completed level.

    ``options`` may differ from the original run's (e.g. fewer ranks — the
    paper's reload-on-smaller-deployment move); results are unaffected.
    """
    options = options or PipelineOptions()
    directory = Path(checkpoint_dir)
    manifest = _read_manifest(directory)
    if manifest["template"] != template.name:
        raise CheckpointError(
            f"checkpoint is for template {manifest['template']!r}, "
            f"not {template.name!r}"
        )
    protos = generate_prototypes(template, manifest["k"], options.max_prototypes)
    completed = manifest["completed_levels"]
    deepest = protos.max_distance
    if completed:
        start_level = min(completed) - 1
        union_payload = manifest[f"union_after_{min(completed)}"]
        prev_union = _restore_state(graph, union_payload)
    else:
        start_level = deepest
        prev_union = None
    base_state = _restore_state(graph, manifest["base_state"])
    with options.tracer.span(
        "pipeline", template=template.name, k=deepest, mode="checkpointed",
        backend=options.backend,
    ):
        return _sweep(
            graph, template, protos, base_state, options,
            manifest, directory, start_level=start_level,
            prev_union=prev_union,
        )


def _sweep(
    graph,
    template,
    protos,
    base_state,
    options,
    manifest,
    directory,
    start_level,
    prev_union=None,
    fail_after_level=None,
):
    """Run levels ``start_level .. 0``, checkpointing after each."""
    from .ordering import ConstraintPlanner
    from .search import search_prototype
    from .state import NlccCache

    wall_start = time.perf_counter()
    tracer = options.tracer
    planner = ConstraintPlanner(
        graph, options.include_full_walk, options.constraint_ordering
    )
    cache = NlccCache() if options.work_recycling else None
    result = PipelineResult(
        template.name, protos.max_distance, protos, backend=options.backend
    )
    (
        result.candidate_set_vertices,
        result.candidate_set_edges,
    ) = base_state.active_counts()

    # Restore previously completed work into the result object.
    for vertex, ids in manifest["match_vectors"].items():
        result.match_vectors[int(vertex)] = set(ids)
    restored_outcomes = dict(manifest["outcomes"])

    pgraph = PartitionedGraph(
        graph, options.num_ranks,
        delegate_degree_threshold=options.delegate_degree_threshold,
        ranks_per_node=options.ranks_per_node,
    )

    from .results import LevelReport, PrototypeSearchOutcome

    deepest = protos.max_distance
    for distance in range(deepest, -1, -1):
        level = LevelReport(distance)
        if distance > start_level:
            # Already completed before the interruption: rebuild outcomes.
            for proto in protos.at(distance):
                payload = restored_outcomes[str(proto.id)]
                outcome = PrototypeSearchOutcome(proto)
                outcome.solution_vertices = set(payload["vertices"])
                outcome.solution_edges = {
                    (int(u), int(v)) for u, v in payload["edges"]
                }
                level.outcomes.append(outcome)
            result.levels.append(level)
            continue

        union = SearchState.empty(graph)
        with tracer.span("level", distance=distance) as level_span:
            for proto in protos.at(distance):
                if (
                    options.use_containment
                    and distance < deepest
                    and prev_union is not None
                    and proto.child_links
                ):
                    link = proto.child_links[0]
                    a, b = link.removed_edge
                    pair = (template.graph.label(a), template.graph.label(b))
                    state = prev_union.for_prototype_search(
                        proto, readmit_label_pairs=[pair]
                    )
                else:
                    state = base_state.for_prototype_search(proto)
                stats = MessageStats(options.num_ranks)
                engine = Engine(
                    pgraph, stats, options.batch_size, tracer=tracer,
                    metrics=options.metrics,
                )
                outcome = search_prototype(
                    state, proto, planner.plan(proto.graph), engine,
                    cache=cache, recycle=options.work_recycling,
                    count_matches=options.count_matches,
                    collect_matches=options.collect_matches,
                    verification=options.verification,
                    backend=options.backend,
                    adaptive=options.adaptive,
                    constraint_costs=options.constraint_costs,
                )
                outcome.simulated_seconds = options.cost_model.makespan(stats)
                level.outcomes.append(outcome)
                union.union_with(state)
                for vertex in outcome.solution_vertices:
                    result.match_vectors.setdefault(vertex, set()).add(proto.id)
                manifest["outcomes"][str(proto.id)] = {
                    "vertices": sorted(outcome.solution_vertices),
                    "edges": sorted(outcome.solution_edges),
                }
            level.union_vertices, level.union_edges = union.active_counts()
            level_span.add(
                prototypes=len(level.outcomes),
                union_vertices=level.union_vertices,
                union_edges=level.union_edges,
            )
        level.search_seconds = sum(o.simulated_seconds for o in level.outcomes)
        result.levels.append(level)
        prev_union = union

        manifest["completed_levels"].append(distance)
        manifest[f"union_after_{distance}"] = _state_payload(union)
        manifest["match_vectors"] = {
            str(v): sorted(ids) for v, ids in result.match_vectors.items()
        }
        _write_manifest(directory, manifest)
        if fail_after_level is not None and distance == fail_after_level:
            raise RuntimeError(
                f"injected failure after checkpointing level {distance}"
            )

    result.total_simulated_seconds = sum(
        lvl.search_seconds for lvl in result.levels
    )
    result.total_wall_seconds = time.perf_counter() - wall_start
    result.metrics = options.metrics
    return result


def _write_manifest(directory: Path, manifest: Dict) -> None:
    path = directory / MANIFEST
    tmp = directory / (MANIFEST + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    tmp.replace(path)  # atomic on POSIX: a crash never corrupts the manifest


def _read_manifest(directory: Path) -> Dict:
    path = directory / MANIFEST
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint manifest {path}: {exc}") from exc
