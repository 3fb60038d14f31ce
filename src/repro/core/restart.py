"""Level-granular pipeline checkpointing and restart (§4, "Load Balancing").

The paper's system checkpoints the execution state between edit-distance
levels — that is what allows it to *reload* the pruned graph on a
rebalanced or smaller deployment and resume the sweep.  Here that is a
hook of :func:`~repro.core.pipeline.run_pipeline`'s own level loop
(:class:`Checkpoint`), so a checkpointed run honours every option:

* :func:`run_pipeline_with_checkpoints` saves the compacted candidate set,
  and after every finished level its union, the per-prototype solution
  subgraphs and the match vectors so far;
* :func:`resume_pipeline` restores that state and continues the sweep
  below the last finished level — on the same or a different deployment
  size (the reload scenario of §5.4).

A scope is saved as what it *is* on either backend: sorted vertex ids and
canonical edge pairs.  No roles (``for_prototype_search`` resets them by
label) and no bitmaps (their positions belong to one CSR, and the
compacted base lives on a view).  Resumed runs answer like uninterrupted
ones, because the containment rule only needs the previous level's union.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..errors import CheckpointError
from ..graph.csr import csr_of
from ..graph.graph import Graph
from .arraystate import ArraySearchState
from .pipeline import PipelineOptions, _run_bottom_up, scope_from_ids
from .results import LevelReport, PipelineResult, PrototypeSearchOutcome
from .state import SearchState
from .template import PatternTemplate

PathLike = Union[str, Path]
State = Union[SearchState, ArraySearchState]

MANIFEST = "pipeline_checkpoint.json"

#: manifest layout version; bumped whenever a key changes meaning
FORMAT = 2
#: keys every manifest carries from its first write on
_REQUIRED = ("template", "k", "graph", "base", "completed_levels",
             "match_vectors", "outcomes")


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
    manifest: Dict[str, Any] = {
        "format": FORMAT,
        "template": template.name,
        "k": k,
        "graph": _fingerprint(graph),
        "completed_levels": [],
        "match_vectors": {},
        "outcomes": {},
    }
    checkpoint = Checkpoint(directory, manifest, fail_after_level)
    return _run(graph, template, k, options, checkpoint)


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
    _check(manifest, graph, template, directory / MANIFEST)
    checkpoint = Checkpoint(directory, manifest)
    return _run(graph, template, manifest["k"], options, checkpoint)


def _run(
    graph: Graph,
    template: PatternTemplate,
    k: int,
    options: PipelineOptions,
    checkpoint: "Checkpoint",
) -> PipelineResult:
    with options.tracer.span(
        "pipeline", template=template.name, k=k, mode="checkpointed",
        backend=options.backend,
    ):
        return _run_bottom_up(
            graph, template, k, options, None, checkpoint=checkpoint
        )


class Checkpoint:
    """The checkpoint hook of one run of ``pipeline._run_bottom_up``.

    The level loop calls :meth:`restored_base` in place of ``M*`` when
    :attr:`resuming`, :meth:`start` once ``base`` is compacted, and
    :meth:`level_done` after every finished level.  Only this module
    knows the manifest's layout.
    """

    def __init__(
        self,
        directory: Path,
        manifest: Dict[str, Any],
        fail_after_level: Optional[int] = None,
    ) -> None:
        self.directory = directory
        self.manifest = manifest
        self.fail_after_level = fail_after_level
        #: the manifest already holds a base: this run resumes it
        self.resuming = "base" in manifest

    def restored_base(self, graph: Graph, array: bool) -> State:
        """The checkpointed candidate set, over ``graph``'s root CSR."""
        form: State = (
            ArraySearchState.empty(csr_of(graph)) if array
            else SearchState.empty(graph)
        )
        return self._restore("base", form)

    def start(self, base: State, result: PipelineResult) -> Optional[State]:
        """Save ``base``, or restore the finished levels into ``result``.

        Returns the previous level's union in ``base``'s state form and
        over its CSR (``None`` before the first level).
        """
        manifest = self.manifest
        if not self.resuming:
            manifest["base"] = _scope_ids(base)
            self._write()
            return None
        for vertex, ids in manifest["match_vectors"].items():
            result.match_vectors[int(vertex)] = set(ids)
        completed = manifest["completed_levels"]
        for distance in completed:
            level = LevelReport(distance)
            for proto in result.prototype_set.at(distance):
                payload = manifest["outcomes"].get(str(proto.id))
                if payload is None:
                    raise CheckpointError(
                        f"checkpoint in {self.directory} has no outcome "
                        f"for prototype {proto.id}"
                    )
                outcome = PrototypeSearchOutcome(proto)
                outcome.solution_vertices = set(payload["vertices"])
                outcome.solution_edges = {
                    (int(u), int(v)) for u, v in payload["edges"]
                }
                level.outcomes.append(outcome)
            result.levels.append(level)
        if not completed:
            return None
        return self._restore(f"union_after_{completed[-1]}", base)

    def level_done(
        self, level: LevelReport, result: PipelineResult, union: State
    ) -> None:
        """Persist one finished level (then inject the requested failure)."""
        manifest = self.manifest
        for outcome in level.outcomes:
            manifest["outcomes"][str(outcome.proto_id)] = {
                "vertices": sorted(outcome.solution_vertices),
                "edges": sorted(outcome.solution_edges),
            }
        manifest["completed_levels"].append(level.distance)
        manifest[f"union_after_{level.distance}"] = _scope_ids(union)
        manifest["match_vectors"] = {
            str(v): sorted(ids) for v, ids in result.match_vectors.items()
        }
        self._write()
        if level.distance == self.fail_after_level:
            raise RuntimeError(
                f"injected failure after checkpointing level {level.distance}"
            )

    # ------------------------------------------------------------------
    def _restore(self, key: str, form: State) -> State:
        """The scope saved under ``key``, in ``form``'s state form and CSR."""
        payload = self.manifest[key]
        try:
            return scope_from_ids(form, payload["vertices"], payload["edges"])
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint in {self.directory} does not fit this graph: {exc}"
            ) from exc

    def _write(self) -> None:
        path = self.directory / MANIFEST
        tmp = self.directory / (MANIFEST + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.manifest, handle)
        tmp.replace(path)  # atomic on POSIX: a crash never corrupts the manifest


def _scope_ids(state: State) -> Dict[str, List[Any]]:
    """What a scope is on either backend: sorted vertex and edge ids."""
    return {
        "vertices": sorted(state.active_vertices()),
        "edges": sorted(state.active_edge_list()),
    }


def _fingerprint(graph: Graph) -> Dict[str, int]:
    return {"num_vertices": graph.num_vertices, "num_edges": graph.num_edges}


def _check(
    manifest: Dict[str, Any],
    graph: Graph,
    template: PatternTemplate,
    path: Path,
) -> None:
    """Reject a manifest this run cannot resume (``CheckpointError``)."""
    if manifest.get("format") != FORMAT:
        raise CheckpointError(
            f"{path} has checkpoint format {manifest.get('format')!r}, "
            f"this version reads {FORMAT}"
        )
    missing = [key for key in _REQUIRED if key not in manifest]
    completed = manifest.get("completed_levels") or []
    if completed and f"union_after_{completed[-1]}" not in manifest:
        missing.append(f"union_after_{completed[-1]}")
    if missing:
        raise CheckpointError(f"{path} lacks {', '.join(missing)}")
    if manifest["template"] != template.name:
        raise CheckpointError(
            f"checkpoint is for template {manifest['template']!r}, "
            f"not {template.name!r}"
        )
    if manifest["graph"] != _fingerprint(graph):
        raise CheckpointError(
            f"checkpoint is for a graph of {manifest['graph']}, "
            f"not {_fingerprint(graph)}"
        )


def _read_manifest(directory: Path) -> Dict[str, Any]:
    path = directory / MANIFEST
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest: Dict[str, Any] = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint manifest {path}: {exc}") from exc
    return manifest
