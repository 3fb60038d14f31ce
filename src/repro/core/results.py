"""Result objects produced by searches and the full pipeline."""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Set, Tuple,
)

from ..graph.graph import Edge, Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .prototypes import Prototype, PrototypeSet

#: layout version of :meth:`PipelineResult.stats_document` and of the
#: batch document (``BatchResult.stats_document``).  2: the batch
#: document's ``aux_views`` lost ``shipped`` and ``view_sizes``, and each
#: ``per_class`` entry gained its root pipeline's ``messages``.  3: no
#: ``pool.*`` / ``shm.*`` instruments under ``metrics``, and the derived
#: ratios ``repro report`` reads from them (``pool_utilization``,
#: ``shm_segment_bytes``) are gone.
SCHEMA = 3

#: the ``nlcc`` section of the run report: key -> registry counter
NLCC_COUNTERS = {
    "constraints_checked": "nlcc.constraints_checked",
    "constraints_skipped": "plan.prefilters_skipped",
    "roles_eliminated": "nlcc.roles_eliminated",
    "recycled": "cache.nlcc.hits",
    "tokens_launched": "nlcc.tokens_launched",
    "completions": "nlcc.completions",
    "dedup_merged": "nlcc.dedup_merged",
}


class Count:
    """Read-only int view of one registry counter in the owner's ``counts``.

    ``counts`` is a window of the run's
    :class:`~repro.runtime.metrics.MetricsRegistry`
    (:meth:`~repro.runtime.metrics.MetricsRegistry.since`): what the
    registry counted over a prototype search, a level or a run.
    """

    def __init__(self, counter: str) -> None:
        self.counter = counter

    def __get__(self, owner: Any, _type: Any = None) -> Any:
        if owner is None:
            return self
        return int(owner.counts.get(self.counter, 0))


class PrototypeSearchOutcome:
    """Everything recorded while searching one prototype.

    ``counts`` is the registry's window over the search.
    """

    lcc_iterations = Count("lcc.iterations")
    #: active (vertices, edges) right after the initial LCC fixpoint —
    #: attributes how much pruning LCC did before the NLCC walks ran
    post_lcc_vertices = Count("search.post_lcc_vertices")
    post_lcc_edges = Count("search.post_lcc_edges")

    def __init__(self, prototype: "Prototype") -> None:
        self.prototype = prototype
        self.proto_id: int = prototype.id
        self.name: str = prototype.name
        self.distance: int = prototype.distance
        #: vertices/edges of the exact solution subgraph
        self.solution_vertices: Set[int] = set()
        self.solution_edges: Set[Edge] = set()
        #: number of match mappings, if counted (None otherwise)
        self.match_mappings: Optional[int] = None
        #: number of distinct matching subgraphs, if counted
        self.distinct_matches: Optional[int] = None
        #: enumerated match mappings, if collected
        self.matches: Optional[List[Dict[int, int]]] = None
        #: dense array match table (ArrayMatchSet) when the array
        #: enumerator produced the matches; lets the enumeration
        #: optimization chain stay in array form across levels.  Never
        #: serialized.
        self.match_set = None
        #: registry counter name -> what the search counted
        self.counts: Dict[str, float] = {}
        #: simulated parallel seconds for this prototype's search
        self.simulated_seconds = 0.0
        self.wall_seconds = 0.0
        self.messages = 0
        self.remote_messages = 0

    @property
    def has_matches(self) -> bool:
        return bool(self.solution_vertices)

    def __repr__(self) -> str:
        return (
            f"PrototypeSearchOutcome({self.name}, vertices="
            f"{len(self.solution_vertices)}, mappings={self.match_mappings})"
        )


class LevelReport:
    """Per-edit-distance-level breakdown (the stacks of Figs. 6 and 8).

    ``counts`` is the registry's window over the level.
    """

    #: union-of-solution-subgraph sizes after this level (|V*_k| row)
    union_vertices = Count("level.union_vertices")
    union_edges = Count("level.union_edges")
    #: summed post-LCC active counts over this level's prototype
    #: searches (attribution of LCC vs NLCC pruning work)
    post_lcc_vertices = Count("search.post_lcc_vertices")
    post_lcc_edges = Count("search.post_lcc_edges")

    def __init__(self, distance: int) -> None:
        self.distance = distance
        self.outcomes: List[PrototypeSearchOutcome] = []
        self.counts: Dict[str, float] = {}
        #: simulated seconds spent searching this level (after scheduling)
        self.search_seconds = 0.0
        #: simulated seconds of infrastructure management for this level
        self.infrastructure_seconds = 0.0
        self.wall_seconds = 0.0

    @property
    def num_prototypes(self) -> int:
        return len(self.outcomes)

    def labels_generated(self) -> int:
        """Total (vertex, prototype) labels produced at this level."""
        return sum(len(o.solution_vertices) for o in self.outcomes)

    def __repr__(self) -> str:
        return (
            f"LevelReport(k={self.distance}, prototypes={self.num_prototypes}, "
            f"union_vertices={self.union_vertices})"
        )


class PipelineResult:
    """Full output of an approximate-matching run.

    The primary product is the per-vertex *approximate match vector*
    (Def. 3): for each vertex, the set of prototype ids it participates in.
    ``counts`` is the registry's window over the run.
    """

    #: level views (``pipeline.AUX_VIEW_RATIO``) materialized, and
    #: prototype searches that started on a level view
    aux_views_built = Count("aux_view.built")
    aux_view_reuse = Count("aux_view.reuse")

    def __init__(
        self,
        template_name: str,
        k: int,
        prototype_set: "PrototypeSet",
        backend: str = "array",
    ) -> None:
        self.template_name = template_name
        self.k = k
        self.prototype_set = prototype_set
        #: the ``PipelineOptions.backend`` that produced this result
        self.backend = backend
        #: vertex → frozenset of prototype ids (only matching vertices appear)
        self.match_vectors: Dict[int, Set[int]] = {}
        self.levels: List[LevelReport] = []
        self.candidate_set_vertices = 0
        self.candidate_set_edges = 0
        self.candidate_set_seconds = 0.0
        self.total_simulated_seconds = 0.0
        self.total_wall_seconds = 0.0
        self.total_infrastructure_seconds = 0.0
        #: aggregated message accounting across all engines of the run
        self.message_summary: Dict[str, object] = {}
        self.counts: Dict[str, float] = {}
        #: (constraints, vertex entries) of the NLCC work-recycling cache;
        #: None when recycling is off
        self.nlcc_cache_size: Optional[Tuple[int, int]] = None
        #: each auxiliary view's (vertices, edges) size
        self.aux_view_sizes: List[tuple] = []
        #: the run's :class:`~repro.runtime.metrics.MetricsRegistry`;
        #: None until the pipeline epilogue attaches it
        self.metrics: Optional[object] = None

    # ------------------------------------------------------------------
    def outcomes(self) -> List[PrototypeSearchOutcome]:
        return [o for level in self.levels for o in level.outcomes]

    def outcome_for(self, proto_id: int) -> PrototypeSearchOutcome:
        for outcome in self.outcomes():
            if outcome.proto_id == proto_id:
                return outcome
        raise KeyError(f"no outcome for prototype id {proto_id}")

    def match_vector(self, vertex: int) -> FrozenSet[int]:
        """The vertex's approximate match vector (empty if non-matching)."""
        return frozenset(self.match_vectors.get(vertex, ()))

    def vertices_matching(self, proto_id: int) -> Set[int]:
        return set(self.outcome_for(proto_id).solution_vertices)

    def matched_vertices(self) -> Set[int]:
        """Union of all matches over all prototypes."""
        return set(self.match_vectors)

    def union_subgraph(self, graph: Graph) -> Graph:
        """The union of all solution subgraphs, materialized."""
        edges: Set[Edge] = set()
        for outcome in self.outcomes():
            edges |= outcome.solution_edges
        sub = Graph()
        for vertex in self.match_vectors:
            sub.add_vertex(vertex, graph.label(vertex))
        for u, v in edges:
            sub.add_edge(u, v)
        return sub

    def total_labels_generated(self) -> int:
        """Total vertex/prototype labels (the bulk-labeling output size)."""
        return sum(len(vector) for vector in self.match_vectors.values())

    def total_match_mappings(self) -> Optional[int]:
        counts = [o.match_mappings for o in self.outcomes()]
        if any(c is None for c in counts):
            return None
        return sum(c for c in counts if c is not None)

    def total_distinct_matches(self) -> Optional[int]:
        counts = [o.distinct_matches for o in self.outcomes()]
        if any(c is None for c in counts):
            return None
        return sum(c for c in counts if c is not None)

    def level_for(self, distance: int) -> LevelReport:
        for level in self.levels:
            if level.distance == distance:
                return level
        raise KeyError(f"no level at distance {distance}")

    @property
    def scope_view(self) -> Optional[Tuple[int, int]]:
        """``(vertices, edges)`` of the innermost view the levels searched
        instead of ``G`` — ``G[M*]``, or the label view ``M*`` ran on
        when ``M*`` kept too much of it (``pipeline.compact_scope``);
        None = searched ``G``."""
        if not self.counts.get("scope_view.built"):
            return None
        return (
            int(self.counts.get("scope_view.vertices", 0)),
            int(self.counts.get("scope_view.edges", 0)),
        )

    @property
    def nlcc_cache_stats(self) -> Dict[str, int]:
        """NLCC work-recycling cache hits, misses and sizes (empty when
        recycling is off)."""
        if self.nlcc_cache_size is None:
            return {}
        constraints, entries = self.nlcc_cache_size
        return {
            "hits": int(self.counts.get("cache.nlcc.hits", 0)),
            "misses": int(self.counts.get("cache.nlcc.misses", 0)),
            "constraints": constraints,
            "entries": entries,
        }

    def stats_document(self) -> Dict[str, object]:
        """Machine-readable run summary (the CLI's ``--json`` output).

        Everything is plain JSON-serializable data, layout version
        ``"schema"``.  Counts come from their one producer: ``messages``
        from the run's merged ``MessageStats``, every other count from a
        window of the run's registry (``nlcc``, ``nlcc_cache``,
        ``scope_view``, ``aux_views`` and the per-level sizes), and
        ``metrics`` is the registry's snapshot.  Match vectors are
        summarized (counts), not dumped — use the dedicated output writers
        for full vectors.
        """
        return {
            "schema": SCHEMA,
            "template": self.template_name,
            "k": self.k,
            "backend": self.backend,
            "prototypes": len(self.prototype_set),
            "matched_vertices": len(self.match_vectors),
            "total_labels": self.total_labels_generated(),
            "match_mappings": self.total_match_mappings(),
            "distinct_matches": self.total_distinct_matches(),
            "candidate_set": {
                "vertices": self.candidate_set_vertices,
                "edges": self.candidate_set_edges,
                "seconds": self.candidate_set_seconds,
            },
            "scope_view": (
                list(self.scope_view) if self.scope_view is not None else None
            ),
            "levels": [
                {
                    "distance": level.distance,
                    "prototypes": level.num_prototypes,
                    "union_vertices": level.union_vertices,
                    "union_edges": level.union_edges,
                    "post_lcc_vertices": level.post_lcc_vertices,
                    "post_lcc_edges": level.post_lcc_edges,
                    **{
                        f"nlcc_{key}": int(level.counts.get(f"nlcc.{key}", 0))
                        for key in ("tokens_launched", "completions",
                                    "dedup_merged")
                    },
                    "search_seconds": level.search_seconds,
                    "infrastructure_seconds": level.infrastructure_seconds,
                    "wall_seconds": level.wall_seconds,
                }
                for level in self.levels
            ],
            "nlcc": {
                key: int(self.counts.get(counter, 0))
                for key, counter in NLCC_COUNTERS.items()
            },
            "nlcc_cache": self.nlcc_cache_stats,
            "aux_views": {
                "built": self.aux_views_built,
                "reuse": self.aux_view_reuse,
                "sizes": [list(size) for size in self.aux_view_sizes],
            },
            "messages": dict(self.message_summary),
            "metrics": (
                self.metrics.snapshot() if self.metrics is not None else {}
            ),
            "totals": {
                "simulated_seconds": self.total_simulated_seconds,
                "infrastructure_seconds": self.total_infrastructure_seconds,
                "wall_seconds": self.total_wall_seconds,
            },
        }

    def __repr__(self) -> str:
        return (
            f"PipelineResult({self.template_name!r}, k={self.k}, "
            f"matched_vertices={len(self.match_vectors)}, "
            f"simulated_seconds={self.total_simulated_seconds:.3f})"
        )
