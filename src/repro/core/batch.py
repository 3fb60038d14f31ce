"""Template-library batch executor — shared work across a template set.

Multi-template workloads (motif censuses, wildcard sweeps, query logs)
traditionally loop ``run_pipeline`` once per template, recomputing role
kernels, prototype sets and the ``M*`` background traversal from scratch
every iteration even when templates are label-isomorphic.  This module
compiles the whole library once and shares everything shareable:

* **Classes** — queries are grouped into label-isomorphism classes by
  :func:`~repro.core.prototypes.prototype_key`, the key prototype dedup
  uses.  Each class compiles one prototype tree, compiles its
  :class:`~repro.core.kernels.RoleKernel` once through the process-wide
  kernel cache (on first use, inside its run), and runs one background
  ``M*`` traversal through a shared
  :class:`~repro.core.candidate_set.CandidateSetMemo`.
* **Families** — exact (``k = 0``) classes on the same vertex count are
  absorbed into the densest class's prototype tree, looked up by each
  prototype's ``key``: a ``P4`` query *is* the 4-clique's distance-3
  prototype, so one 4-clique pipeline at ``k_eff`` answers six motif
  queries in a single bottom-up sweep over the tree the absorption
  generated, with the containment rule shrinking every sparser search.
* **Auxiliary views** — each array class pipeline re-materializes
  GraphMini-style pruned CSRs (:meth:`GraphCsr.induced_view`,
  ``pipeline.AUX_VIEW_RATIO``) so sibling prototype searches start from
  the pruned view instead of ``G``.
* **Schedule** — class pipelines run longest-estimate-first (LPT).

Per-query answers are read back off prototype outcomes (match counts are
isomorphism-invariant; absorbed queries map onto the root's prototypes
via explicit label-preserving isomorphisms).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import PrototypeError, TemplateError
from ..graph.graph import Graph
from .candidate_set import CandidateSetMemo
from .memos import memo_stats
from .ordering import estimate_prototype_cost
from .pipeline import PipelineOptions, run_pipeline
from .prototypes import (
    Prototype,
    PrototypeSet,
    generate_prototypes,
    keyed_labelling,
    matching_isomorphism,
)
from .results import SCHEMA, PipelineResult, PrototypeSearchOutcome
from .template import PatternTemplate


class BatchJob:
    """One per-class root pipeline of a template-library batch.

    Plain data: the class representative template, the edit distance the
    root runs at (the max over its absorbed family members), the shared
    prototype set, and a scheduling cost estimate.
    """

    __slots__ = ("name", "template", "k", "prototype_set", "cost")

    def __init__(
        self,
        name: str,
        template: PatternTemplate,
        k: int,
        prototype_set: PrototypeSet,
        cost: float,
    ) -> None:
        self.name = name
        self.template = template
        self.k = k
        self.prototype_set = prototype_set
        self.cost = cost


class BatchQuery:
    """One library entry: a template searched at edit-distance ``k``."""

    __slots__ = ("template", "k", "name")

    def __init__(
        self, template: PatternTemplate, k: int, name: Optional[str] = None
    ) -> None:
        if k < 0:
            raise TemplateError("edit-distance k must be non-negative")
        self.template = template
        self.k = min(k, template.max_meaningful_distance())
        self.name = name if name is not None else template.name


class TemplateClass:
    """A label-isomorphism class: queries answered by one representative.

    ``isos[i]`` maps ``queries[i].template`` vertices onto the
    representative's vertices (mandatory edges onto mandatory edges), so
    every member's answer is the representative's answer up to renaming.
    """

    __slots__ = (
        "name", "key", "k", "representative", "labelling", "queries", "isos",
        "prototypes", "family",
    )

    def __init__(
        self,
        name: str,
        key: Tuple,
        k: int,
        representative: PatternTemplate,
        labelling: Dict[int, int],
    ) -> None:
        self.name = name
        self.key = key
        self.k = k
        self.representative = representative
        #: the representative's canonical labelling (``keyed_labelling``)
        self.labelling = labelling
        self.queries: List[BatchQuery] = []
        self.isos: List[Dict[int, int]] = []
        self.prototypes: Optional[PrototypeSet] = None
        #: set when a family absorbed this class (k = 0 classes only)
        self.family: Optional["TemplateFamily"] = None

    @property
    def num_queries(self) -> int:
        return len(self.queries)


class TemplateFamily:
    """``k = 0`` classes absorbed into one denser root class's pipeline.

    The root runs once at ``k_eff`` (the deepest absorbed prototype's
    distance); each member reads its answer off the root prototype its
    representative is isomorphic to, via ``iso`` (member representative →
    root prototype graph).
    """

    __slots__ = ("root", "k_eff", "members")

    def __init__(self, root: TemplateClass) -> None:
        self.root = root
        self.k_eff = 0
        #: member class → (root prototype, iso rep-graph → proto-graph)
        self.members: Dict[str, Tuple[TemplateClass, Prototype, Dict[int, int]]] = {}

    @property
    def num_members(self) -> int:
        return len(self.members)


class TemplateLibrary:
    """Compiled form of a query batch: classes, families and shared tables.

    Compilation is graph-independent — one library can be executed
    against any number of background graphs via :func:`run_batch`.
    """

    def __init__(
        self,
        queries: Sequence[BatchQuery],
        max_prototypes: Optional[int] = None,
        absorb_families: bool = True,
    ) -> None:
        if not queries:
            raise TemplateError("a template library needs at least one query")
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise TemplateError("batch query names must be unique")
        self.queries = list(queries)
        self.max_prototypes = max_prototypes
        self.classes: List[TemplateClass] = []
        self.families: List[TemplateFamily] = []
        self._group()
        if absorb_families:
            self._absorb()
        self._compile()

    # ------------------------------------------------------------------
    def _group(self) -> None:
        """Partition queries into (structure, k) label-isomorphism classes."""
        by_key: Dict[Tuple, TemplateClass] = {}
        for query in self.queries:
            template = query.template
            structure, labelling = keyed_labelling(
                template.graph, template.mandatory_edges
            )
            key = (structure, query.k)
            cls = by_key.get(key)
            if cls is None:
                cls = TemplateClass(
                    f"class{len(self.classes)}:{template.name}",
                    key, query.k, template, labelling,
                )
                by_key[key] = cls
                self.classes.append(cls)
                iso = {v: v for v in template.vertices()}
            else:
                iso = matching_isomorphism(labelling, cls.labelling)
            cls.queries.append(query)
            cls.isos.append(iso)

    def _absorb(self) -> None:
        """Fold exact classes into the densest structurally-covering root.

        Greedy: the densest remaining ``k = 0`` class becomes a root; its
        full prototype tree is indexed by each prototype's ``key``, and
        every remaining exact class whose representative appears in the
        tree is absorbed at that prototype's distance.  The root keeps the
        tree for :meth:`_compile`.
        """
        remaining = [c for c in self.classes if c.k == 0]
        remaining.sort(
            key=lambda c: (
                -c.representative.num_edges,
                -c.representative.num_vertices,
                c.name,
            )
        )
        while remaining:
            root = remaining.pop(0)
            others = [
                c for c in remaining
                if c.representative.num_vertices == root.representative.num_vertices
            ]
            if not others:
                continue
            rep = root.representative
            try:
                tree = generate_prototypes(
                    rep, rep.max_meaningful_distance(), self.max_prototypes
                )
            except PrototypeError:
                continue  # tree too large to share; root stays standalone
            root.prototypes = tree
            index = {proto.key: proto for proto in tree}
            family = TemplateFamily(root)
            for other in others:
                proto = index.get(other.key[0])
                if proto is None:
                    continue
                iso = matching_isomorphism(other.labelling, proto.labelling)
                family.members[other.name] = (other, proto, iso)
                family.k_eff = max(family.k_eff, proto.distance)
                other.family = family
                remaining.remove(other)
            if family.members:
                # The root itself reads off the (unique) distance-0 proto.
                root_proto = tree.at(0)[0]
                family.members[root.name] = (
                    root, root_proto, {v: v for v in rep.vertices()}
                )
                root.family = family
                self.families.append(family)

    def _compile(self) -> None:
        """Attach the (k-clamped) prototype tree of each run.

        A root whose tree :meth:`_absorb` generated keeps it when the run
        goes as deep as the tree does (the tree was generated at the
        template's maximal distance, so generating at ``k_run`` would
        rebuild the same tree); a shallower run generates its own.
        """
        for cls in self.classes:
            if cls.family is not None and cls.family.root is not cls:
                continue  # absorbed: the family root's tables serve it
            k_run = cls.family.k_eff if cls.family is not None else cls.k
            tree = cls.prototypes
            if tree is None or tree.max_distance > k_run:
                cls.prototypes = generate_prototypes(
                    cls.representative, k_run, self.max_prototypes
                )

    # ------------------------------------------------------------------
    def root_classes(self) -> List[TemplateClass]:
        """Classes that run their own pipeline (standalone or family root)."""
        return [
            cls for cls in self.classes
            if cls.family is None or cls.family.root is cls
        ]

    def jobs(self, graph: Graph) -> List[BatchJob]:
        """Root pipeline jobs for ``graph`` (costs need its label counts)."""
        label_frequencies = graph.label_counts()
        jobs = []
        for cls in self.root_classes():
            k_run = cls.family.k_eff if cls.family is not None else cls.k
            cost = sum(
                estimate_prototype_cost(proto, label_frequencies)
                for proto in cls.prototypes
            )
            jobs.append(
                BatchJob(cls.name, cls.representative, k_run, cls.prototypes, cost)
            )
        return jobs

    def __len__(self) -> int:
        return len(self.queries)

    def __repr__(self) -> str:
        return (
            f"TemplateLibrary(queries={len(self.queries)}, "
            f"classes={len(self.classes)}, families={len(self.families)})"
        )


class BatchItemResult:
    """One query's answer, read off its class (or family root) pipeline."""

    __slots__ = (
        "query", "class_name", "absorbed", "result", "outcome", "iso",
        "matched_vertices", "match_mappings", "distinct_matches",
    )

    def __init__(
        self,
        query: BatchQuery,
        class_name: str,
        absorbed: bool,
        result: PipelineResult,
        outcome: Optional[PrototypeSearchOutcome],
        iso: Dict[int, int],
    ) -> None:
        self.query = query
        self.class_name = class_name
        #: True when the answer came from a family root's prototype tree
        self.absorbed = absorbed
        self.result = result
        self.outcome = outcome
        #: query-template vertices → the graph the counts were read from
        #: (class representative, or the root prototype when absorbed)
        self.iso = iso
        if outcome is not None:
            self.matched_vertices: Set[int] = set(outcome.solution_vertices)
            self.match_mappings = outcome.match_mappings
            self.distinct_matches = outcome.distinct_matches
        else:
            self.matched_vertices = result.matched_vertices()
            self.match_mappings = result.total_match_mappings()
            self.distinct_matches = result.total_distinct_matches()

    def __repr__(self) -> str:
        return (
            f"BatchItemResult({self.query.name!r}, "
            f"vertices={len(self.matched_vertices)}, "
            f"mappings={self.match_mappings})"
        )


class BatchResult:
    """Everything :func:`run_batch` produced, with shared-work counters."""

    def __init__(
        self,
        library: TemplateLibrary,
        items: Dict[str, BatchItemResult],
        class_results: Dict[str, PipelineResult],
        schedule: Dict[str, float],
        memo: CandidateSetMemo,
        kernel_cache: Dict[str, int],
        wall_seconds: float,
        metrics=None,
    ) -> None:
        self.library = library
        self.items = items
        self.class_results = class_results
        #: root job name → scheduling cost estimate, in execution order
        self.schedule = schedule
        self.memo = memo
        #: this batch's share of the process-wide kernel cache's traffic
        self.kernel_cache = kernel_cache
        self.wall_seconds = wall_seconds
        #: the registry the batch ran against (None for hand-built results)
        self.metrics = metrics

    def __getitem__(self, name: str) -> BatchItemResult:
        return self.items[name]

    def __iter__(self):
        return iter(self.items.values())

    def __len__(self) -> int:
        return len(self.items)

    # ------------------------------------------------------------------
    def schedule_costs(self) -> List[Dict[str, object]]:
        """Cost estimate vs measured wall, per root job, in LPT order.

        ``cost_estimate`` is the frequency-model number :func:`run_batch`
        ordered jobs by (:func:`~repro.core.ordering
        .estimate_prototype_cost`, arbitrary units); ``wall_seconds`` is
        the root pipeline's measured wall.  Side-by-side they show how
        faithful the static model's *ordering* was — the units differ, so
        only the relative shape is meaningful.
        """
        return [
            {
                "name": name,
                "cost_estimate": cost,
                "wall_seconds": (
                    self.class_results[name].total_wall_seconds
                    if name in self.class_results
                    else 0.0
                ),
            }
            for name, cost in self.schedule.items()
        ]

    def aux_view_totals(self) -> Dict[str, int]:
        """Auxiliary-view reuse summed over every class pipeline."""
        built = sum(r.aux_views_built for r in self.class_results.values())
        reuse = sum(r.aux_view_reuse for r in self.class_results.values())
        return {"built": built, "reuse": reuse}

    def stats_document(self) -> Dict[str, object]:
        """Machine-readable batch summary (the CLI's ``--json`` output)."""
        library = self.library
        per_class = []
        for cls in library.classes:
            root = (
                cls.family.root.name if cls.family is not None else cls.name
            )
            result = self.class_results.get(root)
            per_class.append(
                {
                    "name": cls.name,
                    "template": cls.representative.name,
                    "k": cls.k,
                    "queries": cls.num_queries,
                    "root": root,
                    "reuse": cls.num_queries - 1,
                    "aux_views_built": result.aux_views_built if result else 0,
                    "aux_view_reuse": result.aux_view_reuse if result else 0,
                    # the root pipeline's model traffic
                    "messages": (
                        result.message_summary["total_messages"]
                        if result else 0
                    ),
                }
            )
        return {
            "schema": SCHEMA,
            "queries": len(library.queries),
            "classes": len(library.classes),
            "root_runs": len(self.class_results),
            "families": [
                {
                    "root": family.root.name,
                    "k_eff": family.k_eff,
                    "members": sorted(family.members),
                }
                for family in library.families
            ],
            "schedule": list(self.schedule),
            "schedule_costs": self.schedule_costs(),
            "mstar_memo": {"hits": self.memo.hits, "misses": self.memo.misses},
            "kernel_cache": dict(self.kernel_cache),
            "aux_views": self.aux_view_totals(),
            "per_class": per_class,
            "items": {
                name: {
                    "class": item.class_name,
                    "absorbed": item.absorbed,
                    "matched_vertices": len(item.matched_vertices),
                    "match_mappings": item.match_mappings,
                    "distinct_matches": item.distinct_matches,
                }
                for name, item in sorted(self.items.items())
            },
            "wall_seconds": self.wall_seconds,
            "metrics": (
                self.metrics.snapshot() if self.metrics is not None else {}
            ),
        }

    def __repr__(self) -> str:
        return (
            f"BatchResult(queries={len(self.items)}, "
            f"root_runs={len(self.class_results)}, "
            f"wall_seconds={self.wall_seconds:.3f})"
        )


def run_batch(
    graph: Graph,
    queries: Sequence[BatchQuery],
    options=None,
    library: Optional[TemplateLibrary] = None,
) -> BatchResult:
    """Execute a query batch over ``graph`` with cross-template sharing.

    Pass a pre-compiled ``library`` to reuse one compilation across
    graphs; otherwise the library is compiled from ``queries`` using
    ``options.max_prototypes`` as the budget.  Respects ``options``
    verbatim.  Root jobs run longest-estimate-first, every one through
    :func:`~repro.core.pipeline.run_pipeline` with the batch's shared
    ``M*`` memo.
    """
    if options is None:
        options = PipelineOptions()
    if library is None:
        library = TemplateLibrary(queries, max_prototypes=options.max_prototypes)
    else:
        queries = library.queries

    memos_before = memo_stats()
    memo = CandidateSetMemo()
    schedule: Dict[str, float] = {}
    started = time.perf_counter()
    metrics = options.metrics
    with options.tracer.span(
        "batch", metrics=metrics, queries=len(queries),
        classes=len(library.classes), families=len(library.families),
    ):
        class_results: Dict[str, PipelineResult] = {}
        for job in sorted(library.jobs(graph), key=lambda j: (-j.cost, j.name)):
            schedule[job.name] = job.cost
            class_results[job.name] = run_pipeline(
                graph, job.template, job.k, options,
                prototype_set=job.prototype_set, candidate_memo=memo,
            )
        items: Dict[str, BatchItemResult] = {}
        for cls in library.classes:
            if cls.family is not None:
                family = cls.family
                result = class_results[family.root.name]
                _, proto, rep_iso = family.members[cls.name]
                outcome = result.outcome_for(proto.id)
            else:
                result = class_results[cls.name]
                outcome = None
                rep_iso = None
            for query, member_iso in zip(cls.queries, cls.isos):
                if rep_iso is not None:
                    iso = {v: rep_iso[member_iso[v]] for v in member_iso}
                else:
                    iso = dict(member_iso)
                items[query.name] = BatchItemResult(
                    query, cls.name, cls.family is not None, result, outcome, iso
                )
        wall = time.perf_counter() - started
        metrics.counter("cache.mstar_memo.hits").inc(memo.hits)
        metrics.counter("cache.mstar_memo.misses").inc(memo.misses)
    memos_after = memo_stats()
    return BatchResult(
        library,
        items,
        class_results,
        schedule,
        memo,
        {
            kind: memos_after[f"kernel.{kind}"] - memos_before[f"kernel.{kind}"]
            for kind in ("hits", "misses")
        },
        wall,
        metrics=metrics,
    )


__all__ = [
    "BatchItemResult",
    "BatchJob",
    "BatchQuery",
    "BatchResult",
    "TemplateClass",
    "TemplateFamily",
    "TemplateLibrary",
    "run_batch",
]
