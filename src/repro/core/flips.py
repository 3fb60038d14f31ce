"""Edge-flip template variants (§3.1's second "interesting search scenario").

The paper notes that besides edge deletion, "edge 'flip' (i.e., swapping
edges while keeping the number of edges constant) fits our pipeline's
design and requires small updates".  A *flip* removes one optional edge
and adds one currently-absent edge, keeping the variant connected and
simple — it models relationships the analyst may have mis-specified.

Implementation: flip variants are generated with isomorphism dedup (like
prototypes), and the whole family is searched through the standard exact
machinery with two pipeline ideas carried over:

* a **family-wide candidate set**: ``M*`` computed against the *envelope*
  template (the union of every variant's edges over the same vertex set)
  is a sound superset for each variant, so it is built once and every
  variant search starts from it;
* **work recycling**: non-local constraints shared between variants (their
  identity keys coincide whenever the walks coincide) hit the same
  :class:`~repro.core.state.NlccCache`.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, Optional, Set, Tuple

from ..errors import TemplateError
from ..graph.algorithms import is_connected
from ..graph.graph import Graph, canonical_edge
from ..graph.isomorphism import canonical_form
from ..runtime.engine import Engine
from ..runtime.messages import MessageStats
from ..runtime.partition import PartitionedGraph
from .ordering import ConstraintPlanner
from .pipeline import PipelineOptions, max_candidate_scope
from .prototypes import Prototype
from .results import PrototypeSearchOutcome
from .search import search_prototype
from .state import NlccCache
from .template import PatternTemplate


def generate_flip_variants(
    template: PatternTemplate,
    flips: int = 1,
    max_variants: Optional[int] = 10_000,
) -> List[PatternTemplate]:
    """All connected variants within ``flips`` edge swaps of the template.

    The original template is variant 0.  Mandatory edges are never removed
    (added edges are considered optional in subsequent flips).  Variants
    are de-duplicated by label-preserving isomorphism.
    """
    if flips < 0:
        raise TemplateError("flips must be non-negative")
    seen = {canonical_form(template.graph): template}
    frontier = [template]
    counter = itertools.count(1)
    for _round in range(flips):
        next_frontier: List[PatternTemplate] = []
        for variant in frontier:
            for flipped in _single_flips(variant):
                key = canonical_form(flipped.graph)
                if key in seen:
                    continue
                if max_variants is not None and len(seen) >= max_variants:
                    raise TemplateError(
                        f"flip variant budget exceeded ({max_variants})"
                    )
                named = PatternTemplate(
                    flipped.graph,
                    mandatory_edges=flipped.mandatory_edges,
                    name=f"{template.name}~flip{next(counter)}",
                )
                seen[key] = named
                next_frontier.append(named)
        frontier = next_frontier
    return list(seen.values())


def _single_flips(template: PatternTemplate) -> List[PatternTemplate]:
    """Every connected simple variant one edge swap away."""
    vertices = template.vertices()
    non_edges = [
        (u, v)
        for i, u in enumerate(vertices)
        for v in vertices[i + 1 :]
        if not template.graph.has_edge(u, v)
    ]
    variants = []
    for removed in template.optional_edges():
        for added in non_edges:
            candidate = template.graph.copy()
            candidate.remove_edge(*removed)
            candidate.add_edge(*added)
            if not is_connected(candidate):
                continue
            variants.append(
                PatternTemplate(
                    candidate,
                    mandatory_edges=template.mandatory_edges,
                    name=template.name,
                )
            )
    return variants


def envelope_template(
    template: PatternTemplate, variants: List[PatternTemplate]
) -> PatternTemplate:
    """The union-of-edges template used for the family-wide ``M*``.

    Sound for every variant: each variant's adjacency is a subset of the
    envelope's, so the at-least-one-neighbor viability test can only keep
    more vertices.
    """
    union = Graph()
    for vertex in template.vertices():
        union.add_vertex(vertex, template.label(vertex))
    for variant in variants:
        for u, v in variant.edges():
            if not union.has_edge(u, v):
                union.add_edge(u, v)
    return PatternTemplate(
        union,
        mandatory_edges=template.mandatory_edges,
        name=template.name + "~envelope",
    )


class FlipResult:
    """Merged results over a flip family."""

    def __init__(self, template: PatternTemplate, flips: int) -> None:
        self.template = template
        self.flips = flips
        self.variants: List[PatternTemplate] = []
        #: variant name → search outcome (exact solution subgraph etc.)
        self.outcomes: Dict[str, PrototypeSearchOutcome] = {}
        #: vertex → set of variant names it matches
        self.match_vectors: Dict[int, Set[str]] = {}
        self.candidate_set_vertices = 0
        self.total_simulated_seconds = 0.0
        self.total_wall_seconds = 0.0

    def matched_vertices(self) -> Set[int]:
        return set(self.match_vectors)

    def variants_with_matches(self) -> List[str]:
        return [
            name for name, outcome in self.outcomes.items() if outcome.has_matches
        ]

    def __repr__(self) -> str:
        return (
            f"FlipResult({self.template.name!r}, variants={len(self.variants)}, "
            f"matched_vertices={len(self.match_vectors)})"
        )


def run_flip_pipeline(
    graph: Graph,
    template: PatternTemplate,
    flips: int = 1,
    options: Optional[PipelineOptions] = None,
    max_variants: Optional[int] = 10_000,
) -> FlipResult:
    """Exact matching over every variant within ``flips`` edge swaps.

    Builds the family-wide candidate set once, then runs the standard
    per-prototype search for each variant with shared NLCC recycling;
    per-variant results carry the usual 100% precision/recall guarantee.
    ``options`` apply as in :func:`~repro.core.pipeline.run_pipeline`:
    backend, tracer, metrics registry, match counting and collection and
    verification.
    """
    options = options or PipelineOptions()
    wall_start = time.perf_counter()
    variants = generate_flip_variants(template, flips, max_variants)
    result = FlipResult(template, flips)
    result.variants = variants

    envelope = envelope_template(template, variants)
    pgraph = PartitionedGraph(
        graph,
        options.num_ranks,
        delegate_degree_threshold=options.delegate_degree_threshold,
        ranks_per_node=options.ranks_per_node,
    )
    mcs_engine = Engine(
        pgraph, MessageStats(options.num_ranks), options.batch_size,
        tracer=options.tracer, metrics=options.metrics,
    )
    base_state = max_candidate_scope(graph, envelope, mcs_engine, options)
    result.candidate_set_vertices = base_state.num_active_vertices
    result.total_simulated_seconds += options.cost_model.makespan(mcs_engine.stats)

    planner = ConstraintPlanner(
        graph, options.include_full_walk, options.constraint_ordering
    )
    cache = NlccCache() if options.work_recycling else None
    for index, variant in enumerate(variants):
        proto = Prototype(index, 0, index, variant.graph.copy(), variant)
        proto.name = variant.name
        state = base_state.for_prototype_search(proto)
        stats = MessageStats(options.num_ranks)
        engine = Engine(
            pgraph, stats, options.batch_size,
            tracer=options.tracer, metrics=options.metrics,
        )
        outcome = search_prototype(
            state,
            proto,
            planner.plan(proto.graph),
            engine,
            cache=cache,
            recycle=options.work_recycling,
            count_matches=options.count_matches,
            collect_matches=options.collect_matches,
            verification=options.verification,
        )
        outcome.simulated_seconds = options.cost_model.makespan(stats)
        result.total_simulated_seconds += outcome.simulated_seconds
        result.outcomes[variant.name] = outcome
        for vertex in outcome.solution_vertices:
            result.match_vectors.setdefault(vertex, set()).add(variant.name)
    result.total_wall_seconds = time.perf_counter() - wall_start
    return result
