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
from typing import Dict, List, Optional, Set

from ..errors import TemplateError
from ..graph.algorithms import is_connected
from ..graph.graph import Graph
from ..graph.isomorphism import canonical_form
from .pipeline import (
    PipelineOptions,
    _starting_scope,
    charge,
    merge_message_stats,
    planner_for,
    reject_extension,
    run_scope,
    search_one,
    search_seconds,
)
from .prototypes import Prototype, prototype_key
from .results import PrototypeSearchOutcome
from .state import NlccCache
from .template import PatternTemplate


def generate_flip_variants(
    template: PatternTemplate,
    flips: int = 1,
    max_variants: Optional[int] = 10_000,
) -> List[PatternTemplate]:
    """All connected variants within ``flips`` edge swaps of the template.

    The original template is variant 0.  Mandatory edges are never removed
    (added edges are considered optional in subsequent flips).  The search
    frontier is de-duplicated by :func:`~repro.core.prototypes.prototype_key`
    — label-preserving isomorphism that maps mandatory edges onto
    mandatory edges, since two shapes whose mandatory edges sit elsewhere
    allow different flips — and one variant is returned per shape
    (label-preserving isomorphism alone), the first one reached.
    ``max_variants`` bounds the frontier classes explored.
    """
    if flips < 0:
        raise TemplateError("flips must be non-negative")
    mandatory = template.mandatory_edges
    explored = {prototype_key(template.graph, mandatory)}
    shapes = {canonical_form(template.graph): template}
    frontier = [template]
    counter = itertools.count(1)
    for _round in range(flips):
        next_frontier: List[PatternTemplate] = []
        for variant in frontier:
            for flipped in _single_flips(variant):
                key = prototype_key(flipped.graph, mandatory)
                if key in explored:
                    continue
                if max_variants is not None and len(explored) >= max_variants:
                    raise TemplateError(
                        f"flip variant budget exceeded ({max_variants})"
                    )
                explored.add(key)
                next_frontier.append(flipped)
                shape = canonical_form(flipped.graph)
                if shape not in shapes:
                    shapes[shape] = PatternTemplate(
                        flipped.graph,
                        mandatory_edges=mandatory,
                        name=f"{template.name}~flip{next(counter)}",
                    )
        frontier = next_frontier
    return list(shapes.values())


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
        #: the family's merged message accounting (``M*`` and every
        #: variant search), as ``PipelineResult.message_summary``
        self.message_summary: Dict[str, object] = {}

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

    Builds the family-wide starting scope once, then runs the drivers'
    per-prototype search (:func:`~repro.core.pipeline.search_one`) for
    each variant with shared NLCC recycling; per-variant results carry the
    usual 100% precision/recall guarantee.  ``options`` apply as in
    :func:`~repro.core.pipeline.run_pipeline`, through the same scope and
    deployment step (:func:`~repro.core.pipeline.run_scope`): backend,
    partition, search-space reduction (the envelope's ``M*``),
    ``reload_ranks``, replica deployments (the family's seconds are their
    makespan), the ``M*`` view, tracer, metrics registry, match counting
    and collection; ``enumeration_optimization`` raises (no level below to
    extend from).  Each variant's traffic is charged like a level's.
    """
    options = options or PipelineOptions()
    reject_extension(options, "a flip family")
    wall_start = time.perf_counter()
    variants = generate_flip_variants(template, flips, max_variants)
    result = FlipResult(template, flips)
    result.variants = variants

    scope = run_scope(graph, envelope_template(template, variants), options)
    result.candidate_set_vertices = scope.base.num_active_vertices
    all_stats = [scope.mstar_stats]
    planner = planner_for(graph, options)
    cache = NlccCache() if options.work_recycling else None
    for index, variant in enumerate(variants):
        proto = Prototype(index, 0, index, variant.graph.copy(), variant)
        proto.name = variant.name
        outcome, stats = search_one(
            proto, *_starting_scope(proto, scope.base, None, options),
            scope.search_pgraph, planner, cache, options, options.tracer,
            options.metrics, collect_matches=options.collect_matches,
        )
        charge(outcome, stats, options, all_stats)
        result.outcomes[variant.name] = outcome
        for vertex in outcome.solution_vertices:
            result.match_vectors.setdefault(vertex, set()).add(variant.name)
    result.total_simulated_seconds = search_seconds(
        list(result.outcomes.values()), options, planner.label_frequencies,
        options.cost_model.makespan(scope.mstar_stats) + scope.reload_seconds,
    )
    result.message_summary = merge_message_stats(all_stats)
    result.total_wall_seconds = time.perf_counter() - wall_start
    return result
