"""Wildcard vertex labels (§3.1's "other interesting search scenarios").

The paper notes that "wild-card labels on vertices or edges fit our
pipeline's design and require small updates".  This module provides that
update: a template vertex labeled :data:`WILDCARD` matches a background
vertex of *any* label.

Implementation strategy: rather than threading wildcard awareness through
every label comparison in the matching engine, a wildcard query is
compiled into a family of fully-labeled *instantiations* — one per
assignment of background labels to wildcard vertices that can possibly
match (only labels present in the background graph are considered, and a
cheap degree screen prunes hopeless assignments).  Each instantiation runs
through the unchanged exact pipeline, and the results are merged.  This
keeps the precision/recall guarantee trivially intact and reuses all
pipeline optimizations per instantiation.

For templates with few wildcard vertices (the practical case — wildcards
express "some entity of unknown category"), the instantiation count is
``|labels in G| ** #wildcards``, evaluated lazily.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..errors import TemplateError
from ..graph.graph import Graph
from .pipeline import PipelineOptions, run_pipeline
from .results import PipelineResult
from .template import PatternTemplate

#: reserved label marking a wildcard template vertex
WILDCARD = -1


def has_wildcards(template: PatternTemplate) -> bool:
    return any(
        template.label(v) == WILDCARD for v in template.vertices()
    )


def wildcard_vertices(template: PatternTemplate) -> List[int]:
    return [v for v in template.vertices() if template.label(v) == WILDCARD]


def instantiations(
    template: PatternTemplate,
    graph: Graph,
    max_instantiations: Optional[int] = 10_000,
) -> Iterator[PatternTemplate]:
    """Yield fully-labeled instantiations of a wildcard template.

    Wildcard vertices are assigned every combination of labels occurring
    in ``graph``; assignments whose labels cannot possibly support the
    wildcard vertex's template degree are skipped (degree screen).
    """
    wildcards = wildcard_vertices(template)
    if not wildcards:
        yield template
        return
    graph_labels = sorted(graph.label_set())
    if not graph_labels:
        return
    # Degree screen: a label can host wildcard vertex w only if some graph
    # vertex with that label has at least deg(w) neighbors.
    max_degree_by_label: Dict[int, int] = {}
    for v in graph.vertices():
        label = graph.label(v)
        degree = graph.degree(v)
        if degree > max_degree_by_label.get(label, -1):
            max_degree_by_label[label] = degree
    feasible: Dict[int, List[int]] = {}
    for w in wildcards:
        needed = template.graph.degree(w)
        feasible[w] = [
            lab for lab in graph_labels if max_degree_by_label[lab] >= needed
        ]
    count = 0
    for assignment in itertools.product(*(feasible[w] for w in wildcards)):
        count += 1
        if max_instantiations is not None and count > max_instantiations:
            raise TemplateError(
                f"wildcard instantiation budget exceeded ({max_instantiations})"
            )
        labels = {v: template.label(v) for v in template.vertices()}
        for w, label in zip(wildcards, assignment):
            labels[w] = label
        name = template.name + "[" + ",".join(map(str, assignment)) + "]"
        yield PatternTemplate.from_edges(
            template.edges(), labels,
            mandatory_edges=template.mandatory_edges, name=name,
        )


class WildcardResult:
    """Merged results of all instantiations of a wildcard query."""

    def __init__(self, template: PatternTemplate, k: int) -> None:
        self.template = template
        self.k = k
        #: instantiation name → its PipelineResult
        self.per_instantiation: Dict[str, PipelineResult] = {}
        #: vertex → set of (instantiation name, prototype id) memberships
        self.match_vectors: Dict[int, Set[Tuple[str, int]]] = {}
        self.total_simulated_seconds = 0.0

    def matched_vertices(self) -> Set[int]:
        return set(self.match_vectors)

    def instantiations_with_matches(self) -> List[str]:
        return [
            name
            for name, result in self.per_instantiation.items()
            if result.match_vectors
        ]

    def total_match_mappings(self) -> Optional[int]:
        totals = [
            result.total_match_mappings()
            for result in self.per_instantiation.values()
        ]
        if any(t is None for t in totals):
            return None
        return sum(totals)

    def __repr__(self) -> str:
        return (
            f"WildcardResult({self.template.name!r}, "
            f"instantiations={len(self.per_instantiation)}, "
            f"matched_vertices={len(self.match_vectors)})"
        )


def run_wildcard_pipeline(
    graph: Graph,
    template: PatternTemplate,
    k: int,
    options: Optional[PipelineOptions] = None,
    max_instantiations: Optional[int] = 10_000,
) -> WildcardResult:
    """Approximate matching for a template with wildcard vertices.

    Runs the exact pipeline once per feasible instantiation and merges the
    per-vertex membership vectors; guarantees are inherited unchanged.
    """
    merged = WildcardResult(template, k)
    # Instantiations differ structurally (distinct label assignments), so
    # the batch executor's class sharing buys nothing here — but routing
    # the sweep through run_batch would still share the per-class caches;
    # kept on the direct loop until wildcard batching is profiled.
    for instantiation in instantiations(template, graph, max_instantiations):
        result = run_pipeline(graph, instantiation, k, options)
        merged.per_instantiation[instantiation.name] = result
        merged.total_simulated_seconds += result.total_simulated_seconds
        for vertex, proto_ids in result.match_vectors.items():
            bucket = merged.match_vectors.setdefault(vertex, set())
            for proto_id in proto_ids:
                bucket.add((instantiation.name, proto_id))
    return merged
