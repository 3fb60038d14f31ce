"""Motif counting via the approximate-matching pipeline (§5.6).

The paper maps motif counting onto its system directly: starting from the
maximal-edge motif (the ``s``-clique, unlabeled), recursive edge removal
generates the remaining connected ``s``-vertex motifs as prototypes, and
the matching system counts matches for all of them in one run.

Two counting conventions matter:

* the pipeline counts **non-induced** (subgraph) occurrences per motif;
* Arabesque-style motif counting reports **vertex-induced** embeddings.

:func:`count_motifs` returns both: induced counts are recovered from the
non-induced ones by inverting the spanning-subgraph overcounting relation
``noninduced(H) = Σ_G  #spanning-subgraphs-of-G-isomorphic-to-H · induced(G)``
(a triangular integer system over the motif set).  The system is read
off the motif tree: each coefficient is a mapping count divided by the
inner motif's ``Prototype.automorphisms``, read off the motif's shape
record (``prototypes.shape_of``), so each shape is counted once per
process.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import PipelineError
from ..graph.graph import Graph
from ..graph.isomorphism import automorphism_count, count_subgraph_isomorphisms
from .pipeline import PipelineOptions, PipelineResult, run_pipeline
from .prototypes import Prototype, PrototypeSet, generate_prototypes
from .template import PatternTemplate, clique_template


def motif_template(size: int) -> PatternTemplate:
    """The unlabeled ``size``-clique — the maximal-edge motif."""
    return clique_template(size, labels=[0] * size, name=f"{size}-motif")


def motif_prototypes(size: int) -> PrototypeSet:
    """All connected ``size``-vertex motifs as a prototype set.

    3 vertices → 2 motifs (triangle, path); 4 vertices → 6 motifs, matching
    the counts quoted in §5.6.
    """
    template = motif_template(size)
    return generate_prototypes(template, template.max_meaningful_distance())


class MotifCounts:
    """Per-motif non-induced and induced counts for one graph."""

    def __init__(
        self,
        size: int,
        prototypes: List[Prototype],
        noninduced: Dict[int, int],
        induced: Dict[int, int],
        result: PipelineResult,
    ) -> None:
        self.size = size
        self.prototypes = prototypes
        #: prototype id → number of distinct non-induced occurrences
        self.noninduced = noninduced
        #: prototype id → number of vertex-induced embeddings
        self.induced = induced
        self.result = result
        #: the :class:`~repro.core.batch.BatchResult` behind a batched
        #: census (None for the single-pipeline and sequential paths)
        self.batch = None

    def by_name(self, induced: bool = True) -> Dict[str, int]:
        counts = self.induced if induced else self.noninduced
        return {proto.name: counts[proto.id] for proto in self.prototypes}

    def total_induced(self) -> int:
        return sum(self.induced.values())

    def __repr__(self) -> str:
        return f"MotifCounts(size={self.size}, induced={self.by_name()})"


def count_motifs(
    graph: Graph,
    size: int,
    options: Optional[PipelineOptions] = None,
    batched: bool = False,
) -> MotifCounts:
    """Count all connected ``size``-vertex motifs of ``graph``.

    Runs the full approximate-matching pipeline on the unlabeled
    ``size``-clique template with maximal edit-distance and counting on.
    ``options.enumeration_optimization`` applies the match-extension
    counting optimization of §4, as in every other driver.  ``batched``
    routes the census through the template-library batch executor
    instead: each motif becomes an exact (``k = 0``) query, family
    absorption folds them all back into one clique-rooted pipeline that
    runs on the clique tree the absorption generated (one tree per
    census), and auxiliary pruned views shrink every level — same counts,
    read off the batch result.  Either way the induced counts are
    inverted from the motif tree's own automorphism counts.
    """
    import dataclasses

    options = options or PipelineOptions()
    if batched:
        return _count_motifs_batched(graph, size, options)
    options = dataclasses.replace(options, count_matches=True)
    template = motif_template(size)
    result = run_pipeline(
        graph, template, template.max_meaningful_distance(), options
    )
    prototypes = result.prototype_set.all()
    noninduced: Dict[int, int] = {}
    for proto in prototypes:
        outcome = result.outcome_for(proto.id)
        if outcome.distinct_matches is None:
            raise PipelineError("motif counting requires count_matches")
        noninduced[proto.id] = outcome.distinct_matches
    induced = induced_from_noninduced(prototypes, noninduced)
    return MotifCounts(size, prototypes, noninduced, induced, result)


def _motif_query_template(proto: Prototype) -> PatternTemplate:
    """One motif prototype as a standalone unlabeled query template."""
    return PatternTemplate.from_edges(
        proto.graph.edges(),
        {v: 0 for v in proto.graph.vertices()},
        name=proto.name,
    )


def _count_motifs_batched(
    graph: Graph, size: int, options: PipelineOptions
) -> MotifCounts:
    """Motif census through :func:`~repro.core.batch.run_batch`.

    The match-extension optimization stays off — it carries dict match
    states, which would disable the array level sweeps the auxiliary
    views live on; the batch path gets its speedup from sharing one
    clique-rooted run and from the level views every array sweep
    builds.
    """
    import dataclasses

    from .batch import BatchQuery, run_batch

    options = dataclasses.replace(
        options,
        count_matches=True,
        enumeration_optimization=False,
    )
    prototypes = motif_prototypes(size).all()
    queries = [
        BatchQuery(_motif_query_template(proto), 0, name=proto.name)
        for proto in prototypes
    ]
    batch = run_batch(graph, queries, options)
    noninduced: Dict[int, int] = {}
    for proto in prototypes:
        distinct = batch[proto.name].distinct_matches
        if distinct is None:
            raise PipelineError("motif counting requires count_matches")
        noninduced[proto.id] = distinct
    induced = induced_from_noninduced(prototypes, noninduced)
    root_result = next(iter(batch.class_results.values()))
    counts = MotifCounts(size, prototypes, noninduced, induced, root_result)
    counts.batch = batch
    return counts


def count_motifs_sequential(
    graph: Graph,
    size: int,
    options: Optional[PipelineOptions] = None,
) -> MotifCounts:
    """The loop-over-``run_pipeline`` census baseline (benchmark foil).

    Runs one independent exact pipeline per connected ``size``-vertex
    motif — recomputing kernels, prototypes and the ``M*`` traversal
    from scratch each time — exactly the per-template pattern the batch
    executor replaces; kept as the batched census's baseline, not a
    pattern for new multi-template code.
    """
    import dataclasses

    options = options or PipelineOptions()
    options = dataclasses.replace(
        options, count_matches=True, enumeration_optimization=False
    )
    prototypes = motif_prototypes(size).all()
    noninduced: Dict[int, int] = {}
    result: Optional[PipelineResult] = None
    for proto in prototypes:
        result = run_pipeline(graph, _motif_query_template(proto), 0, options)
        distinct = result.total_distinct_matches()
        if distinct is None:
            raise PipelineError("motif counting requires count_matches")
        noninduced[proto.id] = distinct
    induced = induced_from_noninduced(prototypes, noninduced)
    assert result is not None
    return MotifCounts(size, prototypes, noninduced, induced, result)


def induced_from_noninduced(
    prototypes: List[Prototype], noninduced: Dict[int, int]
) -> Dict[int, int]:
    """Invert the spanning-subgraph overcounting relation (exact integers).

    Processes motifs in descending edge count: the densest motif's induced
    count equals its non-induced count, and each sparser motif subtracts
    the contributions of all denser supergraph motifs.  ``prototypes`` are
    one tree's motifs (one vertex set), so a coefficient is a mapping
    count divided by the inner prototype's ``automorphisms``.
    """
    ordered = sorted(prototypes, key=lambda p: -p.num_edges)
    induced: Dict[int, int] = {}
    for inner in ordered:
        value = noninduced[inner.id]
        for outer in ordered:
            if outer.num_edges <= inner.num_edges:
                continue
            coefficient = (
                count_subgraph_isomorphisms(inner.graph, outer.graph)
                // inner.automorphisms
            )
            value -= coefficient * induced[outer.id]
        if value < 0:
            raise PipelineError(
                "negative induced count — inconsistent non-induced inputs"
            )
        induced[inner.id] = value
    return induced


def spanning_subgraph_count(inner: Graph, outer: Graph) -> int:
    """Number of spanning subgraphs of ``outer`` isomorphic to ``inner``.

    Both graphs have the same vertex count, so every monomorphism is a
    vertex bijection; dividing by ``inner``'s automorphisms counts distinct
    edge subsets.
    """
    if inner.num_vertices != outer.num_vertices:
        return 0
    return count_subgraph_isomorphisms(inner, outer) // automorphism_count(inner)
