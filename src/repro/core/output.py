"""Result output in the paper's three derived forms (§1, "Target Problem").

The primary product of the pipeline is the per-vertex match vector, but the
paper calls out three derived outputs users need, all with the same
guarantees:

  (i) the union of all the matches;
 (ii) the union of matches for each template version (prototype) separately;
(iii) the full match enumeration for each template version.

This module materializes each form and writes them in documented on-disk
formats (plain text, one record per line) so downstream tooling — or the
``python -m repro`` CLI — can consume results without Python.

File formats
------------
* *label file* (bulk labeling, Def. 3): ``vertex proto_id proto_id ...``
* *union edge list*: ``u v`` per line, canonical order, with a header
  comment naming the prototypes covered;
* *match enumeration*: ``proto_name w0:v0 w1:v1 ...`` — one exact match
  mapping per line, template vertex to graph vertex.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..errors import PipelineError
from ..graph.graph import Edge, Graph
from .arraystate import ArraySearchState, csr_of
from .enumeration import enumerate_matches_array
from .results import PipelineResult

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Derived forms (in memory)
# ----------------------------------------------------------------------
def union_of_all_matches(result: PipelineResult) -> Tuple[Set[int], Set[Edge]]:
    """Form (i): vertices and edges participating in any prototype match."""
    vertices: Set[int] = set(result.match_vectors)
    edges: Set[Edge] = set()
    for outcome in result.outcomes():
        edges |= outcome.solution_edges
    return vertices, edges


def union_per_prototype(
    result: PipelineResult,
) -> Dict[int, Tuple[Set[int], Set[Edge]]]:
    """Form (ii): per-prototype solution subgraphs, keyed by prototype id."""
    return {
        outcome.proto_id: (
            set(outcome.solution_vertices),
            set(outcome.solution_edges),
        )
        for outcome in result.outcomes()
    }


def enumerate_all_matches(
    result: PipelineResult,
    graph: Graph,
    limit_per_prototype: Optional[int] = None,
) -> Iterator[Tuple[str, Dict[int, int]]]:
    """Form (iii): yield ``(prototype name, mapping)`` for every exact match.

    Uses the stored match lists when the run collected them; otherwise
    re-enumerates on each prototype's (small, exact) solution subgraph,
    rebuilt from its ids over ``graph``'s memoized CSR — the run's own —
    with roles seeded by label.
    """
    for outcome in result.outcomes():
        if outcome.matches is not None:
            matches: Sequence[Dict[int, int]] = outcome.matches
            if limit_per_prototype is not None:
                matches = matches[:limit_per_prototype]
            for mapping in matches:
                yield outcome.name, mapping
            continue
        astate = ArraySearchState.from_ids(
            csr_of(graph), outcome.solution_vertices, outcome.solution_edges,
            template=outcome.prototype.graph,
        )
        match_set = enumerate_matches_array(
            outcome.prototype, astate, limit=limit_per_prototype
        )
        for mapping in match_set.mappings():
            yield outcome.name, mapping


def participation_rates(
    result: PipelineResult, graph: Graph
) -> Dict[int, Dict[int, int]]:
    """Def. 3's richer feature variant: per-vertex match participation counts.

    "our techniques could also populate the vector with prototype
    participation rates, should a richer set of features be desired" —
    returns ``{vertex: {prototype id: number of match mappings the vertex
    participates in}}``.  Zero-count entries are omitted.
    """
    proto_ids = {p.name: p.id for p in result.prototype_set}
    rates: Dict[int, Dict[int, int]] = {}
    for name, mapping in enumerate_all_matches(result, graph):
        proto_id = proto_ids[name]
        for vertex in set(mapping.values()):
            bucket = rates.setdefault(vertex, {})
            bucket[proto_id] = bucket.get(proto_id, 0) + 1
    return rates


# ----------------------------------------------------------------------
# Writers
# ----------------------------------------------------------------------
def write_match_labels(result: PipelineResult, path: PathLike) -> int:
    """Write the bulk-labeling output: one matching vertex per line.

    Returns the number of (vertex, prototype) labels written — the
    quantity Fig. 8's bottom row reports.
    """
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"# approximate match vectors: template={result.template_name} "
            f"k={result.k} prototypes={len(result.prototype_set)}\n"
        )
        for vertex in sorted(result.match_vectors):
            ids = sorted(result.match_vectors[vertex])
            handle.write(f"{vertex} " + " ".join(map(str, ids)) + "\n")
            written += len(ids)
    return written


def write_union_subgraph(
    result: PipelineResult,
    path: PathLike,
    proto_id: Optional[int] = None,
) -> int:
    """Write a union-of-matches edge list (all prototypes, or one).

    Returns the number of edges written.
    """
    if proto_id is None:
        vertices, edges = union_of_all_matches(result)
        scope = "all prototypes"
    else:
        per_proto = union_per_prototype(result)
        if proto_id not in per_proto:
            raise PipelineError(f"no outcome for prototype id {proto_id}")
        vertices, edges = per_proto[proto_id]
        scope = f"prototype {proto_id}"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"# union of matches ({scope}): {len(vertices)} vertices, "
            f"{len(edges)} edges\n"
        )
        for u, v in sorted(edges):
            handle.write(f"{u} {v}\n")
    return len(edges)


def write_match_enumeration(
    result: PipelineResult,
    graph: Graph,
    path: PathLike,
    limit_per_prototype: Optional[int] = None,
) -> int:
    """Write the full match enumeration; returns the match count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f"# match enumeration: template={result.template_name} k={result.k}\n"
        )
        for name, mapping in enumerate_all_matches(
            result, graph, limit_per_prototype
        ):
            pairs = " ".join(
                f"{w}:{v}" for w, v in sorted(mapping.items())
            )
            handle.write(f"{name} {pairs}\n")
            count += 1
    return count


def read_match_labels(path: PathLike) -> Dict[int, List[int]]:
    """Read a label file written by :func:`write_match_labels`."""
    vectors: Dict[int, List[int]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            vectors[int(parts[0])] = [int(p) for p in parts[1:]]
    return vectors
