"""Label-preserving (sub)graph isomorphism for small pattern graphs.

Three services live here:

* :func:`find_subgraph_isomorphisms` — a VF2-style backtracking matcher.
  It is the *reference* exact matcher: the pipeline's precision/recall
  guarantees are validated against it in the test suite, and the pipeline
  itself uses it (on heavily pruned graphs) for match enumeration.
* :func:`are_isomorphic` / :func:`canonical_form` — full graph isomorphism
  for template prototypes, used to de-duplicate isomorphic prototypes during
  prototype generation (§3.1: "We also perform isomorphism checks to
  eliminate duplicates"); :func:`canonical_labelling` also returns the
  labelling behind the form, so an isomorphism between two graphs of
  equal form is composed, not searched for.

All routines assume the *pattern* side is small (paper templates have 4–8
vertices); the target graph may be large.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .graph import Graph

Mapping = Dict[int, int]


def _match_order(pattern: Graph) -> List[int]:
    """Vertex order that keeps the partial match connected.

    Starting from the rarest-labeled highest-degree vertex and growing along
    edges dramatically shrinks the backtracking tree (the classic VF2
    ordering heuristic).
    """
    if pattern.num_vertices == 0:
        return []
    label_counts = pattern.label_counts()
    start = min(
        pattern.vertices(),
        key=lambda v: (label_counts[pattern.label(v)], -pattern.degree(v), v),
    )
    order = [start]
    placed = {start}
    while len(order) < pattern.num_vertices:
        frontier = [
            v
            for v in pattern.vertices()
            if v not in placed and pattern.neighbors(v) & placed
        ]
        if not frontier:  # disconnected pattern: start a new component
            frontier = [v for v in pattern.vertices() if v not in placed]
        nxt = max(
            frontier,
            key=lambda v: (
                len(pattern.neighbors(v) & placed),
                pattern.degree(v),
                -v,
            ),
        )
        order.append(nxt)
        placed.add(nxt)
    return order


def find_subgraph_isomorphisms(
    pattern: Graph,
    target: Graph,
    limit: Optional[int] = None,
    candidate_filter: Optional[Callable[[int, int], bool]] = None,
) -> Iterator[Mapping]:
    """Yield label-preserving subgraph isomorphisms of ``pattern`` in ``target``.

    A match is an injective mapping ``pattern vertex → target vertex`` such
    that labels agree and every pattern edge maps to a target edge (the
    standard non-induced subgraph matching of the paper: extra target edges
    between matched vertices are allowed).

    ``limit`` stops after that many matches.  ``candidate_filter(pv, tv)``
    can veto target candidates (the pipeline uses it to restrict enumeration
    to per-vertex candidate-match sets).
    """
    order = _match_order(pattern)
    if not order:
        yield {}
        return
    # Pre-compute, for each position, which already-placed pattern vertices
    # are neighbors of the vertex being placed.
    back_neighbors: List[List[int]] = []
    for idx, pv in enumerate(order):
        placed = order[:idx]
        back_neighbors.append([q for q in placed if q in pattern.neighbors(pv)])

    target_by_label: Dict[int, List[int]] = {}
    for tv in target.vertices():
        target_by_label.setdefault(target.label(tv), []).append(tv)

    mapping: Mapping = {}
    used: set = set()
    emitted = 0
    check_edge_labels = pattern.has_edge_labels

    def candidates(idx: int) -> Iterator[int]:
        pv = order[idx]
        anchors = back_neighbors[idx]
        if anchors:
            # Grow along the already matched structure: candidates are
            # neighbors of an anchor's image.
            base = target.neighbors(mapping[anchors[0]])
            want = pattern.label(pv)
            for tv in base:
                if target.label(tv) == want:
                    yield tv
        else:
            yield from target_by_label.get(pattern.label(pv), ())

    def feasible(idx: int, tv: int) -> bool:
        if tv in used:
            return False
        pv = order[idx]
        if candidate_filter is not None and not candidate_filter(pv, tv):
            return False
        if target.degree(tv) < pattern.degree(pv):
            return False
        tv_neighbors = target.neighbors(tv)
        for anchor in back_neighbors[idx]:
            anchor_image = mapping[anchor]
            if anchor_image not in tv_neighbors:
                return False
            if check_edge_labels:
                required = pattern.edge_label(pv, anchor)
                if required is not None and required != target.edge_label(
                    tv, anchor_image
                ):
                    return False
        return True

    def backtrack(idx: int) -> Iterator[Mapping]:
        nonlocal emitted
        if idx == len(order):
            emitted += 1
            yield dict(mapping)
            return
        pv = order[idx]
        for tv in candidates(idx):
            if not feasible(idx, tv):
                continue
            mapping[pv] = tv
            used.add(tv)
            yield from backtrack(idx + 1)
            used.discard(tv)
            del mapping[pv]
            if limit is not None and emitted >= limit:
                return

    yield from backtrack(0)


def count_subgraph_isomorphisms(pattern: Graph, target: Graph) -> int:
    """Number of label-preserving subgraph isomorphisms (mappings)."""
    return sum(1 for _ in find_subgraph_isomorphisms(pattern, target))


def has_match(pattern: Graph, target: Graph) -> bool:
    """True iff at least one match of ``pattern`` exists in ``target``."""
    return next(find_subgraph_isomorphisms(pattern, target, limit=1), None) is not None


def automorphism_count(graph: Graph) -> int:
    """Number of label-preserving automorphisms of a small graph.

    Used to convert mapping counts into *distinct subgraph* counts:
    ``#subgraphs = #mappings / #automorphisms``.
    """
    if graph.num_vertices == 0:
        return 1
    return count_subgraph_isomorphisms(graph, graph)


def are_isomorphic(first: Graph, second: Graph) -> bool:
    """Label-preserving graph isomorphism (vertex *and* edge labels)."""
    if first.num_vertices != second.num_vertices:
        return False
    if first.num_edges != second.num_edges:
        return False
    if first.label_counts() != second.label_counts():
        return False
    degree_profile = lambda g: sorted(  # noqa: E731 - tiny local helper
        (g.label(v), g.degree(v)) for v in g.vertices()
    )
    if degree_profile(first) != degree_profile(second):
        return False
    if not first.has_edge_labels and not second.has_edge_labels:
        for _mapping in find_subgraph_isomorphisms(first, second, limit=1):
            # Same vertex and edge count with every pattern edge present
            # means the monomorphism is an isomorphism.
            return True
        return False
    label_multiset = lambda g: sorted(  # noqa: E731 - tiny local helper
        g.edge_label(u, v) is not None and g.edge_label(u, v) or -1
        for u, v in g.edges()
    )
    if label_multiset(first) != label_multiset(second):
        return False
    for mapping in find_subgraph_isomorphisms(first, second):
        if all(
            first.edge_label(u, v) == second.edge_label(mapping[u], mapping[v])
            for u, v in first.edges()
        ):
            return True
    return False


def _subdivide_edge_labels(graph: Graph) -> Graph:
    """Encode edge labels as subdivision vertices for canonicalization.

    Each edge-labeled edge ``(u, v, l)`` becomes ``u - x - v`` where the
    dummy ``x`` carries a reserved label derived from ``l``; isomorphic
    edge-labeled graphs produce isomorphic encodings and vice versa.
    """
    offset = max(graph.label_set(), default=0) + 1
    aux = graph.copy()
    next_id = max(graph.vertices()) + 1
    for (u, v), edge_label in sorted(graph.edge_labels().items()):
        aux.remove_edge(u, v)
        aux.add_vertex(next_id, offset + edge_label)
        aux.add_edge(u, next_id)
        aux.add_edge(next_id, v)
        next_id += 1
    return aux


def canonical_form(graph: Graph) -> Tuple:
    """A canonical, hashable form of a small labeled graph.

    Two graphs have equal canonical forms iff they are label-preserving
    isomorphic (vertex labels, and edge labels when present).  The form
    of :func:`canonical_labelling`.
    """
    return canonical_labelling(graph)[0]


def canonical_labelling(graph: Graph) -> Tuple[Tuple, Mapping]:
    """:func:`canonical_form` and the vertex → position labelling that
    produced it.

    Brute force over permutations within (label, degree) refinement
    classes — fine for template prototypes (≤ ~9 vertices).  The form
    lists the labels and the edges by position, so when two graphs have
    equal forms, the first's labelling followed by the inverse of the
    second's is a label-preserving isomorphism between them, with no
    search.  Edge labels are subdivided first; the labelling then also
    places the subdivision vertices (ids above the graph's own).
    """
    if graph.has_edge_labels:
        graph = _subdivide_edge_labels(graph)
    vertices = sorted(graph.vertices())
    n = len(vertices)
    if n == 0:
        return (), {}
    # Refine by (label, degree, sorted neighbor labels) to cut permutations.
    def signature(v: int) -> Tuple:
        return (
            graph.label(v),
            graph.degree(v),
            tuple(sorted(graph.label(w) for w in graph.neighbors(v))),
        )

    groups: Dict[Tuple, List[int]] = {}
    for v in vertices:
        groups.setdefault(signature(v), []).append(v)
    ordered_groups = [groups[key] for key in sorted(groups)]
    head = (
        tuple(graph.label(group[0]) for group in ordered_groups),
        tuple(len(g) for g in ordered_groups),
    )

    best: Optional[Tuple] = None
    best_position: Mapping = {}
    for permutations in itertools.product(
        *(itertools.permutations(group) for group in ordered_groups)
    ):
        position: Mapping = {}
        index = 0
        for perm in permutations:
            for v in perm:
                position[v] = index
                index += 1
        edges = tuple(
            sorted(
                (min(position[u], position[v]), max(position[u], position[v]))
                for u, v in graph.edges()
            )
        )
        if best is None or edges < best:
            best, best_position = edges, position
    assert best is not None
    return (*head, best), best_position
