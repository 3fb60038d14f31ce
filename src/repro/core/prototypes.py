"""Prototype generation through recursive edge removal (§3.1).

From the supplied template ``H0``, prototypes in ``P_k`` are generated
level by level: distance ``δ+1`` prototypes are constructed from distance
``δ`` prototypes by removing one optional edge, subject to the prototype
staying connected.  Isomorphic duplicates are merged (label-preserving
isomorphism that also respects which edges are mandatory), and the
parent → child derivation links are retained: they drive the containment
rule and the match-extension enumeration optimization.  Each prototype
keeps its dedup key and its automorphism count, so every reader of the
tree — the drivers' match counting, the batch executor's class index,
the motif census inversion — reads them off the prototype.  What a
prototype graph's exact shape decides whatever the run — its
automorphism count, its cycles and its constraint walks — is kept once
per process in its :class:`ShapeRecord` (:func:`shape_of`).

A prototype is ``H0`` minus the optional edges set in ``Prototype.mask``.
A level memoizes mask → (child, iso), so a child reached from a second
parent costs nothing, and canonically labels a new child only when a
cheap invariant puts it beside a known prototype (INTERNALS.md §1).

This module owns the key format: :func:`prototype_key`, the
:func:`keyed_labelling` behind it, and :func:`matching_isomorphism`, the
one mandatory-respecting isomorphism between key-equal graphs — composed
from their labellings, so a merged duplicate costs no search.

Counting convention: ``H_{0,0} = H0`` itself is a prototype, so e.g. the
6-clique with distinct labels yields ``1 + 15 + 105 + 455 + 1365 = 1941``
prototypes within ``k = 4`` — the exact number reported in §5.5.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..errors import PrototypeError
from ..graph.graph import Edge, Graph
from ..graph.isomorphism import automorphism_count, canonical_labelling
from . import memos
from .constraints import (
    Cycles, exact_without_full_walk, prefilter_count, simple_cycles,
)
from .kernels import structural_fingerprint
from .template import PatternTemplate


class ChildLink:
    """Derivation link ``parent --remove edge--> child`` (one level down).

    ``iso`` maps vertices of ``parent.graph - removed_edge`` onto vertices
    of the (dedup-representative) child prototype: composing a child match
    with ``iso`` yields a match of the parent minus the removed edge, which
    becomes a parent match whenever the removed edge's image is present.
    """

    __slots__ = ("parent", "child", "removed_edge", "iso")

    def __init__(
        self,
        parent: "Prototype",
        child: "Prototype",
        removed_edge: Edge,
        iso: Dict[int, int],
    ) -> None:
        self.parent = parent
        self.child = child
        self.removed_edge = removed_edge
        self.iso = iso

    def __repr__(self) -> str:
        return (
            f"ChildLink({self.parent.name} -{self.removed_edge}-> {self.child.name})"
        )


class Prototype:
    """One connected edit-distance-``distance`` variant of the template.

    ``key`` (:func:`prototype_key`), ``labelling`` (the canonical
    labelling behind it) and ``automorphisms`` (the number of
    label-preserving automorphisms of ``graph``) are facts of the tree:
    dedup hands each child the key and labelling it computed, the key is
    otherwise computed on first read, and ``automorphisms`` is read off
    the graph's :class:`ShapeRecord`; each is kept.
    """

    def __init__(
        self,
        proto_id: int,
        distance: int,
        index: int,
        graph: Graph,
        template: PatternTemplate,
        keyed: Optional[Tuple[Tuple, Dict[int, int]]] = None,
        mask: int = 0,
    ) -> None:
        self.id = proto_id
        self.distance = distance
        self.index = index
        self.graph = graph
        self.template = template
        self.name = f"k{distance}_p{index}"
        self.child_links: List[ChildLink] = []
        self.parent_links: List[ChildLink] = []
        self._keyed = keyed
        #: the edges of ``template.edges()`` this prototype lacks, as bits
        self.mask = mask
        self._automorphisms: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def key(self) -> Tuple:
        return self._keyed_labelling()[0]

    @property
    def labelling(self) -> Dict[int, int]:
        """The canonical labelling behind ``key`` (:func:`keyed_labelling`)."""
        return self._keyed_labelling()[1]

    def _keyed_labelling(self) -> Tuple[Tuple, Dict[int, int]]:
        if self._keyed is None:
            self._keyed = keyed_labelling(
                self.graph, self.template.mandatory_edges
            )
        return self._keyed

    @property
    def automorphisms(self) -> int:
        """Read off the graph's :class:`ShapeRecord` once, then kept."""
        if self._automorphisms is None:
            self._automorphisms = shape_of(self.graph).automorphisms
        return self._automorphisms

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def removed_edges(self) -> List[Edge]:
        """Edges of ``H0`` absent from this prototype."""
        edges = self.template.edges()
        return [e for i, e in enumerate(edges) if self.mask >> i & 1]

    def children(self) -> List["Prototype"]:
        return [link.child for link in self.child_links]

    def parents(self) -> List["Prototype"]:
        return [link.parent for link in self.parent_links]

    def __repr__(self) -> str:
        return f"Prototype({self.name}, m={self.num_edges})"


class ShapeRecord:
    """What a prototype graph's exact shape decides, whatever the run.

    One record per process per
    :func:`~repro.core.kernels.structural_fingerprint` (:func:`shape_of`),
    the exact-identity key ``cached_kernel`` uses, not a canonical form:
    graphs with one key have the same vertex ids, labels, edges and edge
    labels, so whatever is read off the record holds for each of them.
    The record keeps a copy of the first such graph it was handed, so a
    caller that edits its graph later changes no record.  The automorphism
    count, the simple cycles and the pre-filter count are computed on
    first read; ``walks`` holds the constraint walks built so far, per
    orientation (:class:`~repro.core.ordering.ShapeWalks`).
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph.copy()
        #: orientation key -> ``ShapeWalks`` (filled by the planner)
        self.walks: Dict[Tuple, Any] = {}

    @cached_property
    def automorphisms(self) -> int:
        """Label-preserving automorphisms of the graph."""
        return automorphism_count(self.graph)

    @cached_property
    def cycles(self) -> Cycles:
        return simple_cycles(self.graph)

    @cached_property
    def prefilter_count(self) -> int:
        return prefilter_count(self.graph, self.cycles)

    @cached_property
    def exact_without_full_walk(self) -> bool:
        return exact_without_full_walk(self.graph)


#: shape records by structural fingerprint, process-wide
_SHAPES: Dict[Tuple, ShapeRecord] = memos.table()


def shape_of(graph: Graph) -> ShapeRecord:
    """``graph``'s :class:`ShapeRecord`, built on its fingerprint's first
    lookup; lookups count as ``cache.shape.*``."""
    key = structural_fingerprint(graph)
    record = _SHAPES.get(key)
    memos.count("shape", record is not None)
    if record is None:
        record = _SHAPES[key] = ShapeRecord(graph)
    return record


class PrototypeSet:
    """All prototypes within edit-distance ``k``, organized by level."""

    def __init__(self, template: PatternTemplate, levels: List[List[Prototype]]) -> None:
        self.template = template
        self.levels = levels

    @property
    def max_distance(self) -> int:
        return len(self.levels) - 1

    def at(self, distance: int) -> List[Prototype]:
        """Prototypes at exactly ``distance`` (empty beyond max)."""
        if distance < 0:
            raise PrototypeError("distance must be non-negative")
        return self.levels[distance] if distance < len(self.levels) else []

    def all(self) -> List[Prototype]:
        return [proto for level in self.levels for proto in level]

    def __len__(self) -> int:
        return sum(len(level) for level in self.levels)

    def __iter__(self) -> Iterator[Prototype]:
        return iter(self.all())

    def by_id(self, proto_id: int) -> Prototype:
        for proto in self.all():
            if proto.id == proto_id:
                return proto
        raise PrototypeError(f"no prototype with id {proto_id}")

    def level_counts(self) -> List[int]:
        """``[1, |k=1|, |k=2|, ...]`` — the ``#p`` breakdown of the figures."""
        return [len(level) for level in self.levels]

    def __repr__(self) -> str:
        return (
            f"PrototypeSet({self.template.name!r}, k<={self.max_distance}, "
            f"counts={self.level_counts()})"
        )


def prototype_key(graph: Graph, mandatory_edges: FrozenSet[Edge]) -> Tuple:
    """The key prototype dedup and the batch executor merge graphs by.

    ``mandatory_edges`` holds canonical edges, as
    :attr:`PatternTemplate.mandatory_edges` does.  Mandatory edges are
    subdivided with a reserved-label dummy vertex (the halves keep the
    edge's label) before canonicalization, so two graphs get equal keys
    iff some label-preserving isomorphism maps mandatory edges onto
    mandatory edges and edge labels onto equal labels.  The vertex and
    mandatory-edge counts lead the key: every dummy's label exceeds every
    real label, so with both counts equal the dummies of two key-equal
    graphs correspond, and graphs of different templates compare safely.
    """
    return keyed_labelling(graph, mandatory_edges)[0]


def keyed_labelling(
    graph: Graph, mandatory_edges: FrozenSet[Edge]
) -> Tuple[Tuple, Dict[int, int]]:
    """:func:`prototype_key` and the canonical labelling behind it,
    restricted to ``graph``'s own vertices — what
    :func:`matching_isomorphism` composes."""
    subdivided = [edge for edge in graph.edges() if edge in mandatory_edges]
    aux = graph
    if subdivided:
        aux = graph.copy()
        reserved = max(graph.label_set()) + 1
        first_dummy = max(graph.vertices()) + 1
        for dummy, (u, v) in enumerate(subdivided, start=first_dummy):
            label = graph.edge_label(u, v)
            aux.remove_edge(u, v)
            aux.add_vertex(dummy, reserved)
            aux.add_edge(u, dummy, label)
            aux.add_edge(dummy, v, label)
    form, position = canonical_labelling(aux)
    labelling = {v: position[v] for v in graph.vertices()}
    return (graph.num_vertices, len(subdivided), form), labelling


def matching_isomorphism(
    first: Dict[int, int], second: Dict[int, int]
) -> Dict[int, int]:
    """The label-preserving iso ``first graph → second graph`` between
    two graphs with equal :func:`prototype_key`, from their
    :func:`keyed_labelling` labellings: the first's followed by the
    inverse of the second's, O(|V|) and no search.

    It maps mandatory edges onto mandatory edges and edge labels onto
    equal labels: the key's form lists the subdivided graph's labels and
    edges by position, so equal forms make the composition an
    isomorphism of the subdivided graphs, dummy onto dummy.  Real
    vertices land on real vertices because equal counts leading the key
    give both graphs the same largest real label, and every dummy's label
    exceeds it.
    """
    vertex_at = {position: v for v, position in second.items()}
    return {v: vertex_at[position] for v, position in first.items()}


class _EdgeMasks:
    """H0's edges numbered in ``template.edges()`` order, so connectivity
    and the dedup invariant are read off a mask without building a graph."""

    def __init__(self, template: PatternTemplate) -> None:
        index = {v: i for i, v in enumerate(template.vertices())}
        self.labels = [template.label(v) for v in index]
        #: per vertex: (neighbour index, edge bit, edge class)
        self.incident: List[List[Tuple[int, int, int]]] = [[] for _ in index]
        #: (bit, edge) of every optional edge
        self.optional: List[Tuple[int, Edge]] = []
        classes: Dict[Tuple, int] = {}
        for i, (u, v) in enumerate(template.edges()):
            mandatory = (u, v) in template.mandatory_edges
            ends = sorted((template.label(u), template.label(v)))
            edge_class = classes.setdefault(
                (*ends, template.graph.edge_label(u, v), mandatory), len(classes)
            )
            self.incident[index[u]].append((index[v], 1 << i, edge_class))
            self.incident[index[v]].append((index[u], 1 << i, edge_class))
            if not mandatory:
                self.optional.append((1 << i, (u, v)))

    def connected(self, mask: int) -> bool:
        seen, stack = 1, [0]
        while stack:
            for w, bit, _ in self.incident[stack.pop()]:
                if not mask & bit and not seen >> w & 1:
                    seen |= 1 << w
                    stack.append(w)
        return seen == (1 << len(self.labels)) - 1

    def invariant(self, mask: int) -> Tuple:
        """Per vertex, its label and its kept edges' classes (end labels,
        edge label, mandatory flag): equal for key-equal graphs."""
        return tuple(sorted(
            (label, tuple(sorted(c for _, bit, c in edges if not mask & bit)))
            for label, edges in zip(self.labels, self.incident)
        ))


def generate_prototypes(
    template: PatternTemplate,
    k: int,
    max_prototypes: Optional[int] = None,
) -> PrototypeSet:
    """Generate all connected prototypes of ``template`` within distance ``k``.

    ``k`` is clamped to the template's maximum meaningful distance (beyond
    which every spanning subgraph is disconnected).  ``max_prototypes``
    guards against accidental explosion (raises :class:`PrototypeError`).
    """
    if k < 0:
        raise PrototypeError("edit-distance k must be non-negative")
    k = min(k, template.max_meaningful_distance())
    mandatory = template.mandatory_edges
    masks = _EdgeMasks(template)

    root = Prototype(0, 0, 0, template.graph, template)  # H0 itself, not a copy
    levels: List[List[Prototype]] = [[root]]
    total = 1

    for distance in range(1, k + 1):
        #: removed-edge mask -> (child, iso), or None when disconnected
        memo: Dict[int, Optional[Tuple[Prototype, Dict[int, int]]]] = {}
        buckets: Dict[Tuple, List[Prototype]] = {}
        level: List[Prototype] = []
        for parent in levels[-1]:
            for bit, edge in masks.optional:
                mask = parent.mask | bit
                if mask == parent.mask:
                    continue
                if mask not in memo and masks.connected(mask):
                    graph = parent.graph.copy()
                    graph.remove_edge(*edge)
                    members = buckets.setdefault(masks.invariant(mask), [])
                    keyed = None
                    if members:  # only a collision pays a canonical labelling
                        keyed = key, labelling = keyed_labelling(graph, mandatory)
                        memo[mask] = next((
                            (other, matching_isomorphism(labelling, other.labelling))
                            for other in members if other.key == key
                        ), None)
                    if memo.get(mask) is None:
                        child = Prototype(
                            total, distance, len(level), graph, template, keyed, mask
                        )
                        total += 1
                        if max_prototypes is not None and total > max_prototypes:
                            raise PrototypeError(
                                f"prototype budget exceeded ({max_prototypes}); "
                                f"lower k or raise the budget"
                            )
                        level.append(child)
                        members.append(child)
                        memo[mask] = (child, {v: v for v in graph.vertices()})
                found = memo.setdefault(mask, None)
                if found is not None:
                    link = ChildLink(parent, found[0], edge, found[1])
                    parent.child_links.append(link)
                    found[0].parent_links.append(link)
        if not level:
            break
        levels.append(level)
    return PrototypeSet(template, levels)
