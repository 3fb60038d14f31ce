"""Per-vertex search state (Alg. 3 of the paper).

For every active vertex the paper maintains: the set of template vertices
it may match (``ω``), the active-edge map (``ε``), the satisfied non-local
constraints (``κ``) and the prototype match vector (``ρ``).  Here that
state lives in a :class:`SearchState` (one per search scope — the max
candidate set, a level union, or a single prototype search), plus a global
:class:`NlccCache` for ``κ`` (shared across prototypes, the work-recycling
enabler) and the match vectors collected by the pipeline result.

The background graph itself is never mutated: deactivation just removes
entries from the state, which is how the real system uses bit vectors over
a static CSR.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

import numpy as np

from ..graph.graph import Edge, Graph, canonical_edge


class SearchState:
    """Active vertices, their candidate roles, and active edges.

    ``candidates[v]`` is the set of template vertices (``W0`` ids) vertex
    ``v`` may still match (``ω(v)``); a vertex with no entry is eliminated.
    ``active_edges[v]`` is the set of neighbors reachable over still-active
    edges (``ε(v)``); kept symmetric.
    """

    __slots__ = ("graph", "candidates", "active_edges")

    def __init__(
        self,
        graph: Graph,
        candidates: Dict[int, Set[int]],
        active_edges: Dict[int, Set[int]],
    ) -> None:
        self.graph = graph
        self.candidates = candidates
        self.active_edges = active_edges

    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, graph: Graph, template) -> "SearchState":
        """Full state: every vertex with a template label is a candidate.

        ``template`` is any object exposing ``vertices()``/``label()`` —
        a :class:`~repro.core.template.PatternTemplate` or a prototype.

        Active-edge maps start as the *full* adjacency of each candidate,
        including edges to non-candidate neighbors: until the first LCC
        round eliminates them, visitors travel (and are paid for) over
        those edges, exactly as in Alg. 4 where ``ε(v)`` is initialized to
        the raw adjacency list.  Eliminating these edges once, during max
        candidate set generation, is the traffic optimization §3.1 calls
        out — and what the naïve baseline re-pays for every prototype.
        """
        by_label: Dict[int, Set[int]] = {}
        for w in template.vertices():
            by_label.setdefault(template.label(w), set()).add(w)
        candidates = {}
        for v in graph.vertices():
            roles = by_label.get(graph.label(v))
            if roles:
                candidates[v] = set(roles)
        active_edges = {v: set(graph.neighbors(v)) for v in candidates}
        return cls(graph, candidates, active_edges)

    @classmethod
    def from_ids(
        cls, graph: Graph, vertices: Iterable[int], edges: Iterable[Edge]
    ) -> "SearchState":
        """The scope holding exactly ``vertices`` and the undirected ``edges``.

        Roles stay empty: ``for_prototype_search`` resets them by label
        (see ``ArraySearchState.from_ids``).
        """
        candidates: Dict[int, Set[int]] = {v: set() for v in vertices}
        active_edges: Dict[int, Set[int]] = {v: set() for v in candidates}
        for u, v in edges:
            active_edges.setdefault(u, set()).add(v)
            active_edges.setdefault(v, set()).add(u)
        return cls(graph, candidates, active_edges)

    def copy(self) -> "SearchState":
        return SearchState(
            self.graph,
            {v: set(roles) for v, roles in self.candidates.items()},
            {v: set(nbrs) for v, nbrs in self.active_edges.items()},
        )

    # ------------------------------------------------------------------
    def is_active(self, vertex: int) -> bool:
        return vertex in self.candidates

    def active_vertices(self) -> Iterator[int]:
        return iter(self.candidates)

    @property
    def num_active_vertices(self) -> int:
        return len(self.candidates)

    @property
    def num_active_edges(self) -> int:
        """Edges whose *both* endpoints are still active candidates.

        O(E) per call — callers needing both sizes (or reusing the edge
        count) should call :meth:`active_counts` once instead.
        """
        return self.active_counts()[1]

    def active_counts(self) -> Tuple[int, int]:
        """``(num_active_vertices, num_active_edges)`` in one O(E) pass."""
        candidates = self.candidates
        edges = 0
        for v, nbrs in self.active_edges.items():
            for u in nbrs:
                if u > v and u in candidates:
                    edges += 1
        return len(candidates), edges

    def roles(self, vertex: int) -> Set[int]:
        return self.candidates.get(vertex, set())

    def active_neighbors(self, vertex: int) -> Set[int]:
        return self.active_edges.get(vertex, set())

    def edge_is_active(self, u: int, v: int) -> bool:
        return v in self.active_edges.get(u, ())

    def active_edge_list(self) -> List[Edge]:
        return [
            (u, v)
            for u, nbrs in self.active_edges.items()
            for v in nbrs
            if u < v and v in self.candidates
        ]

    # ------------------------------------------------------------------
    def deactivate_vertex(self, vertex: int) -> None:
        """Remove ``vertex`` and its incident active edges."""
        self.candidates.pop(vertex, None)
        for nbr in self.active_edges.pop(vertex, set()):
            other = self.active_edges.get(nbr)
            if other is not None:
                other.discard(vertex)

    def deactivate_edge(self, u: int, v: int) -> None:
        self.active_edges.get(u, set()).discard(v)
        self.active_edges.get(v, set()).discard(u)

    def remove_role(self, vertex: int, role: int) -> None:
        """Drop one candidate role; deactivates the vertex when none left."""
        roles = self.candidates.get(vertex)
        if roles is None:
            return
        roles.discard(role)
        if not roles:
            self.deactivate_vertex(vertex)

    # ------------------------------------------------------------------
    def to_graph(self) -> Graph:
        """Materialize the active subgraph (labels from the background).

        Vertex *and* edge labels carry over, so edge-labeled prototypes
        can be enumerated against the pruned view directly.
        """
        pruned = Graph()
        edge_label = (
            self.graph.edge_label if self.graph.has_edge_labels else None
        )
        for v in self.candidates:
            pruned.add_vertex(v, self.graph.label(v))
        for u, nbrs in self.active_edges.items():
            for v in nbrs:
                if u < v and v in self.candidates and u in self.candidates:
                    pruned.add_edge(
                        u, v,
                        None if edge_label is None else edge_label(u, v),
                    )
        return pruned

    def for_prototype_search(
        self, prototype, readmit_label_pairs: Iterable[Tuple[int, int]] = ()
    ) -> "SearchState":
        """The starting state for searching one prototype within this scope.

        Implements the containment rule (Obs. 1) faithfully:

        * *vertices*: the active vertices carry over, but candidate roles
          are reset by label — role identity is not transferable across
          isomorphism-deduped prototypes, only vertex participation is;
        * *edges*: active edges survive where their endpoint labels are
          adjacent in the prototype, and *background* edges between active
          vertices are re-admitted for each label pair in
          ``readmit_label_pairs`` — the ``E(l(q_i), l(q_j))`` term of
          Obs. 1 covering the one edge the prototype has beyond the
          children whose solution subgraphs this state unions.
        """
        proto_graph = prototype.graph
        roles_by_label: Dict[int, Set[int]] = {}
        for w in proto_graph.vertices():
            roles_by_label.setdefault(proto_graph.label(w), set()).add(w)
        adjacent_pairs = {
            _label_pair(proto_graph.label(u), proto_graph.label(v))
            for u, v in proto_graph.edges()
        }
        readmit = {_label_pair(*pair) for pair in readmit_label_pairs}

        candidates: Dict[int, Set[int]] = {}
        for v in self.candidates:
            roles = roles_by_label.get(self.graph.label(v))
            if roles:
                candidates[v] = set(roles)
        active_edges: Dict[int, Set[int]] = {v: set() for v in candidates}
        for v in candidates:
            label_v = self.graph.label(v)
            for u in self.active_edges.get(v, ()):
                if u <= v or u not in candidates:
                    continue
                if _label_pair(label_v, self.graph.label(u)) in adjacent_pairs:
                    active_edges[v].add(u)
                    active_edges[u].add(v)
            if readmit:
                for u in self.graph.neighbors(v):
                    if u <= v or u not in candidates:
                        continue
                    pair = _label_pair(label_v, self.graph.label(u))
                    if pair in readmit and pair in adjacent_pairs:
                        active_edges[v].add(u)
                        active_edges[u].add(v)
        return SearchState(self.graph, candidates, active_edges)

    def union_with(self, other: "SearchState") -> None:
        """In-place union (Alg. 1 line #12: accumulate level subgraphs)."""
        for v, roles in other.candidates.items():
            if v in self.candidates:
                self.candidates[v] |= roles
            else:
                self.candidates[v] = set(roles)
                self.active_edges.setdefault(v, set())
        for v, nbrs in other.active_edges.items():
            self.active_edges.setdefault(v, set()).update(nbrs)

    @classmethod
    def empty(cls, graph: Graph) -> "SearchState":
        return cls(graph, {}, {})

    def __repr__(self) -> str:
        return (
            f"SearchState(active_vertices={self.num_active_vertices}, "
            f"active_edges={self.num_active_edges})"
        )


def _label_pair(label_a: int, label_b: int) -> Tuple[int, int]:
    """Canonical unordered label pair."""
    return (label_a, label_b) if label_a <= label_b else (label_b, label_a)


#: the answer for a key the cache has never seen
_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_IDS.flags.writeable = False


class NlccCache:
    """Work-recycling cache of satisfied non-local constraints (``κ``).

    Maps a constraint identity key to the vertices known to have
    satisfied it as token initiators in an earlier (larger-graph) search.
    Skipping a re-check can only *retain* a vertex longer, never eliminate
    one, so recall is unaffected; precision is restored by each prototype's
    final exact verification.

    Each key stores one sorted, duplicate-free, read-only int64 array of
    vertex ids — the form the array token walk probes with a single
    ``searchsorted`` over its live initiators and extends by merging the
    newly satisfied ids, so no per-vertex Python object is ever built on
    that path.  Ids, not dense indices: the cache outlives every scope
    and auxiliary view, and may hold vertices a later scope dropped.
    """

    def __init__(self) -> None:
        self._satisfied: Dict[Hashable, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def is_satisfied(self, key: Hashable, vertex: int) -> bool:
        ids = self.satisfied(key)
        pos = int(np.searchsorted(ids, vertex))
        hit = pos < ids.shape[0] and int(ids[pos]) == vertex
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    def record_bulk(self, hits: int, misses: int) -> None:
        """Fold a vectorized lookup's counts into the hit/miss counters.

        The array token walk tests a whole initiator frontier against the
        cache in one probe; this keeps its counter totals identical to
        the dict path's one :meth:`is_satisfied` call per checked vertex.
        """
        self.hits += hits
        self.misses += misses

    def satisfied(self, key: Hashable) -> np.ndarray:
        """Sorted unique ids cached as satisfied for ``key`` (read-only).

        Empty for an unknown key.  Does **not** touch the hit/miss
        counters (callers account via :meth:`record_bulk`).
        """
        return self._satisfied.get(key, _NO_IDS)

    def mark_satisfied(self, key: Hashable, vertices: Iterable[int]) -> None:
        """Merge ``vertices`` (an id array or any iterable of ids) into ``key``."""
        if not isinstance(vertices, np.ndarray):
            vertices = np.fromiter(vertices, dtype=np.int64)
        known = self._satisfied.get(key)
        if known is None:
            merged = np.unique(vertices)
        elif vertices.shape[0]:
            merged = np.union1d(known, vertices)
        else:
            return
        merged.flags.writeable = False
        self._satisfied[key] = merged

    def known_constraints(self) -> Set[Hashable]:
        return set(self._satisfied)

    def size(self) -> Tuple[int, int]:
        """(number of constraints, total cached vertex entries)."""
        return len(self._satisfied), sum(
            int(ids.shape[0]) for ids in self._satisfied.values()
        )


__all__ = ["NlccCache", "SearchState", "canonical_edge"]
