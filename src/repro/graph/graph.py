"""Vertex-labeled undirected simple graphs.

This is the in-memory representation shared by every subsystem: the
background graph ``G``, search templates ``H0``, prototypes, candidate sets
and solution subgraphs are all :class:`Graph` instances.

The representation favours the access patterns of the matching pipeline:

* adjacency is stored as ``dict[int, set[int]]`` because pruning deletes
  vertices and edges constantly and needs O(1) membership tests;
* labels are stored per vertex in a parallel dict.

Graphs are *simple* (no self loops, no parallel edges) and *undirected*
(``(u, v)`` implies ``(v, u)``), matching §2 of the paper.

The array stack searches a graph's frozen CSR
(:func:`repro.graph.csr.csr_of`, memoized in ``_csr_cache``), and a graph
read from a file *starts* as one: :meth:`Graph.over_csr` wraps a CSR in
a graph whose dicts are built on the first read of one
(:class:`_CsrBackedGraph`).  Sizes and the label histogram answer from
the arrays, so a run that stays in array-land never builds them.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..errors import GraphError

Edge = Tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """An undirected, vertex-labeled, simple graph.

    Parameters
    ----------
    directed:
        Kept for API symmetry; only undirected graphs are supported (the
        paper's setting).  Passing ``True`` raises :class:`GraphError`.
    """

    __slots__ = (
        "_adj", "_labels", "_num_edges", "_edge_labels",
        "_csr_cache", "_label_counts",
    )

    def __init__(self, directed: bool = False) -> None:
        if directed:
            raise GraphError("only undirected graphs are supported")
        self._adj: Dict[int, Set[int]] = {}
        self._labels: Dict[int, int] = {}
        self._num_edges = 0
        #: optional edge labels (canonical edge -> label); empty when the
        #: graph is plain vertex-labeled, keeping every hot path unchanged
        self._edge_labels: Dict[Edge, int] = {}
        #: memoized frozen CSR (see graph/csr.GraphCsr); any mutation
        #: invalidates it so stale adjacency can never be reused
        self._csr_cache = None
        #: memoized label histogram (see :meth:`label_counts`); dropped
        #: with the CSR by every mutator
        self._label_counts: Optional[Dict[int, int]] = None

    @staticmethod
    def over_csr(csr) -> "Graph":
        """The graph a :class:`~repro.graph.csr.GraphCsr` describes.

        Its four dict members stay unset until something reads one (see
        :class:`_CsrBackedGraph`); from then on it is a plain ``Graph``.
        """
        graph = _CsrBackedGraph.__new__(_CsrBackedGraph)
        graph._csr_cache = csr
        graph._label_counts = None
        return graph

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: int, label: int = 0) -> None:
        """Add ``vertex`` with ``label``; relabels if it already exists."""
        if vertex not in self._adj:
            self._adj[vertex] = set()
        self._labels[vertex] = label
        self._csr_cache = self._label_counts = None

    def add_edge(self, u: int, v: int, label: Optional[int] = None) -> bool:
        """Add the undirected edge ``(u, v)``, optionally edge-labeled.

        Both endpoints must already exist.  Returns ``True`` if the edge was
        new, ``False`` if it was already present (whose label, if given, is
        updated).  Self loops are rejected.
        """
        if u == v:
            raise GraphError(f"self loop rejected: ({u}, {v})")
        if u not in self._adj:
            raise GraphError(f"unknown vertex {u}")
        if v not in self._adj:
            raise GraphError(f"unknown vertex {v}")
        if v in self._adj[u]:
            if label is not None:
                self._edge_labels[canonical_edge(u, v)] = label
                self._csr_cache = None
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        if label is not None:
            self._edge_labels[canonical_edge(u, v)] = label
        self._csr_cache = self._label_counts = None
        return True

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``(u, v)``; raises if absent."""
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError as exc:
            raise GraphError(f"edge ({u}, {v}) not in graph") from exc
        self._num_edges -= 1
        self._edge_labels.pop(canonical_edge(u, v), None)
        self._csr_cache = self._label_counts = None

    def remove_vertex(self, vertex: int) -> None:
        """Remove ``vertex`` and all incident edges; raises if absent."""
        if vertex not in self._adj:
            raise GraphError(f"vertex {vertex} not in graph")
        neighbors = self._adj.pop(vertex)
        for other in neighbors:
            self._adj[other].remove(vertex)
            self._edge_labels.pop(canonical_edge(vertex, other), None)
        self._num_edges -= len(neighbors)
        del self._labels[vertex]
        self._csr_cache = self._label_counts = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        csr = self._csr_cache
        return len(self._adj) if csr is None else csr.num_vertices

    @property
    def num_edges(self) -> int:
        csr = self._csr_cache
        return self._num_edges if csr is None else csr.num_directed_edges // 2

    def __len__(self) -> int:
        return self.num_vertices

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._adj

    def has_vertex(self, vertex: int) -> bool:
        return vertex in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        neighbors = self._adj.get(u)
        return neighbors is not None and v in neighbors

    def vertices(self) -> Iterator[int]:
        """Iterate over vertex identifiers (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over canonical ``(min, max)`` edges, each once."""
        for u, neighbors in self._adj.items():
            for v in neighbors:
                if u <= v:
                    yield (u, v)

    def neighbors(self, vertex: int) -> Set[int]:
        """The neighbor set of ``vertex`` (do not mutate)."""
        try:
            return self._adj[vertex]
        except KeyError as exc:
            raise GraphError(f"vertex {vertex} not in graph") from exc

    def degree(self, vertex: int) -> int:
        return len(self.neighbors(vertex))

    @property
    def has_edge_labels(self) -> bool:
        """True if any edge carries a label."""
        csr = self._csr_cache
        if csr is None:
            return bool(self._edge_labels)
        codes = csr.edge_label_codes
        return codes is not None and bool(codes.any())

    def edge_label(self, u: int, v: int) -> Optional[int]:
        """The label of edge ``(u, v)``, or ``None`` if unlabeled/absent."""
        return self._edge_labels.get(canonical_edge(u, v))

    def edge_labels(self) -> Dict[Edge, int]:
        """A copy of the edge-label map."""
        return dict(self._edge_labels)

    def label(self, vertex: int) -> int:
        try:
            return self._labels[vertex]
        except KeyError as exc:
            raise GraphError(f"vertex {vertex} not in graph") from exc

    def labels(self) -> Dict[int, int]:
        """A copy of the vertex → label mapping."""
        return dict(self._labels)

    def label_set(self) -> Set[int]:
        """The set of distinct labels present in the graph."""
        return set(self._labels.values())

    def label_counts(self) -> Dict[int, int]:
        """Histogram of labels over vertices (a copy; memoized)."""
        counts = self._label_counts
        if counts is None:
            csr = self._csr_cache
            if csr is not None:
                counts = csr.label_histogram()
            else:
                counts = {}
                for label in self._labels.values():
                    counts[label] = counts.get(label, 0) + 1
            self._label_counts = counts
        return dict(counts)

    def vertices_with_label(self, label: int) -> List[int]:
        return [v for v, lab in self._labels.items() if lab == label]

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """A deep, independent copy."""
        clone = Graph()
        clone._labels = dict(self._labels)
        clone._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        clone._edge_labels = dict(self._edge_labels)
        return clone

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """The vertex-induced subgraph on ``vertices``.

        Unknown vertices are ignored so callers can pass candidate sets
        computed on a larger graph.
        """
        keep = {v for v in vertices if v in self._adj}
        sub = Graph()
        for v in keep:
            sub.add_vertex(v, self._labels[v])
        for v in keep:
            for w in self._adj[v]:
                if w in keep and v < w:
                    sub.add_edge(v, w, self._edge_labels.get((v, w)))
        return sub

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """The subgraph induced by the given edges (and their endpoints)."""
        sub = Graph()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise GraphError(f"edge ({u}, {v}) not in graph")
            if u not in sub:
                sub.add_vertex(u, self._labels[u])
            if v not in sub:
                sub.add_vertex(v, self._labels[v])
            sub.add_edge(u, v, self.edge_label(u, v))
        return sub

    # ------------------------------------------------------------------
    # Statistics & export
    # ------------------------------------------------------------------
    def degree_statistics(self) -> "DegreeStatistics":
        """``d_max``, ``d_avg`` and ``d_stdev`` as reported in Table 1."""
        if not self._adj:
            return DegreeStatistics(0, 0.0, 0.0)
        degrees = np.fromiter(
            (len(nbrs) for nbrs in self._adj.values()),
            dtype=np.int64,
            count=len(self._adj),
        )
        return DegreeStatistics(
            int(degrees.max()), float(degrees.mean()), float(degrees.std())
        )

    def __getstate__(self):
        # The CSR cache holds numpy arrays plus a back-reference to the
        # graph; rebuild it lazily on the other side instead of shipping it
        # (worker processes pickle the background graph once per pool).
        return (self._adj, self._labels, self._num_edges, self._edge_labels)

    def __setstate__(self, state) -> None:
        self._adj, self._labels, self._num_edges, self._edge_labels = state
        self._csr_cache = self._label_counts = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._labels == other._labels
            and self._adj == other._adj
            and self._edge_labels == other._edge_labels
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph objects are mutable and unhashable")

    def __repr__(self) -> str:
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"


class _CsrBackedGraph(Graph):
    """A graph whose dicts are not built yet (made by :meth:`Graph.over_csr`).

    Python only calls ``__getattr__`` for a slot that was never set, which
    is how the first read of a dict member lands here: all four are filled
    from the CSR and the instance *becomes* a plain :class:`Graph`.  Every
    mutator reads ``_adj`` before it drops ``_csr_cache``, so the dicts are
    there by the time the CSR they come from is let go.

    A subclass rather than a ``Graph.__getattr__``: a class that defines
    ``__getattr__`` loses the interpreter's fast attribute path on every
    instance, and every template and prototype is a ``Graph`` (measured
    2.6x on ``label`` / ``neighbors`` / ``degree``, 8 % of a
    ``clique-explore`` round).
    """

    __slots__ = ()

    def __getattr__(self, name: str):
        if name not in ("_adj", "_labels", "_num_edges", "_edge_labels"):
            raise AttributeError(name)
        (
            self._adj, self._labels, self._num_edges, self._edge_labels,
        ) = self._csr_cache.dict_members()
        self.__class__ = Graph
        return getattr(self, name)

    def __reduce_ex__(self, protocol):
        self._adj  # pickled (and copied) as the plain Graph this becomes
        return self.__reduce_ex__(protocol)


class DegreeStatistics:
    """Degree summary triple ``(d_max, d_avg, d_stdev)``."""

    __slots__ = ("d_max", "d_avg", "d_stdev")

    def __init__(self, d_max: int, d_avg: float, d_stdev: float) -> None:
        self.d_max = d_max
        self.d_avg = d_avg
        self.d_stdev = d_stdev

    def __iter__(self) -> Iterator[float]:
        return iter((self.d_max, self.d_avg, self.d_stdev))

    def __repr__(self) -> str:
        return (
            f"DegreeStatistics(d_max={self.d_max}, d_avg={self.d_avg:.2f}, "
            f"d_stdev={self.d_stdev:.2f})"
        )


def from_edges(
    edges: Iterable[Edge], labels: Optional[Dict[int, int]] = None
) -> Graph:
    """Build a graph from an edge list, creating vertices on demand.

    ``labels`` supplies vertex labels; missing vertices default to label 0.
    """
    graph = Graph()
    labels = labels or {}
    for u, v in edges:
        if u not in graph:
            graph.add_vertex(u, labels.get(u, 0))
        if v not in graph:
            graph.add_vertex(v, labels.get(v, 0))
        if u != v:
            graph.add_edge(u, v)
    for vertex, label in labels.items():
        graph.add_vertex(vertex, label)
    return graph
