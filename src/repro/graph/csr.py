"""The frozen CSR form of a graph — what the array stack searches.

The paper's pipeline starts from a symmetrised, de-duplicated CSR
(HavoqGT ingest, §5).  :class:`GraphCsr` is that structure: every
undirected edge stored once per direction, rows sorted by destination,
a ``mirror`` permutation mapping each directed edge to its reverse,
dense vertex-label codes, per-edge canonical label-pair codes and
optional edge-label codes.

There is one way to build a root CSR — :meth:`GraphCsr.from_columns`,
from dense ``(src, dst)`` index columns.  The edge-list reader
(:mod:`repro.graph.io`) hands it the parsed file; ``GraphCsr(graph)``
flattens a dict :class:`~repro.graph.graph.Graph` into the same columns.
Views (:meth:`GraphCsr.induced_view`) inherit the row order, so on
*every* CSR the
directed edges are sorted by ``(src, dst)`` and the sorted pair table
behind :meth:`GraphCsr.edge_positions` is the identity.

The dict-land members ``graph`` and ``index_of`` are built on first
read, on roots and views alike: an array search never asks.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Set, Tuple

import numpy as np

from .graph import Edge, Graph

#: (src index, dst index, label) of the labelled edges, in input order
EdgeLabelColumns = Tuple[np.ndarray, np.ndarray, np.ndarray]

_FROZEN_SLOTS = (
    "order", "indptr", "indices", "src", "mirror", "degrees",
    "zero_degree", "label_codes", "vid_gt", "pair_code",
)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal values (sorted input)."""
    starts = np.empty(ordered.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def first_appearance_codes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(codes, distinct)``: distinct values numbered by first appearance.

    ``distinct[codes] == values`` and ``distinct`` lists each value once,
    in the order a left-to-right scan meets it — the order a dict filled
    by that scan would have.
    """
    if values.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), values[:0]
    by_value = np.argsort(values)
    new = _run_starts(values[by_value])
    first = np.minimum.reduceat(by_value, np.flatnonzero(new))
    appearance = np.argsort(first)
    rank = np.empty(first.shape[0], dtype=np.int64)
    rank[appearance] = np.arange(first.shape[0], dtype=np.int64)
    codes = np.empty(values.shape[0], dtype=np.int64)
    codes[by_value] = rank[np.cumsum(new) - 1]
    return codes, values[first[appearance]]


def sorted_pair_table(
    src: np.ndarray, indices: np.ndarray, num_vertices: int
) -> np.ndarray:
    """The ``pair_keys`` table behind ``GraphCsr.edge_positions``.

    ``src * n + dst`` of every directed edge plus a sentinel (the largest
    int64) so a probe needs no bounds clamp.  CSR rows are sorted by
    destination, so the keys ascend in edge order: a key's position *is*
    its edge.
    """
    keys = np.empty(src.shape[0] + 1, dtype=np.int64)
    np.multiply(src, np.int64(num_vertices), out=keys[:-1])
    keys[:-1] += indices
    keys[-1] = np.iinfo(np.int64).max
    keys.flags.writeable = False
    return keys


def _row_bounds(src: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(degrees, indptr)`` of ``n`` rows whose edges are grouped by ``src``."""
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return degrees, indptr


def _decoder(code_of_label: Dict[int, int]) -> np.ndarray:
    """The inverse of a ``label -> dense code`` dict, as a gather table."""
    table = np.zeros(max(code_of_label.values(), default=-1) + 1, dtype=np.int64)
    for label, code in code_of_label.items():
        table[code] = label
    return table


def _graph_columns(
    graph: Graph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[EdgeLabelColumns]]:
    """Flatten a dict graph into the arguments of ``from_columns``."""
    adjacency = graph._adj
    n = len(adjacency)
    order = np.fromiter(adjacency, dtype=np.int64, count=n)
    degrees = np.fromiter(map(len, adjacency.values()), dtype=np.int64, count=n)
    neighbors = np.fromiter(
        chain.from_iterable(adjacency.values()), dtype=np.int64,
        count=int(degrees.sum()),
    )
    by_id = np.argsort(order)
    sorted_ids = order[by_id]

    def dense(ids: np.ndarray) -> np.ndarray:
        return by_id[np.searchsorted(sorted_ids, ids)]

    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    dst = dense(neighbors)
    once = src < dst  # the constructor symmetrises
    labels = np.fromiter(
        map(graph._labels.__getitem__, adjacency), dtype=np.int64, count=n
    )
    edge_labels = None
    labelled = graph._edge_labels
    if labelled:
        ends = np.fromiter(
            chain.from_iterable(labelled), dtype=np.int64, count=2 * len(labelled)
        )
        edge_labels = (
            dense(ends[0::2]),
            dense(ends[1::2]),
            np.fromiter(labelled.values(), dtype=np.int64, count=len(labelled)),
        )
    return order, src[once], dst[once], labels, edge_labels


class GraphCsr:
    """Immutable CSR of a background graph (memoized, see :func:`csr_of`).

    Directed storage: each undirected edge appears once per direction;
    edge ``e`` runs ``src[e] -> indices[e]`` (dense vertex indices), rows
    are sorted by destination, and ``mirror[e]`` is the position of the
    reverse edge.  All arrays are frozen — per-search mutable state lives
    in :class:`~repro.core.arraystate.searchstate.ArraySearchState`.
    """

    __slots__ = (
        "order",
        "indptr",
        "indices",
        "src",
        "mirror",
        "pair_keys",
        "degrees",
        "zero_degree",
        "label_codes",
        "label_ids",
        "num_labels",
        "vid_gt",
        "pair_code",
        "edge_label_codes",
        "edge_label_ids",
        "num_vertices",
        "num_directed_edges",
        "parent",
        "parent_vertex_index",
        "parent_edge_index",
        "_lazy",
    )

    def __new__(cls, graph: Optional[Graph] = None) -> "GraphCsr":
        """``GraphCsr(graph)``: the CSR of a dict graph, through the columns.

        Without an argument this is the bare allocator the constructors
        (``from_columns``, ``induced_view``) fill.
        """
        if graph is None:
            return object.__new__(cls)
        return GraphCsr.from_columns(*_graph_columns(graph), graph=graph)

    @staticmethod
    def from_columns(
        order: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        labels: np.ndarray,
        edge_labels: Optional[EdgeLabelColumns] = None,
        graph: Optional[Graph] = None,
    ) -> "GraphCsr":
        """The root CSR over vertex ids ``order`` and dense edge columns.

        ``src[i] -> dst[i]`` index into ``order``; the columns may repeat
        an edge, give it in either or both directions and hold self loops
        — they are symmetrised, de-duplicated and the loops dropped, as
        the paper does to its raw datasets.  ``labels[i]`` is the label of
        ``order[i]``.  ``edge_labels`` lists the labelled edges (a subset
        of the columns' edges) in input order: the last label given to a
        pair, in either direction, wins.  ``graph`` is the dict graph the
        columns came from, if any; otherwise :attr:`graph` is a facade
        built on first read.

        One ``np.sort`` over the ``src * n + dst`` keys does all of it:
        neighbours of equal keys are duplicates, the sorted keys are the
        pair table, and rows come out sorted by destination.
        """
        csr = GraphCsr.__new__(GraphCsr)
        csr._lazy = {} if graph is None else {"graph": graph}
        csr.parent = None
        csr.parent_vertex_index = None
        csr.parent_edge_index = None
        n = int(order.shape[0])
        stride = np.int64(max(n, 1))
        csr.num_vertices = n
        csr.order = order

        proper = src != dst
        src, dst = src[proper], dst[proper]
        keys = np.concatenate((src * stride + dst, dst * stride + src))
        keys.sort()
        keys = keys[_run_starts(keys)]
        m = int(keys.shape[0])
        csr.num_directed_edges = m
        csr.src = keys // stride
        csr.indices = keys - csr.src * stride
        # the reversed keys are a permutation of the keys: an edge's
        # reverse sits at the rank of its reversed key
        csr.mirror = np.empty(m, dtype=np.int64)
        csr.mirror[np.argsort(csr.indices * stride + csr.src)] = np.arange(
            m, dtype=np.int64
        )
        csr.pair_keys = sorted_pair_table(csr.src, csr.indices, n)
        csr.degrees, csr.indptr = _row_bounds(csr.src, n)
        csr.zero_degree = csr.degrees == 0

        csr.label_codes, distinct_labels = first_appearance_codes(labels)
        csr.label_ids = {
            lab: code for code, lab in enumerate(distinct_labels.tolist())
        }
        csr.num_labels = max(len(csr.label_ids), 1)
        csr.vid_gt = order[csr.indices] > order[csr.src]
        src_code = csr.label_codes[csr.src]
        dst_code = csr.label_codes[csr.indices]
        csr.pair_code = (
            np.minimum(src_code, dst_code) * np.int64(csr.num_labels)
            + np.maximum(src_code, dst_code)
        )

        csr.edge_label_codes = None
        csr.edge_label_ids = {}
        if edge_labels is not None:
            lab_src, lab_dst, lab_value = edge_labels
            proper = lab_src != lab_dst
            lab_keys = (
                np.minimum(lab_src, lab_dst) * stride + np.maximum(lab_src, lab_dst)
            )[proper]
            if lab_keys.shape[0]:
                # stable, so the last of a run of equal keys is the last given
                by_key = np.argsort(lab_keys, kind="stable")
                last = np.append(_run_starts(lab_keys[by_key])[1:], True)
                by_key = by_key[last]
                forward = np.searchsorted(keys, lab_keys[by_key])
                codes, distinct_values = first_appearance_codes(
                    lab_value[proper][by_key]
                )
                codes += 1  # 0 is reserved for unlabelled edges
                csr.edge_label_ids = {
                    lab: code
                    for code, lab in enumerate(distinct_values.tolist(), start=1)
                }
                csr.edge_label_codes = np.zeros(m, dtype=np.int64)
                csr.edge_label_codes[forward] = codes
                csr.edge_label_codes[csr.mirror[forward]] = codes
                csr.edge_label_codes.flags.writeable = False

        for name in _FROZEN_SLOTS:
            getattr(csr, name).flags.writeable = False
        return csr

    def induced_view(self, vertex_mask: np.ndarray) -> "GraphCsr":
        """Compact CSR over the vertices selected by ``vertex_mask``.

        The auxiliary-graph primitive of the batch executor: once a level
        union (or an M* scope) has pruned the background graph, the
        surviving adjacency is packed into a dense sub-CSR so every later
        search touches arrays sized to the pruned graph instead of ``G``.
        The view is *vertex-induced*: every background edge between two
        surviving vertices is kept (Obs. 1's readmission scans require
        the full induced adjacency, not just currently-alive edges).

        Original vertex ids are preserved in ``order`` — results read off
        a view need no remapping.  The old<->new maps live in
        ``parent_vertex_index`` (dense parent row indices of the kept
        vertices) and ``parent_edge_index`` (parent directed-edge
        positions of the kept edges); ``parent`` links back to the source
        CSR.

        Building a view runs no Python loop: everything is a gather
        through the two index maps, and because renumbering is monotone
        the kept edges stay sorted by ``(src, dst)``.
        """
        keep = np.asarray(vertex_mask, dtype=bool)
        if keep.shape[0] != self.num_vertices:
            raise ValueError(
                f"vertex_mask has {keep.shape[0]} entries for a CSR of "
                f"{self.num_vertices} vertices"
            )
        kept = np.nonzero(keep)[0]
        n_new = int(kept.shape[0])
        edge_keep = keep[self.src] & keep[self.indices]
        eidx = np.nonzero(edge_keep)[0]
        m_new = int(eidx.shape[0])

        view = GraphCsr.__new__(GraphCsr)
        view._lazy = {}
        view.parent = self
        view.parent_vertex_index = kept
        view.parent_edge_index = eidx
        view.num_vertices = n_new
        view.num_directed_edges = m_new
        view.order = self.order[kept]

        # eidx is ascending and the parent's edges are sorted by
        # (src, dst), so the remapped edges are too.
        new_of_old = np.full(self.num_vertices, -1, dtype=np.int64)
        new_of_old[kept] = np.arange(n_new, dtype=np.int64)
        view.src = new_of_old[self.src[eidx]]
        view.indices = new_of_old[self.indices[eidx]]
        view.pair_keys = sorted_pair_table(view.src, view.indices, n_new)
        view.degrees, view.indptr = _row_bounds(view.src, n_new)
        view.zero_degree = view.degrees == 0

        # A surviving edge's reverse also survives (same endpoint pair),
        # so the parent mirror restricted to eidx permutes eidx itself.
        pos_of_old = np.full(self.num_directed_edges, -1, dtype=np.int64)
        pos_of_old[eidx] = np.arange(m_new, dtype=np.int64)
        view.mirror = pos_of_old[self.mirror[eidx]]

        view.label_codes = self.label_codes[kept]
        view.label_ids = self.label_ids
        view.num_labels = self.num_labels
        view.vid_gt = self.vid_gt[eidx]
        view.pair_code = self.pair_code[eidx]
        view.edge_label_ids = self.edge_label_ids
        if self.edge_label_codes is not None:
            view.edge_label_codes = self.edge_label_codes[eidx]
            view.edge_label_codes.flags.writeable = False
        else:
            view.edge_label_codes = None

        for name in _FROZEN_SLOTS:
            getattr(view, name).flags.writeable = False
        return view

    @property
    def graph(self) -> Graph:
        """The dict-land graph this CSR describes, built on first read.

        An array search never asks, so a CSR — root or view — costs no
        Python loop until a dict consumer (``to_search_state``, the
        match-extension probe, ``csr_of(view.graph)``) does.  It is the
        dict graph the CSR was flattened from, if any, else a
        :meth:`Graph.over_csr` facade over this CSR's own arrays.  Parked
        in the ``_lazy`` holder the CSR was constructed with, as
        ``index_of`` is: the CSR itself stays store-free after
        construction (lint R10).  Properties, not ``__getattr__``: a class
        that defines ``__getattr__`` loses the interpreter's fast
        attribute path for every slot read.
        """
        lazy = self._lazy
        if "graph" not in lazy:
            lazy["graph"] = Graph.over_csr(self)
        return lazy["graph"]

    @property
    def index_of(self) -> Dict[int, int]:
        """Vertex id -> dense index, built on first read (see :attr:`graph`)."""
        lazy = self._lazy
        if "index_of" not in lazy:
            lazy["index_of"] = {v: i for i, v in enumerate(self.order.tolist())}
        return lazy["index_of"]

    def edge_positions(self, u_idx: np.ndarray, v_idx: np.ndarray) -> np.ndarray:
        """CSR position of each directed edge ``u_idx[i] -> v_idx[i]``.

        Dense vertex indices in, one int64 per pair out: the position
        ``e`` with ``src[e] == u`` and ``indices[e] == v``, or ``-1`` when
        the background graph has no such edge (one ``searchsorted``; the
        edges are sorted by ``(src, dst)``, so a key's rank is its edge).
        """
        query = u_idx * np.int64(self.num_vertices) + v_idx
        edge = np.searchsorted(self.pair_keys, query)
        edge[self.pair_keys[edge] != query] = -1
        return edge

    def label_pair_code(self, label_a: int, label_b: int) -> Optional[int]:
        """Dense code of an unordered vertex-label pair, if both occur."""
        a = self.label_ids.get(label_a)
        b = self.label_ids.get(label_b)
        if a is None or b is None:
            return None
        lo, hi = (a, b) if a <= b else (b, a)
        return lo * self.num_labels + hi

    def label_histogram(self) -> Dict[int, int]:
        """Vertices per label, read off ``label_codes`` (absent labels skipped)."""
        counts = np.bincount(self.label_codes, minlength=len(self.label_ids))
        return {
            lab: count
            for lab, count in zip(self.label_ids, counts.tolist())
            if count
        }

    def dict_members(
        self,
    ) -> Tuple[Dict[int, Set[int]], Dict[int, int], int, Dict[Edge, int]]:
        """``(adjacency, labels, num_edges, edge_labels)`` of a dict graph.

        What a :class:`Graph` facade over this CSR materialises on the
        first read of a dict member.
        """
        order = self.order.tolist()
        bounds = self.indptr.tolist()
        neighbors = self.order[self.indices].tolist()
        adjacency = {
            v: set(neighbors[bounds[i]:bounds[i + 1]])
            for i, v in enumerate(order)
        }
        label_of_code = _decoder(self.label_ids)
        labels = dict(zip(order, label_of_code[self.label_codes].tolist()))
        edge_labels: Dict[Edge, int] = {}
        if self.edge_label_codes is not None:
            label_of_edge_code = _decoder(self.edge_label_ids)
            forward = np.flatnonzero((self.edge_label_codes > 0) & self.vid_gt)
            edge_labels = dict(zip(
                zip(
                    self.order[self.src[forward]].tolist(),
                    self.order[self.indices[forward]].tolist(),
                ),
                label_of_edge_code[self.edge_label_codes[forward]].tolist(),
            ))
        return adjacency, labels, self.num_directed_edges // 2, edge_labels


def csr_of(graph: Graph) -> GraphCsr:
    """The graph's memoized CSR snapshot (rebuilt after any mutation)."""
    cache = graph._csr_cache
    if cache is None:
        cache = GraphCsr(graph)
        graph._csr_cache = cache
    return cache
