"""Match enumeration and counting (§4, "Match Enumeration and Counting").

Enumeration runs on the pruned solution subgraph with per-vertex candidate
roles as a filter, so it is cheap relative to enumerating on the raw graph.
Two strategies:

* :func:`enumerate_matches` — constrained backtracking (the general path);
* :func:`extend_from_child_matches` — the paper's edit-distance-specific
  optimization: a distance-``δ`` prototype differs from its distance
  ``δ+1`` child by one edge, so its matches are exactly the child's matches
  in which that edge's image is present in the background graph.  Reusing
  the child's enumerated matches replaces a full search by one edge probe
  per match (§5.4 reports ~3.9× on 4-Motif/Youtube from this).

Counting conventions: a *mapping* is an assignment of template vertices to
graph vertices; the number of *distinct subgraphs* is mappings divided by
the prototype's automorphism count.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PipelineError
from ..graph.graph import Graph
from ..graph.isomorphism import _match_order, find_subgraph_isomorphisms
from .prototypes import Prototype
from .state import SearchState

Mapping = Dict[int, int]


def enumerate_matches(
    prototype: Prototype,
    state: SearchState,
    limit: Optional[int] = None,
) -> Iterator[Mapping]:
    """Yield match mappings of ``prototype`` within the active state.

    The backtracking search runs on the materialized pruned subgraph and is
    additionally filtered by the per-vertex candidate roles (``ω``).
    """
    pruned = state.to_graph()
    candidates = state.candidates

    def role_filter(template_vertex: int, graph_vertex: int) -> bool:
        return template_vertex in candidates.get(graph_vertex, ())

    yield from find_subgraph_isomorphisms(
        prototype.graph, pruned, limit=limit, candidate_filter=role_filter
    )


def count_match_mappings(prototype: Prototype, state: SearchState) -> int:
    """Number of match mappings of ``prototype`` in the active state."""
    return sum(1 for _ in enumerate_matches(prototype, state))


class ArrayMatchSet:
    """Dense match table produced by :func:`enumerate_matches_array`.

    ``rows[p][col]`` is the *dense CSR index* of the vertex the ``p``-th
    match assigns to pattern vertex ``order[col]``; :meth:`mappings`
    materializes the same per-match dicts :func:`enumerate_matches`
    yields.  Keeping the dense matrix as the stored form lets array
    consumers (:func:`extend_from_child_matches_array`) stay in array land.
    """

    __slots__ = ("order", "rows", "csr", "_mappings")

    def __init__(self, order: Tuple[int, ...], rows: np.ndarray, csr) -> None:
        self.order = order
        self.rows = rows
        self.csr = csr
        self._mappings: Optional[List[Mapping]] = None

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def mappings(self) -> List[Mapping]:
        """Materialize the per-match dicts (cached)."""
        if self._mappings is None:
            if self.rows.shape[1]:
                vid_rows = self.csr.order[self.rows].tolist()
            else:
                vid_rows = [[] for _ in range(self.rows.shape[0])]
            self._mappings = matches_from_paths(self.order, vid_rows)
        return self._mappings

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self.mappings())


def enumerate_matches_array(
    prototype: Prototype,
    astate,
    limit: Optional[int] = None,
) -> ArrayMatchSet:
    """Array form of :func:`enumerate_matches` (vectorized backtracking).

    Runs the same VF2-ordered search as the dict backtracker, but carries
    the whole candidate frontier as one dense matrix per pattern position:
    each extension step is a batched CSR neighbor gather plus vectorized
    role-mask / degree / injectivity / edge-label tests, never touching
    per-vertex dict state.  Emits exactly the mapping *set* the dict
    matcher emits on the written-back state (enumeration order differs, so
    ``limit`` truncates an unspecified order).
    """
    pattern = prototype.graph
    csr = astate.csr
    n = csr.num_vertices
    order = _match_order(pattern)
    if not order:
        return ArrayMatchSet((), np.zeros((1, 0), dtype=np.int64), csr)
    col_of = {pv: col for col, pv in enumerate(order)}
    back_neighbors: List[List[int]] = []
    for idx, pv in enumerate(order):
        placed = order[:idx]
        back_neighbors.append(
            [q for q in placed if q in pattern.neighbors(pv)]
        )

    empty = ArrayMatchSet(
        tuple(order), np.zeros((0, len(order)), dtype=np.int64), csr
    )
    if any(pv not in astate.role_bit for pv in order):
        return empty
    role_column = astate.role_column

    # Pruned view: an edge exists iff its smaller->larger slot is alive
    # with both endpoints active (the same asymmetric-aliveness rule
    # SearchState.to_graph applies); ``sym`` is its symmetric closure for
    # neighbor gathers.
    active = astate.vertex_active
    canon = (
        astate.edge_alive
        & csr.vid_gt
        & active[csr.src]
        & active[csr.indices]
    )
    sym = canon | canon[csr.mirror]
    deg = np.bincount(csr.src[sym], minlength=n).astype(np.int64)

    check_edge_labels = pattern.has_edge_labels

    def required_code(pv: int, anchor: int) -> Optional[int]:
        """CSR code the (pv, anchor) pattern edge demands; None = any."""
        required = pattern.edge_label(pv, anchor)
        if required is None:
            return None
        return csr.edge_label_ids.get(required, -1)

    def slot_labels(slots: np.ndarray) -> np.ndarray:
        if csr.edge_label_codes is None:
            return np.zeros(slots.shape[0], dtype=np.int64)
        return csr.edge_label_codes[slots]

    pv0 = order[0]
    mask_col, bitval = role_column(pv0)
    start = np.nonzero(
        ((mask_col & bitval) != np.uint64(0))
        & (deg >= pattern.degree(pv0))
    )[0]
    rows = start.reshape(-1, 1)

    for idx in range(1, len(order)):
        if not rows.shape[0]:
            return empty
        pv = order[idx]
        anchors = back_neighbors[idx]
        pdeg = pattern.degree(pv)
        mask_col, bitval = role_column(pv)
        if anchors:
            av = rows[:, col_of[anchors[0]]]
            starts = csr.indptr[av]
            counts = csr.indptr[av + 1] - starts
            total = int(counts.sum())
            if total == 0:
                return empty
            row_id = np.repeat(np.arange(rows.shape[0]), counts)
            offsets = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            slots = np.repeat(starts, counts) + offsets
            cand = csr.indices[slots]
            ok = sym[slots]
            ok &= (mask_col[cand] & bitval) != np.uint64(0)
            ok &= deg[cand] >= pdeg
            if check_edge_labels:
                code = required_code(pv, anchors[0])
                if code is not None:
                    ok &= slot_labels(slots) == code
            for col in range(idx):
                ok &= cand != rows[row_id, col]
            for anchor in anchors[1:]:
                # the candidate must also reach this anchor's image over
                # a pruned-view edge (a miss reads slot -1, masked out)
                slot = csr.edge_positions(
                    cand, rows[row_id, col_of[anchor]]
                )
                ok &= (slot >= 0) & sym[slot]
                if check_edge_labels:
                    code = required_code(pv, anchor)
                    if code is not None:
                        ok &= slot_labels(slot) == code
            keep = np.nonzero(ok)[0]
            rows = np.concatenate(
                [rows[row_id[keep]], cand[keep][:, None]], axis=1
            )
        else:
            # Disconnected pattern component: fresh cross product.
            cand = np.nonzero(
                ((mask_col & bitval) != np.uint64(0)) & (deg >= pdeg)
            )[0]
            if not cand.shape[0]:
                return empty
            k, m = rows.shape[0], cand.shape[0]
            row_id = np.repeat(np.arange(k), m)
            tiled = np.tile(cand, k)
            ok = np.ones(k * m, dtype=bool)
            for col in range(idx):
                ok &= tiled != rows[row_id, col]
            keep = np.nonzero(ok)[0]
            rows = np.concatenate(
                [rows[row_id[keep]], tiled[keep][:, None]], axis=1
            )

    if limit is not None and rows.shape[0] > limit:
        rows = rows[:limit]
    return ArrayMatchSet(tuple(order), rows, csr)


def matches_from_paths(
    walk: Sequence[int], rows: Sequence[Sequence[int]]
) -> List[Mapping]:
    """Materialize full-walk match mappings from dense path rows.

    ``rows[p][position]`` is the graph vertex the ``p``-th completed
    full-walk token visited at ``position``; the resulting mapping is
    ``{walk[position]: rows[p][position]}`` — exactly the dict the token
    walk's ``_record_match`` builds one completion at a time.  A walk
    visits repeated roles at consistent vertices by construction, so the
    later position silently overwriting the earlier one is lossless.
    """
    return [
        {role: row[position] for position, role in enumerate(walk)}
        for row in rows
    ]


def distinct_match_count(prototype: Prototype, mapping_count: int) -> int:
    """Convert a mapping count into a distinct-subgraph count.

    No mappings are no subgraphs: the automorphism count is read (and, on
    a prototype's first read, computed) only for a non-zero count.
    """
    if mapping_count == 0:
        return 0
    autos = prototype.automorphisms
    if mapping_count % autos:
        raise PipelineError(
            f"mapping count {mapping_count} not divisible by automorphisms {autos}"
        )
    return mapping_count // autos


def extend_from_child_matches(
    parent: Prototype,
    child: Prototype,
    child_matches: Sequence[Mapping],
    graph: Graph,
) -> List[Mapping]:
    """Derive ``parent`` matches from enumerated matches of one child.

    ``child`` must be a dedup representative linked from ``parent`` (one
    optional edge removed).  Every parent match is a child match (through
    the recorded isomorphism) whose removed edge is present in ``graph``,
    so filtering the child's matches is complete and sound.
    """
    link = next(
        (l for l in parent.child_links if l.child is child),
        None,
    )
    if link is None:
        raise PipelineError(
            f"{child.name} is not a derivation child of {parent.name}"
        )
    a, b = link.removed_edge
    required_label = parent.graph.edge_label(a, b)
    # iso maps (parent − removed_edge) vertices onto child vertices, so the
    # parent-side mapping is m_child ∘ iso.
    iso = link.iso
    matches: List[Mapping] = []
    for child_match in child_matches:
        candidate = {w: child_match[iso[w]] for w in iso}
        if not graph.has_edge(candidate[a], candidate[b]):
            continue
        if required_label is not None and graph.edge_label(
            candidate[a], candidate[b]
        ) != required_label:
            continue
        matches.append(candidate)
    return matches


def extend_from_child_matches_array(
    parent: Prototype,
    child: Prototype,
    child_set: ArrayMatchSet,
) -> ArrayMatchSet:
    """Array form of :func:`extend_from_child_matches`.

    The child's dense match table is permuted through the recorded
    isomorphism onto the parent's vertex order, then the removed edge is
    probed for every match at once with one ``csr.edge_positions`` look-up
    (plus the edge-label test when the parent edge carries one).
    """
    link = next(
        (l for l in parent.child_links if l.child is child),
        None,
    )
    if link is None:
        raise PipelineError(
            f"{child.name} is not a derivation child of {parent.name}"
        )
    a, b = link.removed_edge
    required_label = parent.graph.edge_label(a, b)
    iso = link.iso
    csr = child_set.csr
    child_col = {pv: col for col, pv in enumerate(child_set.order)}
    order = tuple(sorted(iso))
    k = child_set.rows.shape[0]
    if not k:
        return ArrayMatchSet(
            order, np.zeros((0, len(order)), dtype=np.int64), csr
        )
    rows = np.stack(
        [child_set.rows[:, child_col[iso[w]]] for w in order], axis=1
    )
    slot = csr.edge_positions(rows[:, order.index(a)], rows[:, order.index(b)])
    hit = np.flatnonzero(slot >= 0)
    if required_label is not None:
        if csr.edge_label_codes is None:
            hit = hit[:0]
        else:
            code = csr.edge_label_ids.get(required_label, -1)
            hit = hit[csr.edge_label_codes[slot[hit]] == code]
    return ArrayMatchSet(order, rows[hit], csr)
