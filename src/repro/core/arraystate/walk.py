"""The NLCC token walk as one batched frontier (Alg. 5)."""

from __future__ import annotations

import time
from typing import List, Optional

import numpy as np

from ..kernels import RoleKernel
from .accounting import _RoundAccounting
from .searchstate import ArraySearchState

_ZERO = np.uint64(0)


class ArrayWalkOutcome:
    """Raw product of one :func:`array_token_walk` (dense vertex indices).

    ``satisfied_idx`` holds initiators whose token completed (recycled
    initiators are *not* included — callers union them).  Full walks
    (``collect_paths=True``) also hand over their completed tokens as the
    walk's own columns, one entry per completion, in completion order:
    ``path_cols[p]`` holds the dense vertex index at walk position ``p``
    — one row across them is an exact match mapping — and
    ``edge_cols[j]`` the CSR edge position taken at hop ``j + 1``, which
    runs ``path_cols[j] -> path_cols[j + 1]``.  Columns may alias one
    another (a retrace hop appends a carried column) and are never
    written.  ``full_paths`` (completions × walk length) and
    ``full_edges`` (completions × hops) stack them on read.  All four
    are ``None`` on a walk that does not collect paths.

    Two volumes describe the walk: the engine's message counters hold
    what the paper's model *sends* (one message per alive out-edge of
    every frontier row), ``rows_expanded`` what the array backend
    *built* to decide it — one row per alive out-edge on an expansion
    hop, one look-up probe per frontier row on a revisit hop.
    """

    __slots__ = (
        "checked_idx",
        "recycled_idx",
        "satisfied_idx",
        "tokens_launched",
        "completions",
        "dedup_merged",
        "rows_expanded",
        "path_cols",
        "edge_cols",
    )

    def __init__(self) -> None:
        self.checked_idx = np.zeros(0, dtype=np.int64)
        self.recycled_idx = np.zeros(0, dtype=np.int64)
        self.satisfied_idx = np.zeros(0, dtype=np.int64)
        self.tokens_launched = 0
        self.completions = 0
        self.dedup_merged = 0
        self.rows_expanded = 0
        self.path_cols: Optional[List[np.ndarray]] = None
        self.edge_cols: Optional[List[np.ndarray]] = None

    @property
    def full_paths(self) -> Optional[np.ndarray]:
        """``path_cols`` stacked into one completions × walk-length matrix."""
        if self.path_cols is None:
            return None
        return np.stack(self.path_cols, axis=1)

    @property
    def full_edges(self) -> Optional[np.ndarray]:
        """``edge_cols`` stacked into one completions × hops matrix."""
        if self.edge_cols is None:
            return None
        return np.stack(self.edge_cols, axis=1)


def array_token_walk(
    astate: ArraySearchState,
    schedule,
    kernel: RoleKernel,
    engine,
    recycled: Optional[np.ndarray] = None,
    dedup: bool = True,
    collect_paths: bool = False,
) -> ArrayWalkOutcome:
    """Run one NLCC constraint's token walk as a batched frontier (Alg. 5).

    A token generation is a struct-of-arrays frontier: ``cols`` is a list
    of 1-D int64 arrays, one per walk position visited so far (dense CSR
    indices, one entry per live token row), with an integer ``weights``
    entry per row.  A hop to a walk position not visited before expands
    every row over its frontier vertex's alive out-edges via one
    ``np.repeat`` / cumulative-offset gather through an alive-compacted
    adjacency built once per walk.  A *revisit* hop — one that returns to
    a vertex the token already carries (``schedule.same_positions[hop]``
    non-empty: the last hop of every closed walk, about half of all hops)
    — expands nothing: the only out-edge that can survive the identity
    check is the one to the carried vertex, so it is looked up
    (:meth:`GraphCsr.edge_positions`) and kept where it exists and is
    alive *in the hop's direction*.  A simple graph has at most one such
    edge per row, found in frontier order — the very rows, in the very
    order, the expansion would have left.  Either way the candidates are
    then filtered by the per-hop role bit (read through
    :meth:`ArraySearchState.role_column`, ``kernel``'s role layout), the
    required edge-label code and the walk's same/diff identity
    obligations (``schedule`` — see
    :class:`~repro.core.kernels.WalkSchedule`), each identity check a 1-D
    take of one earlier column.  Survivors gather every column once and
    append the new frontier vertex as the next column.

    A full walk's *retrace* hop (``schedule.retrace[hop]`` = ``j``: the
    hop walks hop ``j``'s template edge backwards, as every walk that
    covers a non-Eulerian template must) looks nothing up: its edge is
    ``csr.mirror`` of the edge column the token carries for hop ``j``,
    its target the carried column ``j - 1``, and the role bit, edge label
    and identity checks all held when hop ``j`` bound them.  Only
    ``edge_alive`` of the mirror — aliveness in this hop's direction — is
    tested; when every row passes, the rows stay as they are and the
    carried column itself is appended.  Rows, their order and every count
    (``rows_expanded`` included, one probe per row) are the look-up's.

    Per-(vertex, hop, initiator) dedup: after each hop, the *free* path
    columns (never again read for equality, symmetric in all future
    ``diff`` checks) are sorted per row — ``minimum`` / ``maximum`` when
    there are two of them (the common case), a stacked row sort otherwise;
    rows that then agree on every column describe interchangeable token
    families and are merged by summing weights (one ``np.lexsort`` over
    the columns, a per-column boundary test, ``np.add.reduceat``).  When
    nothing merges the rows keep their expansion order; when something
    does they continue in lexsort order.
    Completion counts stay exact because a completing row contributes its
    weight, and the satisfied initiator (column 0) is pinned.  Hub-vertex
    token storms — many tokens differing only in the order they visited
    interchangeable intermediate vertices — collapse into single weighted
    rows instead of exploding combinatorially.

    Full-walk constraints (``collect_paths``) never fold: every completed
    path is itself the match evidence.  They carry one more column per
    hop, the CSR edge position the token took — known at the moment of
    the hop — and hand both column lists over as they stand at completion
    (:class:`ArrayWalkOutcome`, nothing stacked), so the NLCC reduction
    scatters role bits and walked edges straight from the columns instead
    of searching for them.

    Message accounting mirrors the dict walk's single traversal: one
    message per alive out-edge of every frontier row (receiver-side drops,
    as ``ctx.broadcast`` charges) — on revisit hops too, whether or not
    the row's look-up hits — one visit per seeded candidate and per
    delivered message, flushed as *one* batched round (one barrier, two
    Safra circuits) at the end.  What the model sends does not depend on
    what the backend builds, so the charge is taken in closed form at the
    flush: the walk only keeps each hop's frontier column, and
    :meth:`_RoundAccounting.add_row_traffic` weighs every alive edge by
    the number of rows that sat at its source.  ``rows_expanded`` of the
    outcome counts what was built instead (expansion rows plus look-up
    probes).  Dedup legitimately reduces message counts versus the dict
    walk — fewer live tokens broadcast — so simulated makespans may
    differ; results never do.
    """
    csr = astate.csr
    if astate.roles != kernel.roles:
        raise ValueError("array state and kernel must share one role layout")
    walk = schedule.walk
    walk_len = schedule.length
    retrace = schedule.retrace
    indices = csr.indices
    dedup = dedup and not collect_paths
    #: per hop, the mask column holding its role and the role's bit in it
    hop_roles = [astate.role_column(role) for role in walk]

    hop_codes: Optional[List[Optional[int]]] = None
    ecodes = None
    if schedule.hop_edge_labels is not None:
        hop_codes = [
            None if wanted is None else csr.edge_label_ids.get(wanted, -1)
            for wanted in schedule.hop_edge_labels
        ]
        ecodes = csr.edge_label_codes
        if ecodes is None:
            ecodes = np.zeros(csr.num_directed_edges, dtype=np.int64)

    out = ArrayWalkOutcome()
    if collect_paths:
        none = np.zeros(0, dtype=np.int64)
        out.path_cols = [none] * walk_len
        out.edge_cols = [none] * (walk_len - 1)
    tracing = engine.tracer.enabled
    round_started = time.perf_counter() if tracing else None
    accounting = _RoundAccounting(engine, csr)
    accounting.begin()
    # The dict walk seeds one visitor per candidate (source or not); each
    # dequeued seed is one visit.
    accounting.add_seed_visits(np.nonzero(astate.vertex_active)[0])

    column, bit = hop_roles[0]
    holders = np.nonzero((column & bit) != _ZERO)[0]
    out.checked_idx = holders
    if recycled is not None and recycled.shape[0] and holders.shape[0]:
        # vertex ids already known to satisfy this constraint (the
        # recycling cache, sorted): one membership probe per live initiator
        ids = csr.order[holders]
        pos = np.searchsorted(recycled, ids)
        pos[pos == recycled.shape[0]] = 0
        rec = recycled[pos] == ids
        out.recycled_idx = holders[rec]
        start = holders[~rec]
    else:
        start = holders
    out.tokens_launched = int(start.shape[0])
    if out.tokens_launched == 0:
        # nothing to walk (every initiator recycled, or none left): the
        # seeds were visited, no message follows — and no adjacency is
        # compacted for a frontier that does not exist
        accounting.end(round_started, worklist=0)
        accounting.flush()
        return out

    # Columns are replaced, never written in place, so column 0 may alias
    # ``checked_idx``.
    cols: List[np.ndarray] = [start]
    edge_cols: List[np.ndarray] = []
    weights = np.ones(start.shape[0], dtype=np.int64)

    # Alive-compacted adjacency: the alive out-edges of vertex ``i`` are
    # ``alive_edges[alive_start[i] : alive_start[i] + alive_degree[i]]``,
    # in CSR row order, so a hop expands (and allocates) per alive edge
    # rather than per background edge of a pruned hub.
    edge_alive = astate.edge_alive
    alive_edges = np.flatnonzero(edge_alive)
    alive_src = csr.src[alive_edges]
    alive_degree = np.bincount(alive_src, minlength=csr.num_vertices)
    alive_start = np.cumsum(alive_degree) - alive_degree
    # the frontier column of every hop taken, for the flush-time charge
    frontiers: List[np.ndarray] = []

    for hop in range(1, walk_len):
        cur = cols[-1]
        if cur.shape[0] == 0:
            break
        frontiers.append(cur)
        same = schedule.same_positions[hop]
        back = retrace[hop] if collect_paths else None
        if back is not None:
            # Retrace hop: back along hop ``back``'s edge, to the column
            # it bound, so only aliveness in this direction is new.
            edge = csr.mirror[edge_cols[back - 1]]
            out.rows_expanded += int(cur.shape[0])
            live = edge_alive[edge]
            if not live.all():
                row_id = np.nonzero(live)[0]
                if row_id.shape[0] == 0:
                    break
                edge = edge[row_id]
                weights = weights[row_id]
                cols = [c[row_id] for c in cols]
                edge_cols = [e[row_id] for e in edge_cols]
            cols.append(cols[back - 1])
            edge_cols.append(edge)
        else:
            if same:
                # Revisit hop: only the edge back to the carried vertex can
                # survive the identity check below, so look that one edge
                # up (alive in *this* direction) instead of expanding the
                # row.  A miss reads slot -1 — some edge's flag: rows that
                # got past hop 1 crossed an alive edge — and the sign test
                # masks it.
                edge = csr.edge_positions(cur, cols[same[0]])
                live = edge_alive[edge]
                live &= edge >= 0
                row_id = np.nonzero(live)[0]
                edge = edge[row_id]
                out.rows_expanded += int(cur.shape[0])
            else:
                counts = alive_degree[cur]
                total = int(counts.sum())
                if total == 0:
                    break
                row_id = np.repeat(
                    np.arange(cur.shape[0], dtype=np.int64), counts
                )
                # position of each expanded row inside ``alive_edges``: its
                # vertex's start plus its rank among the vertex's alive
                # edges
                first = np.cumsum(counts) - counts
                edge = alive_edges[
                    np.repeat(alive_start[cur] - first, counts)
                    + np.arange(total, dtype=np.int64)
                ]
                out.rows_expanded += total

            dst = indices[edge]
            column, bit = hop_roles[hop]
            ok = (column[dst] & bit) != _ZERO
            if hop_codes is not None and hop_codes[hop] is not None:
                ok &= ecodes[edge] == hop_codes[hop]
            for position in same:
                ok &= cols[position][row_id] == dst
            for position in schedule.diff_positions[hop]:
                ok &= cols[position][row_id] != dst
            row_id = row_id[ok]
            if row_id.shape[0] == 0:
                break
            # rebind rather than append ``dst[ok]``: releasing the
            # expansion-sized array before the gathers lowers the peak RSS
            dst = dst[ok]
            weights = weights[row_id]
            cols = [c[row_id] for c in cols]
            cols.append(dst)
            if collect_paths:
                edge_cols = [e[row_id] for e in edge_cols]
                edge_cols.append(edge[ok])

        if hop == walk_len - 1:
            # Closed walk: the same-position check above (or, on a retrace
            # hop, the carried column) returned the token to column 0, the
            # initiator.
            out.completions = int(weights.sum())
            out.satisfied_idx = np.unique(cols[0])
            if collect_paths:
                out.path_cols = cols
                out.edge_cols = edge_cols
            break

        if dedup:
            free = schedule.free[hop]
            if len(free) == 2:
                a, b = cols[free[0]], cols[free[1]]
                cols[free[0]] = np.minimum(a, b)
                cols[free[1]] = np.maximum(a, b)
            elif len(free) > 2:
                block = np.stack([cols[p] for p in free], axis=1)
                block.sort(axis=1)
                for j, position in enumerate(free):
                    cols[position] = block[:, j]
            rows = weights.shape[0]
            if rows > 1:
                order = np.lexsort(cols)
                sorted_cols = [c[order] for c in cols]
                boundary = np.ones(rows, dtype=bool)
                differs = boundary[1:]
                np.not_equal(
                    sorted_cols[0][1:], sorted_cols[0][:-1], out=differs
                )
                for c in sorted_cols[1:]:
                    differs |= c[1:] != c[:-1]
                starts = np.flatnonzero(boundary)
                if starts.shape[0] < rows:
                    out.dedup_merged += rows - starts.shape[0]
                    weights = np.add.reduceat(weights[order], starts)
                    cols = [c[starts] for c in sorted_cols]

    if frontiers:
        accounting.add_row_traffic(
            np.concatenate(frontiers), alive_edges, alive_src
        )
    accounting.end(round_started, worklist=out.tokens_launched)
    accounting.flush()
    return out
