"""Array-backed CSR search state and vectorized kernel fixpoints.

This module mirrors the paper's actual system shape (§4: a static CSR
with bit vectors for deactivation).  On the ``array`` backend a run's
whole level state lives here — M*, every prototype scope, the token
frontiers and the level unions; the dict-of-sets
:class:`~repro.core.state.SearchState` is materialized only at the
public-API boundary (``to_search_state`` / ``write_back``) and by the
set-based ``reference`` backend:

* :class:`~repro.graph.csr.GraphCsr` — the immutable CSR of the
  background graph — lives in :mod:`repro.graph.csr` (the graph layer
  builds it straight from an edge-list file); ``GraphCsr``, ``csr_of``
  and ``sorted_pair_table`` are re-exported here;
* :class:`ArraySearchState` — per-vertex ``role_mask`` (uint64, same bit
  layout as :class:`~repro.core.kernels.RoleKernel`), a ``vertex_active``
  byte array and a per-directed-edge ``edge_alive`` byte array, with
  vectorized ``initial`` seeding, ``active_counts``, deactivation,
  ``for_prototype_search`` label-pair filtering and the level-union
  fold ``absorb_solution``;
* :func:`array_kernel_fixpoint` — the semi-naive arc-consistency loop
  over :class:`~repro.core.kernels.RoleKernel` bit tables, with boolean
  worklist arrays instead of per-vertex inboxes and the witness fold as
  one ``np.bitwise_or.reduceat`` over CSR segments per round.

Exactness contract: every operation reproduces the dict semantics
*bit-for-bit*, including its quirks — the asymmetric initial edge
aliveness (edges from candidates toward non-candidate neighbors are alive
until pruned; the reverse direction never was), candidates holding empty
role sets (the pooled-level union creates them; they survive every round
untouched because only vertices with a non-empty mask are evaluated), and
the full-round edge-dedup rule that skips a pair from the larger-id side
only when the smaller endpoint is still a *candidate* (not merely mask
non-empty).  ``tests/core/test_arraystate.py`` pins all of this against
the set-based reference on randomized workloads.

Message accounting is batched: instead of one Visitor object per edge
delivery, each round folds a rank-by-rank ``np.bincount`` matrix and
per-rank visit counts through :meth:`Engine.record_batched_round`, giving
one message per alive edge out of each re-broadcasting vertex — with
``delta=False`` exactly the reference rounds' totals (the Safra
termination-detection traffic is approximated at the minimal two circuits
per round, so control-message counts — and therefore simulated makespans —
may differ slightly from the object path; fixed points never do).
"""

from __future__ import annotations

import time
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple,
)

import numpy as np

from ..graph.csr import GraphCsr, csr_of, sorted_pair_table  # noqa: F401
from ..graph.graph import Graph
from .kernels import RoleKernel
from .state import SearchState, _label_pair

_U64 = np.uint64
_ZERO = np.uint64(0)
_WORD_FULL = (1 << 64) - 1

#: bits per role-mask word, as in the bit-vector tables of §4.  Templates
#: with at most this many roles keep the historical 1-D uint64 mask array;
#: wider templates switch to an ``(n, n_words)`` uint64 matrix with the
#: same :class:`RoleKernel` bit order spread across words (bit ``i`` lives
#: in word ``i // 64`` at position ``i % 64``).
MAX_ARRAY_ROLES = 64


def _num_words(num_roles: int) -> int:
    """Words of a role mask holding ``num_roles`` bits (at least one)."""
    return max(1, (num_roles + MAX_ARRAY_ROLES - 1) // MAX_ARRAY_ROLES)


def _mask_words(int_mask: int, n_words: int) -> np.ndarray:
    """Split an arbitrary-width Python-int mask into uint64 words."""
    return np.fromiter(
        ((int_mask >> (64 * w)) & _WORD_FULL for w in range(n_words)),
        dtype=_U64, count=n_words,
    )


def _mask_nonzero(mask: np.ndarray) -> np.ndarray:
    """Per-row non-empty test for 1-D (single-word) or 2-D mask arrays."""
    if mask.ndim == 1:
        return mask != _ZERO
    return (mask != _ZERO).any(axis=1)


def _zero_masks(n: int, n_words: int) -> np.ndarray:
    """A zeroed mask array in the layout ``n_words`` selects."""
    if n_words == 1:
        return np.zeros(n, dtype=_U64)
    return np.zeros((n, n_words), dtype=_U64)


def _role_bits(roles: Sequence[int]) -> Dict[int, int]:
    """Role → bit map in kernel order (Python ints, arbitrary width)."""
    return {role: 1 << i for i, role in enumerate(roles)}


def _label_mask_table(
    csr: GraphCsr,
    template,
    roles: Sequence[int],
    role_bit: Dict[int, int],
    n_words: Optional[int] = None,
) -> np.ndarray:
    """Per-label-code union of the role bits carrying that label.

    Indexing the table by ``csr.label_codes`` seeds every vertex with all
    roles of its label — the common core of ``initial``,
    ``for_prototype_search`` and the pooled scope-payload reconstruction.
    Single-word layouts get a ``(num_labels,)`` uint64 table; wider
    layouts a ``(num_labels, n_words)`` matrix.
    """
    if n_words is None:
        n_words = _num_words(len(roles))
    by_label: Dict[int, int] = {}
    for role in roles:
        lab = template.label(role)
        by_label[lab] = by_label.get(lab, 0) | role_bit[role]
    mask_by_code = _zero_masks(csr.num_labels, n_words)
    for lab, mask in by_label.items():
        code = csr.label_ids.get(lab)
        if code is not None:
            if n_words == 1:
                mask_by_code[code] = mask
            else:
                mask_by_code[code] = _mask_words(mask, n_words)
    return mask_by_code


def pack_bits(flags: np.ndarray) -> bytes:
    """Wire form of a boolean array: ``np.packbits`` bitmap bytes."""
    return np.packbits(flags).tobytes()


def unpack_bits(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` (fresh, writable boolean array)."""
    raw = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(raw, count=count).astype(bool)


def _segment_or(contrib: np.ndarray, csr: GraphCsr) -> np.ndarray:
    """Per-vertex OR of a per-edge uint64 array over CSR row segments.

    ``contrib`` may be 1-D (single-word masks) or 2-D ``(edges, n_words)``;
    the fold runs along axis 0 either way.
    """
    if contrib.shape[0] == 0:
        return np.zeros((csr.num_vertices,) + contrib.shape[1:], dtype=_U64)
    # The sentinel keeps reduceat in bounds for empty trailing rows; empty
    # segments yield a neighbor's garbage value, zeroed via zero_degree.
    padded = np.concatenate(
        [contrib, np.zeros((1,) + contrib.shape[1:], dtype=_U64)]
    )
    out = np.bitwise_or.reduceat(padded, csr.indptr[:-1], axis=0)
    out[csr.zero_degree] = _ZERO
    return out


# ----------------------------------------------------------------------
# Array search state
# ----------------------------------------------------------------------
class ArraySearchState:
    """Bit-vector search state over a :class:`GraphCsr`.

    ``role_mask[i]`` packs the candidate roles of vertex ``order[i]`` in
    :class:`RoleKernel` bit order — a 1-D uint64 array for templates of
    at most :data:`MAX_ARRAY_ROLES` roles (the fast single-word layout),
    an ``(n, n_words)`` uint64 matrix beyond that (bit ``i`` in word
    ``i // 64``); ``vertex_active`` tracks candidacy separately because
    the dict state allows active vertices with *empty* role sets (the
    pooled-level union creates them); ``edge_alive[e]`` tracks the
    directed edge ``src[e] -> indices[e]`` — aliveness is per-direction
    because the dict's initial state only activates the candidate-side
    direction of edges toward non-candidate neighbors.
    """

    __slots__ = (
        "csr", "roles", "role_bit",
        "role_mask", "vertex_active", "edge_alive",
    )

    def __init__(
        self,
        csr: GraphCsr,
        roles: Sequence[int],
        role_mask: np.ndarray,
        vertex_active: np.ndarray,
        edge_alive: np.ndarray,
    ) -> None:
        self.csr = csr
        self.roles = list(roles)
        self.role_bit = _role_bits(self.roles)
        self.role_mask = role_mask
        self.vertex_active = vertex_active
        self.edge_alive = edge_alive

    @property
    def graph(self) -> Graph:
        """The CSR's backing graph (dict consumers only: a view builds it)."""
        return self.csr.graph

    @property
    def n_words(self) -> int:
        """Words per role mask (1 = the historical single-word layout)."""
        return 1 if self.role_mask.ndim == 1 else int(self.role_mask.shape[1])

    # ------------------------------------------------------------------
    @classmethod
    def initial(
        cls, graph: Graph, template, min_words: int = 1
    ) -> "ArraySearchState":
        """Vectorized label seeding, matching ``SearchState.initial``.

        Every vertex whose label a template role carries becomes a
        candidate for all roles of that label; each candidate's *full*
        adjacency row starts alive (including edges to non-candidates —
        their reverse directions start dead, as in the dict state).
        ``min_words`` forces the multi-word layout even for <=64-role
        templates (the parity suite exercises the wide kernels this way).
        """
        csr = csr_of(graph)
        roles = sorted(template.vertices())
        role_bit = _role_bits(roles)
        n_words = max(_num_words(len(roles)), min_words)
        mask_by_code = _label_mask_table(
            csr, template, roles, role_bit, n_words=n_words
        )
        role_mask = mask_by_code[csr.label_codes]
        vertex_active = _mask_nonzero(role_mask)
        edge_alive = vertex_active[csr.src].copy()
        return cls(csr, roles, role_mask, vertex_active, edge_alive)

    @classmethod
    def empty(cls, csr: GraphCsr) -> "ArraySearchState":
        """An all-inactive state over ``csr`` (the level-union seed)."""
        return cls(
            csr, [],
            np.zeros(csr.num_vertices, dtype=_U64),
            np.zeros(csr.num_vertices, dtype=bool),
            np.zeros(csr.num_directed_edges, dtype=bool),
        )

    @classmethod
    def from_search_state(
        cls,
        state: SearchState,
        roles: Optional[Sequence[int]] = None,
        min_words: int = 1,
    ) -> "ArraySearchState":
        """Lossless import of a dict :class:`SearchState`.

        ``roles`` fixes the bit layout (pass ``kernel.roles`` so masks
        line up with the kernel tables); by default the roles present in
        the state are used.  ``min_words`` forces the multi-word layout
        (parity testing of the wide kernels on narrow templates).
        """
        csr = csr_of(state.graph)
        if roles is None:
            seen: Set[int] = set()
            for role_set in state.candidates.values():
                seen |= role_set
            roles = sorted(seen)
        role_bit = _role_bits(roles)
        n = csr.num_vertices
        n_words = max(_num_words(len(roles)), min_words)
        role_mask = _zero_masks(n, n_words)
        vertex_active = np.zeros(n, dtype=bool)
        index_of = csr.index_of
        encode_cache: Dict[FrozenSet[int], np.ndarray] = {}
        for v, role_set in state.candidates.items():
            i = index_of[v]
            vertex_active[i] = True
            mask = 0
            for role in role_set:
                mask |= role_bit[role]
            if n_words == 1:
                role_mask[i] = mask
            else:
                key = frozenset(role_set)
                words = encode_cache.get(key)
                if words is None:
                    words = _mask_words(mask, n_words)
                    encode_cache[key] = words
                role_mask[i] = words
        edge_alive = np.zeros(csr.num_directed_edges, dtype=bool)
        indptr = csr.indptr
        indices = csr.indices
        for v, nbrs in state.active_edges.items():
            if not nbrs:
                continue
            i = index_of[v]
            s, e = int(indptr[i]), int(indptr[i + 1])
            if len(nbrs) == e - s:
                edge_alive[s:e] = True
            else:
                targets = np.fromiter(
                    (index_of[u] for u in nbrs), dtype=np.int64, count=len(nbrs)
                )
                edge_alive[s:e] = np.isin(indices[s:e], targets)
        return cls(csr, roles, role_mask, vertex_active, edge_alive)

    @classmethod
    def from_scope_payload(
        cls,
        csr: GraphCsr,
        prototype,
        vertex_bits: bytes,
        edge_bits: bytes,
    ) -> "ArraySearchState":
        """Rebuild a ``for_prototype_search`` scope from its wire bitmaps.

        Role masks are never shipped: ``for_prototype_search`` *resets*
        them by label (``where(active, table[label_codes], 0)``), so
        re-deriving the mask from the prototype's labels over the shipped
        ``vertex_active`` bitmap is bit-identical to the sender's array —
        two bitmaps replace the whole dict payload.
        """
        roles = sorted(prototype.graph.vertices())
        role_bit = _role_bits(roles)
        vertex_active = unpack_bits(vertex_bits, csr.num_vertices)
        edge_alive = unpack_bits(edge_bits, csr.num_directed_edges)
        mask_by_code = _label_mask_table(csr, prototype.graph, roles, role_bit)
        seeded = mask_by_code[csr.label_codes]
        keep = vertex_active if seeded.ndim == 1 else vertex_active[:, None]
        role_mask = np.where(keep, seeded, _ZERO)
        return cls(csr, roles, role_mask, vertex_active, edge_alive)

    def scope_payload(self) -> Tuple[bytes, bytes]:
        """``(vertex bitmap, edge bitmap)`` wire form of a scope cut."""
        return pack_bits(self.vertex_active), pack_bits(self.edge_alive)

    def _solution_edges(self) -> np.ndarray:
        """Directed-edge mask: alive, ``vid_gt`` side, both endpoints active."""
        csr = self.csr
        active = self.vertex_active
        return (
            self.edge_alive
            & csr.vid_gt
            & active[csr.src]
            & active[csr.indices]
        )

    def solution_masks(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(vertex mask, directed-edge mask)`` of the solution subgraph.

        The edge mask holds the canonical solution edges (alive in the
        ``vid_gt`` direction with both endpoints active) expanded to both
        directions — exactly the symmetric edge set the dict pooled union
        rebuilds from a worker's ``solution_edges`` list.
        """
        sel = self._solution_edges()
        both = sel.copy()
        both[self.csr.mirror[np.nonzero(sel)[0]]] = True
        return self.vertex_active, both

    def solution_payload(self) -> Tuple[bytes, bytes]:
        """:meth:`solution_masks` as wire bitmaps for the pooled union."""
        vertex_mask, edge_mask = self.solution_masks()
        return pack_bits(vertex_mask), pack_bits(edge_mask)

    def absorb_solution(
        self, vertex_mask: np.ndarray, edge_mask: np.ndarray
    ) -> None:
        """OR one search's :meth:`solution_masks` into this level union.

        Role masks stay untouched (zero in a fresh union): the next
        level's ``for_prototype_search`` resets roles by label and reads
        only vertex activity and edge aliveness from its scope.
        """
        self.vertex_active |= vertex_mask
        self.edge_alive |= edge_mask

    # ------------------------------------------------------------------
    def _build_dicts(self) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
        csr = self.csr
        indptr = csr.indptr
        indices = csr.indices
        order_list = csr.order.tolist()
        if self.role_mask.ndim == 1:
            mask_list = self.role_mask.tolist()
        else:
            # Explicit .tolist() crossing back into dict-land: combine the
            # words of each row into one arbitrary-width Python int.
            mask_list = [
                sum(word << (64 * w) for w, word in enumerate(row))
                for row in self.role_mask.tolist()
            ]
        alive = self.edge_alive
        roles = self.roles
        decode_cache: Dict[int, Tuple[int, ...]] = {}
        candidates: Dict[int, Set[int]] = {}
        active_edges: Dict[int, Set[int]] = {}
        for i in np.nonzero(self.vertex_active)[0].tolist():
            mask = mask_list[i]
            decoded = decode_cache.get(mask)
            if decoded is None:
                decoded = tuple(
                    roles[b] for b in range(mask.bit_length()) if (mask >> b) & 1
                )
                decode_cache[mask] = decoded
            candidates[order_list[i]] = set(decoded)
            s, e = int(indptr[i]), int(indptr[i + 1])
            row_alive = alive[s:e]
            if row_alive.all():
                nbrs = indices[s:e]
            else:
                nbrs = indices[s:e][row_alive]
            active_edges[order_list[i]] = {order_list[t] for t in nbrs.tolist()}
        return candidates, active_edges

    def to_search_state(self) -> SearchState:
        """Lossless export to a fresh dict :class:`SearchState`."""
        candidates, active_edges = self._build_dicts()
        return SearchState(self.graph, candidates, active_edges)

    def write_back(self, state: SearchState) -> None:
        """Overwrite ``state`` in place with this array state's content."""
        candidates, active_edges = self._build_dicts()
        state.candidates = candidates
        state.active_edges = active_edges

    def copy(self) -> "ArraySearchState":
        return ArraySearchState(
            self.csr, self.roles,
            self.role_mask.copy(), self.vertex_active.copy(),
            self.edge_alive.copy(),
        )

    def restrict_to_view(self, view: GraphCsr) -> "ArraySearchState":
        """Project this state onto an induced sub-view of its CSR.

        ``view`` must come from ``self.csr.induced_view(...)``; the
        returned state gathers role masks, activity and edge aliveness
        through the view's parent index maps, so it is bit-identical to
        this state restricted to the surviving vertices/edges — just over
        arrays sized to the pruned graph.
        """
        if view.parent is not self.csr:
            raise ValueError("view was not derived from this state's CSR")
        return ArraySearchState(
            view, self.roles,
            self.role_mask[view.parent_vertex_index],
            self.vertex_active[view.parent_vertex_index],
            self.edge_alive[view.parent_edge_index],
        )

    # ------------------------------------------------------------------
    @property
    def num_active_vertices(self) -> int:
        return int(np.count_nonzero(self.vertex_active))

    def is_active(self, vertex: int) -> bool:
        return bool(self.vertex_active[self.csr.index_of[vertex]])

    def active_vertices(self) -> List[int]:
        """Ids of the active vertices, in CSR order."""
        return self.csr.order[self.vertex_active].tolist()

    def active_counts(self) -> Tuple[int, int]:
        """``(num_active_vertices, num_active_edges)``, fully vectorized."""
        return (
            int(np.count_nonzero(self.vertex_active)),
            int(np.count_nonzero(self._solution_edges())),
        )

    def active_edge_list(self) -> List[Tuple[int, int]]:
        """Canonical ``(min, max)`` edges with both endpoints active."""
        csr = self.csr
        idx = np.nonzero(self._solution_edges())[0]
        us = csr.order[csr.src[idx]].tolist()
        vs = csr.order[csr.indices[idx]].tolist()
        return list(zip(us, vs))

    # ------------------------------------------------------------------
    def deactivate_vertex(self, vertex: int) -> None:
        """Deactivate ``vertex``; kills its alive edges in both directions."""
        csr = self.csr
        i = csr.index_of[vertex]
        self.vertex_active[i] = False
        self.role_mask[i] = _ZERO
        s, e = int(csr.indptr[i]), int(csr.indptr[i + 1])
        row_alive = s + np.nonzero(self.edge_alive[s:e])[0]
        self.edge_alive[csr.mirror[row_alive]] = False
        self.edge_alive[s:e] = False

    def deactivate_indices(self, idx: np.ndarray) -> None:
        """Bulk :meth:`deactivate_vertex` over dense vertex indices."""
        csr = self.csr
        self.vertex_active[idx] = False
        self.role_mask[idx] = _ZERO
        dead = np.zeros(csr.num_vertices, dtype=bool)
        dead[idx] = True
        out = np.nonzero(dead[csr.src] & self.edge_alive)[0]
        self.edge_alive[csr.mirror[out]] = False
        self.edge_alive[out] = False

    def deactivate_edge(self, u: int, v: int) -> None:
        csr = self.csr
        iu = csr.index_of.get(u)
        iv = csr.index_of.get(v)
        if iu is None or iv is None:
            return
        s, e = int(csr.indptr[iu]), int(csr.indptr[iu + 1])
        hits = np.nonzero(csr.indices[s:e] == iv)[0]
        if hits.shape[0]:
            pos = s + int(hits[0])
            self.edge_alive[pos] = False
            self.edge_alive[csr.mirror[pos]] = False

    def remove_role(self, vertex: int, role: int) -> None:
        """Drop one candidate role; deactivates the vertex when none left."""
        i = self.csr.index_of[vertex]
        if not self.vertex_active[i]:
            return
        bit = self.role_bit.get(role)
        if self.role_mask.ndim == 1:
            if bit is not None:
                self.role_mask[i] = self.role_mask[i] & ~_U64(bit)
            if self.role_mask[i] == _ZERO:
                self.deactivate_vertex(vertex)
        else:
            if bit is not None:
                word, offset = divmod(bit.bit_length() - 1, 64)
                self.role_mask[i, word] = self.role_mask[i, word] & ~_U64(
                    1 << offset
                )
            if not self.role_mask[i].any():
                self.deactivate_vertex(vertex)

    # ------------------------------------------------------------------
    def for_prototype_search(
        self, prototype, readmit_label_pairs: Iterable[Tuple[int, int]] = ()
    ) -> "ArraySearchState":
        """Vectorized form of ``SearchState.for_prototype_search``.

        Roles reset by label over the active vertices; an edge survives
        where its endpoints' label pair is prototype-adjacent (tested via
        the precomputed ``pair_code`` array), and background edges whose
        pair is in ``readmit_label_pairs`` *and* prototype-adjacent are
        re-admitted between active vertices (the ``E(l(q_i), l(q_j))``
        term of Obs. 1).
        """
        csr = self.csr
        proto_graph = prototype.graph
        roles = sorted(proto_graph.vertices())
        role_bit = _role_bits(roles)
        mask_by_code = _label_mask_table(csr, proto_graph, roles, role_bit)
        seeded = mask_by_code[csr.label_codes]
        keep = (
            self.vertex_active if seeded.ndim == 1
            else self.vertex_active[:, None]
        )
        new_mask = np.where(keep, seeded, _ZERO)
        new_active = _mask_nonzero(new_mask)

        adjacent_codes = set()
        for u, v in proto_graph.edges():
            code = csr.label_pair_code(proto_graph.label(u), proto_graph.label(v))
            if code is not None:
                adjacent_codes.add(code)
        readmit_codes = set()
        for pair in readmit_label_pairs:
            code = csr.label_pair_code(*_label_pair(*pair))
            if code is not None and code in adjacent_codes:
                readmit_codes.add(code)

        endpoints_ok = new_active[csr.src] & new_active[csr.indices]
        sel = np.zeros(csr.num_directed_edges, dtype=bool)
        if adjacent_codes:
            pair_ok = np.isin(
                csr.pair_code, np.fromiter(adjacent_codes, dtype=np.int64)
            )
            sel = self.edge_alive & csr.vid_gt & endpoints_ok & pair_ok
            if readmit_codes:
                readmit_ok = np.isin(
                    csr.pair_code, np.fromiter(readmit_codes, dtype=np.int64)
                )
                sel |= csr.vid_gt & endpoints_ok & readmit_ok
        new_alive = np.zeros(csr.num_directed_edges, dtype=bool)
        idx = np.nonzero(sel)[0]
        new_alive[idx] = True
        new_alive[csr.mirror[idx]] = True
        return ArraySearchState(csr, roles, new_mask, new_active, new_alive)

    def __repr__(self) -> str:
        vertices, edges = self.active_counts()
        return (
            f"ArraySearchState(active_vertices={vertices}, "
            f"active_edges={edges})"
        )


# ----------------------------------------------------------------------
# Batched per-round accounting
# ----------------------------------------------------------------------
class _RoundAccounting:
    """Folds one vectorized round's traffic into the engine stats.

    Reads the per-vertex rank and per-edge ``src_rank * ranks + dst_rank``
    code arrays the engine's :class:`PartitionedGraph` builds once per CSR
    (:meth:`~repro.runtime.partition.PartitionedGraph.rank_arrays`); each
    round then costs one gather and one ``np.bincount`` per batch of
    edges instead of one Visitor object per message.  The receiver-side
    visits are the column sums of the rank-by-rank message matrix.
    """

    __slots__ = (
        "engine", "num_ranks", "rank_of", "edge_code", "_matrix", "_visits",
    )

    def __init__(self, engine, csr: GraphCsr) -> None:
        self.engine = engine
        self.num_ranks = engine.pgraph.num_ranks
        self.rank_of, self.edge_code = engine.pgraph.rank_arrays(csr)
        self._matrix = None
        self._visits = None

    def record_round(
        self,
        seed_idx: np.ndarray,
        edge_idx: np.ndarray,
        round_started: Optional[float] = None,
    ) -> None:
        """Account one broadcast round: seeds visited, one message/edge.

        ``round_started`` (set only while tracing) stamps the per-round
        trace span recorded by :meth:`Engine.record_batched_round`.
        """
        self.begin()
        self.add_seed_visits(seed_idx)
        self.add_edge_traffic(edge_idx)
        self.flush(round_started, worklist=int(seed_idx.shape[0]))

    # -------------------------------------------------- multi-hop batches
    def begin(self) -> None:
        """Start accumulating traffic across several hops of one traversal."""
        ranks = self.num_ranks
        self._matrix = np.zeros(ranks * ranks, dtype=np.int64)
        self._visits = np.zeros(ranks, dtype=np.int64)

    def add_seed_visits(self, seed_idx: np.ndarray) -> None:
        """Count one dequeued-visitor visit per seed vertex."""
        self._visits += np.bincount(
            self.rank_of[seed_idx], minlength=self.num_ranks
        )

    def add_edge_traffic(self, edge_idx: np.ndarray) -> None:
        """Count one message (and one receiver visit) per directed edge."""
        ranks = self.num_ranks
        self._matrix += np.bincount(
            self.edge_code[edge_idx], minlength=ranks * ranks
        )

    def add_row_traffic(
        self, row_idx: np.ndarray, edge_idx: np.ndarray, edge_src: np.ndarray
    ) -> None:
        """Count one message per listed edge for every row at its source.

        ``row_idx`` holds one dense vertex index per broadcasting row
        (repeats allowed) and ``edge_src`` the source of each edge of
        ``edge_idx``: an edge is charged once per row sitting at its
        source — what :meth:`add_edge_traffic` would total over the
        rows' expansions, without building them.  The weighted
        ``np.bincount`` sums integers in float64, exact far beyond any
        count a run can reach (2**53).
        """
        ranks = self.num_ranks
        rows_at = np.bincount(row_idx, minlength=self.rank_of.shape[0])
        self._matrix += np.bincount(
            self.edge_code[edge_idx],
            weights=rows_at[edge_src],
            minlength=ranks * ranks,
        ).astype(np.int64)

    def flush(
        self,
        round_started: Optional[float] = None,
        worklist: Optional[int] = None,
    ) -> None:
        """Record the accumulated batch as one traversal's traffic.

        One flush = one quiescence/barrier interval, matching the dict
        NLCC's single :meth:`Engine.do_traversal` per constraint.
        """
        ranks = self.num_ranks
        matrix = self._matrix.reshape(ranks, ranks)
        self.engine.record_batched_round(
            matrix.tolist(),
            (self._visits + matrix.sum(axis=0)).tolist(),
            round_started=round_started,
            worklist=worklist,
        )
        self._matrix = None
        self._visits = None


# ----------------------------------------------------------------------
# Vectorized fixpoint
# ----------------------------------------------------------------------
#: adaptive dense-round switch floor: below this many role-holding
#: vertices the sparse bookkeeping is too cheap to be worth replacing
#: (and unit-test-sized graphs stay on the classic semi-naive schedule)
ADAPTIVE_MIN_VERTICES = 1024

#: switch to a dense round when the worklist covers at least this
#: fraction of the surviving role-holding vertices
ADAPTIVE_DENSITY_THRESHOLD = 0.5


def array_kernel_fixpoint(
    astate: ArraySearchState,
    kernel: RoleKernel,
    engine,
    max_iterations: Optional[int] = None,
    delta: bool = True,
    mandatory_masks: Optional[Dict[int, int]] = None,
    warm_mask: Optional[np.ndarray] = None,
    adaptive: bool = False,
) -> int:
    """Run the bitmask arc-consistency fixed point over ``astate`` in place.

    ``mandatory_masks`` selects the rule applied per role bit: ``None`` is
    LCC (Alg. 4 — a role survives iff *every* template neighbor is
    witnessed by an active neighbor); a dict is max-candidate-set
    generation (§3.1 — all *mandatory* neighbors and at least one template
    neighbor witnessed; roles without template edges always survive).
    Returns the number of rounds, the reference rounds' count (the final
    no-change round is paid in both).

    ``delta=True`` is the semi-naive mode: after round 1 only vertices
    whose mask changed re-broadcast and only vertices whose witnesses
    changed are re-evaluated — the same per-round states as the reference
    rounds (an unchanged inbox re-derives the unchanged answer), fewer
    messages.  ``delta=False`` re-broadcasts every round and sends exactly
    the reference's messages.  Per-vertex inboxes are replaced by an
    invariant: after round 1, the inbox entry of ``v`` from ``u`` always
    equals ``u``'s current mask whenever the directed edge ``u -> v`` is
    alive (changed vertices re-broadcast; drops remove edges and entries
    together), so the witness fold can be recomputed live each round as
    one masked gather plus ``np.bitwise_or.reduceat`` over CSR rows.

    ``warm_mask`` (a boolean vertex array) enables warm-start accounting
    for the very first round: only the flagged vertices are charged as
    round-1 broadcasters.  This models seeding a child prototype's search
    from the parent scope's surviving worklist — a receiver can
    reconstruct an unchanged neighbor's initial mask (a pure function of
    its vertex label) from persisted parent-scope knowledge, so only
    scope-modified vertices need to re-send.  Evaluation is untouched
    (every nonzero vertex is still refined in round 1), so the fixed
    point *and* the iteration count are bit-identical to a cold start;
    only the round-1 message/visit charge shrinks.

    ``adaptive`` enables the metrics-driven dense/sparse round switch:
    when the semi-naive worklist of the *next* round — re-broadcasters
    plus the ``pending`` vertices forced to re-evaluate by witness loss
    (elimination cascades flow almost entirely through ``pending``) —
    would cover at least :data:`ADAPTIVE_DENSITY_THRESHOLD` of the
    surviving role-holding vertices (and the scope is at least
    :data:`ADAPTIVE_MIN_VERTICES` large), the round runs dense — evaluating every nonzero vertex, like
    ``delta=False`` — instead of building the received/pending worklist
    machinery for a worklist that is most of the graph anyway.  The
    fixed point is identical by construction (a dense round evaluates a
    superset of the sparse round's vertices against the same witness
    fold, exactly the long-standing ``delta=False`` semantics); only the
    per-round message/visit accounting differs.  The switch itself is
    driven by exact vertex counts, never wall clock, so it is fully
    deterministic for a given scope.
    """
    csr = astate.csr
    if astate.roles != kernel.roles:
        raise ValueError("array state and kernel must share one role layout")
    if astate.role_mask.ndim > 1:
        # Multi-word layout (>64 roles or a forced-width parity run): the
        # single-word body below is preserved verbatim as the fast path.
        return _array_kernel_fixpoint_wide(
            astate, kernel, engine,
            max_iterations=max_iterations, delta=delta,
            mandatory_masks=mandatory_masks, warm_mask=warm_mask,
            adaptive=adaptive,
        )
    n = csr.num_vertices
    indptr = csr.indptr
    indices = csr.indices
    src = csr.src
    mirror = csr.mirror
    mask = astate.role_mask
    active = astate.vertex_active
    alive = astate.edge_alive

    nbits = len(kernel.roles)
    bits = [(b, _U64(1 << b)) for b in range(nbits)]
    nm = np.fromiter(
        (kernel.neighbor_masks[1 << b] for b in range(nbits)),
        dtype=_U64, count=nbits,
    ) if nbits else np.zeros(0, dtype=_U64)
    mcs_mode = mandatory_masks is not None
    if mcs_mode:
        mand = np.fromiter(
            (mandatory_masks[1 << b] for b in range(nbits)),
            dtype=_U64, count=nbits,
        ) if nbits else np.zeros(0, dtype=_U64)
    edge_labeled = kernel.edge_labeled and not mcs_mode
    if edge_labeled:
        ecode = csr.edge_label_codes
        if ecode is None:
            ecode = np.zeros(csr.num_directed_edges, dtype=np.int64)
        any_nm = np.fromiter(
            (kernel.any_neighbor_masks[1 << b] for b in range(nbits)),
            dtype=_U64, count=nbits,
        )
        #: per-bit list of (edge-label code or None, required-mask scalar)
        labeled_req: List[List[Tuple[Optional[int], np.uint64]]] = []
        wanted_codes: Set[int] = set()
        for b in range(nbits):
            reqs = []
            for wanted, required in kernel.labeled_neighbor_masks[1 << b].items():
                code = csr.edge_label_ids.get(wanted)
                if code is not None:
                    wanted_codes.add(code)
                reqs.append((code, _U64(required)))
            labeled_req.append(reqs)
        #: per-bit acceptable-neighbor mask by graph edge-label code
        lab_nm = np.zeros((nbits, len(csr.edge_label_ids) + 1), dtype=_U64)
        for b in range(nbits):
            for wanted, required in kernel.labeled_neighbor_masks[1 << b].items():
                code = csr.edge_label_ids.get(wanted)
                if code is not None:
                    lab_nm[b, code] = _U64(required)

    accounting = _RoundAccounting(engine, csr)
    tracing = engine.tracer.enabled

    # Always-on metrics: handles resolved once, one cell-add each per
    # round (the <2% overhead budget of the registry's design contract).
    metrics = engine.metrics
    m_dense = metrics.counter("fixpoint.rounds_dense")
    m_sparse = metrics.counter("fixpoint.rounds_sparse")
    m_adaptive = metrics.counter("fixpoint.rounds_adaptive_dense")
    m_worklist = metrics.counter("fixpoint.worklist_vertices")
    m_evaluated = metrics.counter("fixpoint.active_vertices")
    h_worklist = metrics.histogram("fixpoint.worklist_size")

    iterations = 0
    broadcasters: Optional[np.ndarray] = None  # None = full round
    pending = np.zeros(n, dtype=bool)
    received = np.zeros(n, dtype=bool)
    while max_iterations is None or iterations < max_iterations:
        iterations += 1
        round_started = time.perf_counter() if tracing else None

        # ------------------------------------------------- broadcast
        nonzero = mask != _ZERO
        if broadcasters is None:
            seeds = active
            sending = nonzero
            if iterations == 1 and warm_mask is not None:
                # Warm start: only scope-modified vertices are charged for
                # the first broadcast (accounting only — the witness fold
                # below reads masks directly, never the sent set).
                seeds = active & warm_mask
                sending = nonzero & warm_mask
        else:
            seeds = broadcasters
            sending = broadcasters
        sent = alive & sending[src]
        sent_idx = np.nonzero(sent)[0]
        # `active` mutates below; snapshot the seed set for the round's
        # accounting (folded in at the end of the iteration so the trace
        # span covers the whole round, not just the broadcast).
        seed_idx = np.nonzero(seeds)[0]
        received.fill(False)
        delivered = indices[sent_idx]
        received[delivered[active[delivered]]] = True

        # ------------------------------------------------- witness fold
        contrib = np.where(alive[mirror], mask[indices], _ZERO)
        witnessed = _segment_or(contrib, csr)
        if edge_labeled:
            witnessed_label = {
                code: _segment_or(
                    np.where(ecode == code, contrib, _ZERO), csr
                )
                for code in wanted_codes
            }

        # ---------------------------------------------- role refinement
        if broadcasters is None:
            evaluate = nonzero
        else:
            evaluate = (received | pending) & nonzero
        pending = np.zeros(n, dtype=bool)
        idx = np.nonzero(evaluate)[0]
        m_eval = mask[idx]
        w_eval = witnessed[idx]
        surviving = np.zeros(idx.shape[0], dtype=_U64)
        for b, bit in bits:
            has = (m_eval & bit) != _ZERO
            if not has.any():
                continue
            if mcs_mode:
                required = nm[b]
                if required == _ZERO:
                    ok = True  # isolated role: label match suffices
                else:
                    ok = ((mand[b] & ~w_eval) == _ZERO) & (
                        (required & w_eval) != _ZERO
                    )
            elif edge_labeled:
                ok = (any_nm[b] & ~w_eval) == _ZERO
                for code, required in labeled_req[b]:
                    if code is None:
                        # the wanted edge label never occurs in the graph
                        ok = ok & (required == _ZERO)
                    else:
                        wl = witnessed_label[code][idx]
                        ok = ok & ((wl & required) == required)
            else:
                required = nm[b]
                ok = (w_eval & required) == required
            surviving |= np.where(has & ok, bit, _ZERO)
        changed_eval = surviving != m_eval
        mask[idx] = surviving
        changed_vertices = np.zeros(n, dtype=bool)
        changed_vertices[idx[changed_eval]] = True
        elim_idx = idx[changed_eval & (surviving == _ZERO)]

        if elim_idx.shape[0]:
            active[elim_idx] = False
            elim_bool = np.zeros(n, dtype=bool)
            elim_bool[elim_idx] = True
            out_idx = np.nonzero(elim_bool[src] & alive)[0]
            # neighbors losing an inbox witness re-evaluate next round
            pending[indices[out_idx]] = True
            alive[mirror[out_idx]] = False
            alive[out_idx] = False

        # ---------------------------------------------- edge elimination
        changed = bool(changed_vertices.any())
        nonzero = mask != _ZERO
        if broadcasters is None:
            scope = nonzero
            cand = alive & scope[src]
            # pair handled from the smaller-id side when both are candidates
            cand &= csr.vid_gt | ~active[indices]
        else:
            scope = changed_vertices & nonzero
            cand = alive & scope[src]
        cand_idx = np.nonzero(cand)[0]
        if cand_idx.shape[0]:
            ms = mask[src[cand_idx]]
            md = mask[indices[cand_idx]]
            viable = np.zeros(cand_idx.shape[0], dtype=bool)
            if edge_labeled:
                codes = ecode[cand_idx]
            for b, bit in bits:
                has = (ms & bit) != _ZERO
                if not has.any():
                    continue
                if edge_labeled:
                    acceptable = any_nm[b] | lab_nm[b][codes]
                else:
                    acceptable = nm[b]
                viable |= has & ((acceptable & md) != _ZERO)
            drop_idx = cand_idx[~viable]
            if drop_idx.shape[0]:
                changed = True
                dst_t = indices[drop_idx]
                pending[dst_t[active[dst_t]]] = True
                rev = mirror[drop_idx]
                src_t = src[drop_idx]
                pending[src_t[alive[rev]]] = True
                alive[drop_idx] = False
                alive[rev] = False

        accounting.record_round(seed_idx, sent_idx, round_started)
        if broadcasters is None:
            m_dense.inc()
        else:
            m_sparse.inc()
        m_worklist.inc(seed_idx.shape[0])
        m_evaluated.inc(idx.shape[0])
        h_worklist.observe(seed_idx.shape[0])
        if not changed:
            break
        if delta:
            broadcasters = changed_vertices & nonzero
            if adaptive:
                scope_count = int(np.count_nonzero(nonzero))
                if scope_count >= ADAPTIVE_MIN_VERTICES:
                    # The round's true worklist: re-broadcasters plus the
                    # witness-loss re-evaluations queued in `pending`
                    # (elimination cascades have *empty* broadcaster sets
                    # — all their work arrives via `pending`).
                    worklist_count = int(
                        np.count_nonzero(broadcasters | (pending & nonzero))
                    )
                    if worklist_count >= ADAPTIVE_DENSITY_THRESHOLD * scope_count:
                        # The worklist is most of the scope: run the next
                        # round dense (delta=False semantics, a superset
                        # of the sparse evaluation — same fixed point).
                        broadcasters = None
                        m_adaptive.inc()
        else:
            broadcasters = None
    return iterations


def _array_kernel_fixpoint_wide(
    astate: ArraySearchState,
    kernel: RoleKernel,
    engine,
    max_iterations: Optional[int] = None,
    delta: bool = True,
    mandatory_masks: Optional[Dict[int, int]] = None,
    warm_mask: Optional[np.ndarray] = None,
    adaptive: bool = False,
) -> int:
    """Multi-word body of :func:`array_kernel_fixpoint`.

    Identical round structure, accounting and adaptive switch; the only
    differences are the ``(n, n_words)`` mask layout (role ``b`` lives in
    word ``b // 64``), per-word bit tables, and the subset/intersection
    checks folding across words with ``.all(axis=1)`` / ``.any(axis=1)``.
    """
    csr = astate.csr
    n = csr.num_vertices
    indptr = csr.indptr
    indices = csr.indices
    src = csr.src
    mirror = csr.mirror
    mask = astate.role_mask
    active = astate.vertex_active
    alive = astate.edge_alive
    n_words = astate.n_words

    nbits = len(kernel.roles)
    #: per-role (bit index, word, in-word bit value) addressing
    bit_addr = [
        (b, b // 64, _U64(1 << (b % 64))) for b in range(nbits)
    ]
    nm = (
        np.stack([
            _mask_words(kernel.neighbor_masks[1 << b], n_words)
            for b in range(nbits)
        ])
        if nbits else np.zeros((0, n_words), dtype=_U64)
    )
    mcs_mode = mandatory_masks is not None
    if mcs_mode:
        mand = (
            np.stack([
                _mask_words(mandatory_masks[1 << b], n_words)
                for b in range(nbits)
            ])
            if nbits else np.zeros((0, n_words), dtype=_U64)
        )
    edge_labeled = kernel.edge_labeled and not mcs_mode
    if edge_labeled:
        ecode = csr.edge_label_codes
        if ecode is None:
            ecode = np.zeros(csr.num_directed_edges, dtype=np.int64)
        any_nm = np.stack([
            _mask_words(kernel.any_neighbor_masks[1 << b], n_words)
            for b in range(nbits)
        ])
        #: per-bit list of (edge-label code or None, required word vector)
        labeled_req: List[List[Tuple[Optional[int], np.ndarray]]] = []
        wanted_codes: Set[int] = set()
        for b in range(nbits):
            reqs = []
            for wanted, required in kernel.labeled_neighbor_masks[1 << b].items():
                code = csr.edge_label_ids.get(wanted)
                if code is not None:
                    wanted_codes.add(code)
                reqs.append((code, _mask_words(required, n_words)))
            labeled_req.append(reqs)
        #: per-bit acceptable-neighbor words by graph edge-label code
        lab_nm = np.zeros(
            (nbits, len(csr.edge_label_ids) + 1, n_words), dtype=_U64
        )
        for b in range(nbits):
            for wanted, required in kernel.labeled_neighbor_masks[1 << b].items():
                code = csr.edge_label_ids.get(wanted)
                if code is not None:
                    lab_nm[b, code] = _mask_words(required, n_words)

    accounting = _RoundAccounting(engine, csr)
    tracing = engine.tracer.enabled

    metrics = engine.metrics
    m_dense = metrics.counter("fixpoint.rounds_dense")
    m_sparse = metrics.counter("fixpoint.rounds_sparse")
    m_adaptive = metrics.counter("fixpoint.rounds_adaptive_dense")
    m_worklist = metrics.counter("fixpoint.worklist_vertices")
    m_evaluated = metrics.counter("fixpoint.active_vertices")
    h_worklist = metrics.histogram("fixpoint.worklist_size")

    iterations = 0
    broadcasters: Optional[np.ndarray] = None  # None = full round
    pending = np.zeros(n, dtype=bool)
    received = np.zeros(n, dtype=bool)
    while max_iterations is None or iterations < max_iterations:
        iterations += 1
        round_started = time.perf_counter() if tracing else None

        # ------------------------------------------------- broadcast
        nonzero = (mask != _ZERO).any(axis=1)
        if broadcasters is None:
            seeds = active
            sending = nonzero
            if iterations == 1 and warm_mask is not None:
                seeds = active & warm_mask
                sending = nonzero & warm_mask
        else:
            seeds = broadcasters
            sending = broadcasters
        sent = alive & sending[src]
        sent_idx = np.nonzero(sent)[0]
        seed_idx = np.nonzero(seeds)[0]
        received.fill(False)
        delivered = indices[sent_idx]
        received[delivered[active[delivered]]] = True

        # ------------------------------------------------- witness fold
        contrib = np.where(alive[mirror][:, None], mask[indices], _ZERO)
        witnessed = _segment_or(contrib, csr)
        if edge_labeled:
            witnessed_label = {
                code: _segment_or(
                    np.where((ecode == code)[:, None], contrib, _ZERO), csr
                )
                for code in wanted_codes
            }

        # ---------------------------------------------- role refinement
        if broadcasters is None:
            evaluate = nonzero
        else:
            evaluate = (received | pending) & nonzero
        pending = np.zeros(n, dtype=bool)
        idx = np.nonzero(evaluate)[0]
        m_eval = mask[idx]
        w_eval = witnessed[idx]
        surviving = np.zeros((idx.shape[0], n_words), dtype=_U64)
        for b, word, bitval in bit_addr:
            has = (m_eval[:, word] & bitval) != _ZERO
            if not has.any():
                continue
            if mcs_mode:
                required = nm[b]
                if not required.any():
                    ok = True  # isolated role: label match suffices
                else:
                    ok = ((mand[b] & ~w_eval) == _ZERO).all(axis=1) & (
                        (required & w_eval) != _ZERO
                    ).any(axis=1)
            elif edge_labeled:
                ok = ((any_nm[b] & ~w_eval) == _ZERO).all(axis=1)
                for code, required in labeled_req[b]:
                    if code is None:
                        # the wanted edge label never occurs in the graph
                        if required.any():
                            ok = np.zeros(idx.shape[0], dtype=bool)
                    else:
                        wl = witnessed_label[code][idx]
                        ok = ok & ((wl & required) == required).all(axis=1)
            else:
                required = nm[b]
                ok = ((w_eval & required) == required).all(axis=1)
            surviving[:, word] |= np.where(has & ok, bitval, _ZERO)
        changed_eval = (surviving != m_eval).any(axis=1)
        mask[idx] = surviving
        changed_vertices = np.zeros(n, dtype=bool)
        changed_vertices[idx[changed_eval]] = True
        surv_zero = ~(surviving != _ZERO).any(axis=1)
        elim_idx = idx[changed_eval & surv_zero]

        if elim_idx.shape[0]:
            active[elim_idx] = False
            elim_bool = np.zeros(n, dtype=bool)
            elim_bool[elim_idx] = True
            out_idx = np.nonzero(elim_bool[src] & alive)[0]
            # neighbors losing an inbox witness re-evaluate next round
            pending[indices[out_idx]] = True
            alive[mirror[out_idx]] = False
            alive[out_idx] = False

        # ---------------------------------------------- edge elimination
        changed = bool(changed_vertices.any())
        nonzero = (mask != _ZERO).any(axis=1)
        if broadcasters is None:
            scope = nonzero
            cand = alive & scope[src]
            # pair handled from the smaller-id side when both are candidates
            cand &= csr.vid_gt | ~active[indices]
        else:
            scope = changed_vertices & nonzero
            cand = alive & scope[src]
        cand_idx = np.nonzero(cand)[0]
        if cand_idx.shape[0]:
            ms = mask[src[cand_idx]]
            md = mask[indices[cand_idx]]
            viable = np.zeros(cand_idx.shape[0], dtype=bool)
            if edge_labeled:
                codes = ecode[cand_idx]
            for b, word, bitval in bit_addr:
                has = (ms[:, word] & bitval) != _ZERO
                if not has.any():
                    continue
                if edge_labeled:
                    acceptable = any_nm[b] | lab_nm[b][codes]
                else:
                    acceptable = nm[b]
                viable |= has & ((acceptable & md) != _ZERO).any(axis=1)
            drop_idx = cand_idx[~viable]
            if drop_idx.shape[0]:
                changed = True
                dst_t = indices[drop_idx]
                pending[dst_t[active[dst_t]]] = True
                rev = mirror[drop_idx]
                src_t = src[drop_idx]
                pending[src_t[alive[rev]]] = True
                alive[drop_idx] = False
                alive[rev] = False

        accounting.record_round(seed_idx, sent_idx, round_started)
        if broadcasters is None:
            m_dense.inc()
        else:
            m_sparse.inc()
        m_worklist.inc(seed_idx.shape[0])
        m_evaluated.inc(idx.shape[0])
        h_worklist.observe(seed_idx.shape[0])
        if not changed:
            break
        if delta:
            broadcasters = changed_vertices & nonzero
            if adaptive:
                scope_count = int(np.count_nonzero(nonzero))
                if scope_count >= ADAPTIVE_MIN_VERTICES:
                    worklist_count = int(
                        np.count_nonzero(broadcasters | (pending & nonzero))
                    )
                    if worklist_count >= ADAPTIVE_DENSITY_THRESHOLD * scope_count:
                        broadcasters = None
                        m_adaptive.inc()
        else:
            broadcasters = None
    return iterations


class ArrayWalkOutcome:
    """Raw product of one :func:`array_token_walk` (dense vertex indices).

    ``satisfied_idx`` holds initiators whose token completed (recycled
    initiators are *not* included — callers union them).  Full walks
    (``collect_paths=True``) also return their completed tokens, one row
    each, in completion order: ``full_paths`` (completions × walk length)
    holds the dense vertex index at every walk position — each row an
    exact match mapping — and ``full_edges`` (completions × hops) the CSR
    edge position taken at every hop, so ``full_edges[r, j]`` runs
    ``full_paths[r, j] -> full_paths[r, j + 1]``.  Both stay ``None``
    otherwise.

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
        "full_paths",
        "full_edges",
    )

    def __init__(self) -> None:
        self.checked_idx = np.zeros(0, dtype=np.int64)
        self.recycled_idx = np.zeros(0, dtype=np.int64)
        self.satisfied_idx = np.zeros(0, dtype=np.int64)
        self.tokens_launched = 0
        self.completions = 0
        self.dedup_merged = 0
        self.rows_expanded = 0
        self.full_paths: Optional[np.ndarray] = None
        self.full_edges: Optional[np.ndarray] = None


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
    then filtered by the per-hop role bit, the required edge-label code
    and the walk's same/diff identity obligations (``schedule`` — see
    :class:`~repro.core.kernels.WalkSchedule`), each identity check a 1-D
    take of one earlier column.  Survivors gather every column once and
    append the new frontier vertex as the next column.

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
    the hop — and return it with the vertex columns, each stacked once at
    completion (:class:`ArrayWalkOutcome`), so the NLCC reduction marks
    the walked edges by position instead of searching for them.

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
    walk = schedule.walk
    walk_len = schedule.length
    indices = csr.indices
    role_mask = astate.role_mask
    wide = role_mask.ndim > 1
    role_bit = kernel.role_bit
    dedup = dedup and not collect_paths
    # Per-hop (word, in-word bit) addressing; single-word layouts always
    # address word 0 and read the 1-D mask array directly.
    hop_words: List[int] = []
    hop_bits: List[np.uint64] = []
    for hop in range(walk_len):
        bit = role_bit[walk[hop]]
        word, offset = divmod(bit.bit_length() - 1, 64)
        hop_words.append(word)
        hop_bits.append(_U64(1 << offset))

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
        out.full_paths = np.zeros((0, walk_len), dtype=np.int64)
        out.full_edges = np.zeros((0, walk_len - 1), dtype=np.int64)
    tracing = engine.tracer.enabled
    round_started = time.perf_counter() if tracing else None
    accounting = _RoundAccounting(engine, csr)
    accounting.begin()
    # The dict walk seeds one visitor per candidate (source or not); each
    # dequeued seed is one visit.
    accounting.add_seed_visits(np.nonzero(astate.vertex_active)[0])

    mask_col0 = role_mask[:, hop_words[0]] if wide else role_mask
    holders = np.nonzero((mask_col0 & hop_bits[0]) != _ZERO)[0]
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
        accounting.flush(round_started=round_started, worklist=0)
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
        if same:
            # Revisit hop: only the edge back to the carried vertex can
            # survive the identity check below, so look that one edge up
            # (alive in *this* direction) instead of expanding the row.
            # A miss reads slot -1 — some edge's flag: rows that got past
            # hop 1 crossed an alive edge — and the sign test masks it.
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
            row_id = np.repeat(np.arange(cur.shape[0], dtype=np.int64), counts)
            # position of each expanded row inside ``alive_edges``: its
            # vertex's start plus its rank among the vertex's alive edges
            first = np.cumsum(counts) - counts
            edge = alive_edges[
                np.repeat(alive_start[cur] - first, counts)
                + np.arange(total, dtype=np.int64)
            ]
            out.rows_expanded += total

        dst = indices[edge]
        dst_col = role_mask[dst, hop_words[hop]] if wide else role_mask[dst]
        ok = (dst_col & hop_bits[hop]) != _ZERO
        if hop_codes is not None and hop_codes[hop] is not None:
            ok &= ecodes[edge] == hop_codes[hop]
        for position in schedule.same_positions[hop]:
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
            # Closed walk: the same-position check above forced a return
            # to column 0, the initiator.
            out.completions = int(weights.sum())
            out.satisfied_idx = np.unique(cols[0])
            if collect_paths:
                out.full_paths = np.stack(cols, axis=1)
                out.full_edges = np.stack(edge_cols, axis=1)
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
            rows = row_id.shape[0]
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
    accounting.flush(
        round_started=round_started, worklist=out.tokens_launched
    )
    return out


__all__ = [
    "ArraySearchState",
    "ArrayWalkOutcome",
    "GraphCsr",
    "MAX_ARRAY_ROLES",
    "array_kernel_fixpoint",
    "array_token_walk",
    "csr_of",
    "pack_bits",
    "unpack_bits",
]
