"""The array search state and the one description of its mask layout.

A vertex's candidate roles are a bitmask in :class:`RoleKernel` bit
order.  Templates with at most :data:`MAX_ARRAY_ROLES` roles keep one
uint64 per vertex — a 1-D ``(n,)`` array, the fast layout; wider
templates use an ``(n, n_words)`` uint64 matrix, bit ``i`` in word
``i // 64`` at position ``i % 64``.  Code outside this package reads and
writes masks only through the layout helpers below and
:meth:`ArraySearchState.role_column` / :meth:`~ArraySearchState.clear_role_bit`
/ :meth:`~ArraySearchState.masks_of`, so no caller tests ``ndim``; the
fixpoint takes its per-round adapters from :func:`mask_layout` once per
call.
"""

from __future__ import annotations

import functools
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

import numpy as np

from ...graph.csr import GraphCsr, csr_of
from ...graph.graph import Graph
from ..state import SearchState, _label_pair

_U64 = np.uint64
_ZERO = np.uint64(0)
_WORD_FULL = (1 << 64) - 1

#: bits per role-mask word, as in the bit-vector tables of §4; templates
#: with more roles switch to the multi-word layout
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


def _zero_masks(n: int, n_words: int) -> np.ndarray:
    """``n`` empty masks in the layout ``n_words`` selects."""
    return np.zeros((n, n_words) if n_words > 1 else n, dtype=_U64)


def mask_table(int_masks: Sequence[int], n_words: int) -> np.ndarray:
    """Python-int masks as rows of the layout ``n_words`` selects.

    ``(len,)`` uint64 for one word, ``(len, n_words)`` beyond that.
    """
    if n_words == 1:
        return np.array(int_masks, dtype=_U64)
    return np.array(
        [_mask_words(mask, n_words) for mask in int_masks], dtype=_U64
    ).reshape(len(int_masks), n_words)


@functools.lru_cache(maxsize=None)
def role_address(bit: int) -> Tuple[int, np.uint64]:
    """``(word, in-word bit)`` of a kernel role bit (``1 << index``)."""
    word, offset = divmod(bit.bit_length() - 1, 64)
    return word, _U64(1 << offset)


@functools.lru_cache(maxsize=None)
def bit_addresses(nbits: int) -> Tuple[Tuple[int, int, np.uint64], ...]:
    """``(index, word, in-word bit)`` of the first ``nbits`` kernel bits."""
    return tuple((b, *role_address(1 << b)) for b in range(nbits))


def word_columns(masks: np.ndarray) -> List[np.ndarray]:
    """One uint64 column per mask word, each a writable view of ``masks``."""
    if masks.ndim == 1:
        return [masks]
    return [masks[:, word] for word in range(masks.shape[1])]


class MaskLayout(NamedTuple):
    """``per_row`` broadcasts a per-vertex flag over a row's words;
    ``any_word`` / ``all_words`` fold a per-word test across the row.
    On one word all three are the identity."""

    per_row: Callable[[np.ndarray], np.ndarray]
    any_word: Callable[[np.ndarray], np.ndarray]
    all_words: Callable[[np.ndarray], np.ndarray]


_ONE_WORD = MaskLayout(*[lambda array: array] * 3)
_MULTI_WORD = MaskLayout(
    lambda flags: flags[:, None],
    lambda test: test.any(axis=1),
    lambda test: test.all(axis=1),
)


def mask_layout(n_words: int) -> MaskLayout:
    """The adapters of the layout ``n_words`` selects."""
    return _ONE_WORD if n_words == 1 else _MULTI_WORD


def _layout_of(masks: np.ndarray) -> MaskLayout:
    return _ONE_WORD if masks.ndim == 1 else _MULTI_WORD


def rows_nonzero(masks: np.ndarray) -> np.ndarray:
    """Per-row non-empty test of a mask array, either layout."""
    return _layout_of(masks).any_word(masks != _ZERO)


def rows_where(rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """``masks`` on the rows flagged in the boolean ``rows``, zero elsewhere."""
    return np.where(_layout_of(masks).per_row(rows), masks, _ZERO)


def mask_ints(masks: np.ndarray) -> List[int]:
    """Every row as one arbitrary-width Python int (the dict boundary)."""
    if masks.ndim == 1:
        return masks.tolist()
    return [
        sum(word << (64 * w) for w, word in enumerate(row))
        for row in masks.tolist()
    ]


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
    roles of its label — the common core of ``initial`` and
    :func:`_label_seeded`.
    """
    if n_words is None:
        n_words = _num_words(len(roles))
    by_code: Dict[int, int] = {}
    for role in roles:
        code = csr.label_ids.get(template.label(role))
        if code is not None:
            by_code[code] = by_code.get(code, 0) | role_bit[role]
    table = _zero_masks(csr.num_labels, n_words)
    if by_code:
        table[list(by_code)] = mask_table(list(by_code.values()), n_words)
    return table


def _label_seeded(
    csr: GraphCsr, template, active: np.ndarray
) -> Tuple[List[int], np.ndarray]:
    """``template``'s roles in kernel order, and masks giving every
    ``active`` vertex all roles of its label (zero elsewhere)."""
    roles = sorted(template.vertices())
    table = _label_mask_table(csr, template, roles, _role_bits(roles))
    return roles, rows_where(active, table[csr.label_codes])


class ArraySearchState:
    """Bit-vector search state over a :class:`GraphCsr`.

    ``role_mask[i]`` packs the candidate roles of vertex ``order[i]`` in
    the module's mask layout; ``vertex_active`` tracks candidacy
    separately because the dict state allows active vertices with *empty*
    role sets (the level union creates them); ``edge_alive[e]``
    tracks the directed edge ``src[e] -> indices[e]`` — aliveness is
    per-direction because the dict's initial state only activates the
    candidate-side direction of edges toward non-candidate neighbors.
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
        """Words per role mask (1 = the single-word layout)."""
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
        templates (the parity suites run both layouts this way).
        """
        return cls.seeded(csr_of(graph), template, min_words)

    @classmethod
    def seeded(
        cls, csr: GraphCsr, template, min_words: int = 1
    ) -> "ArraySearchState":
        """:meth:`initial` over any CSR — ``G``'s or a view of it."""
        roles = sorted(template.vertices())
        role_bit = _role_bits(roles)
        n_words = max(_num_words(len(roles)), min_words)
        mask_by_code = _label_mask_table(
            csr, template, roles, role_bit, n_words=n_words
        )
        role_mask = mask_by_code[csr.label_codes]
        vertex_active = rows_nonzero(role_mask)
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
        the state are used.  ``min_words`` forces the multi-word layout.
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
            key = frozenset(role_set)
            row = encode_cache.get(key)
            if row is None:
                mask = 0
                for role in role_set:
                    mask |= role_bit[role]
                row = mask_table([mask], n_words)[0]
                encode_cache[key] = row
            role_mask[i] = row
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
    def from_ids(
        cls,
        csr: GraphCsr,
        vertices: Iterable[int],
        edges: Iterable[Tuple[int, int]],
        template=None,
    ) -> "ArraySearchState":
        """The scope holding exactly ``vertices`` and the undirected ``edges``.

        A scope as ids — what checkpoints store, derived prototypes and
        re-enumerated outcomes hand over — over any CSR holding them.
        Roles are seeded by label from ``template``'s vertices, or left
        empty (``for_prototype_search`` resets them by label anyway).
        Raises ``ValueError`` for an id or a pair ``csr`` lacks.
        """
        index_of = csr.index_of
        pairs = list(edges)
        try:
            vertex_idx = np.fromiter(map(index_of.__getitem__, vertices), np.int64)
            ends = np.fromiter(
                (index_of[v] for pair in pairs for v in pair), np.int64
            )
        except KeyError as exc:
            raise ValueError(f"vertex {exc} is not in the graph") from None
        positions = csr.edge_positions(ends[0::2], ends[1::2])
        if (positions < 0).any():
            raise ValueError(f"{pairs[int(np.argmin(positions))]} is not an edge")
        vertex_active = np.zeros(csr.num_vertices, dtype=bool)
        vertex_active[vertex_idx] = True
        edge_alive = np.zeros(csr.num_directed_edges, dtype=bool)
        edge_alive[positions] = True
        edge_alive[csr.mirror[positions]] = True
        if template is None:
            roles: List[int] = []
            role_mask = _zero_masks(csr.num_vertices, 1)
        else:
            roles, role_mask = _label_seeded(csr, template, vertex_active)
        return cls(csr, roles, role_mask, vertex_active, edge_alive)

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
        directions — exactly the symmetric edge set the dict level union
        holds after ``union_with``.
        """
        sel = self._solution_edges()
        return self.vertex_active, sel | sel[self.csr.mirror]

    def active_degrees(self) -> Tuple[List[int], List[int]]:
        """Active vertex ids in CSR order, and their solution-subgraph degrees.

        The same vertices, order and degrees as ``to_search_state()
        .to_graph()`` — what the reshuffle's degree packing reads.
        """
        vertex_mask, edge_mask = self.solution_masks()
        csr = self.csr
        degrees = np.bincount(csr.src[edge_mask], minlength=csr.num_vertices)
        return csr.order[vertex_mask].tolist(), degrees[vertex_mask].tolist()

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
    def to_search_state(self) -> SearchState:
        """Lossless export to a fresh dict :class:`SearchState`."""
        csr = self.csr
        indptr = csr.indptr
        indices = csr.indices
        order_list = csr.order.tolist()
        mask_list = mask_ints(self.role_mask)
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
            nbrs = indices[s:e][alive[s:e]]
            active_edges[order_list[i]] = {order_list[t] for t in nbrs.tolist()}
        return SearchState(self.graph, candidates, active_edges)

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
        edges = int(np.count_nonzero(self._solution_edges()))
        return self.num_active_vertices, edges

    def active_edge_list(self) -> List[Tuple[int, int]]:
        """Canonical ``(min, max)`` edges with both endpoints active."""
        csr = self.csr
        idx = np.nonzero(self._solution_edges())[0]
        us = csr.order[csr.src[idx]].tolist()
        vs = csr.order[csr.indices[idx]].tolist()
        return list(zip(us, vs))

    # ------------------------------------------------------------------
    def role_column(self, role: int) -> Tuple[np.ndarray, np.uint64]:
        """The uint64 column of ``role_mask`` holding ``role``, and its bit.

        ``(column & bit) != 0`` flags the vertices holding ``role``; the
        column is a view, so writes through it land in ``role_mask``.
        """
        word, bit = role_address(self.role_bit[role])
        return word_columns(self.role_mask)[word], bit

    def clear_role_bit(self, idx: np.ndarray, role: int) -> np.ndarray:
        """Drop ``role`` from the masks of rows ``idx``.

        Returns the rows of ``idx`` whose mask is now empty (a role the
        layout does not hold clears nothing).
        """
        if role in self.role_bit:
            column, bit = self.role_column(role)
            column[idx] &= ~bit
        return idx[~rows_nonzero(self.role_mask[idx])]

    def masks_of(
        self, holders: Iterable[Tuple[int, np.ndarray]]
    ) -> np.ndarray:
        """A fresh role-mask array in this state's layout.

        Each ``(role, idx)`` of ``holders`` sets ``role``'s bit on the
        dense vertex indices ``idx`` (repeats allowed).
        """
        masks = np.zeros_like(self.role_mask)
        columns = word_columns(masks)
        for role, idx in holders:
            word, bit = role_address(self.role_bit[role])
            column = columns[word]
            column[idx] |= bit
        return masks

    def deactivate_vertex(self, vertex: int) -> None:
        """Deactivate ``vertex``; kills its alive edges in both directions."""
        self.deactivate_indices(np.array([self.csr.index_of[vertex]]))

    def deactivate_indices(self, idx: np.ndarray) -> None:
        """:meth:`deactivate_vertex` over dense vertex indices, in bulk."""
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
        if self.vertex_active[i] and self.clear_role_bit(
            np.array([i]), role
        ).shape[0]:
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
        roles, new_mask = _label_seeded(csr, proto_graph, self.vertex_active)
        new_active = rows_nonzero(new_mask)

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
        new_alive = sel | sel[csr.mirror]
        return ArraySearchState(csr, roles, new_mask, new_active, new_alive)

    def __repr__(self) -> str:
        vertices, edges = self.active_counts()
        return (
            f"ArraySearchState(active_vertices={vertices}, "
            f"active_edges={edges})"
        )
