"""Bitmask role kernels — the allocation-light constraint-checking hot path.

Prototype role ids are tiny (a template has a handful of vertices), so a
vertex's candidate-role set ``ω(v)`` fits in the bits of one Python int.
:class:`RoleKernel` compiles a prototype (or template) graph once per
search into flat bit tables:

* ``neighbor_masks[bit]`` — the template-neighbor roles of the role owning
  ``bit``, as a bitmask;
* ``label_role_masks[label]`` — the roles carrying a vertex label;
* for edge-labeled prototypes, ``any_neighbor_masks`` / ``labeled_neighbor_masks``
  split the neighbor mask by required edge label (``None`` = matches any).

With these tables, the two LCC predicates collapse to integer operations:

* *role support* (every template-neighbor of a role witnessed by an active
  neighbor) becomes ``neighbor_masks[bit] & ~witnessed == 0`` where
  ``witnessed`` is the OR of the masks the vertex received — one pass over
  the inbox instead of a per-(role, template-neighbor, neighbor) scan;
* *edge viability* (endpoints hold template-adjacent roles) becomes
  ``neighbor_masks[bit] & other_mask`` over the set bits of one endpoint.

A kernel of at most :data:`TABLE_MAX_ROLES` roles also answers both
predicates for a whole mask at once (:meth:`RoleKernel.role_tables`):
``survive[witnessed]`` is the OR of the role bits the rule keeps under
that witness mask and ``union[mask]`` the OR of the neighbor masks of
the bits in ``mask``, so a round refines with ``mask & survive[w]`` and
tests an edge with ``union[ms] & md != 0`` — one gather each instead of
one pass per role bit.

The tables feed the vectorized fixpoint and token walk of
:mod:`~repro.core.arraystate` (role masks per vertex in the same bit
order); the set-based reference execution needs none of them.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from ..graph.graph import Graph
from . import memos

#: most roles :meth:`RoleKernel.role_tables` tabulates (``2**roles``
#: entries per table); larger kernels refine one role bit at a time
TABLE_MAX_ROLES = 10


class RoleKernel:
    """Compiled bitmask tables for one prototype/template graph.

    Compile once per search (`O(roles + template edges)`); the tables are
    read-only afterwards and shared by every LCC round and NLCC traversal
    of that search.
    """

    __slots__ = (
        "graph",
        "roles",
        "role_bit",
        "bit_role",
        "full_mask",
        "neighbor_masks",
        "label_role_masks",
        "edge_labeled",
        "any_neighbor_masks",
        "labeled_neighbor_masks",
        "_tables",
    )

    def __init__(self, proto_graph: Graph) -> None:
        self.graph = proto_graph
        self.roles = sorted(proto_graph.vertices())
        #: role id -> its bit (1 << index)
        self.role_bit: Dict[int, int] = {
            role: 1 << index for index, role in enumerate(self.roles)
        }
        #: bit -> role id (inverse of ``role_bit``)
        self.bit_role: Dict[int, int] = {
            bit: role for role, bit in self.role_bit.items()
        }
        self.full_mask = (1 << len(self.roles)) - 1
        role_bit = self.role_bit
        #: bit -> bitmask of the role's template neighbors
        self.neighbor_masks: Dict[int, int] = {}
        for role in self.roles:
            mask = 0
            for other in proto_graph.neighbors(role):
                mask |= role_bit[other]
            self.neighbor_masks[role_bit[role]] = mask
        #: vertex label -> bitmask of roles carrying it
        self.label_role_masks: Dict[int, int] = {}
        for role in self.roles:
            label = proto_graph.label(role)
            self.label_role_masks[label] = (
                self.label_role_masks.get(label, 0) | role_bit[role]
            )
        self.edge_labeled = proto_graph.has_edge_labels
        #: bit -> neighbors reachable over label-free template edges
        self.any_neighbor_masks: Optional[Dict[int, int]] = None
        #: bit -> {required edge label -> neighbor mask}
        self.labeled_neighbor_masks: Optional[Dict[int, Dict[int, int]]] = None
        if self.edge_labeled:
            self.any_neighbor_masks = {}
            self.labeled_neighbor_masks = {}
            for role in self.roles:
                bit = role_bit[role]
                any_mask = 0
                by_label: Dict[int, int] = {}
                for other in proto_graph.neighbors(role):
                    wanted = proto_graph.edge_label(role, other)
                    if wanted is None:
                        any_mask |= role_bit[other]
                    else:
                        by_label[wanted] = by_label.get(wanted, 0) | role_bit[other]
                self.any_neighbor_masks[bit] = any_mask
                self.labeled_neighbor_masks[bit] = by_label
        #: lazily built whole-mask tables (see :meth:`role_tables`):
        #: ``"union"`` and one ``survive`` per rule key
        self._tables: Dict[object, np.ndarray] = {}

    # ------------------------------------------------------------------
    def mask_of(self, roles: Iterable[int]) -> int:
        """Pack a role set into its bitmask."""
        role_bit = self.role_bit
        mask = 0
        for role in roles:
            mask |= role_bit[role]
        return mask

    def roles_of(self, mask: int) -> Set[int]:
        """Unpack a bitmask into the role set it encodes."""
        bit_role = self.bit_role
        roles = set()
        while mask != 0:
            bit = mask & -mask
            roles.add(bit_role[bit])
            mask ^= bit
        return roles

    def mandatory_masks(self, mandatory_edges: Iterable[Tuple[int, int]]) -> Dict[int, int]:
        """bit -> bitmask of neighbors joined by mandatory edges (for M*)."""
        role_bit = self.role_bit
        masks = {bit: 0 for bit in self.bit_role}
        for u, v in mandatory_edges:
            masks[role_bit[u]] |= role_bit[v]
            masks[role_bit[v]] |= role_bit[u]
        return masks

    def role_tables(
        self, mandatory_masks: Optional[Dict[int, int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(survive, union)``: the role rules as whole-mask look-ups.

        Both are uint64 arrays of ``2**len(roles)`` entries, indexed by a
        mask of this kernel's roles (at most :data:`TABLE_MAX_ROLES`):

        * ``survive[w]`` — the OR of the role bits whose rule the witness
          mask ``w`` satisfies.  LCC (``mandatory_masks`` is ``None``):
          every template neighbor in ``w``.  ``M*`` (a dict as
          :meth:`mandatory_masks` returns): the role is isolated, or every
          mandatory neighbor and at least one template neighbor is in
          ``w``;
        * ``union[s]`` — the OR of ``neighbor_masks`` over the bits of
          ``s``, so an edge is viable iff ``union[ms] & md != 0``.

        Built with numpy on first use and kept on the kernel (``survive``
        once per rule: LCC and each distinct set of mandatory masks), so
        every fixpoint call over a cached kernel reuses them.  Both are
        read-only: the kernel is shared through ``cached_kernel``, and a
        store into either table raises ``ValueError``.
        """
        nbits = len(self.roles)
        if nbits > TABLE_MAX_ROLES:
            raise ValueError(
                f"{nbits} roles exceed TABLE_MAX_ROLES={TABLE_MAX_ROLES}"
            )
        key = None if mandatory_masks is None else tuple(
            mandatory_masks[1 << b] for b in range(nbits)
        )
        tables = self._tables
        if key not in tables:
            tables[key] = _survive_table(self._neighbor_row(), key)
            tables[key].setflags(write=False)
        if "union" not in tables:
            tables["union"] = _union_table(self._neighbor_row())
            tables["union"].setflags(write=False)
        return tables[key], tables["union"]

    def _neighbor_row(self) -> np.ndarray:
        """``neighbor_masks`` in bit order, as one uint64 row."""
        return np.array(
            [self.neighbor_masks[1 << b] for b in range(len(self.roles))],
            dtype=np.uint64,
        )


_U0 = np.uint64(0)


def _bit_row(nbits: int) -> np.ndarray:
    """``[1 << b for b < nbits]`` as one uint64 row."""
    return np.left_shift(np.uint64(1), np.arange(nbits, dtype=np.uint64))


def _all_masks(nbits: int) -> np.ndarray:
    """Every mask below ``2**nbits``, as a uint64 column."""
    return np.arange(1 << nbits, dtype=np.uint64)[:, None]


def _union_table(neighbor: np.ndarray) -> np.ndarray:
    """``union[s]`` of :meth:`RoleKernel.role_tables` for every ``s``."""
    nbits = neighbor.shape[0]
    has = (_all_masks(nbits) & _bit_row(nbits)) != _U0
    return np.bitwise_or.reduce(np.where(has, neighbor, _U0), axis=1)


def _survive_table(
    neighbor: np.ndarray, mandatory: Optional[Tuple[int, ...]]
) -> np.ndarray:
    """``survive[w]`` of :meth:`RoleKernel.role_tables` for every ``w``."""
    nbits = neighbor.shape[0]
    witnessed = _all_masks(nbits)
    if mandatory is None:
        ok = (neighbor & ~witnessed) == _U0
    else:
        mand = np.array(mandatory, dtype=np.uint64)
        ok = (neighbor == _U0) | (
            ((mand & ~witnessed) == _U0) & ((neighbor & witnessed) != _U0)
        )
    return np.bitwise_or.reduce(np.where(ok, _bit_row(nbits), _U0), axis=1)


def compile_kernel(proto_graph: Graph) -> RoleKernel:
    """Compile the bitmask tables for ``proto_graph``."""
    return RoleKernel(proto_graph)


def structural_fingerprint(graph: Graph) -> Tuple:
    """Hashable identity of a labeled graph (vertices, labels, edges).

    Two graphs with equal fingerprints are *identical* (same vertex ids,
    labels, edges and edge labels), not merely isomorphic — strong enough
    to share compiled read-only tables between them.
    """
    return (
        tuple(sorted((v, graph.label(v)) for v in graph.vertices())),
        tuple(sorted(graph.edges())),
        tuple(sorted(graph._edge_labels.items())) if graph.has_edge_labels
        else (),
    )


#: process-wide compiled-kernel table, keyed by structural fingerprint
_KERNEL_CACHE: Dict[Tuple, RoleKernel] = memos.table()


def cached_kernel(proto_graph: Graph) -> RoleKernel:
    """Class-keyed :func:`compile_kernel` memoization.

    Prototype graphs recur heavily across a batch (label-isomorphic
    templates share prototype structures, and every level of a pipeline
    recompiles per prototype).  The compiled tables are read-only, so one
    :class:`RoleKernel` can serve every structurally-identical graph; the
    cache key is the exact structural fingerprint — *not* a canonical
    form — so role ids in the tables always match the caller's graph.
    Its lookups count as ``cache.kernel.*`` (:mod:`~repro.core.memos`).
    """
    key = structural_fingerprint(proto_graph)
    kernel = _KERNEL_CACHE.get(key)
    memos.count("kernel", kernel is not None)
    if kernel is None:
        kernel = RoleKernel(proto_graph)
        _KERNEL_CACHE[key] = kernel
    return kernel


@functools.lru_cache(maxsize=4096)
def _identity_tables(pattern: Tuple[int, ...]):
    """``(same_positions, diff_positions, pinned, free, retrace)`` of one
    identity pattern (``NonLocalConstraint.key[2]``), one tuple entry per
    hop.

    The tables depend on nothing but which walk positions name the same
    template vertex, so every constraint with that pattern shares one
    copy; they are tuples because both token walks only read them.
    """
    length = len(pattern)
    same_positions = tuple(
        tuple(p for p in range(hop) if pattern[p] == pattern[hop])
        for hop in range(length)
    )
    diff_positions = tuple(
        tuple(p for p in range(hop) if pattern[p] != pattern[hop])
        for hop in range(length)
    )
    pinned = []
    free = []
    for hop in range(length):
        held = {0, hop}
        for later in range(hop + 1, length):
            held.update(p for p in same_positions[later] if p <= hop)
        pinned.append(tuple(sorted(held)))
        free.append(tuple(p for p in range(1, hop) if p not in held))
    retrace = tuple(
        next(
            (
                j for j in range(1, hop)
                if pattern[j] == pattern[hop - 1]
                and pattern[j - 1] == pattern[hop]
            ),
            None,
        )
        for hop in range(length)
    )
    return (
        same_positions, diff_positions, tuple(pinned), tuple(free), retrace
    )


class WalkSchedule:
    """Per-hop obligations of one non-local constraint's closed walk.

    Shared by the dict token walk and the array frontier
    (:func:`~repro.core.arraystate.array_token_walk`).  The five position
    tables are per *identity pattern* (:func:`_identity_tables`, cached),
    read-only tuples; ``walk`` and ``hop_edge_labels`` are per constraint:

    * ``same_positions[h]`` / ``diff_positions[h]`` — the earlier walk
      positions a hop-``h`` vertex must equal / differ from (they fully
      partition ``range(h)``);
    * ``pinned[h]`` / ``free[h]`` — a partition of the path columns
      ``0..h`` held after hop ``h``: a column is *pinned* while some
      future hop still runs a ``same`` check against it (plus column 0,
      the initiator, and column ``h``, the frontier vertex); every other
      interior column is *free* — it is never read for equality again and
      appears symmetrically in every future ``diff`` check, so free
      column values can be reordered (sorted) without changing any future
      token behavior.  Freedom is monotone: once free, always free.
    * ``retrace[h]`` — the first earlier hop ``j`` that hop ``h`` walks
      backwards (``j`` leaves the template vertex ``h`` enters and enters
      the one ``h`` leaves), or ``None``.  Such a hop is a revisit hop
      over the same undirected template edge, so a full walk, which
      carries the CSR edge of every hop, finds its edge as the mirror of
      hop ``j``'s instead of looking it up.
    * ``hop_edge_labels`` — per-hop required edge labels (``None`` = any),
      populated only for edge-labeled prototypes.
    """

    __slots__ = (
        "walk",
        "length",
        "same_positions",
        "diff_positions",
        "pinned",
        "free",
        "retrace",
        "hop_edge_labels",
    )

    def __init__(self, constraint) -> None:
        walk = constraint.walk
        walk_len = len(walk)
        self.walk = walk
        self.length = walk_len
        (
            self.same_positions,
            self.diff_positions,
            self.pinned,
            self.free,
            self.retrace,
        ) = _identity_tables(constraint.key[2])
        self.hop_edge_labels = None
        proto_graph = getattr(constraint, "proto_graph", None)
        if proto_graph is not None and proto_graph.has_edge_labels:
            self.hop_edge_labels = [None] + [
                proto_graph.edge_label(walk[h - 1], walk[h])
                for h in range(1, walk_len)
            ]


def compile_walk_schedule(constraint) -> WalkSchedule:
    """Compile the per-hop identity/edge-label schedule of ``constraint``."""
    return WalkSchedule(constraint)


__all__ = [
    "RoleKernel",
    "WalkSchedule",
    "cached_kernel",
    "compile_kernel",
    "compile_walk_schedule",
]
