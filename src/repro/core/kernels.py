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

:func:`kernel_fixpoint` runs the arc-consistency fixed point over this
representation for both LCC (Alg. 4) and max-candidate-set generation
(§3.1 — pass ``mandatory_masks``), with an optional *semi-naive* (delta)
mode: after the first full round, only vertices whose role mask changed
re-broadcast, and only vertices whose inbox or active-edge set changed are
re-evaluated.  Because role masks and edge sets only ever shrink, the
per-round states are identical to the synchronous all-vertex rounds of the
baseline (an unchanged inbox re-derives the unchanged answer), so the delta
mode reaches the same fixed point in the same number of rounds while
cutting visitor and message counts — which the simulated cost model turns
into a shorter makespan.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Optional, Set, Tuple

from ..graph.graph import Graph
from ..runtime.metrics import MetricsRegistry
from ..runtime.visitor import Visitor
from .state import SearchState


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


def compile_role_kernel(proto_graph: Graph) -> RoleKernel:
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
_KERNEL_CACHE: Dict[Tuple, RoleKernel] = {}

#: cumulative cache traffic (registry counters per lint rule R8),
#: surfaced by the batch executor's counters and the per-run metrics
_KERNEL_CACHE_METRICS = MetricsRegistry()
_M_KERNEL_HITS = _KERNEL_CACHE_METRICS.counter("cache.kernel.hits")
_M_KERNEL_MISSES = _KERNEL_CACHE_METRICS.counter("cache.kernel.misses")


def cached_role_kernel(proto_graph: Graph) -> RoleKernel:
    """Class-keyed :func:`compile_role_kernel` memoization.

    Prototype graphs recur heavily across a batch (label-isomorphic
    templates share prototype structures, and every level of a pipeline
    recompiles per prototype).  The compiled tables are read-only, so one
    :class:`RoleKernel` can serve every structurally-identical graph; the
    cache key is the exact structural fingerprint — *not* a canonical
    form — so role ids in the tables always match the caller's graph.
    """
    key = structural_fingerprint(proto_graph)
    kernel = _KERNEL_CACHE.get(key)
    if kernel is None:
        _M_KERNEL_MISSES.inc()
        kernel = RoleKernel(proto_graph)
        _KERNEL_CACHE[key] = kernel
    else:
        _M_KERNEL_HITS.inc()
    return kernel


def kernel_cache_stats() -> Dict[str, int]:
    """Snapshot of the process-wide kernel-cache hit/miss counters."""
    return {
        "hits": int(_M_KERNEL_HITS.value),
        "misses": int(_M_KERNEL_MISSES.value),
    }


def clear_kernel_cache() -> None:
    """Drop compiled kernels and reset the counters (test hook)."""
    global _KERNEL_CACHE_METRICS, _M_KERNEL_HITS, _M_KERNEL_MISSES
    _KERNEL_CACHE.clear()
    _KERNEL_CACHE_METRICS = MetricsRegistry()
    _M_KERNEL_HITS = _KERNEL_CACHE_METRICS.counter("cache.kernel.hits")
    _M_KERNEL_MISSES = _KERNEL_CACHE_METRICS.counter("cache.kernel.misses")


@functools.lru_cache(maxsize=4096)
def _identity_tables(pattern: Tuple[int, ...]):
    """``(same_positions, diff_positions, pinned, free)`` of one identity
    pattern (``NonLocalConstraint.key[2]``), one tuple entry per hop.

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
    return same_positions, diff_positions, tuple(pinned), tuple(free)


class WalkSchedule:
    """Per-hop obligations of one non-local constraint's closed walk.

    Shared by the dict token walk and the array frontier
    (:func:`~repro.core.arraystate.array_token_walk`).  The four position
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


def candidate_masks(state: SearchState, kernel: RoleKernel) -> Dict[int, int]:
    """Snapshot ``state.candidates`` as per-vertex role bitmasks."""
    mask_of = kernel.mask_of
    return {v: mask_of(roles) for v, roles in state.candidates.items()}


def kernel_fixpoint(
    state: SearchState,
    kernel: RoleKernel,
    engine,
    max_iterations: Optional[int] = None,
    delta: bool = True,
    mandatory_masks: Optional[Dict[int, int]] = None,
) -> int:
    """Run the bitmask arc-consistency fixed point over ``state`` in place.

    ``mandatory_masks`` selects the rule applied per role bit:

    * ``None`` — LCC (Alg. 4): a role survives iff *every* template
      neighbor is witnessed by an active neighbor;
    * a dict — max-candidate-set generation (§3.1): a role survives iff
      all *mandatory* neighbors and at least one template neighbor are
      witnessed (roles without template edges always survive).

    ``delta=True`` enables the semi-naive worklist mode; ``delta=False``
    mirrors the baseline's all-active re-broadcast exactly (including its
    message counts).  Returns the number of rounds executed, matching the
    baseline's count (the final no-change round is paid in both).
    """
    candidates = state.candidates
    active_edges = state.active_edges
    edge_label = state.graph.edge_label

    masks = candidate_masks(state, kernel)
    original = dict(masks)
    #: persistent per-vertex inbox: v -> {active neighbor u -> u's mask}
    inbox: Dict[int, Dict[int, int]] = {v: {} for v in masks}

    neighbor_masks = kernel.neighbor_masks
    mcs_mode = mandatory_masks is not None
    edge_labeled = kernel.edge_labeled and not mcs_mode
    any_neighbor_masks = kernel.any_neighbor_masks
    labeled_neighbor_masks = kernel.labeled_neighbor_masks

    #: vertices whose inbox gained an entry this traversal (re-evaluate)
    received: Set[int] = set()

    def visit(ctx, visitor: Visitor) -> None:
        payload = visitor.payload
        if payload is None:
            vertex = visitor.target
            mask = masks.get(vertex)
            if not mask:
                return
            ctx.broadcast(vertex, active_edges.get(vertex, ()), (vertex, mask))
        else:
            target = visitor.target
            box = inbox.get(target)
            if box is not None:
                box[payload[0]] = payload[1]
                received.add(target)

    def drop_vertex(vertex: int, pending: Set[int]) -> None:
        """Deactivate ``vertex``; neighbors losing a witness re-evaluate."""
        masks.pop(vertex, None)
        inbox.pop(vertex, None)
        candidates.pop(vertex, None)
        for nbr in active_edges.pop(vertex, ()):
            box = inbox.get(nbr)
            if box is not None and vertex in box:
                del box[vertex]
                pending.add(nbr)
            other = active_edges.get(nbr)
            if other is not None:
                other.discard(vertex)

    def drop_edge(u: int, v: int, pending: Set[int]) -> None:
        active_edges.get(u, set()).discard(v)
        active_edges.get(v, set()).discard(u)
        box = inbox.get(u)
        if box is not None and v in box:
            del box[v]
            pending.add(u)
        box = inbox.get(v)
        if box is not None and u in box:
            del box[u]
            pending.add(v)

    iterations = 0
    broadcasters: Optional[Set[int]] = None  # None = all active vertices
    pending: Set[int] = set()  # inbox shrank since last evaluation
    while max_iterations is None or iterations < max_iterations:
        iterations += 1
        received.clear()
        if broadcasters is None:
            seeds = (Visitor(v) for v in list(candidates))
        else:
            seeds = (Visitor(v) for v in broadcasters)
        engine.do_traversal(seeds, visit)

        if broadcasters is None:
            # Full rounds (round 1, and every non-delta round) evaluate
            # every vertex: isolated candidates receive nothing but must
            # still fail their support checks.
            evaluate = list(masks)
        else:
            evaluate = list(received | pending)
        pending = set()

        # ---------------------------------------------- role refinement
        changed_vertices: Set[int] = set()
        eliminated = []
        for vertex in evaluate:
            mask = masks.get(vertex)
            if not mask:
                continue
            box = inbox.get(vertex)
            witnessed = 0
            if box:
                for received_mask in box.values():
                    witnessed |= received_mask
            if edge_labeled:
                witnessed_by_label: Dict[Optional[int], int] = {}
                if box:
                    for nbr, received_mask in box.items():
                        lab = edge_label(vertex, nbr)
                        witnessed_by_label[lab] = (
                            witnessed_by_label.get(lab, 0) | received_mask
                        )
            surviving = 0
            remaining = mask
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                if mcs_mode:
                    required = neighbor_masks[bit]
                    if not required or (
                        not mandatory_masks[bit] & ~witnessed
                        and required & witnessed
                    ):
                        surviving |= bit
                elif edge_labeled:
                    if any_neighbor_masks[bit] & ~witnessed:
                        continue
                    for wanted, required in labeled_neighbor_masks[bit].items():
                        if required & ~witnessed_by_label.get(wanted, 0):
                            break
                    else:
                        surviving |= bit
                else:
                    if not neighbor_masks[bit] & ~witnessed:
                        surviving |= bit
            if surviving != mask:
                changed_vertices.add(vertex)
                if surviving:
                    masks[vertex] = surviving
                else:
                    eliminated.append(vertex)
        for vertex in eliminated:
            drop_vertex(vertex, pending)

        # ---------------------------------------------- edge elimination
        changed = bool(changed_vertices)
        if broadcasters is None:
            edge_scope = list(masks)
            check_all_pairs = True
        else:
            edge_scope = [v for v in changed_vertices if v in masks]
            check_all_pairs = False
        for vertex in edge_scope:
            mask_v = masks.get(vertex)
            if not mask_v:
                continue
            for nbr in list(active_edges.get(vertex, ())):
                if check_all_pairs and nbr < vertex and nbr in masks:
                    continue  # the pair is handled from nbr's side
                mask_u = masks.get(nbr)
                if mask_u and _adjacent_pair(
                    kernel, mask_v, mask_u,
                    edge_label(vertex, nbr) if edge_labeled else None,
                    edge_labeled,
                ):
                    continue
                drop_edge(vertex, nbr, pending)
                changed = True

        if not changed:
            break
        if delta:
            broadcasters = {v for v in changed_vertices if v in masks}
        else:
            broadcasters = None

    # Write the surviving role masks back into the canonical set form.
    roles_of = kernel.roles_of
    for vertex, mask in masks.items():
        if mask != original[vertex]:
            candidates[vertex] = roles_of(mask)
    return iterations


def _adjacent_pair(
    kernel: RoleKernel,
    mask_a: int,
    mask_b: int,
    graph_edge_label: Optional[int],
    edge_labeled: bool,
) -> bool:
    """Bitmask form of ``lcc._has_adjacent_pair``."""
    if not edge_labeled:
        neighbor_masks = kernel.neighbor_masks
        remaining = mask_a
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            if neighbor_masks[bit] & mask_b:
                return True
        return False
    any_neighbor_masks = kernel.any_neighbor_masks
    labeled_neighbor_masks = kernel.labeled_neighbor_masks
    remaining = mask_a
    while remaining:
        bit = remaining & -remaining
        remaining ^= bit
        acceptable = any_neighbor_masks[bit]
        by_label = labeled_neighbor_masks[bit]
        if by_label and graph_edge_label is not None:
            acceptable |= by_label.get(graph_edge_label, 0)
        if acceptable & mask_b:
            return True
    return False


__all__ = [
    "RoleKernel",
    "WalkSchedule",
    "candidate_masks",
    "compile_role_kernel",
    "compile_walk_schedule",
    "kernel_fixpoint",
]
