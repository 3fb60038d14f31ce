"""Local constraint checking — LCC (Alg. 4).

Iterative pruning: each round, every active vertex broadcasts its candidate
roles to its active neighbors (one visitor per active edge direction); after
quiescence each vertex keeps a role only if *every* template-neighbor of
that role is witnessed by some active neighbor, and edges survive only if
their endpoints hold template-adjacent roles.  Rounds repeat until nothing
changes — the fixed point is classic arc consistency over the prototype's
adjacency structure.

For tree prototypes with all-distinct labels this fixed point is provably
the exact solution subgraph; in general it is a superset that the non-local
checks (:mod:`~repro.core.nlcc`) reduce further.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Optional, Set

from ..graph.graph import Graph
from ..runtime.engine import Engine
from ..runtime.visitor import Visitor
from .arraystate import ArraySearchState, array_kernel_fixpoint
from .kernels import RoleKernel, cached_kernel
from .state import SearchState


def local_constraint_checking(
    state: "SearchState | ArraySearchState",
    proto_graph: Graph,
    engine: Engine,
    kernel: Optional[RoleKernel] = None,
    warm_mask=None,
) -> int:
    """Prune ``state`` to the LCC fixed point for ``proto_graph``, in place.

    Returns the number of iterations executed (rounds to the fixed point,
    the final no-change round included).

    The state's type picks the execution.  A :class:`SearchState` runs
    the set-based reference rounds below: every active vertex broadcasts
    its roles every round, one visitor per message.  An
    :class:`~repro.core.arraystate.ArraySearchState` runs the vectorized
    semi-naive fixpoint (:func:`~repro.core.arraystate.array_kernel_fixpoint`)
    over the prototype's bitmask ``kernel`` (compiled unless supplied).
    Both reach the same fixed point in the same number of rounds; the
    array rounds re-broadcast only what changed, so they send fewer
    messages.

    Array-only: ``warm_mask`` restricts the first round's broadcast
    accounting to the vertices whose state actually differs from the
    parent scope it was derived from (the warm-seeded worklist); it
    changes neither the fixed point nor the round count.

    The fixpoint runs in the engine's ``lcc`` phase (and, when tracing,
    its ``lcc`` span, each round a child span) and counts its iterations
    in ``lcc.iterations``.
    """
    with engine.phase("lcc"):
        if isinstance(state, ArraySearchState):
            iterations = array_kernel_fixpoint(
                state, kernel or cached_kernel(proto_graph), engine,
                warm_mask=warm_mask,
            )
        else:
            iterations = 0
            while True:
                iterations += 1
                received = _exchange_candidacies(state, engine)
                if not _apply_round(state, proto_graph, received):
                    break
        engine.metrics.counter("lcc.iterations").inc(iterations)
    return iterations


def _exchange_candidacies(
    state: SearchState, engine: Engine
) -> Dict[int, Dict[int, AbstractSet[int]]]:
    """One traversal: every active vertex sends its roles to its neighbors.

    Returns ``received[v][u] = roles u claimed``, the per-vertex inbox.
    The live role set is shared as the payload (no per-round ``frozenset``
    copies): the inbox is fully consumed by the synchronous apply step
    before any candidate set is rebound, so the alias is never observed
    after a mutation.
    """
    received: Dict[int, Dict[int, AbstractSet[int]]] = {}

    def visit(ctx, visitor: Visitor) -> None:
        if visitor.payload is None:
            vertex = visitor.target
            roles = state.candidates.get(vertex)
            if not roles:
                return
            payload = (vertex, roles)
            ctx.broadcast(vertex, state.active_edges.get(vertex, ()), payload)
        else:
            sender, roles = visitor.payload
            received.setdefault(visitor.target, {})[sender] = roles

    seeds = (Visitor(v) for v in list(state.candidates))
    engine.do_traversal(seeds, visit)
    return received


def _apply_round(
    state: SearchState,
    proto_graph: Graph,
    received: Dict[int, Dict[int, AbstractSet[int]]],
) -> bool:
    """Synchronous role/edge refinement; returns True if anything changed."""
    changed = False
    edge_labeled = proto_graph.has_edge_labels
    new_candidates: Dict[int, Set[int]] = {}
    for vertex, roles in state.candidates.items():
        inbox = received.get(vertex, {})
        surviving = {
            role
            for role in roles
            if _role_supported(
                vertex, role, proto_graph, state, inbox, edge_labeled
            )
        }
        if surviving != roles:
            changed = True
        if surviving:
            new_candidates[vertex] = surviving

    for vertex in list(state.candidates):
        if vertex not in new_candidates:
            state.deactivate_vertex(vertex)
        else:
            state.candidates[vertex] = new_candidates[vertex]

    # Edge elimination: both endpoints must hold template-adjacent roles.
    for vertex in list(state.candidates):
        roles_v = state.candidates[vertex]
        for nbr in list(state.active_edges.get(vertex, ())):
            if nbr < vertex and nbr in state.candidates:
                continue  # the pair is handled from nbr's side
            roles_u = state.candidates.get(nbr)
            if not roles_u or not _has_adjacent_pair(
                proto_graph, roles_v, roles_u,
                state.graph.edge_label(vertex, nbr) if edge_labeled else None,
                edge_labeled,
            ):
                state.deactivate_edge(vertex, nbr)
                changed = True
    return changed


def _role_supported(
    vertex: int,
    role: int,
    proto_graph: Graph,
    state: SearchState,
    inbox: Dict[int, AbstractSet[int]],
    edge_labeled: bool = False,
) -> bool:
    """Every template-neighbor of ``role`` needs an active witness neighbor.

    With an edge-labeled prototype the witness edge must also carry a
    compatible edge label (template edge label ``None`` matches anything).
    """
    active = state.active_edges.get(vertex, ())
    graph = state.graph
    for required in proto_graph.neighbors(role):
        wanted = (
            proto_graph.edge_label(role, required) if edge_labeled else None
        )
        satisfied = False
        for nbr in active:
            if required not in inbox.get(nbr, ()):
                continue
            if wanted is not None and graph.edge_label(vertex, nbr) != wanted:
                continue
            satisfied = True
            break
        if not satisfied:
            return False
    return True


def _has_adjacent_pair(
    proto_graph: Graph,
    roles_a: Set[int],
    roles_b: Set[int],
    graph_edge_label: "int | None" = None,
    edge_labeled: bool = False,
) -> bool:
    for a in roles_a:
        common = proto_graph.neighbors(a) & roles_b
        if not common:
            continue
        if not edge_labeled:
            return True
        for b in common:
            wanted = proto_graph.edge_label(a, b)
            if wanted is None or wanted == graph_edge_label:
                return True
    return False
