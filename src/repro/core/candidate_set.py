"""Maximum candidate set generation — ``M*`` (§3.1, Fig. 1).

``M*`` is the union of all possible approximate matches of the template,
irrespective of edit-distance.  The key insight making it cheap: it depends
only on *local* information.  A vertex can participate in some prototype
match as role ``a`` only if

* its label equals ``l(a)``;
* every *mandatory* neighbor of ``a`` is witnessed by an active neighbor
  (mandatory edges survive in every prototype); and
* at least one template-neighbor of ``a`` is witnessed at all — every
  prototype is connected over the full vertex set ``W0``, so role ``a``
  keeps at least one of its template edges in any prototype.

The procedure iterates these conditions to a fixed point, eliminating
edges to eliminated neighbors along the way (the paper calls this out as a
key optimization to limit network traffic in later pipeline steps).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set, Tuple, Union

from ..runtime.engine import Engine
from ..graph.graph import canonical_edge
from .arraystate import (
    ArraySearchState,
    array_kernel_fixpoint,
)
from .kernels import cached_kernel, structural_fingerprint
from .lcc import _exchange_candidacies, _has_adjacent_pair
from .state import SearchState
from .template import PatternTemplate

#: M* as the set-based or the vectorized fixpoint produced it
MaxCandidateState = Union[SearchState, ArraySearchState]


class CandidateSetMemo:
    """Cross-template ``M*`` memo for batched runs over one graph.

    ``M*`` is edit-distance-independent (§3.1): it depends only on the
    template's labels, edges and mandatory edges — so template-library
    classes that differ only in ``k`` (or repeat runs of one class) can
    share a single background traversal.  The owner scopes one memo to
    one background graph and one options object; keys are the template's
    structural fingerprint plus its mandatory edges.  Entries are kept in
    the form the fixpoint that filled them produced (array states for the
    ``array`` backend) and lookups return a fresh ``copy()`` because the
    pipeline mutates ``M*`` into per-level scopes.
    """

    __slots__ = ("_states", "hits", "misses")

    def __init__(self) -> None:
        self._states: Dict[Tuple, MaxCandidateState] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(template: PatternTemplate) -> Tuple:
        return (
            structural_fingerprint(template.graph),
            tuple(sorted(template.mandatory_edges)),
        )

    def get(self, template: PatternTemplate) -> Optional[MaxCandidateState]:
        state = self._states.get(self.key_for(template))
        if state is None:
            return None
        self.hits += 1
        return state.copy()

    def put(self, template: PatternTemplate, state: MaxCandidateState) -> None:
        self.misses += 1
        self._states[self.key_for(template)] = state.copy()


def max_candidate_set(
    graph,
    template: PatternTemplate,
    engine: Engine,
    memo: Optional[CandidateSetMemo] = None,
) -> SearchState:
    """Compute ``M*`` as a :class:`SearchState` with the set-based rounds.

    The ``reference`` backend's fixpoint: every active vertex broadcasts
    its roles every round, one visitor per message — the visitor counts
    of the paper's message analysis.  :func:`max_candidate_arrays`
    reaches the same fixed point in array form.  ``memo`` (batched runs)
    returns a cached fixed point for a structurally-identical template
    without touching the graph at all.
    """
    return _memoized_fixpoint(
        template, engine, memo, lambda: _dict_fixpoint(graph, template, engine)
    )


def max_candidate_arrays(
    graph,
    template: PatternTemplate,
    engine: Engine,
    memo: Optional[CandidateSetMemo] = None,
) -> ArraySearchState:
    """``M*`` straight from the vectorized fixpoint, in array form.

    Seeds the label candidates as an :class:`ArraySearchState` and prunes
    it with :func:`array_kernel_fixpoint` under the template's mandatory
    masks.  The full-graph M* fixpoint is where elimination cascades are
    densest, so it is the main user of the fixpoint's dense rounds.
    """
    def fixpoint() -> ArraySearchState:
        kernel = cached_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template)
        array_kernel_fixpoint(
            astate, kernel, engine,
            mandatory_masks=kernel.mandatory_masks(template.mandatory_edges),
        )
        return astate

    return _memoized_fixpoint(template, engine, memo, fixpoint)


def _memoized_fixpoint(
    template: PatternTemplate,
    engine: Engine,
    memo: Optional[CandidateSetMemo],
    fixpoint: Callable[[], MaxCandidateState],
) -> MaxCandidateState:
    """Memo lookup, then ``fixpoint()`` in the engine's M* phase."""
    if memo is not None:
        cached = memo.get(template)
        if cached is not None:
            return cached
    with engine.phase("max_candidate_set"):
        state = fixpoint()
    if memo is not None:
        memo.put(template, state)
    return state


def _dict_fixpoint(
    graph, template: PatternTemplate, engine: Engine
) -> SearchState:
    """The set-based M* fixpoint."""
    state = SearchState.initial(graph, template)
    mandatory_neighbors = _mandatory_neighbor_map(template)
    template_graph = template.graph
    changed = True
    while changed:
        received = _exchange_candidacies(state, engine)
        changed = _apply_round(
            state, template_graph, mandatory_neighbors, received
        )
    return state


def _mandatory_neighbor_map(template: PatternTemplate) -> Dict[int, Set[int]]:
    """Template vertex → the neighbors joined to it by mandatory edges."""
    mandatory: Dict[int, Set[int]] = {w: set() for w in template.vertices()}
    for u, v in template.mandatory_edges:
        mandatory[u].add(v)
        mandatory[v].add(u)
    return mandatory


def _apply_round(
    state: SearchState,
    template_graph,
    mandatory_neighbors: Dict[int, Set[int]],
    received: Dict[int, Dict[int, FrozenSet[int]]],
) -> bool:
    changed = False
    new_candidates: Dict[int, Set[int]] = {}
    for vertex, roles in state.candidates.items():
        inbox = received.get(vertex, {})
        active = state.active_edges.get(vertex, ())
        surviving = set()
        for role in roles:
            if _role_viable(
                role, template_graph, mandatory_neighbors, inbox, active
            ):
                surviving.add(role)
        if surviving != roles:
            changed = True
        if surviving:
            new_candidates[vertex] = surviving

    for vertex in list(state.candidates):
        if vertex not in new_candidates:
            state.deactivate_vertex(vertex)
        else:
            state.candidates[vertex] = new_candidates[vertex]

    for vertex in list(state.candidates):
        roles_v = state.candidates[vertex]
        for nbr in list(state.active_edges.get(vertex, ())):
            if nbr < vertex and nbr in state.candidates:
                continue  # the pair is handled from nbr's side
            roles_u = state.candidates.get(nbr)
            if not roles_u or not _has_adjacent_pair(template_graph, roles_v, roles_u):
                state.deactivate_edge(vertex, nbr)
                changed = True
    return changed


def _role_viable(
    role: int,
    template_graph,
    mandatory_neighbors: Dict[int, Set[int]],
    inbox: Dict[int, FrozenSet[int]],
    active_neighbors,
) -> bool:
    required_any = template_graph.neighbors(role)
    if not required_any:  # single-vertex template: label match suffices
        return True
    witnessed = set()
    for nbr in active_neighbors:
        witnessed.update(inbox.get(nbr, ()))
    for mandatory in mandatory_neighbors.get(role, ()):
        if mandatory not in witnessed:
            return False
    return bool(required_any & witnessed)


__all__ = [
    "CandidateSetMemo",
    "max_candidate_arrays",
    "max_candidate_set",
    "canonical_edge",
]
