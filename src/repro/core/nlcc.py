"""Non-local constraint checking — NLCC (Alg. 5).

Token-passing verification of one closed walk constraint:

* every active vertex holding the constraint's source role initiates a
  token (unless the work-recycling cache already knows it satisfies this
  constraint — Obs. 2);
* a token carries the ordered list of graph vertices that forwarded it; a
  receiving vertex validates the hop (role membership + identity checks
  against the template walk) and either drops the token or broadcasts it
  onward over its active edges;
* a token whose hop count reaches the walk length has returned to its
  initiator (closed walks force this through the identity checks); the
  initiator is marked satisfied;
* afterwards, every checked vertex that was not marked loses the source
  role — and possibly gets eliminated.

For *full-walk* constraints (the aggregate TDS check covering every
template edge), each completed token is an exact match by construction; the
verified (vertex, role) pairs and traversed edges are recorded so the state
can be reduced to exactly the solution subgraph, and the number of
completed tokens equals the number of match mappings (used for counting).

Two executions of the same walk are available, picked by the state's
type:

* on a :class:`~repro.core.state.SearchState`, the reference token walk
  below — one Python tuple per token, driven through the engine's
  visitor callbacks;
* on an :class:`~repro.core.arraystate.ArraySearchState`, the batched
  array frontier (:func:`~repro.core.arraystate.array_token_walk`) —
  whole token generations as struct-of-arrays advanced one hop per round
  over the CSR, with per-(vertex, hop, initiator) dedup.  A hop back to a
  vertex the token already carries is one edge look-up per row, not an
  expansion; the messages the model sends for it are charged all the
  same.  Results are identical; only message counts may shrink under
  dedup.

The array frontier's bookkeeping stays in arrays: the recycling cache is
probed and extended as sorted vertex-id arrays
(:class:`~repro.core.state.NlccCache`), and :class:`NlccResult` keeps the
walk's dense index arrays — its ``checked`` / ``satisfied`` / ``recycled``
sets, like its match evidence, are decoded only if someone reads them.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..graph.graph import canonical_edge
from ..runtime.engine import Engine
from ..runtime.visitor import Visitor
from .constraints import FULL_WALK_KIND, NonLocalConstraint
from .kernels import RoleKernel, cached_kernel, compile_walk_schedule
from .state import NlccCache, SearchState


class NlccResult:
    """Outcome of checking one non-local constraint."""

    __slots__ = (
        "constraint",
        "_checked",
        "_satisfied",
        "_recycled",
        "_initiators",
        "eliminated_roles",
        "completions",
        "_confirmed_roles",
        "_confirmed_edges",
        "_confirmed_dense",
        "_completed_mappings",
        "completed_walk",
        "completed_paths",
        "dedup_merged",
        "rows_expanded",
    )

    def __init__(self, constraint: NonLocalConstraint) -> None:
        self.constraint = constraint
        #: backing stores of :attr:`checked`, :attr:`satisfied` and
        #: :attr:`recycled`.  The dict walk fills them eagerly; the array
        #: walk sets them to None and keeps ``_initiators`` = (csr.order,
        #: checked, token-satisfied, recycled dense index arrays) instead
        #: — decoded to vertex-id sets on first access.
        self._checked: Optional[Set[int]] = set()
        self._satisfied: Optional[Set[int]] = set()
        self._recycled: Optional[Set[int]] = set()
        self._initiators = None
        self.eliminated_roles = 0
        #: number of tokens that completed the walk (for full walks this is
        #: exactly the number of match mappings rooted anywhere)
        self.completions = 0
        #: backing stores of :attr:`confirmed_roles`, :attr:`confirmed_edges`
        #: and :attr:`completed_mappings`.  The dict walk fills them
        #: eagerly; the array walk sets them to None and keeps the dense
        #: evidence instead — ``_confirmed_dense`` = (csr, kernel, per-vertex
        #: role masks in the state's layout, per-directed-edge flag array) and
        #: ``completed_walk``/``completed_paths`` — decoded on first access.
        self._confirmed_roles: Optional[Dict[int, Set[int]]] = {}
        self._confirmed_edges: Optional[Set[Tuple[int, int]]] = set()
        self._confirmed_dense = None
        self._completed_mappings: Optional[list] = []
        #: walk role sequence of the dense match evidence (array walk)
        self.completed_walk: Optional[Tuple[int, ...]] = None
        #: completions-by-walk-length matrix of graph vertex ids, one row
        #: per completed full-walk token (array walk)
        self.completed_paths = None
        #: token rows collapsed by the array frontier's canonical fold
        #: (always 0 on the reference walk, which never dedups)
        self.dedup_merged = 0
        #: rows the array frontier materialised — expansion rows plus
        #: revisit look-up probes; the engine's message counters hold what
        #: the paper's model sends (always 0 on the reference walk)
        self.rows_expanded = 0

    @property
    def checked(self) -> Set[int]:
        """Vertex ids that held the source role when the walk started."""
        if self._checked is None:
            order, checked_idx, _, _ = self._initiators
            self._checked = set(order[checked_idx].tolist())
        return self._checked

    @property
    def satisfied(self) -> Set[int]:
        """Checked vertex ids that kept the role (token completed or recycled)."""
        if self._satisfied is None:
            order, _, satisfied_idx, _ = self._initiators
            self._satisfied = (
                set(order[satisfied_idx].tolist()) | self.recycled
            )
        return self._satisfied

    @property
    def recycled(self) -> Set[int]:
        """Checked vertex ids the work-recycling cache vouched for."""
        if self._recycled is None:
            order, _, _, recycled_idx = self._initiators
            self._recycled = set(order[recycled_idx].tolist())
        return self._recycled

    @property
    def confirmed_roles(self) -> Dict[int, Set[int]]:
        """For full walks: vertex id -> roles some completed token gave it."""
        if self._confirmed_roles is None:
            from .arraystate.searchstate import mask_ints, rows_nonzero

            csr, kernel, words, _ = self._confirmed_dense
            held = rows_nonzero(words).nonzero()[0]
            self._confirmed_roles = {
                vertex: kernel.roles_of(mask)
                for vertex, mask in zip(
                    csr.order[held].tolist(), mask_ints(words[held])
                )
            }
        return self._confirmed_roles

    @property
    def confirmed_edges(self) -> Set[Tuple[int, int]]:
        """For full walks: canonical ``(lo, hi)`` vertex-id pair of every
        edge some completed token walked."""
        if self._confirmed_edges is None:
            csr, _, _, confirmed = self._confirmed_dense
            # each undirected edge once, from its smaller-id endpoint
            once = (confirmed & csr.vid_gt).nonzero()[0]
            self._confirmed_edges = set(
                zip(
                    csr.order[csr.src[once]].tolist(),
                    csr.order[csr.indices[once]].tolist(),
                )
            )
        return self._confirmed_edges

    @property
    def completed_mappings(self) -> list:
        """For full walks: one role -> graph-vertex mapping per completed
        token (each completion IS an exact match).

        The array walk stores its completions as a dense path matrix;
        per-match dicts are materialized from it only on first access,
        so pipelines that merely count matches never build them.
        """
        if self._completed_mappings is None:
            from .enumeration import matches_from_paths

            self._completed_mappings = matches_from_paths(
                self.completed_walk, self.completed_paths.tolist()
            )
        return self._completed_mappings

    @property
    def changed(self) -> bool:
        return self.eliminated_roles > 0

    @property
    def recycled_count(self) -> int:
        """``len(recycled)``, without decoding an array walk's indices."""
        if self._initiators is not None:
            return int(self._initiators[3].shape[0])
        return len(self._recycled)

    @property
    def tokens_launched(self) -> int:
        """Initiators that actually launched a token (checked − recycled)."""
        if self._initiators is not None:
            checked = int(self._initiators[1].shape[0])
        else:
            checked = len(self._checked)
        return checked - self.recycled_count

    def __repr__(self) -> str:
        return (
            f"NlccResult({self.constraint.kind}, checked={len(self.checked)}, "
            f"satisfied={len(self.satisfied)}, eliminated={self.eliminated_roles})"
        )


def non_local_constraint_checking(
    state,
    constraint: NonLocalConstraint,
    engine: Engine,
    cache: Optional[NlccCache] = None,
    recycle: bool = True,
    kernel: Optional[RoleKernel] = None,
) -> NlccResult:
    """Verify ``constraint`` over ``state`` in place; returns the outcome.

    Full-walk constraints additionally *reduce* the state to exactly the
    confirmed vertices/roles/edges (they subsume all weaker checks).
    Recycling never applies to full walks: their completions double as the
    exact match evidence and must be recomputed per prototype.

    A :class:`SearchState` runs the reference token walk; an
    :class:`~repro.core.arraystate.ArraySearchState` runs the batched
    array frontier over the prototype's bitmask ``kernel`` (compiled from
    ``constraint.proto_graph`` unless supplied).
    """
    if isinstance(state, SearchState):
        return _check_dict(state, constraint, engine, cache, recycle)
    if kernel is None:
        kernel = cached_kernel(constraint.proto_graph)
    return _check_array(state, constraint, engine, cache, recycle, kernel)


# ----------------------------------------------------------------------
# Reference token walk
# ----------------------------------------------------------------------
def _check_dict(
    state: SearchState,
    constraint: NonLocalConstraint,
    engine: Engine,
    cache: Optional[NlccCache],
    recycle: bool,
) -> NlccResult:
    walk = constraint.walk
    walk_len = len(walk)
    source_role = constraint.source
    is_full_walk = constraint.kind == FULL_WALK_KIND
    use_cache = recycle and cache is not None and not is_full_walk
    result = NlccResult(constraint)
    candidates = state.candidates
    active_edges = state.active_edges
    schedule = compile_walk_schedule(constraint)
    same_positions = schedule.same_positions
    diff_positions = schedule.diff_positions
    # Per-hop required edge labels (None = any); populated only for
    # edge-labeled prototypes so the plain hot path stays unchanged.
    hop_edge_labels = schedule.hop_edge_labels
    if hop_edge_labels is not None:
        graph_edge_label = state.graph.edge_label

    def visit(ctx, visitor: Visitor) -> None:
        if visitor.payload is None:
            _initiate(ctx, visitor.target)
        else:
            _advance(ctx, visitor.target, visitor.payload)

    def _initiate(ctx, vertex: int) -> None:
        roles = candidates.get(vertex)
        if not roles or source_role not in roles:
            return
        result.checked.add(vertex)
        if use_cache and cache.is_satisfied(constraint.key, vertex):
            result.satisfied.add(vertex)
            result.recycled.add(vertex)
            return
        ctx.broadcast(vertex, active_edges.get(vertex, ()), (vertex,))

    def _advance(ctx, vertex: int, token: Tuple[int, ...]) -> None:
        hop = len(token)  # position of `vertex` in the walk
        roles = candidates.get(vertex)
        if not roles or walk[hop] not in roles:
            return  # drop token
        if hop_edge_labels is not None:
            wanted = hop_edge_labels[hop]
            if wanted is not None and graph_edge_label(token[-1], vertex) != wanted:
                return
        for position in same_positions[hop]:
            if token[position] != vertex:
                return
        for position in diff_positions[hop]:
            if token[position] == vertex:
                return
        extended = token + (vertex,)
        if hop == walk_len - 1:
            # Closed walk: the identity check above already forced
            # vertex == token[0], the initiator.
            result.completions += 1
            result.satisfied.add(extended[0])
            if is_full_walk:
                _record_match(extended)
            return
        ctx.broadcast(vertex, active_edges.get(vertex, ()), extended)

    def _record_match(token: Tuple[int, ...]) -> None:
        mapping = {}
        for position, vertex in enumerate(token):
            result.confirmed_roles.setdefault(vertex, set()).add(walk[position])
            mapping[walk[position]] = vertex
        for position in range(len(token) - 1):
            result.confirmed_edges.add(
                canonical_edge(token[position], token[position + 1])
            )
        result.completed_mappings.append(mapping)

    with engine.phase(
        "nlcc", kind=constraint.kind, source=source_role, walk_length=walk_len,
    ):
        seeds = (Visitor(v) for v in list(state.candidates))
        engine.do_traversal(seeds, visit)

        # Post-processing pushes no messages but belongs to the constraint's
        # attribution window, so it stays inside the phase.
        if is_full_walk:
            _reduce_to_confirmed(state, result)
        else:
            for vertex in result.checked - result.satisfied:
                state.remove_role(vertex, source_role)
                result.eliminated_roles += 1
            if cache is not None:
                cache.mark_satisfied(
                    constraint.key, result.satisfied - result.recycled
                )
        _count(engine, result, use_cache)
    return result


def _count(engine: Engine, result: NlccResult, use_cache: bool) -> None:
    """Account one checked constraint in the run's registry."""
    metrics = engine.metrics
    metrics.counter("nlcc.constraints_checked").inc()
    metrics.counter("nlcc.roles_eliminated").inc(result.eliminated_roles)
    metrics.counter("nlcc.tokens_launched").inc(result.tokens_launched)
    metrics.counter("nlcc.completions").inc(result.completions)
    metrics.counter("nlcc.dedup_merged").inc(result.dedup_merged)
    metrics.counter("nlcc.rows_expanded").inc(result.rows_expanded)
    if use_cache:
        # every checked initiator probed the cache once
        metrics.counter("cache.nlcc.hits").inc(result.recycled_count)
        metrics.counter("cache.nlcc.misses").inc(result.tokens_launched)


def _reduce_to_confirmed(state: SearchState, result: NlccResult) -> None:
    """Replace the state with exactly the match-confirmed subgraph."""
    before = state.num_active_vertices
    for vertex in list(state.candidates):
        confirmed = result.confirmed_roles.get(vertex)
        if not confirmed:
            state.deactivate_vertex(vertex)
        else:
            state.candidates[vertex] = set(confirmed)
    for vertex in list(state.candidates):
        for nbr in list(state.active_edges.get(vertex, ())):
            if nbr < vertex:
                continue
            if canonical_edge(vertex, nbr) not in result.confirmed_edges:
                state.deactivate_edge(vertex, nbr)
    result.eliminated_roles += before - state.num_active_vertices


# ----------------------------------------------------------------------
# Array token frontier
# ----------------------------------------------------------------------
def _check_array(
    astate,
    constraint: NonLocalConstraint,
    engine: Engine,
    cache: Optional[NlccCache],
    recycle: bool,
    kernel: RoleKernel,
) -> NlccResult:
    """Run the constraint on the batched array frontier, ``astate`` in place."""
    import numpy as np

    from .arraystate import array_token_walk

    is_full_walk = constraint.kind == FULL_WALK_KIND
    use_cache = recycle and cache is not None and not is_full_walk
    schedule = compile_walk_schedule(constraint)
    result = NlccResult(constraint)
    csr = astate.csr
    order = csr.order

    with engine.phase(
        "nlcc", kind=constraint.kind, source=constraint.source,
        walk_length=schedule.length,
    ):
        walk_out = array_token_walk(
            astate, schedule, kernel, engine,
            recycled=cache.satisfied(constraint.key) if use_cache else None,
            dedup=not is_full_walk,
            collect_paths=is_full_walk,
        )
        result._checked = result._satisfied = result._recycled = None
        result._initiators = (
            order, walk_out.checked_idx, walk_out.satisfied_idx,
            walk_out.recycled_idx,
        )
        result.completions = walk_out.completions
        result.dedup_merged = walk_out.dedup_merged
        result.rows_expanded = walk_out.rows_expanded

        if is_full_walk:
            _reduce_to_confirmed_array(
                astate, schedule, kernel, walk_out, result
            )
        else:
            satisfied = np.zeros(csr.num_vertices, dtype=bool)
            satisfied[walk_out.satisfied_idx] = True
            satisfied[walk_out.recycled_idx] = True
            elim_idx = walk_out.checked_idx[
                ~satisfied[walk_out.checked_idx]
            ]
            if elim_idx.shape[0]:
                dead = astate.clear_role_bit(elim_idx, constraint.source)
                if dead.shape[0]:
                    astate.deactivate_indices(dead)
                result.eliminated_roles = int(elim_idx.shape[0])
            if cache is not None:
                # launched initiators only: recycled ones never walk
                cache.mark_satisfied(
                    constraint.key, order[walk_out.satisfied_idx]
                )
        _count(engine, result, use_cache)
    return result


def _reduce_to_confirmed_array(
    astate, schedule, kernel: RoleKernel, walk_out, result: NlccResult
) -> None:
    """Array form of :func:`_reduce_to_confirmed` (full-walk reduction).

    The walk hands over, per completed token, the vertex at every walk
    position and the CSR edge taken at every hop, so "confirmed" is two
    scatters — role bits by vertex, a flag by edge position (plus its
    mirror) — with nothing to sort or search.
    """
    import numpy as np

    from .arraystate.searchstate import rows_nonzero, rows_where

    csr = astate.csr
    walk = schedule.walk
    paths = walk_out.full_paths
    before = astate.num_active_vertices

    # confirmed role bits, in the state's mask layout; a revisited role is
    # skipped — the identity check pinned its column to the role's first
    # position, already scattered
    words = astate.masks_of(
        (role, paths[:, position])
        for position, role in enumerate(walk)
        if not schedule.same_positions[position]
    )
    confirmed = np.zeros(csr.num_directed_edges, dtype=bool)
    confirmed[walk_out.full_edges] = True
    confirmed |= confirmed[csr.mirror]

    # Match evidence, identical to the reference walk's _record_match output.
    # None of it is decoded here: the dense arrays are the stored form,
    # and NlccResult builds confirmed_roles / confirmed_edges /
    # completed_mappings from them only if a consumer asks.
    result._confirmed_roles = None
    result._confirmed_edges = None
    result._confirmed_dense = (csr, kernel, words, confirmed)
    if paths.shape[0]:
        result.completed_walk = tuple(walk)
        result.completed_paths = csr.order[paths]
        result._completed_mappings = None

    # Reduction, mirroring the reference loop exactly: unconfirmed candidates
    # deactivate (killing their edges both ways); survivors' roles are
    # replaced by their confirmed set; an unconfirmed alive edge dies only
    # when examined from its smaller-id endpoint's side with that endpoint
    # still a candidate — the same asymmetric-aliveness quirk the dict
    # state preserves.
    drop_idx = np.nonzero(astate.vertex_active & ~rows_nonzero(words))[0]
    if drop_idx.shape[0]:
        astate.deactivate_indices(drop_idx)
    astate.role_mask = rows_where(astate.vertex_active, words)
    alive = astate.edge_alive
    kill_idx = np.nonzero(
        alive & csr.vid_gt & astate.vertex_active[csr.src] & ~confirmed
    )[0]
    if kill_idx.shape[0]:
        alive[kill_idx] = False
        alive[csr.mirror[kill_idx]] = False
    result.eliminated_roles += before - astate.num_active_vertices

