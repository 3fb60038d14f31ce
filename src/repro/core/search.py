"""Search routine for a single prototype (Alg. 2).

``search_prototype`` drives one prototype to its exact solution subgraph:

1. local constraint checking to a fixed point;
2. each non-local constraint in the configured order, re-running LCC after
   any constraint that eliminated something (Alg. 2 lines #7–9) — the
   plan is asked only if step 1 left a live vertex, which is the one
   event that makes a lazy :class:`~repro.core.ordering.ConstraintPlan`
   build walks, and it answers for that scope: the pre-filters of a plan
   that ends in the full walk run only where they are estimated cheaper
   than it (:meth:`~repro.core.ordering.ConstraintPlan.select`, which
   builds them only up to that decision);
3. exactness: either the constraint set ends with the full-walk TDS check
   (which reduces the state to exactly the solution subgraph and counts
   match mappings as a by-product), the prototype is a distinct-labeled
   tree (LCC fixed point is provably exact), or — when the caller disabled
   the full walk — an enumeration-based verification pass.  That is the
   one rule: enumerate exactly when the constraints are not exact, so every
   outcome is the exact solution subgraph.
"""

from __future__ import annotations

import time
from typing import List, Optional, Union

import numpy as np

from ..runtime.engine import Engine
from .constraints import FULL_WALK_KIND, ConstraintSet, NonLocalConstraint
from .enumeration import (
    astate_from_matches,
    count_match_mappings,
    distinct_match_count,
    enumerate_matches,
    enumerate_matches_array,
    state_from_matches,
)
from .arraystate import ArraySearchState
from .kernels import cached_kernel
from .lcc import local_constraint_checking
from .nlcc import NlccResult, non_local_constraint_checking
from .ordering import ConstraintPlan
from .prototypes import Prototype
from .results import PrototypeSearchOutcome
from .state import NlccCache, SearchState


def search_prototype(
    state: "SearchState | ArraySearchState",
    prototype: Prototype,
    constraint_set: Union[ConstraintSet, ConstraintPlan],
    engine: Engine,
    cache: Optional[NlccCache] = None,
    recycle: bool = True,
    count_matches: bool = False,
    collect_matches: bool = False,
    warm_mask: Optional[np.ndarray] = None,
) -> PrototypeSearchOutcome:
    """Reduce ``state`` to the prototype's solution subgraph, in place.

    The constraint set is trusted when it guarantees exactness (full walk
    included, or a distinct-labeled tree); otherwise the search ends in
    enumeration, which reduces ``state`` to the union of the matches.

    The state's type picks the execution, as it does for LCC and NLCC.
    An :class:`~repro.core.arraystate.ArraySearchState` (what the array
    backend's drivers and pool workers hand over) runs the whole search
    body on it — every LCC fixpoint, token walk and enumeration in array
    form over the prototype's bitmask kernel — and the outcome's solution
    sets are read off the arrays.  A :class:`SearchState` runs the
    set-based reference.  Both reach the same solution subgraph; a caller
    holding a dict state that wants the array path wraps it with
    ``ArraySearchState.from_search_state`` first.
    ``warm_mask`` warm-seeds the first array LCC round's broadcast
    accounting (see :func:`~repro.core.lcc.local_constraint_checking`).
    Non-local constraints run in the plan's static order (§5.4); each
    one's wall seconds land in the ``nlcc.constraint_seconds`` histogram.

    What the search counted is ``outcome.counts``: the window of
    ``engine.metrics`` over it.
    """
    outcome = PrototypeSearchOutcome(prototype)
    started = time.perf_counter()
    metrics = engine.metrics
    mark = metrics.mark()
    with engine.tracer.span(
        "prototype",
        metrics=metrics,
        proto=prototype.id,
        label=prototype.name,
        distance=prototype.distance,
    ):
        _search_prototype_body(
            state, prototype, constraint_set, engine, cache, recycle,
            count_matches, collect_matches, warm_mask, outcome,
        )
    outcome.counts = metrics.since(mark)
    outcome.wall_seconds = time.perf_counter() - started
    return outcome


def _search_prototype_body(
    state: "SearchState | ArraySearchState",
    prototype: Prototype,
    constraint_set: Union[ConstraintSet, ConstraintPlan],
    engine: Engine,
    cache: Optional[NlccCache],
    recycle: bool,
    count_matches: bool,
    collect_matches: bool,
    warm_mask: Optional[np.ndarray],
    outcome: PrototypeSearchOutcome,
) -> None:
    """Alg. 2 body; fills ``outcome`` (timing is the caller's job)."""
    in_arrays = isinstance(state, ArraySearchState)
    # compiled once, shared by every LCC re-run and token walk
    kernel = cached_kernel(prototype.graph) if in_arrays else None
    local_constraint_checking(
        state, prototype.graph, engine, kernel=kernel, warm_mask=warm_mask
    )
    post_lcc_vertices, post_lcc_edges = state.active_counts()
    metrics = engine.metrics
    metrics.counter("search.post_lcc_vertices").inc(post_lcc_vertices)
    metrics.counter("search.post_lcc_edges").inc(post_lcc_edges)

    # Asked (and so, for a lazy plan, built) only for a scope that
    # survived LCC: most exploratory prototypes die right here.  The plan
    # answers for the scope LCC left — see ConstraintPlan.select.
    non_local: List[NonLocalConstraint] = []
    if post_lcc_vertices > 0:
        selection = constraint_set.select(state if in_arrays else None)
        non_local = selection.constraints
        skipped = selection.skipped
        metrics.counter("plan.prefilters_skipped").inc(skipped)
        metrics.counter("plan.prefilters_kept").inc(
            sum(c.kind != FULL_WALK_KIND for c in non_local)
        )
        if engine.tracer.enabled and selection.full_walk_rows is not None:
            # lands on the enclosing ``prototype`` span
            engine.tracer.current.attrs.update(
                plan_decision="full-walk-only" if skipped else "complete-list",
                plan_prefilter_rows=selection.prefilter_rows,
                plan_full_walk_rows=selection.full_walk_rows,
            )
    h_constraint = metrics.histogram("nlcc.constraint_seconds")

    full_walk_result: Optional[NlccResult] = None
    for constraint in non_local:
        if not state.num_active_vertices:
            break
        constraint_started = time.perf_counter()
        result = non_local_constraint_checking(
            state, constraint, engine, cache=cache, recycle=recycle,
            kernel=kernel,
        )
        h_constraint.observe(time.perf_counter() - constraint_started)
        if constraint.kind == FULL_WALK_KIND:
            # Keep the whole result: the array walk stores completions
            # as a dense path matrix, and reading .completed_mappings
            # here would materialize per-match dicts even when no one
            # collects them.
            full_walk_result = result
        elif result.changed:
            local_constraint_checking(
                state, prototype.graph, engine, kernel=kernel
            )

    need_enumeration = not (
        full_walk_result is not None or constraint_set.exact_without_full_walk
    )
    if isinstance(state, ArraySearchState):
        # Array-native tail: enumeration (when needed) runs the vectorized
        # frontier backtracker on the array state directly and reduces it
        # in place.
        if need_enumeration:
            match_set = enumerate_matches_array(prototype, state)
            astate_from_matches(state, prototype, match_set)
            outcome.match_mappings = len(match_set)
            if collect_matches:
                outcome.matches = match_set.mappings()
                outcome.match_set = match_set
        elif collect_matches:
            if full_walk_result is not None:
                # Each completed full-walk token already is an exact match.
                outcome.matches = full_walk_result.completed_mappings
            else:
                match_set = enumerate_matches_array(prototype, state)
                outcome.matches = match_set.mappings()
                outcome.match_set = match_set
            outcome.match_mappings = len(outcome.matches)
        elif full_walk_result is not None:
            outcome.match_mappings = full_walk_result.completions
        elif count_matches:
            outcome.match_mappings = len(
                enumerate_matches_array(prototype, state)
            )
    elif collect_matches and not need_enumeration:
        if full_walk_result is not None:
            # Each completed full-walk token already is an exact match.
            outcome.matches = full_walk_result.completed_mappings
        else:
            outcome.matches = list(enumerate_matches(prototype, state))
        outcome.match_mappings = len(outcome.matches)
    elif need_enumeration:
        matches = list(enumerate_matches(prototype, state))
        reduced = state_from_matches(state, prototype, matches)
        state.candidates = reduced.candidates
        state.active_edges = reduced.active_edges
        outcome.match_mappings = len(matches)
        if collect_matches:
            outcome.matches = matches
    elif full_walk_result is not None:
        outcome.match_mappings = full_walk_result.completions
    elif count_matches:
        outcome.match_mappings = count_match_mappings(prototype, state)

    if outcome.match_mappings is not None and (count_matches or collect_matches):
        outcome.distinct_matches = distinct_match_count(
            prototype, outcome.match_mappings
        )

    outcome.solution_vertices = set(state.active_vertices())
    outcome.solution_edges = set(state.active_edge_list())
