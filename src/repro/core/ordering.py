"""Constraint and prototype ordering heuristics (§5.4, Fig. 9(b)).

Two optimizations from the paper:

* **Constraint ordering** — non-local walks are orchestrated so vertices
  with lower-frequency labels are visited early: tokens die sooner, so
  fewer messages circulate.  :func:`order_constraints` sorts cheap checks
  first and orients each walk by ascending label frequency.
* **Prototype ordering** — when prototypes are searched in parallel on
  replica deployments, overlapping the most expensive searches improves
  makespan.  :func:`schedule_prototypes` implements LPT (longest processing
  time first) scheduling given per-prototype cost estimates.

:class:`ConstraintPlanner` applies the first for every driver, lazily: a
prototype's :class:`ConstraintPlan` builds walks only when
``search_prototype`` asks it to select (after the first LCC fixpoint
left a live vertex), and then only up to its decision — the complete
list is ordered only for a plan that keeps it.  The walks themselves are
what a prototype's shape and the background's label frequencies decide:
they are built once per process, on the shape's
:class:`~repro.core.prototypes.ShapeRecord` (:class:`ShapeWalks`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from .constraints import (
    CYCLE_KIND,
    FULL_WALK_KIND,
    PATH_KIND,
    TDS_KIND,
    ConstraintSelection,
    NonLocalConstraint,
    prefilter_constraints,
    reverse_visits_rarer_first,
    rooted_full_walk,
)
from .cost_estimation import (
    GraphStatistics,
    estimate_walk_cost,
    order_constraints_by_cost,
)
from .prototypes import Prototype, ShapeRecord, shape_of

_KIND_PRIORITY = {CYCLE_KIND: 0, PATH_KIND: 1, TDS_KIND: 2, FULL_WALK_KIND: 3}


def orient_walk(
    constraint: NonLocalConstraint, label_frequencies: Dict[int, int]
) -> NonLocalConstraint:
    """Pick the walk direction that visits rarer labels earlier.

    A closed walk can be traversed in either direction from its root; the
    direction whose early hops have rarer labels kills non-matching tokens
    faster.  Compares the frequency sequences lexicographically.
    """
    if reverse_visits_rarer_first(constraint.labels, label_frequencies):
        return NonLocalConstraint(
            constraint.kind, constraint.walk[::-1], constraint.labels[::-1],
            constraint.proto_graph,
        )
    return constraint


def order_constraints(
    constraints: Sequence[NonLocalConstraint],
    label_frequencies: Optional[Dict[int, int]] = None,
    optimize: bool = True,
) -> List[NonLocalConstraint]:
    """Checking order for one prototype's non-local constraints.

    Cheap kinds first (cycles, then paths, then combined TDS, full walk
    last — it benefits the most from prior pruning and exactness relies
    on it running after everything else), shorter walks before longer,
    and with ``optimize`` each walk is oriented rare-labels-first and
    constraints whose early labels are rare run before frequent ones.
    Disabling ``optimize`` preserves only the kind/length order — the
    baseline of the Fig. 9(b) ablation.
    """
    def base_key(constraint: NonLocalConstraint) -> Tuple[int, int]:
        return (_KIND_PRIORITY.get(constraint.kind, 9), constraint.length)

    if not optimize or not label_frequencies:
        return sorted(constraints, key=lambda c: (base_key(c), c.key))

    oriented = [orient_walk(c, label_frequencies) for c in constraints]

    def opt_key(constraint: NonLocalConstraint) -> Tuple[Any, ...]:
        freqs = tuple(label_frequencies.get(lab, 0) for lab in constraint.labels)
        return (
            _KIND_PRIORITY.get(constraint.kind, 9),
            constraint.length,
            freqs,
            constraint.key,
        )

    return sorted(oriented, key=opt_key)


class ShapeWalks:
    """One prototype shape's non-local walks, rooted and oriented by one
    background's label frequencies.

    ``full_walk`` is built on first read; :meth:`prefilters` yields the
    CC / PC / TDS walks in generation order, building each only when a
    reader first reaches it.  Kept on the shape's
    :class:`~repro.core.prototypes.ShapeRecord` under
    :meth:`ConstraintPlanner.walks`' key, so each walk of a shape is built
    once per process per orientation, whichever plans and runs read it.
    """

    def __init__(
        self, shape: ShapeRecord, frequencies: Dict[int, int], orient: bool
    ) -> None:
        self._graph = shape.graph
        #: the background frequencies of the shape's own labels
        self._frequencies = frequencies
        self._orient_by = frequencies if orient else None
        self._built: List[NonLocalConstraint] = []
        self._pending = prefilter_constraints(
            shape.graph, shape.cycles, self._orient_by
        )

    @cached_property
    def full_walk(self) -> NonLocalConstraint:
        return rooted_full_walk(self._graph, self._frequencies, self._orient_by)

    def prefilters(self) -> Iterator[NonLocalConstraint]:
        """The pre-filters in generation order: those built so far, then
        each of the rest as it is reached."""
        built = self._built
        index = 0
        while True:
            if index == len(built):
                prefilter = next(self._pending, None)
                if prefilter is None:
                    return
                built.append(prefilter)
            yield built[index]
            index += 1


class ConstraintPlanner:
    """One run's planning choices: the background label frequencies and
    ``constraint_ordering`` — ``True`` orients and sorts rare-labels-first,
    ``False`` keeps the kind/length order, ``"walk-cost"`` sorts by
    estimated pruning efficiency over :class:`GraphStatistics`, collected
    once and only if such a plan builds.
    """

    def __init__(self, graph: Graph, ordering: object = True) -> None:
        self.graph = graph
        self.label_frequencies: Dict[int, int] = graph.label_counts()
        self.ordering = ordering
        self._walk_stats: Optional[GraphStatistics] = None

    def plan(self, proto_graph: Graph) -> "ConstraintPlan":
        return ConstraintPlan(self, proto_graph)

    def walks(self, shape: ShapeRecord) -> ShapeWalks:
        """``shape``'s walks as this background roots and orients them.

        Keyed by what decides that: the background frequencies of the
        shape's labels (they pick the full walk's root and each walk's
        direction) and whether this ordering orients walks at all — only
        the frequency ordering does.
        """
        graph = shape.graph
        frequencies = {
            label: self.label_frequencies.get(label, 0)
            for label in sorted(graph.label_set())
        }
        orient = bool(self.ordering) and self.ordering != "walk-cost"
        key = (tuple(frequencies.items()), orient)
        walks = shape.walks.get(key)
        if walks is None:
            walks = shape.walks[key] = ShapeWalks(shape, frequencies, orient)
        return walks

    def build(self, shape: ShapeRecord) -> List[NonLocalConstraint]:
        """``shape``'s complete list in checking order: the ordering step
        over its pre-filters and full walk.  Per plan, since
        ``"walk-cost"`` reads this background's statistics; the walks
        themselves are the shape record's."""
        walks = self.walks(shape)
        non_local = list(walks.prefilters())
        if not shape.exact_without_full_walk:
            non_local.append(walks.full_walk)
        if self.ordering != "walk-cost":
            return order_constraints(
                non_local, self.label_frequencies, optimize=bool(self.ordering)
            )
        if self._walk_stats is None:
            self._walk_stats = GraphStatistics.from_graph(self.graph)
        return order_constraints_by_cost(non_local, self._walk_stats)


class ConstraintPlan:
    """One prototype's constraints: ``non_local`` is the complete list in
    checking order, built on first read; :meth:`select` builds walks only
    up to its decision — nothing, for a prototype whose scope dies in the
    first LCC fixpoint.  ``exact_without_full_walk`` follows from the
    prototype's shape alone (a tree with distinct labels) and triggers no
    build.  What the shape decides — the walks, the cycles, the pre-filter
    count — lives on its :class:`~repro.core.prototypes.ShapeRecord` and is
    built once per process; the plan keeps nothing of its own but the
    ordered list.  Duck-types the read side of
    :class:`~repro.core.constraints.ConstraintSet`.
    """

    def __init__(self, planner: ConstraintPlanner, proto_graph: Graph) -> None:
        self.proto_graph = proto_graph
        self._shape = shape_of(proto_graph)
        self.exact_without_full_walk = self._shape.exact_without_full_walk
        self._planner = planner

    @cached_property
    def non_local(self) -> List[NonLocalConstraint]:
        return self._planner.build(self._shape)

    def full_walk(self) -> Optional[NonLocalConstraint]:
        tail = self.non_local[-1:]  # every order puts the full walk last
        return tail[0] if tail and tail[0].kind == FULL_WALK_KIND else None

    def select(self, astate=None) -> ConstraintSelection:
        """The constraints worth running on the live scope ``astate``.

        A plan that ends in the full walk owes its answer to that walk
        alone — it reduces the scope to exactly the solution subgraph
        whatever ran before it — so the CC / PC / TDS walks in front are
        pre-filters: they can at best shrink the full walk to nothing.
        When their estimated rows on this scope
        (:func:`~repro.core.cost_estimation.estimate_walk_cost` over
        :meth:`GraphStatistics.from_scope`) reach the full walk's, they
        cannot pay and the full walk runs alone; otherwise the whole list
        runs.  Decided from counts, so equal scopes decide equally, and
        answered afresh per scope: a plan is shared, nothing is kept on it.

        The full walk is estimated first; the pre-filters are then read
        one at a time, in generation order (each built on the shape's
        first need of it), and their estimates added up.  The sum only
        grows, so the first pre-filter that brings it to the full walk's
        estimate decides "the full walk alone" exactly as the complete
        list's sum would, and the rest are never built; their number
        (``skipped``) follows from the cycles and labels
        (:func:`~repro.core.constraints.prefilter_count`).  Only a plan
        whose sum never gets there orders the complete list.

        A prototype exact without the full walk has no walk to fall back
        on, and without an array scope (``astate is None``: the reference
        backend) the paper's complete list runs; both skip nothing.  Every
        other prototype has a cycle or a same-labeled pair, so at least
        one pre-filter.
        """
        if astate is None or self.exact_without_full_walk:
            return ConstraintSelection(self.non_local)
        walks = self._planner.walks(self._shape)
        stats = GraphStatistics.from_scope(astate, self.proto_graph)
        full_walk = walks.full_walk
        full_walk_rows = estimate_walk_cost(full_walk, stats)
        prefilter_rows = 0.0
        for prefilter in walks.prefilters():
            prefilter_rows += estimate_walk_cost(prefilter, stats)
            if prefilter_rows >= full_walk_rows:
                return ConstraintSelection(
                    [full_walk], prefilter_rows, full_walk_rows,
                    self._shape.prefilter_count,
                )
        return ConstraintSelection(self.non_local, prefilter_rows, full_walk_rows)


def estimate_prototype_cost(
    prototype: Prototype, label_frequencies: Dict[int, int]
) -> float:
    """Heuristic cost of searching one prototype.

    Proportional to the candidate mass of its labels times its edge count,
    with a superlinear bump for cyclic prototypes (NLCC token fan-out).
    The paper instead reorders from a *measured* previous run and calls the
    result an upper bound on what cost-projection heuristics can achieve —
    :func:`schedule_prototypes` accepts measured costs too.
    """
    mass = sum(
        label_frequencies.get(prototype.graph.label(v), 1)
        for v in prototype.graph.vertices()
    )
    cyclic_penalty = 1.0 + max(
        0, prototype.num_edges - (prototype.num_vertices - 1)
    )
    return mass * prototype.num_edges * cyclic_penalty


def schedule_prototypes(
    costs: Sequence[float], num_deployments: int, optimize: bool = True
) -> List[List[int]]:
    """Assign prototype indices to ``num_deployments`` parallel replicas.

    With ``optimize``, LPT scheduling: sort by descending cost and always
    give the next prototype to the least-loaded replica (overlapping the
    expensive searches, Fig. 9(b) middle).  Without, round-robin in the
    given order — the naive baseline.
    """
    if num_deployments <= 0:
        raise ValueError("num_deployments must be positive")
    batches: List[List[int]] = [[] for _ in range(num_deployments)]
    if optimize:
        loads = [0.0] * num_deployments
        for index in sorted(range(len(costs)), key=lambda i: -costs[i]):
            target = loads.index(min(loads))
            batches[target].append(index)
            loads[target] += costs[index]
    else:
        for index in range(len(costs)):
            batches[index % num_deployments].append(index)
    return batches


def parallel_makespan(costs: Sequence[float], batches: List[List[int]]) -> float:
    """Simulated level time: the busiest replica's total cost."""
    if not batches:
        return 0.0
    return max(sum(costs[i] for i in batch) for batch in batches)
