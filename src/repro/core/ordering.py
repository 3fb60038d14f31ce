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
list is generated and ordered only for a plan that keeps it.
"""

from __future__ import annotations

from functools import cached_property
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph.graph import Graph
from . import constraints as constraint_builder
from .constraints import (
    CYCLE_KIND,
    FULL_WALK_KIND,
    PATH_KIND,
    TDS_KIND,
    ConstraintSelection,
    Cycles,
    NonLocalConstraint,
    exact_without_full_walk,
    prefilter_constraints,
    prefilter_count,
    reverse_visits_rarer_first,
    rooted_full_walk,
    simple_cycles,
    wants_full_walk,
)
from .cost_estimation import (
    GraphStatistics,
    estimate_walk_cost,
    order_constraints_by_cost,
)
from .prototypes import Prototype

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


class ConstraintPlanner:
    """One run's (or pool worker's) planning choices: the background label
    frequencies, the full-walk policy and ``constraint_ordering`` — ``True``
    orients and sorts rare-labels-first, ``False`` keeps the kind/length
    order, ``"walk-cost"`` sorts by estimated pruning efficiency over
    :class:`GraphStatistics`, collected once and only if such a plan builds.
    """

    def __init__(
        self, graph: Graph, include_full_walk: object = "auto", ordering: object = True
    ) -> None:
        self.graph = graph
        self.label_frequencies: Dict[int, int] = graph.label_counts()
        self.include_full_walk = include_full_walk
        self.ordering = ordering
        self._walk_stats: Optional[GraphStatistics] = None

    def plan(self, proto_graph: Graph) -> "ConstraintPlan":
        return ConstraintPlan(self, proto_graph)

    @property
    def _orient_by(self) -> Optional[Dict[int, int]]:
        """The frequencies walks are turned rare-labels-first by at
        construction: only the frequency ordering orients."""
        if self.ordering and self.ordering != "walk-cost":
            return self.label_frequencies
        return None

    def build(self, proto_graph: Graph) -> List[NonLocalConstraint]:
        """Generate and order ``proto_graph``'s non-local constraints now."""
        orient_by = self._orient_by
        # through the module attribute: the e2e trace and the tests rebind
        # ``constraints.generate_constraints`` to see the builds that happen
        non_local = constraint_builder.generate_constraints(
            proto_graph, self.label_frequencies, self.include_full_walk,
            orient=orient_by is not None,
        ).non_local
        if self.ordering != "walk-cost":
            return order_constraints(
                non_local, self.label_frequencies, optimize=bool(self.ordering)
            )
        if self._walk_stats is None:
            self._walk_stats = GraphStatistics.from_graph(self.graph)
        return order_constraints_by_cost(non_local, self._walk_stats)

    def full_walk(self, proto_graph: Graph) -> NonLocalConstraint:
        """The complete list's full walk, built alone."""
        return rooted_full_walk(proto_graph, self.label_frequencies, self._orient_by)

    def prefilters(
        self, proto_graph: Graph, cycles: Cycles
    ) -> Iterator[NonLocalConstraint]:
        """The complete list's pre-filters in generation order, one at a
        time, oriented as the complete list orients them."""
        return prefilter_constraints(proto_graph, cycles, self._orient_by)


class ConstraintPlan:
    """One prototype's constraints: ``non_local`` is the complete list in
    checking order, built on first read; :meth:`select` builds walks only
    up to its decision — nothing, for a prototype whose scope dies in the
    first LCC fixpoint.  ``exact_without_full_walk`` follows from the
    prototype's shape alone (a tree with distinct labels) and triggers no
    build.  Duck-types the read side of
    :class:`~repro.core.constraints.ConstraintSet`.
    """

    def __init__(self, planner: ConstraintPlanner, proto_graph: Graph) -> None:
        self.proto_graph = proto_graph
        self.exact_without_full_walk = exact_without_full_walk(proto_graph)
        self._planner = planner

    @cached_property
    def non_local(self) -> List[NonLocalConstraint]:
        return self._planner.build(self.proto_graph)

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

        The full walk is built and estimated first; the pre-filters are
        then built one at a time, in generation order, and their
        estimates added up.  The sum only grows, so the first pre-filter
        that brings it to the full walk's estimate decides "the full walk
        alone" exactly as the complete list's sum would, and the rest are
        never built; their number (``skipped``) follows from the cycles
        and labels (:func:`~repro.core.constraints.prefilter_count`).
        Only a plan whose sum never gets there builds the complete list.

        Without a full walk there is nothing to fall back on, and without
        an array scope (``astate is None``: the reference backend) the
        paper's complete list runs; both skip nothing.
        """
        planner, proto_graph = self._planner, self.proto_graph
        if astate is None or not wants_full_walk(
            proto_graph, planner.include_full_walk
        ):
            return ConstraintSelection(self.non_local)
        cycles = simple_cycles(proto_graph)
        total = prefilter_count(proto_graph, cycles)
        if total == 0:
            return ConstraintSelection(self.non_local)
        stats = GraphStatistics.from_scope(astate, proto_graph)
        full_walk = planner.full_walk(proto_graph)
        full_walk_rows = estimate_walk_cost(full_walk, stats)
        prefilter_rows = 0.0
        for prefilter in planner.prefilters(proto_graph, cycles):
            prefilter_rows += estimate_walk_cost(prefilter, stats)
            if prefilter_rows >= full_walk_rows:
                return ConstraintSelection(
                    [full_walk], prefilter_rows, full_walk_rows, total
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
