"""Cost and success-likelihood estimation for constrained walks.

The paper's constraint-ordering heuristic (§5.4) visits rare labels early;
its companion work (Tripoul et al., IA3'18 — cited as [65]) goes further
and *estimates the cost and likelihood of success* of each constrained
walk from background-graph statistics, to pick the cheapest sufficient
constraint order.  This module reproduces that estimator:

* :class:`GraphStatistics` — vertex and edge counts from one of two
  sources: per label over a background graph (one pass), or per template
  role over a live array scope (what a prototype's first LCC fixpoint
  left — the counts :meth:`~repro.core.ordering.ConstraintPlan.select`
  decides on);
* :func:`estimate_walk_cost` — expected number of frontier rows a
  constraint's walk builds, from a first-order Markov model: an expansion
  hop multiplies the rows by the mean number of next-key neighbors of a
  current-key vertex, a hop back to a vertex the token already carries is
  one edge look-up per row;
* :func:`estimate_success_probability` — the chance a random candidate
  initiator completes the walk (drives "likelihood of success");
* :func:`order_constraints_by_cost` — sorts a constraint set by expected
  *pruning efficiency* (likely-failing cheap checks first, the full walk
  last), a drop-in alternative to the frequency heuristic in
  :func:`repro.core.ordering.order_constraints`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..graph.graph import Graph
from .constraints import FULL_WALK_KIND, NonLocalConstraint


class GraphStatistics:
    """Vertex and edge counts a walk estimate reads, from one of two sources.

    :meth:`from_graph` keys by *label*: ``vertex_counts[label]`` is the
    number of vertices with that label; ``pair_edge_counts[(a, b)]``
    (canonical, a ≤ b) counts edges between labels ``a`` and ``b``.

    :meth:`from_scope` keys by *template role* over a live array scope:
    ``vertex_counts[role]`` is the number of active vertices holding the
    role; ``pair_edge_counts[(a, b)]`` counts the alive directed edges
    from an ``a`` holder to a ``b`` holder — one entry per direction of a
    template edge, because aliveness is per direction.

    ``key`` names the constraint attribute the counts are keyed by
    (``"labels"`` or ``"walk"``).
    """

    def __init__(
        self,
        num_vertices: int,
        vertex_counts: Dict[int, int],
        pair_edge_counts: Dict[Tuple[int, int], int],
        key: str = "labels",
    ) -> None:
        self.num_vertices = num_vertices
        self.vertex_counts = vertex_counts
        self.pair_edge_counts = pair_edge_counts
        self.key = key

    @classmethod
    def from_graph(cls, graph: Graph) -> "GraphStatistics":
        vertex_counts = graph.label_counts()
        pair_edge_counts: Dict[Tuple[int, int], int] = {}
        for u, v in graph.edges():
            pair = _canonical_pair(graph.label(u), graph.label(v))
            pair_edge_counts[pair] = pair_edge_counts.get(pair, 0) + 1
        return cls(graph.num_vertices, vertex_counts, pair_edge_counts)

    @classmethod
    def from_scope(cls, astate, proto_graph: Graph) -> "GraphStatistics":
        """Role-level counts of the scope an
        :class:`~repro.core.arraystate.ArraySearchState` holds right now.

        One ``flatnonzero(edge_alive)`` and two boolean gathers per role,
        one ``count_nonzero`` per direction of every prototype edge.  A
        vertex that is active with an empty role set counts for no role.
        """
        csr = astate.csr
        alive = np.flatnonzero(astate.edge_alive)
        src, dst = csr.src[alive], csr.indices[alive]
        vertex_counts: Dict[int, int] = {}
        at_src: Dict[int, np.ndarray] = {}
        at_dst: Dict[int, np.ndarray] = {}
        for role in proto_graph.vertices():
            column, bit = astate.role_column(role)
            holds = (column & bit) != 0
            vertex_counts[role] = int(np.count_nonzero(holds))
            at_src[role], at_dst[role] = holds[src], holds[dst]
        pair_edge_counts: Dict[Tuple[int, int], int] = {}
        for u, v in proto_graph.edges():
            for a, b in ((u, v), (v, u)):
                pair_edge_counts[(a, b)] = int(
                    np.count_nonzero(at_src[a] & at_dst[b])
                )
        return cls(
            astate.num_active_vertices, vertex_counts, pair_edge_counts,
            key="walk",
        )

    def label_count(self, label: int) -> int:
        return self.vertex_counts.get(label, 0)

    def directed_edges(self, from_label: int, to_label: int) -> int:
        """Edges leaving a ``from_label`` vertex for a ``to_label`` vertex.

        Label statistics count undirected edges: each has one endpoint on
        the ``from_label`` side (two when the labels coincide).
        """
        if self.key == "walk":
            return self.pair_edge_counts.get((from_label, to_label), 0)
        edges = self.pair_edge_counts.get(
            _canonical_pair(from_label, to_label), 0
        )
        return 2 * edges if from_label == to_label else edges

    def expected_branching(self, from_label: int, to_label: int) -> float:
        """Mean number of ``to_label`` neighbors of a ``from_label`` vertex."""
        source_count = self.label_count(from_label)
        if source_count == 0:
            return 0.0
        return self.directed_edges(from_label, to_label) / source_count


def _canonical_pair(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def estimate_walk_cost(
    constraint: NonLocalConstraint, stats: GraphStatistics
) -> float:
    """Expected frontier rows the array walk builds checking ``constraint``.

    First-order model over the walk ``w₀ … w_L``: the seed frontier is one
    row per initiator.  A hop to a vertex the token does not carry yet is
    an expansion — the rows are multiplied by the transition's mean
    branching and the new rows charged.  A hop back to a carried vertex is
    one edge look-up per row (:meth:`GraphCsr.edge_positions`): the probes
    are charged, and a row survives with the chance that one given pair of
    holders is joined, ``m[a→b] / (n[a]·n[b])``.  Role, edge-label and
    distinctness filters are ignored (they only reduce the estimate), so
    this is a slight over-estimate — the safe direction for ordering and
    selection decisions alike.
    """
    keys = getattr(constraint, stats.key)
    walk = constraint.walk
    rows = float(stats.label_count(keys[0]))
    cost = rows
    carried = {walk[0]}
    for hop in range(1, len(walk)):
        if rows == 0.0:
            break
        here, there = keys[hop - 1], keys[hop]
        if walk[hop] in carried:
            cost += rows
            pairs = stats.label_count(here) * stats.label_count(there)
            joined = stats.directed_edges(here, there)
            rows *= min(1.0, joined / pairs) if pairs else 0.0
        else:
            carried.add(walk[hop])
            rows *= stats.expected_branching(here, there)
            cost += rows
    return cost


def estimate_success_probability(
    constraint: NonLocalConstraint, stats: GraphStatistics
) -> float:
    """Probability a random initiator completes the walk (capped at 1).

    The expected number of completed tokens per initiator is the product
    of the hop branchings; treating completions as rare events, the
    success probability is that expectation clamped into [0, 1].
    """
    labels = constraint.labels
    if stats.label_count(labels[0]) == 0:
        return 0.0
    expectation = 1.0
    for position in range(len(labels) - 1):
        expectation *= stats.expected_branching(
            labels[position], labels[position + 1]
        )
        if expectation == 0.0:
            return 0.0
    return min(1.0, expectation)


def pruning_efficiency(
    constraint: NonLocalConstraint, stats: GraphStatistics
) -> float:
    """Expected eliminations per unit cost — higher runs earlier.

    A constraint eliminates the initiators that *fail*; the expected
    number of failures is ``initiators · (1 - success probability)``, and
    efficiency divides by the walk's expected message cost.
    """
    initiators = stats.label_count(constraint.labels[0])
    if initiators == 0:
        return 0.0
    cost = estimate_walk_cost(constraint, stats)
    if cost <= 0.0:
        return float("inf")
    failures = initiators * (1.0 - estimate_success_probability(constraint, stats))
    return failures / cost


def order_constraints_by_cost(
    constraints: Sequence[NonLocalConstraint], stats: GraphStatistics
) -> List[NonLocalConstraint]:
    """Order non-local constraints by descending pruning efficiency.

    The full walk (when present) always runs last — it subsumes the others
    and benefits the most from prior pruning, whatever its estimate says.
    """
    regular = [c for c in constraints if c.kind != FULL_WALK_KIND]
    full_walks = [c for c in constraints if c.kind == FULL_WALK_KIND]
    ordered = sorted(
        regular,
        key=lambda c: (-pruning_efficiency(c, stats), c.length, c.key),
    )
    return ordered + full_walks
