"""``ConstraintPlan.select`` builds walks only up to its decision.

The full walk is built and estimated first, then the pre-filters one at a
time in generation order; the first whose estimate brings the sum to the
full walk's ends the build.  Guards:

* the lazy decision, the rows it reports and the skipped count equal what
  the complete list gives, on random prototypes (repeated labels, so PC
  walks exist; edge labels) over random live array scopes, under every
  ``constraint_ordering``;
* the skipped count's closed form (``prefilter_count``) equals the
  complete list's length less the full walk, without building a walk;
* on the ``clique-explore`` case the one planned prototype (12 edges,
  1 395 pre-filters) constructs at most 8 ``NonLocalConstraint`` objects,
  and ``automorphism_count`` runs only for prototypes with matches.
"""

import collections

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

import repro.core.constraints as constraints_module
import repro.core.prototypes as prototypes_module
from repro.core import (
    PatternTemplate,
    PipelineOptions,
    exploratory_search,
    generate_constraints,
    generate_prototypes,
)
from repro.core.arraystate import ArraySearchState
from repro.core.constraints import prefilter_count, simple_cycles
from repro.core.cost_estimation import GraphStatistics, estimate_walk_cost
from repro.core.kernels import cached_kernel
from repro.core.lcc import local_constraint_checking
from repro.core.ordering import ConstraintPlanner
from repro.graph.graph import Graph
from repro.runtime import Engine, MessageStats, PartitionedGraph

from test_constraint_selection import wdc4_case

ORDERINGS = (True, False, "walk-cost")
EDGE_LABELS = (None, None, 7, 8)


@st.composite
def templates(draw):
    """Connected, 3-5 vertices over labels 0-2, some edges labelled."""
    n = draw(st.integers(3, 5))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, 2)))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if (u, v) not in edges and draw(st.booleans())
    ]
    for u, v in edges:
        graph.add_edge(u, v, draw(st.sampled_from(EDGE_LABELS)))
    return PatternTemplate(graph, name="random")


@st.composite
def backgrounds(draw):
    n = draw(st.integers(6, 30))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(n, 4 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.sampled_from(EDGE_LABELS)))
    return graph


def live_scopes(graph, template, proto_graph):
    """The seeded scope, and what the first LCC fixpoint leaves of it."""
    yield ArraySearchState.initial(graph, template)
    scope = ArraySearchState.initial(graph, template)
    engine = Engine(PartitionedGraph(graph, 2), MessageStats(2))
    local_constraint_checking(
        scope, proto_graph, engine, kernel=cached_kernel(proto_graph)
    )
    if scope.num_active_vertices:
        yield scope


def complete_list_decision(planner, proto_graph, scope):
    """The decision over the complete list: its pre-filters in generation
    order (the order ``generate_constraints`` returns, the planner's
    orientation), summed whole."""
    non_local = constraints_module.generate_constraints(
        proto_graph, planner.label_frequencies,
        orient=bool(planner.ordering) and planner.ordering != "walk-cost",
    ).non_local
    stats = GraphStatistics.from_scope(scope, proto_graph)
    estimates = [estimate_walk_cost(c, stats) for c in non_local]
    full_walk_rows = estimates[-1]
    rows, reached = 0.0, None
    for prefilter_rows in estimates[:-1]:
        rows += prefilter_rows
        if reached is None and rows >= full_walk_rows:
            reached = rows
    return non_local, reached, rows, full_walk_rows


class TestTheLazyDecisionIsTheCompleteLists:
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(templates(), backgrounds(), st.sampled_from(ORDERINGS))
    def test_random_prototypes_and_scopes(self, template, graph, ordering):
        planner = ConstraintPlanner(graph, ordering)
        checked = 0
        for proto in generate_prototypes(template, 1):
            plan = planner.plan(proto.graph)
            if plan.full_walk() is None or len(plan.non_local) == 1:
                continue
            for scope in live_scopes(graph, template, proto.graph):
                selection = plan.select(scope)
                non_local, reached, total_rows, full_walk_rows = (
                    complete_list_decision(planner, proto.graph, scope)
                )
                assert selection.full_walk_rows == full_walk_rows
                if reached is not None:
                    assert [c.key for c in selection.constraints] == [
                        non_local[-1].key
                    ]
                    assert selection.constraints[0].walk == non_local[-1].walk
                    assert selection.skipped == len(non_local) - 1
                    assert selection.prefilter_rows == reached
                else:
                    assert selection.constraints == plan.non_local
                    assert selection.skipped == 0
                    assert selection.prefilter_rows == total_rows
                # the complete list in its checking order decides alike,
                # up to a tie within rounding
                ordered = GraphStatistics.from_scope(scope, proto.graph)
                ordered_rows = sum(
                    estimate_walk_cost(c, ordered) for c in plan.non_local[:-1]
                )
                if abs(ordered_rows - full_walk_rows) > 1e-9 * full_walk_rows:
                    assert (ordered_rows >= full_walk_rows) == (
                        reached is not None
                    )
                checked += 1
        assume(checked)


class TestThePreFilterCount:
    @settings(max_examples=80, deadline=None)
    @given(templates())
    def test_closed_form_equals_the_complete_list(self, template):
        for proto in generate_prototypes(template, 2):
            cycles = simple_cycles(proto.graph)
            complete = generate_constraints(proto.graph)
            assert prefilter_count(proto.graph, cycles) == sum(
                c is not complete.full_walk() for c in complete.non_local
            )

    def test_counts_without_building(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            constraints_module.NonLocalConstraint, "__init__",
            lambda self, *args, **kwargs: built.append(args),
        )
        graph = wdc4_case()[1].graph
        assert prefilter_count(graph, simple_cycles(graph)) > 1000
        assert not built


@pytest.fixture(scope="module")
def clique_explore_run():
    """One ``clique-explore`` round with two spies: the constraints each
    prototype graph constructs, and the graphs ``automorphism_count``
    runs on."""
    constructed = collections.Counter()
    counted = []
    raw_init = constraints_module.NonLocalConstraint.__init__
    raw_count = prototypes_module.automorphism_count

    def constructing(self, kind, walk, labels, proto_graph=None):
        constructed[tuple(sorted(proto_graph.edges()))] += 1
        raw_init(self, kind, walk, labels, proto_graph)

    def counting(graph):
        counted.append(tuple(sorted(graph.edges())))
        return raw_count(graph)

    graph, template = wdc4_case()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            constraints_module.NonLocalConstraint, "__init__", constructing
        )
        patch.setattr(prototypes_module, "automorphism_count", counting)
        result = exploratory_search(
            graph, template, max_k=4,
            options=PipelineOptions(num_ranks=8, count_matches=True),
        )
    return result, constructed, counted


class TestTheCliqueExploreRound:
    def test_the_twelve_edge_plan_builds_at_most_eight_walks(
        self, clique_explore_run
    ):
        result, constructed, _ = clique_explore_run
        (planned,) = [o for o in result.outcomes() if o.post_lcc_vertices]
        assert planned.prototype.num_edges == 12
        assert planned.counts.get("plan.prefilters_skipped", 0) == 1395
        assert set(constructed) == {tuple(sorted(planned.prototype.graph.edges()))}
        assert sum(constructed.values()) <= 8

    def test_automorphisms_counted_only_for_prototypes_with_matches(
        self, clique_explore_run
    ):
        result, _, counted = clique_explore_run
        matched = [o for o in result.outcomes() if o.match_mappings]
        assert matched and len(matched) < len(result.outcomes())
        assert sorted(counted) == sorted(
            tuple(sorted(o.prototype.graph.edges())) for o in matched
        )
        assert result.total_match_mappings() == 2
