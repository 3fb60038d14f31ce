"""``M*`` on the label view: the cut is exact, and unused labels change nothing.

``max_candidate_arrays`` runs the ``M*`` fixpoint on the induced view of
the vertices whose label some role carries, and charges the round-1
messages ``G``'s candidates send toward the rest in closed form
(``accounting.cut_traffic``).  Two guards:

* (a) the cut is exact — on small graphs where most vertices carry a
  label no role has, both mask layouts, with and without mandatory
  edges and on every partition kind, the cut fixpoint's masks, activity
  and alive edges equal the uncut fixpoint's restricted to the view, and
  the two engines' message accounting (messages, remote messages,
  visits, barriers, per phase) and metrics (rounds, worklists, dense /
  sparse decisions) are identical; a warm second run, on the view the
  first one left in the memo, is identical too;
* (b) unused labels change no answer — vertices whose labels no role
  carries, wired into the graph, leave ``run_pipeline``,
  ``exploratory_search`` and ``run_batch`` on both backends equal to the
  brute-force matcher, precision and recall checked separately.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from repro.core import (
    ArraySearchState,
    PatternTemplate,
    PipelineOptions,
    exploratory_search,
    max_candidate_arrays,
    run_pipeline,
)
from repro.core.arraystate import array_kernel_fixpoint
from repro.core.batch import BatchQuery, run_batch
from repro.core.kernels import cached_kernel
from repro.core.patterns import wdc1_template
from repro.graph.generators import planted_graph
from repro.graph.graph import Graph
from repro.graph.isomorphism import find_subgraph_isomorphisms
from repro.runtime import Engine, MessageStats, PartitionedGraph
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.partition import block_assignment

from test_compact_scope import (
    SLOW,
    brute_force,
    label_eligible_count,
    small_graphs,
    small_templates,
)

#: labels ``small_templates`` never gives a role
UNUSED = [7, 8, 9]

RANKS = 3


def partitioned(graph, kind):
    if kind == "block":
        return PartitionedGraph(
            graph, RANKS, assignment=block_assignment(sorted(graph.vertices()), RANKS)
        )
    if kind == "delegates":
        return PartitionedGraph(graph, RANKS, delegate_degree_threshold=3)
    return PartitionedGraph(graph, RANKS)


def always(_kept, _total):
    return True


def engine_on(graph, kind):
    return Engine(
        partitioned(graph, kind), MessageStats(RANKS), metrics=MetricsRegistry()
    )


def assert_cut_is_exact(graph, template, min_words, kind):
    cut_engine = engine_on(graph, kind)
    cut = max_candidate_arrays(
        graph, template, cut_engine, view_rule=always, min_words=min_words
    )
    uncut_engine = engine_on(graph, kind)
    uncut = ArraySearchState.initial(graph, template, min_words=min_words)
    kernel = cached_kernel(template.graph)
    with uncut_engine.phase("max_candidate_set"):
        array_kernel_fixpoint(
            uncut, kernel, uncut_engine,
            mandatory_masks=kernel.mandatory_masks(template.mandatory_edges),
        )

    view = cut.csr
    assert view.parent is uncut.csr
    vertices, edges = view.parent_vertex_index, view.parent_edge_index
    assert view.num_vertices == label_eligible_count(graph, template)
    np.testing.assert_array_equal(cut.role_mask, uncut.role_mask[vertices])
    np.testing.assert_array_equal(
        cut.vertex_active, uncut.vertex_active[vertices]
    )
    np.testing.assert_array_equal(cut.edge_alive, uncut.edge_alive[edges])
    # nothing outside the view survives on G
    assert np.count_nonzero(uncut.vertex_active) == np.count_nonzero(
        cut.vertex_active
    )
    assert np.count_nonzero(uncut.edge_alive) == np.count_nonzero(
        cut.edge_alive
    )
    assert cut_engine.stats.summary() == uncut_engine.stats.summary()
    assert cut_engine.stats.total_barriers > 0
    # rounds, worklists and dense / sparse decisions too
    assert (
        cut_engine.metrics.snapshot() == uncut_engine.metrics.snapshot()
    )

    # a warm second run takes the kept view and charges its cut afresh,
    # through its own partition, to the same counts
    warm_engine = engine_on(graph, kind)
    warm = max_candidate_arrays(
        graph, template, warm_engine, view_rule=always, min_words=min_words
    )
    assert warm.csr is view
    np.testing.assert_array_equal(warm.role_mask, cut.role_mask)
    np.testing.assert_array_equal(warm.edge_alive, cut.edge_alive)
    assert warm_engine.stats.summary() == cut_engine.stats.summary()
    assert warm_engine.metrics.snapshot() == cut_engine.metrics.snapshot()


@st.composite
def sparse_label_cases(draw):
    """A small template and a graph most of whose vertices carry a label
    no role has, with a random subset of the template's edges mandatory."""
    base = draw(small_templates())
    mandatory = [edge for edge in base.edges() if draw(st.booleans())]
    template = PatternTemplate(base.graph, mandatory_edges=mandatory)
    n = draw(st.integers(3, 24))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.sampled_from([0, 1, 2] + 2 * UNUSED)))
    for _ in range(draw(st.integers(n, 4 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v)
    return graph, template


class TestTheCutIsExact:
    @SLOW
    @given(
        sparse_label_cases(), st.sampled_from([1, 2]),
        st.sampled_from(["hash", "block", "delegates"]),
    )
    def test_against_the_fixpoint_on_g(self, case, min_words, kind):
        graph, template = case
        assert_cut_is_exact(graph, template, min_words, kind)

    @pytest.mark.parametrize("num_labels", [8, 12])
    def test_a_scope_the_dense_switch_decides_on(self, num_labels):
        # thousands of eligible vertices: on 8 labels the switch runs a
        # round dense, on 12 it keeps one sparse — the same on view and G
        template = wdc1_template()
        graph = planted_graph(
            4000, 9000, template.edges(),
            [template.label(v) for v in sorted(template.graph.vertices())],
            copies=3, num_labels=num_labels, seed=1,
        )
        for min_words in (1, 2):
            assert_cut_is_exact(graph, template, min_words, "hash")

    def test_a_view_round_one_leaves_alone(self):
        # On the view {0, 1} the single edge is consistent at once; on G
        # round 1 also drops 1 -> 2, so G runs a second, quiet round.
        template = PatternTemplate.from_edges([(0, 1)], {0: 0, 1: 1})
        graph = Graph()
        for v, label in ((0, 0), (1, 1), (2, UNUSED[0])):
            graph.add_vertex(v, label)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        for min_words in (1, 2):
            for kind in ("hash", "block", "delegates"):
                assert_cut_is_exact(graph, template, min_words, kind)


# ----------------------------------------------------------------------
# (b) unused labels change no answer
# ----------------------------------------------------------------------
@st.composite
def graphs_with_unused_labels(draw):
    """``small_graphs`` plus at least as many vertices again whose labels
    no role carries, each wired to one to three earlier vertices — so at
    most half of the vertices are label-eligible and the array backend's
    ``M*`` runs on the label view."""
    graph = draw(small_graphs())
    n = graph.num_vertices
    for v in range(n, n + draw(st.integers(n, 2 * n))):
        graph.add_vertex(v, draw(st.sampled_from(UNUSED)))
        for _ in range(draw(st.integers(1, 3))):
            u = draw(st.integers(0, v - 1))
            if not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return graph


def assert_precision_and_recall(found, truth, what):
    assert found <= truth, f"precision ({what}): {found - truth} are no match"
    assert truth <= found, f"recall ({what}): missed {truth - found}"


class TestUnusedLabelsChangeNoAnswer:
    @SLOW
    @given(
        small_templates(), graphs_with_unused_labels(), st.integers(0, 2),
        st.sampled_from(["array", "reference"]),
    )
    def test_every_driver(self, template, graph, k, backend):
        k = min(k, template.max_meaningful_distance())
        truth = brute_force(graph, template, k)

        def options():
            return PipelineOptions(
                num_ranks=2, backend=backend, count_matches=True
            )

        bottom_up = run_pipeline(graph, template, k, options())
        explored = exploratory_search(
            graph, template, max_k=k, stop_condition=lambda level: False,
            options=options(),
        )
        for result in (bottom_up, explored):
            for proto_id, (vertices, count) in truth.items():
                outcome = result.outcome_for(proto_id)
                assert_precision_and_recall(
                    outcome.solution_vertices, vertices, f"prototype {proto_id}"
                )
                assert outcome.match_mappings == count
            if backend == "array":
                assert (
                    result.candidate_set_vertices
                    <= result.scope_view[0]
                    <= label_eligible_count(graph, template)
                )
            else:
                assert result.scope_view is None

        batch = run_batch(graph, [BatchQuery(template, k, name="q")], options())
        item = batch["q"]
        assert_precision_and_recall(
            item.matched_vertices,
            set().union(*(vertices for vertices, _count in truth.values())),
            "batch",
        )
        assert item.match_mappings == sum(
            count for _vertices, count in truth.values()
        )

    def test_the_unused_vertices_are_never_matched(self):
        # a triangle planted among unused-label hubs: only it matches
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], {0: 0, 1: 1, 2: 2}
        )
        graph = Graph()
        for v, label in enumerate([0, 1, 2] + UNUSED * 4):
            graph.add_vertex(v, label)
        for u, v in ((0, 1), (1, 2), (2, 0)):
            graph.add_edge(u, v)
        for hub in range(3, graph.num_vertices):
            graph.add_edge(hub % 3, hub)
            if hub > 3:
                graph.add_edge(hub - 1, hub)
        result = run_pipeline(graph, template, 1, PipelineOptions(num_ranks=2))
        truth = {
            v
            for mapping in find_subgraph_isomorphisms(template.graph, graph)
            for v in mapping.values()
        }
        assert result.matched_vertices() == truth == {0, 1, 2}
        assert result.scope_view[0] == 3
