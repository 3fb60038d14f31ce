"""The process-wide memos change no answer and no count.

``M*``'s label view (per root CSR and label set), a prototype shape's
record (automorphisms, cycles, walks) and the compiled kernels are kept
across runs (``repro.core.memos``).  Guards:

* warm equals cold: ``run_pipeline``, ``exploratory_search`` and
  ``run_batch`` run twice after ``clear_memos``; the second (warm) run's
  match vectors, per-prototype outcomes, ``message_summary`` and every
  counter but the memos' own equal the first's, on hash and block
  partitions of 3 and 8 ranks;
* two templates with one label set share one view object, different sets
  do not, a graph mutation leaves the old CSR's views behind, the clear
  hook orphans kept views and a CSR keeps at most ``LABEL_VIEWS_KEPT``
  label sets;
* one shape on two backgrounds whose label frequencies differ gets each
  background's own full-walk root and orientation, equal to a cold build;
  prototype graphs of one shape share one record.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.core import (
    ConstraintPlanner,
    PatternTemplate,
    PipelineOptions,
    exploratory_search,
    generate_prototypes,
    max_candidate_arrays,
    run_pipeline,
)
from repro.core.batch import BatchQuery, run_batch
from repro.core.candidate_set import LABEL_VIEWS_KEPT
from repro.core.memos import clear_memos, memo_stats
from repro.core.prototypes import shape_of
from repro.graph.csr import csr_of
from repro.graph.graph import Graph
from repro.runtime import Engine, MessageStats, PartitionedGraph

from test_compact_scope import SLOW, small_templates
from test_label_view import UNUSED, graphs_with_unused_labels


def own(name):
    """A counter a memo does not own and wall time does not move."""
    return not name.startswith("cache.") and not name.endswith("seconds")


def observed(result):
    """What a run answers and counts, the memos' counters aside."""
    return (
        {v: sorted(ids) for v, ids in result.match_vectors.items()},
        [
            (
                o.proto_id, sorted(o.solution_vertices),
                sorted(o.solution_edges), o.match_mappings, o.messages,
                {k: v for k, v in o.counts.items() if own(k)},
            )
            for o in result.outcomes()
        ],
        result.message_summary,
        {k: v for k, v in result.counts.items() if own(k)},
    )


def batch_observed(batch):
    return (
        {
            name: (sorted(item.matched_vertices), item.match_mappings)
            for name, item in batch.items.items()
        },
        {
            name: observed(result)
            for name, result in sorted(batch.class_results.items())
        },
    )


def cold_then_warm(run):
    clear_memos()
    cold = run()
    before = memo_stats()
    warm = run()
    after = memo_stats()
    return cold, warm, {k: after[k] - before[k] for k in after}


class TestWarmEqualsCold:
    @SLOW
    @given(
        small_templates(), graphs_with_unused_labels(), st.integers(0, 2),
        st.sampled_from(["hash", "block"]), st.sampled_from([3, 8]),
    )
    def test_every_driver(self, template, graph, k, partition, ranks):
        k = min(k, template.max_meaningful_distance())

        def options():
            return PipelineOptions(
                num_ranks=ranks, partition_strategy=partition,
                count_matches=True,
            )

        drivers = (
            lambda: observed(run_pipeline(graph, template, k, options())),
            lambda: observed(exploratory_search(
                graph, template, max_k=k, stop_condition=lambda level: False,
                options=options(),
            )),
            lambda: batch_observed(run_batch(
                graph, [BatchQuery(template, k, name="q")], options()
            )),
        )
        for run in drivers:
            cold, warm, lookups = cold_then_warm(run)
            assert warm == cold
            # the warm run built nothing the cold one had built
            assert lookups["label_view.misses"] == 0
            assert lookups["shape.misses"] == 0
            assert lookups["kernel.misses"] == 0


# ----------------------------------------------------------------------
# the label view memo
# ----------------------------------------------------------------------
def c4(labels, name):
    return PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0)], dict(enumerate(labels)), name=name
    )


def sparse_graph():
    """Labels 0-2 on a ring, every other vertex an unused label."""
    graph = Graph()
    n = 40
    for v in range(n):
        graph.add_vertex(v, v % 3 if v % 2 else UNUSED[v % 3])
    for v in range(n):
        graph.add_edge(v, (v + 1) % n)
        graph.add_edge(v, (v + 5) % n)
    return graph


def mstar_view(graph, template):
    engine = Engine(PartitionedGraph(graph, 3), MessageStats(3))
    return max_candidate_arrays(
        graph, template, engine, view_rule=lambda kept, total: True
    ).csr


class TestTheLabelViewMemo:
    def test_one_label_set_shares_one_view(self):
        clear_memos()
        graph = sparse_graph()
        first = mstar_view(graph, c4([0, 1, 0, 1], "a"))
        same_labels = mstar_view(graph, c4([1, 0, 0, 1], "b"))
        other_labels = mstar_view(graph, c4([0, 2, 0, 2], "c"))
        assert first is same_labels
        assert other_labels is not first
        assert first.parent is other_labels.parent is csr_of(graph)
        assert memo_stats()["label_view.hits"] == 1
        assert memo_stats()["label_view.misses"] == 2

    def test_a_mutation_leaves_the_memo_behind(self):
        clear_memos()
        graph = sparse_graph()
        template = c4([0, 1, 0, 1], "a")
        before = mstar_view(graph, template)
        graph.add_edge(1, 21)
        after = mstar_view(graph, template)
        assert after is not before
        assert after.parent is csr_of(graph) is not before.parent
        assert after.num_directed_edges == before.num_directed_edges + 2

    def test_the_clear_hook_orphans_kept_views(self):
        graph = sparse_graph()
        template = c4([0, 1, 0, 1], "a")
        kept = mstar_view(graph, template)
        clear_memos()
        assert mstar_view(graph, template) is not kept
        assert memo_stats()["label_view.misses"] == 1

    def test_at_most_so_many_label_sets_per_csr(self):
        clear_memos()
        graph = Graph()
        labels = list(range(LABEL_VIEWS_KEPT + 3))
        for v in range(3 * len(labels)):
            graph.add_vertex(v, labels[v % len(labels)])
            if v:
                graph.add_edge(v - 1, v)
        for label in labels:
            mstar_view(graph, PatternTemplate.from_edges(
                [(0, 1)], {0: label, 1: label}
            ))
        assert len(csr_of(graph).label_views) == LABEL_VIEWS_KEPT


# ----------------------------------------------------------------------
# the shape record
# ----------------------------------------------------------------------
def background(frequencies):
    """A path whose label ``l`` sits on ``frequencies[l]`` vertices."""
    graph = Graph()
    v = 0
    for label, count in frequencies.items():
        for _ in range(count):
            graph.add_vertex(v, label)
            if v:
                graph.add_edge(v - 1, v)
            v += 1
    return graph


def walk_lists(planner, proto_graph):
    plan = planner.plan(proto_graph)
    return [(c.kind, c.walk) for c in plan.non_local]


class TestTheShapeRecord:
    @pytest.mark.parametrize("ordering", [True, False, "walk-cost"], ids=str)
    def test_each_background_roots_and_orients_its_own_walks(self, ordering):
        # a triangle with a tail, labels 1 2 3 4: on the first background
        # label 1 is the rarest, on the second label 4
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)], {0: 1, 1: 2, 2: 3, 3: 4}
        )
        rare_one = background({1: 2, 2: 9, 3: 5, 4: 7})
        rare_four = background({1: 8, 2: 3, 3: 6, 4: 1})
        protos = list(generate_prototypes(template, 1))
        clear_memos()
        warm = {
            name: [
                walk_lists(ConstraintPlanner(graph, ordering), p.graph)
                for p in protos
            ]
            for name, graph in (("one", rare_one), ("four", rare_four))
        }
        for name, graph in (("one", rare_one), ("four", rare_four)):
            clear_memos()
            cold = [
                walk_lists(ConstraintPlanner(graph, ordering), p.graph)
                for p in protos
            ]
            assert warm[name] == cold
        roots = {
            name: next(walk for kind, walk in lists[0] if kind == "tds_full")[0]
            for name, lists in warm.items()
        }
        assert roots == {"one": 0, "four": 3}

    def test_one_record_per_shape(self):
        clear_memos()

        def tree():
            return generate_prototypes(PatternTemplate.from_edges(
                [(0, 1), (1, 2), (2, 0)], {0: 1, 1: 1, 2: 2}
            ), 1)

        first, second = tree(), tree()
        for a, b in zip(first, second):
            assert a.graph is not b.graph
            assert shape_of(a.graph) is shape_of(b.graph)
            assert a.automorphisms == b.automorphisms
        assert sorted(p.automorphisms for p in first) == [1, 2, 2]
        assert memo_stats()["shape.misses"] == len(first)
