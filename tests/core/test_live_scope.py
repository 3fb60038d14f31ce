"""The array path's per-call cost tracks the live scope, not the background.

Five guards around the array-resident level state:

* array runs never cross into dict state — no ``from_search_state`` /
  ``to_search_state`` call, with default options, the enumeration
  optimization or a checkpointed run and its resume;
* message/visit accounting through the once-per-CSR rank arrays is pinned
  to the values the per-constraint accounting produced (with delegates,
  and on auxiliary views, whose CSR must get rank arrays of its own);
* the token frontier expanded over alive out-edges only produces the same
  rows, in the same order, as expanding over the full background row and
  filtering — the reference implementation kept below;
* the in-process array level union equals the reference backend's union;
* the walk recycles by probing the cache's sorted id array with its live
  initiators, and launches tokens for exactly the others.
"""

import numpy as np
import pytest

from repro.core import (
    NlccCache,
    PatternTemplate,
    PipelineOptions,
    count_motifs,
    exploratory_search,
    generate_constraints,
    resume_pipeline,
    run_pipeline,
    run_pipeline_with_checkpoints,
)
from repro.core.arraystate import (
    ArraySearchState,
    array_kernel_fixpoint,
    array_token_walk,
    csr_of,
)
import repro.core.pipeline as pipeline_module
from repro.core.constraints import FULL_WALK_KIND
from repro.core.kernels import compile_kernel, compile_walk_schedule
from repro.core.patterns import wdc1_template
from repro.graph.generators import gnm_graph, planted_graph
from repro.runtime import Engine, MessageStats, PartitionedGraph

C4_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]


def c4_template():
    return PatternTemplate.from_edges(
        C4_EDGES, labels={0: 0, 1: 1, 2: 1, 3: 0}, name="c4"
    )


def wdc1_case():
    template = wdc1_template()
    labels = [template.label(v) for v in sorted(template.graph.vertices())]
    graph = planted_graph(
        300, 700, template.edges(), labels, copies=3, num_labels=12, seed=3
    )
    return graph, template


# ----------------------------------------------------------------------
# (a) no dict state on the default path
# ----------------------------------------------------------------------
CONVERSIONS = ("from_search_state", "to_search_state")


@pytest.fixture
def conversions(monkeypatch):
    """Counts every dict<->array crossing made while the test runs."""
    calls = {name: 0 for name in CONVERSIONS}

    def counting(name):
        raw = vars(ArraySearchState)[name]
        function = getattr(raw, "__func__", raw)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return type(raw)(wrapper) if isinstance(raw, classmethod) else wrapper

    for name in CONVERSIONS:
        monkeypatch.setattr(ArraySearchState, name, counting(name))
    return calls


class TestNoDictStateOnDefaultPath:
    def test_run_pipeline(self, conversions):
        graph, template = wdc1_case()
        result = run_pipeline(
            graph, template, 2, PipelineOptions(count_matches=True)
        )
        assert result.matched_vertices()
        assert conversions == dict.fromkeys(CONVERSIONS, 0)

    def test_exploratory_search(self, conversions):
        graph, template = wdc1_case()
        result = exploratory_search(graph, template, max_k=2)
        assert result.matched_vertices()
        assert conversions == dict.fromkeys(CONVERSIONS, 0)

    def test_batched_motif_census(self, conversions):
        graph = gnm_graph(60, 150, num_labels=1, seed=23)
        counts = count_motifs(graph, 4, batched=True)
        assert sum(counts.by_name(induced=False).values()) > 0
        assert conversions == dict.fromkeys(CONVERSIONS, 0)

    def test_enumeration_optimization(self, conversions):
        # derived prototypes come back as solution ids, cut in array form
        graph, template = wdc1_case()
        result = run_pipeline(
            graph, template, 2,
            PipelineOptions(enumeration_optimization=True, count_matches=True),
        )
        assert result.total_match_mappings() > 0
        assert conversions == dict.fromkeys(CONVERSIONS, 0)

    def test_checkpointed_run_and_resume(self, conversions, tmp_path):
        # checkpoints store ids; restoring them builds array state directly
        graph, template = wdc1_case()
        with pytest.raises(RuntimeError, match="injected failure"):
            run_pipeline_with_checkpoints(
                graph, template, 2, tmp_path, fail_after_level=1
            )
        result = resume_pipeline(graph, template, tmp_path)
        assert result.matched_vertices()
        assert conversions == dict.fromkeys(CONVERSIONS, 0)

    def test_the_guard_sees_a_crossing(self, conversions):
        graph, template = wdc1_case()
        ArraySearchState.initial(graph, template).to_search_state()
        assert conversions == {"from_search_state": 0, "to_search_state": 1}


# ----------------------------------------------------------------------
# (b) accounting parity, pinned to the per-constraint accounting's values
# ----------------------------------------------------------------------
#: WDC-1, k=2, 4 ranks on ``wdc1_case()``, as produced before the rank
#: arrays were cached.  An auxiliary view keeps every vertex id, hence
#: every hash rank, so its totals equal the plain run's — reading the
#: parent CSR's rank arrays through a view's indices would not.
#: The ``lcc`` and ``max_candidate_set`` rows are still those values; the
#: ``nlcc`` row (was 861, 861, 1563), the totals and two outcomes (201 and
#: 153) were re-recorded when the plans began to answer "the full walk
#: alone" here: 8 walks run and 31 pre-filters are skipped.
PLAIN_PHASES = {
    "lcc": (1896, 1590, 3378),
    "max_candidate_set": (802, 605, 978),
    "nlcc": (690, 690, 834),
}
DELEGATE_PHASES = {
    "lcc": (1896, 1391, 3378),
    "max_candidate_set": (802, 490, 978),
    "nlcc": (690, 690, 834),
}
OUTCOME_MESSAGES = [
    150, 144, 146, 148, 160, 154, 156, 158, 154, 148, 150, 152,
    93, 90, 90, 92, 97, 97, 99, 108,
]


class TestAccountingParity:
    # "aux-views" patches ``pipeline.AUX_VIEW_RATIO`` to 1.0: a level view
    # wherever one is sound, not only where the rule finds it worth it
    @pytest.mark.parametrize(
        "extra, ratio, remote, phases, views",
        [
            ({}, None, 2885, PLAIN_PHASES, 1),
            ({"delegate_degree_threshold": 8}, None, 2571, DELEGATE_PHASES, 1),
            ({}, 1.0, 2885, PLAIN_PHASES, 2),
        ],
        ids=["plain", "delegates", "aux-views"],
    )
    def test_wdc1_k2(self, monkeypatch, extra, ratio, remote, phases, views):
        if ratio is not None:
            monkeypatch.setattr(pipeline_module, "AUX_VIEW_RATIO", ratio)
        graph, template = wdc1_case()
        result = run_pipeline(
            graph, template, 2, PipelineOptions(num_ranks=4, **extra)
        )
        assert result.aux_views_built == views
        summary = result.message_summary
        assert summary["total_messages"] == 3388
        assert summary["remote_messages"] == remote
        assert summary["total_visits"] == 5190
        assert summary["barriers"] == 93
        assert result.stats_document()["nlcc"]["constraints_skipped"] == 31
        assert {
            name: (p["messages"], p["remote_messages"], p["visits"])
            for name, p in summary["phases"].items()
        } == phases
        assert [
            o.messages for level in result.levels for o in level.outcomes
        ] == OUTCOME_MESSAGES

    def test_rank_arrays_are_built_once_per_csr(self):
        graph, _template = wdc1_case()
        pgraph = PartitionedGraph(graph, 4, delegate_degree_threshold=8)
        csr = csr_of(graph)
        rank_of, edge_code = pgraph.rank_arrays(csr)
        again = pgraph.rank_arrays(csr)
        assert again[0] is rank_of and again[1] is edge_code
        assert rank_of.dtype == edge_code.dtype == np.uint8
        assert rank_of.tolist() == [pgraph.rank_of(v) for v in csr.order.tolist()]

        keep = np.zeros(csr.num_vertices, dtype=bool)
        keep[::2] = True
        view = csr.induced_view(keep)
        view_rank_of, view_code = pgraph.rank_arrays(view)
        assert view_rank_of.shape == (view.num_vertices,)
        assert view_code.shape == (view.num_directed_edges,)
        assert view_rank_of.tolist() == rank_of[keep].tolist()


# ----------------------------------------------------------------------
# (c) alive-only frontier expansion
# ----------------------------------------------------------------------
def hub_state():
    """Post-LCC C4 state on a hub graph with half the hub's edges killed."""
    graph = gnm_graph(70, 160, num_labels=2, seed=5)
    hub = 0
    spokes = [v for v in range(1, 70) if not graph.has_edge(hub, v)][:40]
    for v in spokes:
        graph.add_edge(hub, v)
    template = c4_template()
    kernel = compile_kernel(template.graph)
    astate = ArraySearchState.initial(graph, template)
    for v in sorted(graph.neighbors(hub))[::2]:
        astate.deactivate_edge(hub, v)
    engine = Engine(PartitionedGraph(graph, 4), MessageStats(4))
    array_kernel_fixpoint(astate, kernel, engine)
    hub_row = slice(*astate.csr.indptr[astate.csr.index_of[hub]:][:2])
    assert 0 < astate.edge_alive[hub_row].sum() < astate.csr.degrees.max()
    return graph, template, kernel, astate


def reference_walk(astate, schedule, kernel):
    """Token walk by full-row expansion, one Python token at a time.

    Every token visits its frontier vertex's *whole* background row in CSR
    order and skips dead edges — the expansion the vectorized walk used
    before it switched to the alive-compacted adjacency.  No dedup, so
    tokens come out in launch order.
    """
    csr = astate.csr
    mask = astate.role_mask.tolist()
    alive = astate.edge_alive.tolist()
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    bits = [kernel.role_bit[role] for role in schedule.walk]
    start = [i for i in range(csr.num_vertices) if mask[i] & bits[0]]
    paths = [(i,) for i in start]
    sent = 0
    for hop in range(1, schedule.length):
        extended = []
        for path in paths:
            row = range(indptr[path[-1]], indptr[path[-1] + 1])
            for edge in row:
                if not alive[edge]:
                    continue
                sent += 1
                dst = indices[edge]
                if not mask[dst] & bits[hop]:
                    continue
                if any(path[p] != dst for p in schedule.same_positions[hop]):
                    continue
                if any(path[p] == dst for p in schedule.diff_positions[hop]):
                    continue
                extended.append(path + (dst,))
        paths = extended
    return start, paths, sent


class TestAliveOnlyExpansion:
    def walk(self, collect_paths):
        graph, template, kernel, astate = hub_state()
        constraints = generate_constraints(
            template.graph, graph.label_counts()
        ).non_local
        assert {c.kind for c in constraints} >= {"cycle", FULL_WALK_KIND}
        for constraint in constraints:
            is_full = constraint.kind == FULL_WALK_KIND
            if is_full != collect_paths:
                continue
            schedule = compile_walk_schedule(constraint)
            stats = MessageStats(4)
            engine = Engine(PartitionedGraph(graph, 4), stats)
            out = array_token_walk(
                astate, schedule, kernel, engine,
                dedup=not is_full, collect_paths=is_full,
            )
            yield out, reference_walk(astate, schedule, kernel), stats

    def test_full_walk_rows_and_row_order(self):
        for out, (start, paths, sent), stats in self.walk(collect_paths=True):
            assert out.tokens_launched == len(start)
            assert out.completions == len(paths) > 0
            assert out.full_paths.tolist() == [list(p) for p in paths]
            assert out.satisfied_idx.tolist() == sorted({p[0] for p in paths})
            assert stats.total_messages == sent

    def test_deduplicated_walks(self):
        checked = 0
        for out, (start, paths, _sent), _stats in self.walk(collect_paths=False):
            assert out.checked_idx.tolist() == start
            assert out.tokens_launched == len(start)
            assert out.completions == len(paths)
            assert out.satisfied_idx.tolist() == sorted({p[0] for p in paths})
            checked += 1
        assert checked


# ----------------------------------------------------------------------
# (d) in-process array union == reference-backend union
# ----------------------------------------------------------------------
def path6_case():
    graph = gnm_graph(600, 2000, num_labels=4, seed=7)
    template = PatternTemplate.from_edges(
        [(v, v + 1) for v in range(5)], {v: v % 4 for v in range(6)},
        name="path6",
    )
    return graph, template


def c4_case():
    return gnm_graph(80, 220, num_labels=2, seed=5), c4_template()


class TestLevelUnionParity:
    @pytest.mark.parametrize(
        "case, k", [(c4_case, 1), (wdc1_case, 2), (path6_case, 1)]
    )
    def test_array_union_equals_dict_union(self, case, k):
        graph, template = case()
        levels = {}
        for backend in ("array", "reference"):
            result = run_pipeline(
                graph, template, k,
                PipelineOptions(num_ranks=4, backend=backend),
            )
            assert result.backend == backend
            levels[backend] = [
                (
                    level.distance, level.union_vertices, level.union_edges,
                    [
                        (sorted(o.solution_vertices), sorted(o.solution_edges))
                        for o in level.outcomes
                    ],
                )
                for level in result.levels
            ]
        assert levels["array"] == levels["reference"]
        assert any(union_edges for _, _, union_edges, _ in levels["array"])


# ----------------------------------------------------------------------
# (e) recycling looks up the live initiators, not the cached set
# ----------------------------------------------------------------------
class TestRecycledInitiators:
    def test_walk_recycles_exactly_the_cached_holders(self):
        graph, _template, kernel, astate = hub_state()
        constraint = next(
            c for c in generate_constraints(
                c4_template().graph, graph.label_counts()
            ).non_local
            if c.kind == "cycle"
        )
        schedule = compile_walk_schedule(constraint)
        engine = Engine(PartitionedGraph(graph, 4), MessageStats(4))
        cold = array_token_walk(astate, schedule, kernel, engine)
        holders = astate.csr.order[cold.checked_idx].tolist()
        assert len(holders) > 4

        cache = NlccCache()
        assert cache.satisfied(constraint.key).tolist() == []
        # cached: half the holders, plus ids the scope no longer holds
        # (one below and one above every live id)
        cache.mark_satisfied(constraint.key, holders[::2] + [10 ** 9, -7])
        assert cache.satisfied(constraint.key).tolist() == sorted(
            holders[::2] + [10 ** 9, -7]
        )
        warm = array_token_walk(
            astate, schedule, kernel, engine,
            recycled=cache.satisfied(constraint.key),
        )
        assert warm.checked_idx.tolist() == cold.checked_idx.tolist()
        assert astate.csr.order[warm.recycled_idx].tolist() == holders[::2]
        assert warm.tokens_launched == len(holders) - len(holders[::2])
        # the walk probes; the NLCC check that drives it does the counting
        assert "cache.nlcc.hits" not in dict(engine.metrics.counters())
