"""Revisit hops are edge look-ups: same rows, same order, same traffic.

A hop of a closed walk that returns to a vertex the token already carries
(``schedule.same_positions[hop]`` non-empty) no longer expands the
frontier over every alive out-edge: ``GraphCsr.edge_positions`` looks the
one edge back to the carried vertex up, and the messages the paper's model
sends — one per alive out-edge of every frontier row, hit or miss — are
charged in closed form when the walk flushes.  Guards:

* (a) ``edge_positions`` answers every vertex pair correctly, and the
  order invariant that makes it gather-free holds (rows sorted by
  destination, so ``pair_keys`` ascends in edge order), on a root CSR
  built from a dict graph and from a file, and an ``induced_view`` at any
  depth;
* (b) array walk == dict walk on the rank-by-rank message matrix and the
  per-rank visit vector (not only totals), completions and satisfied
  initiators — hub graphs, edge labels, the multi-word mask layout,
  eliminated vertices and edges alive in one direction only;
* (c) full-walk rows come out equal, in order, to a token-at-a-time
  reference on a walk with several revisit hops (TDS of a 4-clique);
* (d) counts and a digest of the message matrix pinned from the parent
  commit (``4f2f301``);
* (e) the walk builds a small fraction of the rows it used to
  (``rows_expanded`` against the message count, which the old expansion
  equalled), and a revisit hop never calls ``np.repeat``;
* (f) source guards, and the enumeration helpers that moved onto the
  same look-up;
* (g) a full walk's *retrace* hops — back along a template edge the token
  already took — gather the mirror of the carried edge instead of
  looking it up: ``schedule.retrace`` names exactly those hops, a retrace
  hop never calls ``edge_positions``, and aliveness is tested in the
  hop's own direction (rows, edges and order against the token-at-a-time
  reference, traffic and completions against the dict walk).
"""

import hashlib
import inspect
import json

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.core import (
    PatternTemplate,
    PipelineOptions,
    generate_constraints,
    generate_prototypes,
    non_local_constraint_checking,
    run_pipeline,
)
from repro.core import enumeration
from repro.core.arraystate import (
    ArraySearchState,
    array_kernel_fixpoint,
    array_token_walk,
    csr_of,
    sorted_pair_table,
)
from repro.core.constraints import FULL_WALK_KIND, rooted_full_walk
from repro.core.enumeration import (
    enumerate_matches_array,
    extend_from_child_matches,
    extend_from_child_matches_array,
)
from repro.core.kernels import compile_kernel, compile_walk_schedule
from repro.graph.csr import GraphCsr
from repro.graph.generators import gnm_graph
from repro.graph.graph import Graph, canonical_edge
from repro.graph.io import read_edge_list, write_edge_list, write_labels
from repro.runtime import Engine, MessageStats, PartitionedGraph

RANKS = 4

SLOW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class RecordingStats(MessageStats):
    """Keeps the rank-by-rank matrix and visit vector of every traversal."""

    def __init__(self, ranks=RANKS):
        super().__init__(ranks)
        self.matrix = np.zeros((ranks, ranks), dtype=np.int64)
        self.visit_vector = np.zeros(ranks, dtype=np.int64)

    def record_rounds(self, matrices, visits, rank_node):
        self.matrix += np.asarray(matrices, dtype=np.int64).sum(axis=0)
        self.visit_vector += np.asarray(visits, dtype=np.int64).sum(axis=0)
        super().record_rounds(matrices, visits, rank_node)


def engine_for(graph, stats=None):
    stats = stats if stats is not None else MessageStats(RANKS)
    return Engine(PartitionedGraph(graph, stats.num_ranks), stats)


def non_local_of(graph, template):
    return generate_constraints(template.graph, graph.label_counts()).non_local


def revisit_hops(schedule):
    return [
        hop for hop in range(1, schedule.length)
        if schedule.same_positions[hop]
    ]


@st.composite
def labeled_graphs(draw, max_vertices=14):
    """A small graph, possibly edgeless, with repeated vertex labels."""
    n = draw(st.integers(1, max_vertices))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, 1)))
    for _ in range(draw(st.integers(0, 3 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.sampled_from([None, 7, 8])))
    return graph


# ----------------------------------------------------------------------
# (a) the pair look-up
# ----------------------------------------------------------------------
def check_csr_invariants(csr):
    """What every constructor owes ``edge_positions`` and the kernels."""
    n, m = csr.num_vertices, csr.num_directed_edges
    edges = np.arange(m, dtype=np.int64)
    assert csr.indptr.tolist() == [0] + np.cumsum(csr.degrees).tolist()
    assert (csr.src == np.repeat(np.arange(n), csr.degrees)).all()
    # edges sorted by (src, dst): the key of an edge is its rank
    keys = csr.src * np.int64(n) + csr.indices
    assert np.array_equal(csr.pair_keys[:-1], keys)
    assert csr.pair_keys[-1] == np.iinfo(np.int64).max
    assert (np.diff(csr.pair_keys) > 0).all()
    assert np.array_equal(
        csr.pair_keys, sorted_pair_table(csr.src, csr.indices, n)
    )
    # mirror is the reverse-edge involution
    assert (csr.mirror[csr.mirror] == edges).all()
    assert (csr.src[csr.mirror] == csr.indices).all()
    assert (csr.indices[csr.mirror] == csr.src).all()
    assert (csr.src != csr.indices).all()
    assert (csr.vid_gt == (csr.order[csr.indices] > csr.order[csr.src])).all()
    # resident arrays are frozen and keep their dtypes: int64 index and
    # code columns (numpy refuses float indices), bool flag columns
    for slot, dtype in (
        ("order", np.int64), ("indptr", np.int64), ("indices", np.int64),
        ("src", np.int64), ("mirror", np.int64), ("pair_keys", np.int64),
        ("degrees", np.int64), ("label_codes", np.int64),
        ("pair_code", np.int64), ("zero_degree", np.bool_),
        ("vid_gt", np.bool_),
    ):
        array = getattr(csr, slot)
        assert not array.flags.writeable, slot
        assert array.dtype == dtype, (slot, array.dtype)
    if csr.edge_label_codes is not None:
        assert not csr.edge_label_codes.flags.writeable
        assert csr.edge_label_codes.dtype == np.int64
        assert (csr.edge_label_codes[csr.mirror] == csr.edge_label_codes).all()
    assert not hasattr(csr, "pair_edges")


def check_edge_positions(csr):
    """Every ordered vertex pair: the edge's position, or -1."""
    check_csr_invariants(csr)
    n = csr.num_vertices
    u, v = np.divmod(np.arange(n * n, dtype=np.int64), max(n, 1))
    found = csr.edge_positions(u, v)
    assert found.shape == u.shape and found.dtype == np.int64
    hit = found >= 0
    assert (found[~hit] == -1).all()
    assert (csr.src[found[hit]] == u[hit]).all()
    assert (csr.indices[found[hit]] == v[hit]).all()
    # every edge is found, and at its own position (the graph is simple)
    assert sorted(found[hit].tolist()) == list(range(csr.num_directed_edges))
    assert csr.edge_positions(csr.src, csr.indices).tolist() == list(
        range(csr.num_directed_edges)
    )


class TestEdgePositions:
    @SLOW
    @given(graph=labeled_graphs())
    def test_root_csr(self, graph):
        check_edge_positions(csr_of(graph))

    @SLOW
    @given(graph=labeled_graphs())
    def test_root_csr_from_a_file(self, graph, tmp_path_factory):
        folder = tmp_path_factory.mktemp("csr")
        write_edge_list(graph, folder / "g.el")
        write_labels(graph, folder / "g.labels")
        loaded = read_edge_list(folder / "g.el", folder / "g.labels")
        check_edge_positions(csr_of(loaded))
        assert loaded == graph

    @SLOW
    @given(data=st.data())
    def test_induced_view(self, data):
        graph = data.draw(labeled_graphs())
        keep = np.array(
            data.draw(
                st.lists(
                    st.booleans(), min_size=graph.num_vertices,
                    max_size=graph.num_vertices,
                )
            )
        )
        view = csr_of(graph).induced_view(keep)
        check_edge_positions(view)
        check_edge_positions(view.induced_view(np.ones(view.num_vertices, bool)))

    @SLOW
    @given(data=st.data())
    def test_a_view_inherits_its_parents_table(self, data):
        # renumbering is monotone, so the kept edges of a sorted parent are
        # sorted: the view's keys ascend in its own edge order — at any
        # depth, down to the empty view
        csr = csr_of(data.draw(labeled_graphs()))
        for _depth in range(3):
            keep = data.draw(
                st.lists(
                    st.booleans(), min_size=csr.num_vertices,
                    max_size=csr.num_vertices,
                )
            )
            csr = csr.induced_view(np.array(keep, dtype=bool))
            check_csr_invariants(csr)
            assert np.array_equal(
                np.argsort(csr.pair_keys[:-1], kind="stable"),
                np.arange(csr.num_directed_edges),
            )

    def test_empty_view(self):
        csr = csr_of(gnm_graph(12, 30, num_labels=2, seed=1))
        view = csr.induced_view(np.zeros(csr.num_vertices, dtype=bool))
        assert view.num_vertices == view.num_directed_edges == 0
        check_edge_positions(view)
        assert view.pair_keys.tolist() == [np.iinfo(np.int64).max]
        none = np.zeros(0, dtype=np.int64)
        assert view.edge_positions(none, none).shape == (0,)

    def test_the_table_is_frozen_and_sorted(self):
        csr = csr_of(gnm_graph(40, 120, num_labels=2, seed=3))
        keys = csr.pair_keys[:-1]
        assert (np.diff(keys) > 0).all()
        with pytest.raises(ValueError):
            csr.pair_keys[0] = 0


# ----------------------------------------------------------------------
# (b) array walk == dict walk, rank by rank
# ----------------------------------------------------------------------
def check_traffic_parity(astate, constraint, kernel):
    """One constraint on ``astate`` (array walk) and its export (dict walk).

    Dedup is off on the array side: the dict walk never folds, and a fold
    legitimately sends fewer messages.
    """
    graph = astate.graph
    schedule = compile_walk_schedule(constraint)
    is_full = constraint.kind == FULL_WALK_KIND
    array_stats = RecordingStats()
    out = array_token_walk(
        astate, schedule, kernel, engine_for(graph, array_stats),
        dedup=False, collect_paths=is_full,
    )
    dict_stats = RecordingStats()
    result = non_local_constraint_checking(
        astate.to_search_state(), constraint, engine_for(graph, dict_stats),
        recycle=False, kernel=kernel,
    )
    assert array_stats.matrix.tolist() == dict_stats.matrix.tolist()
    assert array_stats.visit_vector.tolist() == dict_stats.visit_vector.tolist()
    assert out.completions == result.completions
    assert set(astate.csr.order[out.satisfied_idx].tolist()) == result.satisfied
    assert set(astate.csr.order[out.checked_idx].tolist()) == result.checked
    return out, array_stats


@st.composite
def hub_graphs(draw):
    """Two hubs over a sparse two-label background, some edges labeled."""
    n = draw(st.integers(6, 16))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, 1)))
    for hub in (0, 1):
        for v in range(n):
            if v != hub and not graph.has_edge(hub, v) and draw(st.booleans()):
                graph.add_edge(hub, v, draw(st.sampled_from([None, 7])))
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, draw(st.sampled_from([None, 7])))
    return graph


TEMPLATES = {
    "c4": ([(0, 1), (1, 2), (2, 3), (3, 0)], {0: 0, 1: 1, 2: 1, 3: 0}),
    "diamond": (
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], {0: 0, 1: 1, 2: 1, 3: 0}
    ),
    "tailed-triangle": (
        [(0, 1), (1, 2), (2, 0), (2, 3)], {0: 0, 1: 1, 2: 0, 3: 1}
    ),
}


class TestTrafficParity:
    @SLOW
    @given(
        data=st.data(),
        shape=st.sampled_from(sorted(TEMPLATES)),
        label_edges=st.booleans(),
        min_words=st.sampled_from([1, 2]),
        run_lcc=st.booleans(),
    )
    def test_hub_graphs(self, data, shape, label_edges, min_words, run_lcc):
        edges, labels = TEMPLATES[shape]
        required = {}
        if label_edges:
            required = {
                canonical_edge(u, v): 7
                for u, v in edges if data.draw(st.booleans())
            }
        template = PatternTemplate.from_edges(
            edges, labels, edge_labels=required
        )
        graph = data.draw(hub_graphs())
        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template, min_words=min_words)
        if run_lcc:
            array_kernel_fixpoint(astate, kernel, engine_for(graph))
        # eliminated vertices, and edges that stay alive one way only
        for v in data.draw(st.lists(st.integers(0, graph.num_vertices - 1), max_size=3)):
            astate.deactivate_vertex(v)
        m = astate.csr.num_directed_edges
        if m:
            one_way = data.draw(st.lists(st.integers(0, m - 1), max_size=6))
            astate.edge_alive[one_way] = False
        constraints = non_local_of(graph, template)
        assert any(
            revisit_hops(compile_walk_schedule(c)) for c in constraints
        )
        for constraint in constraints:
            check_traffic_parity(astate, constraint, kernel)

    @pytest.mark.parametrize("dead", ["closing", "mirror-of-closing"])
    def test_one_way_alive_edge_on_the_revisit_hop(self, dead):
        # Triangle a-b-c, cycle walk a -> b -> c -> a: the last hop returns
        # to the carried initiator.  Aliveness is per direction: with
        # c -> a dead the token is dropped although a -> c is alive, with
        # a -> c dead it completes over the alive c -> a.  Either way the
        # row at c is charged for c's alive out-edges, hit or miss.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 0, 1: 1, 2: 2}
        )
        graph = Graph()
        for v, label in ((10, 0), (11, 1), (12, 2), (13, 1)):
            graph.add_vertex(v, label)
        for u, v in ((10, 11), (11, 12), (12, 10), (12, 13)):
            graph.add_edge(u, v)
        kernel = compile_kernel(template.graph)
        constraint = next(
            c for c in non_local_of(graph, template)
            if c.kind == "cycle" and c.walk == (0, 1, 2, 0)
        )
        schedule = compile_walk_schedule(constraint)
        assert revisit_hops(schedule) == [3]

        astate = ArraySearchState.initial(graph, template)
        csr = astate.csr
        a, c = csr.index_of[10], csr.index_of[12]
        closing = int(csr.edge_positions(np.array([c]), np.array([a]))[0])
        killed = closing if dead == "closing" else int(csr.mirror[closing])
        astate.edge_alive[killed] = False
        assert astate.edge_alive[csr.mirror[killed]]

        out, stats = check_traffic_parity(astate, constraint, kernel)
        assert out.completions == (0 if dead == "closing" else 1)
        # a -> {b, c} or a -> {b}; b -> {a, c}; c -> {b, 13} plus c -> a
        # when that direction is the alive one
        assert int(stats.matrix.sum()) == 6
        assert out.rows_expanded == (5 if dead == "closing" else 4)


# ----------------------------------------------------------------------
# (c) row order of a walk with several revisit hops
# ----------------------------------------------------------------------
def reference_full_walk(astate, schedule, kernel):
    """One Python token at a time over alive edges in CSR row order.

    Returns the completed tokens in launch order as (dense vertex path,
    CSR edge positions) pairs, and the number of messages sent.
    """
    csr = astate.csr
    masks = astate.role_mask.tolist()
    alive = astate.edge_alive.tolist()
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    bits = [kernel.role_bit[role] for role in schedule.walk]
    tokens = [((i,), ()) for i in range(csr.num_vertices) if masks[i] & bits[0]]
    sent = 0
    for hop in range(1, schedule.length):
        extended = []
        for path, edges in tokens:
            for edge in range(indptr[path[-1]], indptr[path[-1] + 1]):
                if not alive[edge]:
                    continue
                sent += 1
                dst = indices[edge]
                if not masks[dst] & bits[hop]:
                    continue
                if any(path[p] != dst for p in schedule.same_positions[hop]):
                    continue
                if any(path[p] == dst for p in schedule.diff_positions[hop]):
                    continue
                extended.append((path + (dst,), edges + (edge,)))
        tokens = extended
    return tokens, sent


def clique4_case():
    template = PatternTemplate.from_edges(
        [(u, v) for u in range(4) for v in range(u + 1, 4)],
        labels={0: 0, 1: 0, 2: 1, 3: 1},
    )
    graph = gnm_graph(36, 260, num_labels=2, seed=8)
    constraint = next(
        c for c in non_local_of(graph, template) if c.kind == FULL_WALK_KIND
    )
    return graph, template, constraint


class TestRowOrder:
    def test_tds_of_a_4_clique(self):
        graph, template, constraint = clique4_case()
        kernel = compile_kernel(template.graph)
        schedule = compile_walk_schedule(constraint)
        assert len(revisit_hops(schedule)) >= 3
        astate = ArraySearchState.initial(graph, template)
        array_kernel_fixpoint(astate, kernel, engine_for(graph))
        # half of one hub's out-edges dead, in that direction only
        hub = int(np.argmax(astate.csr.degrees))
        row = np.arange(astate.csr.indptr[hub], astate.csr.indptr[hub + 1])
        astate.edge_alive[row[::2]] = False

        reference, sent = reference_full_walk(astate, schedule, kernel)
        assert len(reference) > 20
        stats = MessageStats(RANKS)
        out = array_token_walk(
            astate, schedule, kernel, engine_for(graph, stats),
            collect_paths=True,
        )
        assert out.full_paths.tolist() == [list(p) for p, _ in reference]
        assert out.full_edges.tolist() == [list(e) for _, e in reference]
        assert stats.total_messages == sent
        assert out.rows_expanded < sent

        vid = astate.csr.order
        result = non_local_constraint_checking(
            astate, constraint, engine_for(graph), kernel=kernel
        )
        assert result.completed_paths.tolist() == [
            vid[list(p)].tolist() for p, _ in reference
        ]
        assert result.rows_expanded == out.rows_expanded


# ----------------------------------------------------------------------
# (d) + (e) pinned counts, the matrix digest, the row budget
# ----------------------------------------------------------------------
def storm_graph(hub_degree):
    """The storm input of ``benchmarks/e2e/workloads.py``: hub degree 40
    is its ``quick`` preset, 100 the ``full`` one."""
    graph = gnm_graph(2000, 6000, num_labels=2, seed=13)
    rng = np.random.default_rng(17)
    for hub in rng.choice(2000, size=4, replace=False).tolist():
        for v in rng.choice(2000, size=hub_degree, replace=False).tolist():
            if v != hub and not graph.has_edge(hub, v):
                graph.add_edge(hub, v)
    return graph


def c4_template():
    return PatternTemplate.from_edges(*TEMPLATES["c4"])


def pipeline_counts(monkeypatch, graph, template, ranks):
    """NLCC counters of a default k=1 run, plus what every traversal of
    the run told ``MessageStats.record_rounds``, summed and digested."""
    matrix = np.zeros((ranks, ranks), dtype=np.int64)
    visits = np.zeros(ranks, dtype=np.int64)
    recorded = MessageStats.record_rounds

    def recording(self, msg_matrices, visit_counts, rank_node):
        matrix[...] += np.asarray(msg_matrices, dtype=np.int64).sum(axis=0)
        visits[...] += np.asarray(visit_counts, dtype=np.int64).sum(axis=0)
        recorded(self, msg_matrices, visit_counts, rank_node)

    monkeypatch.setattr(MessageStats, "record_rounds", recording)
    options = PipelineOptions(num_ranks=ranks, count_matches=True)
    result = run_pipeline(graph, template, 1, options)
    doc = result.stats_document()
    counts = {
        field: doc["nlcc"][field]
        for field in ("tokens_launched", "completions", "dedup_merged")
    }
    counts["messages"] = doc["messages"]["phases"]["nlcc"]["messages"]
    counts["match_mappings"] = result.total_match_mappings()
    counts["traffic_sha256"] = hashlib.sha256(
        json.dumps([matrix.tolist(), visits.tolist()]).encode()
    ).hexdigest()[:16]
    return counts, doc


@pytest.mark.usefixtures("complete_constraint_lists")
class TestPinnedFromParent:
    """The walks' own accounting, so every walk of the list runs (the
    plans of both cases would otherwise answer "the full walk alone")."""

    def test_quick_storm(self, monkeypatch):
        counts, doc = pipeline_counts(
            monkeypatch, storm_graph(40), c4_template(), 8
        )
        assert counts == {
            "tokens_launched": 8135,
            "completions": 172430,
            "dedup_merged": 0,
            "messages": 4629094,
            "match_mappings": 99821,
            "traffic_sha256": "7a7df351df20b809",
        }
        # (e) the old expansion built one row per message (ratio 1.0);
        # the look-up walk reads 0.24 here and 0.107 at hub degree 100
        rows = doc["metrics"]["counters"]["nlcc.rows_expanded"]
        assert 0 < rows <= 0.30 * counts["messages"]

    def test_single_label_clique_where_the_fold_merges(self, monkeypatch):
        graph = Graph()
        for v in range(8):
            graph.add_vertex(v, 0)
        for u in range(8):
            for v in range(u + 1, 8):
                graph.add_edge(u, v)
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)],
            {v: 0 for v in range(5)},
        )
        counts, _doc = pipeline_counts(monkeypatch, graph, template, 4)
        assert counts == {
            "tokens_launched": 112,
            "completions": 64568,
            "dedup_merged": 11480,
            "messages": 1539384,
            "match_mappings": 33600,
            "traffic_sha256": "b783b83c9b036402",
        }


class TestRevisitHopsDoNotExpand:
    @pytest.mark.usefixtures("complete_constraint_lists")
    def test_row_budget_on_the_full_storm_graph(self):
        result = run_pipeline(
            storm_graph(100), c4_template(), 1,
            PipelineOptions(num_ranks=8, count_matches=True),
        )
        doc = result.stats_document()
        messages = doc["messages"]["phases"]["nlcc"]["messages"]
        rows = doc["metrics"]["counters"]["nlcc.rows_expanded"]
        assert messages == 19128052
        assert 0 < rows <= 0.15 * messages

    def test_np_repeat_runs_on_expansion_hops_only(self, monkeypatch):
        graph, template, constraint = clique4_case()
        kernel = compile_kernel(template.graph)
        schedule = compile_walk_schedule(constraint)
        astate = ArraySearchState.initial(graph, template)
        calls = []
        repeat = np.repeat
        monkeypatch.setattr(
            np, "repeat", lambda *a, **k: calls.append(1) or repeat(*a, **k)
        )
        out = array_token_walk(
            astate, schedule, kernel, engine_for(graph), collect_paths=True
        )
        monkeypatch.undo()
        assert out.completions > 0  # every hop ran
        expansion_hops = schedule.length - 1 - len(revisit_hops(schedule))
        assert len(calls) == 2 * expansion_hops


# ----------------------------------------------------------------------
# (e') a walk that launches no token builds nothing
# ----------------------------------------------------------------------
class TestAWalkWithoutTokens:
    """Every initiator recycled, or none left: the seeds are visited, one
    round is flushed, and no alive adjacency is compacted for a frontier
    that does not exist."""

    def case(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 0, 1: 1, 2: 2}
        )
        graph = gnm_graph(60, 200, num_labels=3, seed=4)
        constraint = next(
            c for c in non_local_of(graph, template) if c.kind == "cycle"
        )
        return graph, template, constraint

    def second_pass(self, graph, template, constraint, array):
        """Check the constraint twice against one cache; the second pass
        finds every remaining initiator vouched for."""
        from repro.core import NlccCache, SearchState, local_constraint_checking

        kernel = compile_kernel(template.graph)
        state = SearchState.initial(graph, template)
        local_constraint_checking(state, template.graph, engine_for(graph))
        astate = (
            ArraySearchState.from_search_state(state, roles=kernel.roles)
            if array else None
        )
        cache = NlccCache()
        results = []
        for _ in range(2):
            stats = RecordingStats()
            results.append(non_local_constraint_checking(
                astate if array else state, constraint,
                engine_for(graph, stats), cache=cache, kernel=kernel,
            ))
        first, second = results
        assert first.tokens_launched > 0 and first.satisfied
        return second, stats, (astate if array else state)

    def test_fully_recycled_walk_equals_the_dict_walk(self):
        graph, template, constraint = self.case()
        dict_result, dict_stats, state = self.second_pass(
            graph, template, constraint, array=False
        )
        result, stats, astate = self.second_pass(
            graph, template, constraint, array=True
        )
        assert result.tokens_launched == 0 and result.rows_expanded == 0
        assert result.recycled and result.recycled == result.checked
        for field in ("checked", "satisfied", "recycled", "eliminated_roles",
                      "completions", "tokens_launched"):
            assert getattr(result, field) == getattr(dict_result, field)
        # the engine saw what the dict walk's traversal showed it: one
        # visit per seeded candidate, no message, one barrier
        assert stats.matrix.tolist() == dict_stats.matrix.tolist()
        assert not stats.matrix.any()
        assert stats.visit_vector.tolist() == dict_stats.visit_vector.tolist()
        assert stats.visit_vector.sum() == astate.num_active_vertices
        assert stats.total_barriers == dict_stats.total_barriers == 1
        assert set(astate.active_vertices()) == set(state.candidates)

    @pytest.mark.parametrize("recycled_input", [True, False])
    def test_nothing_is_compacted(self, monkeypatch, recycled_input):
        graph, template, constraint = self.case()
        kernel = compile_kernel(template.graph)
        schedule = compile_walk_schedule(constraint)
        astate = ArraySearchState.initial(graph, template)
        array_kernel_fixpoint(astate, kernel, engine_for(graph))
        if recycled_input:
            # every holder of the source role is vouched for
            recycled = np.sort(astate.csr.order)
        else:
            # ... or nobody holds it any more
            recycled = None
            bit = np.uint64(kernel.role_bit[constraint.source])
            astate.role_mask &= ~bit
        stats = RecordingStats()
        calls = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(
            np, "flatnonzero",
            lambda *a, **k: calls.append(1) or flatnonzero(*a, **k),
        )
        out = array_token_walk(
            astate, schedule, kernel, engine_for(graph, stats),
            recycled=recycled,
        )
        monkeypatch.undo()
        assert not calls
        assert out.tokens_launched == out.completions == out.rows_expanded == 0
        assert (out.recycled_idx.shape[0] > 0) == recycled_input
        assert out.recycled_idx.tolist() == (
            out.checked_idx.tolist() if recycled_input else []
        )
        assert not stats.matrix.any()
        assert stats.visit_vector.sum() == astate.num_active_vertices
        assert stats.total_barriers == 1


# ----------------------------------------------------------------------
# (f) source guards, and the enumeration helpers on the same look-up
# ----------------------------------------------------------------------
def test_walk_source_charges_traffic_once():
    source = inspect.getsource(array_token_walk)
    assert "add_edge_traffic" not in source
    assert source.count("accounting.add_row_traffic(") == 1


def test_enumeration_source_builds_no_pair_table():
    source = inspect.getsource(enumeration)
    assert "argsort" not in source
    assert "bitwise_or.at" not in source
    assert source.count("edge_positions") >= 3


class TestChildMatchExtension:
    @pytest.mark.parametrize("edge_label", [None, 7])
    def test_array_probe_equals_the_per_match_probe(self, edge_label):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        required = {(0, 2): edge_label} if edge_label is not None else {}
        template = PatternTemplate.from_edges(
            edges, {0: 0, 1: 1, 2: 1, 3: 0}, edge_labels=required
        )
        graph = Graph()
        rng = np.random.default_rng(5)
        for v in range(30):
            graph.add_vertex(v, int(rng.integers(2)))
        while graph.num_edges < 110:
            u, v = (int(x) for x in rng.integers(30, size=2))
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, 7 if rng.random() < 0.5 else None)
        root = generate_prototypes(template, 1).at(0)[0]
        astate = ArraySearchState.initial(graph, template)
        key = lambda m: tuple(sorted(m.items()))  # noqa: E731
        extended = 0
        for link in root.child_links:
            child_set = enumerate_matches_array(link.child, astate)
            by_array = extend_from_child_matches_array(root, link.child, child_set)
            by_dict = extend_from_child_matches(
                root, link.child, child_set.mappings(), graph
            )
            assert sorted(map(key, by_array)) == sorted(map(key, by_dict))
            extended += len(by_array)
        assert extended > 0


# ----------------------------------------------------------------------
# (g) retrace hops gather the carried edge's mirror
# ----------------------------------------------------------------------
def full_walk_of(graph, template):
    return rooted_full_walk(template.graph, graph.label_counts())


def check_retrace_walk(astate, constraint, kernel):
    """Rows, edges and their order against the token-at-a-time reference,
    traffic and completions against the dict walk."""
    schedule = compile_walk_schedule(constraint)
    reference, sent = reference_full_walk(astate, schedule, kernel)
    out, stats = check_traffic_parity(astate, constraint, kernel)
    assert out.full_paths.tolist() == [list(p) for p, _ in reference]
    assert out.full_edges.tolist() == [list(e) for _, e in reference]
    assert int(stats.matrix.sum()) == sent
    return out


def path_case():
    """a - b - {c, d}: the full walk a b c b a walks both edges back."""
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2)], labels={0: 0, 1: 1, 2: 2}
    )
    graph = Graph()
    for v, label in ((10, 0), (11, 1), (12, 2), (13, 2)):
        graph.add_vertex(v, label)
    for u, v in ((10, 11), (11, 12), (11, 13)):
        graph.add_edge(u, v)
    return graph, template, full_walk_of(graph, template)


class TestRetraceHops:
    def test_the_path_walk_retraces_both_edges(self):
        _graph, _template, constraint = path_case()
        schedule = compile_walk_schedule(constraint)
        assert constraint.walk == (0, 1, 2, 1, 0)
        assert schedule.retrace == (None, None, None, 2, 1)

    @pytest.mark.parametrize("hop", [1, 2])
    @pytest.mark.parametrize("direction", ["return", "forward"])
    def test_one_way_alive_walked_edge(self, hop, direction):
        # Aliveness is per direction.  With only the return direction of
        # a walked edge dead, the token crosses it and drops at the
        # retrace hop; with only the forward direction dead, it never
        # crosses it.  Hop 2's edge is b -> c: the walk over b -> d still
        # completes.
        graph, template, constraint = path_case()
        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template)
        csr = astate.csr
        u, v = ((10, 11), (11, 12))[hop - 1]
        forward = int(csr.edge_positions(
            np.array([csr.index_of[u]]), np.array([csr.index_of[v]])
        )[0])
        killed = forward if direction == "forward" else int(csr.mirror[forward])
        astate.edge_alive[killed] = False

        out = check_retrace_walk(astate, constraint, kernel)
        assert out.completions == (0 if hop == 1 else 1)
        if hop == 2:
            assert csr.order[out.full_paths[0]].tolist() == [10, 11, 13, 11, 10]

    def test_every_edge_alive_both_ways(self):
        graph, template, constraint = path_case()
        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template)
        out = check_retrace_walk(astate, constraint, kernel)
        assert out.completions == 2
        # the retrace hops appended the carried columns themselves
        assert out.path_cols[3] is out.path_cols[1]
        assert out.path_cols[4] is out.path_cols[0]

    @SLOW
    @given(
        data=st.data(),
        shape=st.sampled_from(["diamond", "tailed-triangle", "path"]),
    )
    def test_one_way_edges_taken_from_a_first_walk(self, data, shape):
        if shape == "path":
            edges, labels = [(0, 1), (1, 2), (2, 3)], {0: 0, 1: 1, 2: 1, 3: 0}
        else:
            edges, labels = TEMPLATES[shape]
        template = PatternTemplate.from_edges(edges, labels)
        graph = data.draw(hub_graphs())
        kernel = compile_kernel(template.graph)
        constraint = full_walk_of(graph, template)
        schedule = compile_walk_schedule(constraint)
        assert any(back is not None for back in schedule.retrace)
        astate = ArraySearchState.initial(graph, template)
        first = array_token_walk(
            astate, schedule, kernel, engine_for(graph), collect_paths=True
        )
        assume(first.completions > 0)
        walked = np.unique(first.full_edges).tolist()
        one_way = data.draw(
            st.lists(st.sampled_from(walked), min_size=1, max_size=4)
        )
        astate.edge_alive[one_way] = False
        check_retrace_walk(astate, constraint, kernel)

    def test_a_retrace_hop_probes_nothing(self, monkeypatch):
        graph, template, constraint = clique4_case()
        kernel = compile_kernel(template.graph)
        schedule = compile_walk_schedule(constraint)
        retrace_hops = [
            hop for hop, back in enumerate(schedule.retrace) if back is not None
        ]
        assert retrace_hops
        astate = ArraySearchState.initial(graph, template)
        calls = []
        positions = GraphCsr.edge_positions
        monkeypatch.setattr(
            GraphCsr, "edge_positions",
            lambda *a, **k: calls.append(1) or positions(*a, **k),
        )
        out = array_token_walk(
            astate, schedule, kernel, engine_for(graph), collect_paths=True
        )
        monkeypatch.undo()
        assert out.completions > 0  # every hop ran
        assert len(calls) == len(revisit_hops(schedule)) - len(retrace_hops)


@st.composite
def connected_templates(draw):
    """A connected template of 2-6 vertices with repeated labels."""
    n = draw(st.integers(2, 6))
    edges = {
        canonical_edge(v, draw(st.integers(0, v - 1))) for v in range(1, n)
    }
    for _ in range(draw(st.integers(0, n))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v:
            edges.add(canonical_edge(u, v))
    labels = {v: draw(st.integers(0, 2)) for v in range(n)}
    return PatternTemplate.from_edges(sorted(edges), labels)


@SLOW
@given(template=connected_templates(), orient=st.booleans())
def test_retrace_names_exactly_the_reversed_hops(template, orient):
    frequencies = {label: 1 + label for label in range(3)}
    full = rooted_full_walk(
        template.graph, frequencies, frequencies if orient else None
    )
    schedule = compile_walk_schedule(full)
    walk = full.walk
    assert len(schedule.retrace) == schedule.length
    for hop in range(1, schedule.length):
        reversed_hops = [
            j for j in range(1, hop)
            if walk[j] == walk[hop - 1] and walk[j - 1] == walk[hop]
        ]
        back = schedule.retrace[hop]
        if reversed_hops:
            assert schedule.same_positions[hop]  # a revisit hop
            assert back in reversed_hops
        else:
            assert back is None
    assert schedule.retrace[0] is None
