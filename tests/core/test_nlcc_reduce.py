"""The full-walk NLCC reduction: carried edge ids, scatter reduce, lazy sets.

A full walk returns, per completed token, the vertex at every walk
position (``full_paths``) and the CSR edge taken at every hop
(``full_edges``); ``nlcc._reduce_to_confirmed_array`` marks confirmed
roles and edges by scattering over those two matrices.  Guards:

* (a) the edge matrix really describes the path matrix, over alive edges;
* (b) the array walk + reduce equals the dict walk + ``_reduce_to_confirmed``
  — final roles, *directed* edge aliveness (the asymmetric edge-kill
  rule), confirmed roles/edges, match multiset — and its rows come out in
  the launch order of a token-at-a-time reference walk, on random inputs
  covering edge labels, the multi-word mask layout and an ``induced_view``
  CSR (remapped ``mirror``), plus a real 66-role template;
* (c) against brute force: confirmed edges ⊆ edges of real matches
  (precision) and ⊇ (recall), as two assertions;
* (d) token and message counts pinned to values recorded at the parent
  commit (``b7892be``), with and without fold merges;
* (e) ``nlcc.py`` holds no sort-based set operation.
"""

import inspect
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    PatternTemplate,
    PipelineOptions,
    generate_constraints,
    non_local_constraint_checking,
    run_pipeline,
)
from repro.core import nlcc
from repro.core.arraystate import (
    ArraySearchState,
    array_kernel_fixpoint,
    array_token_walk,
)
from repro.core.constraints import FULL_WALK_KIND, NonLocalConstraint
from repro.core.kernels import compile_kernel, compile_walk_schedule
from repro.graph.generators import gnm_graph
from repro.graph.graph import Graph, canonical_edge
from repro.graph.isomorphism import find_subgraph_isomorphisms
from repro.runtime import Engine, MessageStats, PartitionedGraph

SLOW = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def engine_for(graph, ranks=4):
    return Engine(PartitionedGraph(graph, ranks), MessageStats(ranks))


def full_walk_of(graph, template):
    constraints = generate_constraints(
        template.graph, graph.label_counts(), True
    ).non_local
    return next(c for c in constraints if c.kind == FULL_WALK_KIND)


@st.composite
def templates(draw, edge_labels):
    """A random connected template; duplicate vertex labels allowed."""
    n = draw(st.integers(3, 5))
    labels = {v: draw(st.integers(0, 2)) for v in range(n)}
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and draw(st.booleans()):
                edges.append((u, v))
    required = {}
    if edge_labels:
        required = {
            canonical_edge(u, v): 7 for u, v in edges if draw(st.booleans())
        }
    return PatternTemplate.from_edges(edges, labels, edge_labels=required)


@st.composite
def graphs(draw, edge_labels):
    n = draw(st.integers(4, 18))
    graph = Graph()
    for v in range(n):
        graph.add_vertex(v, draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(n // 2, min(3 * n, n * (n - 1) // 2)))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u != v and not graph.has_edge(u, v):
            label = draw(st.sampled_from([None, 7, 8])) if edge_labels else None
            graph.add_edge(u, v, label)
    return graph


def reference_full_walk(astate, schedule, kernel):
    """One Python token at a time over alive edges in CSR row order.

    Returns the completed tokens in launch order as (dense vertex path,
    CSR edge positions) pairs — the order the batched walk must keep.
    """
    csr = astate.csr
    rows = np.atleast_2d(astate.role_mask.T).T.tolist()
    masks = [sum(word << (64 * w) for w, word in enumerate(row)) for row in rows]
    alive = astate.edge_alive.tolist()
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    vid = csr.order.tolist()
    bits = [kernel.role_bit[role] for role in schedule.walk]
    wanted = schedule.hop_edge_labels
    tokens = [((i,), ()) for i in range(csr.num_vertices) if masks[i] & bits[0]]
    for hop in range(1, schedule.length):
        extended = []
        for path, edges in tokens:
            for edge in range(indptr[path[-1]], indptr[path[-1] + 1]):
                dst = indices[edge]
                if not alive[edge] or not masks[dst] & bits[hop]:
                    continue
                if wanted is not None and wanted[hop] is not None and (
                    csr.graph.edge_label(vid[path[-1]], vid[dst]) != wanted[hop]
                ):
                    continue
                if any(path[p] != dst for p in schedule.same_positions[hop]):
                    continue
                if any(path[p] == dst for p in schedule.diff_positions[hop]):
                    continue
                extended.append((path + (dst,), edges + (edge,)))
        tokens = extended
    return tokens


def dict_snapshot(state):
    """Roles and *directed* alive adjacency of the surviving candidates."""
    return (
        {v: frozenset(r) for v, r in state.candidates.items()},
        {v: frozenset(n) for v, n in state.active_edges.items() if n},
    )


def check_reduce_parity(astate, constraint, kernel):
    """Array walk + reduce on ``astate`` vs the dict pair on its export."""
    schedule = compile_walk_schedule(constraint)
    reference = reference_full_walk(astate, schedule, kernel)
    vid = astate.csr.order

    state = astate.to_search_state()
    dict_result = non_local_constraint_checking(
        state, constraint, engine_for(state.graph), kernel=kernel
    )
    array_result = non_local_constraint_checking(
        astate, constraint, engine_for(astate.graph), kernel=kernel
    )

    assert dict_snapshot(astate.to_search_state()) == dict_snapshot(state)
    assert array_result.eliminated_roles == dict_result.eliminated_roles
    assert array_result.completions == dict_result.completions == len(reference)
    assert array_result.confirmed_roles == dict_result.confirmed_roles
    assert array_result.confirmed_edges == dict_result.confirmed_edges
    assert Counter(
        frozenset(m.items()) for m in array_result.completed_mappings
    ) == Counter(frozenset(m.items()) for m in dict_result.completed_mappings)
    if reference:
        assert array_result.completed_paths.tolist() == [
            vid[list(path)].tolist() for path, _ in reference
        ]
    else:
        assert array_result.completed_paths is None
    return array_result


# ----------------------------------------------------------------------
# (a) full_edges describes full_paths
# ----------------------------------------------------------------------
class TestCarriedEdges:
    def walk(self, graph, template):
        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template)
        array_kernel_fixpoint(astate, kernel, engine_for(graph))
        schedule = compile_walk_schedule(full_walk_of(graph, template))
        out = array_token_walk(
            astate, schedule, kernel, engine_for(graph), collect_paths=True
        )
        return astate, schedule, kernel, out

    def test_edges_run_along_the_paths_over_alive_edges(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
            labels={0: 0, 1: 1, 2: 1, 3: 0},
        )
        graph = gnm_graph(70, 260, num_labels=2, seed=4)
        astate, schedule, kernel, out = self.walk(graph, template)
        csr = astate.csr
        assert out.completions == out.full_paths.shape[0] > 0
        assert out.full_edges.shape == (out.completions, schedule.length - 1)
        assert (csr.src[out.full_edges] == out.full_paths[:, :-1]).all()
        assert (csr.indices[out.full_edges] == out.full_paths[:, 1:]).all()
        assert astate.edge_alive[out.full_edges].all()
        reference = reference_full_walk(astate, schedule, kernel)
        assert out.full_paths.tolist() == [list(p) for p, _ in reference]
        assert out.full_edges.tolist() == [list(e) for _, e in reference]

    def test_no_completion_gives_empty_matrices(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 0, 1: 1, 2: 2}
        )
        graph = Graph()
        for v in range(3):
            graph.add_vertex(v, v)
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        astate, schedule, _kernel, out = self.walk(graph, template)
        assert out.completions == 0
        assert out.full_paths.shape == (0, schedule.length)
        assert out.full_edges.shape == (0, schedule.length - 1)

    def test_other_walks_carry_nothing(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 0, 1: 1, 2: 2}
        )
        graph = gnm_graph(30, 90, num_labels=3, seed=1)
        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template)
        cycle = next(
            c for c in generate_constraints(
                template.graph, graph.label_counts(), True
            ).non_local if c.kind == "cycle"
        )
        out = array_token_walk(
            astate, compile_walk_schedule(cycle), kernel, engine_for(graph)
        )
        assert out.full_paths is None and out.full_edges is None


# ----------------------------------------------------------------------
# (b) array reduce == dict reduce
# ----------------------------------------------------------------------
class TestReduceParity:
    @SLOW
    @given(
        data=st.data(),
        edge_labels=st.booleans(),
        min_words=st.sampled_from([1, 2]),
        run_lcc=st.booleans(),
        use_view=st.booleans(),
    )
    def test_random_graphs_and_templates(
        self, data, edge_labels, min_words, run_lcc, use_view
    ):
        template = data.draw(templates(edge_labels))
        graph = data.draw(graphs(edge_labels))
        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template, min_words=min_words)
        if run_lcc:
            # without it, edges into non-candidates are alive one way only
            array_kernel_fixpoint(astate, kernel, engine_for(graph))
        if use_view:
            keep = np.array(
                data.draw(
                    st.lists(
                        st.booleans(), min_size=graph.num_vertices,
                        max_size=graph.num_vertices,
                    )
                )
            )
            view = astate.csr.induced_view(keep | astate.vertex_active)
            astate = astate.restrict_to_view(view)
            assert astate.csr.mirror is not None and astate.csr.parent is not None
        check_reduce_parity(astate, full_walk_of(graph, template), kernel)

    @pytest.mark.parametrize("walk", [(0, 1, 2, 0), (2, 1, 0, 2)])
    def test_walk_crossing_each_edge_once(self, walk):
        # The generated full walk goes out and back over every edge, so it
        # marks both directions itself.  A closed walk that covers each
        # edge one way (a cycle template's own cycle) confirms the other
        # direction only through ``mirror``.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)], labels={0: 0, 1: 1, 2: 2}
        )
        graph = gnm_graph(40, 160, num_labels=3, seed=6)
        constraint = NonLocalConstraint(
            FULL_WALK_KIND, walk, [template.label(v) for v in walk],
            template.graph,
        )
        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template)
        result = check_reduce_parity(astate, constraint, kernel)
        assert result.completions > 0
        assert set(astate.active_edge_list()) == result.confirmed_edges

    def test_wide_template(self):
        # 66 roles: a 62-vertex tail of distinct labels behind a C4 with
        # mirrored labels, so the walk is long *and* has several matches.
        tail = list(range(4, 66))
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]
        edges += [(v, v + 1) for v in tail[:-1]]
        labels = {0: 0, 1: 1, 2: 1, 3: 0, **{v: v for v in tail}}
        template = PatternTemplate.from_edges(edges, labels)
        graph = Graph()
        for v, label in labels.items():
            graph.add_vertex(v, label)
        for u, v in edges:
            graph.add_edge(u, v)
        # a second C4 through the tail's anchor, and a stray near-match
        for v, label in ((100, 1), (101, 1), (102, 0), (103, 0), (104, 1)):
            graph.add_vertex(v, label)
        for u, v in ((0, 100), (100, 101), (101, 102), (102, 0),
                     (103, 104), (104, 2)):
            graph.add_edge(u, v)
        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template)
        assert astate.n_words == 2
        result = check_reduce_parity(
            astate, full_walk_of(graph, template), kernel
        )
        assert result.completions > 1
        assert (0, 100) in result.confirmed_edges
        assert 103 not in result.confirmed_roles


# ----------------------------------------------------------------------
# (c) precision and recall against brute force
# ----------------------------------------------------------------------
class TestAgainstBruteForce:
    @SLOW
    @given(data=st.data(), edge_labels=st.booleans())
    def test_confirmed_is_exactly_what_matches_touch(self, data, edge_labels):
        template = data.draw(templates(edge_labels))
        graph = data.draw(graphs(edge_labels))
        match_edges = set()
        match_roles = {}
        for mapping in find_subgraph_isomorphisms(template.graph, graph):
            for role, vertex in mapping.items():
                match_roles.setdefault(vertex, set()).add(role)
            for u, v in template.edges():
                match_edges.add(canonical_edge(mapping[u], mapping[v]))

        kernel = compile_kernel(template.graph)
        astate = ArraySearchState.initial(graph, template)
        result = non_local_constraint_checking(
            astate, full_walk_of(graph, template), engine_for(graph),
            kernel=kernel,
        )
        assert result.confirmed_edges <= match_edges  # precision
        assert result.confirmed_edges >= match_edges  # recall
        assert result.confirmed_roles == match_roles
        assert set(astate.active_vertices()) == set(match_roles)
        assert set(astate.active_edge_list()) == match_edges


# ----------------------------------------------------------------------
# (d) counts pinned from the parent commit
# ----------------------------------------------------------------------
def quick_storm_graph():
    """The ``quick`` preset storm input of ``benchmarks/e2e/workloads.py``."""
    graph = gnm_graph(2000, 6000, num_labels=2, seed=13)
    rng = np.random.default_rng(17)
    for hub in rng.choice(2000, size=4, replace=False).tolist():
        for v in rng.choice(2000, size=40, replace=False).tolist():
            if v != hub and not graph.has_edge(hub, v):
                graph.add_edge(hub, v)
    return graph


def nlcc_counts(graph, template, ranks):
    options = PipelineOptions(num_ranks=ranks, count_matches=True)
    result = run_pipeline(graph, template, 1, options)
    doc = result.stats_document()
    counts = {
        field: doc["nlcc"][field]
        for field in ("tokens_launched", "completions", "dedup_merged")
    }
    counts["messages"] = doc["messages"]["phases"]["nlcc"]["messages"]
    counts["match_mappings"] = result.total_match_mappings()
    return counts


@pytest.mark.usefixtures("complete_constraint_lists")
class TestPinnedCounts:
    """The walks' own accounting, so every walk of the list runs (the
    plans of both cases would otherwise answer "the full walk alone")."""

    def test_quick_storm(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 0, 1: 1, 2: 1, 3: 0}
        )
        assert nlcc_counts(quick_storm_graph(), template, 8) == {
            "tokens_launched": 8135,
            "completions": 172430,
            "dedup_merged": 0,
            "messages": 4629094,
            "match_mappings": 99821,
        }

    def test_single_label_clique_where_the_fold_merges(self):
        # walks here reach three and more free columns
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
        assert nlcc_counts(graph, template, 4) == {
            "tokens_launched": 112,
            "completions": 64568,
            "dedup_merged": 11480,
            "messages": 1539384,
            "match_mappings": 33600,
        }


# ----------------------------------------------------------------------
# (e) the reduction stays sort-free
# ----------------------------------------------------------------------
def test_nlcc_source_has_no_sort_based_set_operation():
    source = inspect.getsource(nlcc)
    assert "np.isin" not in source
    assert "axis=0" not in source
    assert "np.unique" not in inspect.getsource(nlcc._reduce_to_confirmed_array)
