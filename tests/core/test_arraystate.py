"""Equivalence tests for the array-backed CSR state (the core/arraystate package).

The array state and vectorized fixpoints are pure performance work: every
test here pins them to the set-based reference — identical fixed points,
identical iteration counts, identical message/visit totals, and lossless
round-trip conversion — on the same randomized workloads as
``test_kernels.py``.
"""

import numpy as np
import pytest

from repro.core import (
    ArraySearchState,
    PatternTemplate,
    PipelineOptions,
    SearchState,
    array_kernel_fixpoint,
    compile_kernel,
    csr_of,
    generate_prototypes,
    local_constraint_checking,
    max_candidate_arrays,
    max_candidate_set,
    run_pipeline,
)
from repro.core.arraystate import MAX_ARRAY_ROLES, GraphCsr
from repro.graph.graph import Graph
from repro.graph.generators import planted_graph
from repro.runtime import Engine, MessageStats, PartitionedGraph

from test_kernels import engine_for, random_case, template_pool


def dict_snapshot(state):
    return (
        {v: frozenset(r) for v, r in state.candidates.items()},
        sorted(state.active_edge_list()),
    )


def array_snapshot(astate):
    exported = astate.to_search_state()
    return dict_snapshot(exported)


def lcc_snapshot(graph, template, backend):
    """LCC from the dict initial state: in place on the reference
    backend; imported into an array state with ``from_search_state`` on
    the array backend."""
    proto = generate_prototypes(template, 0).at(0)[0]
    state = SearchState.initial(graph, template)
    if backend == "array":
        state = ArraySearchState.from_search_state(state)
    engine = engine_for(graph)
    iterations = local_constraint_checking(state, proto.graph, engine)
    if backend == "array":
        return array_snapshot(state), iterations, engine.stats
    return dict_snapshot(state), iterations, engine.stats


def full_round_snapshot(graph, template, delta):
    """The array fixpoint run directly from ``ArraySearchState.initial``."""
    proto = generate_prototypes(template, 0).at(0)[0]
    astate = ArraySearchState.initial(graph, template)
    engine = engine_for(graph)
    iterations = array_kernel_fixpoint(
        astate, compile_kernel(proto.graph), engine, delta=delta
    )
    return array_snapshot(astate), iterations, engine.stats


class TestGraphCsr:
    def graph(self, seed=0):
        graph, _template = random_case(seed)
        return graph

    def test_rows_mirror_adjacency(self):
        graph = self.graph()
        csr = GraphCsr(graph)
        for i, v in enumerate(csr.order.tolist()):
            s, e = int(csr.indptr[i]), int(csr.indptr[i + 1])
            row = {csr.order[t] for t in csr.indices[s:e].tolist()}
            assert row == set(graph.neighbors(v))

    def test_mirror_is_an_involution_onto_reverse_edges(self):
        csr = GraphCsr(self.graph())
        e = np.arange(csr.num_directed_edges)
        assert (csr.mirror[csr.mirror] == e).all()
        assert (csr.src[csr.mirror] == csr.indices).all()
        assert (csr.indices[csr.mirror] == csr.src).all()

    def test_pair_code_is_canonical(self):
        csr = GraphCsr(self.graph())
        assert (csr.pair_code == csr.pair_code[csr.mirror]).all()
        lab = csr.label_codes
        lo = np.minimum(lab[csr.src], lab[csr.indices])
        hi = np.maximum(lab[csr.src], lab[csr.indices])
        assert (csr.pair_code == lo * csr.num_labels + hi).all()

    def test_label_pair_code_unknown_label(self):
        csr = GraphCsr(self.graph())
        assert csr.label_pair_code(1, 999) is None

    def test_memoized_and_invalidated_on_mutation(self):
        graph = self.graph()
        csr = csr_of(graph)
        assert csr_of(graph) is csr
        vertices = list(graph.vertices())
        graph.add_vertex(max(vertices) + 1, 1)
        rebuilt = csr_of(graph)
        assert rebuilt is not csr
        assert rebuilt.num_vertices == csr.num_vertices + 1

    def test_arrays_are_frozen(self):
        csr = GraphCsr(self.graph())
        with pytest.raises(ValueError):
            csr.indices[0] = 0


class TestRoundTripConversion:
    @pytest.mark.parametrize("seed", range(6))
    def test_initial_state_round_trips(self, seed):
        graph, template = random_case(seed)
        state = SearchState.initial(graph, template)
        astate = ArraySearchState.from_search_state(state)
        assert array_snapshot(astate) == dict_snapshot(state)

    @pytest.mark.parametrize("seed", range(6))
    def test_initial_matches_dict_initial(self, seed):
        graph, template = random_case(seed)
        state = SearchState.initial(graph, template)
        astate = ArraySearchState.initial(graph, template)
        assert array_snapshot(astate) == dict_snapshot(state)
        assert astate.active_counts() == (
            state.num_active_vertices, state.num_active_edges,
        )

    def test_partially_pruned_state_round_trips(self):
        graph, template = random_case(1)
        state = SearchState.initial(graph, template)
        victims = sorted(state.candidates)[:3]
        state.deactivate_vertex(victims[0])
        nbrs = state.active_neighbors(victims[1])
        if nbrs:
            state.deactivate_edge(victims[1], next(iter(nbrs)))
        astate = ArraySearchState.from_search_state(state)
        assert array_snapshot(astate) == dict_snapshot(state)

    def test_empty_role_set_candidate_survives(self):
        # The level union can leave candidates with empty role sets;
        # the conversion must keep them active in both directions.
        graph, template = random_case(0)
        state = SearchState.initial(graph, template)
        some = next(iter(state.candidates))
        state.candidates[some] = set()
        astate = ArraySearchState.from_search_state(state)
        assert astate.is_active(some)
        assert array_snapshot(astate) == dict_snapshot(state)


class TestFromIds:
    """A scope given by vertex and edge ids, in either state form."""

    def scope(self, seed=2):
        graph, template = random_case(seed)
        state = SearchState.initial(graph, template)
        for victim in sorted(state.candidates)[:3]:
            state.deactivate_vertex(victim)
        return graph, template, state

    @pytest.mark.parametrize("seed", range(4))
    def test_both_forms_hold_exactly_the_ids(self, seed):
        graph, _template, state = self.scope(seed)
        vertices = sorted(state.candidates)
        edges = sorted(state.active_edge_list())
        astate = ArraySearchState.from_ids(csr_of(graph), vertices, edges)
        restored = SearchState.from_ids(graph, vertices, edges)
        for scope in (astate, restored):
            assert sorted(scope.active_vertices()) == vertices
            assert sorted(scope.active_edge_list()) == edges
        assert astate.roles == []
        assert all(not roles for roles in restored.candidates.values())

    def test_template_seeds_roles_by_label(self):
        graph, template, state = self.scope()
        astate = ArraySearchState.from_ids(
            csr_of(graph), state.candidates, state.active_edge_list(),
            template=template,
        )
        labeled = state.for_prototype_search(
            generate_prototypes(template, 0).at(0)[0]
        )
        assert {
            v: frozenset(r) for v, r in astate.to_search_state().candidates.items()
        } == {v: frozenset(r) for v, r in labeled.candidates.items()}

    def test_unknown_vertex_and_non_edge_rejected(self):
        graph, _template, state = self.scope()
        csr = csr_of(graph)
        with pytest.raises(ValueError, match="not in the graph"):
            ArraySearchState.from_ids(csr, [10 ** 9], [])
        u = next(iter(state.candidates))
        v = next(w for w in graph.vertices() if w != u and not graph.has_edge(u, w))
        with pytest.raises(ValueError, match="not an edge"):
            ArraySearchState.from_ids(csr, [u, v], [(u, v)])


class TestMutationParity:
    def pair(self, seed=0):
        graph, template = random_case(seed)
        state = SearchState.initial(graph, template)
        return state, ArraySearchState.from_search_state(state)

    def test_deactivate_vertex(self):
        state, astate = self.pair()
        victim = sorted(state.candidates)[1]
        state.deactivate_vertex(victim)
        astate.deactivate_vertex(victim)
        assert not astate.is_active(victim)
        assert array_snapshot(astate) == dict_snapshot(state)

    def test_deactivate_edge(self):
        state, astate = self.pair()
        u = next(v for v in sorted(state.candidates)
                 if state.active_neighbors(v))
        w = next(iter(state.active_neighbors(u)))
        state.deactivate_edge(u, w)
        astate.deactivate_edge(u, w)
        assert array_snapshot(astate) == dict_snapshot(state)

    def test_remove_role_keeps_vertex_with_other_roles(self):
        state, astate = self.pair(1)  # alt-path: candidates hold 2 roles
        vertex = next(v for v, r in sorted(state.candidates.items())
                      if len(r) >= 2)
        role = min(state.candidates[vertex])
        state.remove_role(vertex, role)
        astate.remove_role(vertex, role)
        assert array_snapshot(astate) == dict_snapshot(state)

    def test_remove_last_role_deactivates(self):
        state, astate = self.pair()
        vertex = next(v for v, r in sorted(state.candidates.items())
                      if len(r) == 1)
        role = next(iter(state.candidates[vertex]))
        state.remove_role(vertex, role)
        astate.remove_role(vertex, role)
        assert not astate.is_active(vertex)
        assert array_snapshot(astate) == dict_snapshot(state)

    def test_copy_independent(self):
        _state, astate = self.pair()
        clone = astate.copy()
        victim = int(astate.csr.order[np.nonzero(astate.vertex_active)[0][0]])
        clone.deactivate_vertex(victim)
        assert astate.is_active(victim)


class TestLccEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_fixed_point_identical(self, seed):
        graph, template = random_case(seed)
        base = lcc_snapshot(graph, template, "reference")
        arr = lcc_snapshot(graph, template, "array")
        assert arr[:2] == base[:2]

    @pytest.mark.parametrize("seed", range(8))
    def test_full_round_mode_identical(self, seed):
        graph, template = random_case(seed)
        base = lcc_snapshot(graph, template, "reference")
        arr = full_round_snapshot(graph, template, delta=False)
        assert arr[:2] == base[:2]
        assert arr[2].total_messages == base[2].total_messages
        assert arr[2].total_visits == base[2].total_visits

    @pytest.mark.parametrize("seed", range(8))
    def test_message_and_visit_parity_with_delta_kernel(self, seed):
        # LCC on a state imported from dict form must send exactly what
        # the semi-naive (delta) kernel sends from the seeded array state
        # (control/termination traffic is not compared).
        graph, template = random_case(seed)
        dlta = full_round_snapshot(graph, template, delta=True)
        arr = lcc_snapshot(graph, template, "array")
        assert arr[:2] == dlta[:2]
        assert arr[2].total_messages == dlta[2].total_messages
        assert arr[2].total_visits == dlta[2].total_visits

    def test_isolated_candidate_eliminated_in_round_one(self):
        template = template_pool()[0]
        graph = Graph()
        for v, lab in [(0, 1), (1, 2), (2, 3), (3, 4), (9, 3)]:
            graph.add_vertex(v, lab)
        for u, v in [(0, 1), (1, 2), (2, 0), (2, 3)]:
            graph.add_edge(u, v)
        for delta in (False, True):
            state = ArraySearchState.from_search_state(
                SearchState.initial(graph, template)
            )
            array_kernel_fixpoint(
                state, compile_kernel(template.graph), engine_for(graph),
                delta=delta,
            )
            assert not state.is_active(9)
            assert state.is_active(2)

    def test_oversized_role_set_runs_multi_word_array_kernel(self):
        # Regression for the removed ">64 roles" dict fallback: the wide
        # template now runs the multi-word array kernel and must match the
        # reference fixpoint bit-for-bit.
        path = [(v, v + 1) for v in range(MAX_ARRAY_ROLES)]
        labels = {v: 1 for v in range(MAX_ARRAY_ROLES + 1)}
        template = PatternTemplate.from_edges(path, labels, name="wide")
        graph_probe = Graph()
        graph_probe.add_vertex(0, 1)
        wide_state = ArraySearchState.initial(graph_probe, template)
        assert wide_state.n_words == 2
        graph = Graph()
        for v in range(6):
            graph.add_vertex(v, 1)
        for v in range(5):
            graph.add_edge(v, v + 1)
        base_state = SearchState.initial(graph, template)
        arr_state = ArraySearchState.initial(graph, template)
        assert arr_state.n_words == 2
        base_iters = local_constraint_checking(
            base_state, template.graph, engine_for(graph)
        )
        arr_iters = local_constraint_checking(
            arr_state, template.graph, engine_for(graph)
        )
        assert array_snapshot(arr_state) == dict_snapshot(base_state)
        assert arr_iters == base_iters


class TestEdgeLabeledEquivalence:
    def background(self, seed):
        rng = np.random.default_rng(seed)
        graph = Graph()
        n = 24
        for v in range(n):
            graph.add_vertex(v, int(rng.integers(3)) + 1)
        added = 0
        while added < 60:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not graph.has_edge(u, v):
                label = None if rng.random() < 0.5 else int(rng.integers(2)) + 6
                graph.add_edge(u, v, label)
                added += 1
        return graph

    @pytest.mark.parametrize("seed", range(6))
    def test_labeled_fixed_point_identical(self, seed):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): 7},
            name="el",
        )
        graph = self.background(seed)
        base = lcc_snapshot(graph, template, "reference")
        arr = lcc_snapshot(graph, template, "array")
        assert arr[:2] == base[:2]

    def test_wanted_label_absent_from_graph(self):
        # The template wants edge label 42, which no graph edge carries:
        # roles requiring it must die on both paths.
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): 42},
            name="ghost-label",
        )
        graph = self.background(0)
        base = lcc_snapshot(graph, template, "reference")
        arr = lcc_snapshot(graph, template, "array")
        assert arr[:2] == base[:2]


class TestMaxCandidateSetEquivalence:
    def mcs(self, graph, template, backend):
        engine = engine_for(graph)
        if backend == "array":
            snapshot = array_snapshot(
                max_candidate_arrays(graph, template, engine)
            )
        else:
            snapshot = dict_snapshot(
                max_candidate_set(graph, template, engine)
            )
        return snapshot, engine.stats

    @pytest.mark.parametrize("seed", range(6))
    def test_mstar_identical(self, seed):
        graph, template = random_case(seed)
        base = self.mcs(graph, template, "reference")
        arr = self.mcs(graph, template, "array")
        assert arr[0] == base[0]
        # semi-naive rounds: never more messages or visits
        assert arr[1].total_messages <= base[1].total_messages
        assert arr[1].total_visits <= base[1].total_visits

    def test_mandatory_edges_identical(self):
        template = PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3)],
            labels={0: 1, 1: 2, 2: 3, 3: 4},
            mandatory_edges=[(2, 3)],
        )
        labels = [1, 2, 3, 4]
        graph = planted_graph(
            40, 110, template.edges(), labels, copies=2, num_labels=4, seed=3
        )
        base = self.mcs(graph, template, "reference")
        arr = self.mcs(graph, template, "array")
        assert arr[0] == base[0]


class TestScopingParity:
    """for_prototype_search against the dict version."""

    def base_states(self, seed=0, k=1):
        graph, template = random_case(seed)
        engine = engine_for(graph)
        state = max_candidate_set(graph, template, engine)
        protos = generate_prototypes(template, k)
        return state, ArraySearchState.from_search_state(state), protos

    @pytest.mark.parametrize("seed", range(4))
    def test_for_prototype_search_identical(self, seed):
        state, astate, protos = self.base_states(seed)
        for distance in (0, 1):
            for proto in protos.at(distance):
                scoped = state.for_prototype_search(proto)
                ascoped = astate.for_prototype_search(proto)
                assert array_snapshot(ascoped) == dict_snapshot(scoped)

    def test_readmission_identical(self):
        state, astate, protos = self.base_states(0)
        proto = protos.at(0)[0]
        pairs = [
            tuple(sorted((state.graph.label(u), state.graph.label(v))))
            for u, v in list(state.active_edge_list())[:4]
        ]
        # Drop those edges from both states, then readmit by label pair.
        for u, v in list(state.active_edge_list())[:4]:
            state.deactivate_edge(u, v)
            astate.deactivate_edge(u, v)
        scoped = state.for_prototype_search(proto, readmit_label_pairs=pairs)
        ascoped = astate.for_prototype_search(proto, readmit_label_pairs=pairs)
        assert array_snapshot(ascoped) == dict_snapshot(scoped)


class TestPipelineEquivalence:
    """End-to-end: the backend never changes any result field."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_full_pipeline_identical(self, k, seed):
        template = template_pool()[0]
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        graph = planted_graph(
            50, 130, template.edges(), labels, copies=3, num_labels=4, seed=seed
        )
        results = [
            run_pipeline(
                graph, template, k,
                PipelineOptions(
                    num_ranks=3, count_matches=True, backend=backend
                ),
            )
            for backend in ("reference", "array")
        ]
        base, arr = results
        assert arr.match_vectors == base.match_vectors
        assert arr.candidate_set_vertices == base.candidate_set_vertices
        assert arr.candidate_set_edges == base.candidate_set_edges
        for proto in base.prototype_set:
            ours = arr.outcome_for(proto.id)
            ref = base.outcome_for(proto.id)
            assert ours.solution_vertices == ref.solution_vertices
            assert ours.solution_edges == ref.solution_edges
            assert ours.match_mappings == ref.match_mappings
            assert ours.lcc_iterations == ref.lcc_iterations
            assert ours.post_lcc_vertices == ref.post_lcc_vertices
            assert ours.post_lcc_edges == ref.post_lcc_edges


class TestResultStats:
    def test_pipeline_surfaces_cache_and_post_lcc_stats(self):
        template = template_pool()[0]
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        graph = planted_graph(
            50, 130, template.edges(), labels, copies=3, num_labels=4, seed=11
        )
        # the reference backend: the plan skips nothing, so the
        # recycled pre-filters run and the cache sees traffic
        result = run_pipeline(
            graph, template, 2,
            PipelineOptions(num_ranks=3, backend="reference"),
        )
        assert set(result.nlcc_cache_stats) == {
            "hits", "misses", "constraints", "entries"
        }
        assert result.nlcc_cache_stats["misses"] > 0
        assert any(
            level.post_lcc_vertices > 0 for level in result.levels
        )

    def test_cache_stats_empty_without_recycling(self):
        template = template_pool()[0]
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        graph = planted_graph(
            50, 130, template.edges(), labels, copies=3, num_labels=4, seed=11
        )
        result = run_pipeline(
            graph, template, 1,
            PipelineOptions(num_ranks=3, work_recycling=False),
        )
        assert result.nlcc_cache_stats == {}
