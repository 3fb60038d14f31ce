"""Parity properties for the vectorized match enumerator and wide masks.

``enumerate_matches_array`` is pure performance work: on every input the
mapping *set* it produces must be bit-exact with the reference backend's
dict backtracker (:func:`enumerate_matches`), including edge-labeled and
wildcard pattern edges — only the enumeration order may differ.  Likewise the multi-word
``(n, n_words)`` role-mask layout must reach the same fixed point as the
single-word fast path on the same seeds.  These tests pin both contracts
on the randomized workloads of ``test_kernels.py``.
"""

import numpy as np
import pytest

from repro.core import (
    ArraySearchState,
    PatternTemplate,
    SearchState,
    compile_kernel,
    generate_prototypes,
    local_constraint_checking,
    max_candidate_set,
)
from repro.core.arraystate import array_kernel_fixpoint
from repro.core.enumeration import (
    enumerate_matches,
    enumerate_matches_array,
)
from repro.core.kernels import cached_kernel
from repro.graph.graph import Graph

from test_kernels import engine_for, random_case


def mapping_set(mappings):
    return {frozenset(m.items()) for m in mappings}


def verification_state(seed, proto_index, k=1):
    """A (prototype, pruned dict state) pair as search.py verifies it."""
    graph, template = random_case(seed)
    engine = engine_for(graph)
    state = max_candidate_set(graph, template, engine)
    protos = generate_prototypes(template, k).all()
    proto = protos[proto_index % len(protos)]
    scoped = state.for_prototype_search(proto)
    local_constraint_checking(scoped, proto.graph, engine_for(graph))
    return proto, scoped


def astate_for(proto, state, min_words=1):
    kernel = cached_kernel(proto.graph)
    return ArraySearchState.from_search_state(
        state, roles=kernel.roles, min_words=min_words
    )


class TestEnumerationParity:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("proto_index", range(3))
    def test_mapping_sets_identical(self, seed, proto_index):
        proto, state = verification_state(seed, proto_index)
        expected = mapping_set(enumerate_matches(proto, state))
        match_set = enumerate_matches_array(proto, astate_for(proto, state))
        assert mapping_set(match_set.mappings()) == expected
        assert len(match_set) == len(expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_wide_masks_enumerate_identically(self, seed):
        # Forcing the (n, 2)-word layout on a <=64-role prototype must
        # not change the mapping set: the wide branches of the frontier
        # walk see the same candidacies through a different addressing.
        proto, state = verification_state(seed, proto_index=0)
        expected = mapping_set(enumerate_matches(proto, state))
        astate = astate_for(proto, state, min_words=2)
        assert astate.n_words == 2
        match_set = enumerate_matches_array(proto, astate)
        assert mapping_set(match_set.mappings()) == expected

    def test_limit_truncates_within_the_full_set(self):
        proto, state = verification_state(0, proto_index=0)
        full = mapping_set(enumerate_matches(proto, state))
        if len(full) < 2:
            pytest.skip("seed produced too few matches to truncate")
        limited = enumerate_matches_array(
            proto, astate_for(proto, state), limit=1
        )
        assert len(limited) == 1
        assert mapping_set(limited.mappings()) <= full

    def test_empty_scope_enumerates_nothing(self):
        proto, state = verification_state(1, proto_index=0)
        for vertex in list(state.candidates):
            state.deactivate_vertex(vertex)
        assert list(enumerate_matches(proto, state)) == []
        assert len(enumerate_matches_array(proto, astate_for(proto, state))) == 0


class TestEdgeLabelEnumerationParity:
    def background(self, seed):
        """Random 3-label graph; half the edges carry an edge label."""
        rng = np.random.default_rng(seed)
        graph = Graph()
        n = 24
        for v in range(n):
            graph.add_vertex(v, int(rng.integers(3)) + 1)
        added = 0
        while added < 70:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and not graph.has_edge(u, v):
                label = None if rng.random() < 0.5 else int(rng.integers(2)) + 6
                graph.add_edge(u, v, label)
                added += 1
        return graph

    def template(self, wanted=7):
        # one labeled edge, two wildcard (None) edges
        return PatternTemplate.from_edges(
            [(0, 1), (1, 2), (2, 0)],
            labels={0: 1, 1: 2, 2: 3},
            edge_labels={(0, 1): wanted},
            name="el-parity",
        )

    def pruned(self, graph, template):
        proto = generate_prototypes(template, 0).at(0)[0]
        state = SearchState.initial(graph, template)
        local_constraint_checking(state, proto.graph, engine_for(graph))
        return proto, state

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("min_words", [1, 2])
    def test_labeled_and_wildcard_edges_identical(self, seed, min_words):
        graph = self.background(seed)
        proto, state = self.pruned(graph, self.template())
        expected = mapping_set(enumerate_matches(proto, state))
        match_set = enumerate_matches_array(
            proto, astate_for(proto, state, min_words=min_words)
        )
        assert mapping_set(match_set.mappings()) == expected

    def test_ghost_edge_label_yields_no_matches(self):
        # The template wants edge label 42, which no graph edge carries:
        # both enumerators must agree on the empty set.
        graph = self.background(0)
        proto, state = self.pruned(graph, self.template(wanted=42))
        assert list(enumerate_matches(proto, state)) == []
        assert len(enumerate_matches_array(proto, astate_for(proto, state))) == 0


class TestWideFixpointParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_multi_word_fixpoint_matches_single_word(self, seed):
        # Same seeds as the enumeration parity suite: forcing the wide
        # layout must not change the LCC fixed point or round count.
        graph, template = random_case(seed)
        kernel = compile_kernel(template.graph)
        snapshots = []
        for min_words in (1, 2):
            astate = ArraySearchState.initial(
                graph, template, min_words=min_words
            )
            assert astate.n_words == min_words
            iterations = array_kernel_fixpoint(
                astate, kernel, engine_for(graph)
            )
            exported = astate.to_search_state()
            snapshots.append((
                iterations,
                {v: frozenset(r) for v, r in exported.candidates.items()},
                sorted(exported.active_edge_list()),
            ))
        assert snapshots[0] == snapshots[1]
