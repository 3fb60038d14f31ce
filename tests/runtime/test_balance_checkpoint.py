"""Tests for load balancing and checkpoint/restore."""

import pytest

from repro.errors import CheckpointError, PartitionError
from repro.graph import from_edges
from repro.graph.generators import webgraph
from repro.runtime import (
    PartitionedGraph,
    load_checkpoint,
    rebalance_cost,
    reload_on,
    reshuffle,
    save_checkpoint,
)


class TestReshuffle:
    def test_improves_imbalance(self):
        g = webgraph(300, seed=1)
        skewed = PartitionedGraph(g, 4, assignment={v: 0 if v < 250 else 1 for v in g.vertices()})
        assert reshuffle(skewed).load_imbalance() < skewed.load_imbalance()

    def test_preserves_rank_count_and_graph(self):
        g = webgraph(100, seed=2)
        pg = PartitionedGraph(g, 3)
        shuffled = reshuffle(pg)
        assert shuffled.num_ranks == 3
        assert shuffled.graph is g


class TestReload:
    def test_reload_on_fewer_ranks(self):
        g = webgraph(100, seed=3)
        pg = PartitionedGraph(g, 8)
        small = reload_on(pg, 2)
        assert small.num_ranks == 2
        assert small.load_imbalance() < 1.3

    def test_reload_keeps_delegate_threshold(self):
        g = webgraph(100, seed=4)
        pg = PartitionedGraph(g, 8, delegate_degree_threshold=10)
        small = reload_on(pg, 2)
        assert small.delegate_degree_threshold == 10

    def test_reload_ranks_per_node_zero_falls_back(self):
        # ranks_per_node is Optional[int]: an explicit 0 means "unset"
        # and must inherit the source deployment's layout instead of
        # reaching PartitionedGraph (which rejects non-positive values).
        g = webgraph(100, seed=6)
        pg = PartitionedGraph(g, 8, ranks_per_node=4)
        assert reload_on(pg, 4, ranks_per_node=0).ranks_per_node == 4
        assert reload_on(pg, 4, ranks_per_node=None).ranks_per_node == 4

    def test_reload_explicit_ranks_per_node_honored(self):
        g = webgraph(100, seed=7)
        pg = PartitionedGraph(g, 8, ranks_per_node=4)
        assert reload_on(pg, 4, ranks_per_node=2).ranks_per_node == 2

    def test_reload_zero_ranks_rejected(self):
        pg = PartitionedGraph(from_edges([(0, 1)]), 2)
        with pytest.raises(PartitionError):
            reload_on(pg, 0)

    def test_rebalance_cost_scales_with_edges(self):
        small = PartitionedGraph(from_edges([(0, 1)]), 1)
        big = PartitionedGraph(webgraph(200, seed=5), 1)
        assert rebalance_cost(big) > rebalance_cost(small)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        g = from_edges([(0, 1), (1, 2)], labels={0: 1, 1: 2, 2: 3})
        state = {0: [1, 2], 1: [2]}
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, g, state, metadata={"level": 2})
        loaded_graph, loaded_state, metadata = load_checkpoint(path)
        assert loaded_graph == g
        assert loaded_state == state
        assert metadata == {"level": 2}

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.json")

    def test_unserializable_state_rejected(self, tmp_path):
        g = from_edges([(0, 1)])
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "x.json", g, {0: object()})

    def test_restore_resumes_search(self, tmp_path):
        """Failure injection: interrupt after pruning, restore, finish."""
        from repro.core import (
            ArraySearchState,
            PatternTemplate,
            SearchState,
            generate_constraints,
            generate_prototypes,
            search_prototype,
        )
        from repro.runtime import Engine, MessageStats

        from repro.graph.generators import planted_graph

        edges = [(0, 1), (1, 2), (2, 0)]
        labels = [0, 1, 2]
        g = planted_graph(40, 80, edges, labels, copies=2, seed=9)
        template = PatternTemplate.from_edges(
            edges, {i: l for i, l in enumerate(labels)}, name="tri"
        )
        protos = generate_prototypes(template, 0)
        proto = protos.at(0)[0]

        # Phase 1: prune with LCC only, then checkpoint.
        from repro.core.lcc import local_constraint_checking

        state = SearchState.initial(g, template)
        pg = PartitionedGraph(g, 2)
        engine = Engine(pg, MessageStats(2))
        local_constraint_checking(state, proto.graph, engine)
        ckpt = tmp_path / "resume.json"
        save_checkpoint(
            ckpt,
            state.to_graph(),
            {v: sorted(state.roles(v)) for v in state.active_vertices()},
        )

        # Phase 2: "crash", restore into a fresh state, finish the search.
        pruned_graph, roles, _meta = load_checkpoint(ckpt)
        resumed = SearchState(
            g,
            {v: set(r) for v, r in roles.items()},
            {v: set(pruned_graph.neighbors(v)) for v in pruned_graph.vertices()},
        )
        engine2 = Engine(PartitionedGraph(g, 2), MessageStats(2))
        outcome = search_prototype(
            ArraySearchState.from_search_state(resumed),
            proto,
            generate_constraints(proto.graph),
            engine2,
        )

        # Compare with an uninterrupted run.
        direct_state = SearchState.initial(g, template)
        engine3 = Engine(PartitionedGraph(g, 2), MessageStats(2))
        direct = search_prototype(
            ArraySearchState.from_search_state(direct_state),
            proto, generate_constraints(proto.graph), engine3,
        )
        assert outcome.solution_vertices == direct.solution_vertices
        assert outcome.solution_edges == direct.solution_edges
