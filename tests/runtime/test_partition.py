"""Tests for hash/delegate partitioning and the locality model."""

import numpy as np
import pytest

from repro.core.arraystate import csr_of
from repro.errors import PartitionError
from repro.graph import from_edges
from repro.graph.generators import webgraph
from repro.runtime import (
    PartitionedGraph,
    block_assignment,
    hash_assignment,
)
from repro.runtime.partition import degree_packing, graph_degrees, hash_ranks


def balanced_assignment(graph, num_ranks):
    """The reshuffle's largest-degree-first packing of ``graph``."""
    return degree_packing(*graph_degrees(graph), num_ranks)


def star_graph(leaves=8):
    return from_edges([(0, i) for i in range(1, leaves + 1)])


class TestAssignments:
    def test_hash_assignment_covers_all(self):
        g = star_graph()
        assignment = hash_assignment(g.vertices(), 3)
        assert set(assignment) == set(g.vertices())
        assert all(0 <= r < 3 for r in assignment.values())

    def test_hash_assignment_spreads(self):
        assignment = hash_assignment(range(1000), 4)
        counts = [list(assignment.values()).count(r) for r in range(4)]
        assert min(counts) > 150  # roughly even

    def test_hash_zero_ranks_rejected(self):
        with pytest.raises(PartitionError):
            hash_assignment([0], 0)

    def test_block_assignment(self):
        assignment = block_assignment(list(range(10)), 2)
        assert assignment[0] == 0
        assert assignment[9] == 1

    def test_balanced_assignment_balances_degree(self):
        g = webgraph(400, seed=1)
        assignment = balanced_assignment(g, 4)
        pg = PartitionedGraph(g, 4, assignment=assignment)
        assert pg.load_imbalance() < 1.2

    def test_balanced_beats_block_on_skewed_graph(self):
        g = webgraph(400, seed=2)
        block = PartitionedGraph(g, 4, assignment=block_assignment(sorted(g.vertices()), 4))
        balanced = PartitionedGraph(g, 4, assignment=balanced_assignment(g, 4))
        assert balanced.load_imbalance() < block.load_imbalance()


class TestPartitionedGraph:
    def test_default_hash_partitioning(self):
        pg = PartitionedGraph(star_graph(), 2)
        assert pg.num_ranks == 2
        assert all(0 <= pg.rank_of(v) < 2 for v in pg.graph.vertices())

    def test_zero_ranks_rejected(self):
        with pytest.raises(PartitionError):
            PartitionedGraph(star_graph(), 0)

    def test_incomplete_assignment_rejected(self):
        g = star_graph()
        with pytest.raises(PartitionError):
            PartitionedGraph(g, 2, assignment={0: 0})

    def test_out_of_range_assignment_rejected(self):
        g = from_edges([(0, 1)])
        with pytest.raises(PartitionError):
            PartitionedGraph(g, 2, assignment={0: 0, 1: 5})

    def test_rank_of_unknown_vertex(self):
        pg = PartitionedGraph(star_graph(), 2)
        with pytest.raises(PartitionError):
            pg.rank_of(10**9)

    def test_remote_classification(self):
        g = from_edges([(0, 1)])
        pg = PartitionedGraph(g, 2, assignment={0: 0, 1: 1})
        assert pg.is_remote(0, 1)
        assert not pg.is_remote(0, 0)

    def test_vertex_counts(self):
        g = from_edges([(0, 1), (1, 2)])
        pg = PartitionedGraph(g, 2, assignment={0: 0, 1: 0, 2: 1})
        assert pg.rank_vertex_counts() == [2, 1]

    def test_with_assignment(self):
        g = from_edges([(0, 1)])
        pg = PartitionedGraph(g, 2, assignment={0: 0, 1: 0})
        moved = pg.with_assignment({0: 0, 1: 1})
        assert moved.is_remote(0, 1)
        assert not pg.is_remote(0, 1)


class TestDelegates:
    def test_hub_becomes_delegate(self):
        g = star_graph(10)
        pg = PartitionedGraph(g, 4, delegate_degree_threshold=5)
        assert 0 in pg.delegates
        assert 1 not in pg.delegates

    def test_messages_to_delegates_are_local(self):
        g = star_graph(10)
        assignment = {v: v % 4 for v in g.vertices()}
        pg = PartitionedGraph(g, 4, assignment=assignment, delegate_degree_threshold=5)
        # Hub 0 is on rank 0 but any vertex reaches it locally.
        assert not pg.is_remote(1, 0)
        assert not pg.is_remote(2, 0)

    def test_delegate_edges_spread_in_load_model(self):
        g = star_graph(12)
        assignment = {v: 0 for v in g.vertices()}
        with_delegates = PartitionedGraph(
            g, 4, assignment=assignment, delegate_degree_threshold=5
        )
        without = PartitionedGraph(g, 4, assignment=assignment)
        assert with_delegates.load_imbalance() < without.load_imbalance()


class TestLocality:
    def test_node_mapping(self):
        pg = PartitionedGraph(star_graph(), 8, ranks_per_node=4)
        assert pg.num_nodes() == 2
        assert pg.node_of_rank(3) == 0
        assert pg.node_of_rank(4) == 1

    def test_crosses_network(self):
        pg = PartitionedGraph(star_graph(), 8, ranks_per_node=4)
        assert not pg.crosses_network(0, 3)
        assert pg.crosses_network(0, 4)

    def test_one_rank_per_node_all_remote_cross_network(self):
        pg = PartitionedGraph(star_graph(), 4, ranks_per_node=1)
        assert pg.crosses_network(0, 1)

    def test_bad_ranks_per_node(self):
        with pytest.raises(PartitionError):
            PartitionedGraph(star_graph(), 4, ranks_per_node=0)


class TestRankArrays:
    """The array backend's ranks: no dict for a hash partition, same values."""

    #: ids around every width the uint64 multiply-add could get wrong
    IDS = [
        0, 1, 2, 7, -1, -2, -(2**31), 2**31 - 1, 2**32, 2**32 + 5,
        2**40 + 3, -(2**40), 2**62 + 1, 2**63 - 1, -(2**63),
    ]

    def graph(self):
        g = from_edges([(u, v) for u, v in zip(self.IDS, self.IDS[1:])])
        for hub_leaf in self.IDS[2:8]:
            if not g.has_edge(0, hub_leaf):
                g.add_edge(0, hub_leaf)
        return g

    def views(self, graph):
        csr = csr_of(graph)
        keep = np.arange(csr.num_vertices) % 3 != 1
        view = csr.induced_view(keep)
        nested = view.induced_view(np.arange(view.num_vertices) % 2 == 0)
        return csr, view, nested

    def check(self, pgraph, csr):
        rank_of, edge_code = pgraph.rank_arrays(csr)
        order = csr.order.tolist()
        expected = [pgraph.rank_of(v) for v in order]
        assert rank_of.tolist() == expected
        ranks = pgraph.num_ranks
        for e in range(csr.num_directed_edges):
            u, v = order[csr.src[e]], order[csr.indices[e]]
            dst = pgraph.rank_of(u) if v in pgraph.delegates else pgraph.rank_of(v)
            assert edge_code[e] == pgraph.rank_of(u) * ranks + dst

    @pytest.mark.parametrize("ranks", [1, 3, 4, 7, 300])
    def test_hash_ranks_equal_the_dict(self, ranks):
        ids = np.array(self.IDS, dtype=np.int64)
        assignment = hash_assignment(self.IDS, ranks)
        assert hash_ranks(ids, ranks).tolist() == [assignment[v] for v in self.IDS]
        assert hash_ranks(ids[:0], ranks).shape == (0,)

    @pytest.mark.parametrize("threshold", [None, 3])
    def test_hash_partition_builds_no_dict(self, threshold):
        graph = self.graph()
        pgraph = PartitionedGraph(
            graph, 5, delegate_degree_threshold=threshold
        )
        arrays = [pgraph.rank_arrays(csr) for csr in self.views(graph)]
        assert pgraph._assignment is None
        assert bool(pgraph.delegates) == (threshold is not None)
        # reading the dict afterwards materialises the same ranks
        for csr in self.views(graph):
            self.check(pgraph, csr)
        assert pgraph.assignment == hash_assignment(graph.vertices(), 5)
        assert arrays[0][0].tolist() == [
            pgraph.assignment[v] for v in csr_of(graph).order.tolist()
        ]

    @pytest.mark.parametrize("threshold", [None, 3])
    def test_block_and_explicit_assignments_on_views(self, threshold):
        graph = self.graph()
        block = block_assignment(sorted(graph.vertices()), 4)
        pgraph = PartitionedGraph(
            graph, 4, assignment=block, delegate_degree_threshold=threshold
        )
        assert pgraph.assignment is block
        for csr in self.views(graph):
            self.check(pgraph, csr)

    def test_an_engine_leaves_the_dict_alone_until_a_visitor_needs_it(self):
        from repro.runtime import Engine, Visitor

        pgraph = PartitionedGraph(star_graph(), 3)
        engine = Engine(pgraph)
        engine.record_batched_rounds(
            np.zeros((1, 3, 3), dtype=np.int64), np.zeros((1, 3), dtype=np.int64)
        )
        assert pgraph._assignment is None
        engine.do_traversal(
            [Visitor(0, None)],
            lambda ctx, visitor: (
                ctx.broadcast(0, [1, 2], None) if visitor.target == 0 else None
            ),
        )
        assert pgraph._assignment is not None
        assert engine.stats.total_messages == 2
