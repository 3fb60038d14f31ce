"""Tests for the engine's batched hot paths (broadcast, bulk accounting)."""

from repro.graph import from_edges
from repro.runtime import Engine, MessageStats, PartitionedGraph, Visitor


def pgraph(ranks_per_node=1):
    g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    return PartitionedGraph(
        g, 2, assignment={0: 0, 1: 1, 2: 0, 3: 1}, ranks_per_node=ranks_per_node
    )


class TestBroadcast:
    def test_broadcast_equivalent_to_push(self):
        """broadcast() must produce identical accounting to per-push."""
        def run(use_broadcast):
            pg = pgraph()
            engine = Engine(pg)
            received = []

            def visit(ctx, vis):
                if vis.payload is None:
                    nbrs = pg.graph.neighbors(vis.target)
                    if use_broadcast:
                        ctx.broadcast(vis.target, nbrs, "hello")
                    else:
                        for nbr in nbrs:
                            ctx.push(Visitor(nbr, "hello", source=vis.target))
                else:
                    received.append((vis.target, vis.source, vis.payload))

            engine.do_traversal(
                (Visitor(v) for v in pg.graph.vertices()), visit
            )
            return sorted(received), engine.stats.summary()

        push_events, push_stats = run(False)
        bcast_events, bcast_stats = run(True)
        assert push_events == bcast_events
        assert push_stats == bcast_stats

    def test_broadcast_delegates_stay_local(self):
        g = from_edges([(0, i) for i in range(1, 9)])
        pg = PartitionedGraph(
            g, 2, assignment={v: v % 2 for v in g.vertices()},
            delegate_degree_threshold=5,
        )
        engine = Engine(pg)

        def visit(ctx, vis):
            if vis.payload is None and vis.target != 0:
                ctx.broadcast(vis.target, [0], "to-hub")

        engine.do_traversal((Visitor(v) for v in g.vertices()), visit)
        assert engine.stats.total_remote_messages == 0


class TestBulkRecord:
    def test_matches_per_event_recording(self):
        per_event = MessageStats(3)
        with per_event.phase("p"):
            per_event.record_message(0, 1, False)
            per_event.record_message(0, 1, False)
            per_event.record_message(1, 2, True)
            per_event.record_message(2, 2, False)
            per_event.record_visit(0)
            per_event.record_visit(2)
            per_event.barrier()

        bulk = MessageStats(3)
        matrix = [[0, 2, 0], [0, 0, 1], [0, 0, 1]]
        visits = [1, 0, 1]
        rank_node = [0, 0, 1]  # ranks 0,1 share a node; rank 2 remote
        with bulk.phase("p"):
            # one round: its fold closes the barrier interval
            bulk.record_rounds([matrix], [visits], rank_node)

        assert bulk.summary() == per_event.summary()
        assert bulk.intervals == per_event.intervals
        assert bulk.rank_sent == per_event.rank_sent
        assert bulk.rank_visits == per_event.rank_visits

    def test_empty_matrix_noop(self):
        stats = MessageStats(2)
        stats.record_rounds([[[0, 0], [0, 0]]], [[0, 0]], [0, 1])
        assert stats.total_messages == 0
        assert stats.total_visits == 0
