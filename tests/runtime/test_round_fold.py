"""One fold per traversal: ``T`` array rounds charged in one engine call.

:meth:`Engine.record_batched_rounds` folds a stack of rounds at once, and
:meth:`MessageStats.record_rounds` closes one barrier interval per round.
Folding ``T`` rounds at once must leave the engine exactly as ``T``
single-round folds do, and as per-event recording with a barrier after
each round does.  The array fixpoint folds its rounds when it ends — also
when a round raises, so the rounds that ran are still charged.
"""

import numpy as np
import pytest

import repro.core.arraystate.fixpoint as fixpoint_module
from repro.core import (
    ArraySearchState, PatternTemplate, array_kernel_fixpoint, compile_kernel,
)
from repro.graph import from_edges
from repro.graph.graph import Graph
from repro.runtime import Engine, MessageStats, PartitionedGraph

RANKS = 4


def pgraph():
    """Four ranks on two nodes, so remote and network counts differ."""
    graph = from_edges([(v, (v + 1) % 8) for v in range(8)])
    return PartitionedGraph(
        graph, RANKS, assignment={v: v % RANKS for v in range(8)},
        ranks_per_node=2,
    )


def random_rounds(seed, rounds=5):
    rng = np.random.default_rng(seed)
    matrices = rng.integers(0, 6, size=(rounds, RANKS, RANKS))
    matrices[rng.random(matrices.shape) < 0.4] = 0
    matrices[1] = 0  # a silent round still closes its interval
    visits = rng.integers(0, 9, size=(rounds, RANKS))
    return matrices.astype(np.int64), visits.astype(np.int64)


def leftover(stats):
    """Per-event counts no barrier closes before the fold."""
    with stats.phase("lcc"):
        stats.record_message(0, 3, True)
        stats.record_message(2, 3, False)
        stats.record_visit(1)


def state_of(engine):
    stats = engine.stats
    return {
        "summary": stats.summary(),
        "network": {
            name: counters.network_messages
            for name, counters in stats.phases.items()
        },
        "barriers": {
            name: counters.barriers for name, counters in stats.phases.items()
        },
        "rank_visits": list(stats.rank_visits),
        "rank_sent": list(stats.rank_sent),
        "rank_remote_sent": list(stats.rank_remote_sent),
        "intervals": list(stats.intervals),
        "control_messages": stats.control_messages,
        "detection_circuits": stats.detection_circuits,
        "rounds_batched": engine.metrics.counter("engine.rounds_batched").value,
    }


class TestFoldEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_fold_equals_single_round_folds(self, seed):
        matrices, visits = random_rounds(seed)
        at_once, one_by_one = Engine(pgraph()), Engine(pgraph())
        for engine in (at_once, one_by_one):
            leftover(engine.stats)
        with at_once.phase("lcc"):
            at_once.record_batched_rounds(matrices, visits)
        with one_by_one.phase("lcc"):
            for t in range(matrices.shape[0]):
                one_by_one.record_batched_rounds(
                    matrices[t:t + 1], visits[t:t + 1]
                )
        assert state_of(at_once) == state_of(one_by_one)
        assert state_of(at_once)["rounds_batched"] == matrices.shape[0]

    @pytest.mark.parametrize("seed", range(6))
    def test_one_fold_equals_per_event_rounds(self, seed):
        matrices, visits = random_rounds(seed)
        folded = Engine(pgraph())
        leftover(folded.stats)
        with folded.phase("lcc"):
            folded.record_batched_rounds(matrices, visits)

        per_event = MessageStats(RANKS)
        leftover(per_event)
        rank_node = folded._rank_node.tolist()
        with per_event.phase("lcc"):
            for matrix, visit in zip(matrices.tolist(), visits.tolist()):
                for src, row in enumerate(matrix):
                    for dst, count in enumerate(row):
                        for _ in range(count):
                            per_event.record_message(
                                src, dst, rank_node[src] != rank_node[dst]
                            )
                for rank, count in enumerate(visit):
                    for _ in range(count):
                        per_event.record_visit(rank)
                per_event.record_quiescence(2 * RANKS, 2)
                per_event.barrier()

        expected = state_of(folded)
        expected.pop("rounds_batched")
        reference = Engine(pgraph(), stats=per_event)
        observed = state_of(reference)
        observed.pop("rounds_batched")
        assert expected == observed

    def test_leftover_counts_go_to_the_first_round(self):
        stats = MessageStats(RANKS)
        leftover(stats)
        zeros = np.zeros((3, RANKS, RANKS), dtype=np.int64)
        stats.record_rounds(zeros, np.zeros((3, RANKS), dtype=np.int64),
                            [0, 0, 1, 1])
        assert stats.intervals == [(1, 1, 1, 1), (0, 0, 0, 0), (0, 0, 0, 0)]
        assert stats.total_barriers == 3

    def test_no_rounds_is_a_no_op(self):
        engine = Engine(pgraph())
        engine.record_batched_rounds(
            np.zeros((0, RANKS, RANKS), dtype=np.int64),
            np.zeros((0, RANKS), dtype=np.int64),
        )
        assert engine.stats.intervals == []
        assert engine.stats.total_barriers == 0
        assert engine.stats.control_messages == 0


def peeling_case(length=12):
    """An open label path 0-1-2-3-0-...: LCC against the labelled C4 peels
    it from both ends, one vertex a round."""
    graph = Graph()
    for v in range(length):
        graph.add_vertex(v, v % 4)
    for v in range(length - 1):
        graph.add_edge(v, v + 1)
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 0, 1: 1, 2: 2, 3: 3}
    )
    return graph, template


def recording_engine(graph):
    """An engine that also keeps every round it folds, as (matrix, visits)."""
    engine = Engine(PartitionedGraph(graph, 3), MessageStats(3))
    engine.folded = []
    record = engine.record_batched_rounds

    def recording(matrices, visits, *args, **kwargs):
        engine.folded.extend(zip(matrices.tolist(), visits.tolist()))
        record(matrices, visits, *args, **kwargs)

    engine.record_batched_rounds = recording
    return engine


def run_lcc(engine, graph, template):
    astate = ArraySearchState.initial(graph, template)
    with engine.phase("lcc"):
        return array_kernel_fixpoint(
            astate, compile_kernel(template.graph), engine
        )


class TestInterruptedFixpoint:
    def test_rounds_before_a_failure_are_charged(self, monkeypatch):
        graph, template = peeling_case()
        complete = recording_engine(graph)
        assert run_lcc(complete, graph, template) > 3

        calls = []
        segment_or = fixpoint_module._segment_or

        def failing(contrib, csr):
            calls.append(csr)  # one witness fold per round
            if len(calls) == 3:
                raise RuntimeError("round 3 interrupted")
            return segment_or(contrib, csr)

        monkeypatch.setattr(fixpoint_module, "_segment_or", failing)
        engine = recording_engine(graph)
        with pytest.raises(RuntimeError, match="round 3 interrupted"):
            run_lcc(engine, graph, template)

        assert engine.folded == complete.folded[:2]
        assert engine.stats.total_barriers == 2
        assert engine.stats.intervals == complete.stats.intervals[:2]
        assert engine.stats.detection_circuits == 2 * 2
        metrics = engine.metrics
        assert metrics.counter("engine.rounds_batched").value == 2
        assert (
            metrics.counter("fixpoint.rounds_dense").value
            + metrics.counter("fixpoint.rounds_sparse").value
        ) == 2
        assert metrics.histogram("fixpoint.worklist_size").count == 2
