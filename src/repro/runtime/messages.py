"""Message and work accounting for the simulated distributed runtime.

The paper's §5.7 analysis reports total message counts, the fraction of
remote messages, and the fraction generated by each pipeline phase.  The
engine records every visitor push here, tagged with the current *phase*
(e.g. ``"max_candidate_set"``, ``"lcc"``, ``"nlcc"``) so benchmarks can
regenerate those tables exactly.

Per-rank work counters feed the :class:`CostModel`, which converts a
sequentially simulated run into a *simulated makespan*: the slowest rank's
work plus its communication cost.  Strong/weak-scaling figures report this
makespan — wall-clock of the sequential simulation would hide parallelism.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class PhaseCounters:
    """Counters for one named pipeline phase."""

    __slots__ = ("messages", "remote_messages", "network_messages", "visits", "barriers")

    def __init__(self) -> None:
        self.messages = 0
        self.remote_messages = 0
        self.network_messages = 0
        self.visits = 0
        self.barriers = 0

    def merged_with(self, other: "PhaseCounters") -> "PhaseCounters":
        merged = PhaseCounters()
        merged.messages = self.messages + other.messages
        merged.remote_messages = self.remote_messages + other.remote_messages
        merged.network_messages = self.network_messages + other.network_messages
        merged.visits = self.visits + other.visits
        merged.barriers = self.barriers + other.barriers
        return merged


class MessageStats:
    """Cluster-wide and per-rank accounting of one pipeline execution."""

    def __init__(self, num_ranks: int) -> None:
        self.num_ranks = num_ranks
        self.phases: Dict[str, PhaseCounters] = {}
        self._phase_stack: List[str] = ["default"]
        self._current: Optional[PhaseCounters] = None
        # Per-rank totals across all phases.
        self.rank_visits: List[int] = [0] * num_ranks
        self.rank_sent: List[int] = [0] * num_ranks
        self.rank_remote_sent: List[int] = [0] * num_ranks
        # Per-rank counters within the current barrier interval (reset by
        # `barrier()`); the cost model uses the *max* over ranks per interval.
        self._interval_visits: List[int] = [0] * num_ranks
        self._interval_sent: List[int] = [0] * num_ranks
        self._interval_remote: List[int] = [0] * num_ranks
        self._interval_network: List[int] = [0] * num_ranks
        #: accumulated per-interval maxima:
        #: list of (max_visits, max_sent, max_remote, max_network)
        self.intervals: List[tuple] = []
        #: quiescence-detection control messages (ring hops), per traversal
        self.control_messages = 0
        #: token circuits the detection protocol needed, total
        self.detection_circuits = 0

    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1]

    def _counters(self) -> PhaseCounters:
        counters = self._current
        if counters is None:
            phase = self._phase_stack[-1]
            counters = self.phases.get(phase)
            if counters is None:
                counters = PhaseCounters()
                self.phases[phase] = counters
            self._current = counters
        return counters

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all accounting inside the block to phase ``name``."""
        self._phase_stack.append(name)
        self._current = None
        try:
            yield
        finally:
            self._phase_stack.pop()
            self._current = None

    # ------------------------------------------------------------------
    def record_message(self, src_rank: int, dst_rank: int, crosses_network: bool) -> None:
        counters = self._current
        if counters is None:
            counters = self._counters()
        counters.messages += 1
        self.rank_sent[src_rank] += 1
        self._interval_sent[src_rank] += 1
        if src_rank != dst_rank:
            counters.remote_messages += 1
            self.rank_remote_sent[src_rank] += 1
            self._interval_remote[src_rank] += 1
        if crosses_network:
            counters.network_messages += 1
            self._interval_network[src_rank] += 1

    def bulk_record(
        self,
        matrix,
        visits,
        rank_node,
    ) -> None:
        """Fold a per-traversal rank-by-rank message matrix into the stats.

        ``matrix[src][dst]`` counts visitor pushes, ``visits[rank]`` counts
        processed visitors, ``rank_node[r]`` maps ranks to physical nodes.
        Produces byte-identical accounting to per-event ``record_message``/
        ``record_visit`` calls within one phase — the engine uses this to
        keep the per-push hot path to a single integer increment.
        """
        counters = self._counters()
        for src, row in enumerate(matrix):
            src_node = rank_node[src]
            row_total = 0
            row_remote = 0
            row_network = 0
            for dst, count in enumerate(row):
                if not count:
                    continue
                row_total += count
                if dst != src:
                    row_remote += count
                    if rank_node[dst] != src_node:
                        row_network += count
            if not row_total:
                continue
            counters.messages += row_total
            counters.remote_messages += row_remote
            counters.network_messages += row_network
            self.rank_sent[src] += row_total
            self.rank_remote_sent[src] += row_remote
            self._interval_sent[src] += row_total
            self._interval_remote[src] += row_remote
            self._interval_network[src] += row_network
        for rank, count in enumerate(visits):
            if count:
                counters.visits += count
                self.rank_visits[rank] += count
                self._interval_visits[rank] += count

    def record_visit(self, rank: int) -> None:
        counters = self._current
        if counters is None:
            counters = self._counters()
        counters.visits += 1
        self.rank_visits[rank] += 1
        self._interval_visits[rank] += 1

    def record_quiescence(self, control_messages: int, circuits: int) -> None:
        """Account one traversal's termination-detection control traffic."""
        self.control_messages += control_messages
        self.detection_circuits += circuits

    def barrier(self) -> None:
        """Close the current barrier interval (one `do_traversal` round)."""
        self._counters().barriers += 1
        self.intervals.append(
            (
                max(self._interval_visits) if self._interval_visits else 0,
                max(self._interval_sent) if self._interval_sent else 0,
                max(self._interval_remote) if self._interval_remote else 0,
                max(self._interval_network) if self._interval_network else 0,
            )
        )
        self._interval_visits = [0] * self.num_ranks
        self._interval_sent = [0] * self.num_ranks
        self._interval_remote = [0] * self.num_ranks
        self._interval_network = [0] * self.num_ranks

    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        return sum(c.messages for c in self.phases.values())

    @property
    def total_remote_messages(self) -> int:
        return sum(c.remote_messages for c in self.phases.values())

    @property
    def total_visits(self) -> int:
        return sum(c.visits for c in self.phases.values())

    @property
    def total_barriers(self) -> int:
        return sum(c.barriers for c in self.phases.values())

    def traffic(self) -> Dict[str, int]:
        """Totals so far: messages, remote messages, visits, supersteps."""
        return {
            "messages": self.total_messages,
            "remote_messages": self.total_remote_messages,
            "visits": self.total_visits,
            "supersteps": self.total_barriers,
        }

    def remote_fraction(self) -> float:
        total = self.total_messages
        return self.total_remote_messages / total if total else 0.0

    def phase_fraction(self, name: str) -> float:
        """Fraction of all messages attributed to phase ``name``."""
        total = self.total_messages
        if not total:
            return 0.0
        counters = self.phases.get(name)
        return counters.messages / total if counters else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "total_messages": self.total_messages,
            "remote_messages": self.total_remote_messages,
            "remote_fraction": self.remote_fraction(),
            "total_visits": self.total_visits,
            "barriers": self.total_barriers,
            "control_messages": self.control_messages,
            "detection_circuits": self.detection_circuits,
            "phases": {
                name: {
                    "messages": counters.messages,
                    "remote_messages": counters.remote_messages,
                    "visits": counters.visits,
                }
                for name, counters in self.phases.items()
            },
        }


class CostModel:
    """Converts recorded counters into a simulated parallel makespan.

    Simulated seconds are an affine model over per-barrier-interval maxima:

    ``time = Σ_intervals (visit_cost·max_visits + local_msg_cost·max_sent
    + remote_msg_cost·max_remote) + barrier_cost·#intervals``

    The per-interval max over ranks is exactly the critical-path rank of a
    BSP superstep; the asynchronous engine approximates it the same way at
    quiescence boundaries.  Default constants are calibrated so small runs
    land in a plausible seconds range; only *ratios* matter for the
    reproduced figures.
    """

    def __init__(
        self,
        visit_cost: float = 1.0e-6,
        local_message_cost: float = 0.2e-6,
        shared_memory_message_cost: float = 0.6e-6,
        network_message_cost: float = 2.0e-6,
        barrier_cost: float = 1.0e-4,
        oversubscription: float = 1.0,
    ) -> None:
        self.visit_cost = visit_cost
        self.local_message_cost = local_message_cost
        self.shared_memory_message_cost = shared_memory_message_cost
        self.network_message_cost = network_message_cost
        self.barrier_cost = barrier_cost
        #: >1 when more ranks share a core than physically exist (Fig. 12's
        #: 48-processes-on-36-cores configuration); scales compute cost.
        self.oversubscription = oversubscription

    def _interval_cost(self, interval: tuple) -> float:
        max_visits, max_sent, max_remote, max_network = interval
        same_rank = max(max_sent - max_remote, 0)
        same_node = max(max_remote - max_network, 0)
        # Oversubscription slows everything the node does -- compute and
        # message handling alike (cores are time-shared).
        return self.oversubscription * (
            self.visit_cost * max_visits
            + self.local_message_cost * same_rank
            + self.shared_memory_message_cost * same_node
            + self.network_message_cost * max_network
        )

    def makespan(self, stats: MessageStats) -> float:
        """Simulated execution time in seconds for a recorded run."""
        total = sum(self._interval_cost(iv) for iv in stats.intervals)
        total += self.barrier_cost * len(stats.intervals)
        # Termination detection is a serialized token ring: every control
        # hop crosses rank boundaries in sequence.
        total += self.network_message_cost * stats.control_messages
        return total

    def makespan_between(
        self, stats: MessageStats, start_interval: int, end_interval: Optional[int] = None
    ) -> float:
        """Makespan restricted to interval indices ``[start, end)``."""
        end = len(stats.intervals) if end_interval is None else end_interval
        total = sum(
            self._interval_cost(iv) for iv in stats.intervals[start_interval:end]
        )
        return total + self.barrier_cost * (end - start_interval)
