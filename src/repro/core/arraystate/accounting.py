"""Batched message accounting for the array fixpoint and token walk.

Instead of one Visitor object per edge delivery, each round is one
rank-by-rank ``np.bincount`` matrix plus per-rank visit counts, giving
one message per alive edge out of each re-broadcasting vertex — with
``delta=False`` exactly the reference rounds' totals.  A traversal keeps
its rounds' rows and folds them once, when it ends, through
:meth:`Engine.record_batched_rounds`: one fold per fixpoint call, one
per token walk.  The Safra termination-detection traffic is approximated
at the minimal two circuits per round, so control-message counts — and
therefore simulated makespans — may differ slightly from the object
path; fixed points never do.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from ...graph.csr import GraphCsr


class _RoundAccounting:
    """Collects one traversal's rounds and folds them into the engine.

    Reads the per-vertex rank and per-edge ``src_rank * ranks + dst_rank``
    code arrays the engine's :class:`PartitionedGraph` builds once per CSR
    (:meth:`~repro.runtime.partition.PartitionedGraph.rank_arrays`); a
    round then costs one gather and one ``np.bincount`` per batch of
    edges instead of one Visitor object per message.  Only each round's
    ``ranks**2`` message counts and ``ranks`` seed visits are kept, never
    its index arrays; the receiver-side visits are the column sums of the
    message matrix, added at the fold.
    """

    __slots__ = (
        "engine", "num_ranks", "rank_of", "edge_code", "_matrix", "_visits",
        "_matrices", "_seed_visits", "_spans",
    )

    def __init__(self, engine, csr: GraphCsr) -> None:
        self.engine = engine
        self.num_ranks = engine.pgraph.num_ranks
        self.rank_of, self.edge_code = engine.pgraph.rank_arrays(csr)
        self._matrix = None
        self._visits = None
        #: per closed round: flat message counts and seed visits
        self._matrices: List[np.ndarray] = []
        self._seed_visits: List[np.ndarray] = []
        #: per closed round, while tracing: (started, ended, worklist)
        self._spans: List[Tuple[float, float, int]] = []

    def record_round(
        self,
        seed_idx: np.ndarray,
        edge_idx: np.ndarray,
        round_started: Optional[float] = None,
        carried: Optional[np.ndarray] = None,
    ) -> None:
        """Keep one broadcast round: seeds visited, one message per edge.

        ``round_started`` (set only while tracing) stamps the round's
        trace span; ``carried`` is a flat rank-pair message count (see
        :func:`cut_traffic`) charged with the round.
        """
        ranks = self.num_ranks
        matrix = np.bincount(self.edge_code[edge_idx], minlength=ranks * ranks)
        if carried is not None:
            matrix += carried
        self._close(
            matrix,
            np.bincount(self.rank_of[seed_idx], minlength=ranks),
            round_started, int(seed_idx.shape[0]),
        )

    # -------------------------------------------------- multi-hop batches
    def begin(self) -> None:
        """Open one round that accumulates several hops of one traversal."""
        ranks = self.num_ranks
        self._matrix = np.zeros(ranks * ranks, dtype=np.int64)
        self._visits = np.zeros(ranks, dtype=np.int64)

    def add_seed_visits(self, seed_idx: np.ndarray) -> None:
        """Count one dequeued-visitor visit per seed vertex."""
        self._visits += np.bincount(
            self.rank_of[seed_idx], minlength=self.num_ranks
        )

    def add_row_traffic(
        self, row_idx: np.ndarray, edge_idx: np.ndarray, edge_src: np.ndarray
    ) -> None:
        """Count one message per listed edge for every row at its source.

        ``row_idx`` holds one dense vertex index per broadcasting row
        (repeats allowed) and ``edge_src`` the source of each edge of
        ``edge_idx``: an edge is charged once per row sitting at its
        source — what one message per expanded row would total, without
        building the expansions.  The weighted ``np.bincount`` sums
        integers in float64, exact far beyond any count a run can reach
        (2**53).
        """
        ranks = self.num_ranks
        rows_at = np.bincount(row_idx, minlength=self.rank_of.shape[0])
        self._matrix += np.bincount(
            self.edge_code[edge_idx],
            weights=rows_at[edge_src],
            minlength=ranks * ranks,
        ).astype(np.int64)

    def end(self, round_started: Optional[float], worklist: int) -> None:
        """Close the round :meth:`begin` opened."""
        self._close(self._matrix, self._visits, round_started, worklist)
        self._matrix = None
        self._visits = None

    def _close(
        self,
        matrix: np.ndarray,
        seed_visits: np.ndarray,
        round_started: Optional[float],
        worklist: int,
    ) -> None:
        self._matrices.append(matrix)
        self._seed_visits.append(seed_visits)
        if round_started is not None:
            self._spans.append((round_started, time.perf_counter(), worklist))

    def flush(self) -> None:
        """Fold every closed round into the engine, in one call.

        Each round is one quiescence/barrier interval, as each reference
        round (and the dict NLCC's single :meth:`Engine.do_traversal` per
        constraint) is.  A no-op when no round closed.
        """
        if not self._matrices:
            return
        ranks = self.num_ranks
        matrices = np.array(self._matrices).reshape(-1, ranks, ranks)
        visits = np.array(self._seed_visits) + matrices.sum(axis=1)
        spans = self._spans
        self._matrices = []
        self._seed_visits = []
        self._spans = []
        self.engine.record_batched_rounds(matrices, visits, spans=spans)


def cut_traffic(pgraph, cut_src: np.ndarray, cut_dst: np.ndarray) -> np.ndarray:
    """Flat rank-pair message counts of one message along each directed
    edge ``cut_src[i] -> cut_dst[i]`` (vertex ids: the edges a label view
    cuts, :class:`~repro.graph.csr.LabelView`), coded as in
    :meth:`~repro.runtime.partition.PartitionedGraph.rank_arrays` through
    ``pgraph.edge_codes`` and summed into the ``ranks * ranks`` layout
    :meth:`_RoundAccounting.record_round` charges.  Charged per run from
    the ids: ranks, assignment and delegates are the run's own.
    """
    ranks = pgraph.num_ranks
    codes = pgraph.edge_codes(cut_src, cut_dst)
    return np.bincount(codes, minlength=ranks * ranks)
