"""Batched message accounting for the array fixpoint and token walk.

Instead of one Visitor object per edge delivery, each round folds a
rank-by-rank ``np.bincount`` matrix and per-rank visit counts through
:meth:`Engine.record_batched_round`, giving one message per alive edge
out of each re-broadcasting vertex — with ``delta=False`` exactly the
reference rounds' totals.  The Safra termination-detection traffic is
approximated at the minimal two circuits per round, so control-message
counts — and therefore simulated makespans — may differ slightly from
the object path; fixed points never do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...graph.csr import GraphCsr


class _RoundAccounting:
    """Folds one vectorized round's traffic into the engine stats.

    Reads the per-vertex rank and per-edge ``src_rank * ranks + dst_rank``
    code arrays the engine's :class:`PartitionedGraph` builds once per CSR
    (:meth:`~repro.runtime.partition.PartitionedGraph.rank_arrays`); each
    round then costs one gather and one ``np.bincount`` per batch of
    edges instead of one Visitor object per message.  The receiver-side
    visits are the column sums of the rank-by-rank message matrix.
    """

    __slots__ = (
        "engine", "num_ranks", "rank_of", "edge_code", "_matrix", "_visits",
    )

    def __init__(self, engine, csr: GraphCsr) -> None:
        self.engine = engine
        self.num_ranks = engine.pgraph.num_ranks
        self.rank_of, self.edge_code = engine.pgraph.rank_arrays(csr)
        self._matrix = None
        self._visits = None

    def record_round(
        self,
        seed_idx: np.ndarray,
        edge_idx: np.ndarray,
        round_started: Optional[float] = None,
        carried: Optional[np.ndarray] = None,
    ) -> None:
        """Account one broadcast round: seeds visited, one message/edge.

        ``round_started`` (set only while tracing) stamps the per-round
        trace span recorded by :meth:`Engine.record_batched_round`;
        ``carried`` is a flat rank-pair message count (see
        :func:`cut_traffic`) charged in the same flush.
        """
        self.begin()
        self.add_seed_visits(seed_idx)
        self.add_edge_traffic(edge_idx)
        if carried is not None:
            self._matrix += carried
        self.flush(round_started, worklist=int(seed_idx.shape[0]))

    # -------------------------------------------------- multi-hop batches
    def begin(self) -> None:
        """Start accumulating traffic across several hops of one traversal."""
        ranks = self.num_ranks
        self._matrix = np.zeros(ranks * ranks, dtype=np.int64)
        self._visits = np.zeros(ranks, dtype=np.int64)

    def add_seed_visits(self, seed_idx: np.ndarray) -> None:
        """Count one dequeued-visitor visit per seed vertex."""
        self._visits += np.bincount(
            self.rank_of[seed_idx], minlength=self.num_ranks
        )

    def add_edge_traffic(self, edge_idx: np.ndarray) -> None:
        """Count one message (and one receiver visit) per directed edge."""
        ranks = self.num_ranks
        self._matrix += np.bincount(
            self.edge_code[edge_idx], minlength=ranks * ranks
        )

    def add_row_traffic(
        self, row_idx: np.ndarray, edge_idx: np.ndarray, edge_src: np.ndarray
    ) -> None:
        """Count one message per listed edge for every row at its source.

        ``row_idx`` holds one dense vertex index per broadcasting row
        (repeats allowed) and ``edge_src`` the source of each edge of
        ``edge_idx``: an edge is charged once per row sitting at its
        source — what :meth:`add_edge_traffic` would total over the
        rows' expansions, without building them.  The weighted
        ``np.bincount`` sums integers in float64, exact far beyond any
        count a run can reach (2**53).
        """
        ranks = self.num_ranks
        rows_at = np.bincount(row_idx, minlength=self.rank_of.shape[0])
        self._matrix += np.bincount(
            self.edge_code[edge_idx],
            weights=rows_at[edge_src],
            minlength=ranks * ranks,
        ).astype(np.int64)

    def flush(
        self,
        round_started: Optional[float] = None,
        worklist: Optional[int] = None,
    ) -> None:
        """Record the accumulated batch as one traversal's traffic.

        One flush = one quiescence/barrier interval, matching the dict
        NLCC's single :meth:`Engine.do_traversal` per constraint.
        """
        ranks = self.num_ranks
        matrix = self._matrix.reshape(ranks, ranks)
        self.engine.record_batched_round(
            matrix.tolist(),
            (self._visits + matrix.sum(axis=0)).tolist(),
            round_started=round_started,
            worklist=worklist,
        )
        self._matrix = None
        self._visits = None


def cut_traffic(pgraph, csr: GraphCsr, keep: np.ndarray) -> np.ndarray:
    """Flat rank-pair message counts of the edges leaving ``keep``.

    One message along each directed edge of ``csr`` from a ``keep``
    vertex to one outside it, coded as in
    :meth:`~repro.runtime.partition.PartitionedGraph.rank_arrays` but
    for those edges only (``pgraph.edge_codes``), summed into the
    ``ranks * ranks`` layout :meth:`_RoundAccounting.record_round`
    folds in.
    """
    cut = np.nonzero(keep[csr.src] & ~keep[csr.indices])[0]
    order = csr.order
    ranks = pgraph.num_ranks
    codes = pgraph.edge_codes(order[csr.src[cut]], order[csr.indices[cut]])
    return np.bincount(codes, minlength=ranks * ranks)
