"""Distributed graph partitioning (simulated).

HavoqGT distributes graphs across MPI ranks by hashing vertex ids, and uses
*delegate partitioning* [Pearce et al., SC'14] for high-degree vertices: a
hub's edges are spread across all ranks and every rank holds a delegate copy
of the hub, so messages to the hub are rank-local.

This module reproduces both strategies for the in-process simulation.  A
:class:`PartitionedGraph` wraps a :class:`~repro.graph.Graph` with a
vertex → rank assignment plus the delegate set, and a rank → physical-node
mapping used by the locality experiment (Fig. 12): messages between ranks on
the same node are "local" at the network level.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import PartitionError
from ..graph.graph import Graph


class PartitionedGraph:
    """A graph distributed over ``num_ranks`` simulated MPI ranks.

    Parameters
    ----------
    graph:
        The underlying (shared, read-mostly) graph.
    num_ranks:
        Number of simulated MPI processes.
    assignment:
        Explicit vertex → rank map; defaults to hash partitioning, which
        is a pure function of the vertex id — :meth:`rank_arrays`
        computes it vectorised and the ``assignment`` dict exists only
        once something reads it.
    delegate_degree_threshold:
        Vertices with degree at or above this become *delegates*: every rank
        holds a copy, so visitor pushes to them are always rank-local (the
        controller rank remains ``assignment[v]``).  ``None`` disables
        delegates.
    ranks_per_node:
        How many ranks share a physical node (Fig. 12 locality knob).  A
        message between ranks on the same node does not cross the network.
    """

    def __init__(
        self,
        graph: Graph,
        num_ranks: int,
        assignment: Optional[Dict[int, int]] = None,
        delegate_degree_threshold: Optional[int] = None,
        ranks_per_node: int = 1,
    ) -> None:
        if num_ranks <= 0:
            raise PartitionError("num_ranks must be positive")
        if ranks_per_node <= 0:
            raise PartitionError("ranks_per_node must be positive")
        self.graph = graph
        self.num_ranks = num_ranks
        self.ranks_per_node = ranks_per_node
        if assignment is not None:
            bad = [v for v in graph.vertices() if v not in assignment]
            if bad:
                raise PartitionError(f"{len(bad)} vertices missing from assignment")
            out_of_range = [r for r in assignment.values() if not 0 <= r < num_ranks]
            if out_of_range:
                raise PartitionError("assignment contains out-of-range ranks")
        self._assignment = assignment
        if delegate_degree_threshold is None:
            self.delegates: Set[int] = set()
        else:
            self.delegates = {
                v for v in graph.vertices() if graph.degree(v) >= delegate_degree_threshold
            }
        self.delegate_degree_threshold = delegate_degree_threshold
        #: id(csr) -> (csr, rank_of, edge_code); see :meth:`rank_arrays`
        self._rank_arrays: Dict[int, Tuple[Any, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    @property
    def assignment(self) -> Dict[int, int]:
        """The vertex → rank map (a hash partition's is built on first read)."""
        if self._assignment is None:
            self._assignment = hash_assignment(
                self.graph.vertices(), self.num_ranks
            )
        return self._assignment

    def rank_of(self, vertex: int) -> int:
        """Controller rank of ``vertex``."""
        try:
            return self.assignment[vertex]
        except KeyError as exc:
            raise PartitionError(f"vertex {vertex} not assigned") from exc

    def node_of_rank(self, rank: int) -> int:
        """Physical node hosting ``rank``."""
        return rank // self.ranks_per_node

    def num_nodes(self) -> int:
        return (self.num_ranks + self.ranks_per_node - 1) // self.ranks_per_node

    def is_remote(self, src_vertex: int, dst_vertex: int) -> bool:
        """Would a visitor push ``src → dst`` cross rank boundaries?

        Pushes to delegate vertices are always rank-local (every rank holds
        a delegate copy).
        """
        if dst_vertex in self.delegates:
            return False
        return self.rank_of(src_vertex) != self.rank_of(dst_vertex)

    def crosses_network(self, src_rank: int, dst_rank: int) -> bool:
        """Would a rank-to-rank message cross the physical network?"""
        return self.node_of_rank(src_rank) != self.node_of_rank(dst_rank)

    def rank_arrays(self, csr: Any) -> Tuple[np.ndarray, np.ndarray]:
        """``(rank_of, edge_code)`` over ``csr``'s vertex and edge order.

        ``rank_of[i]`` is the controller rank of ``csr.order[i]``;
        ``edge_code[e]`` is ``src_rank * num_ranks + dst_rank`` of directed
        edge ``e``, with pushes to delegates charged to the sender's rank
        as in ``Context.broadcast``.  Both are built once per CSR object
        (an auxiliary view is its own CSR, with its own vertex order) in
        the narrowest unsigned dtype that holds them, and are read by the
        batched accounting of every fixpoint and token walk of the run.
        """
        cached = self._rank_arrays.get(id(csr))
        if cached is not None:
            return cached[1], cached[2]
        ranks = self.num_ranks
        rank_of = self._ranks(csr.order)
        src_rank = rank_of[csr.src]
        dst_rank = rank_of[csr.indices]
        is_delegate = self._delegate_flags(csr.order)
        if is_delegate is not None:
            dst_rank = np.where(is_delegate[csr.indices], src_rank, dst_rank)
        code_dtype = np.min_scalar_type(ranks * ranks - 1)
        if code_dtype.itemsize == 8:
            code_dtype = np.dtype(np.int64)  # np.bincount rejects uint64
        edge_code = (src_rank * ranks + dst_rank).astype(code_dtype)
        rank_of = rank_of.astype(np.min_scalar_type(ranks - 1))
        # the CSR rides along so its id() cannot be reused while cached
        self._rank_arrays[id(csr)] = (csr, rank_of, edge_code)
        return rank_of, edge_code

    def edge_codes(self, src_ids: np.ndarray, dst_ids: np.ndarray) -> np.ndarray:
        """``src_rank * num_ranks + dst_rank`` of the directed edges
        ``src_ids[i] -> dst_ids[i]`` (int64 id arrays), delegates charged
        as in :meth:`rank_arrays` — for a few edges outside any CSR the
        run holds rank arrays of."""
        src_rank = self._ranks(src_ids)
        dst_rank = self._ranks(dst_ids)
        is_delegate = self._delegate_flags(dst_ids)
        if is_delegate is not None:
            dst_rank = np.where(is_delegate, src_rank, dst_rank)
        return src_rank * self.num_ranks + dst_rank

    def _ranks(self, ids: np.ndarray) -> np.ndarray:
        """Controller ranks of the int64 vertex ids ``ids``, as int64."""
        assignment = self._assignment
        if assignment is None:
            return hash_ranks(ids, self.num_ranks)
        return np.fromiter(
            (assignment[v] for v in ids.tolist()),
            dtype=np.int64, count=ids.shape[0],
        )

    def _delegate_flags(self, ids: np.ndarray) -> Optional[np.ndarray]:
        """Which of ``ids`` are delegates (``None`` when there are none)."""
        delegates = self.delegates
        if not delegates:
            return None
        return np.fromiter(
            (v in delegates for v in ids.tolist()),
            dtype=bool, count=ids.shape[0],
        )

    # ------------------------------------------------------------------
    def vertices_of_rank(self, rank: int) -> List[int]:
        return [v for v, r in self.assignment.items() if r == rank and v in self.graph]

    def rank_vertex_counts(self) -> List[int]:
        counts = [0] * self.num_ranks
        for vertex in self.graph.vertices():
            counts[self.assignment[vertex]] += 1
        return counts

    def rank_edge_counts(self) -> List[int]:
        """Per-rank count of edge endpoints owned by each rank.

        Delegate hub edges are spread evenly across ranks, matching the
        delegate-partitioned storage model.
        """
        counts = [0.0] * self.num_ranks
        for vertex in self.graph.vertices():
            degree = self.graph.degree(vertex)
            if vertex in self.delegates:
                share = degree / self.num_ranks
                for rank in range(self.num_ranks):
                    counts[rank] += share
            else:
                counts[self.assignment[vertex]] += degree
        return [int(round(c)) for c in counts]

    def load_imbalance(self) -> float:
        """``max / avg`` edge-endpoint load across ranks (1.0 = perfect)."""
        counts = self.rank_edge_counts()
        total = sum(counts)
        if total == 0:
            return 1.0
        avg = total / self.num_ranks
        return max(counts) / avg if avg else 1.0

    def with_assignment(self, assignment: Dict[int, int]) -> "PartitionedGraph":
        """A new view with a different vertex → rank assignment."""
        return PartitionedGraph(
            self.graph,
            self.num_ranks,
            assignment=assignment,
            delegate_degree_threshold=self.delegate_degree_threshold,
            ranks_per_node=self.ranks_per_node,
        )

    def __repr__(self) -> str:
        return (
            f"PartitionedGraph(n={self.graph.num_vertices}, ranks={self.num_ranks}, "
            f"delegates={len(self.delegates)}, nodes={self.num_nodes()})"
        )


#: the multiplicative hash of :func:`hash_assignment` / :func:`hash_ranks`
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_HASH_INCREMENT = 0x7F4A7C15


def hash_assignment(vertices: Iterable[int], num_ranks: int) -> Dict[int, int]:
    """HavoqGT-style hash partitioning: rank = hash(vertex) mod ranks.

    A multiplicative hash decorrelates rank from vertex id (consecutive ids
    produced by generators would otherwise stripe perfectly).
    """
    if num_ranks <= 0:
        raise PartitionError("num_ranks must be positive")
    mask = (1 << 64) - 1
    return {
        v: ((v * _HASH_MULTIPLIER + _HASH_INCREMENT) & mask) % num_ranks
        for v in vertices
    }


def hash_ranks(vertex_ids: np.ndarray, num_ranks: int) -> np.ndarray:
    """:func:`hash_assignment` over an int64 id array, as int64 ranks.

    The ids are reinterpreted as ``uint64`` (two's complement, so a
    negative id reads as ``id mod 2**64``) and the multiply-add wraps
    modulo ``2**64`` — exactly the dict version's ``& mask``.
    """
    hashed = vertex_ids.view(np.uint64) * np.uint64(_HASH_MULTIPLIER)
    hashed += np.uint64(_HASH_INCREMENT)
    return (hashed % np.uint64(num_ranks)).astype(np.int64)


def block_assignment(vertices: Sequence[int], num_ranks: int) -> Dict[int, int]:
    """Contiguous block partitioning (poor balance on skewed graphs)."""
    if num_ranks <= 0:
        raise PartitionError("num_ranks must be positive")
    vertices = list(vertices)
    block = max(1, (len(vertices) + num_ranks - 1) // num_ranks)
    return {v: min(i // block, num_ranks - 1) for i, v in enumerate(vertices)}


def graph_degrees(graph: Graph) -> Tuple[List[int], List[int]]:
    """``graph``'s vertices in iteration order and their degrees."""
    vertices = list(graph.vertices())
    return vertices, [graph.degree(v) for v in vertices]


def degree_packing(
    vertices: Sequence[int], degrees: Sequence[int], num_ranks: int
) -> Dict[int, int]:
    """Largest-degree-first bin packing of ``vertices`` onto ranks.

    ``degrees[i]`` is the degree of ``vertices[i]``; ties keep the order
    of ``vertices``.  Each vertex goes to the least-loaded rank and adds
    its degree plus one to that rank's load.
    """
    if num_ranks <= 0:
        raise PartitionError("num_ranks must be positive")
    loads = [0] * num_ranks
    assignment: Dict[int, int] = {}
    for i in sorted(range(len(vertices)), key=degrees.__getitem__, reverse=True):
        rank = loads.index(min(loads))
        assignment[vertices[i]] = rank
        loads[rank] += degrees[i] + 1
    return assignment
