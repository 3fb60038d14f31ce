"""Classical graph algorithms used by the matching pipeline and generators.

These are the building blocks the paper's system assumes from its substrate:
breadth-first traversal, connectivity tests (prototype generation must keep
prototypes connected), connected components, k-cores (used by the synthetic
dataset generators to shape dense regions) and shortest paths (used when
deriving non-local path constraints).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import GraphError
from .graph import Graph


def bfs_order(graph: Graph, source: int) -> List[int]:
    """Vertices reachable from ``source`` in BFS order (including it)."""
    if source not in graph:
        raise GraphError(f"vertex {source} not in graph")
    seen = {source}
    order = [source]
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for nbr in graph.neighbors(vertex):
            if nbr not in seen:
                seen.add(nbr)
                order.append(nbr)
                queue.append(nbr)
    return order


def is_connected(graph: Graph) -> bool:
    """True for the empty graph and for graphs with one component."""
    if graph.num_vertices == 0:
        return True
    source = next(graph.vertices())
    return len(bfs_order(graph, source)) == graph.num_vertices


def connected_components(graph: Graph) -> List[Set[int]]:
    """All connected components as vertex sets, largest first."""
    remaining = set(graph.vertices())
    components: List[Set[int]] = []
    while remaining:
        source = next(iter(remaining))
        component = set(bfs_order(graph, source))
        components.append(component)
        remaining -= component
    components.sort(key=len, reverse=True)
    return components


def shortest_path_lengths(graph: Graph, source: int) -> Dict[int, int]:
    """Unweighted shortest-path lengths from ``source``."""
    if source not in graph:
        raise GraphError(f"vertex {source} not in graph")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for nbr in graph.neighbors(vertex):
            if nbr not in dist:
                dist[nbr] = dist[vertex] + 1
                queue.append(nbr)
    return dist


def shortest_path(graph: Graph, source: int, target: int) -> Optional[List[int]]:
    """One unweighted shortest path ``source → target``, or ``None``."""
    if source not in graph or target not in graph:
        raise GraphError("endpoints must be in the graph")
    if source == target:
        return [source]
    parent: Dict[int, int] = {source: source}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for nbr in graph.neighbors(vertex):
            if nbr in parent:
                continue
            parent[nbr] = vertex
            if nbr == target:
                path = [target]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(nbr)
    return None


def k_core(graph: Graph, k: int) -> Set[int]:
    """Vertices of the maximal subgraph with minimum degree ``k``."""
    degrees = {v: graph.degree(v) for v in graph.vertices()}
    queue = deque(v for v, d in degrees.items() if d < k)
    removed: Set[int] = set()
    while queue:
        vertex = queue.popleft()
        if vertex in removed:
            continue
        removed.add(vertex)
        for nbr in graph.neighbors(vertex):
            if nbr in removed:
                continue
            degrees[nbr] -= 1
            if degrees[nbr] < k:
                queue.append(nbr)
    return set(degrees) - removed


def triangles_at(graph: Graph, vertex: int) -> int:
    """Number of triangles through ``vertex``."""
    neighbors = graph.neighbors(vertex)
    count = 0
    for u in neighbors:
        count += len(graph.neighbors(u) & neighbors)
    return count // 2


def simple_cycles_upto(graph: Graph, max_length: int) -> List[Tuple[int, ...]]:
    """All simple cycles of length 3..``max_length``, canonically deduped.

    Intended for small template graphs (the paper's templates have at most a
    handful of vertices); complexity is exponential in ``max_length``.

    A cycle is returned as a vertex tuple without repeating the start, as
    its lexicographically least rotation over both directions, so each
    cycle appears exactly once.
    """
    cycles: List[Tuple[int, ...]] = []

    def extend(path: List[int], start: int) -> None:
        # ``start`` is the cycle's least vertex, so its canonical form
        # begins there; of the two directions, the one whose second
        # vertex is the smaller — each cycle is recorded exactly once
        head = path[-1]
        for nbr in graph.neighbors(head):
            if nbr == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif nbr > start and nbr not in path and len(path) < max_length:
                path.append(nbr)
                extend(path, start)
                path.pop()

    for start in sorted(graph.vertices()):
        extend([start], start)
    return sorted(cycles)


def induced_edges(graph: Graph, vertices: Iterable[int]) -> List[Tuple[int, int]]:
    """Canonical edges of the subgraph induced by ``vertices``."""
    keep = set(vertices)
    edges = []
    for v in keep:
        if v not in graph:
            continue
        for w in graph.neighbors(v):
            if w in keep and v < w:
                edges.append((v, w))
    return sorted(edges)
