"""Constraint generation: the template as a set of checks (§3, Fig. 2).

A template prescribes, for every vertex and edge of a match:

* **Local constraints** — a matched vertex must have active neighbors whose
  labels cover the adjacency structure of its template vertex.  These drive
  :mod:`~repro.core.lcc`.
* **Non-local constraints** — directed *closed walks* in the template that
  a matched vertex must be able to reproduce in the background graph with
  consistent vertex identities.  Three kinds, as in Fig. 2:

  - ``CC`` cycle constraints: one walk around each simple cycle, generated
    rooted at every cycle vertex so each role is checked directly;
  - ``PC`` path constraints: for each pair of same-labeled template
    vertices, walk to the twin and back — verifies a *distinct* twin exists;
  - ``TDS`` template-driven search constraints: walks combining cycles that
    share edges (required for non-edge-monocyclic templates), and, as the
    final aggregate check, a *full walk* that covers every template edge —
    a token completing the full walk with all identity checks satisfied
    has, by construction, traced an exact match, which is what makes the
    pipeline's 100% precision guarantee unconditional.

Constraints carry a structural identity ``key`` — equal keys mean "the same
check" even when generated from different prototypes, enabling the
cross-prototype work recycling of Obs. 2 (Fig. 3(b)).
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import ConstraintError
from ..graph.algorithms import shortest_path, simple_cycles_upto
from ..graph.graph import Graph, canonical_edge

LOCAL_KIND = "local"
CYCLE_KIND = "cycle"
PATH_KIND = "path"
TDS_KIND = "tds"
FULL_WALK_KIND = "tds_full"


class LocalConstraint:
    """Adjacency requirement of one template vertex."""

    __slots__ = ("vertex", "label", "neighbor_labels")

    def __init__(self, vertex: int, label: int, neighbor_labels: Tuple[int, ...]) -> None:
        self.vertex = vertex
        self.label = label
        #: sorted multiset of labels required among the vertex's neighbors
        self.neighbor_labels = neighbor_labels

    def __repr__(self) -> str:
        return (
            f"LocalConstraint(vertex={self.vertex}, label={self.label}, "
            f"neighbors={self.neighbor_labels})"
        )


class NonLocalConstraint:
    """A closed identity-checked walk in the template.

    ``walk`` is a tuple of template vertices with ``walk[0] == walk[-1]``.
    A token reproducing the walk in the background graph must map equal
    template vertices to equal graph vertices and distinct template
    vertices to distinct graph vertices (checked incrementally hop by hop).
    """

    __slots__ = ("kind", "walk", "labels", "key", "proto_graph")

    def __init__(
        self,
        kind: str,
        walk: Sequence[int],
        labels: Sequence[int],
        proto_graph: "Graph | None" = None,
    ) -> None:
        if len(walk) < 3:
            raise ConstraintError("a closed walk needs at least three entries")
        if walk[0] != walk[-1]:
            raise ConstraintError("non-local constraint walks must be closed")
        self.kind = kind
        self.walk = tuple(walk)
        self.labels = tuple(labels)
        #: source prototype graph; consulted by NLCC for edge labels
        self.proto_graph = proto_graph
        key_edge_labels: Tuple[int, ...] = ()
        if proto_graph is not None and proto_graph.has_edge_labels:
            # -1 encodes "no edge label" so keys stay totally orderable.
            hops = (
                proto_graph.edge_label(walk[h - 1], walk[h])
                for h in range(1, len(walk))
            )
            key_edge_labels = tuple(-1 if lab is None else lab for lab in hops)
        self.key = (kind, self.labels, _identity_pattern(self.walk), key_edge_labels)

    @property
    def length(self) -> int:
        """Number of hops a token takes."""
        return len(self.walk) - 1

    @property
    def source(self) -> int:
        """Template vertex whose candidates initiate tokens."""
        return self.walk[0]

    def __repr__(self) -> str:
        return f"NonLocalConstraint({self.kind}, walk={self.walk})"


def _identity_pattern(walk: Sequence[int]) -> Tuple[int, ...]:
    """First-occurrence pattern of the walk (identity structure).

    ``(a, b, c, a)`` and ``(x, y, z, x)`` produce the same pattern
    ``(0, 1, 2, 0)`` — the check they describe is identical whenever the
    label sequences also agree.
    """
    first: Dict[int, int] = {}
    pattern = []
    for vertex in walk:
        if vertex not in first:
            first[vertex] = len(first)
        pattern.append(first[vertex])
    return tuple(pattern)


# ----------------------------------------------------------------------
# Local constraints
# ----------------------------------------------------------------------
def local_constraints(proto_graph: Graph) -> List[LocalConstraint]:
    """One :class:`LocalConstraint` per template vertex of a prototype."""
    constraints = []
    for vertex in sorted(proto_graph.vertices()):
        neighbor_labels = tuple(
            sorted(proto_graph.label(u) for u in proto_graph.neighbors(vertex))
        )
        constraints.append(
            LocalConstraint(vertex, proto_graph.label(vertex), neighbor_labels)
        )
    return constraints


# ----------------------------------------------------------------------
# Non-local constraints
# ----------------------------------------------------------------------
#: a prototype's simple cycles, enumerated once per constraint build
Cycles = Sequence[Sequence[int]]
#: background label frequencies to orient walks by; ``None`` leaves them as built
Frequencies = Optional[Dict[int, int]]


def reverse_visits_rarer_first(
    labels: Sequence[int], label_frequencies: Dict[int, int]
) -> bool:
    """Whether a closed walk's reverse meets rarer labels earlier (§5.4):
    lexicographic over the frequencies after the root, ties keep direction."""
    freqs = [label_frequencies.get(label, 0) for label in labels]
    return freqs[-2::-1] < freqs[1:]


def _constraint(
    proto_graph: Graph, kind: str, walk: List[int], orient_by: Frequencies
) -> NonLocalConstraint:
    """One constraint for a closed walk, turned rare-labels-first *before*
    it is constructed, so none is built and keyed twice."""
    labels = [proto_graph.label(x) for x in walk]
    if orient_by and reverse_visits_rarer_first(labels, orient_by):
        walk, labels = walk[::-1], labels[::-1]
    return NonLocalConstraint(kind, walk, labels, proto_graph)


def _constraints(
    proto_graph: Graph, kind: str, walks: Iterable[List[int]], orient_by: Frequencies
) -> List[NonLocalConstraint]:
    return [_constraint(proto_graph, kind, walk, orient_by) for walk in walks]


def simple_cycles(proto_graph: Graph) -> List[Tuple[int, ...]]:
    return simple_cycles_upto(proto_graph, proto_graph.num_vertices)


def _cycle_walks(cycles: Cycles) -> Iterator[List[int]]:
    """Each simple cycle, rooted at every cycle vertex."""
    return (_rotate_closed(cycle, start) for cycle in cycles for start in cycle)


def _path_walks(proto_graph: Graph) -> Iterator[List[int]]:
    """Out to a same-labeled twin and back, rooted at either endpoint."""
    by_label: Dict[int, List[int]] = {}
    for vertex in sorted(proto_graph.vertices()):
        by_label.setdefault(proto_graph.label(vertex), []).append(vertex)
    for vertices in by_label.values():
        for i, u in enumerate(vertices):
            for w in vertices[i + 1 :]:
                path = shortest_path(proto_graph, u, w)
                if path is None:  # pragma: no cover - prototypes are connected
                    continue
                for rooted in (path, path[::-1]):  # root at u and at w
                    yield rooted + rooted[-2::-1]


def _tds_walks(cycles: Cycles) -> Iterator[List[int]]:
    """Around the first cycle and then the second, per edge-sharing pair,
    from the pair's least shared edge."""
    edge_sets = [_cycle_edges(cycle) for cycle in cycles]
    for i, first in enumerate(cycles):
        for j in range(i + 1, len(cycles)):
            shared = edge_sets[i] & edge_sets[j]
            if shared:
                u = min(shared)[0]
                yield _rotate_closed(first, u) + _rotate_closed(cycles[j], u)[1:]


def prefilter_constraints(
    proto_graph: Graph, cycles: Cycles, orient_by: Frequencies = None
) -> Iterator[NonLocalConstraint]:
    """The CC, PC and TDS constraints of a prototype whose simple cycles
    are ``cycles``, one at a time, in :func:`generate_constraints`' order
    and orientation — the one source of the walk rules, drawn whole by
    the eager builder and lazily by
    :meth:`~repro.core.ordering.ConstraintPlan.select`."""
    for kind, walks in (
        (CYCLE_KIND, _cycle_walks(cycles)),
        (PATH_KIND, _path_walks(proto_graph)),
        (TDS_KIND, _tds_walks(cycles)),
    ):
        for walk in walks:
            yield _constraint(proto_graph, kind, walk, orient_by)


def prefilter_count(proto_graph: Graph, cycles: Cycles) -> int:
    """How many constraints :func:`prefilter_constraints` yields, without
    building one: a CC walk per cycle vertex, two PC walks per
    same-labeled pair (prototypes are connected, so every pair has a
    path), one TDS walk per edge-sharing cycle pair — counted with one
    bitmask of holding cycles per edge."""
    holders: Dict[Tuple[int, int], int] = {}
    edge_sets = [_cycle_edges(cycle) for cycle in cycles]
    for index, edges in enumerate(edge_sets):
        for edge in edges:
            holders[edge] = holders.get(edge, 0) | (1 << index)
    sharing_pairs = 0
    for index, edges in enumerate(edge_sets):
        sharing = 0
        for edge in edges:
            sharing |= holders[edge]
        sharing_pairs += bin(sharing >> (index + 1)).count("1")
    twins = sum(m * (m - 1) for m in proto_graph.label_counts().values())
    return sum(len(cycle) for cycle in cycles) + twins + sharing_pairs


def cycle_constraints(
    proto_graph: Graph, cycles: Optional[Cycles] = None, orient_by: Frequencies = None
) -> List[NonLocalConstraint]:
    """CC constraints: each simple cycle, rooted at every cycle vertex."""
    if cycles is None:
        cycles = simple_cycles(proto_graph)
    return _constraints(proto_graph, CYCLE_KIND, _cycle_walks(cycles), orient_by)


def path_constraints(
    proto_graph: Graph, orient_by: Frequencies = None
) -> List[NonLocalConstraint]:
    """PC constraints: walk to a same-labeled twin and back, per endpoint.

    Needed when the template repeats labels: a vertex must prove a twin
    *distinct from itself* sits at the prescribed distance (Fig. 2 bottom).
    """
    return _constraints(proto_graph, PATH_KIND, _path_walks(proto_graph), orient_by)


def tds_constraints(
    proto_graph: Graph, cycles: Optional[Cycles] = None, orient_by: Frequencies = None
) -> List[NonLocalConstraint]:
    """TDS constraints from pairs of simple cycles sharing an edge (Fig. 2).

    The combined walk goes around the first cycle and then the second,
    starting from a shared vertex; identity checks tie the shared edge to
    the *same* background vertices in both cycles.
    """
    if cycles is None:
        cycles = simple_cycles(proto_graph)
    return _constraints(proto_graph, TDS_KIND, _tds_walks(cycles), orient_by)


def full_walk_constraint(
    proto_graph: Graph, root: Optional[int] = None, orient_by: Frequencies = None
) -> NonLocalConstraint:
    """The aggregate TDS constraint: a closed walk covering every edge.

    Built by a DFS from ``root`` that walks down to each child and back,
    adding an out-and-back detour for every non-tree edge, so each template
    edge appears as at least one consecutive pair of the walk.  A completed
    token is therefore a full exact match containing its initiator.
    """
    if proto_graph.num_vertices == 0:
        raise ConstraintError("cannot build a walk on an empty graph")
    if root is None:
        root = min(proto_graph.vertices())
    walk: List[int] = [root]
    visited: Set[int] = {root}
    covered: Set[Tuple[int, int]] = set()

    def dfs(vertex: int) -> None:
        for nbr in sorted(proto_graph.neighbors(vertex)):
            edge = canonical_edge(vertex, nbr)
            if nbr not in visited:
                visited.add(nbr)
                covered.add(edge)
                walk.append(nbr)
                dfs(nbr)
                walk.append(vertex)
            elif edge not in covered:
                covered.add(edge)
                walk.append(nbr)
                walk.append(vertex)

    dfs(root)
    if len(walk) == 1:  # single-vertex template: trivially closed walk
        walk.append(root)
    return _constraint(proto_graph, FULL_WALK_KIND, walk, orient_by)


def _cycle_edges(cycle: Sequence[int]) -> Set[Tuple[int, int]]:
    n = len(cycle)
    return {canonical_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n)}


def _rotate_closed(cycle: Sequence[int], start: int) -> List[int]:
    """Cycle as a closed walk starting and ending at ``start``."""
    idx = list(cycle).index(start)
    n = len(cycle)
    walk = [cycle[(idx + i) % n] for i in range(n)]
    walk.append(start)
    return walk


def is_edge_monocyclic(proto_graph: Graph, cycles: Optional[Cycles] = None) -> bool:
    """True if every edge belongs to at most one simple cycle.

    Edge-monocyclic templates with distinct labels do not require TDS
    constraints (Fig. 2's caption); everything else gets the full walk.
    """
    seen: Set[Tuple[int, int]] = set()
    for cycle in simple_cycles(proto_graph) if cycles is None else cycles:
        edges = _cycle_edges(cycle)
        if edges & seen:
            return False
        seen |= edges
    return True


def has_duplicate_labels(proto_graph: Graph) -> bool:
    counts = proto_graph.label_counts()
    return any(count > 1 for count in counts.values())


def is_tree(proto_graph: Graph) -> bool:
    return proto_graph.num_edges == proto_graph.num_vertices - 1


class ConstraintSelection(NamedTuple):
    """The non-local constraints to run on one live scope, and why.

    ``prefilter_rows`` is what the plan added up before it decided: the
    estimates of the pre-filters it built, in generation order, up to the
    first that brought the sum to ``full_walk_rows`` — or all of them,
    when the sum never got there and the complete list runs.
    """

    #: the complete list, or the full walk alone
    constraints: List[NonLocalConstraint]
    #: estimated rows of the pre-filters added up before the decision and
    #: of the full walk on the scope; None when nothing was estimated
    #: because nothing could be skipped
    prefilter_rows: Optional[float] = None
    full_walk_rows: Optional[float] = None
    #: pre-filters of the complete list that do not run (0, or all of them)
    skipped: int = 0


class ConstraintSet:
    """All constraints of one prototype, in checking order."""

    def __init__(
        self,
        local: List[LocalConstraint],
        non_local: List[NonLocalConstraint],
        exact_without_full_walk: bool,
    ) -> None:
        self.local = local
        self.non_local = non_local
        #: True when LCC (+ the cheap non-local checks) provably leaves
        #: exactly the solution subgraph, so no full walk was appended.
        self.exact_without_full_walk = exact_without_full_walk

    def full_walk(self) -> Optional[NonLocalConstraint]:
        for constraint in self.non_local:
            if constraint.kind == FULL_WALK_KIND:
                return constraint
        return None

    def select(self, astate=None) -> ConstraintSelection:
        """An explicit set runs as given, whatever the scope (the lazy
        :class:`~repro.core.ordering.ConstraintPlan` is what decides)."""
        return ConstraintSelection(self.non_local)

    def __repr__(self) -> str:
        kinds = [c.kind for c in self.non_local]
        return f"ConstraintSet(local={len(self.local)}, non_local={kinds})"


def generate_constraints(
    proto_graph: Graph,
    label_frequencies: Optional[Dict[int, int]] = None,
    *,
    orient: bool = False,
) -> ConstraintSet:
    """The constraint set guaranteeing exactness for one prototype.

    The eager builder; the drivers reach it only through a
    :class:`~repro.core.ordering.ConstraintPlan` that keeps its complete
    list.

    The full walk is appended exactly when the prototype is not a tree
    with all-distinct labels (where iterated local checking is provably
    exact, :func:`exact_without_full_walk`).

    ``orient`` turns each walk rare-labels-first by ``label_frequencies``
    before it is constructed (``order_constraints`` would rebuild it).
    """
    orient_by = label_frequencies if orient else None
    non_local = list(
        prefilter_constraints(proto_graph, simple_cycles(proto_graph), orient_by)
    )
    exact = exact_without_full_walk(proto_graph)
    if not exact:
        non_local.append(rooted_full_walk(proto_graph, label_frequencies, orient_by))
    local = local_constraints(proto_graph)
    return ConstraintSet(local, non_local, exact_without_full_walk=exact)


def exact_without_full_walk(proto_graph: Graph) -> bool:
    """A tree with distinct labels: its LCC fixed point is provably exact."""
    return is_tree(proto_graph) and not has_duplicate_labels(proto_graph)


def rooted_full_walk(
    proto_graph: Graph,
    label_frequencies: Optional[Dict[int, int]],
    orient_by: Frequencies = None,
) -> NonLocalConstraint:
    """The full walk :func:`generate_constraints` appends, rooted at the
    rarest-label vertex."""
    root = _rarest_label_vertex(proto_graph, label_frequencies)
    return full_walk_constraint(proto_graph, root, orient_by)


def _rarest_label_vertex(
    proto_graph: Graph, label_frequencies: Optional[Dict[int, int]]
) -> int:
    """Root choice heuristic: start walks at the rarest-label vertex (§5.4)."""
    if not label_frequencies:
        return min(proto_graph.vertices())
    return min(
        proto_graph.vertices(),
        key=lambda v: (label_frequencies.get(proto_graph.label(v), 0), v),
    )
