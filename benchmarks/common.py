"""Shared workloads and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(§5); DESIGN.md's experiment index maps experiment ids to files.  The
workloads here are the scaled-down counterparts of the paper's datasets
(see DESIGN.md §2 for the substitution rationale); they are cached so the
benchmark session generates each graph once.

Scale-down note: absolute runtimes are simulated seconds from the runtime
cost model; the *shapes* (who wins, how scaling curves bend, where the
crossovers sit) are the reproduction targets, recorded against the paper's
numbers in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Dict, List, Tuple

from repro.core import PipelineOptions
from repro.core.patterns import (
    imdb1_template,
    rdt1_template,
    rmat1_template,
    wdc1_template,
    wdc2_template,
    wdc3_template,
    wdc4_template,
)
from repro.graph.generators import (
    imdb_graph,
    plant_pattern,
    reddit_graph,
    rmat_graph,
    webgraph,
)

#: ranks used by single-deployment benchmark runs
DEFAULT_RANKS = 8

#: WDC-like background graph size (paper: 3.5B vertices; here ~6K)
WDC_VERTICES = 6000
WDC_LABELS = 300


@lru_cache(maxsize=None)
def wdc_background() -> "Graph":
    """The shared WDC-like webgraph with planted WDC-1..4 instances."""
    graph = webgraph(
        WDC_VERTICES, num_labels=WDC_LABELS, seed=42, label_exponent=1.05
    )
    for template in (wdc1_template(), wdc2_template(), wdc3_template()):
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        plant_pattern(
            graph, template.edges(), labels, copies=4,
            seed=sum(map(ord, template.name)),
        )
    # WDC-4 (6-clique): plant relaxed copies (k=2 distance) so exploratory
    # search has something to find and exact search stays rare.
    clique = wdc4_template()
    labels = [clique.label(v) for v in sorted(clique.graph.vertices())]
    relaxed = [e for e in clique.edges() if e not in [(0, 1), (2, 3)]]
    plant_pattern(graph, relaxed, labels, copies=2, seed=99)
    return graph


@lru_cache(maxsize=None)
def rmat_background(scale: int = 10):
    """R-MAT graph with the paper's degree-class labels."""
    return rmat_graph(scale=scale, edge_factor=8, seed=5)


@lru_cache(maxsize=None)
def rmat1_for(scale: int = 10):
    """RMAT-1 template using the six most frequent labels of the graph.

    Mirrors the paper: "the template labels used are the most frequent and
    cover ~45% of the vertices in the background graph".
    """
    graph = rmat_background(scale)
    counts = Counter(graph.label(v) for v in graph.vertices())
    top6 = [label for label, _count in counts.most_common(6)]
    return rmat1_template(labels=top6)


@lru_cache(maxsize=None)
def reddit_background():
    return reddit_graph(
        num_authors=900, num_subreddits=30, posts_per_author=1.5,
        comments_per_post=3.0, planted_rdt1=10, seed=20,
    )


@lru_cache(maxsize=None)
def imdb_background():
    return imdb_graph(
        num_movies=250, num_genres=15, num_actresses=250, num_actors=250,
        num_directors=80, cast_size=3, planted_imdb1=5, seed=31,
    )


#: kernel-stress workload size (E-P1)
KERNEL_STRESS_VERTICES = 8000
KERNEL_STRESS_EDGES = 26000
KERNEL_STRESS_LABELS = 4


@lru_cache(maxsize=None)
def kernel_stress_background():
    """Low-label-diversity G(n, m) graph: the LCC-fixpoint stress workload.

    Four uniform labels over 8K vertices / 26K edges give every vertex a
    multi-role candidate set and a long pruning cascade.
    """
    from repro.graph.generators.random_labeled import gnm_graph

    return gnm_graph(
        KERNEL_STRESS_VERTICES, KERNEL_STRESS_EDGES,
        num_labels=KERNEL_STRESS_LABELS, seed=7,
    )


@lru_cache(maxsize=None)
def kernel_stress_template():
    """8-vertex path with cycling labels: every candidate holds ~2 roles."""
    from repro.core.template import PatternTemplate

    labels = {v: v % KERNEL_STRESS_LABELS for v in range(8)}
    edges = [(v, v + 1) for v in range(7)]
    return PatternTemplate.from_edges(edges, labels, name="stress-path8")


#: NLCC-stress workload size — token storms through high-degree hubs.
#: Token counts scale with (sum of squared degrees / sum of degrees)
#: ^walk_hops, so hub degree is the knob that turns this exponential.
NLCC_STRESS_VERTICES = 2000
NLCC_STRESS_EDGES = 6000
NLCC_STRESS_LABELS = 2
NLCC_STRESS_HUBS = 4
NLCC_STRESS_HUB_DEGREE = 150


@lru_cache(maxsize=None)
def nlcc_stress_background():
    """Two-label G(n, m) graph with planted high-degree hubs.

    Two labels mean every vertex holds several candidate roles of the C4
    template below, and each hub fans every incoming token out ~150 ways —
    the combinatorial token-storm regime the batched array frontier's
    per-(vertex, hop, initiator) dedup fold is built to collapse.
    """
    import numpy as np

    from repro.graph.generators.random_labeled import gnm_graph

    graph = gnm_graph(
        NLCC_STRESS_VERTICES, NLCC_STRESS_EDGES,
        num_labels=NLCC_STRESS_LABELS, seed=13,
    )
    rng = np.random.default_rng(17)
    hubs = rng.choice(NLCC_STRESS_VERTICES, size=NLCC_STRESS_HUBS, replace=False)
    for hub in hubs.tolist():
        spokes = rng.choice(
            NLCC_STRESS_VERTICES, size=NLCC_STRESS_HUB_DEGREE, replace=False
        )
        for v in spokes.tolist():
            if v != hub and not graph.has_edge(hub, v):
                graph.add_edge(hub, v)
    return graph


@lru_cache(maxsize=None)
def nlcc_stress_template():
    """A C4 with mirrored repeated labels (0-1-1-0).

    The 4-cycle yields length-5 closed-walk cycle constraints whose hop-3
    frontier has two free path positions; because those two positions
    carry the *same* label, interior vertices can appear in either order
    and the per-(vertex, hop, initiator) dedup fold actually merges the
    swapped rows (alternating labels would make the free positions
    label-distinct and the fold a no-op).  The repeated labels also
    trigger path constraints and the full-walk TDS check.
    """
    from repro.core.template import PatternTemplate

    labels = {0: 0, 1: 1, 2: 1, 3: 0}
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    return PatternTemplate.from_edges(edges, labels, name="stress-c4")


#: MOTIF-BATCH workload shape — a small unlabeled core surrounded by
#: "dust": thousands of sub-motif-sized components that no 4-vertex motif
#: can touch, but that every per-template pipeline must scan end to end
#: (single label + degree >= 2 everywhere keeps dust alive through ``M*``
#: and LCC; only the token walks rule it out).  Dust carries ~180x the
#: core's edges, so a census that runs six independent pipelines pays the
#: full graph six times while the batched executor pays it once (the
#: deepest level) and finishes on the core-only auxiliary view.
MOTIF_BATCH_CORE_VERTICES = 100
MOTIF_BATCH_CORE_EDGES = 250
MOTIF_BATCH_DUST_TRIANGLES = 15000
MOTIF_BATCH_PLANTED_CLIQUES = 4


@lru_cache(maxsize=None)
def motif_batch_background():
    """Single-label core + triangle dust: the batched-census workload.

    The G(n, m) core holds the actual 4-vertex motif population (plus a
    few planted 4-cliques so the densest motif count is non-zero); each
    dust component is a 3-vertex triangle — connected, degree 2
    everywhere, so neither ``M*`` nor LCC can discard it — that cannot
    contain any connected 4-vertex subgraph (every connected graph on
    >= 4 vertices contains a P4 or a 3-star, so any larger component
    would survive the deepest level and leak into the auxiliary view).
    Only the bottom-up sweep's token walks discover the dust is barren,
    which is exactly the per-template redundancy the template-library
    batch executor amortizes across the census.
    """
    from repro.graph.generators.random_labeled import gnm_graph

    graph = gnm_graph(
        MOTIF_BATCH_CORE_VERTICES, MOTIF_BATCH_CORE_EDGES,
        num_labels=1, seed=23,
    )
    clique_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    plant_pattern(
        graph, clique_edges, [0, 0, 0, 0],
        copies=MOTIF_BATCH_PLANTED_CLIQUES, seed=29,
    )
    next_vertex = MOTIF_BATCH_CORE_VERTICES
    for _ in range(MOTIF_BATCH_DUST_TRIANGLES):
        a, b, c = next_vertex, next_vertex + 1, next_vertex + 2
        for vertex in (a, b, c):
            graph.add_vertex(vertex, 0)
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(c, a)
        next_vertex += 3
    return graph


def default_options(**overrides) -> PipelineOptions:
    """The fully-optimized HGT configuration used across benchmarks."""
    base = dict(num_ranks=DEFAULT_RANKS)
    base.update(overrides)
    return PipelineOptions(**base)


#: (name, graph factory, template factory, k) rows of the Fig. 7 comparison
def figure7_workloads() -> List[Tuple[str, object, object, int]]:
    return [
        ("RMAT-1", rmat_background, rmat1_for, 2),
        ("WDC-1", wdc_background, wdc1_template, 2),
        ("WDC-2", wdc_background, wdc2_template, 2),
        ("WDC-3", wdc_background, wdc3_template, 3),
        ("RDT-1", reddit_background, rdt1_template, 1),
        ("IMDB-1", imdb_background, imdb1_template, 2),
    ]


def print_header(title: str) -> None:
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)
