"""Inputs, queries and result fingerprints of the four end-to-end workloads.

Self-contained on purpose: the generator calls are copied from
``benchmarks/common.py`` (nothing is imported from it), so editing that
file cannot silently change what this benchmark measures.

How ``--seed`` enters.  Every background graph has one *canonical* form
built from fixed generator seeds (the ones ``benchmarks/common.py`` uses)
and pinned by sha256 in ``expected/inputs.json``.  The workload seed then
draws a vertex-id permutation, the line order and endpoint order of the
edge-list file, the line order of the label file, and the order of the
query stream.  The program therefore receives different bytes for every
seed while the amount of work stays the same.  Re-seeding the generators
themselves was measured and rejected: ``token-storm`` ran between 2.0 s
and 3.8 s per round over generator seeds 0..5 (hub placement decides the
token count), far outside any bound a regression gate could use.  A
side effect worth having: every fingerprint below is invariant under the
permutation, so one committed expectation verifies every seed.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

import repro.core as core
import repro.graph.io as graph_io
from repro.core.template import PatternTemplate
from repro.graph import Graph
from repro.graph.generators import (
    gnm_graph,
    imdb_graph,
    plant_pattern,
    reddit_graph,
    rmat_graph,
    webgraph,
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: ``full`` is the benchmark; ``quick`` exists for the tests under
#: ``tests/`` and prints NOT COMPARABLE wherever its numbers appear.
SIZES = {
    "full": {
        "storm_hub_degree": 100,
        "motif_dust_triangles": 30_000,
        "stream_slice": slice(1, None, 3),
        "clique_size": 6,
    },
    "quick": {
        "storm_hub_degree": 40,
        "motif_dust_triangles": 300,
        "stream_slice": slice(1, None, 12),
        "clique_size": 5,
    },
}


#: the edges the planted WDC-4 copies lack
CLIQUE_MISSING = [(0, 1), (0, 2), (1, 2)]


class InputDrift(RuntimeError):
    """A generated input no longer has its pinned sha256."""


# ----------------------------------------------------------------------
# canonical background graphs (generator calls as in benchmarks/common.py)
# ----------------------------------------------------------------------
def _rmat(sizes) -> Graph:
    return rmat_graph(scale=10, edge_factor=8, seed=5)


def _wdc(sizes) -> Graph:
    """WDC-like webgraph with planted WDC-1..3 and relaxed WDC-4 copies."""
    graph = webgraph(6000, num_labels=300, seed=42, label_exponent=1.05)
    for template in (
        core.wdc1_template(), core.wdc2_template(), core.wdc3_template()
    ):
        labels = [template.label(v) for v in sorted(template.graph.vertices())]
        plant_pattern(
            graph, template.edges(), labels, copies=4,
            seed=sum(map(ord, template.name)),
        )
    clique = core.wdc4_template()
    labels = [clique.label(v) for v in sorted(clique.graph.vertices())]
    # a triangle short of a 6-clique: the exploratory search finds nothing
    # before k = 3.  (benchmarks/common.py leaves out two disjoint edges;
    # verifying that denser match takes 4 165 token walks, 5 s a round.)
    relaxed = [e for e in clique.edges() if e not in CLIQUE_MISSING]
    plant_pattern(graph, relaxed, labels, copies=2, seed=99)
    return graph


def _reddit(sizes) -> Graph:
    return reddit_graph(
        num_authors=900, num_subreddits=30, posts_per_author=1.5,
        comments_per_post=3.0, planted_rdt1=10, seed=20,
    )


def _imdb(sizes) -> Graph:
    return imdb_graph(
        num_movies=250, num_genres=15, num_actresses=250, num_actors=250,
        num_directors=80, cast_size=3, planted_imdb1=5, seed=31,
    )


def _storm(sizes) -> Graph:
    """NLCC-STRESS: two-label G(n, m) with four planted hubs.

    Token counts grow with the cube of the hub degree; ``benchmarks/
    common.py`` uses 150 (10 s and 960 MB per pipeline run), the full
    preset here uses 100 so that a run holds several rounds.
    """
    graph = gnm_graph(2000, 6000, num_labels=2, seed=13)
    rng = np.random.default_rng(17)
    for hub in rng.choice(2000, size=4, replace=False).tolist():
        spokes = rng.choice(2000, size=sizes["storm_hub_degree"], replace=False)
        for v in spokes.tolist():
            if v != hub and not graph.has_edge(hub, v):
                graph.add_edge(hub, v)
    return graph


def _motif(sizes) -> Graph:
    """MOTIF-BATCH: single-label core plus triangle dust."""
    graph = gnm_graph(100, 250, num_labels=1, seed=23)
    clique_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    plant_pattern(graph, clique_edges, [0, 0, 0, 0], copies=4, seed=29)
    next_vertex = 100
    for _ in range(sizes["motif_dust_triangles"]):
        a, b, c = next_vertex, next_vertex + 1, next_vertex + 2
        for vertex in (a, b, c):
            graph.add_vertex(vertex, 0)
        graph.add_edge(a, b)
        graph.add_edge(b, c)
        graph.add_edge(c, a)
        next_vertex += 3
    return graph


GENERATORS: Dict[str, Callable[[dict], Graph]] = {
    "rmat": _rmat,
    "wdc": _wdc,
    "reddit": _reddit,
    "imdb": _imdb,
    "storm": _storm,
    "motif": _motif,
}

#: inputs whose canonical graph depends on the size preset
_SIZED_INPUTS = ("storm", "motif")


# ----------------------------------------------------------------------
# seeded input files
# ----------------------------------------------------------------------
class InputFiles(NamedTuple):
    """One background graph as the program receives it."""

    name: str
    edge_path: Path
    labels_path: Path
    #: file vertex id -> canonical vertex id (undoes the seed's permutation)
    canonical_of: Dict[int, int]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical_bytes(graph: Graph, ids: List[int], edges: List[Tuple[int, int]]) -> bytes:
    edge_lines = "".join(f"{u} {v}\n" for u, v in edges)
    label_lines = "".join(f"{v} {graph.label(v)}\n" for v in ids)
    return (edge_lines + "--labels--\n" + label_lines).encode()


def _pin_key(name: str, preset: str) -> str:
    return f"{name}.{preset}" if name in _SIZED_INPUTS else name


def load_pins() -> dict:
    with open(EXPECTED_DIR / "inputs.json", encoding="utf-8") as handle:
        return json.load(handle)


def save_pins(pins: dict) -> None:
    with open(EXPECTED_DIR / "inputs.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def materialise_input(
    name: str,
    seed: int,
    preset: str,
    data_dir: Path,
    pins: dict,
    record: bool = False,
) -> InputFiles:
    """Generate ``name``, check its pin, write the seed's files.

    Generation is deterministic and takes well under a second, so the
    files are rewritten on every run instead of trusting a cache.  With
    ``record`` the pins are updated in ``pins`` instead of compared.
    """
    graph = GENERATORS[name](SIZES[preset])
    key = _pin_key(name, preset)
    ids = sorted(graph.vertices())
    edges = sorted(graph.edges())
    canonical = _sha256(_canonical_bytes(graph, ids, edges))
    pin = pins.setdefault(key, {"canonical": None, "files": {}})
    if record:
        pin["canonical"] = canonical
    elif pin["canonical"] != canonical:
        raise InputDrift(
            f"generator {GENERATORS[name].__name__} for input {key!r} "
            f"produced sha256 {canonical}, pinned {pin['canonical']}; the "
            f"workload changed — re-measure the baseline (see README)"
        )

    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    shuffled = rng.permutation(len(ids))
    new_of = {old: ids[j] for old, j in zip(ids, shuffled.tolist())}
    order = rng.permutation(len(edges)).tolist()
    flips = rng.integers(0, 2, size=len(edges)).tolist()
    edge_lines = []
    for i in order:
        u, v = edges[i]
        if flips[i]:
            u, v = v, u
        edge_lines.append(f"{new_of[u]} {new_of[v]}\n")
    label_lines = [
        f"{new_of[ids[i]]} {graph.label(ids[i])}\n"
        for i in rng.permutation(len(ids)).tolist()
    ]
    edge_bytes = "".join(edge_lines).encode()
    label_bytes = "".join(label_lines).encode()

    file_pin = {"el": _sha256(edge_bytes), "labels": _sha256(label_bytes)}
    if record:
        pin["files"][str(seed)] = file_pin
    elif pin["files"].get(str(seed), file_pin) != file_pin:
        raise InputDrift(
            f"seed {seed} files of input {key!r} differ from their pins: "
            f"the permutation drawn from numpy's Generator changed"
        )

    data_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{key}.s{seed}"
    edge_path = data_dir / f"{stem}.el"
    labels_path = data_dir / f"{stem}.labels"
    edge_path.write_bytes(edge_bytes)
    labels_path.write_bytes(label_bytes)
    return InputFiles(
        name, edge_path, labels_path, {new: old for old, new in new_of.items()}
    )


# ----------------------------------------------------------------------
# queries
# ----------------------------------------------------------------------
class Query(NamedTuple):
    """One call into the program's public API."""

    qid: str
    #: name of the input graph the query runs on
    graph: str
    run: Callable[[], object]
    #: what ``run`` asks for, kept for the brute-force oracle test
    template: PatternTemplate
    k: int


def _options() -> "core.PipelineOptions":
    """Defaults only, so the harness survives the execution-tier collapse."""
    return core.PipelineOptions(num_ranks=8, count_matches=True)


def _rmat1_for(graph: Graph) -> PatternTemplate:
    """RMAT-1 over the graph's six most frequent labels (ties by label)."""
    counts = graph.label_counts()
    top6 = sorted(counts, key=lambda label: (-counts[label], label))[:6]
    return core.rmat1_template(labels=top6)


#: the six Fig. 7 rows: (row name, input, template factory, largest k)
STREAM_ROWS: Tuple[Tuple[str, str, Callable[[Graph], PatternTemplate], int], ...] = (
    ("RMAT-1", "rmat", _rmat1_for, 2),
    ("WDC-1", "wdc", lambda graph: core.wdc1_template(), 2),
    ("WDC-2", "wdc", lambda graph: core.wdc2_template(), 2),
    ("WDC-3", "wdc", lambda graph: core.wdc3_template(), 2),
    ("RDT-1", "reddit", lambda graph: core.rdt1_template(), 1),
    ("IMDB-1", "imdb", lambda graph: core.imdb1_template(), 2),
)


def stream_catalogue(graphs: Dict[str, Graph]) -> List[Query]:
    """Every prototype of every row, re-issued as its own template.

    A prototype at distance d of a row searched up to k becomes one query
    per k' with d + k' <= k, mandatory edges kept: 166 small queries of
    5-7 template vertices.  The catalogue is prototype-derived on purpose;
    free-form sampled templates with a label repeated three times or more
    ran out of memory in the token frontier.
    """
    catalogue: List[Query] = []
    for row, input_name, template_for, k in STREAM_ROWS:
        graph = graphs[input_name]
        template = template_for(graph)
        for proto in core.generate_prototypes(template, k):
            labels = {v: proto.graph.label(v) for v in proto.graph.vertices()}
            for k_prime in range(k - proto.distance + 1):
                qid = f"{row}/{proto.name}+{k_prime}"
                query_template = PatternTemplate.from_edges(
                    sorted(proto.graph.edges()), labels,
                    mandatory_edges=template.mandatory_edges, name=qid,
                )
                catalogue.append(
                    _pipeline_query(qid, input_name, graph, query_template, k_prime)
                )
    return catalogue


def _pipeline_query(
    qid: str, input_name: str, graph: Graph, template: PatternTemplate, k: int
) -> Query:
    # ``core.run_pipeline`` is looked up at call time: a traced run
    # rebinds the name in the ``repro.core`` namespace.
    return Query(
        qid, input_name,
        lambda: core.run_pipeline(graph, template, k, _options()),
        template, k,
    )


def _stream_queries(graphs, seed, sizes) -> List[Query]:
    # A fixed slice of the catalogue in a seed-drawn order.  Sampling with
    # replacement was tried: 83 draws from a heavy-tailed catalogue move a
    # round's wall time by ~15% between seeds.
    entries = stream_catalogue(graphs)[sizes["stream_slice"]]
    rng = np.random.default_rng([seed, zlib.crc32(b"paper-stream")])
    return [entries[i] for i in rng.permutation(len(entries)).tolist()]


def _clique_queries(graphs, seed, sizes) -> List[Query]:
    graph = graphs["wdc"]
    clique = core.wdc4_template()
    keep = range(sizes["clique_size"])
    edges = [e for e in clique.edges() if e[0] in keep and e[1] in keep]
    # Vertices 4 and 5 are pinned to everything (mandatory edges), the six
    # relationships among vertices 0..3 are optional: 57 prototypes within
    # k = 4 instead of 1 941, and 1+6+15+20 searched before the stop at
    # k = 3.  The unrestricted clique takes 16 s per round.
    mandatory = [e for e in edges if e[1] >= 4]
    template = PatternTemplate.from_edges(
        edges, {v: clique.label(v) for v in keep},
        mandatory_edges=mandatory, name="WDC-4",
    )
    return [
        Query(
            "WDC-4/explore", "wdc",
            lambda: core.exploratory_search(
                graph, template, max_k=4, options=_options()
            ),
            template, 4,
        )
    ]


def _storm_queries(graphs, seed, sizes) -> List[Query]:
    # C4 with mirrored repeated labels 0-1-1-0: the free walk positions
    # share a label, so the frontier dedup fold has rows to merge.
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 0)], {0: 0, 1: 1, 2: 1, 3: 0},
        name="stress-c4",
    )
    return [_pipeline_query("stress-c4/k1", "storm", graphs["storm"], template, 1)]


def _motif_queries(graphs, seed, sizes) -> List[Query]:
    graph = graphs["motif"]
    return [
        Query(
            "census-4", "motif",
            lambda: core.count_motifs(graph, 4, options=_options(), batched=True),
            core.motif_template(4), 3,
        )
    ]


class Workload(NamedTuple):
    name: str
    #: input graphs loaded during set-up
    inputs: Tuple[str, ...]
    #: (loaded graphs, seed, sizes) -> the queries of one round, in order
    queries: Callable[[Dict[str, Graph], int, dict], List[Query]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("paper-stream", ("rmat", "wdc", "reddit", "imdb"), _stream_queries),
        Workload("clique-explore", ("wdc",), _clique_queries),
        Workload("token-storm", ("storm",), _storm_queries),
        Workload("motif-census", ("motif",), _motif_queries),
    )
}


def load_graphs(files: Dict[str, InputFiles]) -> Dict[str, Graph]:
    """The load + CSR half of set-up (what ``repro search`` pays first)."""
    graphs = {}
    for name, item in files.items():
        graph = graph_io.read_edge_list(item.edge_path, item.labels_path)
        core.csr_of(graph)
        graphs[name] = graph
    return graphs


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def _vertex_digest(vertices, canonical_of: Dict[int, int]) -> str:
    canonical = sorted(canonical_of[v] for v in vertices)
    return _sha256(",".join(map(str, canonical)).encode())[:16]


def _pipeline_fingerprint(result, canonical_of) -> dict:
    per_prototype = [
        [o.name, len(o.solution_vertices), len(o.solution_edges), o.match_mappings]
        for o in result.outcomes()
    ]
    return {
        "matched_vertices": len(result.match_vectors),
        "vertex_digest": _vertex_digest(result.match_vectors, canonical_of),
        "match_mappings": result.total_match_mappings(),
        "distinct_matches": result.total_distinct_matches(),
        "levels": [
            [level.distance, level.num_prototypes, level.union_vertices, level.union_edges]
            for level in result.levels
        ],
        "prototype_digest": _sha256(json.dumps(per_prototype).encode())[:16],
    }


def fingerprint(result, canonical_of: Dict[int, int]) -> dict:
    """What a correct answer looks like, independent of the seed."""
    if isinstance(result, core.MotifCounts):
        return {
            "noninduced": result.by_name(induced=False),
            "induced": result.by_name(induced=True),
            **_pipeline_fingerprint(result.result, canonical_of),
        }
    return _pipeline_fingerprint(result, canonical_of)


def expected_path(workload: str, preset: str) -> Path:
    suffix = "" if preset == "full" else f".{preset}"
    return EXPECTED_DIR / f"{workload}{suffix}.json"


def load_expected(workload: str, preset: str) -> Dict[str, dict]:
    with open(expected_path(workload, preset), encoding="utf-8") as handle:
        return json.load(handle)
