"""The paper's §5 evaluation (E0-E14, EB1) as one checked runner.

    python benchmarks/paper.py [IDS] [--write | --check]

Each experiment is a function registered under a stable id (``E6`` also
selects ``E6.ordering`` ...).  It returns a :class:`Table`: rows of
deterministic quantities only (counts, simulated seconds of the cost
model, prototype and match numbers), notes derived from them, and named
claims — the paper's shapes, checked on those quantities, each message or
time claim naming its backend (the two count differently on purpose).

The runner prints every table and exits 1 on a failed claim; ``--write``
records the rows in ``EXPERIMENTS.json`` and renders them into
EXPERIMENTS.md between ``<!-- generated: ID -->`` and ``<!-- end
generated -->``; ``--check`` exits 1 naming each experiment whose rows
drifted from ``EXPERIMENTS.json``.  ``EB1.wall`` is the one wall-clock
claim: checked on every run, never recorded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_RANKS, default_options, figure7_workloads, imdb_background,
    motif_batch_background, reddit_background, rmat1_for, rmat_background,
    wdc_background,
)
from repro.analysis import (  # noqa: E402
    format_table, memory_breakdown, relative_breakdown, speedup,
    static_state_bytes, topology_bytes,
)
from repro.analysis.memory import MESSAGE_BYTES  # noqa: E402
from repro.baselines import arabesque_count_motifs, dual_simulation  # noqa: E402
from repro.core import (  # noqa: E402
    count_motifs, count_motifs_sequential, exploratory_search,
    generate_prototypes, naive_options, naive_search, run_pipeline,
    run_wildcard_pipeline, stopping_distance,
)
from repro.core.flips import run_flip_pipeline  # noqa: E402
from repro.core.motifs import motif_prototypes  # noqa: E402
from repro.core.patterns import (  # noqa: E402
    imdb1_template, rdt1_template, rmat1_template, wdc1_template,
    wdc2_template, wdc3_template, wdc4_template,
)
from repro.core.template import PatternTemplate  # noqa: E402
from repro.core.wildcards import WILDCARD  # noqa: E402
from repro.errors import MemoryLimitExceeded  # noqa: E402
from repro.graph.generators import gnm_graph, suite_graph, suite_graphs  # noqa: E402
from repro.graph.generators.suite import SUITE_SHAPES  # noqa: E402
from repro.graph.generators.webgraph import domain_label  # noqa: E402
from repro.graph.isomorphism import canonical_form  # noqa: E402
from repro.runtime import CostModel  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


@dataclass
class Table:
    """One experiment's outcome: ``rows`` under ``headers``, ``notes``
    derived from them, and ``claims`` (statement -> holds)."""

    headers: List[str]
    rows: List[List[object]]
    claims: Dict[str, bool]
    notes: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Experiment:
    eid: str
    title: str
    run: Callable[[], Table]
    #: False for a wall-clock experiment: checked, never written
    recorded: bool = True


EXPERIMENTS: Dict[str, Experiment] = {}


def experiment(eid: str, title: str, recorded: bool = True):
    def register(fn: Callable[[], Table]) -> Callable[[], Table]:
        EXPERIMENTS[eid] = Experiment(eid, title, fn, recorded)
        return fn

    return register


def sig(seconds: float) -> float:
    """Simulated seconds at four significant digits."""
    return float(f"{seconds:.4g}")


def secs(result) -> float:
    return sig(result.total_simulated_seconds)


def ratio(baseline: float, improved: float) -> float:
    return round(speedup(baseline, improved), 2)


def messages(result, phase: Optional[str] = None) -> int:
    summary = result.message_summary
    if phase is None:
        return summary["total_messages"]
    return summary["phases"].get(phase, {}).get("messages", 0)


def wdc(template, k: int, search=run_pipeline, **overrides):
    """``template()`` searched within ``k`` on the WDC-like graph."""
    return search(wdc_background(), template(), k, default_options(**overrides))


def same_vectors(results) -> bool:
    results = list(results)
    return all(r.match_vectors == results[0].match_vectors for r in results)


#: the paper's Table 1 row per stand-in: |V| / 2|E| / d_max / storage
PAPER_TABLE1 = {
    "WDC": "3.5B / 257B / 95M / 2.5TB",
    "Reddit": "3.9B / 14B / 19M / 460GB",
    "IMDb": "5M / 29M / 552K / 581MB",
    "R-MAT": "34.4B / 1.1T / 222M / 17TB",
    "CiteSeer": "3.3K / 9.4K / 99 / 741KB",
    "Mico": "100K / 2.2M / 1.4K / 36MB",
    "Patent": "2.7M / 28M / 789 / 480MB",
    "YouTube": "4.6M / 88M / 2.5K / 1.4GB",
    "LiveJournal": "4.8M / 69M / 20K / 1.2GB",
}
SUITE_NAMES = {
    "citeseer": "CiteSeer", "mico": "Mico", "patent": "Patent",
    "youtube": "YouTube", "livejournal": "LiveJournal",
}


@experiment("E0", "Table 1: dataset characteristics of the stand-ins")
def datasets() -> Table:
    graphs = {"WDC": wdc_background(), "Reddit": reddit_background(),
              "IMDb": imdb_background(), "R-MAT": rmat_background()}
    graphs.update((SUITE_NAMES[name], graph) for name, graph in suite_graphs())
    rows = []
    for name, graph in graphs.items():
        stats = graph.degree_statistics()
        rows.append([
            name, graph.num_vertices, 2 * graph.num_edges, stats.d_max,
            round(stats.d_avg, 2), round(stats.d_stdev, 2),
            topology_bytes(graph), PAPER_TABLE1[name],
        ])
    wdc = graphs["WDC"].degree_statistics()
    return Table(
        ["dataset", "|V|", "2|E|", "d_max", "d_avg", "d_stdev", "CSR bytes",
         "paper |V| / 2|E| / d_max / size"],
        rows,
        {
            "the WDC stand-in keeps its skew: d_max > 10 x d_avg":
                wdc.d_max > 10 * wdc.d_avg,
            "the suite keeps its size order: |V| of CiteSeer < LiveJournal":
                graphs["CiteSeer"].num_vertices
                < graphs["LiveJournal"].num_vertices,
        },
    )


@experiment("E1", "Fig. 4: weak scaling, RMAT-1 (k=2), R-MAT scale 8-11 on "
                  "2-16 ranks [array]")
def weak_scaling() -> Table:
    rows, times, labels = [], [], []
    for scale, ranks in ((8, 2), (9, 4), (10, 8), (11, 16)):
        graph = rmat_background(scale)
        result = run_pipeline(graph, rmat1_for(scale), 2, default_options(
            num_ranks=ranks, reload_ranks=ranks, count_matches=True,
        ))
        total = result.total_simulated_seconds
        search = sum(level.search_seconds for level in result.levels)
        infra = result.candidate_set_seconds + result.total_infrastructure_seconds
        times.append(total)
        labels.append(result.total_labels_generated())
        rows.append([
            scale, ranks, graph.num_vertices, graph.num_edges, sig(total),
            round(search / total, 2), round(infra / total, 2),
            ratio(total, times[0]), result.total_match_mappings(),
        ])
    counts = generate_prototypes(rmat1_for(8), 2).level_counts()
    return Table(
        ["scale", "ranks", "|V|", "|E|", "sim s", "search share",
         "infra share", "vs smallest", "mappings"],
        rows,
        {
            "RMAT-1 has 1 / 7 / 16 prototypes at k = 0 / 1 / 2":
                counts == [1, 7, 16],
            "scale 11 on 16 ranks takes < 4x scale 8 on 2 ranks [array]":
                times[-1] < 4.0 * times[0],
            "every configuration generates labels": all(labels),
        },
    )


@experiment("E2", "Fig. 6: strong scaling on the WDC-like graph, 2-16 ranks "
                  "[array]")
def strong_scaling() -> Table:
    rows, claims = [], {}
    patterns = [
        ("WDC-1", wdc1_template, 2, lambda ranks: {}),
        ("WDC-2", wdc2_template, 2, lambda ranks: {}),
        # many prototypes: reshuffle the pruned graph, replicate it (the
        # paper's 8-node replicas) and search prototypes in parallel
        ("WDC-3", wdc3_template, 3,
         lambda ranks: {"parallel_deployments": 2, "reload_ranks": ranks}),
    ]
    for name, template, k, extra in patterns:
        results = {ranks: wdc(template, k, num_ranks=ranks, **extra(ranks))
                   for ranks in (2, 4, 8, 16)}
        base = results[2].total_simulated_seconds
        for ranks, result in results.items():
            rows.append([
                name, ranks, sig(result.candidate_set_seconds),
                sig(sum(level.search_seconds for level in result.levels)),
                sig(result.total_infrastructure_seconds), secs(result),
                ratio(base, result.total_simulated_seconds),
            ])
        final = speedup(base, results[16].total_simulated_seconds)
        claims[f"{name}: identical match vectors on 2-16 ranks"] = same_vectors(
            results.values())
        claims[f"{name}: 1 < 16-rank speedup over 2 ranks <= 12 [array]"] = (
            1.0 < final <= 16 / 2 * 1.5)
    return Table(
        ["pattern", "ranks", "C (M*) s", "levels s", "S (infra) s", "sim s",
         "speedup"],
        rows, claims,
    )


@experiment("E3", "Fig. 7: naive vs HGT, identical results [array]")
def naive_comparison() -> Table:
    pairs = []
    for name, graph, template, k in figure7_workloads():
        pairs.append((name, k, run_pipeline(graph(), template(), k, default_options()),
                      naive_search(graph(), template(), k, default_options())))
    # WDC-4 at k=2: at the paper's k=4 the naive side, like Fig. 7's
    # off-axis bar, dominates the run
    pairs.append(("WDC-4", 2, wdc(wdc4_template, 2),
                  wdc(wdc4_template, 2, naive_search)))
    identical = all(h.match_vectors == n.match_vectors for _, _, h, n in pairs)
    motif_graph = gnm_graph(250, 625, num_labels=1, seed=0)
    hgt_m = count_motifs(
        motif_graph, 4, default_options(enumeration_optimization=True))
    naive_m = count_motifs(
        motif_graph, 4, naive_options(default_options(count_matches=True)))
    identical = identical and hgt_m.induced == naive_m.induced
    pairs.append(("4-Motif", 3, hgt_m.result, naive_m.result))
    rows, speedups, fewer = [], [], []
    for name, k, hgt, nve in pairs:
        gain = speedup(nve.total_simulated_seconds, hgt.total_simulated_seconds)
        speedups.append(gain)
        fewer.append(messages(hgt) < messages(nve))
        rows.append([name, k, secs(nve), secs(hgt), round(gain, 2), messages(nve),
                     messages(hgt), ratio(messages(nve), messages(hgt))])
    average = sum(speedups) / len(speedups)
    return Table(
        ["pattern", "k", "naive sim s", "HGT sim s", "speedup", "naive msgs",
         "HGT msgs", "msg ratio"],
        rows,
        {
            "HGT and naive find identical matches on every row": identical,
            "HGT sends fewer messages than naive on every row [array]":
                all(fewer),
            "HGT never loses badly: every speedup > 0.9 [array]":
                all(s > 0.9 for s in speedups),
            "HGT wins on average: mean speedup > 1.2 [array]": average > 1.2,
        },
        [f"mean speedup {average:.2f}x (paper: 3.8x at cluster scale)"],
    )


#: Fig. 8's scenarios: (name, options overrides, naive)
FIG8_SCENARIOS = [
    ("naive", {}, True),
    ("X (space reduction)", {"work_recycling": False}, False),
    ("Y (X + work recycling)", {}, False),
    ("Z (Y + balance + parallel)",
     {"reload_ranks": DEFAULT_RANKS, "parallel_deployments": 2,
      "prototype_cost_source": "measured"}, False),
]


def fig8(backend: str) -> tuple:
    """Fig. 8's scenarios on ``backend``: (table, results, times by the
    scenario's initial)."""
    rows, results, times = [], {}, {}
    for name, overrides, naive in FIG8_SCENARIOS:
        result = wdc(wdc3_template, 3, naive_search if naive else run_pipeline,
                     backend=backend, **overrides)
        results[name] = result
        times[name[0]] = result.total_simulated_seconds
        per_level = {lvl.distance: lvl.search_seconds for lvl in result.levels}
        rows.append([
            name, *[sig(per_level.get(d, 0.0)) for d in (3, 2, 1, 0)],
            sig(times[name[0]]), ratio(times["n"], times[name[0]]),
            result.nlcc_cache_stats.get("hits", 0),
        ])
    table = Table(
        ["scenario", "k=3 s", "k=2 s", "k=1 s", "k=0 s", "sim s", "vs naive",
         "NLCC cache hits"],
        rows,
        {f"identical match vectors in every scenario [{backend}]":
            same_vectors(results.values())},
    )
    return table, results, times


@experiment("E4", "Fig. 8: WDC-3 (k=3) by edit-distance level, scenarios "
                  "naive / X / Y / Z [array]")
def fig8_array() -> Table:
    table, results, times = fig8("array")
    table.claims.update({
        "recycling does not hurt: Y <= 1.05 X [array]":
            times["Y"] <= times["X"] * 1.05,
        "space reduction beats naive: X < naive [array]": times["X"] < times["n"],
        "naive / min(Y, Z) > 1.3 [array]":
            times["n"] / min(times["Y"], times["Z"]) > 1.3,
    })
    if times["X"] == times["Y"]:
        table.notes.append("finding: X and Y take the same simulated time; "
                           "recycling has nothing to reuse (0 NLCC cache hits)")
    for distance in (3, 2, 1, 0):
        level = results["naive"].level_for(distance)
        table.notes.append(f"k={distance}: {level.num_prototypes} prototypes, "
                           f"|V*_k| = {level.union_vertices}, "
                           f"{level.labels_generated()} labels")
    return table


@experiment("E4.reference", "Fig. 8: WDC-3 (k=3) by edit-distance level, "
                            "scenarios naive / X / Y / Z [reference]")
def fig8_reference() -> Table:
    table, _, times = fig8("reference")
    table.claims["each scenario beats the one before: naive > X > Y > Z "
                 "[reference]"] = times["n"] > times["X"] > times["Y"] > times["Z"]
    return table


@experiment("E5", "Fig. 9(a): load balancing, block partitioning (NLB) vs "
                  "reshuffle (LB) [array]")
def load_balancing() -> Table:
    rows, gains, identical = [], [], True
    for name, template, k in (("WDC-1", wdc1_template, 2),
                              ("WDC-2", wdc2_template, 2),
                              ("WDC-3", wdc3_template, 3)):
        nlb = wdc(template, k, partition_strategy="block")
        lb = wdc(template, k, partition_strategy="block",
                 reload_ranks=DEFAULT_RANKS)
        identical = identical and nlb.match_vectors == lb.match_vectors
        gains.append(speedup(nlb.total_simulated_seconds,
                             lb.total_simulated_seconds))
        rows.append([name, secs(nlb), secs(lb),
                     sig(lb.total_infrastructure_seconds), round(gains[-1], 2)])
    return Table(
        ["pattern", "NLB sim s", "LB sim s", "LB rebalance s", "LB speedup"],
        rows,
        {
            "identical match vectors with and without rebalancing": identical,
            "rebalancing pays for some pattern: a gain > 1.1 [array]":
                any(g > 1.1 for g in gains),
            "rebalancing is never catastrophic: every gain > 0.7 [array]":
                all(g > 0.7 for g in gains),
        },
    )


@experiment("E6.ordering", "Fig. 9(b) top: NLCC constraint ordering, WDC-2 "
                           "(k=2) [reference]")
def constraint_ordering() -> Table:
    ordered = wdc(wdc2_template, 2, backend="reference")
    unordered = wdc(wdc2_template, 2, backend="reference",
                    constraint_ordering=False)
    rows = [[name, messages(r, "nlcc"), secs(r)]
            for name, r in (("rare-first", ordered), ("unordered", unordered))]
    return Table(
        ["constraint_ordering", "NLCC msgs", "sim s"], rows,
        {
            "identical match vectors": same_vectors([ordered, unordered]),
            "rare-first sends fewer NLCC messages than unordered [reference]":
                messages(ordered, "nlcc") < messages(unordered, "nlcc"),
        },
        [f"unordered / rare-first NLCC messages: "
         f"{ratio(messages(unordered, 'nlcc'), messages(ordered, 'nlcc'))}x"],
    )


@experiment("E6.prototypes", "Fig. 9(b) middle: prototype ordering on 4 "
                             "replicas, WDC-3 (k=3) [array]")
def prototype_ordering() -> Table:
    results = {
        name: wdc(wdc3_template, 3, parallel_deployments=4,
                  prototype_ordering=lpt, prototype_cost_source="measured")
        for name, lpt in (("LPT", True), ("round-robin", False))
    }
    gain = speedup(results["round-robin"].total_simulated_seconds,
                   results["LPT"].total_simulated_seconds)
    return Table(
        ["prototype_ordering", "sim s"],
        [[name, secs(r)] for name, r in results.items()],
        {
            "identical match vectors": same_vectors(results.values()),
            "LPT is no worse than round-robin: gain >= 0.95 [array]":
                gain >= 0.95,
        },
    )


@experiment("E6.extension", "Fig. 9(b) bottom: 4-motif counts by one-edge "
                            "extension vs re-search [array]")
def enumeration_extension() -> Table:
    graph = gnm_graph(250, 625, num_labels=1, seed=0)
    fast = count_motifs(graph, 4, default_options(enumeration_optimization=True))
    slow = count_motifs(graph, 4, default_options())
    return Table(
        ["enumeration_optimization", "msgs", "sim s"],
        [[name, messages(c.result), secs(c.result)]
         for name, c in (("extend child matches", fast),
                         ("re-search every level", slow))],
        {
            "identical induced counts": fast.induced == slow.induced,
            "extension beats re-search > 1.2x in simulated time [array]":
                speedup(slow.result.total_simulated_seconds,
                        fast.result.total_simulated_seconds) > 1.2,
            "extension sends fewer messages [array]":
                messages(fast.result) < messages(slow.result),
        },
    )


@experiment("E7", "§5.4: reloading WDC-3 (k=3) on smaller deployments of 16 "
                  "ranks [array]")
def deployments() -> Table:
    parallel = {
        splits: wdc(wdc3_template, 3, num_ranks=16, parallel_deployments=splits,
                    reload_ranks=16, prototype_cost_source="measured")
        for splits in (1, 2, 4, 8)
    }
    sequential = {
        ranks: wdc(wdc3_template, 3, num_ranks=16, reload_ranks=ranks)
        for ranks in (16, 8, 4, 2)
    }
    rows = [[f"parallel x{s}", 16 // s, secs(r), None]
            for s, r in parallel.items()]
    cpu = {ranks: r.total_simulated_seconds * ranks
           for ranks, r in sequential.items()}
    rows += [[f"sequential on {ranks}", ranks, secs(r), sig(cpu[ranks])]
             for ranks, r in sequential.items()]
    times = {s: r.total_simulated_seconds for s, r in parallel.items()}
    return Table(
        ["deployment", "ranks each", "sim s", "CPU s"], rows,
        {
            "identical match vectors in every deployment":
                same_vectors([*parallel.values(), *sequential.values()]),
            "parallel replicas cut time: min(x2, x4, x8) < x1 [array]":
                min(times[2], times[4], times[8]) < times[1],
            "2 ranks cost fewer CPU seconds than 16 [array]": cpu[2] < cpu[16],
        },
        [f"parallel x8 is {ratio(times[1], times[8])}x faster than x1 "
         "(paper: up to 10.3x)",
         f"16 ranks cost {ratio(cpu[16], cpu[2])}x the CPU seconds of 2 "
         "(paper: 50x between 128 and 2 nodes)"],
    )


def _use_case(graph, template, k: int, prototypes: int) -> Table:
    result = run_pipeline(graph, template, k, default_options(count_matches=True))
    precise = result.outcome_for(result.prototype_set.at(0)[0].id).match_mappings
    total = result.total_match_mappings()
    return Table(
        ["prototypes", "mappings", "precise mappings", "matched vertices",
         "sim s"],
        [[len(result.prototype_set), total, precise, len(result.match_vectors),
          secs(result)]],
        {
            f"{prototypes} prototypes, as in the paper":
                len(result.prototype_set) == prototypes,
            "the 10 planted instances are found: precise mappings >= 10":
                precise >= 10,
            "relaxed matches dominate: mappings > precise mappings":
                total > precise,
        },
    )


@experiment("E8.rdt1", "§5.5: RDT-1 (k=1) on the Reddit-like graph [array]")
def use_case_rdt1() -> Table:
    return _use_case(reddit_background(), rdt1_template(), 1, 5)


@experiment("E8.imdb1", "§5.5: IMDB-1 (k=2) on the IMDb-like graph [array]")
def use_case_imdb1() -> Table:
    return _use_case(imdb_background(), imdb1_template(), 2, 7)


@experiment("E8.exploratory", "§5.5: WDC-4 top-down exploratory search "
                              "(6-clique, max k=4) [array]")
def use_case_exploratory() -> Table:
    result = exploratory_search(wdc_background(), wdc4_template(), max_k=4,
                                options=default_options())
    levels = result.levels
    return Table(
        ["k", "prototypes", "matched vertices", "sim s"],
        [[lvl.distance, lvl.num_prototypes, lvl.union_vertices,
          sig(lvl.search_seconds)] for lvl in levels],
        {
            "the walk stops at the planted relaxation: k = 2":
                stopping_distance(result) == 2,
            "exactly 1 + 15 + 105 prototypes are searched":
                sum(lvl.num_prototypes for lvl in levels) == 121,
            "the last level matches and no level before it does":
                levels[-1].union_vertices > 0
                and all(lvl.union_vertices == 0 for lvl in levels[:-1]),
        },
    )


#: sized so every 3-motif run and all 4-motif runs but the densest graph's
#: fit: the paper's memory wall that OOMs Arabesque on LiveJournal
ARABESQUE_BUDGET_BYTES = 8_000_000
#: the paper's (Arabesque, HGT) times per (graph, motif size)
PAPER_ARABESQUE = {
    ("citeseer", 3): ("9.2s", "0.02s"), ("mico", 3): ("34.0s", "11.0s"),
    ("patent", 3): ("2.9min", "1.6s"), ("youtube", 3): ("40min", "12.7s"),
    ("livejournal", 3): ("11min", "10.3s"),
    ("citeseer", 4): ("11.8s", "0.03s"), ("mico", 4): ("3.4hr", "57min"),
    ("patent", 4): ("3.3hr", "2.3min"), ("youtube", 4): ("7hr+", "34min"),
    ("livejournal", 4): ("OOM", "1.3hr"),
}


@experiment("E9", "§5.6: motif counting, Arabesque vs HGT, simulated "
                  "8 MB cluster budget [array]")
def arabesque() -> Table:
    rows, ooms, same_counts, citeseer = [], {3: [], 4: []}, True, []
    for size in (3, 4):
        for name in SUITE_SHAPES:
            hgt = count_motifs(suite_graph(name), size,
                               default_options(enumeration_optimization=True))
            hgt_s = hgt.result.total_simulated_seconds
            try:
                other = arabesque_count_motifs(
                    suite_graph(name), size, num_ranks=DEFAULT_RANKS,
                    memory_limit_bytes=ARABESQUE_BUDGET_BYTES)
            except MemoryLimitExceeded:
                ooms[size].append(name)
                rows.append([size, name, "OOM", sig(hgt_s), None,
                             *PAPER_ARABESQUE[name, size]])
                continue
            ours = {canonical_form(p.graph): hgt.induced[p.id]
                    for p in hgt.prototypes}
            same_counts = same_counts and hgt.total_induced() == (
                other.total_embeddings()) and all(
                ours[key] == value for key, value in other.counts.items())
            gain = speedup(other.simulated_seconds, hgt_s)
            if name == "citeseer":
                citeseer.append(gain)
            rows.append([size, name, sig(other.simulated_seconds), sig(hgt_s),
                         round(gain, 1), *PAPER_ARABESQUE[name, size]])
    return Table(
        ["size", "graph", "Arabesque sim s", "HGT sim s", "HGT speedup",
         "paper Arabesque", "paper HGT"],
        rows,
        {
            "HGT and Arabesque count alike wherever Arabesque finishes":
                same_counts,
            "every 3-motif run fits the budget": not ooms[3],
            "Arabesque runs out of memory on LiveJournal 4-motifs":
                "livejournal" in ooms[4],
            "HGT beats Arabesque > 3x on CiteSeer, 3- and 4-motifs":
                len(citeseer) == 2 and min(citeseer) > 3.0,
        },
    )


@experiment("E10", "§5.7: message analysis, naive vs HGT on WDC-2 (k=2) "
                   "[reference]")
def message_analysis() -> Table:
    hgt = wdc(wdc2_template, 2, backend="reference")
    nve = wdc(wdc2_template, 2, naive_search, backend="reference")
    remote = [r.message_summary["remote_fraction"] for r in (nve, hgt)]
    mstar = messages(hgt, "max_candidate_set") / messages(hgt)
    return Table(
        ["metric", "naive", "HGT", "naive / HGT"],
        [
            ["messages", messages(nve), messages(hgt),
             ratio(messages(nve), messages(hgt))],
            ["remote share", round(remote[0], 3), round(remote[1], 3), None],
            ["M* share", None, round(mstar, 3), None],
            ["sim s", secs(nve), secs(hgt),
             ratio(nve.total_simulated_seconds, hgt.total_simulated_seconds)],
        ],
        {
            "identical match vectors": same_vectors([hgt, nve]),
            "HGT sends > 1.2x fewer messages than naive [reference]":
                speedup(messages(nve), messages(hgt)) > 1.2,
            "HGT is faster than naive [reference]":
                hgt.total_simulated_seconds < nve.total_simulated_seconds,
            "remote shares within 0.25 of each other [reference]":
                abs(remote[0] - remote[1]) < 0.25,
            "M* carries a visible share of HGT's messages: > 0.5% "
            "[reference]": mstar > 0.005,
        },
    )


@experiment("E11.topology", "Fig. 11(a): memory of topology vs algorithm "
                            "state, WDC-like graph")
def memory_topology() -> Table:
    breakdown = memory_breakdown(wdc_background())
    shares = relative_breakdown(breakdown)
    return Table(
        ["category", "bytes", "share"],
        [[name, breakdown[name], round(shares[name], 3)]
         for name in ("topology", "static")],
        {"topology is 60-95% of memory (paper: ~86%)":
            0.6 < shares["topology"] < 0.95},
    )


@experiment("E11.peak", "Fig. 11(b): peak memory, naive vs HGT on WDC-2 "
                        "(k=2) [array]")
def memory_peak() -> Table:
    graph = wdc_background()
    topology, static = topology_bytes(graph), static_state_bytes(graph)
    dynamic = {}
    for name, search in (("naive", naive_search), ("HGT", run_pipeline)):
        dynamic[name] = (wdc(wdc2_template, 2, search).message_summary[
                             "peak_interval_messages"]
                         * DEFAULT_RANKS * MESSAGE_BYTES)
    return Table(
        ["system", "topology bytes", "static bytes", "dynamic bytes",
         "total bytes"],
        [[name, topology, static, peak, topology + static + peak]
         for name, peak in dynamic.items()],
        {"pruning does not enlarge peak queue state: HGT <= naive [array]":
            dynamic["HGT"] <= dynamic["naive"]},
        [f"naive / HGT dynamic state: {ratio(dynamic['naive'], dynamic['HGT'])}x"
         " (paper: ~4.6x)"],
    )


@experiment("E12", "Fig. 12: locality, WDC-2 (k=2) on 24 ranks of 6-core "
                   "nodes [array]")
def locality() -> Table:
    results = {
        per_node: wdc(wdc2_template, 2, num_ranks=24, ranks_per_node=per_node,
                      cost_model=CostModel(oversubscription=max(1.0, per_node / 6)))
        for per_node in (24, 12, 8, 4, 2, 1)
    }
    times = {n: r.total_simulated_seconds for n, r in results.items()}
    best = min(times, key=times.get)
    return Table(
        ["nodes", "ranks/node", "oversubscription", "sim s"],
        [[-(-24 // n), n, round(max(1.0, n / 6), 2), sig(t)]
         for n, t in times.items()],
        {
            "identical match vectors": same_vectors(results.values()),
            "interior optimum: neither 24 nor 1 ranks/node is best, and the "
            "best beats both [array]":
                best not in (24, 1) and times[best] < min(times[24], times[1]),
        },
    )


#: template -> (factory, k, level counts the paper pins)
PAPER_PROTOTYPES = {
    "WDC-1 (Fig. 3 shape)": (wdc1_template, 2, [1, 7, 12]),
    "RMAT-1": (rmat1_template, 2, [1, 7, 16]),
    "WDC-2": (wdc2_template, 2, [1, 7, 15]),
    "WDC-3": (wdc3_template, 4, [1, 9, 33, 61, 52]),
    "WDC-4 (6-clique)": (wdc4_template, 4, [1, 15, 105, 455, 1365]),
    "RDT-1": (rdt1_template, 1, [1, 4]),
    "IMDB-1": (imdb1_template, 2, [1, 3, 3]),
}


@experiment("E13", "Figs. 3-5, §5.5, §5.6: prototype counts")
def prototype_counts() -> Table:
    rows = []
    for name, (template, k, _) in PAPER_PROTOTYPES.items():
        counts = generate_prototypes(template(), k).level_counts()
        rows.append([name, k, counts, sum(counts)])
    for size in (3, 4):
        counts = motif_prototypes(size).level_counts()
        rows.append([f"{size}-motifs", len(counts) - 1, counts, sum(counts)])
    measured = {row[0]: row[2] for row in rows}
    claims = {
        f"{name}: levels {expected}": measured[name] == expected
        for name, (_, _, expected) in PAPER_PROTOTYPES.items()
    }
    claims["2 three-vertex and 6 four-vertex motifs"] = (
        sum(measured["3-motifs"]) == 2 and sum(measured["4-motifs"]) == 6)
    claims["the 6-clique has 1941 prototypes within k=4"] = (
        sum(measured["WDC-4 (6-clique)"]) == 1941)
    return Table(["template", "k", "per level", "total"], rows, claims)


@experiment("E14.wildcards", "extension: wildcard triangle org-edu-? (k=1) "
                             "[array]")
def wildcards() -> Table:
    template = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 0)],
        labels={0: domain_label("org"), 1: domain_label("edu"), 2: WILDCARD},
        name="org-edu-?",
    )
    result = run_wildcard_pipeline(wdc_background(), template, 1,
                                   default_options(), max_instantiations=400)
    closing = result.instantiations_with_matches()
    return Table(
        ["instantiations", "with matches", "matched vertices", "sim s"],
        [[len(result.per_instantiation), len(closing),
          len(result.matched_vertices()), secs(result)]],
        {
            "the wildcard fans out to >= 2 instantiations":
                len(result.per_instantiation) >= 2,
            "the planted triangles close for some label": bool(closing),
        },
    )


@experiment("E14.flips", "extension: WDC-1's one-flip family [array]")
def flips() -> Table:
    template = wdc1_template()
    result = run_flip_pipeline(wdc_background(), template, flips=1,
                               options=default_options(), max_variants=400)
    return Table(
        ["variants", "with matches", "family M* vertices", "sim s"],
        [[len(result.variants), len(result.variants_with_matches()),
          result.candidate_set_vertices, secs(result)]],
        {
            "the family starts with the template itself":
                result.variants[0].graph == template.graph,
            "some variant matches": bool(result.variants_with_matches()),
        },
    )


@experiment("E14.walk-cost", "extension: constraint_ordering, frequency "
                             "heuristic vs walk-cost, WDC-2 (k=2) [array]")
def walk_cost_ordering() -> Table:
    results = {name: wdc(wdc2_template, 2, constraint_ordering=ordering)
               for name, ordering in (("frequency", True), ("walk-cost", "walk-cost"))}
    nlcc = {name: messages(r, "nlcc") for name, r in results.items()}
    share = speedup(nlcc["walk-cost"], nlcc["frequency"])
    return Table(
        ["constraint_ordering", "NLCC msgs", "sim s"],
        [[name, nlcc[name], secs(r)] for name, r in results.items()],
        {
            "identical match vectors": same_vectors(results.values()),
            "same cost regime: 0.5 < frequency / walk-cost NLCC msgs < 2 "
            "[array]": 0.5 < 1 / share < 2.0,
        },
        [f"walk-cost sends {share:.2f}x the frequency heuristic's NLCC "
         "messages"],
    )


@experiment("E14.simulation", "extension: dual simulation vs exact "
                              "matching, WDC-2 (k=0)")
def simulation_gap() -> Table:
    exact = wdc(wdc2_template, 0).matched_vertices()
    simulated = dual_simulation(wdc_background(), wdc2_template()).matched_vertices()
    return Table(
        ["system", "matched vertices", "false positives", "precision"],
        [["exact pipeline", len(exact), 0, 1.0],
         ["dual simulation", len(simulated), len(simulated - exact),
          round(len(exact) / len(simulated), 3)]],
        {
            "dual simulation never misses a match": exact <= simulated,
            "duplicate labels and shared cycles fool dual simulation":
                bool(simulated - exact),
        },
    )


def _census_digest(counts) -> Dict[str, tuple]:
    """Motif name -> (non-induced, induced)."""
    noninduced, induced = counts.by_name(False), counts.by_name(True)
    return {name: (noninduced[name], induced[name]) for name in noninduced}


def _census(batched: bool):
    """One 4-motif census of MOTIF-BATCH: (wall seconds, counts)."""
    graph, options = motif_batch_background(), default_options()
    started = time.perf_counter()
    if batched:
        counts = count_motifs(graph, 4, options, batched=True)
    else:
        counts = count_motifs_sequential(graph, 4, options)
    return time.perf_counter() - started, counts


@experiment("EB1", "batched 4-motif census vs a per-motif pipeline loop, "
                   "MOTIF-BATCH")
def batched_census() -> Table:
    _, sequential = _census(batched=False)
    _, batched = _census(batched=True)
    stats = batched.batch.stats_document()
    digest = _census_digest(batched)
    return Table(
        ["motif", "non-induced", "induced"],
        [[name, *pair] for name, pair in sorted(digest.items())],
        {
            "batched and sequential counts are identical for every motif":
                digest == _census_digest(sequential),
            "prototype searches start on an auxiliary view: reuse > 0":
                stats["aux_views"]["reuse"] > 0,
        },
        [f"{stats['root_runs']} root runs for {stats['classes']} classes; "
         f"{stats['aux_views']['built']} auxiliary views built, "
         f"{stats['aux_views']['reuse']} reused"],
    )


@experiment("EB1.wall", "batched census wall clock, best of 3 (never "
                        "recorded)", recorded=False)
def batched_census_wall() -> Table:
    walls, digests = {True: [], False: []}, {True: set(), False: set()}
    for _ in range(3):
        for batched in (False, True):
            wall, counts = _census(batched)
            walls[batched].append(wall)
            digests[batched].add(tuple(sorted(_census_digest(counts).items())))
    gain = speedup(min(walls[False]), min(walls[True]))
    return Table(
        ["census", "best wall s"],
        [["sequential", round(min(walls[False]), 3)],
         ["batched", round(min(walls[True]), 3)]],
        {
            "3 repeats give the same counts in both modes":
                len(digests[True]) == len(digests[False]) == 1,
            "the batched census is >= 2x faster (best of 3 wall clock)":
                gain >= 2.0,
        },
        [f"sequential / batched: {gain:.2f}x"],
    )


def select(ids: Sequence[str], registry: Dict[str, Experiment]) -> List[Experiment]:
    """The experiments ``ids`` name (each an id or an id's prefix before
    a dot); all of ``registry`` for none."""
    def names(i: str, eid: str) -> bool:
        return eid == i or eid.startswith(i + ".")

    unknown = [i for i in ids if not any(names(i, eid) for eid in registry)]
    if unknown:
        raise SystemExit(f"unknown experiment id: {', '.join(unknown)}")
    return [exp for eid, exp in registry.items()
            if not ids or any(names(i, eid) for i in ids)]


def record(exp: Experiment, table: Table) -> dict:
    """``table`` as ``EXPERIMENTS.json`` stores it."""
    return json.loads(json.dumps({
        "title": exp.title, "headers": table.headers, "rows": table.rows,
        "claims": list(table.claims), "notes": table.notes,
    }))


def drift(entries: Dict[str, dict], recorded: Dict[str, dict]) -> List[str]:
    """One line per experiment whose entry differs from ``recorded``."""
    problems = []
    for eid, entry in entries.items():
        old = recorded.get(eid)
        if old is None:
            problems.append(f"{eid}: not recorded in EXPERIMENTS.json")
            continue
        for key, new in entry.items():
            was = old.get(key)
            if key == "rows" and was is not None and len(new) == len(was):
                problems += [f"{eid}: row {i} drifted: {n} (recorded {w})"
                             for i, (n, w) in enumerate(zip(new, was)) if n != w]
            elif new != was:
                problems.append(f"{eid}: {key} drifted: {new} (recorded {was})")
    return problems


def markdown(entry: dict) -> str:
    """One recorded entry as a Markdown table with its claims and notes."""
    def cell(value) -> str:
        text = "—" if value is None else str(value)
        return text.replace("|", "\\|")

    lines = ["| " + " | ".join(cell(h) for h in entry["headers"]) + " |",
             "|" + "---|" * len(entry["headers"])]
    lines += ["| " + " | ".join(cell(v) for v in row) + " |"
              for row in entry["rows"]]
    lines.append("")
    lines += [f"- checked: {claim}" for claim in entry["claims"]]
    lines += [f"- {note}" for note in entry["notes"]]
    return "\n".join(lines)


def write(entries: Dict[str, dict], registry: Dict[str, Experiment],
          root: Path) -> None:
    """Merge ``entries`` into ``EXPERIMENTS.json`` and re-render every
    generated block of EXPERIMENTS.md from it."""
    json_path, md_path = root / "EXPERIMENTS.json", root / "EXPERIMENTS.md"
    recorded = json.loads(json_path.read_text()) if json_path.exists() else {}
    recorded.update(entries)
    recorded = {eid: e for eid, e in recorded.items() if eid in registry}
    text = md_path.read_text()
    for eid, entry in recorded.items():
        start = f"<!-- generated: {eid} -->\n"
        block = re.compile(re.escape(start) + ".*?<!-- end generated -->",
                           re.DOTALL)
        if not block.search(text):
            raise SystemExit(f"EXPERIMENTS.md has no {start.strip()} block")
        rendered = f"{start}{markdown(entry)}\n<!-- end generated -->"
        text = block.sub(lambda _: rendered, text)
    json_path.write_text(json.dumps(recorded, indent=1, sort_keys=True,
                                    ensure_ascii=False) + "\n")
    md_path.write_text(text)


def main(argv: Optional[Sequence[str]] = None,
         registry: Dict[str, Experiment] = EXPERIMENTS, root: Path = ROOT) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ids", nargs="*", help="ids or id prefixes (default: all)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="record the rows in EXPERIMENTS.json and .md")
    mode.add_argument("--check", action="store_true",
                      help="fail on rows that differ from EXPERIMENTS.json")
    args = parser.parse_args(argv)

    problems, entries = [], {}
    for exp in select(args.ids, registry):
        table = exp.run()
        print(f"\n{exp.eid} — {exp.title}\n")
        print(format_table(table.headers, table.rows))
        for claim, holds in table.claims.items():
            print(f"  [{'ok' if holds else 'FAILED'}] {claim}")
            if not holds:
                problems.append(f"{exp.eid}: claim failed: {claim}")
        for note in table.notes:
            print(f"  {note}")
        if exp.recorded:
            entries[exp.eid] = record(exp, table)
    if args.check:
        path = root / "EXPERIMENTS.json"
        recorded = json.loads(path.read_text()) if path.exists() else {}
        problems += drift(entries, recorded)
    if args.write and not problems:
        write(entries, registry, root)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
