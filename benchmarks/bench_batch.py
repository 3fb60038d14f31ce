"""E-B1 — template-library batching: one shared census vs a pipeline loop.

Not a paper figure: this benchmark guards the PR that added the
template-library batch executor (``core/batch.py``).  The workload is a
4-vertex motif census on MOTIF-BATCH — a small single-label core carrying
the actual motif population plus triangle "dust" carrying the vast
majority of the graph's edges that no 4-vertex motif can touch.  Two
ways to run the census:

* *sequential* — ``count_motifs_sequential``: one independent exact
  ``run_pipeline`` per motif (six for size 4), each recompiling the role
  kernel, regenerating prototypes, re-running the ``M*`` traversal and
  re-scanning the dust (the R7-flagged loop shape);
* *batched* — ``count_motifs(..., batched=True)``: family absorption
  folds all six motifs back into one clique-rooted pipeline, the shared
  caches compile everything once, and after the deepest level the run
  drops onto a core-only :meth:`GraphCsr.induced_view` auxiliary view.

Both paths must report **bit-identical** induced and non-induced counts
for every motif — the speedup can never come from counting differently —
and the batched run must report auxiliary-view reuse (pruned-view
prototype searches) in its stats document.  The acceptance bar on the
end-to-end ratio is >=2x on MOTIF-BATCH.

Run directly (``python benchmarks/bench_batch.py``) for the full suite,
``--smoke`` for the CI-sized subset, or via pytest-benchmark.
"""

import platform
import sys
import time

import pytest

from repro.analysis import format_table, speedup
from repro.core import PipelineOptions, count_motifs, count_motifs_sequential
from common import (
    DEFAULT_RANKS,
    motif_batch_background,
    print_header,
)

REPEATS = 3

#: the workload the acceptance bar is pinned to
ACCEPTANCE_WORKLOAD = "MOTIF-BATCH"
#: required end-to-end sequential-over-batched ratio on the acceptance row
SPEEDUP_BAR = 2.0
#: census size (6 connected motifs, the §5.6 four-vertex set)
MOTIF_SIZE = 4


def batch_workloads():
    """(name, graph factory, motif size) rows for this bench."""
    return [
        ("MOTIF-BATCH", motif_batch_background, MOTIF_SIZE),
    ]


def _options():
    return PipelineOptions(num_ranks=DEFAULT_RANKS)


def _census_digest(counts):
    """Order-independent count digest: motif name → (non-induced, induced)."""
    noninduced = counts.by_name(induced=False)
    induced = counts.by_name(induced=True)
    return {name: (noninduced[name], induced[name]) for name in noninduced}


def _batched_once(graph, size):
    start = time.perf_counter()
    counts = count_motifs(graph, size, _options(), batched=True)
    wall = time.perf_counter() - start
    return wall, counts


def _sequential_once(graph, size):
    start = time.perf_counter()
    counts = count_motifs_sequential(graph, size, _options())
    wall = time.perf_counter() - start
    return wall, counts


def run_suite(repeats=REPEATS, workloads=None):
    """Benchmark every workload in both census modes; returns the payload."""
    rows = []
    for name, graph_factory, size in (workloads or batch_workloads()):
        graph = graph_factory()
        timings = {"sequential": [], "batched": []}
        digests = {}
        batch_stats = None
        for _ in range(repeats):
            wall, counts = _sequential_once(graph, size)
            timings["sequential"].append(wall)
            digest = _census_digest(counts)
            assert digests.setdefault("sequential", digest) == digest, (
                f"{name}: sequential counts vary across repeats"
            )
            wall, counts = _batched_once(graph, size)
            timings["batched"].append(wall)
            digest = _census_digest(counts)
            assert digests.setdefault("batched", digest) == digest, (
                f"{name}: batched counts vary across repeats"
            )
            batch_stats = counts.batch.stats_document()
        aux = batch_stats["aux_views"]
        rows.append({
            "name": name,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "motifs": len(digests["batched"]),
            "census": {
                mode: {"wall_seconds": min(walls)}
                for mode, walls in timings.items()
            },
            "speedup_batched_census": speedup(
                min(timings["sequential"]), min(timings["batched"])
            ),
            "counts_equal": digests["sequential"] == digests["batched"],
            "counts": {
                motif: list(pair)
                for motif, pair in sorted(digests["batched"].items())
            },
            "batch": {
                "root_runs": batch_stats["root_runs"],
                "classes": batch_stats["classes"],
                "families": batch_stats["families"],
                "mstar_memo": batch_stats["mstar_memo"],
                "aux_views_built": aux["built"],
                "aux_view_reuse": aux["reuse"],
            },
        })
    return {
        "experiment": "E-B1 template-library batched census benchmark",
        "methodology": {
            "timer": (
                "time.perf_counter around the whole census call "
                "(count_motifs_sequential vs count_motifs(batched=True))"
            ),
            "repeats": repeats,
            "aggregation": "best-of (min wall time per mode)",
            "ranks": DEFAULT_RANKS,
            "motif_size": MOTIF_SIZE,
            "python": platform.python_version(),
            "acceptance": (
                f">={SPEEDUP_BAR:.0f}x end-to-end speedup for the "
                f"{MOTIF_SIZE}-vertex motif census on "
                f"{ACCEPTANCE_WORKLOAD} vs the sequential per-template "
                "loop; bit-identical induced and non-induced counts; "
                "auxiliary-view reuse > 0 in the batch stats document"
            ),
        },
        "workloads": rows,
    }


def check_acceptance(payload):
    """Assert counts parity, view reuse and the speedup bar."""
    for row in payload["workloads"]:
        assert row["counts_equal"], (
            f"{row['name']}: batched census counts diverge from sequential"
        )
    target = next(
        r for r in payload["workloads"] if r["name"] == ACCEPTANCE_WORKLOAD
    )
    assert target["batch"]["aux_view_reuse"] > 0, (
        f"{target['name']}: no prototype search started on an auxiliary "
        "view (aux_view_reuse == 0)"
    )
    assert target["speedup_batched_census"] >= SPEEDUP_BAR, (
        f"{target['name']}: batched census speedup "
        f"{target['speedup_batched_census']:.2f}x < {SPEEDUP_BAR:.0f}x"
    )
    return target


def report(payload):
    rows = []
    for row in payload["workloads"]:
        census = row["census"]
        batch = row["batch"]
        rows.append([
            row["name"] + (" *" if row["name"] == ACCEPTANCE_WORKLOAD else ""),
            f"{row['vertices']}/{row['edges']}",
            row["motifs"],
            f"{census['sequential']['wall_seconds']:.2f}s",
            f"{census['batched']['wall_seconds']:.2f}s",
            f"{row['speedup_batched_census']:.2f}x",
            f"{batch['root_runs']}/{batch['classes']}",
            batch["aux_view_reuse"],
            "yes" if row["counts_equal"] else "NO",
        ])
    print(format_table(
        ["workload", "V/E", "motifs", "sequential", "batched", "speedup",
         "runs/classes", "view reuse", "same counts"],
        rows,
    ))
    print(f"* acceptance workload (>={SPEEDUP_BAR:.0f}x batched census)")


@pytest.mark.benchmark(group="batch")
def test_batched_census_speedup(benchmark):
    print_header("E-B1 — batched motif census vs per-template pipeline loop")
    payload = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    report(payload)
    target = check_acceptance(payload)
    assert target["speedup_batched_census"] >= SPEEDUP_BAR


def smoke_suite():
    """The CI-sized subset: the acceptance workload at fewer repeats."""
    return run_suite(repeats=2)


def main(argv):
    smoke = "--smoke" in argv
    if smoke:
        payload = smoke_suite()
        report(payload)
        check_acceptance(payload)
        print("smoke OK")
        return 0
    payload = run_suite()
    report(payload)
    check_acceptance(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
