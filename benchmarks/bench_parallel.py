"""E-P1 — worker-pool shipping: dict pickles vs shared-memory bitmaps.

Not a paper figure: this benchmark guards the PR that rebuilt the worker
pool around one shared-memory CSR segment (``runtime/shm.py``) with
packed-bitmap task payloads (``PoolTask`` kind ``"array"``).  Three
measurements per workload:

* *payload bytes* — the pickled wire size of every level-0/1 task in
  the reference backend's ``dict`` form vs the array backend's packed
  ``array`` form (bitmaps over the shared CSR); the acceptance bar is a
  >=10x reduction on SHM-NLCC-STRESS, deterministic, no timer involved;
* *ship + setup* — round-trip ``pickle.dumps``/``loads`` plus the
  worker-side starting-state rebuild (dict: ``SearchState`` from
  candidate/edge lists; array: ``ArraySearchState.from_scope_payload``
  over the memoized CSR), best-of-``REPEATS``;
* *pooled end to end* — ``run_pipeline`` with ``worker_processes=2``,
  whole-call wall clock; the pooled run and the sequential oracle must
  report identical matched vertices and match mappings.

Run directly (``python benchmarks/bench_parallel.py``) for the full
suite, ``--smoke`` for the acceptance workload alone, or via
pytest-benchmark.
"""

import pickle
import platform
import sys
import time

import pytest

from repro.analysis import format_table, speedup
from repro.core import PipelineOptions, SearchState, run_pipeline
from repro.core.arraystate import ArraySearchState, csr_of
from repro.core.candidate_set import max_candidate_arrays
from repro.core.prototypes import generate_prototypes
from repro.runtime import Engine, MessageStats, PartitionedGraph
from repro.runtime.parallel import array_task, dict_task
from common import (
    DEFAULT_RANKS,
    kernel_stress_background,
    kernel_stress_template,
    nlcc_stress_background,
    nlcc_stress_template,
    print_header,
)

REPEATS = 3

#: the workload the acceptance bar is pinned to
ACCEPTANCE_WORKLOAD = "SHM-NLCC-STRESS"
#: required dict-over-array wire-size ratio on the acceptance workload
PAYLOAD_REDUCTION_BAR = 10.0
#: pool size of the end-to-end runs
WORKERS = 2
#: edit distance of every run (level 1 has multiple prototypes → pooled)
K = 1
#: end-to-end pooled runs are seconds each — best-of-2 tames scheduler
#: noise
PIPELINE_REPEATS = 2


def shm_workloads():
    """(name, graph factory, template factory) rows for this bench."""
    return [
        ("SHM-KERNEL-STRESS", kernel_stress_background,
         kernel_stress_template),
        ("SHM-NLCC-STRESS", nlcc_stress_background, nlcc_stress_template),
    ]


def _options(**overrides):
    """The array backend's configuration (pooled: shm bitmaps)."""
    return PipelineOptions(
        num_ranks=DEFAULT_RANKS, count_matches=True, **overrides
    )


def _level_scopes(graph, template):
    """Every prototype's starting scope, cut from M* in both forms."""
    engine = Engine(
        PartitionedGraph(graph, DEFAULT_RANKS), MessageStats(DEFAULT_RANKS)
    )
    base_astate = max_candidate_arrays(graph, template, engine)
    base_state = base_astate.to_search_state()
    scopes = []
    for proto in generate_prototypes(template, K, None):
        scopes.append((
            proto,
            base_state.for_prototype_search(proto),
            base_astate.for_prototype_search(proto),
        ))
    return scopes


def _payload_bytes(scopes):
    """Total pickled wire size of the level's tasks, per payload kind."""
    dict_bytes = sum(
        len(pickle.dumps(dict_task(proto.id, state)))
        for proto, state, _astate in scopes
    )
    array_bytes = sum(
        len(pickle.dumps(array_task(proto.id, astate)))
        for proto, _state, astate in scopes
    )
    return dict_bytes, array_bytes


def _ship_setup_once(graph, scopes, kind):
    """One timed dumps → loads → worker-side state rebuild pass."""
    csr = csr_of(graph)
    start = time.perf_counter()
    for proto, state, astate in scopes:
        if kind == "dict":
            task = pickle.loads(pickle.dumps(dict_task(proto.id, state)))
            candidates_payload, edges_payload = task.data
            candidates = {v: set(roles) for v, roles in candidates_payload}
            active_edges = {v: set() for v in candidates}
            for u, v in edges_payload:
                active_edges.setdefault(u, set()).add(v)
                active_edges.setdefault(v, set()).add(u)
            SearchState(graph, candidates, active_edges)
        else:
            task = pickle.loads(pickle.dumps(array_task(proto.id, astate)))
            vertex_bits, edge_bits, _warm = task.data
            ArraySearchState.from_scope_payload(
                csr, proto, vertex_bits, edge_bits
            )
    return time.perf_counter() - start


def _pipeline_once(graph, template):
    """One pooled end-to-end run; returns (wall, result digest)."""
    start = time.perf_counter()
    result = run_pipeline(
        graph, template, K, _options(worker_processes=WORKERS)
    )
    wall = time.perf_counter() - start
    return wall, {
        "matched_vertices": len(result.match_vectors),
        "match_mappings": result.total_match_mappings(),
    }


def run_suite(repeats=REPEATS, workloads=None, pipeline=True):
    """Benchmark every workload x payload kind; returns the JSON payload."""
    rows = []
    for name, graph_factory, template_factory in (
        workloads or shm_workloads()
    ):
        graph = graph_factory()
        template = template_factory()
        scopes = _level_scopes(graph, template)
        dict_bytes, array_bytes = _payload_bytes(scopes)

        ship = {}
        for kind in ("dict", "array"):
            best = min(
                _ship_setup_once(graph, scopes, kind)
                for _ in range(repeats)
            )
            ship[kind] = {"wall_seconds": best}
        row = {
            "name": name,
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "tasks": len(scopes),
            "payload_bytes": {"dict": dict_bytes, "array": array_bytes},
            "payload_bytes_reduction": speedup(dict_bytes, array_bytes),
            "ship_setup": ship,
            "speedup_ship_setup": speedup(
                ship["dict"]["wall_seconds"], ship["array"]["wall_seconds"]
            ),
        }

        if pipeline:
            sequential = run_pipeline(graph, template, K, _options())
            oracle = {
                "matched_vertices": len(sequential.match_vectors),
                "match_mappings": sequential.total_match_mappings(),
            }
            best, digest = None, None
            for _ in range(PIPELINE_REPEATS):
                wall, run_digest = _pipeline_once(graph, template)
                assert digest is None or run_digest == digest, (
                    f"{name}: pooled results vary across runs"
                )
                digest = run_digest
                if best is None or wall < best:
                    best = wall
            row["pipeline"] = dict(wall_seconds=best, **digest)
            row["results_equal"] = digest == oracle
        rows.append(row)
    return {
        "experiment": "E-P1 worker-pool payload shipping benchmark",
        "methodology": {
            "timer": (
                "time.perf_counter around dumps/loads/state-rebuild "
                "(ship+setup) / run_pipeline (end to end); payload bytes "
                "are len(pickle.dumps(task)), no timer"
            ),
            "repeats": repeats,
            "pipeline_repeats": PIPELINE_REPEATS,
            "aggregation": "best-of (min wall time per payload kind)",
            "ranks": DEFAULT_RANKS,
            "workers": WORKERS,
            "k": K,
            "python": platform.python_version(),
            "acceptance": (
                f">={PAYLOAD_REDUCTION_BAR:.0f}x smaller pickled task "
                "payloads (array bitmaps vs dict lists) on "
                f"{ACCEPTANCE_WORKLOAD}; identical matched vertices and "
                "match mappings across sequential and pooled runs"
            ),
        },
        "workloads": rows,
    }


def check_acceptance(payload):
    """Assert the wire-size bar; returns the acceptance workload's row."""
    for row in payload["workloads"]:
        if "results_equal" in row:
            assert row["results_equal"], (
                f"{row['name']}: pooled results diverge from sequential"
            )
    target = next(
        r for r in payload["workloads"] if r["name"] == ACCEPTANCE_WORKLOAD
    )
    assert target["payload_bytes_reduction"] >= PAYLOAD_REDUCTION_BAR, (
        f"{target['name']}: payload reduction "
        f"{target['payload_bytes_reduction']:.2f}x < "
        f"{PAYLOAD_REDUCTION_BAR:.0f}x"
    )
    return target


def report(payload):
    rows = []
    for row in payload["workloads"]:
        pipe = row.get("pipeline")
        rows.append([
            row["name"] + (" *" if row["name"] == ACCEPTANCE_WORKLOAD else ""),
            f"{row['vertices']}/{row['edges']}",
            f"{row['payload_bytes']['dict'] / 1024:.0f}K",
            f"{row['payload_bytes']['array'] / 1024:.1f}K",
            f"{row['payload_bytes_reduction']:.0f}x",
            f"{row['speedup_ship_setup']:.1f}x",
            f"{pipe['wall_seconds']:.2f}s" if pipe else "-",
            ("yes" if row["results_equal"] else "NO") if pipe else "-",
        ])
    print(format_table(
        ["workload", "V/E", "dict bytes", "array bytes", "reduction",
         "ship speedup", "pooled wall", "same results"],
        rows,
    ))
    print(f"* acceptance workload "
          f"(>={PAYLOAD_REDUCTION_BAR:.0f}x payload reduction)")


@pytest.mark.benchmark(group="parallel")
def test_shm_payload_reduction(benchmark):
    print_header("E-P1 — pool shipping: dict pickles vs shared-memory bitmaps")
    payload = benchmark.pedantic(run_suite, rounds=1, iterations=1)
    report(payload)
    target = check_acceptance(payload)
    assert target["payload_bytes_reduction"] >= PAYLOAD_REDUCTION_BAR


def smoke_suite():
    """The acceptance workload only, fewer repeats."""
    workloads = [w for w in shm_workloads() if w[0] == ACCEPTANCE_WORKLOAD]
    return run_suite(repeats=2, workloads=workloads, pipeline=True)


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
