"""The run report (``stats_document()``): pinned, and told by one producer.

Every count of a run has one producer: the engine's ``MessageStats`` for
the model's traffic, the run's ``MetricsRegistry`` for everything else.
The report is assembled from windows over that registry, so this test
holds the assembled document to what the hand-copied telemetry reported
before, on both backends, for the four drivers that write one: the
bottom-up sweep, the exploratory sweep, a template batch and a
checkpointed run.

``fixtures/run_report_parent.json`` was written by this module's
``__main__`` (``PYTHONPATH=src python tests/core/test_run_report.py``)
against the commit before the report was derived from windows.  Wall
seconds and the process-wide memo counters (``cache.kernel.*``,
``cache.label_view.*``, ``cache.shape.*``, whose traffic depends on what
ran earlier in the process) are left out.  Every value
it holds is unchanged, except that the batch document lost the keys in
:data:`REMOVED` (``schema`` 2); the report only gained the keys in
:data:`ADDED` and the registry counters in :data:`NEW_COUNTERS`.  Every
case runs with ``pipeline.AUX_VIEW_RATIO`` patched to 1.0, so the
in-process array runs build the ``M*`` view and a level view wherever one
is sound.

The other tests hold the report to what each count's producer saw: every
counter a run moves, in whichever registry, against the report's
counters; an exploratory level's scheduling against the bottom-up
sweep's; and a trace's spans against the report.
"""

import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.analysis.runreport import constraint_breakdown, load_report
from repro.core import (
    BatchQuery,
    PatternTemplate,
    PipelineOptions,
    exploratory_search,
    run_batch,
    run_pipeline,
)
from repro.core.memos import clear_memos
import repro.core.pipeline as pipeline_module
from repro.core.restart import run_pipeline_with_checkpoints
from repro.core.results import SCHEMA
from repro.graph.generators import planted_graph
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.trace import Tracer

FIXTURE = Path(__file__).parent / "fixtures" / "run_report_parent.json"
EDGES = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 0)]
LABELS = [1, 2, 3, 4, 5]
K = 2
BACKENDS = ("array", "reference")
DRIVERS = ("bottom-up", "exploratory", "batch", "checkpointed")

#: keys the report gained: its layout version, and in schema 2 each
#: batch class's messages
ADDED = {"schema"} | {f"per_class.{i}.messages" for i in range(3)}

#: keys the batch document lost in schema 2, with its own ``M*`` view
#: (``run_batch`` runs every class through ``run_pipeline``)
REMOVED = {"aux_views.shipped", "aux_views.view_sizes"}

#: registry counters that are new, because the registry now produces the
#: counts that were hand-copied onto outcomes, results and spans
NEW_COUNTERS = {
    "aux_view.built",
    "aux_view.edges",
    "aux_view.reuse",
    "aux_view.vertices",
    "lcc.iterations",
    "level.prototypes",
    "level.union_edges",
    "level.union_vertices",
    "nlcc.completions",
    "nlcc.constraints_checked",
    "nlcc.dedup_merged",
    "nlcc.roles_eliminated",
    "nlcc.rows_expanded",
    "nlcc.tokens_launched",
    "search.post_lcc_edges",
    "search.post_lcc_vertices",
}


def workload(seed=33):
    graph = planted_graph(
        60, 140, EDGES, LABELS, copies=3, num_labels=6, seed=seed
    )
    template = PatternTemplate.from_edges(
        EDGES, {i: l for i, l in enumerate(LABELS)}, name="ring+chord"
    )
    return graph, template


def options(backend, **overrides):
    base = dict(num_ranks=2, backend=backend, count_matches=True)
    base.update(overrides)
    return PipelineOptions(**base)


def never(_level):
    return False


def batch_queries(template):
    triangle = PatternTemplate.from_edges(
        [(0, 1), (1, 2), (2, 0)], {0: 1, 1: 2, 2: 3}, name="tri"
    )
    path = PatternTemplate.from_edges(
        [(0, 1), (1, 2)], {0: 1, 1: 2, 2: 3}, name="path"
    )
    return [
        BatchQuery(template, 1, name="ring"),
        BatchQuery(triangle, 0, name="tri"),
        BatchQuery(path, 0, name="path"),
    ]


def documents(driver, backend, workdir):
    """``{name: stats document}`` of one driver on one backend."""
    with mock.patch.object(pipeline_module, "AUX_VIEW_RATIO", 1.0):
        return _documents(driver, backend, workdir)


def _documents(driver, backend, workdir):
    graph, template = workload()
    if driver == "bottom-up":
        return {"run": run_pipeline(graph, template, K, options(backend))
                .stats_document()}
    if driver == "exploratory":
        return {"run": exploratory_search(
            graph, template, max_k=K, stop_condition=never,
            options=options(backend),
        ).stats_document()}
    if driver == "checkpointed":
        return {"run": run_pipeline_with_checkpoints(
            graph, template, K, workdir, options(backend)
        ).stats_document()}
    batch = run_batch(graph, batch_queries(template), options(backend))
    found = {"batch": batch.stats_document()}
    for name, result in sorted(batch.class_results.items()):
        found[name] = result.stats_document()
    return found


def _process_wide(name):
    """Counters whose value depends on what ran before in the process:
    the process-wide memos' (``repro.core.memos``)."""
    return name.startswith(("cache.kernel.", "cache.label_view.", "cache.shape."))


def normalized(value, key=None):
    """``value`` without wall seconds, floats to 12 significant digits."""
    if isinstance(value, dict):
        return {
            k: normalized(v, k)
            for k, v in value.items()
            if not (
                k.endswith("wall_seconds")
                or k.endswith("_seconds") and key in ("counters", "histograms")
                or _process_wide(k) and key in ("counters", "histograms")
                or k == "kernel_cache"
            )
        }
    if isinstance(value, (list, tuple)):
        return [normalized(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.12g}")
    return value


def flat(value, prefix=""):
    """Dotted path → leaf, lists indexed by position."""
    if isinstance(value, dict) and value:
        items = value.items()
    elif isinstance(value, list) and value:
        items = enumerate(value)
    else:
        return {prefix: value}
    out = {}
    for key, child in items:
        out.update(flat(child, f"{prefix}.{key}" if prefix else str(key)))
    return out


def record():
    """Every case's normalized documents, as the fixture stores them."""
    cases = {}
    for driver in DRIVERS:
        for backend in BACKENDS:
            with tempfile.TemporaryDirectory() as workdir:
                cases[f"{driver}/{backend}"] = normalized(
                    documents(driver, backend, workdir)
                )
    return cases


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("driver", DRIVERS)
def test_report_matches_parent(pinned, tmp_path, driver, backend):
    found = normalized(documents(driver, backend, tmp_path))
    expected = pinned[f"{driver}/{backend}"]
    assert sorted(found) == sorted(expected)
    new_counters = {f"metrics.counters.{counter}" for counter in NEW_COUNTERS}
    for name, document in found.items():
        now, then = flat(document), flat(expected[name])
        assert not REMOVED & set(now), name
        then = {path: v for path, v in then.items() if path not in REMOVED}
        added = set(now) - set(then)
        assert added <= ADDED | new_counters, (name, sorted(added))
        assert {path: now.get(path) for path in then} == then, name
        if "schema" in now:
            assert now["schema"] == SCHEMA == 4


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("driver", DRIVERS)
def test_every_counter_a_run_moves_is_reported(tmp_path, driver, backend):
    # a count kept where the report never looks is invisible: the
    # process-wide memos' registry (recreated here, inside the spy) must
    # reach the report through the run's ``cache.kernel.*``,
    # ``cache.label_view.*`` and ``cache.shape.*`` counters
    handles = []
    counter = MetricsRegistry.counter

    def spy(registry, name):
        handles.append(counter(registry, name))
        return handles[-1]

    with mock.patch.object(MetricsRegistry, "counter", spy):
        clear_memos()
        found = documents(driver, backend, tmp_path)
    reported = set().union(
        *(document["metrics"]["counters"] for document in found.values())
    )
    moved = {handle.name for handle in handles if handle.value}
    assert "lcc.iterations" in moved
    # from cold memos every run builds shape records, and the array
    # backend's M* runs on a label view
    assert "cache.shape.misses" in moved
    assert ("cache.label_view.misses" in moved) == (backend == "array")
    assert sorted(moved - reported) == []


@pytest.mark.parametrize("backend", BACKENDS)
class TestExploratoryLevels:
    """A top-down level ends in the bottom-up level epilogue."""

    def test_deployments_schedule_like_bottom_up(self, backend):
        # top-down cuts every scope from M*, bottom-up only its deepest
        # level's; with nothing recycled, a bottom-up run per k searches
        # its deepest level's prototypes as the top-down run searches them
        graph, template = workload()

        def options(deployments):
            return PipelineOptions(
                num_ranks=4, backend=backend, parallel_deployments=deployments,
                work_recycling=False,
            )

        def exploratory(deployments):
            result = exploratory_search(
                graph, template, max_k=K, stop_condition=never,
                options=options(deployments),
            )
            return {
                level.distance: level.search_seconds for level in result.levels
            }

        replicas = exploratory(4)
        assert replicas == {
            k: run_pipeline(graph, template, k, options(4))
            .level_for(k).search_seconds
            for k in range(K + 1)
        }
        assert replicas != exploratory(1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_trace_tells_what_the_report_tells(tmp_path, backend):
    graph, template = workload()
    tracer = Tracer()
    result = run_pipeline(graph, template, K, PipelineOptions(
        num_ranks=4, backend=backend, tracer=tracer,
    ))
    document = result.stats_document()
    messages = document["messages"]
    (pipeline,) = tracer.roots
    assert pipeline.total("messages") == messages["total_messages"]
    assert pipeline.total("remote_messages") == messages["remote_messages"]

    # one tree as recorded
    flat = tracer._flat_records()
    assert [r["name"] for r in flat if r["parent_id"] is None] == ["pipeline"]

    spans = {
        span.attrs["distance"]: span.counters for span in tracer.find("level")
    }
    for level in document["levels"]:
        counters = spans[level["distance"]]
        for key, counter in (
            ("prototypes", "level.prototypes"),
            ("union_vertices", "level.union_vertices"),
            ("union_edges", "level.union_edges"),
            ("post_lcc_vertices", "search.post_lcc_vertices"),
            ("post_lcc_edges", "search.post_lcc_edges"),
        ):
            assert counters.get(counter, 0) == level[key], key

    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path, stats=document)
    report = load_report(path)
    assert report.document == json.loads(json.dumps(document))
    rows = constraint_breakdown(report.spans)
    nlcc = document["nlcc"]
    for column, key in (
        ("tokens_launched", "tokens_launched"),
        ("completions", "completions"),
        ("eliminated_roles", "roles_eliminated"),
        ("cache_hits", "recycled"),
    ):
        assert sum(row[column] for row in rows) == nlcc[key], key
    assert sum(row["count"] for row in rows) == nlcc["constraints_checked"]
    assert sum(row["messages"] for row in rows) == (
        messages["phases"]["nlcc"]["messages"]
    )


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(record(), sort_keys=True) + "\n")
    sys.exit(0)
