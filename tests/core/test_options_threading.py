"""Every public driver hands its ``options`` down to each prototype search.

A driver that drops its ``options`` argument on the way down — or passes
a fresh ``PipelineOptions()`` — runs its searches on the defaults, and
nothing fails: the answers stay exact, only the configuration is
ignored.  Each driver here runs with ``num_ranks=3`` (the default is 4),
and a spy on :func:`~repro.core.pipeline.search_one`, the one place a
prototype search is made, checks that every search it makes runs on a
three-rank partition.

Handing the options down is not enough: each driver must act on the
options that decide a run's scope and deployment.  The driver × option
matrix runs every driver with defaults and with one of
``search_space_reduction=False``, ``reload_ranks=2``,
``parallel_deployments=2`` and ``enumeration_optimization=True``, and
each cell either moves a stated quantity (:func:`quantities`) or raises
:class:`~repro.errors.PipelineError` where the option cannot apply.

The same drivers, run untraced on either backend, keep the hot modules
(:data:`HOT_MODULES`) off the tracer: a spy on the null tracer's
methods finds no call with a hot-module frame on its stack.  Counter
arithmetic in a hot loop must sit behind ``tracer.enabled``, so an
untraced run pays one attribute check and nothing else.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.core import (
    BatchQuery,
    PatternTemplate,
    PipelineOptions,
    count_motifs,
    count_motifs_sequential,
    exploratory_search,
    naive_options,
    naive_search,
    run_batch,
    run_flip_pipeline,
    run_pipeline,
)
from repro.core import pipeline
from repro.core.restart import resume_pipeline, run_pipeline_with_checkpoints
from repro.core.wildcards import WILDCARD, run_wildcard_pipeline
from repro.errors import PipelineError
from repro.graph.generators import gnm_graph, planted_graph
from repro.runtime import trace

RANKS = 3
assert PipelineOptions().num_ranks != RANKS


def options():
    return PipelineOptions(num_ranks=RANKS)


#: a labeled triangle with a tail, planted three times
TEMPLATE = PatternTemplate.from_edges(
    [(0, 1), (1, 2), (2, 0), (2, 3)], {0: 1, 1: 2, 2: 3, 3: 4}, name="tri-tail"
)
WILD = PatternTemplate.from_edges(
    TEMPLATE.edges(), {0: 1, 1: 2, 2: 3, 3: WILDCARD}, name="tri-wild"
)


@pytest.fixture(scope="module")
def graph():
    labels = [TEMPLATE.label(v) for v in sorted(TEMPLATE.vertices())]
    return planted_graph(
        60, 150, TEMPLATE.edges(), labels, copies=3, num_labels=5, seed=5
    )


@pytest.fixture(scope="module")
def unlabeled():
    return gnm_graph(30, 70, num_labels=1, seed=7)


def resumed(graph, tmp_path, searches, opts):
    """Crash a default-options run after its first level, then resume it
    with ``opts``: only the resumed searches are checked."""
    k = 1
    with pytest.raises(RuntimeError, match="injected failure"):
        run_pipeline_with_checkpoints(
            graph, TEMPLATE, k, tmp_path, PipelineOptions(),
            fail_after_level=k,
        )
    searches.clear()
    return resume_pipeline(graph, TEMPLATE, tmp_path, opts)


DRIVERS = {
    "run_pipeline": lambda g, u, tmp, s, o: run_pipeline(g, TEMPLATE, 1, o),
    "exploratory_search": lambda g, u, tmp, s, o: exploratory_search(
        g, TEMPLATE, max_k=1, stop_condition=lambda level: False,
        options=o,
    ),
    "count_motifs": lambda g, u, tmp, s, o: count_motifs(
        u, 3, options=o, batched=False
    ),
    "count_motifs_batched": lambda g, u, tmp, s, o: count_motifs(
        u, 3, options=o, batched=True
    ),
    "count_motifs_sequential": lambda g, u, tmp, s, o: count_motifs_sequential(
        u, 3, options=o
    ),
    "naive_search": lambda g, u, tmp, s, o: naive_search(g, TEMPLATE, 1, o),
    "run_flip_pipeline": lambda g, u, tmp, s, o: run_flip_pipeline(
        g, TEMPLATE, flips=1, options=o
    ),
    "run_wildcard_pipeline": lambda g, u, tmp, s, o: run_wildcard_pipeline(
        g, WILD, 1, o
    ),
    "run_pipeline_with_checkpoints": lambda g, u, tmp, s, o: (
        run_pipeline_with_checkpoints(g, TEMPLATE, 1, tmp, o)
    ),
    "resume_pipeline": lambda g, u, tmp, s, o: resumed(g, tmp, s, o),
    "run_batch": lambda g, u, tmp, s, o: run_batch(
        g, [BatchQuery(TEMPLATE, 1)], o
    ),
}


@pytest.fixture
def searches(monkeypatch):
    """Ranks of the partition each prototype search ran on, in order.

    Patches ``search_one`` in every loaded ``repro`` module that binds
    it, so a driver that imports it by name is spied on as well.
    """
    original = pipeline.search_one
    seen = []

    def spy(proto, scope, warm_mask, pgraph, *args, **kwargs):
        seen.append(pgraph.num_ranks)
        return original(proto, scope, warm_mask, pgraph, *args, **kwargs)

    binders = [
        module for name, module in list(sys.modules.items())
        if name.startswith("repro.")
        and getattr(module, "search_one", None) is original
    ]
    assert pipeline in binders
    for module in binders:
        monkeypatch.setattr(module, "search_one", spy)
    return seen


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_search_sees_the_callers_options(
    driver, graph, unlabeled, tmp_path, searches
):
    DRIVERS[driver](graph, unlabeled, tmp_path / "ckpt", searches, options())
    assert searches, f"{driver} made no prototype search"
    assert set(searches) == {RANKS}


#: the options that decide a run's scope and deployment, one value each
MATRIX_OPTIONS = {
    "search_space_reduction": False,
    "reload_ranks": 2,
    "parallel_deployments": 2,
    "enumeration_optimization": True,
}
#: what each option moves on a driver that honours it: the run's messages
#: per phase (``M*``'s gone, every prototype searched from the unpruned
#: graph), the ranks every search runs on, simulated seconds that drop to
#: the replicas' makespan, and matches derived by extension
MOVES = {
    "search_space_reduction": "messages",
    "reload_ranks": "ranks",
    "parallel_deployments": "fewer seconds",
    "enumeration_optimization": "extensions",
}
#: cells that differ from :data:`MOVES`.  A 3-motif census searches one
#: motif per level, so replicas cannot overlap; its replicas show in the
#: ranks.  Exploratory levels, flip families and per-motif ``k = 0`` runs
#: have no level below to extend from, so they reject the extension.
CELLS = {
    **{
        (census, "parallel_deployments"): "ranks"
        for census in (
            "count_motifs", "count_motifs_batched", "count_motifs_sequential"
        )
    },
    **{
        (driver, "enumeration_optimization"): "raises"
        for driver in (
            "exploratory_search", "run_flip_pipeline", "count_motifs_sequential"
        )
    },
}


def runs(result):
    """The pipeline runs (or flip family) behind one driver's result."""
    if hasattr(result, "per_instantiation"):
        return list(result.per_instantiation.values())
    if hasattr(result, "class_results"):
        return list(result.class_results.values())
    if hasattr(result, "noninduced"):
        return [result.result]
    return [result]


@pytest.fixture
def extensions(monkeypatch):
    """Prototypes the enumeration optimization tried to derive."""
    original = pipeline._try_extension
    seen = []

    def spy(proto, *args, **kwargs):
        seen.append(proto.id)
        return original(proto, *args, **kwargs)

    monkeypatch.setattr(pipeline, "_try_extension", spy)
    return seen


def quantities(driver, graph, unlabeled, directory, searches, extensions, opts):
    """One driver run's stated quantities under ``opts``."""
    searches.clear()
    extensions.clear()
    result = runs(DRIVERS[driver](graph, unlabeled, directory, searches, opts))
    messages = {}
    for run in result:
        for phase, counts in run.message_summary["phases"].items():
            messages[phase] = messages.get(phase, 0) + counts["messages"]
    return {
        "messages": messages,
        "ranks": set(searches),
        "seconds": sum(r.total_simulated_seconds for r in result),
        "extensions": len(extensions),
    }


@pytest.mark.parametrize("option", sorted(MATRIX_OPTIONS))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_every_driver_acts_on_the_scope_and_deployment_options(
    driver, option, graph, unlabeled, tmp_path, searches, extensions
):
    value = MATRIX_OPTIONS[option]
    changed = dataclasses.replace(options(), **{option: value})
    run = lambda name, opts: quantities(  # noqa: E731
        driver, graph, unlabeled, tmp_path / name, searches, extensions, opts
    )
    if driver == "naive_search":
        # The naive baseline pins these fields by definition: whatever the
        # caller sets, it runs without M*, reload, replicas or extension.
        assert getattr(naive_options(changed), option) == getattr(
            naive_options(), option
        )
        assert run("changed", changed) == run("default", options())
        return
    expected = CELLS.get((driver, option), MOVES[option])
    if expected == "raises":
        with pytest.raises(PipelineError, match="enumeration_optimization"):
            run("changed", changed)
        return
    default, moved = run("default", options()), run("changed", changed)
    if expected == "fewer seconds":
        assert moved["seconds"] < default["seconds"]
    else:
        assert moved[expected] != default[expected], expected
    if expected == "ranks":
        assert moved["ranks"] == {
            max(1, (value if option == "reload_ranks" else RANKS)
                // changed.parallel_deployments)
        }


HOT_MODULES = (
    "core/lcc.py", "core/nlcc.py", "core/kernels.py", "graph/csr.py",
    "core/arraystate/",
)


@pytest.fixture
def tracer_calls(monkeypatch):
    """Per null-tracer call: the hot-module frames on its stack."""
    calls = []

    def spied(cls, method):
        original = getattr(cls, method)

        def spy(*args, **kwargs):
            frame, hot = sys._getframe(1), []
            while frame is not None:
                path = Path(frame.f_code.co_filename).as_posix()
                hot += [path for module in HOT_MODULES
                        if f"/repro/{module}" in path]
                frame = frame.f_back
            calls.append((method, hot))
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, spy)

    spied(trace._NullSpan, "add")
    for method in ("add", "record_span", "span"):
        spied(trace.NullTracer, method)
    return calls


@pytest.mark.parametrize("backend", ["array", "reference"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_untraced_hot_modules_never_reach_the_tracer(
    driver, backend, graph, unlabeled, tmp_path, searches, tracer_calls
):
    opts = PipelineOptions(num_ranks=RANKS, backend=backend)
    DRIVERS[driver](graph, unlabeled, tmp_path / "ckpt", searches, opts)
    assert tracer_calls, f"{driver} opened no span"
    assert [call for call in tracer_calls if call[1]] == []
