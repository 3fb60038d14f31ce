"""Wrappers are installed only for traced stretches and always restored."""

import sys
import warnings

import pytest

import tracing


def _bindings():
    """Every (module, attribute) -> object binding in the repro namespaces."""
    import repro.core.arraystate as arraystate

    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for attribute, value in vars(module).items():
                if callable(value):
                    found[(name, attribute)] = value
    for attribute in ("from_search_state", "to_search_state"):
        found[("ArraySearchState", attribute)] = vars(
            arraystate.ArraySearchState
        )[attribute]
    return found


def test_install_rebinds_importers_and_restores_everything():
    import repro.core
    import repro.core.nlcc
    import repro.core.pipeline

    before = _bindings()
    recorder = tracing.Recorder()
    with tracing.installed(recorder) as state:
        assert not state.missing
        # the defining module, the package re-export and an importer
        assert repro.core.run_pipeline is repro.core.pipeline.run_pipeline
        assert repro.core.run_pipeline is not before[("repro.core", "run_pipeline")]
        assert (
            repro.core.pipeline.max_candidate_set
            is not before[("repro.core.pipeline", "max_candidate_set")]
        )
        changed = {
            key for key, value in _bindings().items() if before.get(key) is not value
        }
        assert ("ArraySearchState", "from_search_state") in changed
        assert len(changed) == len(state.rebound) >= len(tracing.TARGETS)
    assert _bindings() == before


def test_install_restores_when_the_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Recorder()):
            raise RuntimeError("query failed")
    assert _bindings() == before


def test_missing_target_warns_and_marks_its_layer():
    targets = tracing.TARGETS + (
        tracing.Target("walk", "repro.core.arraystate", "moved_away"),
        tracing.Target("gone", "repro.core.no_such_module", "f"),
        tracing.Target("convert", "repro.core.arraystate", "NoSuchClass.method"),
    )
    before = _bindings()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracing.installed(tracing.Recorder(), targets) as state:
            assert state.missing == ["walk", "gone", "convert"]
    assert len(caught) == 3 and "moved_away" in str(caught[0].message)
    assert _bindings() == before


def test_missing_layer_metrics_read_null_not_crash():
    import harness

    one_round = harness.layer_values([], harness.Counts(), 1.0)
    metrics, unstable = harness._per_layer(
        [one_round, one_round], [], 1.0, {}, ["walk", "csr"], 0.01, 0.03
    )
    assert list(metrics) == list(harness.PER_LAYER_UNITS)
    assert metrics["walk.s"] is None and metrics["walk.ms_per_call"] is None
    assert metrics["csr.calls"] is None and metrics["csr.build_s"] is None
    assert metrics["nlcc.self_s"] == 0.0 and metrics["io.load_s"] == 0.0
    assert unstable == []


def test_counts_that_move_between_rounds_are_named():
    import harness

    first = harness.layer_values([], harness.Counts({"enum.mappings": 5}), 1.0)
    second = harness.layer_values([], harness.Counts({"enum.mappings": 7}), 1.2)
    metrics, unstable = harness._per_layer(
        [first, second], [], 1.0, {}, [], 0.0, 0.03
    )
    assert unstable == ["enum.mappings"]
    assert metrics["bench.unstable_counts"] == 1


def test_untraced_run_installs_nothing(data_dir, monkeypatch):
    import harness

    def forbidden(*args, **kwargs):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(tracing, "installed", forbidden)
    before = _bindings()
    document = harness.run_workload(
        "motif-census", seed=0, seconds=0.0, trace=False, preset="quick",
        data_dir=data_dir, log=lambda line: None,
    )
    assert document["correct"] and not document["spans"]
    assert _bindings() == before


def test_traced_run_leaves_no_wrapper_behind(quick_documents):
    import repro.core
    import repro.core.pipeline

    assert repro.core.run_pipeline.__module__ == "repro.core.pipeline"
    assert not hasattr(repro.core.run_pipeline, "__wrapped__")
    assert not hasattr(repro.core.pipeline.search_prototype, "__wrapped__")


@pytest.mark.parametrize("name", ["clique-explore", "motif-census"])
def test_traced_fingerprints_equal_untraced(name, data_dir):
    import calibration
    import harness
    import workloads

    workload = workloads.WORKLOADS[name]
    sizes = workloads.SIZES["quick"]
    pins = workloads.load_pins()
    files = {
        key: workloads.materialise_input(key, 3, "quick", data_dir, pins)
        for key in workload.inputs
    }
    graphs = workloads.load_graphs(files)
    prepared = harness.Prepared(graphs, workload.queries(graphs, 3, sizes))

    plain, traced = {}, {}
    sampler = calibration.Sampler()
    harness.run_round(prepared, files, None, sampler, observed=plain)
    recorder = tracing.Recorder(sampler.clock)
    with tracing.installed(recorder):
        harness.run_round(
            prepared, files, None, sampler, recorder, harness.Counts(),
            observed=traced,
        )
    assert recorder.take(), "the traced round recorded no span"
    assert plain == traced == workloads.load_expected(name, "quick")


def test_every_quick_run_is_correct_and_traced_runs_see_the_layers(quick_documents):
    for (name, traced), document in quick_documents.items():
        assert document["correct"] and document["failed"] == 0, (name, traced)
        assert not document["comparable"]
    spans = quick_documents[("token-storm", True)]["spans"]
    names = {span[tracing.NAME] for span in spans}
    assert {tracing.ROOT, "pipeline", "search", "lcc", "nlcc", "walk"} <= names


def test_dumped_spans_of_all_traced_rounds_form_proper_trees(quick_documents):
    for (name, traced), document in quick_documents.items():
        if not traced:
            continue
        spans = document["spans"]
        roots = [s for s in spans if s[tracing.PARENT] < 0]
        assert len(roots) == document["traced_rounds"] * document["queries_per_round"]
        assert document["traced_rounds"] >= 2
        for index, span in enumerate(spans):
            if span[tracing.PARENT] < 0:
                continue
            parent = spans[span[tracing.PARENT]]
            assert span[tracing.PARENT] < index, name
            assert parent[tracing.QUERY] == span[tracing.QUERY], name
            assert parent[tracing.START] <= span[tracing.START], name
            assert span[tracing.END] <= parent[tracing.END], name
