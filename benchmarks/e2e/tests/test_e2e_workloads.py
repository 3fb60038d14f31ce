"""Seeded inputs: deterministic, pinned, and answer-preserving."""

import hashlib

import pytest

import workloads


def _materialise(name, seed, directory, pins=None):
    return workloads.materialise_input(
        name, seed, "quick", directory, pins or workloads.load_pins()
    )


def _stream_order(seed, data_dir):
    workload = workloads.WORKLOADS["paper-stream"]
    files = {name: _materialise(name, seed, data_dir) for name in workload.inputs}
    graphs = workloads.load_graphs(files)
    return [q.qid for q in workload.queries(graphs, seed, workloads.SIZES["quick"])]


def test_stream_is_deterministic_per_seed(data_dir):
    first = _stream_order(5, data_dir)
    assert first == _stream_order(5, data_dir)
    other = _stream_order(6, data_dir)
    assert other != first and sorted(other) == sorted(first)
    assert len(set(first)) == len(first)


def test_catalogue_has_the_166_prototype_derived_entries(data_dir):
    files = {
        name: _materialise(name, 0, data_dir)
        for name in workloads.WORKLOADS["paper-stream"].inputs
    }
    catalogue = workloads.stream_catalogue(workloads.load_graphs(files))
    assert len(catalogue) == 166
    per_row = {}
    for query in catalogue:
        per_row[query.qid.split("/")[0]] = per_row.get(query.qid.split("/")[0], 0) + 1
    assert per_row == {
        "RMAT-1": 33, "WDC-1": 29, "WDC-2": 32, "WDC-3": 54, "RDT-1": 6, "IMDB-1": 12,
    }
    # mandatory edges survive the re-issue
    rdt = next(q for q in catalogue if q.qid.startswith("RDT-1/"))
    assert len(rdt.template.mandatory_edges) == 4


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    def digest(item):
        return hashlib.sha256(
            item.edge_path.read_bytes() + item.labels_path.read_bytes()
        ).hexdigest()

    first = digest(_materialise("imdb", 4, tmp_path / "a"))
    assert first == digest(_materialise("imdb", 4, tmp_path / "b"))
    assert first != digest(_materialise("imdb", 5, tmp_path / "c"))


def test_permutation_is_a_relabelling_of_the_canonical_graph(tmp_path):
    item = _materialise("storm", 9, tmp_path)
    canonical = workloads.GENERATORS["storm"](workloads.SIZES["quick"])
    loaded = workloads.load_graphs({"storm": item})["storm"]
    assert loaded.num_vertices == canonical.num_vertices
    back = item.canonical_of
    assert sorted(back) == sorted(back.values()) == sorted(canonical.vertices())
    assert any(new != old for new, old in back.items())
    assert {tuple(sorted((back[u], back[v]))) for u, v in loaded.edges()} == {
        tuple(sorted(edge)) for edge in canonical.edges()
    }
    assert all(loaded.label(v) == canonical.label(back[v]) for v in loaded.vertices())


def test_generator_drift_is_a_hard_error_naming_the_generator(tmp_path):
    pins = workloads.load_pins()
    pins["imdb"] = dict(pins["imdb"], canonical="0" * 64)
    with pytest.raises(workloads.InputDrift, match="_imdb.*'imdb'"):
        _materialise("imdb", 0, tmp_path, pins)


def test_permutation_drift_is_caught_on_pinned_seeds(tmp_path):
    pins = workloads.load_pins()
    assert {"0", "1"} <= set(pins["imdb"]["files"])
    pins["imdb"] = dict(pins["imdb"], files={"1": {"el": "x", "labels": "y"}})
    _materialise("imdb", 2, tmp_path, pins)  # unpinned seed: nothing to compare
    with pytest.raises(workloads.InputDrift, match="seed 1"):
        _materialise("imdb", 1, tmp_path, pins)


def test_fingerprints_do_not_depend_on_the_seed(quick_documents, data_dir):
    """Seed 0 ran in the fixture; the held-out seed 1 must agree with it."""
    import harness

    for name in workloads.WORKLOADS:
        document = harness.run_workload(
            name, seed=1, seconds=0.0, trace=False, preset="quick",
            data_dir=data_dir, log=lambda line: None,
        )
        assert document["correct"], name
        assert document["attempted"] == quick_documents[(name, False)]["attempted"]
