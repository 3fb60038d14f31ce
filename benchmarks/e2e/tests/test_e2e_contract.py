"""BENCHMARK.json and what the command prints describe each other."""

import json
import re
import subprocess
import sys

import pytest

import harness
import run

SPEC = json.loads(run.SPEC.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"][0] == "python3"
    assert SPEC["command"][1].startswith("benchmarks/e2e/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len(run.SPEC.read_bytes()) <= 64 * 1024


def test_names_units_and_bounds_are_within_the_limits():
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_spec_and_harness_name_the_same_things():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOAD_NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


def test_every_spec_metric_is_in_the_output_and_vice_versa(quick_documents):
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for (name, traced), document in quick_documents.items():
        assert set(document["metrics"]) == (per_layer if traced else end_to_end), name
        for metric, entry in document["metrics"].items():
            assert NAME.fullmatch(metric)
            assert isinstance(entry["value"], (int, float)), (name, metric)
        if not traced:
            assert all(e["value"] > 0 for e in document["metrics"].values()), name


def test_documents_record_the_environment(quick_documents):
    for document in quick_documents.values():
        environment = document["environment"]
        assert {"nproc", "python", "numpy", "git_commit", "seed", "machine_probe_s"} <= set(
            environment
        )
        assert document["rounds"] >= 1 and environment["machine_probe_s"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_command_line_prints_the_result_object_last(trace, tmp_path):
    completed = subprocess.run(
        [
            sys.executable, str(run.HERE / "run.py"), "--workload", "motif-census",
            "--seed", "2", "--seconds", "0", "--trace", str(trace), "--quick",
            "--out", str(tmp_path / "doc.json"), "--data-dir", str(tmp_path / "data"),
        ],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert "NOT COMPARABLE" in completed.stdout
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert metric["name"] in completed.stdout
    document = json.loads((tmp_path / "doc.json").read_text())
    assert document["environment"]["seed"] == 2
    assert (tmp_path / "doc.spans.jsonl").exists() == bool(trace)


def test_command_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail."""
    import shutil

    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        run.HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".data", ".out", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "token-storm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert not completed.stdout.strip().startswith("{")
