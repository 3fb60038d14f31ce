"""The paper runner (benchmarks/paper.py): claims hold and rows match
EXPERIMENTS.json for every experiment quick enough for Tier-1; a failed
claim and a drifted row fail the run, naming the experiment."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))

import paper  # noqa: E402

#: the slowest ids, 4-11 s each on 2 cores; CI's ``paper.py --check``
#: step runs them, and EB1.wall, with the rest
SLOW = {"E2", "E4.reference", "E6.ordering", "E7", "E9", "E10"}
QUICK = [eid for eid, exp in paper.EXPERIMENTS.items()
         if exp.recorded and eid not in SLOW]
RECORDED = json.loads((ROOT / "EXPERIMENTS.json").read_text())


@pytest.mark.parametrize("eid", QUICK)
def test_claims_hold_and_rows_match_the_record(eid):
    experiment = paper.EXPERIMENTS[eid]
    table = experiment.run()
    assert [c for c, holds in table.claims.items() if not holds] == []
    assert paper.drift({eid: paper.record(experiment, table)}, RECORDED) == []


def test_every_experiment_is_recorded_and_rendered():
    recorded = {eid for eid, exp in paper.EXPERIMENTS.items() if exp.recorded}
    assert set(RECORDED) == recorded
    markdown = (ROOT / "EXPERIMENTS.md").read_text()
    for eid in recorded:
        block = f"<!-- generated: {eid} -->\n{paper.markdown(RECORDED[eid])}\n"
        assert block + "<!-- end generated -->" in markdown, eid


def stub(holds=True, value=1):
    return {"X1": paper.Experiment(
        "X1", "stub", lambda: paper.Table(["a"], [[value]], {"a claim": holds}))}


def test_a_failed_claim_exits_nonzero(tmp_path, capsys):
    assert paper.main(["X1"], registry=stub(holds=False), root=tmp_path) == 1
    assert "X1: claim failed: a claim" in capsys.readouterr().err


def test_a_drifted_row_is_reported_with_its_id(tmp_path, capsys):
    registry = stub(value=1)
    entry = paper.record(registry["X1"], registry["X1"].run())
    entry["rows"] = [[2]]
    (tmp_path / "EXPERIMENTS.json").write_text(json.dumps({"X1": entry}))
    assert paper.main(["X1", "--check"], registry=registry, root=tmp_path) == 1
    assert "X1: row 0 drifted: [1] (recorded [2])" in capsys.readouterr().err


def test_write_then_check_round_trips(tmp_path):
    registry = stub()
    (tmp_path / "EXPERIMENTS.md").write_text(
        "# E\n<!-- generated: X1 -->\nold\n<!-- end generated -->\n")
    assert paper.main(["X1", "--write"], registry=registry, root=tmp_path) == 0
    written = (tmp_path / "EXPERIMENTS.json").read_bytes()
    assert "| a |\n|---|\n| 1 |" in (tmp_path / "EXPERIMENTS.md").read_text()
    assert paper.main(["X1", "--write"], registry=registry, root=tmp_path) == 0
    assert (tmp_path / "EXPERIMENTS.json").read_bytes() == written
    assert paper.main(["X1", "--check"], registry=registry, root=tmp_path) == 0
