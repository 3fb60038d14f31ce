"""Verdict rules of the interleaved A/B driver (benchmarks/ab_e2e.py)."""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

from argparse import Namespace  # noqa: E402

import pytest  # noqa: E402

import ab_e2e  # noqa: E402
from ab_e2e import setup_raw_seconds, summarize, verdict  # noqa: E402

PARENT = [1.40, 1.42, 1.44, 1.41, 1.43, 1.45, 1.39, 1.42, 1.44, 1.41]


def shifted(delta, values=PARENT):
    return [v + delta for v in values]


class TestVerdict:
    def test_nine_wins_and_a_gap_beyond_the_parent_iqr_is_improved(self):
        change = shifted(-0.8)
        change[3] = PARENT[3] + 0.01  # one lost pair of ten is allowed
        row = verdict(PARENT, change, "lower", 0.25)
        assert (row["wins"], row["losses"], row["pairs"]) == (9, 1, 10)
        assert row["verdict"] == "improved"

    def test_eight_wins_is_not_a_gain(self):
        change = shifted(-0.8)
        change[3] = PARENT[3] + 0.01
        change[4] = PARENT[4] + 0.01
        assert verdict(PARENT, change, "lower", 0.25)["verdict"] == "within bound"

    def test_a_gap_inside_the_parent_iqr_is_not_a_gain(self):
        row = verdict(PARENT, shifted(-0.001), "lower", 0.25)
        assert row["wins"] == 10
        assert row["verdict"] == "within bound"

    def test_ties_count_for_neither_side(self):
        row = verdict(PARENT, list(PARENT), "lower", 0.25)
        assert (row["wins"], row["losses"]) == (0, 0)
        assert row["verdict"] == "within bound"

    def test_median_worse_by_more_than_the_bound(self):
        assert verdict(PARENT, shifted(0.5), "lower", 0.25)["verdict"] == "worse"
        assert verdict(PARENT, shifted(-0.5), "higher", 0.25)["verdict"] == "worse"
        assert verdict(PARENT, shifted(0.5), "higher", 0.25)["verdict"] == "improved"

    def test_spread_wider_than_the_bound_is_unresolved_never_unchanged(self):
        noisy = [1.0, 2.0, 1.1, 2.1, 0.9, 1.9, 1.0, 2.0, 1.2, 1.8]
        row = verdict(noisy, [v + 0.01 for v in noisy], "lower", 0.05)
        assert row["verdict"] == "unresolved"
        # ... unless every run of the change beats every run of the parent
        # without amounting to a section-8 gain (gap inside the parent IQR)
        wide = [1.0, 1.0, 1.0, 5.0, 5.0, 5.0, 5.0, 9.0, 9.0, 9.0]
        better = [0.9] * 10
        assert verdict(wide, better, "lower", 0.05)["verdict"] == "within bound"


def run_document(setup_times, slowdown, wall=1.0):
    return {
        "failed": 0, "attempted": 3, "correct": True,
        "setup_times_s": setup_times, "setup_slowdown": slowdown,
        "metrics": {
            "setup_s": {"value": sorted(setup_times)[len(setup_times) // 2]},
            "wall_s": {"value": wall},
        },
    }


class TestSetupRawRow:
    METRICS = [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]

    def test_raw_seconds_undo_the_calibration(self):
        document = run_document([0.010, 0.012, 0.011], slowdown=1.5)
        assert abs(setup_raw_seconds(document) - 0.0165) < 1e-12

    def test_row_is_printed_under_setup_s_and_has_no_verdict(self, capsys):
        # equal raw seconds, different slowdown estimates: setup_s shifts
        runs = {
            "parent": [run_document([0.0164 / 1.61] * 3, 1.61) for _ in range(4)],
            "change": [run_document([0.0164 / 1.31] * 3, 1.31) for _ in range(4)],
        }
        args = Namespace(seed=100, pairs=4)
        summary = summarize("token-storm", runs, args, self.METRICS)
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split()[0] for line in lines if line.startswith("  ")]
        assert rows == ["setup_s", "setup", "wall_s"]
        raw_line = next(line for line in lines if "setup raw s" in line)
        assert "parent 0.0164" in raw_line and "change 0.0164" in raw_line
        assert "no verdict" in raw_line
        assert set(summary["metrics"]) == {"setup_s", "wall_s"}
        assert all(
            abs(value - 0.0164) < 1e-12
            for side in summary["setup_raw_s"].values() for value in side
        )

    def test_a_raw_shift_never_reads_worse(self, capsys):
        # ten times the raw seconds at a tenth of the slowdown: setup_s is
        # equal on both sides, and only setup_s is judged
        runs = {
            "parent": [run_document([0.01] * 3, 1.0) for _ in range(4)],
            "change": [run_document([0.01] * 3, 10.0) for _ in range(4)],
        }
        summary = summarize(
            "token-storm", runs, Namespace(seed=1, pairs=4), self.METRICS
        )
        capsys.readouterr()
        assert summary["metrics"]["setup_s"]["verdict"] == "within bound"
        assert "verdict" not in summary["setup_raw_s"]


def stub_export(dest, text="# stub\n"):
    (dest / "benchmarks" / "e2e").mkdir(parents=True)
    (dest / "benchmarks" / "e2e" / "run.py").write_text(text)


class TestFreshTreesPerPair:
    def test_a_different_benchmark_is_refused_before_any_run(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(ab_e2e, "export_ref", lambda ref, dest: stub_export(dest))
        monkeypatch.setattr(
            ab_e2e, "export_checkout", lambda dest: stub_export(dest, "# edited\n")
        )
        monkeypatch.setattr(ab_e2e, "run_side", None)  # never reached
        with pytest.raises(SystemExit, match="differs"):
            ab_e2e.main(["--parent", "HEAD", "--seed", "7", "--workdir", str(tmp_path)])

    def test_no_two_pairs_share_a_tree_and_none_outlives_its_pair(
        self, tmp_path, monkeypatch, capsys
    ):
        ran = []

        def run_side(tree, workload, seed, seconds, out):
            assert (tree / "benchmarks" / "e2e" / "run.py").exists()
            # only this pair's other side may still be on disk
            assert sum(earlier.exists() for earlier in ran) <= 1
            ran.append(tree)
            document = run_document([0.01] * 3, 1.0)
            for name in ("cpu_s", "peak_rss_mb", "query_p50_ms", "query_p95_ms"):
                document["metrics"][name] = {"value": 1.0}
            return document

        monkeypatch.setattr(ab_e2e, "export_ref", lambda ref, dest: stub_export(dest))
        monkeypatch.setattr(ab_e2e, "export_checkout", stub_export)
        monkeypatch.setattr(ab_e2e, "run_side", run_side)
        code = ab_e2e.main([
            "--parent", "HEAD", "--workload", "token-storm", "clique-explore",
            "--pairs", "3", "--seed", "7", "--workdir", str(tmp_path),
        ])
        capsys.readouterr()
        assert code == 0
        assert len(ran) == 12 and len(set(ran)) == 12
        assert not any(tree.exists() for tree in ran)
