"""Verdict rules of the interleaved A/B driver (benchmarks/ab_e2e.py)."""

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

from ab_e2e import verdict  # noqa: E402

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
