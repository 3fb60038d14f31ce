"""E10 — §5.7 message analysis: naïve vs HGT on WDC-2.

The paper's table (64 nodes, WDC-2): the naïve approach exchanges 647e9
messages vs HGT's 39e9 — 16.6x better message efficiency yielding 3.6x
time speedup; ~88-90% of messages are remote for both; 82.5% of HGT's
messages are spent generating the max candidate set (paid once, amortized
over every prototype search).

The same four rows are regenerated here.
"""

import pytest

from repro.analysis import format_count, format_seconds, format_table, speedup
from repro.core import naive_search, run_pipeline
from repro.core.patterns import wdc2_template
from common import default_options, print_header, wdc_background


@pytest.mark.benchmark(group="t57-messages")
def test_message_analysis(benchmark):
    graph = wdc_background()
    template = wdc2_template()
    results = {}

    def run_all():
        # both sides send the paper's messages: one visitor per message,
        # every constraint of every prototype checked
        results["hgt"] = run_pipeline(
            graph, template, 2, default_options(backend="reference")
        )
        results["naive"] = naive_search(
            graph, template, 2, default_options(backend="reference")
        )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    hgt, nve = results["hgt"], results["naive"]
    assert hgt.match_vectors == nve.match_vectors

    hgt_summary = hgt.message_summary
    nve_summary = nve.message_summary
    mcs_fraction = (
        hgt_summary["phases"].get("max_candidate_set", {}).get("messages", 0)
        / hgt_summary["total_messages"]
    )
    message_ratio = speedup(
        nve_summary["total_messages"], hgt_summary["total_messages"]
    )
    time_ratio = speedup(
        nve.total_simulated_seconds, hgt.total_simulated_seconds
    )

    print_header("§5.7 — Message analysis, WDC-2 (naïve vs HGT)")
    print(format_table(
        ["metric", "naive", "HGT", "improvement"],
        [
            ["total messages",
             format_count(nve_summary["total_messages"]),
             format_count(hgt_summary["total_messages"]),
             f"{message_ratio:.2f}x"],
            ["% remote",
             f"{nve_summary['remote_fraction']:.1%}",
             f"{hgt_summary['remote_fraction']:.1%}",
             "-"],
            ["% due to max-candidate set",
             "N/A",
             f"{mcs_fraction:.1%}",
             "-"],
            ["time",
             format_seconds(nve.total_simulated_seconds),
             format_seconds(hgt.total_simulated_seconds),
             f"{time_ratio:.2f}x"],
        ],
    ))
    print("\n(paper: 16.6x messages, 3.6x time; 82.5% of HGT messages in M*)")

    assert message_ratio > 1.2, "HGT must be more message-efficient"
    assert time_ratio > 1.0
    # Remote fractions are comparable between systems (same partitioning).
    assert abs(
        hgt_summary["remote_fraction"] - nve_summary["remote_fraction"]
    ) < 0.25
    # A visible share of HGT's messages goes into M* (paid once).
    assert mcs_fraction > 0.005
