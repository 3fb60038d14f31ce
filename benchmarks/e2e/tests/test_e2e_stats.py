"""The percentile helper and the self-time arithmetic."""

import pytest

import harness
import tracing


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    samples = list(range(199))
    with pytest.raises(ValueError, match="at least 10"):
        harness.percentile(samples, 95)
    assert harness.percentile(list(range(200)), 95) == 189
    with pytest.raises(ValueError):
        harness.percentile(list(range(1000)), 99.5)


def test_percentile_is_nearest_rank_and_median_is_always_allowed():
    assert harness.percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert harness.percentile([4.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError):
        harness.percentile([1.0], 100)


def _rounds(count, queries, wall=0.5, slowdown=1.0):
    return [
        harness.Round(
            [harness.Sample(f"q{i}", wall * (i + 1), wall * (i + 1) * 0.9, None)
             for i in range(queries)],
            slowdown,
        )
        for _ in range(count)
    ]


def test_stream_latencies_need_a_sample_that_supports_the_p95():
    metrics = harness._end_to_end([0.1], _rounds(4, 50))
    assert metrics["query_p50_ms"] == pytest.approx(500 * 25.5)
    assert metrics["query_p95_ms"] == pytest.approx(500 * 48)
    with pytest.raises(ValueError, match="at least 10"):
        harness._end_to_end([0.1], _rounds(3, 50))  # 150 samples, 7.5 beyond


def test_one_query_a_round_has_no_distribution_and_restates_wall():
    metrics = harness._end_to_end([0.1], _rounds(3, 1))
    assert metrics["wall_s"] == 0.5 and metrics["cpu_s"] == pytest.approx(0.45)
    assert metrics["query_p50_ms"] == metrics["query_p95_ms"] == 500.0


def test_times_are_reported_in_nominal_seconds():
    """A round the box ran at half speed counts half its measured time."""
    slow = harness._end_to_end([0.1], _rounds(4, 50, wall=1.0, slowdown=2.0))
    fast = harness._end_to_end([0.1], _rounds(4, 50, wall=0.5, slowdown=1.0))
    assert slow == fast
    mixed = _rounds(2, 1, wall=3.0, slowdown=1.5) + _rounds(1, 1, wall=9.0, slowdown=3.0)
    assert harness._end_to_end([0.1], mixed)["wall_s"] == pytest.approx(2.0)


def _span(name, start, end, parent):
    return [name, start, end, parent, "q", 0]


def test_self_time_of_nested_spans():
    spans = [
        _span("outer", 0.0, 10.0, -1),
        _span("middle", 1.0, 7.0, 0),
        _span("inner", 2.0, 5.0, 1),
    ]
    assert tracing.self_times(spans) == {"outer": 4.0, "middle": 3.0, "inner": 3.0}


def test_self_time_of_repeated_and_recursive_spans():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 2.0, 0),
        _span("b", 3.0, 5.0, 0),
        _span("a", 6.0, 9.0, 0),  # the same layer re-entered
        _span("b", 7.0, 8.0, 3),
    ]
    own = tracing.self_times(spans)
    assert own == {"a": 4.0 + 2.0, "b": 1.0 + 2.0 + 1.0}
    assert sum(own.values()) == 10.0  # self times partition the root span
    assert tracing.call_counts(spans) == {"a": 2, "b": 3}


def test_recorder_records_parents_and_probe_counts():
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda: [1, 2, 3], probe=len)
    outer = recorder.wrap("outer", lambda: inner() + inner())
    assert recorder.query("q7", outer) == [1, 2, 3, 1, 2, 3]
    spans = recorder.take()
    assert [s[tracing.NAME] for s in spans] == [tracing.ROOT, "outer", "inner", "inner"]
    assert [s[tracing.PARENT] for s in spans] == [-1, 0, 1, 1]
    assert {s[tracing.QUERY] for s in spans} == {"q7"}
    assert tracing.probe_totals(spans)["inner"] == 6
    assert recorder.take() == []


def test_recorder_closes_spans_when_the_call_raises():
    recorder = tracing.Recorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("layer", boom)()
    (span,) = recorder.take()
    assert span[tracing.END] >= span[tracing.START] > 0
    # the stack is empty again: the next span is a root
    recorder.wrap("next", lambda: None)()
    assert recorder.take()[0][tracing.PARENT] == -1


def test_wall_is_the_wall_clock_even_when_the_process_waits():
    """Time off the CPU (I/O, sleeps, lock and worker waits) stays in."""
    waited = [harness.Round([harness.Sample("q", 1.3, 0.2, None)], 1.0)] * 3
    metrics = harness._end_to_end([0.1], waited)
    assert metrics["wall_s"] == 1.3 and metrics["cpu_s"] == 0.2
    assert metrics["query_p50_ms"] == 1300.0


def test_spans_of_several_rounds_keep_their_trees():
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: (inner(), inner()))
    spans, per_round = [], []
    for query_id in ("first", "second", "third"):
        recorder.query(query_id, outer)
        taken = recorder.take()
        per_round.append(tracing.self_times(taken))
        tracing.append_round(spans, taken)
    assert [s[tracing.PARENT] for s in spans] == [-1, 0, 1, 1, -1, 4, 5, 5, -1, 8, 9, 9]
    for span in spans:
        if span[tracing.PARENT] >= 0:
            assert spans[span[tracing.PARENT]][tracing.QUERY] == span[tracing.QUERY]
    merged = tracing.self_times(spans)
    for name in merged:
        assert merged[name] == pytest.approx(sum(r[name] for r in per_round))
