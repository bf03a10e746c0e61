"""Arithmetic of the benchmark: open-loop timing, percentiles, the tail
rule, and span self-time attribution."""

import pytest

from perfbench.stats import (
    Span,
    attribute,
    due_latency,
    lateness,
    lateness_grows,
    median,
    percentile,
    supported_quantile,
    tail,
)


def test_latency_runs_from_due_time_not_send_time():
    # Due at 1.0, held back by a busy connection until 1.3, answered at 1.5.
    assert due_latency(due=1.0, done=1.5) == pytest.approx(0.5)
    assert lateness(due=1.0, sent=1.3) == pytest.approx(0.3)


def test_lateness_is_never_negative():
    assert lateness(due=2.0, sent=1.999) == 0.0


def test_lateness_growth_compares_last_third_with_first():
    steady = [0.001] * 30
    assert not lateness_grows(steady, threshold=0.005)
    backlog = [0.001 * i for i in range(30)]  # grows 1 ms per request
    assert lateness_grows(backlog, threshold=0.005)
    assert not lateness_grows([0.0, 1.0], threshold=0.005)  # too short to judge


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2  # order of input does not matter


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


def test_tail_needs_ten_samples_beyond_it():
    assert supported_quantile(1000, 0.99) == 0.99  # exactly 10 beyond p99
    assert supported_quantile(999, 0.99) == 0.98  # 9.99 beyond: fall back
    assert supported_quantile(100, 0.9) == 0.9
    assert supported_quantile(50, 0.99) == 0.8
    assert supported_quantile(19, 0.5) is None


def test_tail_reports_highest_supported_percentile_and_says_so():
    values = [float(i) for i in range(1, 201)]
    t = tail(values, 0.99)
    assert t.quantile == 0.95
    assert t.value == 190.0
    assert "p99 unsupported by 200 samples" in t.note and "p95" in t.note
    full = tail([float(i) for i in range(1, 1001)], 0.99)
    assert full.quantile == 0.99 and full.value == 990.0 and full.note == ""
    with pytest.raises(ValueError):
        tail([1.0] * 5, 0.5)


def test_self_time_subtracts_child_spans():
    spans = [
        Span("campaign", "campaign", 0.0, 10.0),
        Span("dispatch", "parallel", 2.0, 6.0, parent=0),
        Span("kernel", "core", 3.0, 5.0, parent=1),
        Span("cache", "parallel", 7.0, 8.0, parent=0),
    ]
    self_s, unattributed = attribute(spans, 0.0, 12.0)
    assert self_s["campaign"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_s["parallel"] == pytest.approx((4.0 - 2.0) + 1.0)
    assert self_s["core"] == pytest.approx(2.0)
    assert unattributed == pytest.approx(2.0)
    assert sum(self_s.values()) + unattributed == pytest.approx(12.0)


def test_concurrent_spans_never_count_an_instant_twice():
    # Two overlapping requests on different connections.
    spans = [
        Span("warm", "serve", 0.0, 4.0, request=0),
        Span("predict", "predict", 1.0, 3.0, request=1),
    ]
    self_s, unattributed = attribute(spans, 0.0, 5.0)
    assert self_s["serve"] == pytest.approx(2.0)
    assert self_s["predict"] == pytest.approx(2.0)
    assert unattributed == pytest.approx(1.0)


def test_attribution_clips_spans_to_the_window():
    spans = [Span("outer", "core", -1.0, 3.0)]
    self_s, unattributed = attribute(spans, 0.0, 2.0)
    assert self_s["core"] == pytest.approx(2.0)
    assert unattributed == pytest.approx(0.0)


def test_same_start_child_wins_over_parent():
    spans = [Span("parent", "campaign", 0.0, 2.0), Span("child", "core", 0.0, 1.0, parent=0)]
    self_s, _ = attribute(spans, 0.0, 2.0)
    assert self_s == {"core": pytest.approx(1.0), "campaign": pytest.approx(1.0)}
