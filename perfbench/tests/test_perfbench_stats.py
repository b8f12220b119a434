"""Percentiles, the at-least-ten-beyond rule and the reported counts."""

import pytest

from perfbench import stats


def test_nearest_rank_percentiles():
    samples = list(range(1, 101))  # 1..100
    assert stats.percentile(samples, 0.5) == 50
    assert stats.percentile(samples, 0.99) == 99
    assert stats.percentile(samples, 1.0) == 100
    assert stats.percentile(reversed(samples), 0.95) == 95


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize(
    "n, q, beyond",
    [(1000, 0.99, 10), (1800, 0.99, 18), (200, 0.95, 10), (199, 0.95, 9),
     (100, 0.99, 1), (0, 0.5, 0)],
)
def test_samples_beyond(n, q, beyond):
    assert stats.beyond(n, q) == beyond


def test_ten_beyond_rule():
    # p99 needs 1,000 samples and p95 needs 200: fewer leave < 10 beyond.
    assert stats.supported(1000, 0.99)
    assert not stats.supported(999, 0.99)
    assert stats.supported(200, 0.95)
    assert not stats.supported(180, 0.95)
    assert stats.supported(20, 0.5) and not stats.supported(19, 0.5)


def test_summary_reports_counts():
    samples = [i / 1000 for i in range(200)]
    summary = stats.summarize(samples, 0.95)
    assert summary["n"] == 200
    assert summary["beyond_tail"] == 10
    assert summary["tail_supported"] is True
    assert summary["tail"] == samples[189]
    assert summary["p50"] == samples[99]
    short = stats.summarize(samples[:100], 0.95)
    assert short["beyond_tail"] == 5 and short["tail_supported"] is False
