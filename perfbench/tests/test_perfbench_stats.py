"""The percentile rule: a tail needs ten samples beyond it."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.report import latency_metrics, setup_metric  # noqa: E402
from perfbench.stats import (  # noqa: E402
    beyond,
    min_samples,
    percentile,
    summarize,
    tail_percentile,
)


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0
    assert percentile(list(range(1, 101)), 95) == 95


def test_samples_beyond_a_percentile():
    assert beyond(95, 200) == 10
    assert beyond(95, 199) == 9
    assert beyond(50, 20) == 10
    assert beyond(99, 1000) == 10


def test_minimum_sample_counts():
    assert min_samples(95) == 200
    assert min_samples(99) == 1000
    assert min_samples(90) == 100
    for p in (50, 90, 95, 99):
        n = min_samples(p)
        assert beyond(p, n) >= 10 > beyond(p, n - 1)


def test_tail_percentile_is_the_highest_supported():
    assert tail_percentile(10) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(1000) == 99.0


def test_summary_reports_count_and_supported_tail():
    values = [float(i) for i in range(1, 201)]
    summary = summarize(values)
    assert summary["n"] == 200
    assert summary["median"] == 100.5
    assert summary["tail_percentile"] == 95.0
    assert summary["tail"] == 190.0
    assert "tail" not in summarize([1.0] * 5)
    assert summarize([]) == {"n": 0}


def test_latency_metrics_need_enough_samples_for_p95():
    with pytest.raises(RuntimeError, match="cannot support p95"):
        latency_metrics([0.01] * 199)
    metrics, detail = latency_metrics([i / 1000.0 for i in range(1, 201)])
    assert metrics == {"latency_p50_ms": pytest.approx(100.5)}
    assert detail == {"latency_samples": 200, "latency_p95_ms": pytest.approx(190.0)}


def test_setup_metric_is_the_median_of_its_samples():
    value, detail = setup_metric([2.0, 9.0, 1.0])
    assert value == 2.0
    assert detail == {"setup_samples_s": [2.0, 9.0, 1.0]}
