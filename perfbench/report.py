"""What one benchmark run returns, and the end-to-end metric list."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Sequence

from perfbench.stats import min_samples, percentile

__all__ = [
    "END_TO_END",
    "RunResult",
    "latency_metrics",
    "setup_metric",
]

#: Every untraced run prints all of these, whatever its workload.  The
#: p95 latency goes to the detail line instead: on a shared two-vCPU host
#: the p95 of a 30 s run follows the CPU-contention bursts the run happens
#: to meet, and moved by more than a third between runs — wider than any
#: bound a regression gate can use.
END_TO_END: list[dict] = [
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
    {"name": "trials_per_s", "unit": "1/s", "better": "higher"},
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower"},
]


@dataclass
class RunResult:
    """Metrics by name plus the operation accounting of one run.

    ``mismatches`` are outputs that disagreed with their reference; each
    also counts as a failed operation.
    """

    metrics: dict[str, float]
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    detail: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.mismatches == 0

    def mismatch(self, count: int = 1) -> None:
        self.mismatches += count
        self.failed += count


def latency_metrics(latencies_s: Sequence[float]) -> tuple[dict[str, float], dict]:
    """``latency_p50_ms``, plus the p95 and the sample count for the detail.

    Raises when the sample cannot support the 95th percentile, that is
    when fewer than ten samples would lie beyond it.
    """
    n = len(latencies_s)
    if n < min_samples(95.0):
        raise RuntimeError(
            f"{n} latency samples cannot support p95 "
            f"(needs {min_samples(95.0)}); lengthen the run"
        )
    ms = [1000.0 * value for value in latencies_s]
    metrics = {"latency_p50_ms": float(statistics.median(ms))}
    return metrics, {"latency_samples": n, "latency_p95_ms": percentile(ms, 95.0)}


def setup_metric(samples_s: Sequence[float]) -> tuple[float, dict]:
    """Median set-up time and its samples."""
    return float(statistics.median(samples_s)), {"setup_samples_s": list(samples_s)}
