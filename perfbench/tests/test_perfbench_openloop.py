"""Open-loop accounting: latency from the schedule, generator lag, classes."""

import asyncio
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.openloop import (  # noqa: E402
    PlannedRequest,
    Sample,
    drive,
    lag_summary,
    outcome_counts,
    poisson_schedule,
)


class StructuredError(RuntimeError):
    def __init__(self, code):
        super().__init__(f"[{code}] refused")
        self.code = code


class FakeClient:
    """Answers after ``reply_s``; request 0 can stall the whole loop."""

    def __init__(self, reply_s=0.0, stall_s=0.0, errors=None):
        self.reply_s = reply_s
        self.stall_s = stall_s
        self.errors = errors or {}
        self.calls = 0

    async def authenticate(self, **fields):
        index = fields["index"]
        self.calls += 1
        if index == 0 and self.stall_s:
            time.sleep(self.stall_s)  # blocks the event loop, as a stall would
        await asyncio.sleep(self.reply_s)
        if index in self.errors:
            raise self.errors[index]
        return {"index": index}


def plan_of(offsets):
    return [PlannedRequest(offset, {"index": i}) for i, offset in enumerate(offsets)]


def test_poisson_schedule_is_seeded_sorted_and_bounded():
    first = poisson_schedule(random.Random(3), 50, 4.0, start_s=2.0)
    again = poisson_schedule(random.Random(3), 50, 4.0, start_s=2.0)
    other = poisson_schedule(random.Random(4), 50, 4.0, start_s=2.0)
    assert first == again != other
    assert len(first) == 50
    assert first == sorted(first)
    assert all(2.0 <= offset < 6.0 for offset in first)


def test_latency_counts_from_the_schedule_and_lag_is_separate():
    client = FakeClient(reply_s=0.01, stall_s=0.2)
    samples = asyncio.run(drive(plan_of([0.0, 0.05, 0.1]), [client], lead_s=0.0))
    assert [s.index for s in samples] == [0, 1, 2]
    first, second, third = samples
    # The stall in request 0 delays the sends due at 50 and 100 ms.
    assert second.lag_s >= 0.1
    assert third.lag_s >= 0.05
    assert first.lag_s < 0.05
    for sample in samples:
        assert sample.latency_s == pytest.approx(
            sample.lag_s + (sample.finished_s - sample.sent_s)
        )
        assert sample.latency_s >= sample.lag_s
    summary = lag_summary(samples)
    assert summary["n"] == 3
    assert summary["max"] == pytest.approx(1000.0 * second.lag_s)


def test_sends_do_not_wait_for_replies():
    client = FakeClient(reply_s=0.2)
    started = time.perf_counter()
    samples = asyncio.run(drive(plan_of([0.0, 0.01, 0.02]), [client], lead_s=0.0))
    assert time.perf_counter() - started < 0.35
    assert max(s.lag_s for s in samples) < 0.1


def test_outcome_classes():
    client = FakeClient(
        errors={
            1: StructuredError("busy"),
            2: StructuredError("timeout"),
            3: StructuredError("internal-error"),
            4: ConnectionResetError("gone"),
        }
    )
    samples = asyncio.run(drive(plan_of([0.0] * 5), [client], lead_s=0.0))
    assert [s.outcome for s in samples] == ["ok", "busy", "timeout", "error", "failed"]
    assert samples[3].error_code == "internal-error"
    assert samples[4].error_code is None
    assert outcome_counts(samples) == {
        "ok": 1, "busy": 1, "timeout": 1, "error": 1, "failed": 1,
    }


def test_requests_round_robin_over_clients():
    clients = [FakeClient(), FakeClient()]
    asyncio.run(drive(plan_of([0.0] * 5), clients, lead_s=0.0))
    assert [c.calls for c in clients] == [3, 2]


def test_lag_summary_reports_p95_only_with_enough_samples():
    def sample(lag_ms):
        return Sample(0, 0.0, lag_ms / 1000.0, 1.0, "ok", 1, True)

    few = lag_summary([sample(v) for v in (1.0, 2.0, 3.0)])
    assert few["n"] == 3 and "tail" not in few and few["max"] == pytest.approx(3.0)
    many = lag_summary([sample(float(v)) for v in range(1, 201)])
    assert many["tail_percentile"] == 95.0
    assert many["tail"] == pytest.approx(190.0)
