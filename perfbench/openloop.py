"""Open-loop request generator over :class:`repro.service.AuthClient`.

Requests are sent on a fixed schedule whatever the service does, and
each keeps a raw :class:`Sample`: when it was due, when the generator
actually sent it, when its reply stream finished, its outcome class and
the attempts the client spent.  Latency is measured from the *scheduled*
time, so a stall in the service or the generator is charged to every
request it delays; how late the generator itself ran is reported
separately (:func:`lag_summary`).

:func:`poisson_schedule` draws arrival times of a Poisson process
conditioned on its count: ``count`` points uniform on ``[0, span)``,
sorted.  Fixing the count keeps the offered load of every run equal, so
the spread between runs comes from the system, not from how many
requests a seed happened to draw.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Any, Sequence

from perfbench.stats import percentile, summarize

__all__ = [
    "OUTCOMES",
    "PlannedRequest",
    "Sample",
    "drive",
    "lag_summary",
    "outcome_counts",
    "poisson_schedule",
]

#: Outcome classes of one request.  ``ok``: the reply stream completed.
#: ``busy`` / ``timeout``: structured back-pressure or deadline replies.
#: ``error``: any other structured error reply.  ``failed``: transport
#: loss, no structured reply at all.
OUTCOMES = ("ok", "busy", "timeout", "error", "failed")


@dataclass(frozen=True)
class PlannedRequest:
    """One request of the schedule; ``fields`` go to ``authenticate``."""

    offset_s: float
    fields: dict
    measured: bool = True


@dataclass
class Sample:
    """What happened to one planned request (event-loop clock, seconds)."""

    index: int
    scheduled_s: float
    sent_s: float
    finished_s: float
    outcome: str
    attempts: int
    measured: bool
    reply: Any = None
    error_code: str | None = None
    error_message: str | None = None

    @property
    def latency_s(self) -> float:
        return self.finished_s - self.scheduled_s

    @property
    def lag_s(self) -> float:
        return self.sent_s - self.scheduled_s


def poisson_schedule(
    rng: random.Random, count: int, span_s: float, start_s: float = 0.0
) -> list[float]:
    """``count`` Poisson arrival offsets on ``[start_s, start_s + span_s)``."""
    return sorted(start_s + rng.random() * span_s for _ in range(count))


async def _issue(
    client, planned: PlannedRequest, index: int, scheduled: float, loop
) -> Sample:
    sent = loop.time()
    outcome, attempts, reply = "ok", 1, None
    code = message = None
    try:
        reply = await client.authenticate(**planned.fields)
        attempts = getattr(reply, "attempts", 1)
    except Exception as error:
        # The boundary that must keep sending: a structured error reply
        # (ServiceError carries its wire code) or any transport failure
        # becomes this request's outcome instead of ending the run.
        code = getattr(error, "code", None)
        if code is None:
            outcome = "failed"
        else:
            outcome = code if code in ("busy", "timeout") else "error"
        attempts = getattr(error, "attempts", 1)
        message = repr(error) if code is None else str(error)
    return Sample(
        index=index,
        scheduled_s=scheduled,
        sent_s=sent,
        finished_s=loop.time(),
        outcome=outcome,
        attempts=attempts,
        measured=planned.measured,
        reply=reply,
        error_code=code,
        error_message=message,
    )


async def drive(
    plan: Sequence[PlannedRequest],
    clients: Sequence[Any],
    lead_s: float = 0.05,
) -> list[Sample]:
    """Send ``plan`` on schedule, round-robin over ``clients``.

    Offsets count from ``lead_s`` after the call.  Every request runs as
    its own task, so a slow reply never delays a later send; the result
    lists one sample per planned request, in plan order.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + lead_s
    tasks: list[asyncio.Task] = []
    for index, planned in enumerate(plan):
        scheduled = start + planned.offset_s
        delay = scheduled - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        client = clients[index % len(clients)]
        tasks.append(
            loop.create_task(_issue(client, planned, index, scheduled, loop))
        )
    return list(await asyncio.gather(*tasks))


def outcome_counts(samples: Sequence[Sample]) -> dict[str, int]:
    counts = {outcome: 0 for outcome in OUTCOMES}
    for sample in samples:
        counts[sample.outcome] += 1
    return counts


def lag_summary(samples: Sequence[Sample]) -> dict:
    """How late the generator sent, in ms: median, tail, max and count."""
    lags = [1000.0 * sample.lag_s for sample in samples]
    summary = summarize(lags)
    if lags:
        summary["max"] = max(lags)
        summary["p95"] = percentile(lags, 95.0)
    return summary
