"""Picklable DSP jobs: the heavy phase of a round, in a worker process.

The deterministic half of a ranging round — the round driver's
:func:`~repro.sim.pipeline.render_and_detect` — consumes nothing but pure
data: planned capture jobs, the negotiated signals, the ranging engine,
and two sample rates.  :class:`RoundDSPJob` is the picklable projection
of a :class:`~repro.sim.pipeline.PreparedRound`: the engine is replaced
by its protocol config, because the stock
:class:`~repro.core.action.ActionRanging` is stateless and
config-determined.  :func:`execute_dsp_jobs` rebuilds each round's
action from that config (through a per-process cache) and runs the very
same ``render_and_detect`` body the in-process path runs, so pipeline
invariant 2 makes the result bit-identical wherever it executes — the
service tests assert it against ``run_cell_spec``.

This is the seam the :class:`~repro.service.scheduler.BatchingScheduler`
uses to put the heavy DSP on real cores inside a ``ProcessPoolExecutor``
while the asyncio loop only does protocol, coalescing, and decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.action import ActionRanging
from repro.core.config import ProtocolConfig
from repro.sim.pipeline import (
    DetectionPair,
    NegotiationResult,
    PlannedRender,
    PreparedRound,
    RenderedRecordings,
    render_and_detect,
)

__all__ = ["RoundDSPJob", "round_dsp_job", "execute_dsp_jobs"]


@dataclass(frozen=True)
class RoundDSPJob:
    """A :class:`~repro.sim.pipeline.PreparedRound`, picklable.

    No session, device, or world object crosses this boundary, so the
    job pickles cheaply enough to ship to a worker process.
    """

    planned: PlannedRender
    negotiation: NegotiationResult
    config: ProtocolConfig
    auth_sample_rate: float
    vouch_sample_rate: float


def round_dsp_job(prepared: PreparedRound) -> RoundDSPJob | None:
    """Project a prepared round onto a :class:`RoundDSPJob`.

    Returns ``None`` when the round's ranging engine is not the stock
    :class:`~repro.core.action.ActionRanging` — a subclass could carry
    instance state a rebuilt action would not see, so such rounds must
    stay on the in-process path (the scheduler falls back to its thread
    executor for the whole batch).
    """
    if type(prepared.action) is not ActionRanging:
        return None
    return RoundDSPJob(
        planned=prepared.planned,
        negotiation=prepared.negotiation,
        config=prepared.action.config,
        auth_sample_rate=prepared.auth_sample_rate,
        vouch_sample_rate=prepared.vouch_sample_rate,
    )


#: Per-process ActionRanging cache: one action per protocol config, so a
#: long-lived pool worker builds the frequency plan and detector once.
_ACTIONS: dict[ProtocolConfig, ActionRanging] = {}


def _action_for(config: ProtocolConfig) -> ActionRanging:
    action = _ACTIONS.get(config)
    if action is None:
        action = _ACTIONS[config] = ActionRanging(config)
    return action


def execute_dsp_jobs(
    jobs: Sequence[RoundDSPJob],
) -> list[tuple[RenderedRecordings, DetectionPair]]:
    """Rebuild each job's round, then run the driver's render-and-detect.

    Results come back in job order.
    """
    return render_and_detect(
        [
            PreparedRound(
                job.negotiation,
                _action_for(job.config),
                job.auth_sample_rate,
                job.vouch_sample_rate,
                planned=job.planned,
            )
            for job in jobs
        ]
    )


def warm_worker() -> str:
    """Force a pool worker to import the pipeline and its DSP kernels.

    Submitted once per worker at scheduler start so the first real batch
    does not pay the import latency.  Returns the kernel set's name
    (handy in logs and tests).
    """
    from repro.dsp.backend import get_backend

    return get_backend().name
