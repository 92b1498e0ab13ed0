"""The round driver: one ACTION round order for every execution path.

One ranging round runs in three phases, and this module owns their
order for every caller — trial engine, corpus record and replay, and the
streaming service:

1. :func:`prepare` — ``negotiate`` → ``schedule`` → ``render_noise`` on
   the session's own RNG stream (these stages *are* the stream
   consumers, so their per-trial draw order is untouched — see
   ``docs/pipeline.md``), or the terminal outcome when Bluetooth fails;
2. :func:`render_and_detect` — RNG-free: ``render_arrivals`` stacks the
   arrival convolutions of every round that still needs rendering, then
   ``detect_batch`` runs one stacked detection pass over all 2·B
   capture buffers (a shared coarse ``candidate_powers_stacked`` pass
   and one more stacked call for all fine passes —
   :meth:`repro.core.action.ActionRanging.observe_batch`);
3. :func:`finish` — ``exchange_and_decide`` per session, again on the
   session RNG.

:class:`BatchedSessionRunner` is the batch loop over those phases and
:meth:`Session.run` is that loop at B = 1.  The corpus hooks into the
loop instead of copying it: replay supplies a *source* that stands in
for :func:`prepare`, record a *sink* that observes the phases.  The
service runs the phases itself around its coalescing scheduler, whose
thread and process executors both run :func:`render_and_detect`.

Detection is a pure function of the recordings and the FFT/power
arithmetic is row-wise independent, so outcomes are bit-identical for
every batch size and batch composition — the equivalence tests assert
this against :func:`repro.sim.pipeline.reference.run_monolithic` as well.

Sessions whose ranging engine is not the stock
:class:`~repro.core.action.ActionRanging` (e.g. the ACTION-CC ablation)
are detected one by one with their own engine; everything else about
the batch still applies.

Phases 1 and 2 fan out across cores.  :func:`prepare`, then
``render_arrivals``, then ``detect_batch`` each run over at most
:func:`fanout_width` contiguous slices of the batch — one on the calling
thread, the rest on a process-wide thread pool — and the slices' results
are concatenated in input order.  numpy's normal fills, FFT and power
arithmetic release the GIL, so the slices overlap wherever those kernels
dominate; rounds with short captures (:data:`FANOUT_MIN_CAPTURE_SAMPLES`)
run inline.  Phase 2 is RNG-free, so slicing it is only another batch
composition.  Phase 1 draws from each session's own stream and fans out
only when the batch's sessions are independent: no two share, by
identity, the RNG, the artifacts, the Bluetooth link (whose transcript
``negotiate`` appends to), a device, an interference provider, or a
ranging engine other than the stateless stock
:class:`~repro.core.action.ActionRanging`.  A batch built from one shared
world prepares serially.  Either way every session consumes only its own
stream, so the fan-out is bit-identical at every width.  Bluetooth
failures, the sink's ``after_prepare`` calls, replay's capture source
and phase 3 stay on the calling thread, in input order.  Each slice runs
in a copy of the caller's :mod:`contextvars` context, so context-scoped
tracing follows the work onto pool threads.  The pool is built lazily
and forgotten in a forked child: the parent's pool threads do not exist
there, and work queued on them would never run.  Process-pool workers
that already split a plan across cores pin the width to 1 through their
pool initializer (:func:`set_fanout_width`).
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.core.action import ActionRanging
from repro.core.ranging import RangingEngine, RangingOutcome
from repro.sim.pipeline.stages import (
    DetectionPair,
    NegotiationResult,
    PlannedRender,
    RenderedRecordings,
    SessionArtifacts,
    SessionContext,
    exchange_and_decide,
    negotiate,
    render_arrivals,
    render_noise,
    schedule,
)

__all__ = [
    "BatchedSessionRunner",
    "DEFAULT_BATCH_SIZE",
    "FANOUT_MIN_CAPTURE_SAMPLES",
    "PreparedRound",
    "RoundSink",
    "Session",
    "detect_batch",
    "fanout_width",
    "finish",
    "prepare",
    "render_and_detect",
    "set_fanout_width",
    "usable_cpus",
]

#: Auto batch size: large enough that the shared coarse pass and the
#: stacked arrival convolutions amortize their dispatch overhead, small
#: enough that a batch's 2·B capture buffers stay a modest memory
#: footprint.  (FFT work is chunked independently — see the calibrated
#: :attr:`repro.dsp.backend.DSPBackend.fft_chunk_windows`.)
DEFAULT_BATCH_SIZE = 16

#: Mean capture length, in samples, below which a step runs unfanned.
#: Slices overlap only inside GIL-free kernels (FFT, power arithmetic,
#: convolution), whose share of a round grows with its capture length.
#: On a 2-core x86 host the paper profile's 70 560-sample captures
#: detected 1.6× faster at width 2, while the corpus mini profile's
#: 6 400-sample captures, mostly Python bookkeeping, replayed up to a
#: quarter slower through GIL contention.
FANOUT_MIN_CAPTURE_SAMPLES = 32_768

#: Pinned fan-out width; ``None`` follows the usable CPUs.
_WIDTH: int | None = None
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _forget_pool() -> None:
    # A forked child inherits the pool but not its threads.
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def set_fanout_width(width: int | None) -> None:
    """Pin the prepare/render/detect fan-out width of this process.

    ``None`` restores the default, the number of usable CPUs.  Process
    pools pass 1 through their initializer, so ``--jobs N`` does not run
    N × cpus threads.  Results are identical at every width.
    """
    global _WIDTH
    if width is not None and width < 1:
        raise ValueError(f"fan-out width must be >= 1, got {width!r}")
    _WIDTH = width


def usable_cpus() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS, Windows
        return os.cpu_count() or 1


def fanout_width() -> int:
    """Most slices one prepare, render or detect step is split into."""
    if _WIDTH is not None:
        return _WIDTH
    return usable_cpus()


def _pool() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(thread_name_prefix="repro-fanout")
        return _POOL


def _fan_out(
    step: Callable[..., list], *columns: Sequence, samples: int
) -> list:
    """``step(*columns)``, run as contiguous row slices in parallel.

    ``columns`` are equal-length sequences of rounds sliced together;
    ``step`` must map a slice to one result per round.  ``samples`` is
    the rounds' total capture length (two captures per round).  The
    first slice runs on the calling thread, the others on the pool, each
    in a copy of the caller's context; results come back in input order.
    """
    rows = len(columns[0])
    width = min(fanout_width(), rows)
    if width < 2 or samples < 2 * rows * FANOUT_MIN_CAPTURE_SAMPLES:
        return step(*columns)
    bounds = [rows * k // width for k in range(width + 1)]
    slices = [
        [column[lo:hi] for column in columns]
        for lo, hi in zip(bounds, bounds[1:])
    ]
    pool = _pool()
    futures = [
        pool.submit(contextvars.copy_context().run, step, *args)
        for args in slices[1:]
    ]
    try:
        results = step(*slices[0])
    finally:
        wait(futures)
    for future in futures:
        results.extend(future.result())
    return results


@dataclass(eq=False)
class Session:
    """One ACTION round between two paired devices, ready to run.

    The pairing of an immutable :class:`SessionContext` with the
    per-session RNG stream, plus the diagnostics the round fills in.
    """

    context: SessionContext
    rng: np.random.Generator
    artifacts: SessionArtifacts = field(default_factory=SessionArtifacts)

    def run(self) -> RangingOutcome:
        """Execute the full round and return the Step-VI outcome."""
        return BatchedSessionRunner(1).run([self])[0]


@dataclass(frozen=True, eq=False)
class PreparedRound:
    """One round between :func:`prepare` and :func:`finish`.

    Holds only what :func:`render_and_detect` reads — the ranging engine,
    the negotiated signals, both devices' sample rates, and either the
    planned render (``planned``) or captures supplied from elsewhere
    (``recordings``) — so the service's process executor can rebuild an
    equal round from a picklable :class:`repro.service.RoundDSPJob`.
    """

    negotiation: NegotiationResult
    action: RangingEngine
    auth_sample_rate: float
    vouch_sample_rate: float
    planned: PlannedRender | None = None
    recordings: RenderedRecordings | None = None

    @classmethod
    def from_context(
        cls,
        ctx: SessionContext,
        negotiation: NegotiationResult,
        planned: PlannedRender | None = None,
        recordings: RenderedRecordings | None = None,
    ) -> "PreparedRound":
        """The round of the session described by ``ctx``."""
        return cls(
            negotiation,
            ctx.action,
            ctx.auth_device.sample_rate,
            ctx.vouch_device.sample_rate,
            planned,
            recordings,
        )


class RoundSink(Protocol):
    """Observer of the driver's phases (the corpus recorder).

    ``index`` is the session's position in the input of
    :meth:`BatchedSessionRunner.run`.  Neither hook is called for a
    round that :func:`prepare` ended (Bluetooth failure).
    """

    def after_prepare(self, index: int, session: Session) -> None:
        """The session RNG now sits where ``exchange`` will resume it."""

    def after_finish(
        self,
        index: int,
        prepared: PreparedRound,
        recordings: RenderedRecordings,
        outcome: RangingOutcome,
    ) -> None:
        """The round is decided; ``recordings`` are its captures."""


#: Stands in for :func:`prepare` (corpus replay): given the session's
#: input position and the session, it returns the round with its
#: recordings supplied and the session RNG at the post-render position.
CaptureSource = Callable[[int, Session], PreparedRound]


def prepare(session: Session) -> PreparedRound | RangingOutcome:
    """Phase 1: the RNG-bound stages, or the terminal Bluetooth failure."""
    ctx, rng, artifacts = session.context, session.rng, session.artifacts
    negotiation = negotiate(ctx, rng)
    artifacts.signals = negotiation.signals
    if negotiation.failure is not None:
        return negotiation.failure
    plan = schedule(ctx, negotiation, rng)
    artifacts.playbacks = list(plan.playbacks)
    artifacts.auth_record_start_world = plan.auth_record_start
    artifacts.vouch_record_start_world = plan.vouch_record_start
    artifacts.auth_play_world = plan.auth_play_world
    artifacts.vouch_play_world = plan.vouch_play_world
    return PreparedRound.from_context(
        ctx, negotiation, planned=render_noise(ctx, plan, rng)
    )


def _prepare_all(
    sessions: Sequence[Session],
) -> list[PreparedRound | RangingOutcome]:
    return [prepare(session) for session in sessions]


def _independent(sessions: Sequence[Session]) -> bool:
    """Whether no two sessions share an object :func:`prepare` mutates or
    draws from — the precondition for preparing them concurrently.

    Stock :class:`~repro.core.action.ActionRanging` is stateless and may
    be shared; any other engine counts as state, as in
    :func:`detect_batch`.
    """
    seen: set[int] = set()
    for session in sessions:
        ctx = session.context
        state = [
            session.rng,
            session.rng.bit_generator,
            session.artifacts,
            ctx.link,
            ctx.auth_device,
            ctx.vouch_device,
            *ctx.interference,
        ]
        if type(ctx.action) is not ActionRanging:
            state.append(ctx.action)
        owned = {id(item) for item in state}
        if not seen.isdisjoint(owned):
            return False
        seen |= owned
    return True


def _captures(rounds: Sequence[PreparedRound]) -> list[RenderedRecordings]:
    """Every round's captures: supplied ones as they are, the rest
    rendered in stacked passes (skipped when nothing needs rendering).
    """
    planned = [item.planned for item in rounds if item.recordings is None]
    samples = sum(item.auth.n_samples + item.vouch.n_samples for item in planned)
    rendered = iter(
        _fan_out(render_arrivals, planned, samples=samples) if planned else ()
    )
    return [
        item.recordings if item.recordings is not None else next(rendered)
        for item in rounds
    ]


def render_and_detect(
    rounds: Sequence[PreparedRound],
) -> list[tuple[RenderedRecordings, DetectionPair]]:
    """Phase 2: the RNG-free DSP of a batch — stacked render, stacked detect.

    Each step is fanned out over contiguous slices of the batch (see the
    module docstring).  Results come back in input order, bit-identical
    for every batch composition and fan-out width, on whichever thread
    or process this runs.
    """
    recordings = _captures(rounds)
    return list(zip(recordings, _detections(rounds, recordings)))


def _detections(
    rounds: Sequence[PreparedRound], recordings: Sequence[RenderedRecordings]
) -> list[DetectionPair]:
    samples = sum(item.auth.size + item.vouch.size for item in recordings)
    return _fan_out(detect_batch, rounds, recordings, samples=samples)


def finish(
    session: Session,
    negotiation: NegotiationResult,
    recordings: RenderedRecordings,
    detections: DetectionPair,
) -> RangingOutcome:
    """Phase 3: Steps V–VI on the session RNG."""
    artifacts = session.artifacts
    artifacts.recording_auth = recordings.auth
    artifacts.recording_vouch = recordings.vouch
    return exchange_and_decide(
        session.context, negotiation, detections, session.rng, artifacts
    )


def detect_batch(
    entries: Sequence[PreparedRound],
    recordings: Sequence[RenderedRecordings],
) -> list[DetectionPair]:
    """Step IV for many independent rounds, stacked where possible.

    ``recordings`` are the entries' captures, in order.  Rounds running
    the stock
    :class:`~repro.core.action.ActionRanging` are grouped by (protocol
    config, recording lengths) and dispatched as one stacked
    ``observe_batch`` pass per group — ACTION behaviour depends only on
    the config, so the group's first engine serves them all.  Any other
    engine observes its own captures (a subclass could override
    ``observe`` with state a stacked pass would not see).  Results come
    back in input order and are bit-identical to per-round detection.
    """
    groups: dict[object, list[int]] = {}
    for index, entry in enumerate(entries):
        key: object = index
        if type(entry.action) is ActionRanging:
            key = (
                entry.action.config,
                recordings[index].auth.shape[0],
                recordings[index].vouch.shape[0],
            )
        groups.setdefault(key, []).append(index)

    results: list[DetectionPair | None] = [None] * len(entries)
    for members in groups.values():
        action = entries[members[0]].action
        captures = []
        scans = []
        for i in members:
            entry = entries[i]
            signals = entry.negotiation.signals
            captures += [recordings[i].auth, recordings[i].vouch]
            scans.append((signals.auth, signals.vouch, entry.auth_sample_rate))
            scans.append((signals.vouch, signals.auth, entry.vouch_sample_rate))
        if type(action) is ActionRanging:
            observations = action.observe_batch(np.stack(captures), scans)
        else:
            observations = [
                action.observe(capture, own=own, remote=remote, sample_rate=rate)
                for capture, (own, remote, rate) in zip(captures, scans)
            ]
        for position, index in enumerate(members):
            results[index] = DetectionPair(
                auth=observations[2 * position],
                vouch=observations[2 * position + 1],
            )
    return results  # type: ignore[return-value]


class BatchedSessionRunner:
    """The batch loop: runs independent sessions through the three phases.

    Parameters
    ----------
    batch_size:
        Sessions per stacked render/detect pass; ``None`` selects
        :data:`DEFAULT_BATCH_SIZE`.  Results are identical for every
        value.
    stage_timings:
        Optional wall-clock accounting: when a dict is supplied, each
        batch accumulates per-phase seconds into it under the keys
        ``prepare``, ``render`` (the stacked arrival pass), ``detect``
        and ``decide``.  The first three are wall time of a phase that
        may be fanned out across threads, not summed per-thread time.
        Used by ``benchmarks/bench_pipeline.py`` and
        ``tools/profile_pipeline.py``.
    """

    def __init__(
        self,
        batch_size: int | None = None,
        stage_timings: dict[str, float] | None = None,
    ) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size!r}")
        self.batch_size = batch_size or DEFAULT_BATCH_SIZE
        self.stage_timings = stage_timings

    def _account(self, stage: str, started: float) -> float:
        now = perf_counter()
        if self.stage_timings is not None:
            self.stage_timings[stage] = (
                self.stage_timings.get(stage, 0.0) + now - started
            )
        return now

    def run(
        self,
        sessions: Iterable[Session],
        *,
        source: CaptureSource | None = None,
        sink: RoundSink | None = None,
    ) -> list[RangingOutcome]:
        """Execute every session; outcomes come back in input order.

        ``sessions`` may be a lazy iterable: it is consumed one batch at
        a time, and nothing from a finished batch is retained here — so a
        generator-fed run keeps peak memory at O(batch_size) sessions.
        ``source`` replaces :func:`prepare` (corpus replay); ``sink``
        observes each round (corpus recording).
        """
        outcomes: list[RangingOutcome] = []
        iterator = iter(sessions)
        while batch := list(itertools.islice(iterator, self.batch_size)):
            outcomes.extend(self._run_batch(batch, len(outcomes), source, sink))
        return outcomes

    def _run_batch(
        self,
        sessions: Sequence[Session],
        first: int,
        source: CaptureSource | None,
        sink: RoundSink | None,
    ) -> list[RangingOutcome]:
        outcomes: list[RangingOutcome | None] = [None] * len(sessions)
        live: list[tuple[int, Session, PreparedRound]] = []
        mark = perf_counter()
        if source is not None:
            phase_one = [
                source(first + offset, session)
                for offset, session in enumerate(sessions)
            ]
        elif _independent(sessions):
            samples = sum(2 * s.context.record_samples for s in sessions)
            phase_one = _fan_out(_prepare_all, sessions, samples=samples)
        else:
            phase_one = _prepare_all(sessions)
        for offset, (session, prepared) in enumerate(zip(sessions, phase_one)):
            if isinstance(prepared, RangingOutcome):
                outcomes[offset] = prepared
                continue
            if sink is not None:
                sink.after_prepare(first + offset, session)
            live.append((offset, session, prepared))
        mark = self._account("prepare", mark)

        rounds = [prepared for _, _, prepared in live]
        recordings = _captures(rounds)
        mark = self._account("render", mark)
        detections = _detections(rounds, recordings)
        mark = self._account("detect", mark)

        for (offset, session, prepared), captured, pair in zip(
            live, recordings, detections
        ):
            outcome = finish(session, prepared.negotiation, captured, pair)
            outcomes[offset] = outcome
            if sink is not None:
                sink.after_finish(first + offset, prepared, captured, outcome)
        self._account("decide", mark)
        return outcomes  # type: ignore[return-value]
