"""Coalescing DSP scheduler: concurrent rounds share stacked kernel passes.

The request path of the service (``repro.service.server``) runs the
round driver's RNG-bound phase (:func:`~repro.sim.pipeline.prepare`:
``negotiate``, ``schedule``, ``render_noise``) inline on the event loop,
then hands the round's pure-data remainder to a
:class:`BatchingScheduler`.  The scheduler's collector task gathers every
round pending at that moment (up to ``max_batch``, lingering
``linger_ms`` for stragglers) and executes the driver's deterministic
phase — :func:`~repro.sim.pipeline.render_and_detect`, a stacked render
plus a stacked detection — as **one** batch on the DSP executor.
Concurrent in-flight requests therefore inherit the batched hot path's
throughput exactly as ``--batch`` trials do, while the event loop stays
free to prepare the next rounds.

Determinism: batch composition is a scheduling decision, never a
numerical one (invariant 2 of :mod:`repro.sim.pipeline`), so *which*
requests happen to share a stacked pass cannot change any round's bits.
The RNG-bound phases (``prepare`` and ``finish``) never enter the
scheduler — each stays on its own session's stream, in order.

Backpressure: at most ``max_pending`` rounds may be queued; beyond that
:meth:`BatchingScheduler.run_round` raises :class:`ServiceOverloaded`,
which the server translates into a ``busy`` :class:`ErrorReply` so
callers can retry instead of piling unbounded work onto the loop.

Deadlines: a round may carry an ``expires_at`` loop time.  Expiry is
enforced **at batch admission only** — when the collector is about to
dispatch a batch, rounds whose deadline already lapsed fail with
:class:`DeadlineExceeded` and the rest run as one normal stacked pass.
Never mid-batch: batch composition stays a pure scheduling decision and
admitted rounds always complete, so decisions remain bit-identical to
the unfaulted/undeadlined run.  Independently, ``dsp_timeout_s`` bounds
how long one stacked pass may take on the executor; a pass that exceeds
it fails all its rounds closed with :class:`DeadlineExceeded` and marks
the executor *suspect* (``SchedulerStats.dsp_timeouts``) — a wedged DSP
job can stall its own batch, never the service.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.service.executor import (
    execute_dsp_jobs,
    round_dsp_job,
    warm_worker,
)
from repro.service.faults import FaultInjector
from repro.sim.pipeline import (
    DEFAULT_BATCH_SIZE,
    DetectionPair,
    PreparedRound,
    RenderedRecordings,
    render_and_detect,
    set_fanout_width,
)

# Bound for perfbench/layers.py, which wraps the stages under each
# caller's module names; the round driver in repro.sim.pipeline.batch
# makes the calls.
from repro.sim.pipeline import detect_batch, render_arrivals  # noqa: F401

__all__ = [
    "BatchingScheduler",
    "DSP_EXECUTOR_KINDS",
    "DeadlineExceeded",
    "SchedulerStats",
    "ServiceOverloaded",
]

#: Accepted values of the scheduler's ``dsp_executor`` knob (the CLI's
#: ``--dsp-executor``): ``thread`` keeps stacked passes on executor
#: threads of the serving process; ``process`` ships them to a
#: ``ProcessPoolExecutor`` so the DSP runs on real cores.
DSP_EXECUTOR_KINDS = ("thread", "process")


class ServiceOverloaded(RuntimeError):
    """The round queue is full — backpressure; the caller should retry."""


class DeadlineExceeded(RuntimeError):
    """A round ran out of time — its deadline lapsed before batch
    admission, or its stacked DSP pass exceeded ``dsp_timeout_s``.

    Always fails closed: the server maps this to a structured
    ``timeout`` error reply (a deny), never a grant.  Retriable — a
    retry re-executes the round deterministically from its request id.
    """


@dataclass
class SchedulerStats:
    """Cumulative accounting of what the collector has dispatched.

    Beyond the dispatch totals, three operational signals feed the
    ``stats`` wire message (and through it the load generator's report):
    the batch-size histogram (how well traffic actually coalesced), the
    total linger wait (latency the collector added while gathering
    stragglers), and the queue-depth high-water mark (how close the
    service came to ``max_pending`` backpressure).
    """

    rounds: int = 0
    batches: int = 0
    largest_batch: int = 0
    #: ``{batch size: dispatch count}`` over every dispatched batch.
    batch_sizes: dict[int, int] = field(default_factory=dict)
    #: Total seconds batches spent gathering after their first round was
    #: picked up — the latency cost of coalescing.
    linger_wait_s: float = 0.0
    #: Highest number of rounds ever pending in the queue at once.
    queue_high_water: int = 0
    #: Rounds whose ``deadline_ms`` lapsed before batch admission.
    deadline_expired: int = 0
    #: Stacked passes that exceeded ``dsp_timeout_s`` — each marks the
    #: DSP executor *suspect* (a wedged worker or pathological batch).
    dsp_timeouts: int = 0

    @property
    def rounds_per_batch(self) -> float:
        return self.rounds / self.batches if self.batches else 0.0

    def record_batch(self, size: int, waited_s: float) -> None:
        """Account one dispatched batch of ``size`` rounds."""
        self.rounds += size
        self.batches += 1
        self.largest_batch = max(self.largest_batch, size)
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
        self.linger_wait_s += waited_s

    def histogram_text(self) -> str:
        """The batch-size histogram as ``"size:count,..."`` (sorted).

        The flat wire codec carries only scalars, so the ``stats_reply``
        message ships the histogram in this compact string form.
        """
        return ",".join(
            f"{size}:{count}"
            for size, count in sorted(self.batch_sizes.items())
        )


@dataclass
class _PendingRound:
    """One prepared round awaiting its stacked DSP pass."""

    prepared: PreparedRound
    future: "asyncio.Future[tuple[RenderedRecordings, DetectionPair]]" = field(
        repr=False, default=None  # type: ignore[assignment]
    )
    #: Loop time after which the round must not be admitted to a batch
    #: (``None`` = no deadline).
    expires_at: float | None = None


class BatchingScheduler:
    """Batches concurrent rounds into stacked DSP passes.

    Parameters
    ----------
    max_batch:
        Rounds per stacked pass; ``None`` selects the pipeline's
        :data:`~repro.sim.pipeline.DEFAULT_BATCH_SIZE`.  ``1`` disables
        coalescing (each round renders and detects solo — the
        "batching off" benchmark configuration); results are
        bit-identical for every value.
    linger_ms:
        After the first pending round is picked up, how long the
        collector waits for more before dispatching a partial batch.
        Bounds worst-case added latency for a lone request.
    max_pending:
        Queue limit; further :meth:`run_round` calls raise
        :class:`ServiceOverloaded` until the backlog drains.
    dsp_workers:
        Workers in the internally owned DSP executor — threads for
        ``dsp_executor="thread"``, processes for ``"process"``.  The
        default of 1 serializes stacked passes (batches already use the
        kernels' internal batching; more workers only help multi-core
        hosts).
    dsp_executor:
        ``"thread"`` (default) runs stacked passes on executor threads of
        the serving process — zero serialization cost, but the GIL keeps
        render/detect from overlapping the request path on most hosts.
        ``"process"`` ships each batch as picklable
        :class:`~repro.service.executor.RoundDSPJob`\\ s to a
        ``ProcessPoolExecutor`` (spawned, warmed at :meth:`start`), so
        the heavy phase runs on real cores while the asyncio loop only
        does protocol, coalescing, and decide.  Decisions are
        bit-identical either way.  Rounds whose ranging engine is not the
        stock ACTION cannot be shipped and fall back to an in-process
        thread for their batch.
    executor:
        Externally owned executor to use instead; it is not shut down by
        :meth:`stop`.  With ``dsp_executor="process"`` it must be a
        process pool whose workers can import :mod:`repro`.
    dsp_timeout_s:
        Upper bound on one stacked pass.  A pass that exceeds it fails
        every round in its batch with :class:`DeadlineExceeded` (the
        server answers ``timeout``, a deny) and increments
        ``stats.dsp_timeouts`` — the executor is then *suspect*; the
        abandoned work may still be burning a worker underneath.
        ``None`` (default) never times a pass out.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector` supplying
        deterministic batch-admission delays for tests and the chaos
        smoke.  ``None`` injects nothing.
    """

    def __init__(
        self,
        max_batch: int | None = None,
        *,
        linger_ms: float = 5.0,
        max_pending: int = 256,
        dsp_workers: int = 1,
        dsp_executor: str = "thread",
        executor: Executor | None = None,
        dsp_timeout_s: float | None = None,
        faults: FaultInjector | None = None,
    ) -> None:
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch!r}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending!r}")
        if linger_ms < 0:
            raise ValueError(f"linger_ms must be >= 0, got {linger_ms!r}")
        if dsp_workers < 1:
            raise ValueError(f"dsp_workers must be >= 1, got {dsp_workers!r}")
        if dsp_executor not in DSP_EXECUTOR_KINDS:
            raise ValueError(
                f"dsp_executor must be one of {DSP_EXECUTOR_KINDS}, "
                f"got {dsp_executor!r}"
            )
        if dsp_timeout_s is not None and dsp_timeout_s <= 0:
            raise ValueError(
                f"dsp_timeout_s must be > 0, got {dsp_timeout_s!r}"
            )
        self.max_batch = max_batch or DEFAULT_BATCH_SIZE
        self.dsp_timeout_s = dsp_timeout_s
        self.faults = faults
        self.linger_s = linger_ms / 1000.0
        self.max_pending = max_pending
        self.dsp_workers = dsp_workers
        self.dsp_executor = dsp_executor
        self.stats = SchedulerStats()
        #: Rounds announced (via :meth:`announce`) but not yet submitted:
        #: the collector lingers only while this is positive, so a lone
        #: request never pays the linger and a burst fills its batch.
        self._announced = 0
        self._queue: asyncio.Queue[_PendingRound] = asyncio.Queue(
            maxsize=max_pending
        )
        self._executor = executor
        self._owns_executor = executor is None
        self._collector: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._collector is not None and not self._collector.done()

    async def start(self) -> None:
        """Start the collector task (idempotent).

        In ``process`` mode this spawns and warms the worker pool before
        the first round arrives, so the first stacked pass pays no
        worker-import latency.
        """
        if self.running:
            return
        if self._executor is None:
            if self.dsp_executor == "process":
                # One pass per worker process: a per-worker fan-out
                # would oversubscribe the cores the pool already uses.
                self._executor = ProcessPoolExecutor(
                    max_workers=self.dsp_workers,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=set_fanout_width,
                    initargs=(1,),
                )
                loop = asyncio.get_running_loop()
                await asyncio.gather(
                    *(
                        loop.run_in_executor(self._executor, warm_worker)
                        for _ in range(self.dsp_workers)
                    )
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.dsp_workers,
                    thread_name_prefix="repro-dsp",
                )
            self._owns_executor = True
        self._collector = asyncio.get_running_loop().create_task(
            self._collect()
        )

    async def stop(self) -> None:
        """Cancel the collector and fail anything still queued."""
        if self._collector is not None:
            self._collector.cancel()
            try:
                await self._collector
            except asyncio.CancelledError:
                pass
            self._collector = None
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if not item.future.done():
                item.future.set_exception(
                    ServiceOverloaded("scheduler stopped")
                )
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "BatchingScheduler":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def announce(self, rounds: int) -> None:
        """Declare that ``rounds`` submissions are on their way.

        The collector lingers for stragglers only while announced rounds
        remain outstanding, so batches fill under load without a lone
        request ever waiting on a blind timeout.  Each announced round
        must be consumed by a ``run_round(..., announced=True)`` call or
        returned with :meth:`retract`.
        """
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds!r}")
        self._announced += rounds

    def retract(self, rounds: int = 1) -> None:
        """Return announced rounds that will never be submitted."""
        self._announced = max(0, self._announced - rounds)

    async def run_round(
        self,
        prepared: PreparedRound,
        *,
        announced: bool = False,
        expires_at: float | None = None,
    ) -> tuple[RenderedRecordings, DetectionPair]:
        """Queue one prepared round; resolves with its recordings+detections.

        ``announced=True`` consumes one prior :meth:`announce` slot
        (whether or not the enqueue succeeds).  Raises
        :class:`ServiceOverloaded` immediately when ``max_pending``
        rounds are already queued.  ``expires_at`` (a loop time) makes
        the round raise :class:`DeadlineExceeded` instead of running if
        its batch is admitted after that instant; once admitted, a round
        always completes.
        """
        if announced:
            self.retract(1)
        future = asyncio.get_running_loop().create_future()
        item = _PendingRound(prepared, future, expires_at=expires_at)
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            raise ServiceOverloaded(
                f"round queue full ({self.max_pending} pending)"
            ) from None
        self.stats.queue_high_water = max(
            self.stats.queue_high_water, self._queue.qsize()
        )
        return await future

    # ------------------------------------------------------------------
    # Collector
    # ------------------------------------------------------------------

    async def _collect(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            picked_up = loop.time()
            await self._gather_more(batch)
            await self._dispatch(batch, loop.time() - picked_up)

    async def _gather_more(self, batch: list[_PendingRound]) -> None:
        """Fill ``batch`` up to ``max_batch`` from work that is ready now.

        Announced-work-aware, timer-free lingering: while announced
        rounds are outstanding, yield one cooperative loop cycle
        (``sleep(0)``) so every ready producer task runs its prepare and
        submits, then drain again.  The moment a full cycle produces
        nothing new — the remaining announced rounds are blocked on
        something slower than a loop cycle — the batch dispatches; an
        isolated round therefore never waits at all, and ``linger_ms``
        only caps the total gathering time under pathological load.
        """
        if self.max_batch <= 1:
            return
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.linger_s
        while len(batch) < self.max_batch:
            # Drain whatever is already pending without yielding.
            try:
                while len(batch) < self.max_batch:
                    batch.append(self._queue.get_nowait())
                return
            except asyncio.QueueEmpty:
                pass
            if self._announced <= 0 or loop.time() >= deadline:
                return
            # One cooperative cycle: every ready producer gets to run.
            await asyncio.sleep(0)
            if self._queue.empty():
                return

    def _submit_batch(
        self, batch: list[_PendingRound]
    ) -> "asyncio.Future[list[tuple[RenderedRecordings, DetectionPair]]]":
        """Hand one batch to the configured executor.

        In ``process`` mode the batch is projected onto picklable
        :class:`~repro.service.executor.RoundDSPJob`\\ s first; a batch
        containing a round the projection rejects (non-stock ranging
        engine) falls back to an in-process thread, preserving behaviour
        for exotic engines without poisoning the pool.
        """
        loop = asyncio.get_running_loop()
        rounds = [item.prepared for item in batch]
        if self.dsp_executor == "process":
            jobs = [round_dsp_job(prepared) for prepared in rounds]
            if all(job is not None for job in jobs):
                return loop.run_in_executor(
                    self._executor, execute_dsp_jobs, jobs
                )
            # ``None`` = the loop's default thread pool.
            return loop.run_in_executor(None, render_and_detect, rounds)
        return loop.run_in_executor(self._executor, render_and_detect, rounds)

    async def _dispatch(
        self, batch: list[_PendingRound], waited_s: float = 0.0
    ) -> None:
        # Rounds whose futures were abandoned (client disconnected, the
        # request errored out) must not cost a stacked pass.
        batch = [item for item in batch if not item.future.done()]
        if not batch:
            return
        if self.faults is not None:
            delay_s = self.faults.take_batch_delay_s()
            if delay_s > 0.0:
                await asyncio.sleep(delay_s)
        # Deadline expiry happens here and only here — before admission.
        # An admitted round always completes, so batch composition never
        # becomes a numerical decision.
        now = asyncio.get_running_loop().time()
        admitted: list[_PendingRound] = []
        for item in batch:
            if item.expires_at is not None and now >= item.expires_at:
                self.stats.deadline_expired += 1
                if not item.future.done():
                    item.future.set_exception(
                        DeadlineExceeded(
                            "deadline expired before batch admission"
                        )
                    )
            else:
                admitted.append(item)
        batch = admitted
        if not batch:
            return
        self.stats.record_batch(len(batch), waited_s)
        try:
            submitted = self._submit_batch(batch)
            if self.dsp_timeout_s is not None:
                results = await asyncio.wait_for(
                    submitted, self.dsp_timeout_s
                )
            else:
                results = await submitted
        except asyncio.TimeoutError:
            # The executor is now suspect: wait_for abandoned the pass,
            # but the work may still be burning a worker underneath.
            self.stats.dsp_timeouts += 1
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        DeadlineExceeded(
                            f"DSP pass exceeded "
                            f"dsp_timeout_s={self.dsp_timeout_s}"
                        )
                    )
            return
        except asyncio.CancelledError:
            for item in batch:
                if not item.future.done():
                    item.future.cancel()
            raise
        except BaseException as error:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(
                        RuntimeError(f"DSP batch failed: {error!r}")
                    )
            return
        for item, result in zip(batch, results):
            if not item.future.done():
                item.future.set_result(result)
