"""The asyncio authentication service driving the staged pipeline.

Request lifecycle (see ``docs/service.md`` for the full narrative):

1. a :class:`~repro.service.protocol.RangingRequest` arrives (over the
   newline-delimited-JSON TCP listener, or directly through
   :meth:`AuthService.handle_request` for in-process callers);
2. per round, the round driver's RNG-bound phase runs on the request
   path — :func:`~repro.eval.engine.build_trial_session` (the *same*
   construction the CLI engine uses), then
   :func:`~repro.sim.pipeline.prepare` (``negotiate`` → ``schedule`` →
   ``render_noise``) on the session's own RNG stream;
3. the round's deterministic DSP is submitted to the
   :class:`~repro.service.scheduler.BatchingScheduler`, which coalesces
   it with whatever other requests are in flight into one
   :func:`~repro.sim.pipeline.render_and_detect` pass on the DSP
   executor;
4. :func:`~repro.sim.pipeline.finish` (``exchange_and_decide``) runs
   back on the request path, and the round's
   :class:`~repro.service.protocol.RoundDecision` streams to the caller
   immediately;
5. after the last round, the aggregate
   :class:`~repro.service.protocol.RequestComplete` (the PIANO
   grant/deny rule) terminates the stream.

Bit-identity: steps 2–4 execute the identical driver phases, in the
identical per-session RNG order, as a CLI trial — batching across
requests cannot change bits (pipeline invariant 2) — so a served
decision equals the same trial run by ``python -m repro`` exactly.

Lifecycle: :meth:`AuthService.begin_draining` flips the service into
drain mode — requests already streaming finish normally while new ones
are answered with a ``busy`` error — and :meth:`AuthService.drain` waits
for the in-flight work to empty, then stops the scheduler.  The CLI wires
this to SIGINT/SIGTERM so ``repro serve`` never drops an accepted
request on shutdown.  Operational telemetry travels over the same wire:
a :class:`~repro.service.protocol.StatsRequest` is answered (even while
draining) with the scheduler's cumulative counters, and a
:class:`~repro.service.protocol.CalibrateRequest` with the per-deployment
threshold calibration distilled from served ranging evidence
(:mod:`repro.service.calibration`).
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator

from repro.acoustics.environment import get_environment
from repro.core.ranging import RangingOutcome
from repro.eval.engine import TrialSpec, build_trial_session
from repro.sim.pipeline import finish, prepare

# Bound for perfbench/layers.py, which wraps the stages under each
# caller's module names; the round driver in repro.sim.pipeline.batch
# makes the calls.
from repro.sim.pipeline import (  # noqa: F401
    exchange_and_decide,
    negotiate,
    render_noise,
    schedule,
)
from repro.service.calibration import CalibrationStore
from repro.service.protocol import (
    CalibrateReply,
    CalibrateRequest,
    ErrorReply,
    Message,
    ProtocolError,
    RangingRequest,
    StatsReply,
    StatsRequest,
    aggregate_decision,
    decode_message,
    encode_message,
    request_spec,
    round_decision,
)
from repro.service.faults import FaultInjector, FaultPlan
from repro.service.scheduler import (
    BatchingScheduler,
    DeadlineExceeded,
    ServiceOverloaded,
)

__all__ = ["AuthService", "MAX_ROUNDS_PER_REQUEST"]

#: Upper bound on ``RangingRequest.rounds``: each round becomes an eager
#: task, so the field must not let one request allocate unbounded work.
#: Callers wanting more rounds slice the cell across requests with
#: ``first_trial`` (as the benchmark does).
MAX_ROUNDS_PER_REQUEST = 1024


def _validate(request: RangingRequest) -> str | None:
    """A human-readable problem with ``request``, or ``None`` if valid.

    Also re-checks scalar types: the wire codec already enforces them,
    but in-process callers construct :class:`RangingRequest` directly.
    """
    if not isinstance(request.request_id, str) or not request.request_id:
        return "request_id must be a non-empty string"
    if not isinstance(request.environment, str):
        return "environment must be a string"
    for name in ("rounds", "first_trial", "seed"):
        value = getattr(request, name)
        if not isinstance(value, int) or isinstance(value, bool):
            return f"{name} must be an integer, got {value!r}"
    for name in ("distance_m", "threshold_m", "deadline_ms"):
        value = getattr(request, name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"{name} must be a number, got {value!r}"
    if request.deadline_ms < 0:
        return f"deadline_ms must be >= 0, got {request.deadline_ms}"
    if request.rounds < 1:
        return f"rounds must be >= 1, got {request.rounds}"
    if request.rounds > MAX_ROUNDS_PER_REQUEST:
        return (
            f"rounds must be <= {MAX_ROUNDS_PER_REQUEST} per request "
            f"(slice the cell with first_trial), got {request.rounds}"
        )
    if request.first_trial < 0:
        return f"first_trial must be >= 0, got {request.first_trial}"
    if not request.distance_m > 0:
        return f"distance_m must be positive, got {request.distance_m}"
    if not request.threshold_m > 0:
        return f"threshold_m must be positive, got {request.threshold_m}"
    try:
        get_environment(request.environment)
    except KeyError:
        return f"unknown environment {request.environment!r}"
    return None


class AuthService:
    """Streaming proximity-authentication service over the staged pipeline.

    Parameters
    ----------
    scheduler:
        A pre-configured :class:`BatchingScheduler`; by default one is
        built from the keyword knobs below.
    batch_size:
        Rounds per stacked DSP pass (``None`` = pipeline auto default,
        ``1`` = per-round DSP — "batching off").
    linger_ms:
        Collector linger before dispatching a partial batch.
    queue_limit:
        Backpressure: max rounds queued for DSP before new requests are
        rejected with a ``busy`` error.
    dsp_workers:
        Workers on the DSP executor (1 serializes stacked passes).
    dsp_executor:
        ``"thread"`` (default) runs stacked DSP passes on executor
        threads of the serving process; ``"process"`` ships them to a
        spawned ``ProcessPoolExecutor`` so the heavy phase escapes the
        GIL (see :mod:`repro.service.executor`).  Bit-identical either
        way.
    shard_index / shard_count:
        This server's position in the sharded front tier, echoed in
        :class:`~repro.service.protocol.StatsReply` messages.  The
        single-process server is shard 0 of 1.
    max_inflight_rounds:
        Memory backpressure: max rounds being *prepared or detected* at
        once.  A prepared round pins several MB of noise beds and
        arrival plans until its DSP pass completes, so unbounded eager
        execution under high concurrency trades throughput for memory
        pressure; excess rounds simply wait their turn (they are not
        rejected — ``queue_limit`` is the rejecting limit).
    dsp_timeout_s:
        Upper bound on one stacked DSP pass (see
        :class:`BatchingScheduler`); a pass over budget fails its rounds
        closed with a ``timeout`` error and marks the executor suspect.
        ``None`` (default) disables the timeout.
    fault_plan:
        Optional deterministic :class:`~repro.service.faults.FaultPlan`
        for tests and the chaos smoke.  The service wraps it in its own
        per-process :class:`~repro.service.faults.FaultInjector` and
        consumes the batch-delay, frame, and busy-once fault kinds;
        ``None`` (and an empty plan) injects nothing.

    Use as an async context manager (starts/stops the scheduler), or
    call :meth:`handle_request` directly — the scheduler lazily starts on
    first use, but only ``async with`` guarantees executor shutdown.
    """

    def __init__(
        self,
        scheduler: BatchingScheduler | None = None,
        *,
        batch_size: int | None = None,
        linger_ms: float = 5.0,
        queue_limit: int = 256,
        dsp_workers: int = 1,
        dsp_executor: str = "thread",
        shard_index: int = 0,
        shard_count: int = 1,
        max_inflight_rounds: int = 32,
        dsp_timeout_s: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.faults: FaultInjector | None = None
        if fault_plan is not None and not fault_plan.empty:
            self.faults = FaultInjector(fault_plan)
        self.scheduler = scheduler or BatchingScheduler(
            batch_size,
            linger_ms=linger_ms,
            max_pending=queue_limit,
            dsp_workers=dsp_workers,
            dsp_executor=dsp_executor,
            dsp_timeout_s=dsp_timeout_s,
            faults=self.faults,
        )
        if max_inflight_rounds < 1:
            raise ValueError(
                f"max_inflight_rounds must be >= 1, got {max_inflight_rounds!r}"
            )
        self._round_gate = asyncio.Semaphore(max_inflight_rounds)
        self.calibration = CalibrationStore()
        self.shard_index = shard_index
        self.shard_count = shard_count
        self._draining = False
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def draining(self) -> bool:
        """Whether the service is refusing new requests (shutdown path)."""
        return self._draining

    def begin_draining(self) -> None:
        """Stop accepting new requests; in-flight streams keep running.

        From this point every new :meth:`handle_request` answers with a
        ``busy`` error (the same retry-later signal backpressure uses),
        while requests already streaming run to completion.  Idempotent.
        """
        self._draining = True

    async def drain(self) -> None:
        """Wait for in-flight requests to finish, then stop the scheduler.

        Calls :meth:`begin_draining` first, so it is safe as the only
        shutdown call.  Returns once every accepted request has streamed
        its final message and the DSP executor is shut down.
        """
        self.begin_draining()
        await self._idle.wait()
        await self.scheduler.stop()

    async def __aenter__(self) -> "AuthService":
        await self.scheduler.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.scheduler.stop()

    # ------------------------------------------------------------------
    # Request handling (transport-independent)
    # ------------------------------------------------------------------

    async def handle_request(
        self, request: RangingRequest
    ) -> AsyncIterator[Message]:
        """Serve one request, yielding the reply stream in order.

        Yields ``rounds`` :class:`RoundDecision` messages (each as soon
        as its round completes) followed by one :class:`RequestComplete`
        — or an :class:`ErrorReply` terminating the stream early.
        """
        problem = _validate(request)
        if problem is not None:
            yield ErrorReply(
                request_id=request.request_id,
                code="bad-request",
                message=problem,
            )
            return
        if self._draining:
            yield ErrorReply(
                request_id=request.request_id,
                code="busy",
                message="service is draining for shutdown; retry elsewhere",
            )
            return
        if self.faults is not None and self.faults.take_busy():
            # Injected backpressure bounce: indistinguishable from a
            # real queue-full rejection — nothing was executed.
            yield ErrorReply(
                request_id=request.request_id,
                code="busy",
                message="injected busy (fault plan)",
            )
            return
        self._active_requests += 1
        self._idle.clear()
        try:
            await self.scheduler.start()

            # Rounds are independent trials (each on its own world and
            # RNG stream), so they execute eagerly in parallel: every
            # round's RNG stages run as soon as the loop is free and its
            # DSP joins the next stacked batch — a request's rounds
            # typically share one pass.  Decisions still stream strictly
            # in round order.
            spec = request_spec(request)
            loop = asyncio.get_running_loop()
            expires_at = (
                loop.time() + request.deadline_ms / 1000.0
                if request.deadline_ms > 0
                else None
            )
            self.scheduler.announce(request.rounds)
            tasks = [
                loop.create_task(
                    self._run_round(
                        spec, request.first_trial + index, expires_at
                    )
                )
                for index in range(request.rounds)
            ]
            decisions = []
            try:
                for index, task in enumerate(tasks):
                    try:
                        outcome = await task
                    except ServiceOverloaded as error:
                        yield ErrorReply(
                            request_id=request.request_id,
                            code="busy",
                            message=str(error),
                        )
                        return
                    except DeadlineExceeded as error:
                        yield ErrorReply(
                            request_id=request.request_id,
                            code="timeout",
                            message=str(error),
                        )
                        return
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:
                        # Fail closed: an unexpected round failure is a
                        # structured deny, never a grant — and never a
                        # torn-down stream.
                        yield ErrorReply(
                            request_id=request.request_id,
                            code="internal-error",
                            message=f"round failed: {error!r}",
                        )
                        return
                    decisions.append(
                        round_decision(
                            request, index, request.first_trial + index, outcome
                        )
                    )
                    yield decisions[-1]
            finally:
                pending = [task for task in tasks if not task.done()]
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
                # Reap exceptions of rounds completed after an early exit.
                for task in tasks:
                    if task.done() and not task.cancelled():
                        task.exception()
            yield aggregate_decision(request, decisions)
        finally:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._idle.set()

    def stats_reply(self, request_id: str) -> StatsReply:
        """This shard's cumulative scheduler statistics as a wire message."""
        stats = self.scheduler.stats
        return StatsReply(
            request_id=request_id,
            shard=self.shard_index,
            shards=self.shard_count,
            rounds=stats.rounds,
            batches=stats.batches,
            largest_batch=stats.largest_batch,
            queue_high_water=stats.queue_high_water,
            linger_wait_s=stats.linger_wait_s,
            batch_histogram=stats.histogram_text(),
            deadline_expired=stats.deadline_expired,
            dsp_timeouts=stats.dsp_timeouts,
        )

    def calibrate_reply(
        self, request: CalibrateRequest
    ) -> CalibrateReply | ErrorReply:
        """This shard's calibrated τ for one environment as a wire message.

        σ_d comes from the ranging errors of rounds this shard served
        (:mod:`repro.service.calibration`); until enough traffic has
        accrued the paper-implied prior answers, flagged ``source=
        "prior"``.
        """
        if not 0 < request.target_frr_pct < 100:
            return ErrorReply(
                request_id=request.request_id,
                code="bad-request",
                message=(
                    "target_frr_pct must be in (0, 100), got "
                    f"{request.target_frr_pct!r}"
                ),
            )
        try:
            get_environment(request.environment)
        except KeyError:
            return ErrorReply(
                request_id=request.request_id,
                code="bad-request",
                message=f"unknown environment {request.environment!r}",
            )
        summary = self.calibration.summary(
            request.environment, target_frr=request.target_frr_pct / 100.0
        )
        return CalibrateReply(
            request_id=request.request_id,
            shard=self.shard_index,
            shards=self.shard_count,
            environment=summary.environment,
            threshold_m=summary.threshold_m,
            sigma_m=summary.sigma_m,
            samples=summary.samples,
            target_frr_pct=100.0 * summary.target_frr,
            source=summary.source,
        )

    async def _run_round(
        self,
        spec: TrialSpec,
        trial: int,
        expires_at: float | None = None,
    ) -> RangingOutcome:
        """One ranging round: RNG stages inline, DSP via the scheduler.

        Consumes exactly one announced-round slot, whichever way it
        exits (Bluetooth failure, queue overflow, deadline expiry,
        cancellation).  ``expires_at`` is checked before the RNG stages
        start and again at batch admission — never mid-computation.
        """
        submitted = False
        try:
            async with self._round_gate:
                if (
                    expires_at is not None
                    and asyncio.get_running_loop().time() >= expires_at
                ):
                    self.scheduler.stats.deadline_expired += 1
                    raise DeadlineExceeded(
                        "deadline expired before round start"
                    )
                session = build_trial_session(spec, trial)
                prepared = prepare(session)
                if isinstance(prepared, RangingOutcome):
                    return prepared
                submitted = True
                recordings, detections = await self.scheduler.run_round(
                    prepared, announced=True, expires_at=expires_at
                )
                outcome = finish(
                    session, prepared.negotiation, recordings, detections
                )
                if outcome.ok and isinstance(spec.environment, str):
                    # Free calibration evidence: on the simulated
                    # substrate the spec carries the true distance, so
                    # the round's signed ranging error is observable.
                    self.calibration.record(
                        spec.environment,
                        outcome.require_distance() - spec.distance_m,
                    )
                return outcome
        finally:
            if not submitted:
                self.scheduler.retract(1)

    # ------------------------------------------------------------------
    # TCP transport: newline-delimited JSON
    # ------------------------------------------------------------------

    async def serve(
        self, host: str = "127.0.0.1", port: int = 8765
    ) -> asyncio.AbstractServer:
        """Start the JSON-lines TCP listener; returns the asyncio server.

        Each connection may pipeline any number of requests; replies are
        interleaved as rounds complete and correlated by ``request_id``.
        """
        return await asyncio.start_server(self._handle_connection, host, port)

    async def serve_unix(self, path: str) -> asyncio.AbstractServer:
        """Start the same JSON-lines listener on a unix-domain socket.

        This is the shard-worker transport: the sharded front tier
        (:mod:`repro.service.shard`) runs one :class:`AuthService` per
        worker process behind a unix socket and forwards client lines to
        it verbatim.
        """
        return await asyncio.start_unix_server(self._handle_connection, path)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Frame longer than the stream limit: the buffer is
                    # desynchronized, so answer once and hang up rather
                    # than misparse the remainder as new frames.
                    await self._send(
                        writer,
                        write_lock,
                        ErrorReply(
                            "",
                            "bad-request",
                            "frame exceeds maximum line length",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_message(line)
                except ProtocolError as error:
                    await self._send(
                        writer,
                        write_lock,
                        ErrorReply("", "bad-request", str(error)),
                    )
                    continue
                if isinstance(message, StatsRequest):
                    await self._send(
                        writer, write_lock, self.stats_reply(message.request_id)
                    )
                    continue
                if isinstance(message, CalibrateRequest):
                    await self._send(
                        writer, write_lock, self.calibrate_reply(message)
                    )
                    continue
                if not isinstance(message, RangingRequest):
                    await self._send(
                        writer,
                        write_lock,
                        ErrorReply(
                            getattr(message, "request_id", ""),
                            "bad-request",
                            "only ranging_request messages are accepted",
                        ),
                    )
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_request(message, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown (process exiting after a drain): fall
            # through to cleanup instead of logging a cancelled handler.
            pass
        finally:
            for task in tasks:
                task.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(
        self,
        request: RangingRequest,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            async for message in self.handle_request(request):
                await self._send(writer, write_lock, message)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            raise
        except Exception as error:  # pragma: no cover - defensive
            try:
                await self._send(
                    writer,
                    write_lock,
                    ErrorReply(
                        request.request_id, "internal-error", repr(error)
                    ),
                )
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        message: Message,
    ) -> None:
        data = (encode_message(message) + "\n").encode("utf-8")
        if self.faults is not None:
            mode = self.faults.take_frame_fault()
            if mode == "drop":
                return
            if mode == "truncate":
                data = data[: len(data) // 2] + b"\n"
        async with write_lock:
            writer.write(data)
            await writer.drain()
