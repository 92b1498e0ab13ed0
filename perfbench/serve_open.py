"""Workload ``serve-open``: the sharded service under open-loop arrivals.

``python -m repro serve --workers 2`` runs in its own process.  This
process is the one generator: it sends seeded Poisson arrivals at
:data:`RATE_RPS` requests per second, one round each, over at most
``nproc`` :class:`repro.service.AuthClient` connections, and never waits
for a reply before the next send.  The mix has 32 session identities —
four environments × {0.5, 1.0, 2.0, 12.0} m × session seeds {0, 1} —
whose session → shard split is recorded with every result.  The
workload seed draws the arrival times, the order the identities are
visited in, and each identity's first trial.

The 12 m identities lie beyond the 10 m Bluetooth range.  The program
refuses to pair such devices: the offline engine raises
``PairingError`` while building the trial, and the service answers the
request with an ``internal-error`` reply carrying that error.  A reply
of that shape for a request whose reference trial raises the same error
is counted as a *refusal*: an answered request, not a failure.  Every
other error, busy, timeout or transport failure is a failed operation.

Correctness: every refusal is confirmed against the reference, and a
seeded sample of :data:`CHECKED_DECISIONS` served decisions must equal
the decision the trial engine's own per-trial path produces for the same
(environment, distance, seed, trial).

Traced: the same open loop for a fixed :data:`TRACED_WINDOW_S` against a
freshly started server, with the
per-shard scheduler statistics read over the public ``stats`` message,
then the tier ladder — the 32 identities at trial 0, one request at a
time, through ``run_cell_spec``, an in-process ``AuthService``, a
one-worker ``repro serve`` and the two-worker server.  The two
in-process tiers run once untraced and once with the layers wrapped.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import statistics
import time
from dataclasses import replace

from perfbench.host import ServerProcess, run_probe, self_peak_rss_mb
from perfbench.layers import instrument, span_metrics
from perfbench.openloop import (
    PlannedRequest,
    Sample,
    drive,
    lag_summary,
    outcome_counts,
    poisson_schedule,
)
from perfbench.report import RunResult, latency_metrics, setup_metric
from perfbench.spans import Patcher, Tracer, bench_span
from perfbench.stats import min_samples

ENVIRONMENTS = ("office", "home", "street", "restaurant")
DISTANCES_M = (0.5, 1.0, 2.0, 12.0)
SESSION_SEEDS = (0, 1)
RATE_RPS = 12.0
WARMUP_S = 2.0
THRESHOLD_M = 1.0
WORKERS = 2
SETUP_SPAWNS = 3
CHECKED_DECISIONS = 16
#: Timed passes per ladder tier, after one warm-up pass.
LADDER_PASSES = 2
#: The traced run's open loop: a fixed window with room for a p95 of
#: request latency and generator lag, so per-layer counts do not scale
#: with ``--seconds``.
TRACED_WINDOW_S = 20
HOST = "127.0.0.1"


def identities() -> list[dict]:
    return [
        {"environment": env, "distance_m": distance, "seed": seed}
        for env in ENVIRONMENTS
        for distance in DISTANCES_M
        for seed in SESSION_SEEDS
    ]


def shard_split(mix: list[dict], shards: int = WORKERS) -> list[int]:
    """Session identities per shard under the service's routing."""
    from repro.service import RangingRequest, session_key, shard_for_session

    counts = [0] * shards
    for fields in mix:
        request = RangingRequest(request_id="split", **fields)
        counts[shard_for_session(session_key(request), shards)] += 1
    return counts


def build_plan(seed: int, seconds: float) -> list[PlannedRequest]:
    """Warm-up arrivals, then ``RATE_RPS × seconds`` measured arrivals."""
    rng = random.Random(seed)
    mix = identities()
    first_trial = [rng.randrange(1_000) for _ in mix]
    visits = [0] * len(mix)
    offsets = [
        *poisson_schedule(rng, round(RATE_RPS * WARMUP_S), WARMUP_S),
        *poisson_schedule(rng, round(RATE_RPS * seconds), seconds, WARMUP_S),
    ]
    order: list[int] = []
    while len(order) < len(offsets):
        permutation = list(range(len(mix)))
        rng.shuffle(permutation)
        order.extend(permutation)
    plan = []
    for offset, identity in zip(offsets, order):
        fields = dict(
            mix[identity],
            rounds=1,
            first_trial=first_trial[identity] + visits[identity],
            threshold_m=THRESHOLD_M,
        )
        visits[identity] += 1
        plan.append(PlannedRequest(offset, fields, measured=offset >= WARMUP_S))
    return plan


def reference(fields: dict):
    """What the trial engine decides for one request's trial.

    Returns ``("refused", None)`` when the trial cannot be built because
    the devices cannot pair, else ``("decision", (RoundDecision,
    RequestComplete))`` as the service would stream them.
    """
    from repro.core.exceptions import PairingError
    from repro.eval.engine import build_trial_session
    from repro.service import (
        RangingRequest,
        aggregate_decision,
        request_spec,
        round_decision,
    )
    from repro.sim.pipeline import BatchedSessionRunner

    request = RangingRequest(request_id="reference", **fields)
    try:
        session = build_trial_session(request_spec(request), request.first_trial)
    except PairingError:
        return "refused", None
    (outcome,) = BatchedSessionRunner().run([session])
    decision = round_decision(request, 0, request.first_trial, outcome)
    return "decision", (decision, aggregate_decision(request, [decision]))


def _is_refusal(code: str | None, message: str | None) -> bool:
    return code == "internal-error" and "PairingError" in (message or "")


def served_answer(sample: Sample):
    """A sample's reply in :func:`reference`'s shape (request id blanked)."""
    if sample.outcome == "ok":
        served = sample.reply
        rounds = [replace(r, request_id="reference") for r in served.rounds]
        complete = replace(served.complete, request_id="reference")
        return "decision", (rounds[0], complete)
    if sample.outcome == "error" and _is_refusal(sample.error_code, sample.error_message):
        return "refused", None
    return sample.outcome, sample.error_message


def check_samples(
    plan: list[PlannedRequest], samples: list[Sample], seed: int, result: RunResult
) -> dict[str, int]:
    """Classify every sample; confirm refusals and a sample of decisions."""
    classes = outcome_counts(samples)
    classes["refused"] = 0
    ok = [s for s in samples if s.outcome == "ok"]
    checks = random.Random(seed ^ 0x5EED).sample(ok, min(CHECKED_DECISIONS, len(ok)))
    for sample in samples:
        answer = served_answer(sample)
        if answer[0] == "refused":
            classes["error"] -= 1
            if reference(plan[sample.index].fields)[0] == "refused":
                classes["refused"] += 1
            else:
                result.mismatch()
        elif answer[0] != "decision":
            result.failed += 1
    for sample in checks:
        if served_answer(sample) != reference(plan[sample.index].fields):
            result.mismatch()
    result.attempted += len(samples) + len(checks)
    classes["decisions_checked"] = len(checks)
    return classes


async def _open_loop(port: int, plan: list[PlannedRequest]):
    from repro.service import AuthClient

    connections = min(len(os.sched_getaffinity(0)), 4)
    clients = [await AuthClient.connect(HOST, port) for _ in range(connections)]
    try:
        samples = await drive(plan, clients)
        stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return samples, stats, connections


def _answered(samples: list[Sample]) -> list[Sample]:
    return [
        s
        for s in samples
        if s.measured
        and (s.outcome == "ok" or _is_refusal(s.error_code, s.error_message))
    ]


def _serve_detail(plan, samples, stats, connections, classes) -> dict:
    mix = identities()
    in_range = [fields for fields in mix if fields["distance_m"] < 10.0]
    return {
        "rate_rps": RATE_RPS,
        "warmup_s": WARMUP_S,
        "connections": connections,
        "requests": len(plan),
        "measured_requests": sum(p.measured for p in plan),
        "classes": classes,
        "retried": sum(s.attempts > 1 for s in samples),
        "generator_lag_ms": lag_summary([s for s in samples if s.measured]),
        "session_split": shard_split(mix),
        "in_range_session_split": shard_split(in_range),
        "shard_rounds": [reply.rounds for reply in stats],
        "shard_batches": [reply.batches for reply in stats],
    }


def run_untraced(seed: int, seconds: float) -> RunResult:
    if RATE_RPS * seconds < min_samples(95.0):
        raise SystemExit(
            f"serve-open needs --seconds >= {math.ceil(min_samples(95.0) / RATE_RPS)} "
            f"for a p95 at {RATE_RPS:g} req/s"
        )
    plan = build_plan(seed, seconds)
    setup_samples = []
    server = None
    try:
        for spawn in range(SETUP_SPAWNS):
            server = ServerProcess(WORKERS)
            setup_samples.append(server.start())
            if spawn < SETUP_SPAWNS - 1:
                server.stop()
        samples, stats, connections = asyncio.run(_open_loop(server.port, plan))
        server_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    result = RunResult(metrics={})
    classes = check_samples(plan, samples, seed, result)
    answered = _answered(samples)
    window_start = samples[0].scheduled_s - plan[0].offset_s + WARMUP_S
    window_end = max(s.finished_s for s in answered)
    setup_s, setup_detail = setup_metric(setup_samples)
    latency, latency_detail = latency_metrics([s.latency_s for s in answered])
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": max(self_peak_rss_mb(), server_rss),
        "trials_per_s": len(answered) / (window_end - window_start),
        **latency,
    }
    result.detail = {
        **setup_detail,
        **latency_detail,
        **_serve_detail(plan, samples, stats, connections, classes),
        "server_peak_rss_mb": server_rss,
    }
    return result


# ----------------------------------------------------------------------
# Traced run: scheduler statistics and the tier ladder
# ----------------------------------------------------------------------


def ladder_requests(seed: int) -> list[dict]:
    mix = identities()
    random.Random(seed).shuffle(mix)
    return [dict(fields, rounds=1, first_trial=0, threshold_m=THRESHOLD_M) for fields in mix]


def _pipeline_answer(fields: dict):
    from repro.core.exceptions import PairingError
    from repro.eval.engine import TrialSpec, run_cell_spec
    from repro.service import RangingRequest, aggregate_decision, round_decision

    spec = TrialSpec(
        environment=fields["environment"],
        distance_m=fields["distance_m"],
        n_trials=1,
        seed=fields["seed"],
    )
    try:
        (outcome,) = run_cell_spec(spec).outcomes
    except PairingError:
        return "refused", None
    request = RangingRequest(request_id="reference", **fields)
    decision = round_decision(request, 0, 0, outcome)
    return "decision", (decision, aggregate_decision(request, [decision]))


async def _inproc_answer(service, fields: dict, request_id: str):
    from repro.service import ErrorReply, RangingRequest, RequestComplete, RoundDecision

    rounds, complete = [], None
    async for message in service.handle_request(RangingRequest(request_id=request_id, **fields)):
        if isinstance(message, ErrorReply):
            if _is_refusal(message.code, message.message):
                return "refused", None
            return "error", message.code
        if isinstance(message, RoundDecision):
            rounds.append(replace(message, request_id="reference"))
        elif isinstance(message, RequestComplete):
            complete = replace(message, request_id="reference")
    return "decision", (rounds[0], complete)


async def _client_answer(client, fields: dict):
    try:
        served = await client.authenticate(**fields)
    except Exception as error:
        code = getattr(error, "code", None)
        if _is_refusal(code, str(error)):
            return "refused", None
        return "error", repr(error)
    rounds = [replace(r, request_id="reference") for r in served.rounds]
    return "decision", (rounds[0], replace(served.complete, request_id="reference"))


def _pipeline_pass(requests, tracer=None):
    times, answers = [], []
    for index, fields in enumerate(requests):
        started = time.perf_counter()
        with bench_span(tracer, "bench.ladder.pipeline", f"ladder-{index}"):
            answers.append(_pipeline_answer(fields))
        times.append(time.perf_counter() - started)
    return times, answers


async def _inproc_passes(requests, tracer: Tracer):
    """Warm-up, untraced and traced passes through one in-process service."""
    from repro.service import AuthService

    passes = []
    async with AuthService() as service:
        for number in range(LADDER_PASSES + 2):
            traced = number == LADDER_PASSES + 1
            times, answers = [], []
            with Patcher() as patcher:
                if traced:
                    instrument(tracer, patcher)
                for index, fields in enumerate(requests):
                    request_id = f"ladder-{number}-{index}"
                    started = time.perf_counter()
                    with bench_span(
                        tracer if traced else None,
                        "bench.ladder.service_inproc",
                        request_id,
                    ):
                        answers.append(await _inproc_answer(service, fields, request_id))
                    times.append(time.perf_counter() - started)
            passes.append((times, answers))
    return passes[1:-1], passes[-1]


async def _client_passes(port: int, requests):
    """Warm-up then timed passes, one request at a time over one connection."""
    from repro.service import AuthClient

    client = await AuthClient.connect(HOST, port)
    try:
        passes = []
        for _ in range(LADDER_PASSES + 1):
            times, answers = [], []
            for fields in requests:
                started = time.perf_counter()
                answers.append(await _client_answer(client, fields))
                times.append(time.perf_counter() - started)
            passes.append((times, answers))
    finally:
        await client.close()
    return passes[1:]


def ladder_metrics(tiers: dict[str, list]) -> dict[str, float]:
    """Per tier: median over requests of each request's median time.

    A tier's overhead is the median over requests of its per-request
    time minus the tier below's, so request mix cancels out.
    """
    per_request = {
        name: [1000.0 * statistics.median(column) for column in zip(*(p[0] for p in passes))]
        for name, passes in tiers.items()
    }
    metrics = {f"ladder.{name}_ms": statistics.median(ms) for name, ms in per_request.items()}
    for overhead, upper, lower in (
        ("service", "service_inproc", "pipeline"),
        ("tcp", "tcp_1worker", "service_inproc"),
        ("shard", "sharded_2worker", "tcp_1worker"),
    ):
        metrics[f"ladder.{overhead}_overhead_ms"] = statistics.median(
            a - b for a, b in zip(per_request[upper], per_request[lower])
        )
    return metrics


def run_traced(seed: int, seconds: float) -> tuple[RunResult, Tracer]:
    from repro.sim.pipeline import render_call_counts, reset_render_call_counts

    tracer = Tracer()
    result = RunResult(metrics={})
    metrics: dict[str, float] = {}
    _, line = run_probe(["import-service"])
    metrics["service.import_s"] = float(line.split()[1])

    plan = build_plan(seed, TRACED_WINDOW_S)
    requests = ladder_requests(seed)
    sharded = ServerProcess(WORKERS)
    single = ServerProcess(1)
    try:
        metrics["shard.ready_s"] = sharded.start()
        samples, stats, connections = asyncio.run(_open_loop(sharded.port, plan))
        classes = check_samples(plan, samples, seed, result)

        pipeline = [_pipeline_pass(requests) for _ in range(LADDER_PASSES + 1)][1:]
        reset_render_call_counts()
        with Patcher() as patcher:
            instrument(tracer, patcher)
            pipeline_traced = _pipeline_pass(requests, tracer)
        inproc, inproc_traced = asyncio.run(_inproc_passes(requests, tracer))
        renders = render_call_counts()

        single.start()
        tcp_single = asyncio.run(_client_passes(single.port, requests))
        single.stop()
        tcp_sharded = asyncio.run(_client_passes(sharded.port, requests))
    finally:
        single.stop()
        sharded.stop()

    tiers = {
        "pipeline": pipeline,
        "service_inproc": inproc,
        "tcp_1worker": tcp_single,
        "sharded_2worker": tcp_sharded,
    }
    every_pass = [*pipeline, pipeline_traced, *inproc, inproc_traced, *tcp_single, *tcp_sharded]
    baseline = pipeline[0][1]
    for _, answers in every_pass[1:]:
        result.mismatch(sum(a != b for a, b in zip(answers, baseline)))
    result.attempted += len(every_pass) * len(requests)
    ladder = ladder_metrics(tiers)

    rounds = [reply.rounds for reply in stats]
    batches = sum(reply.batches for reply in stats)
    split = shard_split(identities())
    metrics.update(span_metrics(tracer))
    metrics.update(ladder)
    metrics.update({f"pipeline.render_calls.{k}": v for k, v in renders.items()})
    metrics.update(
        {
            "scheduler.rounds": sum(rounds),
            "scheduler.batches": batches,
            "scheduler.rounds_per_batch": sum(rounds) / batches if batches else 0.0,
            "scheduler.queue_high_water": max(r.queue_high_water for r in stats),
            "scheduler.linger_wait_s": sum(r.linger_wait_s for r in stats),
            "scheduler.deadline_expired": sum(r.deadline_expired for r in stats),
            "scheduler.dsp_timeouts": sum(r.dsp_timeouts for r in stats),
            "shard.rounds_max_over_mean": max(rounds) / statistics.mean(rounds),
            "shard.sessions_max_over_mean": max(split) / statistics.mean(split),
            "loadgen.latency_p95_ms": latency_metrics(
                [s.latency_s for s in _answered(samples)]
            )[1]["latency_p95_ms"],
            "loadgen.lag_ms_p95": lag_summary([s for s in samples if s.measured])["p95"],
        }
    )
    plain_s = statistics.mean(sum(p[0]) for p in pipeline) + statistics.mean(
        sum(p[0]) for p in inproc
    )
    traced_s = sum(pipeline_traced[0]) + sum(inproc_traced[0])
    metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
    result.metrics = metrics
    result.detail = {
        **_serve_detail(plan, samples, stats, connections, classes),
        "ladder_ms": ladder,
    }
    return result, tracer
