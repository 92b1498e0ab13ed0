"""Hot-path throughput: per-session vs batched pipeline execution.

Measures single-process trials/sec on a Fig. 1-style plan (four
environments × four distances) for

* ``pre_refactor_per_session`` — the monolithic session loop with the
  original detector hot path (two-sided FFT over a full sliding-window
  view, all bins materialized), i.e. the engine as it existed before the
  staged-pipeline refactor;
* ``staged_per_session`` — ``Session.run()``, the round driver one
  session at a time (current ``--batch 1``);
* ``batched_N`` — :class:`BatchedSessionRunner` at batch sizes 1/8/16/32
  (current ``--batch N``).

All variants produce bit-identical outcomes (asserted here as well);
only the wall clock may differ.  The document additionally records a
per-stage wall-clock split of the ``batched_16`` run (RNG-bound prepare,
stacked render, stacked detect, decide) and two service sections:

* **service** — requests/s through the streaming auth service
  (``repro.service``) at concurrency 1/8/32 with DSP batching on and
  off — ``c1`` with batching off is serial request-at-a-time handling,
  the baseline the concurrent batched rows must beat;
* **service_scaled** — sustained rounds/s and latency percentiles
  (p50/p95/p99, closed-loop via :mod:`repro.service.loadgen`, over real
  TCP) through the sharded front tier at 1/2/4 worker processes.  Every
  row records the host's core count: the multi-process tier can only
  beat one process when there are cores to spread over, so the
  ``workers_4 >= 2x workers_1`` expectation is conditioned on a
  multi-core host.

A **roc_sweep** section measures the decide seam's amortization
(:mod:`repro.eval.sweep`): a 16-threshold × all-scenes ROC sweep off
one render set versus naively re-rendering the scene matrix per
threshold, with render-call counts proving the sweep performs zero
renders beyond the single-threshold case.

Run as a script to (re)generate ``BENCH_pipeline.json`` at the
repository root so the perf trajectory of the hot path is tracked
in-tree::

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--trials N] [--reps R]

or under the benchmark harness: ``pytest benchmarks/bench_pipeline.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
from pathlib import Path
from time import perf_counter

from repro.acoustics.environment import FIGURE1_ENVIRONMENTS
from repro.core.detection import FrequencyDetector
from repro.eval.engine import AUTH, VOUCH, TrialSpec, build_pair_world
from repro.sim.pipeline import BatchedSessionRunner, run_monolithic

_DISTANCES = (0.5, 1.0, 1.5, 2.0)
BATCH_SIZES = (1, 8, 16, 32)
SERVICE_CONCURRENCY = (1, 8, 32)
SERVICE_SCALED_WORKERS = (1, 2, 4)


def _fig1_specs(trials: int) -> list[TrialSpec]:
    return [
        TrialSpec(
            environment=environment,
            distance_m=distance,
            n_trials=trials,
            seed=0,
        )
        for environment in FIGURE1_ENVIRONMENTS
        for distance in _DISTANCES
    ]


def _build_sessions(spec: TrialSpec):
    sessions = []
    for trial in range(spec.n_trials):
        world = build_pair_world(
            spec.environment, spec.distance_m, spec.trial_seed(trial)
        )
        sessions.append(world.ranging_session(AUTH, VOUCH))
    return sessions


def _run_plan(specs, executor):
    """Outcomes for the whole plan; session building stays off the clock."""
    prepared = [_build_sessions(spec) for spec in specs]
    start = perf_counter()
    outcomes = [executor(sessions) for sessions in prepared]
    elapsed = perf_counter() - start
    return outcomes, elapsed


def _measure(specs, executor, reps: int):
    """Best-of-``reps`` throughput (the host's scheduler noise is large)."""
    total_trials = sum(spec.n_trials for spec in specs)
    best_elapsed = None
    outcomes = None
    for _ in range(reps):
        outcomes, elapsed = _run_plan(specs, executor)
        best_elapsed = elapsed if best_elapsed is None else min(best_elapsed, elapsed)
    return {
        "trials": total_trials,
        "seconds": round(best_elapsed, 4),
        "trials_per_s": round(total_trials / best_elapsed, 3),
    }, outcomes


def _pre_refactor_executor(sessions):
    return [run_monolithic(s.context, s.rng, s.artifacts) for s in sessions]


def _measure_stages(specs) -> dict:
    """Per-stage wall-clock split of one ``batched_16`` pass."""
    timings: dict[str, float] = {}
    runner = BatchedSessionRunner(16, stage_timings=timings)
    _run_plan(specs, runner.run)
    total = sum(timings.values())
    return {
        "seconds": {k: round(v, 4) for k, v in timings.items()},
        "fraction": {
            k: round(v / total, 3) for k, v in timings.items()
        }
        if total
        else {},
    }


def _measure_service(requests: int, rounds: int, reps: int) -> dict:
    """Requests/s through the auth service per (concurrency, batching).

    Each request runs ``rounds`` ranging rounds of a distinct trial slice
    (office, 1.0 m, seed 0) so no two requests share work.  ``batching
    off`` pins the scheduler to per-round DSP (``max_batch=1``); the
    concurrency-1 row of that column is serial request-at-a-time
    handling — the baseline the concurrent batched rows must beat.

    ``reps`` is the ``--service-reps`` knob, separate from the main
    ``--reps`` because the asyncio rows need more repetitions for a
    stable best-of.
    """
    from repro.service import AuthService, RangingRequest

    async def run_load(
        concurrency: int, batching: bool, n_requests: int | None = None
    ) -> float:
        n_requests = requests if n_requests is None else n_requests
        service = AuthService(
            batch_size=None if batching else 1,
            linger_ms=5.0,
            queue_limit=4096,
        )
        async with service:
            semaphore = asyncio.Semaphore(concurrency)

            async def one(index: int) -> None:
                async with semaphore:
                    request = RangingRequest(
                        request_id=f"bench-{index}",
                        environment="office",
                        distance_m=1.0,
                        seed=0,
                        rounds=rounds,
                        first_trial=index * rounds,
                    )
                    async for _ in service.handle_request(request):
                        pass

            start = perf_counter()
            await asyncio.gather(*(one(i) for i in range(n_requests)))
            return perf_counter() - start

    configurations = [
        (concurrency, batching)
        for concurrency in SERVICE_CONCURRENCY
        for batching in (True, False)
    ]
    # One untimed load first: warms the process-wide caches (sine rows,
    # SOS designs), the asyncio machinery, and the allocator, so the
    # first timed configuration is not systematically penalized.
    asyncio.run(run_load(8, True, n_requests=8))
    # The host's absolute speed drifts over minutes; interleaving the
    # repetitions round-robin (instead of finishing one configuration
    # before the next) spreads that drift across every row, and a
    # collection between runs keeps one configuration's garbage (capture
    # buffers, planned renders) from taxing the next.  Best-of keeps the
    # asyncio scheduling noise down.
    best: dict[tuple, float] = {}
    for _ in range(reps):
        for configuration in configurations:
            gc.collect()
            elapsed = asyncio.run(run_load(*configuration))
            if configuration not in best or elapsed < best[configuration]:
                best[configuration] = elapsed

    rows: dict[str, dict] = {}
    for concurrency, batching in configurations:
        elapsed = best[(concurrency, batching)]
        key = f"c{concurrency}_{'batched' if batching else 'batching_off'}"
        rows[key] = {
            "concurrency": concurrency,
            "batching": batching,
            "cpus": os.cpu_count(),
            "seconds": round(elapsed, 4),
            "requests_per_s": round(requests / elapsed, 3),
            "rounds_per_s": round(requests * rounds / elapsed, 3),
        }

    def _rate(key: str) -> float:
        return rows[key]["requests_per_s"]

    serial = _rate("c1_batching_off")
    return {
        "requests": requests,
        "rounds_per_request": rounds,
        "environment": "office",
        "distance_m": 1.0,
        "transport": "in-process handle_request (no TCP)",
        "rows": rows,
        "speedups_vs_serial_request_at_a_time": {
            key: round(_rate(key) / serial, 2)
            for key in rows
            if key != "c1_batching_off"
        },
    }


def _measure_service_scaled(
    worker_counts,
    duration_s: float,
    warmup_s: float,
    concurrency: int,
    rounds: int,
) -> dict:
    """Sustained rounds/s through the sharded front tier, over real TCP.

    One closed-loop load-generation run (``repro.service.loadgen``, the
    same engine behind ``tools/loadgen.py``) per worker count: fixed
    ``concurrency`` always-busy virtual clients for ``duration_s``
    measured seconds after ``warmup_s`` of discarded traffic.  Sessions
    cycle so every shard sees traffic.  Latency percentiles are
    request-completion latencies under that sustained load.

    Every row records the host's core count — the multi-process tier
    trades IPC overhead for parallelism, so its scaling is a function of
    the cores actually available (a 1-core host measures the overhead
    floor, not the speedup).
    """
    from repro.service import ShardedAuthServer
    from repro.service.loadgen import run_loadgen

    async def one(workers: int):
        front = ShardedAuthServer(
            workers, service_options={"queue_limit": 4096}
        )
        async with front:
            server = await front.serve("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                return await run_loadgen(
                    "127.0.0.1",
                    port,
                    mode="closed",
                    concurrency=concurrency,
                    duration_s=duration_s,
                    warmup_s=warmup_s,
                    rounds=rounds,
                    sessions=8,
                    environment="office",
                    distance_m=1.0,
                    seed_base=0,
                )
            finally:
                server.close()
                await server.wait_closed()

    rows: dict[str, dict] = {}
    for workers in worker_counts:
        gc.collect()
        report = asyncio.run(one(workers))
        rows[f"workers_{workers}"] = {
            "workers": workers,
            "cpus": os.cpu_count(),
            "mode": report.mode,
            "concurrency": concurrency,
            "duration_s": duration_s,
            "warmup_s": warmup_s,
            "requests": report.requests,
            "busy": report.busy,
            "failed": report.failed,
            "requests_per_s": round(report.requests_per_s, 3),
            "rounds_per_s": round(report.rounds_per_s, 3),
            "latency_ms": {
                key: round(value, 3)
                for key, value in report.latency_ms.items()
            },
            "scheduler_stats": report.scheduler_stats,
        }

    base = rows[f"workers_{worker_counts[0]}"]["rounds_per_s"]
    return {
        "transport": "TCP via the sharded front tier (closed-loop loadgen)",
        "rounds_per_request": rounds,
        "rows": rows,
        "speedups_vs_workers_1": {
            key: round(row["rounds_per_s"] / base, 2)
            for key, row in rows.items()
            if row["workers"] != worker_counts[0]
        },
        "note": (
            "scaling expectation (workers_4 >= 2x workers_1) applies on "
            "a multi-core host; the cpus field records what this host "
            "actually had"
        ),
    }


def _measure_roc_sweep(trials: int, seed: int = 0) -> dict:
    """One-render-set ROC sweep vs naive per-threshold re-rendering.

    Three runs over the σ-measurement scene matrix (20 cells), each on a
    fresh serial engine with a fresh cache so render work is attributed
    honestly: the full 16-threshold sweep, a 1-threshold sweep (render
    parity check via the pipeline's render-call counters), and a naive
    baseline that re-runs the whole matrix once per threshold — what ROC
    generation cost before the decide seam.
    """
    from repro.eval.engine import TrialEngine, use_engine
    from repro.eval.sweep import DEFAULT_ROC_THRESHOLDS, run_roc_sweep
    from repro.sim.pipeline import (
        render_call_counts,
        reset_render_call_counts,
    )

    thresholds = DEFAULT_ROC_THRESHOLDS

    def timed(threshold_grid):
        engine = TrialEngine(jobs=1)
        reset_render_call_counts()
        start = perf_counter()
        with use_engine(engine):
            sweep = run_roc_sweep(
                trials=trials, seed=seed, thresholds=threshold_grid
            )
        elapsed = perf_counter() - start
        engine.close()
        return sweep, elapsed, render_call_counts()

    sweep, sweep_seconds, sweep_renders = timed(thresholds)
    _, single_seconds, single_renders = timed((thresholds[0],))

    reset_render_call_counts()
    naive_start = perf_counter()
    for threshold in thresholds:
        engine = TrialEngine(jobs=1)
        with use_engine(engine):
            run_roc_sweep(trials=trials, seed=seed, thresholds=(threshold,))
        engine.close()
    naive_seconds = perf_counter() - naive_start
    naive_renders = render_call_counts()

    return {
        "thresholds": len(thresholds),
        "threshold_grid_m": list(thresholds),
        "scenes": len(sweep.scenes),
        "trials_per_cell": trials,
        "rounds": sweep.rounds,
        "decisions": sweep.decisions,
        "sweep_t16": {
            "seconds": round(sweep_seconds, 4),
            "trials_per_s": round(sweep.rounds / sweep_seconds, 3),
            "renders": sweep_renders,
        },
        "sweep_t1": {
            "seconds": round(single_seconds, 4),
            "renders": single_renders,
        },
        "naive_per_threshold_t16": {
            "seconds": round(naive_seconds, 4),
            "trials_per_s": round(sweep.rounds / naive_seconds, 3),
            "renders": naive_renders,
        },
        "speedup_vs_naive": round(naive_seconds / sweep_seconds, 2),
        "zero_extra_renders_vs_t1": sweep_renders == single_renders,
    }


def run_benchmark(
    trials: int = 2,
    reps: int = 2,
    service_requests: int = 32,
    service_rounds: int = 2,
    service_reps: int = 3,
    scaled_duration_s: float = 5.0,
    scaled_warmup_s: float = 1.0,
    scaled_concurrency: int = 8,
    include_scaled: bool = True,
) -> dict:
    """Measure every variant; returns the JSON-ready result document."""
    specs = _fig1_specs(trials)
    results = {}

    original = FrequencyDetector.candidate_powers
    FrequencyDetector.candidate_powers = (
        FrequencyDetector.candidate_powers_reference
    )
    try:
        results["pre_refactor_per_session"], baseline = _measure(
            specs, _pre_refactor_executor, reps
        )
    finally:
        FrequencyDetector.candidate_powers = original

    results["staged_per_session"], staged = _measure(
        specs, lambda sessions: [s.run() for s in sessions], reps
    )
    for batch in BATCH_SIZES:
        runner = BatchedSessionRunner(batch)
        results[f"batched_{batch}"], outcomes = _measure(
            specs, runner.run, reps
        )
        assert outcomes == staged, (
            f"batched_{batch} outcomes diverged from the staged path"
        )
    stages = _measure_stages(specs)
    roc_sweep = _measure_roc_sweep(trials)
    # Measured after the trial variants so the process-wide caches
    # (sine rows, SOS designs, FFT plans) are warm, as they would be
    # in a long-running service.
    service = _measure_service(
        service_requests, service_rounds, service_reps
    )
    service_scaled = (
        _measure_service_scaled(
            SERVICE_SCALED_WORKERS,
            scaled_duration_s,
            scaled_warmup_s,
            scaled_concurrency,
            service_rounds,
        )
        if include_scaled
        else None
    )

    def _rate(name):
        return results[name]["trials_per_s"]

    return {
        "plan": {
            "style": "fig1",
            "environments": [e.name for e in FIGURE1_ENVIRONMENTS],
            "distances_m": list(_DISTANCES),
            "trials_per_cell": trials,
        },
        "reps": reps,
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "results": results,
        "stages_batched_16": stages,
        "roc_sweep": roc_sweep,
        "service": service,
        "service_scaled": service_scaled,
        "speedups": {
            "staged_vs_pre_refactor": round(
                _rate("staged_per_session") / _rate("pre_refactor_per_session"), 2
            ),
            "batched_16_vs_pre_refactor": round(
                _rate("batched_16") / _rate("pre_refactor_per_session"), 2
            ),
            "batched_16_vs_staged": round(
                _rate("batched_16") / _rate("staged_per_session"), 2
            ),
        },
        "notes": (
            "single-process; outcomes bit-identical across all variants; "
            "pre_refactor_per_session swaps "
            "candidate_powers for the preserved reference implementation; "
            "stage split: prepare = RNG-bound negotiate/schedule/"
            "render_noise, render = stacked arrival phase, detect = "
            "stacked window batches; service rows measure the asyncio "
            "auth service (repro.service) driving the same pipeline — "
            "decisions bit-identical to the CLI engine per "
            "tests/test_service.py; service_scaled rows measure the "
            "sharded multi-process tier over TCP, bit-identical at any "
            "worker count per tests/test_service_scaling.py; roc_sweep "
            "rows measure the decide seam (repro.eval.sweep): a "
            "16-threshold sweep decides every threshold off one render "
            "set, vs re-rendering the scene matrix per threshold"
        ),
    }


def test_pipeline_throughput(benchmark, quick):
    document = benchmark.pedantic(
        lambda: run_benchmark(
            trials=2 if quick else 4,
            reps=1,
            service_requests=16 if quick else 32,
            scaled_duration_s=2.0 if quick else 5.0,
            scaled_warmup_s=0.5 if quick else 1.0,
            include_scaled=not quick,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(json.dumps(document["results"], indent=2))
    print("speedups:", document["speedups"])
    print("service:", json.dumps(document["service"]["rows"], indent=2))
    if document["service_scaled"] is not None:
        print(
            "service_scaled:",
            json.dumps(document["service_scaled"]["rows"], indent=2),
        )
    print("roc_sweep:", json.dumps(document["roc_sweep"], indent=2))
    assert document["speedups"]["batched_16_vs_pre_refactor"] > 1.0
    served = document["service"]["speedups_vs_serial_request_at_a_time"]
    assert served["c8_batched"] > 1.0
    roc = document["roc_sweep"]
    assert roc["zero_extra_renders_vs_t1"], (
        "T=16 sweep rendered more than T=1: "
        f"{roc['sweep_t16']['renders']} vs {roc['sweep_t1']['renders']}"
    )
    assert roc["speedup_vs_naive"] >= 5.0, roc["speedup_vs_naive"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=2, help="trials per cell")
    parser.add_argument("--reps", type=int, default=2, help="best-of repetitions")
    parser.add_argument(
        "--service-requests",
        type=int,
        default=32,
        help="requests per service load configuration",
    )
    parser.add_argument(
        "--service-rounds",
        type=int,
        default=2,
        help="ranging rounds per service request",
    )
    parser.add_argument(
        "--service-reps",
        type=int,
        default=3,
        help=(
            "best-of repetitions for the service rows (separate from "
            "--reps: the asyncio rows are noisier)"
        ),
    )
    parser.add_argument(
        "--scaled-duration",
        type=float,
        default=5.0,
        help="measured seconds per service_scaled worker count",
    )
    parser.add_argument(
        "--scaled-warmup",
        type=float,
        default=1.0,
        help="discarded warmup seconds per service_scaled run",
    )
    parser.add_argument(
        "--scaled-concurrency",
        type=int,
        default=8,
        help="closed-loop virtual clients for the service_scaled rows",
    )
    parser.add_argument(
        "--no-scaled",
        action="store_true",
        help="skip the service_scaled section (no worker processes)",
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"),
        help="where to write the JSON document",
    )
    args = parser.parse_args()
    document = run_benchmark(
        trials=args.trials,
        reps=args.reps,
        service_requests=args.service_requests,
        service_rounds=args.service_rounds,
        service_reps=args.service_reps,
        scaled_duration_s=args.scaled_duration,
        scaled_warmup_s=args.scaled_warmup,
        scaled_concurrency=args.scaled_concurrency,
        include_scaled=not args.no_scaled,
    )
    output = Path(args.output)
    if output.exists():
        # perfbench before/after rows are measured by perfbench/run.py,
        # not here: keep them across regenerations.
        ledger = json.loads(output.read_text()).get("perfbench_ledger")
        if ledger is not None:
            document["perfbench_ledger"] = ledger
    output.write_text(json.dumps(document, indent=2) + "\n")
    print(json.dumps(document, indent=2))
    print(f"\nwritten to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
