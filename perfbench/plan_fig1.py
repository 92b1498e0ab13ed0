"""Workload ``plan-fig1``: the paper's Fig. 1 grid through the trial engine.

One *pass* is the 16 cells of Fig. 1 (four preset environments at
0.5, 1.0, 1.5 and 2.0 m, four trials each) submitted cell by cell to a
fresh ``TrialEngine(jobs=1, batch_size=16)`` with its own in-memory
cache; each pass draws its own cell seed from the workload seed.  A
trial's latency is the time from its cell's submission to its result.

Untraced: whole passes until ``--seconds`` have elapsed (and at least
enough trials for a p95), then the correctness gate — trial 0 of every
cell of the first pass re-run through ``run_monolithic``, the preserved
pre-refactor oracle, must equal the engine's outcome.

Traced: a fixed amount of work — two passes with the layers wrapped and
the same two passes untraced, in the order U T T U — so the counts
repeat exactly per seed and the untraced twins give the tracing
overhead.  Traced and untraced outcomes must agree.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from perfbench.host import run_probe, self_peak_rss_mb
from perfbench.layers import instrument, span_metrics
from perfbench.report import RunResult, latency_metrics, setup_metric
from perfbench.spans import Patcher, Tracer, bench_span
from perfbench.stats import min_samples

DISTANCES_M = (0.5, 1.0, 1.5, 2.0)
TRIALS_PER_CELL = 4
SETUP_PROBES = 3
#: Traced run: pass index and whether it is traced (U T T U).
TRACED_ORDER = ((0, False), (0, True), (1, True), (1, False))


def grid(seed: int):
    from repro.acoustics.environment import FIGURE1_ENVIRONMENTS
    from repro.eval.engine import TrialSpec

    return [
        TrialSpec(
            environment=environment,
            distance_m=distance,
            n_trials=TRIALS_PER_CELL,
            seed=seed,
            key=f"{environment.name}:{distance}",
        )
        for environment in FIGURE1_ENVIRONMENTS
        for distance in DISTANCES_M
    ]


def pass_seed(seed: int, index: int) -> int:
    return seed * 1_000 + index


def run_pass(specs, tracer: Tracer | None = None):
    """Submit every cell; returns (cells, per-cell seconds, pass seconds, engine)."""
    from repro.eval.engine import TrialEngine, TrialPlan

    engine = TrialEngine(jobs=1, batch_size=16)
    cells, cell_times = [], []
    started = time.perf_counter()
    with bench_span(tracer, "bench.pass"):
        for spec in specs:
            cell_started = time.perf_counter()
            with bench_span(tracer, "bench.cell", spec.key):
                (cell,) = engine.run_plan(TrialPlan("fig1", [spec]))
            cell_times.append(time.perf_counter() - cell_started)
            cells.append(cell)
    elapsed = time.perf_counter() - started
    engine.close()
    return cells, cell_times, elapsed, engine


def oracle_mismatches(specs, cells) -> int:
    """Cells whose trial 0 differs from the preserved monolithic loop."""
    from repro.eval.engine import build_trial_session
    from repro.sim.pipeline import run_monolithic

    mismatches = 0
    for spec, cell in zip(specs, cells):
        session = build_trial_session(spec, 0)
        reference = run_monolithic(session.context, session.rng, session.artifacts)
        if reference != cell.outcomes[0]:
            mismatches += 1
    return mismatches


def _warm_up() -> None:
    """Fill lazy caches (filter designs, signal tables) before timing."""
    from repro.eval.engine import run_cell_spec

    for spec in grid(seed=0)[:: len(DISTANCES_M)]:
        run_cell_spec(replace(spec, n_trials=1))


def run_untraced(seed: int, seconds: float) -> RunResult:
    setup_samples = [run_probe(["plan-fig1"])[0] for _ in range(SETUP_PROBES)]
    _warm_up()
    needed = min_samples(95.0)
    rates, latencies = [], []
    first = None
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < seconds or len(latencies) < needed:
        specs = grid(pass_seed(seed, index))
        cells, cell_times, elapsed, _ = run_pass(specs)
        if first is None:
            first = (specs, cells)
        trials = sum(spec.n_trials for spec in specs)
        rates.append(trials / elapsed)
        for spec, cell_s in zip(specs, cell_times):
            latencies.extend([cell_s] * spec.n_trials)
        index += 1
    result = RunResult(metrics={}, attempted=len(latencies) + len(first[0]))
    result.mismatch(oracle_mismatches(*first))
    setup_s, setup_detail = setup_metric(setup_samples)
    latency, latency_detail = latency_metrics(latencies)
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "trials_per_s": statistics.median(rates),
        **latency,
    }
    result.detail = {
        **setup_detail,
        **latency_detail,
        "passes": index,
        "cells": index * len(first[0]),
        "trials_per_s_by_pass": rates,
        "oracle_cells_checked": len(first[0]),
    }
    return result


def run_traced(seed: int, seconds: float) -> tuple[RunResult, Tracer]:
    from repro.sim.pipeline import render_call_counts, reset_render_call_counts

    _warm_up()
    tracer = Tracer()
    untraced_s, traced_s = [], []
    outcomes: dict[tuple[int, bool], list] = {}
    renders = {"noise_plans": 0, "arrival_captures": 0}
    engine_counts = {"cells": 0, "trials": 0, "cache_hits": 0}
    for index, traced in TRACED_ORDER:
        specs = grid(pass_seed(seed, index))
        if traced:
            reset_render_call_counts()
            with Patcher() as patcher:
                instrument(tracer, patcher)
                cells, _, elapsed, engine = run_pass(specs, tracer)
            for key, value in render_call_counts().items():
                renders[key] += value
            engine_counts["cells"] += engine.counters.cells_executed
            engine_counts["trials"] += engine.counters.trials_executed
            engine_counts["cache_hits"] += engine.cache.stats.hits
            traced_s.append(elapsed)
        else:
            cells, _, elapsed, _ = run_pass(specs)
            untraced_s.append(elapsed)
        outcomes[(index, traced)] = [cell.outcomes for cell in cells]
    result = RunResult(metrics={})
    result.attempted = sum(len(o) * TRIALS_PER_CELL for o in outcomes.values())
    for index in {index for index, _ in TRACED_ORDER}:
        if outcomes[(index, True)] != outcomes[(index, False)]:
            result.mismatch()
    metrics = span_metrics(tracer)
    metrics.update({f"pipeline.render_calls.{k}": v for k, v in renders.items()})
    metrics.update({f"engine.{k}": v for k, v in engine_counts.items()})
    metrics["trace.overhead_share"] = sum(traced_s) / sum(untraced_s) - 1.0
    result.metrics = metrics
    result.detail = {"traced_pass_s": traced_s, "untraced_pass_s": untraced_s}
    return result, tracer
