"""Workload ``replay-mini``: record a mini corpus, then replay it strictly.

One *cycle* builds a fresh mini-profile corpus (4 kHz; the golden
corpus distances 0.5, 1.0 and 3.0 m) from a seed drawn from the workload
seed.  Cells hold 4 to 28 trials, sixteen on average: the sizes follow a
fixed rotation, so every run replays the same mix whatever its seed.
Entry latencies then spread over a range instead of piling up at one
size; on a host whose speed switches between a fast and a slow state
for seconds at a time, the median of same-sized entries jumps between
the two states when a run's share of slow time crosses one half, while
over mixed sizes it moves with that share.  Pass 1 records every cell
with ``record_cell_spec`` (live render, encode, atomic write).  Pass 2
replays every entry with a strict ``ReplayingSessionRunner`` — the
per-entry loop of ``replay_all`` — re-running only detect and decide
from the stored captures.  A replayed trial's latency is the time from
its entry's submission to its replayed result; ``trials_per_s`` is the
replayed trials of the whole run over the summed time of its replay
passes.

Correctness, every cycle: strict replay raises on any decision that
differs from the recording; the replayed cells must equal the recorded
ones; and the replay pass must not render anything (the pipeline's
render counters stay at zero).  Each violation is a failed operation.

Traced: a fixed four cycles with the layers wrapped and the same four
untraced, in the order U T T U per pair.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace

from perfbench.host import run_probe, self_peak_rss_mb, work_tmpdir
from perfbench.layers import instrument, span_metrics
from perfbench.report import RunResult, latency_metrics, setup_metric
from perfbench.spans import Patcher, Tracer, bench_span
from perfbench.stats import min_samples

DISTANCES_M = (0.5, 1.0, 3.0)
#: Trials per cell; cycle ``i`` gives distance ``j`` the size at
#: ``(3 * i + j) % 13``, so thirteen cycles use every size three times.
CELL_SIZES = tuple(range(4, 29, 2))
SETUP_PROBES = 3
TRACED_CYCLES = 4


@dataclass
class Cycle:
    capture_s: float = 0.0
    replay_s: float = 0.0
    trials: int = 0
    entry_latencies: list[tuple[float, int]] = field(default_factory=list)
    mismatches: int = 0
    renders: dict[str, int] = field(default_factory=dict)
    outcomes: dict[str, list] = field(default_factory=dict)


def cycle_seed(seed: int, index: int) -> int:
    return seed * 10_000 + index


def cell_sizes(index: int) -> list[int]:
    return [
        CELL_SIZES[(len(DISTANCES_M) * index + j) % len(CELL_SIZES)]
        for j in range(len(DISTANCES_M))
    ]


def trials_per_s(cycles, phase: str) -> float:
    """Trials over the summed time of one phase (``capture``/``replay``).

    A ratio of totals rather than a median of per-cycle rates: a cycle's
    replay lasts well under a second, so its rate follows the host's
    momentary speed, and the median of such rates jumps when a run's share
    of slow moments crosses one half.  The totals average them in.
    """
    cycles = list(cycles)
    return sum(c.trials for c in cycles) / sum(getattr(c, f"{phase}_s") for c in cycles)


def run_cycle(seed: int, index: int, tracer: Tracer | None = None) -> Cycle:
    from repro.corpus import (
        CaptureCorpus,
        ReplayingSessionRunner,
        ReplayMismatchError,
        build_capture_specs,
        record_cell_spec,
    )
    from repro.sim.pipeline import render_call_counts, reset_render_call_counts

    specs = [
        replace(spec, n_trials=size)
        for spec, size in zip(
            build_capture_specs(
                profile="mini",
                distances=list(DISTANCES_M),
                seed=cycle_seed(seed, index),
            ),
            cell_sizes(index),
        )
    ]
    root = tempfile.mkdtemp(prefix="corpus-", dir=work_tmpdir())
    result = Cycle(trials=sum(spec.n_trials for spec in specs))
    try:
        corpus = CaptureCorpus(root)
        recorded = {}
        started = time.perf_counter()
        for spec in specs:
            with bench_span(tracer, "bench.capture", spec.key):
                recorded[spec.fingerprint()] = record_cell_spec(spec, corpus)
        result.capture_s = time.perf_counter() - started

        reset_render_call_counts()
        runner = ReplayingSessionRunner(corpus, strict=True)
        started = time.perf_counter()
        for fingerprint in corpus.fingerprints():
            entry_started = time.perf_counter()
            try:
                with bench_span(tracer, "bench.replay", fingerprint):
                    report = runner.replay_entry(fingerprint)
            except ReplayMismatchError:
                result.mismatches += 1
                continue
            result.entry_latencies.append(
                (time.perf_counter() - entry_started, report.cell.stats.trials)
            )
            outcomes = report.cell.outcomes
            result.outcomes[fingerprint] = outcomes
            if outcomes != recorded[fingerprint].outcomes:
                result.mismatches += 1
        result.replay_s = time.perf_counter() - started
        result.renders = render_call_counts()
        if any(result.renders.values()):
            result.mismatches += 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return result


def run_untraced(seed: int, seconds: float) -> RunResult:
    setup_samples = [run_probe(["replay-mini"])[0] for _ in range(SETUP_PROBES)]
    run_cycle(seed, 0)  # warm-up: lazy caches, first imports
    needed = min_samples(95.0)
    cycles: list[Cycle] = []
    latencies: list[float] = []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or len(latencies) < needed:
        cycle = run_cycle(seed, len(cycles))
        cycles.append(cycle)
        for entry_s, trials in cycle.entry_latencies:
            latencies.extend([entry_s] * trials)
    result = RunResult(metrics={}, attempted=2 * sum(c.trials for c in cycles))
    result.mismatch(sum(c.mismatches for c in cycles))
    setup_s, setup_detail = setup_metric(setup_samples)
    latency, latency_detail = latency_metrics(latencies)
    result.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "trials_per_s": trials_per_s(cycles, "replay"),
        **latency,
    }
    result.detail = {
        **setup_detail,
        **latency_detail,
        "cycles": len(cycles),
        "entries_replayed": sum(len(c.entry_latencies) for c in cycles),
        "capture_trials_per_s": trials_per_s(cycles, "capture"),
        "replay_render_calls": sum(sum(c.renders.values()) for c in cycles),
    }
    return result


def run_traced(seed: int, seconds: float) -> tuple[RunResult, Tracer]:
    run_cycle(seed, 0)
    tracer = Tracer()
    plain: dict[int, Cycle] = {}
    traced: dict[int, Cycle] = {}
    for pair in range(0, TRACED_CYCLES, 2):
        for index, is_traced in ((pair, False), (pair, True), (pair + 1, True), (pair + 1, False)):
            if is_traced:
                with Patcher() as patcher:
                    instrument(tracer, patcher)
                    traced[index] = run_cycle(seed, index, tracer)
            else:
                plain[index] = run_cycle(seed, index)
    result = RunResult(
        metrics={}, attempted=2 * sum(c.trials for c in (*plain.values(), *traced.values()))
    )
    mismatches = sum(c.mismatches for c in (*plain.values(), *traced.values()))
    mismatches += sum(plain[i].outcomes != traced[i].outcomes for i in plain)
    result.mismatch(mismatches)
    metrics = span_metrics(tracer)
    for key in ("noise_plans", "arrival_captures"):
        metrics[f"pipeline.render_calls.{key}"] = sum(
            c.renders.get(key, 0) for c in traced.values()
        )
    metrics["replay.mismatches"] = mismatches
    metrics["corpus.capture_trials_per_s"] = trials_per_s(plain.values(), "capture")
    metrics["replay.trials_per_s"] = trials_per_s(plain.values(), "replay")
    plain_s = sum(c.capture_s + c.replay_s for c in plain.values())
    traced_s = sum(c.capture_s + c.replay_s for c in traced.values())
    metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
    result.metrics = metrics
    result.detail = {"traced_cycle_s": traced_s, "untraced_cycle_s": plain_s}
    return result, tracer
