"""Which program calls the traced run times, and the per-layer metrics.

:func:`instrument` wraps, for the duration of a traced block:

* the pipeline stages under the names each caller imports them by —
  the batched runner (``repro.sim.pipeline.batch``), the corpus
  recorder and replayer (``repro.corpus.record`` / ``replay``) and the
  in-process service (``repro.service.server`` / ``scheduler``);
* session construction and the per-cell runner of the trial engine;
* the corpus store's manifest/array reads and entry writes, and the
  recording codec;
* the four hot kernels of the active :class:`repro.dsp.backend.DSPBackend`
  instance, with the bytes each call computes on (input plus output
  array sizes, from their shapes).

:data:`PER_LAYER` is the full list of per-layer metrics; every traced
run prints all of them, and a layer a workload bypasses reads 0.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from perfbench.spans import Patcher, Span, Tracer, self_times, totals_by_name

__all__ = [
    "BENCH_PREFIX",
    "DSP_KERNELS",
    "PER_LAYER",
    "PIPELINE_STAGES",
    "instrument",
    "span_metrics",
    "trace_share",
]

PIPELINE_STAGES = (
    "negotiate",
    "schedule",
    "render_noise",
    "render_arrivals",
    "detect_batch",
    "exchange_and_decide",
)
DSP_KERNELS = ("window_powers", "rfft", "convolve_batch", "sosfilt")
CORPUS_CALLS = (
    "read_manifest",
    "read_arrays",
    "decode_recording",
    "encode_recording",
    "write",
)
#: Spans the benchmark opens around its own calls (requests, passes).
BENCH_PREFIX = "bench."


def _metric(name: str, unit: str, better: str) -> dict:
    return {"name": name, "unit": unit, "better": better}


PER_LAYER: list[dict] = [
    *(_metric(f"pipeline.{stage}.self_s", "s", "lower") for stage in PIPELINE_STAGES),
    _metric("pipeline.detect_batch.calls", "count", "lower"),
    _metric("pipeline.detect_batch.sessions_per_call", "count", "higher"),
    _metric("pipeline.render_calls.noise_plans", "count", "lower"),
    _metric("pipeline.render_calls.arrival_captures", "count", "lower"),
    *(
        _metric(f"dsp.{kernel}.{field}", unit, "lower")
        for kernel in DSP_KERNELS
        for field, unit in (("self_s", "s"), ("calls", "count"), ("bytes_computed", "B"))
    ),
    _metric("engine.cells", "count", "lower"),
    _metric("engine.trials", "count", "lower"),
    _metric("engine.cache_hits", "count", "higher"),
    _metric("engine.build_session.self_s", "s", "lower"),
    _metric("engine.run_cell_spec.self_s", "s", "lower"),
    *(_metric(f"corpus.{call}.self_s", "s", "lower") for call in CORPUS_CALLS),
    _metric("corpus.bytes_read", "B", "lower"),
    _metric("corpus.bytes_written", "B", "lower"),
    _metric("corpus.capture_trials_per_s", "1/s", "higher"),
    _metric("replay.trials_per_s", "1/s", "higher"),
    _metric("replay.mismatches", "count", "lower"),
    _metric("scheduler.rounds", "count", "lower"),
    _metric("scheduler.batches", "count", "lower"),
    _metric("scheduler.rounds_per_batch", "count", "higher"),
    _metric("scheduler.queue_high_water", "count", "lower"),
    _metric("scheduler.linger_wait_s", "s", "lower"),
    _metric("scheduler.deadline_expired", "count", "lower"),
    _metric("scheduler.dsp_timeouts", "count", "lower"),
    _metric("shard.rounds_max_over_mean", "ratio", "lower"),
    _metric("shard.sessions_max_over_mean", "ratio", "lower"),
    _metric("shard.ready_s", "s", "lower"),
    _metric("service.import_s", "s", "lower"),
    _metric("ladder.pipeline_ms", "ms", "lower"),
    _metric("ladder.service_inproc_ms", "ms", "lower"),
    _metric("ladder.tcp_1worker_ms", "ms", "lower"),
    _metric("ladder.sharded_2worker_ms", "ms", "lower"),
    _metric("ladder.service_overhead_ms", "ms", "lower"),
    _metric("ladder.tcp_overhead_ms", "ms", "lower"),
    _metric("ladder.shard_overhead_ms", "ms", "lower"),
    _metric("loadgen.latency_p95_ms", "ms", "lower"),
    _metric("loadgen.lag_ms_p95", "ms", "lower"),
    _metric("trace.overhead_share", "ratio", "lower"),
    _metric("trace.wall_s", "s", "lower"),
    _metric("trace.unattributed_share", "ratio", "lower"),
]


def _sessions_hook(tracer: Tracer):
    def hook(args, kwargs, result) -> None:
        entries = args[0] if args else kwargs["entries"]
        tracer.count("pipeline.detect_batch.sessions", len(entries))

    return hook


def _bytes_hook(tracer: Tracer, kernel: str):
    key = f"dsp.{kernel}.bytes_computed"

    def hook(args, kwargs, result) -> None:
        arrays = [value for value in (*args, *kwargs.values()) if isinstance(value, np.ndarray)]
        arrays.append(np.asarray(result))
        tracer.count(key, sum(array.nbytes for array in arrays))

    return hook


def _file_bytes_hook(tracer: Tracer, key: str, path_of):
    def hook(args, kwargs, result) -> None:
        tracer.count(key, sum(path.stat().st_size for path in path_of(args, result)))

    return hook


def instrument(tracer: Tracer, patcher: Patcher) -> None:
    """Install every wrapper on ``patcher`` (closing it removes them)."""
    import repro.corpus.record as record
    import repro.corpus.replay as replay
    import repro.corpus.store as store
    import repro.eval.engine.executor as executor
    import repro.service.scheduler as scheduler
    import repro.service.server as server
    import repro.sim.pipeline.batch as batch
    from repro.dsp.backend import get_backend

    callers = {
        batch: PIPELINE_STAGES,
        record: PIPELINE_STAGES,
        replay: ("detect_batch", "exchange_and_decide"),
        server: ("negotiate", "schedule", "render_noise", "exchange_and_decide"),
        scheduler: ("render_arrivals", "detect_batch"),
    }
    for module, stages in callers.items():
        for stage in stages:
            hook = _sessions_hook(tracer) if stage == "detect_batch" else None
            patcher.wrap(tracer, module, stage, f"pipeline.{stage}", hook)
    for module in (executor, record, replay, server):
        patcher.wrap(tracer, module, "build_trial_session", "engine.build_session")
    patcher.wrap(tracer, executor, "run_cell_spec", "engine.run_cell_spec")

    patcher.wrap(tracer, record, "encode_recording", "corpus.encode_recording")
    patcher.wrap(tracer, replay, "decode_recording", "corpus.decode_recording")
    corpus_cls = store.CaptureCorpus
    patcher.wrap(
        tracer,
        corpus_cls,
        "read_manifest",
        "corpus.read_manifest",
        _file_bytes_hook(
            tracer,
            "corpus.bytes_read",
            lambda args, result: [args[0]._manifest_path(args[1])],
        ),
    )
    patcher.wrap(
        tracer,
        corpus_cls,
        "read_arrays",
        "corpus.read_arrays",
        _file_bytes_hook(
            tracer,
            "corpus.bytes_read",
            lambda args, result: [args[0]._payload_path(args[1])],
        ),
    )
    patcher.wrap(
        tracer,
        corpus_cls,
        "write_entry",
        "corpus.write",
        _file_bytes_hook(
            tracer,
            "corpus.bytes_written",
            lambda args, result: [result, result.with_suffix(".npz")],
        ),
    )

    backend = get_backend()
    for kernel in DSP_KERNELS:
        patcher.wrap(
            tracer, backend, kernel, f"dsp.{kernel}", _bytes_hook(tracer, kernel)
        )


def trace_share(spans: Iterable[Span]) -> tuple[float, float]:
    """Wall time of the benchmark's root spans and the share no layer covers.

    The wall is the summed duration of the benchmark's top-level spans;
    the unattributed share is their summed self time over that wall —
    time inside a traced request that no layer span accounts for.
    """
    spans = list(spans)
    own = self_times(spans)
    roots = [span for span in spans if span.name.startswith(BENCH_PREFIX)]
    top = [span for span in roots if span.parent is None]
    wall = sum(span.duration for span in top)
    unattributed = sum(own[span.span_id] for span in roots)
    return wall, (unattributed / wall if wall > 0 else 0.0)


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics readable off the spans and counters alone."""
    totals = totals_by_name(tracer.spans)
    metrics: dict[str, float] = {}
    for name, entry in totals.items():
        if name.startswith(BENCH_PREFIX):
            continue
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.calls"] = entry["calls"]
    calls = metrics.get("pipeline.detect_batch.calls", 0)
    sessions = tracer.counters.get("pipeline.detect_batch.sessions", 0)
    metrics["pipeline.detect_batch.sessions_per_call"] = sessions / calls if calls else 0.0
    for key, value in tracer.counters.items():
        if key.endswith(("bytes_computed", "bytes_read", "bytes_written")):
            metrics[key] = value
    wall, unattributed = trace_share(tracer.spans)
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_share"] = unattributed
    return metrics
