"""Span bookkeeping: self time under nested and overlapping children."""

import asyncio
import itertools
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.spans import (  # noqa: E402
    Patcher,
    Span,
    Tracer,
    bench_span,
    covered_length,
    self_times,
    totals_by_name,
)


def counting_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_covered_length_counts_overlap_once_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (5, 6)], 0, 10) == 3
    assert covered_length([(1, 5), (3, 8)], 0, 10) == 7
    assert covered_length([(1, 5), (2, 3)], 0, 10) == 4
    assert covered_length([(-2, 1), (8, 12)], 0, 10) == 3
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_of_nested_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "a", 1.0, 4.0, 0, None),
        Span(2, "a.inner", 2.0, 3.0, 1, None),
        Span(3, "b", 5.0, 7.0, 0, None),
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    # Self times of a tree add up to the root's duration.
    assert sum(own.values()) == spans[0].duration


def test_self_time_of_overlapping_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, None),
        Span(1, "task", 1.0, 5.0, 0, None),
        Span(2, "task", 3.0, 8.0, 0, None),
    ]
    own = self_times(spans)
    assert own[0] == 3.0
    totals = totals_by_name(spans)
    assert totals["task"] == {"self_s": 9.0, "calls": 2}


def test_tracer_nests_spans_and_tags_requests():
    tracer = Tracer(clock=counting_clock())
    with tracer.request("r1"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    with tracer.span("untagged"):
        pass
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent is None
    assert by_name["inner"].request == by_name["outer"].request == "r1"
    assert by_name["untagged"].request is None
    assert self_times(tracer.spans)[by_name["outer"].span_id] == 2.0


def test_concurrent_task_spans_share_parent_and_overlap_once():
    tracer = Tracer(clock=counting_clock())

    async def task():
        with tracer.span("task"):
            await asyncio.sleep(0)

    async def main():
        with tracer.span("outer"):
            await asyncio.gather(task(), task())

    asyncio.run(main())
    by_id = {span.span_id: span for span in tracer.spans}
    outer = next(span for span in tracer.spans if span.name == "outer")
    tasks = [span for span in tracer.spans if span.name == "task"]
    assert all(span.parent == outer.span_id for span in tasks)
    # outer [0, 5]; tasks [1, 3] and [2, 4] overlap, covering 3 ticks.
    assert (outer.start, outer.end) == (0.0, 5.0)
    assert sorted((s.start, s.end) for s in tasks) == [(1.0, 3.0), (2.0, 4.0)]
    assert self_times(by_id.values())[outer.span_id] == 2.0


def test_bench_span_is_a_no_op_untraced():
    with bench_span(None, "bench.x", "r"):
        pass
    tracer = Tracer(clock=counting_clock())
    with bench_span(tracer, "bench.x", "r"):
        pass
    assert [(s.name, s.request) for s in tracer.spans] == [("bench.x", "r")]


class Kernel:
    def run(self, value):
        return value + 1


def test_patcher_wraps_and_restores_every_owner_kind():
    module = types.SimpleNamespace(stage=lambda value: value * 2)
    original_stage = module.stage
    original_method = Kernel.__dict__["run"]
    instance = Kernel()
    tracer = Tracer(clock=counting_clock())
    seen = []
    with Patcher() as patcher:
        patcher.wrap(tracer, module, "stage", "layer.stage")
        patcher.wrap(tracer, Kernel, "run", "layer.method")
        other = Kernel()
        patcher.wrap(
            tracer, other, "run", "layer.instance",
            on_call=lambda args, kwargs, result: seen.append(result),
        )
        assert module.stage(3) == 6
        assert instance.run(1) == 2
        assert other.run(5) == 6
    assert seen == [6]
    # The instance wrapper encloses the class-level one it captured.
    assert [span.name for span in tracer.spans] == [
        "layer.stage", "layer.method", "layer.method", "layer.instance",
    ]
    assert module.stage is original_stage
    assert Kernel.__dict__["run"] is original_method
    assert "run" not in vars(other)


def test_patcher_rejects_unknown_attributes():
    with Patcher() as patcher:
        with pytest.raises(AttributeError):
            patcher.wrap(Tracer(), types.SimpleNamespace(), "missing", "x")
