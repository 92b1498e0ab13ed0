"""The benchmark's traced mode can attach to the program and detach again.

``perfbench/layers.py`` wraps stage functions by module attribute in
every module that calls them, and ``Patcher.replace`` raises
``AttributeError`` for a name a module no longer binds.  Installing the
full instrumentation here catches such a rename in tier-1 instead of in a
benchmark run, and one small recorded cell checks that the round
driver's wrappers time all six stages.
"""

from __future__ import annotations

import repro.sim.pipeline.batch as batch
from perfbench.layers import PIPELINE_STAGES, instrument
from perfbench.spans import Patcher, Tracer
from repro.corpus import CaptureCorpus, build_capture_specs, record_cell_spec


def test_instrument_attaches_times_every_stage_and_detaches(tmp_path):
    originals = {stage: getattr(batch, stage) for stage in PIPELINE_STAGES}
    tracer = Tracer()
    patcher = Patcher()
    try:
        instrument(tracer, patcher)
        assert all(
            getattr(batch, stage) is not original
            for stage, original in originals.items()
        )
        (spec,) = build_capture_specs(
            profile="mini", distances=[0.5], trials=2, seed=1
        )
        record_cell_spec(spec, CaptureCorpus(tmp_path))
    finally:
        patcher.close()
    assert {stage: getattr(batch, stage) for stage in PIPELINE_STAGES} == originals
    timed = {span.name for span in tracer.spans}
    assert {f"pipeline.{stage}" for stage in PIPELINE_STAGES} <= timed
