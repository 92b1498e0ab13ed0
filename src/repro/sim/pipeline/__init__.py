"""Staged ranging pipeline and the one round driver.

Three modules (see ``docs/pipeline.md`` and ``docs/architecture.md``):

* **stages** — the typed, pure stages of one ACTION round
  (``negotiate`` → ``schedule`` → ``render_noise`` →
  ``render_arrivals`` → ``exchange_and_decide``; detection is
  ``batch.detect_batch``) and the dataclasses crossing their
  boundaries;
* **batch** — the round driver: :func:`prepare` runs the RNG-bound
  stages per session, :func:`render_and_detect` renders every capture's
  arrivals in one stacked pass and detects every recording of the batch
  in stacked window passes, and :func:`finish` runs the terminal stage
  per session.  :class:`BatchedSessionRunner` loops them over batches
  of :class:`Session`\\ s (``Session.run`` is that loop at B = 1); the
  corpus and the streaming service run the same phases;
* **reference** — the pre-refactor monolithic loop, kept as the
  executable specification the equivalence tests and benchmarks compare
  against.

Invariants every caller may rely on (and every change must preserve):

1. **RNG ordering** — the stages consume a session's RNG stream in the
   exact order the pre-refactor monolith drew it (signals → init
   transfer → four audio-path latencies → interference → mixer noise and
   channel draws → report transfer).  Stages that batch across sessions
   (``render_arrivals``, ``detect_batch``) consume **no** RNG at all.
2. **Bitwise batch invariance** — for a fixed per-session RNG stream,
   :meth:`Session.run`, :func:`run_monolithic`, and
   :class:`BatchedSessionRunner` at *any* batch size (or any grouping of
   sessions into batches) produce bit-identical
   :class:`~repro.core.ranging.RangingOutcome`\\ s.  Batch composition is
   a scheduling decision, never a numerical one — this is what lets the
   trial engine pick ``--batch`` freely and lets ``repro.service``
   coalesce unrelated concurrent requests into one stacked DSP pass.
3. **Pure data boundaries** — everything crossing a stage boundary is a
   frozen dataclass (plus numpy arrays treated as immutable), so stages
   can run on different substrates (process-pool workers, the service's
   DSP executor thread) without hidden shared state.
"""

from repro.sim.pipeline.batch import (
    DEFAULT_BATCH_SIZE,
    BatchedSessionRunner,
    PreparedRound,
    Session,
    detect_batch,
    fanout_width,
    finish,
    prepare,
    render_and_detect,
    set_fanout_width,
    usable_cpus,
)
from repro.sim.pipeline.reference import run_monolithic
from repro.sim.pipeline.stages import (
    DetectionPair,
    InterferenceProvider,
    NegotiationResult,
    PlannedRender,
    RenderedRecordings,
    RoundEvidence,
    SchedulePlan,
    SessionArtifacts,
    SessionContext,
    SessionTiming,
    exchange,
    exchange_and_decide,
    negotiate,
    radiated_reference_waveform,
    render_arrivals,
    render_call_counts,
    render_noise,
    reset_render_call_counts,
    schedule,
    session_cost,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchedSessionRunner",
    "DetectionPair",
    "InterferenceProvider",
    "NegotiationResult",
    "PlannedRender",
    "PreparedRound",
    "RenderedRecordings",
    "RoundEvidence",
    "SchedulePlan",
    "Session",
    "SessionArtifacts",
    "SessionContext",
    "SessionTiming",
    "detect_batch",
    "exchange",
    "exchange_and_decide",
    "fanout_width",
    "finish",
    "negotiate",
    "prepare",
    "radiated_reference_waveform",
    "render_and_detect",
    "render_arrivals",
    "render_call_counts",
    "render_noise",
    "reset_render_call_counts",
    "run_monolithic",
    "schedule",
    "session_cost",
    "set_fanout_width",
    "usable_cpus",
]
