"""The round driver's prepare/render/detect fan-out.

The contract under test (``docs/pipeline.md``): splitting a phase into
contiguous slices run on a thread pool is a scheduling decision only —
outcomes, session artifacts, captures, recorded corpora, replays and
render counts are byte-identical at every fan-out width — the RNG-bound
prepare phase fans out only over sessions that share no mutable state,
the caller's context variables follow each slice onto its pool thread,
pool workers that already split work across cores run unfanned, and the
pool survives ``fork``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
from contextvars import ContextVar
from pathlib import Path

import numpy as np
import pytest

import repro.sim.pipeline.batch as batch
import repro.sim.pipeline.stages as stages
from repro.attacks.all_frequency import AllFrequencySpoofAttack
from repro.baselines.cc_detector import ActionCCRanging
from repro.core.config import ProtocolConfig
from repro.corpus import (
    CaptureCorpus,
    ReplayingSessionRunner,
    build_capture_specs,
    canonical_outcome_json,
    outcome_to_json,
    record_cell_spec,
)
from repro.eval.engine import (
    AUTH,
    VOUCH,
    TrialEngine,
    TrialSpec,
    build_pair_world,
    build_trial_session,
)
from repro.eval.trials import concurrent_users_interference
from repro.scenarios import compile_scenario, get_scenario
from repro.service import BatchingScheduler
from repro.sim.geometry import Point
from repro.sim.pipeline import (
    BatchedSessionRunner,
    fanout_width,
    render_call_counts,
    reset_render_call_counts,
    set_fanout_width,
)

WIDTHS = (1, 2, 3)
GOLDEN = Path(__file__).parent / "data" / "golden_corpus"
SRC = Path(__file__).resolve().parents[1] / "src"

PLAIN = TrialSpec(environment="office", distance_m=1.0, n_trials=7, seed=11)
FAR = TrialSpec(environment="office", distance_m=3.0, n_trials=5, seed=12)
CC = TrialSpec(
    environment="office",
    distance_m=1.0,
    n_trials=3,
    seed=13,
    engine=ActionCCRanging(ProtocolConfig()),
)


def _cell(spec: TrialSpec, n: int):
    return [build_trial_session(spec, trial) for trial in range(n)]


def _plain(n: int):
    return _cell(PLAIN, n)


def _far(n: int):
    return _cell(FAR, n)


def _mixed(n: int):
    # Stock ActionRanging and the ACTION-CC ablation engine interleaved,
    # so every slice boundary falls between rounds of different engines.
    return [
        build_trial_session(CC if trial % 2 else PLAIN, trial // 2)
        for trial in range(n)
    ]


BATCHES = {
    "uneven_5": lambda: _far(5),
    "uneven_7": lambda: _plain(7),
    "mixed_engines_6": lambda: _mixed(6),
}


@pytest.fixture()
def pinned_width():
    """Pin the fan-out width for one test; restore the default after."""
    yield set_fanout_width
    set_fanout_width(None)


def _canonical(outcomes) -> list[str]:
    return [canonical_outcome_json(outcome_to_json(o)) for o in outcomes]


def _run(build, width: int):
    set_fanout_width(width)
    sessions = build()
    outcomes = BatchedSessionRunner(len(sessions)).run(sessions)
    captures = [
        (s.artifacts.recording_auth, s.artifacts.recording_vouch)
        for s in sessions
    ]
    return _canonical(outcomes), captures


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_outcomes_byte_identical_at_every_width(name, pinned_width):
    build = BATCHES[name]
    expected, expected_captures = _run(build, 1)
    for width in WIDTHS[1:]:
        outcomes, captures = _run(build, width)
        assert outcomes == expected, f"width {width}"
        for (auth, vouch), (ref_auth, ref_vouch) in zip(
            captures, expected_captures
        ):
            assert np.array_equal(auth, ref_auth)
            assert np.array_equal(vouch, ref_vouch)


def test_slices_are_contiguous_and_carry_the_callers_context(
    pinned_width, monkeypatch
):
    tag: ContextVar[str] = ContextVar("tag", default="unset")
    calls: list[tuple[str, int, str, int]] = []
    lock = threading.Lock()

    def spy(step):
        def traced(rows, *rest):
            with lock:
                calls.append(
                    (step.__name__, len(rows), tag.get(), threading.get_ident())
                )
            return step(rows, *rest)

        return traced

    monkeypatch.setattr(batch, "render_arrivals", spy(stages.render_arrivals))
    monkeypatch.setattr(batch, "detect_batch", spy(batch.detect_batch))
    pinned_width(3)
    tag.set("caller")
    BatchedSessionRunner(7).run(_plain(7))

    for step in ("render_arrivals", "detect_batch"):
        mine = [call for call in calls if call[0] == step]
        assert sorted(rows for _, rows, _, _ in mine) == [2, 2, 3]
        assert {context for _, _, context, _ in mine} == {"caller"}
        assert len({thread for _, _, _, thread in mine}) >= 2


def test_short_captures_run_inline(pinned_width, monkeypatch):
    threads: set[int] = set()
    original = batch.detect_batch

    def spy(*args):
        threads.add(threading.get_ident())
        return original(*args)

    monkeypatch.setattr(batch, "detect_batch", spy)
    pinned_width(3)
    (spec,) = build_capture_specs(profile="mini", distances=[0.5], trials=4)
    BatchedSessionRunner(4).run(
        [build_trial_session(spec, trial) for trial in range(4)]
    )
    assert threads == {threading.get_ident()}


def test_render_counts_exact_under_fan_out(pinned_width):
    pinned_width(3)
    reset_render_call_counts()
    try:
        BatchedSessionRunner(7).run(_plain(7))
        assert render_call_counts() == {"noise_plans": 7, "arrival_captures": 14}
    finally:
        reset_render_call_counts()


def test_render_counter_updates_are_not_lost():
    threads, per_thread = 8, 5_000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    reset_render_call_counts()
    try:
        workers = [
            threading.Thread(
                target=lambda: [
                    stages._count_render("arrival_captures", 1)
                    for _ in range(per_thread)
                ]
            )
            for _ in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
        assert render_call_counts()["arrival_captures"] == threads * per_thread
    finally:
        sys.setswitchinterval(interval)
        reset_render_call_counts()


@pytest.fixture(scope="module")
def mini_corpus(tmp_path_factory):
    specs = build_capture_specs(
        profile="mini", distances=[0.5, 3.0], trials=5, seed=21
    )
    corpus = CaptureCorpus(tmp_path_factory.mktemp("fanout-corpus"))
    set_fanout_width(1)
    try:
        cells = [record_cell_spec(spec, corpus) for spec in specs]
    finally:
        set_fanout_width(None)
    return corpus, specs, cells


@pytest.mark.parametrize("width", WIDTHS)
def test_strict_replay_byte_identical_at_every_width(
    width, mini_corpus, pinned_width, monkeypatch
):
    corpus, specs, cells = mini_corpus
    # Mini-profile captures are too short to fan out by default.
    monkeypatch.setattr(batch, "FANOUT_MIN_CAPTURE_SAMPLES", 0)
    pinned_width(width)
    reset_render_call_counts()
    replayed = [
        ReplayingSessionRunner(corpus).replay_cell(spec) for spec in specs
    ]
    assert render_call_counts() == {"noise_plans": 0, "arrival_captures": 0}
    assert [_canonical(c.outcomes) for c in replayed] == [
        _canonical(c.outcomes) for c in cells
    ]
    reports = ReplayingSessionRunner(str(GOLDEN)).replay_all()
    assert all(not report.mismatches for report in reports)


def test_pool_workers_run_unfanned(pinned_width):
    pinned_width(3)
    with TrialEngine(jobs=2) as engine:
        assert engine._executor().submit(fanout_width).result(timeout=60) == 1
    assert fanout_width() == 3

    async def scheduler_worker_width() -> int:
        scheduler = BatchingScheduler(dsp_executor="process", dsp_workers=1)
        await scheduler.start()
        try:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(scheduler._executor, fanout_width)
        finally:
            await scheduler.stop()

    assert asyncio.run(scheduler_worker_width()) == 1


def test_set_fanout_width_rejects_zero():
    with pytest.raises(ValueError):
        set_fanout_width(0)


def test_fanout_width_falls_back_without_sched_getaffinity(
    pinned_width, monkeypatch
):
    # macOS and Windows have no os.sched_getaffinity.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    pinned_width(None)
    assert fanout_width() == (os.cpu_count() or 1)
    assert len(BatchedSessionRunner(2).run(_plain(2))) == 2


# ----------------------------------------------------------------------
# Phase 1: prepare fans out over independent sessions only
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Spoof:
    """The security cell: an all-frequency spoofer 0.3 m from the device."""

    def __call__(self, world, rng):
        attacker = world.add_device("attacker", Point(0.3, 0.0))
        attack = AllFrequencySpoofAttack(
            world=world, auth_name=AUTH, vouch_name=VOUCH, attacker=attacker
        )
        return [attack.playbacks]


def _fig2a(n: int):
    spec = TrialSpec(
        environment="office",
        distance_m=1.5,
        n_trials=n,
        seed=31,
        interference_factory=concurrent_users_interference(n_other_pairs=2),
        key="multiuser:1.5",
    )
    return _cell(spec, n)


def _security(n: int):
    spec = TrialSpec(
        environment="office",
        distance_m=4.0,
        n_trials=n,
        seed=32,
        interference_factory=_Spoof(),
    )
    return _cell(spec, n)


def _home_multi_device(n: int):
    compiled = compile_scenario(get_scenario("home-multi-device"), trials=n)
    return _cell(compiled.plan.specs[0], n)


def _mixed_own_engines(n: int):
    # Each ACTION-CC session gets its own engine, so the batch stays
    # independent and prepare fans out across the engine boundary.
    return [
        build_trial_session(
            dataclasses.replace(CC, engine=ActionCCRanging(ProtocolConfig()))
            if trial % 2
            else PLAIN,
            trial // 2,
        )
        for trial in range(n)
    ]


PREPARE_CELLS = {
    "fig2a_multiuser": _fig2a,
    "security_all_frequency_spoof": _security,
    "home_multi_device": _home_multi_device,
    "mixed_engines": _mixed_own_engines,
}


def _shared_world(n: int):
    world = build_pair_world("office", 1.0, seed=41)
    return [world.ranging_session(AUTH, VOUCH) for _ in range(n)]


def _shared_cc_engine(n: int):
    return _cell(dataclasses.replace(CC, n_trials=n), n)


SHARED_STATE = {
    "shared_world": _shared_world,
    "shared_cc_engine": _shared_cc_engine,
}


@pytest.fixture()
def prepare_threads(monkeypatch):
    """The threads :func:`~repro.sim.pipeline.prepare` ran on."""
    threads: set[int] = set()
    lock = threading.Lock()
    original = batch.prepare

    def spy(session):
        with lock:
            threads.add(threading.get_ident())
        return original(session)

    monkeypatch.setattr(batch, "prepare", spy)
    return threads


def _run_prepared(build, width: int, threads: set[int]):
    set_fanout_width(width)
    sessions = build()
    threads.clear()
    reset_render_call_counts()
    outcomes = BatchedSessionRunner(len(sessions)).run(sessions)
    assert render_call_counts()["noise_plans"] == len(sessions)
    artifacts = [pickle.dumps(session.artifacts) for session in sessions]
    return _canonical(outcomes), artifacts, set(threads), sessions


@pytest.mark.parametrize("size", (5, 7))
@pytest.mark.parametrize("cell", sorted(PREPARE_CELLS))
def test_prepare_fan_out_byte_identical(
    cell, size, pinned_width, prepare_threads
):
    build = functools.partial(PREPARE_CELLS[cell], size)
    try:
        outcomes, artifacts, used, _ = _run_prepared(build, 1, prepare_threads)
        assert used == {threading.get_ident()}
        for width in WIDTHS[1:]:
            fanned = _run_prepared(build, width, prepare_threads)
            assert fanned[0] == outcomes, f"width {width}"
            assert fanned[1] == artifacts, f"width {width}"
            assert len(fanned[2]) >= 2, f"width {width} did not fan out"
    finally:
        reset_render_call_counts()


@pytest.mark.parametrize("name", sorted(SHARED_STATE))
def test_shared_state_prepares_serially(name, pinned_width, prepare_threads):
    build = functools.partial(SHARED_STATE[name], 5)
    outcomes, artifacts, used, sessions = _run_prepared(
        build, 1, prepare_threads
    )
    transcript = sessions[0].context.link.transcript
    try:
        for width in WIDTHS[1:]:
            fanned = _run_prepared(build, width, prepare_threads)
            assert fanned[2] == used == {threading.get_ident()}
            assert fanned[0] == outcomes
            assert fanned[1] == artifacts
            assert fanned[3][0].context.link.transcript == transcript
    finally:
        reset_render_call_counts()
    if name == "shared_world":
        # Init and report frames of all five rounds on the one link.
        assert len(transcript) == 10


def test_independence_rule_covers_everything_prepare_touches():
    first, second = _fig2a(2)
    assert batch._independent([first, second])
    ctx = second.context
    shared = {
        "rng": dataclasses.replace(second, rng=first.rng),
        "artifacts": dataclasses.replace(second, artifacts=first.artifacts),
    }
    for field, value in {
        "link": first.context.link,
        "auth_device": first.context.auth_device,
        "vouch_device": first.context.auth_device,
        "interference": first.context.interference,
        "action": first.context.action,
    }.items():
        shared[field] = dataclasses.replace(
            second, context=dataclasses.replace(ctx, **{field: value})
        )
    # The stock engine is stateless: sharing it keeps the batch independent.
    assert batch._independent([first, shared.pop("action")])
    for field, session in shared.items():
        assert not batch._independent([first, session]), field
    cc_first, cc_second = _shared_cc_engine(2)
    assert not batch._independent([cc_first, cc_second])


@pytest.mark.parametrize("failing", [(1, 4), (2, 4)])
@pytest.mark.parametrize("width", WIDTHS)
def test_first_prepare_error_in_input_order_surfaces(
    failing, width, pinned_width, monkeypatch
):
    sessions = _plain(5)
    doomed = {id(sessions[index]): index for index in failing}
    original = batch.prepare

    def flaky(session):
        if id(session) in doomed:
            raise RuntimeError(f"session {doomed[id(session)]}")
        return original(session)

    monkeypatch.setattr(batch, "prepare", flaky)
    pinned_width(width)
    with pytest.raises(RuntimeError, match=f"^session {failing[0]}$"):
        BatchedSessionRunner(5).run(sessions)


def test_recorded_corpus_files_identical_when_prepare_fans_out(
    tmp_path, pinned_width, prepare_threads, monkeypatch
):
    # Mini-profile captures are too short to fan out by default.
    monkeypatch.setattr(batch, "FANOUT_MIN_CAPTURE_SAMPLES", 0)
    specs = build_capture_specs(
        profile="mini", distances=[0.5, 3.0], trials=5, seed=23
    )
    trees = {}
    for width in (1, 2):
        pinned_width(width)
        prepare_threads.clear()
        root = tmp_path / f"width{width}"
        corpus = CaptureCorpus(root)
        for spec in specs:
            record_cell_spec(spec, corpus)
        assert (len(prepare_threads) > 1) == (width > 1)
        trees[width] = {
            path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }
    assert {path.suffix for path in trees[1]} == {".json", ".npz"}
    assert trees[2] == trees[1]


# A fanned-out batch first starts the parent's pool threads; a forked
# child inherits the pool object but not its threads, so work it queued
# there would never run.  Runs in its own process group so a hang can be
# killed whole.
FORK_SCRIPT = textwrap.dedent(
    """
    import os

    from repro.eval.engine import TrialEngine, TrialPlan, TrialSpec
    from repro.eval.engine import build_trial_session, run_cell_spec
    from repro.sim.pipeline import BatchedSessionRunner, set_fanout_width

    set_fanout_width(2)
    spec = TrialSpec(environment="quiet_lab", distance_m=1.0, n_trials=2, seed=5)
    sessions = [build_trial_session(spec, t) for t in range(2)]
    expected = BatchedSessionRunner(2).run(sessions)

    specs = [
        TrialSpec(environment="quiet_lab", distance_m=d, n_trials=2, seed=5)
        for d in (1.0, 2.0)
    ]
    with TrialEngine(jobs=2, chunk_size=1) as engine:
        cells = engine.run_plan(TrialPlan("fork", specs))
    assert cells[0].outcomes == expected
    assert cells[1].outcomes == run_cell_spec(specs[1]).outcomes

    pid = os.fork()
    if pid == 0:
        again = [build_trial_session(spec, t) for t in range(2)]
        os._exit(0 if BatchedSessionRunner(2).run(again) == expected else 3)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    print("ok")
    """
)


def test_forked_children_after_a_fanned_out_batch_do_not_hang():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *sys.path])}
    process = subprocess.Popen(
        [sys.executable, "-c", FORK_SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        pytest.fail("a forked child hung after the parent fanned out")
    assert process.returncode == 0, err
    assert out.strip() == "ok"
