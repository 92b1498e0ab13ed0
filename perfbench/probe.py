"""Fresh-interpreter set-up probes, started by the benchmark as children.

``python3 perfbench/probe.py plan-fig1`` imports what the workload
needs, builds its engine or runner and prints one ready line; the
parent times the interval from starting the interpreter to that line.
``python3 perfbench/probe.py import-service`` prints the seconds the
service import stack takes inside a fresh interpreter.
"""

from __future__ import annotations

import sys
import tempfile
import time


def _ready_plan_fig1() -> None:
    from repro.acoustics.environment import FIGURE1_ENVIRONMENTS
    from repro.dsp.backend import get_backend
    from repro.eval.engine import TrialEngine, TrialPlan, TrialSpec

    get_backend()
    engine = TrialEngine(jobs=1, batch_size=16)
    TrialPlan(
        "fig1",
        [
            TrialSpec(environment=env, distance_m=d, n_trials=4, seed=0)
            for env in FIGURE1_ENVIRONMENTS
            for d in (0.5, 1.0, 1.5, 2.0)
        ],
    )
    engine.close()


def _ready_replay_mini() -> None:
    from repro.corpus import (
        CaptureCorpus,
        ReplayingSessionRunner,
        build_capture_specs,
    )
    from repro.dsp.backend import get_backend

    get_backend()
    build_capture_specs(profile="mini", distances=[0.5, 1.0, 3.0], trials=4)
    with tempfile.TemporaryDirectory() as root:
        ReplayingSessionRunner(CaptureCorpus(root), strict=True)


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    (what,) = argv
    if what == "plan-fig1":
        _ready_plan_fig1()
    elif what == "replay-mini":
        _ready_replay_mini()
    elif what == "import-service":
        import repro.corpus  # noqa: F401
        import repro.scenarios  # noqa: F401
        import repro.service  # noqa: F401
    else:
        raise SystemExit(f"unknown probe {what!r}")
    print(f"ready {time.perf_counter() - started!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
