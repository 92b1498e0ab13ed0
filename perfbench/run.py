"""The repository benchmark's one command.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-fig1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the workload's traced variant and prints the
per-layer metrics instead (spans are written to
``.perfbench/spans-<workload>-seed<seed>.json``).  Standard output ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name → value and unit).  The line before it carries the
run's provenance and sample detail.  Any error exits non-zero before
that line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("plan-fig1", "serve-open", "replay-mini")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_imports() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: the program's sources are missing ({source})")
    sys.path[:0] = [str(ROOT), str(source)]


def _module(workload: str):
    if workload == "plan-fig1":
        from perfbench import plan_fig1 as module
    elif workload == "replay-mini":
        from perfbench import replay_mini as module
    else:
        from perfbench import serve_open as module
    return module


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    _prepare_imports()

    from perfbench.host import BACKEND, WORK_DIR, provenance

    # Pinned before the program is imported, for this process and children.
    os.environ["REPRO_DSP_BACKEND"] = BACKEND
    from perfbench.layers import PER_LAYER
    from perfbench.report import END_TO_END
    from repro.dsp.backend import get_backend, set_backend

    set_backend(BACKEND)
    module = _module(args.workload)
    started = time.perf_counter()
    if args.trace:
        result, tracer = module.run_traced(args.seed, args.seconds)
        WORK_DIR.mkdir(exist_ok=True)
        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.to_json()))
        wanted = PER_LAYER
    else:
        result = module.run_untraced(args.seed, args.seconds)
        wanted = END_TO_END
    metrics = {
        metric["name"]: {
            "value": float(result.metrics.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in wanted
    }
    if not args.trace:
        missing = [name for name, entry in metrics.items() if entry["value"] <= 0]
        if missing:
            raise SystemExit(f"perfbench: end-to-end metrics not measured: {missing}")
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "provenance": provenance(args.seed, get_backend().name),
        "mismatches": result.mismatches,
        **result.detail,
    }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
