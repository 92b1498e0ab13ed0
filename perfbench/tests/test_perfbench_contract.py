"""BENCHMARK.json agrees with the metrics the benchmark prints."""

import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.report import END_TO_END  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.serve_open import (  # noqa: E402
    RATE_RPS,
    WARMUP_S,
    build_plan,
    identities,
    shard_split,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def strip_bound(metric):
    return {key: value for key, value in metric.items() if key != "bound"}


def test_benchmark_json_matches_the_printed_metrics():
    spec = load()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [strip_bound(m) for m in spec["end_to_end"]] == END_TO_END
    assert spec["per_layer"] == PER_LAYER
    names = [m["name"] for m in (*spec["workloads"], *spec["end_to_end"], *spec["per_layer"])]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in (*spec["end_to_end"], *spec["per_layer"]))


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in load()["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_serve_mix_splits_fourteen_to_eighteen():
    mix = identities()
    assert len(mix) == 32
    assert shard_split(mix) == [14, 18]
    assert shard_split([f for f in mix if f["distance_m"] < 10.0]) == [8, 16]


def test_serve_plan_is_seeded_and_sized():
    plan = build_plan(seed=5, seconds=20.0)
    assert plan == build_plan(seed=5, seconds=20.0)
    assert plan != build_plan(seed=6, seconds=20.0)
    assert sum(p.measured for p in plan) == round(RATE_RPS * 20.0)
    assert len(plan) == round(RATE_RPS * (20.0 + WARMUP_S))
    offsets = [p.offset_s for p in plan]
    assert offsets == sorted(offsets)
    # Every identity is visited before any is visited twice.
    first_round = {(p.fields["environment"], p.fields["distance_m"], p.fields["seed"]) for p in plan[:32]}
    assert len(first_round) == 32
