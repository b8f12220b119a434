"""Metric names, units and the result line agree with BENCHMARK.json."""

import json
import re
from pathlib import Path
from types import SimpleNamespace

from perfbench import run

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_and_units_are_well_formed():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for kind in ("end_to_end", "per_layer"):
        for metric in SPEC[kind]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_declared_units_follow_the_spec():
    assert run.declared_units("end_to_end") == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]


def test_traced_run_reports_every_declared_layer_metric():
    figure_times = {name: 0.1 for name in (
        "figure-1", "figure-2", "figure-3", "figure-4", "figure-5",
        "finding-6", "tables")}
    trace = {"wall": [0.0, 1.0], "spans": [[1, 0, "engine.point", 0.1, 0.2]],
             "counters": {"engine.point.calls": 1}, "samples": {}}
    layers = run.per_layer(
        setup={"snapshot_bytes": 10},
        paper={"figure_s": {"default": figure_times, "family": figure_times}},
        serve={"sent": 10, "ok": 10, "failed": 0, "replay_idle_ms": 2.0,
               "fresh_idle_ms": 11.0, "loops": {
            "replay_p50_ms": 3.0, "replay_p99_ms": 9.0, "fresh_p50_ms": 5.0,
            "fresh_p95_ms": 8.0, "sat_rps": 300.0, "server_p50_ms": 2.5,
            "server_p99_ms": 10.0, "max_rate_rps": 100.0, "lag_p99_ms": 1.0}},
        fleet={"split_max_share": 1.0, "duplicates": 0,
               "members": [{"trace": trace}]},
        programs=SimpleNamespace(results=[{"trace": trace}]),
        overhead=0.05,
    )
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(layers) == sorted(declared)
    assert all(isinstance(value, (int, float)) for value in layers.values())
    assert layers["engine.points"] == 1
