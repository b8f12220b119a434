"""Program processes of a benchmark run: ``python -m perfbench.program``.

Each role runs the unmodified program through its public API or its
own CLI (``repro.cli.main``), so it builds the same public objects a
user's ``repro serve`` or ``repro sweep --claim`` builds:

- ``setup``  — build the run's snapshots into empty stores, then open a
  session, ``repeats`` times;
- ``paper``  — regenerate Figures 1–5, Finding 6 and Tables 1–3 in the
  default per-point mode and in ``fused="family"`` mode;
- ``serve``  — ``repro serve`` until SIGTERM;
- ``sweep``  — ``repro sweep`` (a fleet member with ``--claim``).

Usage: ``python -m perfbench.program ROLE RESULT.json ARGS.json``.  With
``PERFBENCH_TRACE=1`` in the environment the layers are traced (see
:mod:`perfbench.tracing`).  Every role writes its result, its peak RSS
and, when traced, its spans to ``RESULT.json`` as it exits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy

from perfbench.reference import around

PAPER_TRIALS = 20


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(args: dict) -> dict:
    """Snapshot builds into empty stores, each followed by a session open."""
    from repro.api import ReleaseSession
    from repro.experiments.config import ExperimentConfig
    from repro.scenarios import SnapshotStore

    work = Path(args["work"])
    times = []
    root = None
    for repeat in range(args["repeats"]):
        if root is not None:
            shutil.rmtree(root)
        root = work / f"snapshots-{repeat}"
        start = time.perf_counter()
        store = SnapshotStore(root)
        for name in args["scenarios"]:
            ReleaseSession(
                ExperimentConfig.for_scenario(name), snapshot_store=store
            )
        times.append(time.perf_counter() - start)
    snapshot_bytes = sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )
    return {
        "times": times,
        "store": str(root),
        "snapshot_bytes": snapshot_bytes,
        "numpy": numpy.__version__,
    }


def _series_payload(series) -> list:
    return [
        [p.mechanism, p.alpha, p.epsilon, p.theta, p.feasible, p.overall,
         list(p.by_stratum)]
        for p in series.points
    ]


def _frontier(series) -> list:
    return [[p.mechanism, p.alpha, p.epsilon, p.theta, p.feasible]
            for p in series.points]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _paper_mode(generators, config, snapshots, store, fused) -> dict:
    """One regeneration of every figure and table from a fresh session."""
    from repro.api import ReleaseSession
    from repro.experiments.tables import table1_text, table2_text, table3_text

    start = time.perf_counter()
    session = ReleaseSession(config, snapshot_store=snapshots)
    times, series = {}, {}
    for name, generate in generators.items():
        began = time.perf_counter()
        series[name] = generate(session, store=store, fused=fused)
        times[name] = time.perf_counter() - began
    began = time.perf_counter()
    tables = [
        table1_text(),
        table2_text(),
        table3_text(session, store=store, fused=fused),
    ]
    times["tables"] = time.perf_counter() - began
    wall = time.perf_counter() - start
    entries = session.ledger.entries
    return {
        "session": session,
        "series": series,
        "wall_s": wall,
        "times": times,
        "digest": _digest({n: _series_payload(s) for n, s in series.items()}),
        "tables_digest": _digest(tables),
        "frontier": {n: _frontier(s) for n, s in series.items()},
        "ledger": {
            "entries": len(entries),
            "epsilon": math.fsum(e.epsilon for e in entries),
            "delta": math.fsum(e.delta for e in entries),
        },
        "artifacts": len(series) + len(tables),
    }


def paper(args: dict) -> dict:
    """Regenerate the paper per mode, ``repeats`` times, each run from a
    fresh session and an empty result store."""
    from repro.engine.store import ResultStore
    from repro.experiments import figures
    from repro.experiments.config import ExperimentConfig
    from repro.scenarios import SnapshotStore

    generators = {
        "figure-1": figures.figure1,
        "figure-2": figures.figure2,
        "figure-3": figures.figure3,
        "figure-4": figures.figure4,
        "figure-5": figures.figure5,
        "finding-6": figures.finding6,
    }
    work = Path(args["work"])
    snapshots = SnapshotStore(args["store"])
    config = ExperimentConfig.for_scenario(
        args["scenario"], n_trials=PAPER_TRIALS, seed=args["experiment_seed"]
    )
    runs = {"default": [], "family": []}
    repeat_identical = True
    for repeat in range(args["repeats"]):
        for label, fused in (("default", False), ("family", "family")):
            store = ResultStore(work / f"paper-results-{label}-{repeat}")
            mode, reference = around(
                _paper_mode, generators, config, snapshots, store, fused
            )
            mode["reference_s"] = reference
            session, series = mode.pop("session"), mode.pop("series")
            if label == "default" and repeat == 0:
                # Same session, same inputs, no store: the per-point
                # path must reproduce figure 1 bit for bit.
                again = generators["figure-1"](session, fused=False)
                repeat_identical = _digest(_series_payload(again)) == _digest(
                    _series_payload(series["figure-1"])
                )
            runs[label].append(mode)
    default, family = runs["default"], runs["family"]
    same = lambda modes, key: all(m[key] == modes[0][key] for m in modes)
    return {
        "modes": {
            label: [{k: v for k, v in m.items() if k != "frontier"} for m in modes]
            for label, modes in runs.items()
        },
        "checks": {
            "paper.repeat_identical": repeat_identical
            and same(default, "digest")
            and same(default, "tables_digest"),
            "paper.family_frontier": all(
                m["frontier"] == default[0]["frontier"] for m in family
            ),
            "paper.ledger_identical": all(
                m["ledger"] == default[0]["ledger"] for m in default + family
            ),
        },
    }


def cli(args: dict) -> dict:
    """``repro <argv>`` in this process (serve and sweep roles)."""
    from repro.cli import main

    code = main(args["argv"])
    return {"exit_code": code}


ROLES = {"setup": setup, "paper": paper, "serve": cli, "sweep": cli}


def main(argv: list[str]) -> int:
    role, result_path, args_path = argv
    args = json.loads(Path(args_path).read_text(encoding="utf-8"))
    tracer = None
    if os.environ.get("PERFBENCH_TRACE") == "1":
        from perfbench.tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    started = time.perf_counter()
    result = ROLES[role](args)
    result["role"] = role
    result["wall"] = [started, time.perf_counter()]
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
