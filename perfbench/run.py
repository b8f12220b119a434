"""The repository benchmark: one command, one JSON result line.

    python3 perfbench/run.py --workload national --seed 1 --seconds 24 --trace 0

Run from the root of a source checkout.  Every workload regenerates the
paper, measures the release service and drains a dense accuracy surface
with a two-process claim fleet, then checks each output.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer split from a
traced run (see ``perfbench/README.md``).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report with provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs, loadgen, stats  # noqa: E402
from perfbench.reference import around, nominal  # noqa: E402
from perfbench.tracing import layer_metrics  # noqa: E402

# Each workload runs every phase; they differ in the economy the paper
# is regenerated on.  The release service always hosts paper-default
# and the fleet always drains sparse-rural (see README.md for why).
WORKLOADS = {
    "national": {"economy": "national-1m", "paper_repeats": 1},
    "regional": {"economy": "paper-default", "paper_repeats": 5},
}
SERVE_SCENARIO = "paper-default"
FLEET_SCENARIO = "sparse-rural"
SETUP_REPEATS = 3
DRAIN_REPEATS = 5
RATE = 50.0  # open-loop arrivals per second
PROBE_REPLAYS = 1000
PROBE_FRESH = 200
PROBE_CHUNKS = 5
CONNECTIONS = 2
CLOSED_S = 2.0
CLOSED_ITEMS = 2_000
LADDER = (50.0, 100.0, 200.0, 300.0, 400.0)
LADDER_STEP_S = 3.0
LADDER_P99_LIMIT_MS = 150.0
PROGRAM_TIMEOUT_S = 150.0


class RunFailed(RuntimeError):
    """A program process crashed or timed out."""


class Programs:
    """Starts program processes and guarantees none outlives the run."""

    def __init__(self, work: Path, traced: bool):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.env["PERFBENCH_TRACE"] = "1" if traced else "0"
        self.live: list[subprocess.Popen] = []
        self.results: list[dict] = []

    def start(self, role: str, name: str, args: dict, *, stdout=None,
              traced: bool | None = None):
        env = self.env
        if traced is not None:
            env = {**env, "PERFBENCH_TRACE": "1" if traced else "0"}
        args_path = self.work / f"{name}.args.json"
        args_path.write_text(json.dumps(args), encoding="utf-8")
        log = open(self.work / f"{name}.log", "wb")
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.program", role,
             str(self.work / f"{name}.result.json"), str(args_path)],
            cwd=ROOT,
            env=env,
            stdout=stdout or log,
            stderr=log,
        )
        proc.perfbench_name = name
        log.close()
        self.live.append(proc)
        return proc

    def finish(self, proc) -> dict:
        name = proc.perfbench_name
        try:
            code = proc.wait(timeout=PROGRAM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        finally:
            self.live.remove(proc)
        result_path = self.work / f"{name}.result.json"
        if code != 0 or not result_path.is_file():
            log = (self.work / f"{name}.log").read_text(errors="replace")
            raise RunFailed(f"{name} exited {code}: {log[-2000:]}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.results.append(result)
        return result

    def run(self, role: str, name: str, args: dict, **options) -> dict:
        return self.finish(self.start(role, name, args, **options))

    def stop_all(self) -> None:
        for proc in self.live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.live.clear()


def _median(values) -> float:
    return float(statistics.median(values))


def _ms(samples, q: float) -> float:
    return stats.percentile(samples, q) * 1000.0


# -- phases ---------------------------------------------------------------


def paper_phase(programs: Programs, store: str, spec: dict, seed: int,
                repeats: int, name: str = "paper") -> dict:
    result = programs.run(
        "paper",
        name,
        {
            "work": str(programs.work / name),
            "store": store,
            "scenario": spec["economy"],
            "experiment_seed": inputs.paper_seed(seed),
            "repeats": repeats,
        },
    )
    modes = result["modes"]
    wall = lambda label: _median(  # noqa: E731
        [nominal(m["wall_s"], m["reference_s"]) for m in modes[label]]
    )
    return {
        "paper_s": wall("default"),
        "paper_family_s": wall("family"),
        "raw_paper_s": [m["wall_s"] for m in modes["default"]],
        "raw_paper_family_s": [m["wall_s"] for m in modes["family"]],
        "figure_s": {
            label: {
                name: _median([m["times"][name] for m in runs])
                for name in runs[0]["times"]
            }
            for label, runs in modes.items()
        },
        "digest": modes["default"][0]["digest"],
        "attempted": sum(m["artifacts"] for runs in modes.values() for m in runs),
        "checks": result["checks"],
    }


def _wait_for_url(proc) -> str:
    """The URL the release service announces once it is listening."""
    for line in proc.stdout:
        match = re.search(rb"listening on (http://\S+)", line)
        if match:
            return match.group(1).decode()
    raise RunFailed("release service exited before listening")


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _ok(outcome) -> bool:
    return outcome.status == 200


def _replies_check(outcomes) -> tuple[bool, bool]:
    """(every replay cached and uncharged, every fresh or prepaid release
    computed and charged)."""
    replay_ok = all(
        o.reply.get("cached") is True and o.reply.get("charged") is False
        for o in outcomes
        if o.item["kind"] == "replay" and _ok(o)
    )
    fresh_ok = all(
        o.reply.get("cached") is False and o.reply.get("charged") is True
        for o in outcomes
        if o.item["kind"] in ("fresh", "prepay") and _ok(o)
    )
    return replay_ok, fresh_ok


def _latencies(outcomes, kind: str) -> list[float]:
    # A failed request misses every latency limit.
    return [
        o.latency if _ok(o) else math.inf
        for o in outcomes
        if o.item["kind"] == kind
    ]


def _ladder(url: str, steps) -> tuple[float, list[dict], list]:
    """The highest ladder rate whose replay p99 meets the limit with the
    generator keeping up (no growing backlog), the steps and all their
    outcomes."""
    best, rows, sent = 0.0, [], []
    for rate, items in steps:
        outcomes = loadgen.open_loop(
            items, lambda: loadgen.Connection(url), connections=CONNECTIONS
        )
        sent.extend(outcomes)
        replays = _latencies(outcomes, "replay")
        p99 = _ms(replays, 0.99)
        tail_lag = max(o.lag for o in outcomes[-max(1, len(outcomes) // 10):])
        met = p99 <= LADDER_P99_LIMIT_MS and tail_lag * 1000.0 <= LADDER_P99_LIMIT_MS
        rows.append({"rate": rate, "replay_p99_ms": p99, "tail_lag_ms": tail_lag * 1000.0})
        if not met:
            break
        best = rate
    return best, rows, sent


def _probe(server, connection, items) -> tuple[list, float]:
    """Send ``items`` one after another; outcomes and server CPU ms each."""
    outcomes = []
    cpu = process_cpu_s(server.pid)
    for index, item in enumerate(items):
        sent = time.perf_counter()
        status, reply = connection.release(item)
        outcomes.append(
            loadgen.Outcome(index, item, sent, sent, time.perf_counter(), status, reply)
        )
    cpu = process_cpu_s(server.pid) - cpu
    return outcomes, cpu / len(items) * 1000.0


def _probes(server, connection, items) -> tuple[list, float, float, float]:
    """``items`` in ``PROBE_CHUNKS`` chunks, each timed between two host
    references: (outcomes, nominal and raw median CPU ms per request,
    nominal median latency ms)."""
    outcomes, nominal_cpu, raw_cpu, latency = [], [], [], []
    size = len(items) // PROBE_CHUNKS
    for start in range(0, size * PROBE_CHUNKS, size):
        (chunk, cpu_ms), host = around(
            _probe, server, connection, items[start:start + size]
        )
        outcomes.extend(chunk)
        raw_cpu.append(cpu_ms)
        nominal_cpu.append(nominal(cpu_ms, host))
        latency.append(nominal(_ms([o.latency for o in chunk], 0.5), host))
    return outcomes, _median(nominal_cpu), _median(raw_cpu), _median(latency)


def serve_phase(programs: Programs, store: str, seed: int, seconds: float,
                traced: bool) -> dict:
    """Cost probes in every run; the open and closed loops and the rate
    ladder in the traced run (their latencies swing with host load)."""
    work = programs.work
    plan = inputs.serve_inputs(
        seed, RATE, seconds, CLOSED_ITEMS, PROBE_REPLAYS, PROBE_FRESH,
        ladder=LADDER, step_s=LADDER_STEP_S,
    )
    start = time.perf_counter()
    server = programs.start(
        "serve",
        "serve",
        {
            "argv": [
                "serve", "--scenario", SERVE_SCENARIO, "--warm",
                "--host", "127.0.0.1", "--port", "0",
                "--snapshot-dir", store,
                "--cache-dir", str(work / "serve-cache"),
                "--ledger-dir", str(work / "serve-ledgers"),
            ]
        },
        stdout=subprocess.PIPE,
    )
    opened, closed, laddered, loops = [], [], [], {}
    try:
        url = _wait_for_url(server)
        ready_s = time.perf_counter() - start
        connection = loadgen.Connection(url)
        began = time.perf_counter()
        prepaid, _ = _probe(server, connection, plan["hot"])
        prepay_s = time.perf_counter() - began
        replay_probe, replay_cpu_ms, raw_replay_cpu_ms, replay_idle_ms = _probes(
            server, connection, plan["probe_replay"]
        )
        fresh_probe, fresh_cpu_ms, raw_fresh_cpu_ms, fresh_idle_ms = _probes(
            server, connection, plan["probe_fresh"]
        )
        if traced:
            connect = lambda: loadgen.Connection(url)  # noqa: E731
            opened = loadgen.open_loop(plan["open"], connect, connections=CONNECTIONS)
            closed, closed_s = loadgen.closed_loop(
                plan["closed"], connect, connections=CONNECTIONS, seconds=CLOSED_S
            )
            max_rate, ladder_rows, laddered = _ladder(url, plan["ladder"])
            _, server_metrics = connection.request("GET", "/metrics")
            loops = _loop_metrics(opened, closed, closed_s, server_metrics)
            loops.update(max_rate_rps=max_rate, ladder=ladder_rows)
        ledgers = {
            tenant: connection.request("GET", f"/v1/ledger/{tenant}")[1]
            for tenant in inputs.tenant_names()
        }
        connection.close()
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
        # Drain the announcements so the server never writes to a
        # closed pipe while it shuts down.
        try:
            server.communicate(timeout=PROGRAM_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
    result = programs.finish(server)

    sent = prepaid + replay_probe + fresh_probe + opened + closed + laddered
    replay_ok, fresh_ok = _replies_check(sent)
    # Every charged reply's spend, summed per tenant, is the tenant's
    # final ledger total.
    spends = {tenant: [] for tenant in inputs.tenant_names()}
    for o in sent:
        if _ok(o) and o.reply.get("charged"):
            spends[o.item["tenant"]].append(o.reply["result"]["spend"]["epsilon"])
    ledger_ok = all(
        math.isclose(
            ledgers[t].get("spent_epsilon", math.nan), math.fsum(spends[t]),
            rel_tol=1e-9, abs_tol=1e-9,
        )
        for t in spends
    )
    checks = {
        "serve.replays_cached_uncharged": replay_ok,
        "serve.fresh_charged": fresh_ok,
        "serve.ledger_equals_spends": ledger_ok,
    }
    if traced:
        checks["serve.replay_p99_supported"] = loops["replay"]["tail_supported"]
        checks["serve.fresh_p95_supported"] = loops["fresh"]["tail_supported"]
    return {
        "setup_s": ready_s + prepay_s,
        "ready_s": ready_s,
        "prepay_s": prepay_s,
        "replay_idle_ms": replay_idle_ms,
        "fresh_idle_ms": fresh_idle_ms,
        "replay_cpu_ms": replay_cpu_ms,
        "fresh_cpu_ms": fresh_cpu_ms,
        "raw": {
            "replay_idle_ms": _ms(_latencies(replay_probe, "replay"), 0.5),
            "fresh_idle_ms": _ms(_latencies(fresh_probe, "fresh"), 0.5),
            "replay_cpu_ms": raw_replay_cpu_ms,
            "fresh_cpu_ms": raw_fresh_cpu_ms,
        },
        "loops": loops,
        "sent": len(sent),
        "ok": sum(_ok(o) for o in sent),
        "failed": sum(not _ok(o) for o in sent),
        "peak_rss_mb": result["peak_rss_mb"],
        "checks": checks,
    }


def _loop_metrics(opened, closed, closed_s, server_metrics) -> dict:
    """Latency at the open-loop rate, throughput of the closed loop."""
    replays = _latencies(opened, "replay")
    fresh = _latencies(opened, "fresh")
    server_latency = server_metrics.get("latency_ms", {})
    return {
        "replay": stats.summarize(replays, 0.99),
        "fresh": stats.summarize(fresh, 0.95),
        "replay_p50_ms": _ms(replays, 0.5),
        "replay_p99_ms": _ms(replays, 0.99),
        "fresh_p50_ms": _ms(fresh, 0.5),
        "fresh_p95_ms": _ms(fresh, 0.95),
        "sat_rps": sum(_ok(o) for o in closed) / closed_s,
        "closed_completed": len(closed),
        "lag_p99_ms": _ms([o.lag for o in opened], 0.99),
        "server_p50_ms": server_latency.get("p50") or 0.0,
        "server_p99_ms": server_latency.get("p99") or 0.0,
    }


def _sweep_argv(store: str, cache: Path, out: Path, fleet: dict) -> list[str]:
    return [
        "sweep", "--scenario", FLEET_SCENARIO,
        "--snapshot-dir", store, "--cache-dir", str(cache), "--out", str(out),
        "--tag", fleet["tag"], "--trials", str(fleet["n_trials"]),
        "--seed", str(fleet["experiment_seed"]),
        "--mechanisms", ",".join(fleet["mechanisms"]),
        "--alphas", ",".join(map(str, fleet["alphas"])),
        "--epsilons", ",".join(map(str, fleet["epsilons"])),
    ]


def _sweep_report(out: Path, fleet: dict) -> dict:
    path = out / FLEET_SCENARIO / f"sweep-{fleet['tag']}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _stored_points(cache: Path) -> dict[str, bytes]:
    """Result payloads by store key (lease files are not results)."""
    return {
        str(path.relative_to(cache)): path.read_bytes()
        for path in cache.rglob("*.json")
        if "claims" not in path.relative_to(cache).parts
    }


def _drain(programs: Programs, store: str, fleet: dict, name: str):
    """Two concurrent claim drains; (seconds, member results, crashes)."""
    shared = programs.work / name
    start = time.perf_counter()
    procs = [
        programs.start(
            "sweep", f"{name}-member-{i}",
            {"argv": _sweep_argv(store, shared, programs.work / f"{name}-member-{i}",
                                 fleet) + ["--claim"]},
        )
        for i in range(2)
    ]
    results, crashed = [], 0
    for proc in procs:
        try:
            results.append(programs.finish(proc))
        except RunFailed:
            crashed += 1
    return time.perf_counter() - start, results, crashed


def fleet_phase(programs: Programs, store: str, seed: int, repeats: int,
                name: str = "fleet") -> dict:
    work = programs.work
    fleet = inputs.fleet_inputs(seed)
    n_points = len(fleet["mechanisms"]) * len(fleet["alphas"]) * len(fleet["epsilons"])
    drains, raw, splits, members, stored = [], [], [], [], []
    crashed = 0
    for repeat in range(repeats):
        drain = f"{name}-{repeat}"
        (seconds, results, lost), host = around(_drain, programs, store, fleet, drain)
        drains.append(nominal(seconds, host))
        raw.append(seconds)
        crashed += lost
        members.extend(results)
        reports = [] if lost else [
            _sweep_report(work / f"{drain}-member-{i}", fleet) for i in range(2)
        ]
        splits.append([r["computed"] for r in reports])
        stored.append((work / drain, reports))

    # The serial drain runs untraced: it is not part of the fleet.
    serial = work / f"{name}-serial"
    programs.run(
        "sweep", f"{name}-serial",
        {"argv": _sweep_argv(store, serial, work / f"{name}-serial-out", fleet)},
        traced=False,
    )
    expected = _stored_points(serial)
    once = payloads_equal = counts_sum = True
    for shared, reports in stored:
        points = _stored_points(shared)
        writes = sum(r["store_stats"]["results"]["writes"] for r in reports)
        once &= len(points) == n_points and writes == n_points
        counts_sum &= sum(r["computed"] for r in reports) == n_points
        payloads_equal &= points == expected
    computed = sum(sum(split) for split in splits)
    shares = [max(split) / sum(split) for split in splits if sum(split)]
    return {
        "drain_s": _median(drains),
        "raw_drains_s": raw,
        "splits": splits,
        "n_points": n_points,
        "split_max_share": _median(shares) if shares else 1.0,
        "duplicates": max(0, computed - n_points * repeats),
        "attempted": n_points * repeats,
        "failed": crashed * n_points,
        "members": members,
        "checks": {
            "fleet.members_exited_cleanly": crashed == 0,
            "fleet.stored_exactly_once": once and not crashed,
            "fleet.counts_sum_to_plan": counts_sum and not crashed,
            "fleet.payloads_equal_serial": payloads_equal and not crashed,
        },
    }


# -- provenance ---------------------------------------------------------------


def _git(*args) -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, traced: bool, numpy_version: str | None) -> dict:
    sha = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    dirty = bool(_git("status", "--porcelain")) if sha else None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_sha256": source_digest(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "traced": traced,
    }


# -- the run ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    spec = WORKLOADS[workload]
    programs = Programs(work, traced)
    try:
        setup = programs.run(
            "setup", "setup",
            {"work": str(work), "repeats": SETUP_REPEATS,
             "scenarios": sorted({spec["economy"], SERVE_SCENARIO, FLEET_SCENARIO})},
        )
        store = setup["store"]
        # A traced run reports per-layer totals, not medians: one paper
        # and two drains keep it well inside the time limit.
        paper_repeats = 1 if traced else spec["paper_repeats"]
        paper = paper_phase(programs, store, spec, seed, paper_repeats)
        serve = serve_phase(programs, store, seed, seconds, traced)
        fleet = fleet_phase(programs, store, seed, 2 if traced else DRAIN_REPEATS)
        overhead = None
        if traced:
            # The paper again, untraced: traced over untraced time at
            # nominal host speed.
            programs.env["PERFBENCH_TRACE"] = "0"
            plain = paper_phase(programs, store, spec, seed, 1, "plain-paper")
            overhead = (paper["paper_s"] + paper["paper_family_s"]) / (
                plain["paper_s"] + plain["paper_family_s"]
            ) - 1.0
    finally:
        programs.stop_all()

    checks = {**paper["checks"], **serve["checks"], **fleet["checks"]}
    attempted = paper["attempted"] + serve["sent"] + fleet["attempted"]
    failed = serve["failed"] + fleet["failed"] + sum(not ok for ok in checks.values())
    end_to_end = {
        "setup_s": _median(setup["times"]) + serve["setup_s"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in programs.results),
        "ok_frac": 1.0 - failed / attempted,
        "paper_s": paper["paper_s"],
        "paper_family_s": paper["paper_family_s"],
        "replay_cpu_ms": serve["replay_cpu_ms"],
        "fresh_cpu_ms": serve["fresh_cpu_ms"],
        "drain_s": fleet["drain_s"],
    }
    report = {
        "workload": workload,
        "provenance": provenance(seed, traced, setup.get("numpy")),
        "checks": checks,
        "end_to_end": end_to_end,
        "samples": {
            "setup_repeats": len(setup["times"]),
            "paper_repeats": paper_repeats,
            "probe_replays": PROBE_REPLAYS,
            "probe_fresh": PROBE_FRESH,
            "drain_repeats": len(fleet["raw_drains_s"]),
        },
        "detail": {
            "setup_snapshot_s": setup["times"],
            "serve_ready_s": serve["ready_s"],
            "serve_prepay_s": serve["prepay_s"],
            "serve_loops": serve["loops"],
            "figure_s": paper["figure_s"],
            "paper_digest": paper["digest"],
            "raw_paper_s": paper["raw_paper_s"],
            "raw_paper_family_s": paper["raw_paper_family_s"],
            "raw_serve": serve["raw"],
            "raw_drains_s": fleet["raw_drains_s"],
            "fleet_splits": fleet["splits"],
        },
    }
    if traced:
        report["per_layer"] = per_layer(setup, paper, serve, fleet, programs, overhead)
    report.update(correct=failed == 0, attempted=attempted, failed=failed)
    return report


def per_layer(setup, paper, serve, fleet, programs, overhead) -> dict:
    traces = [r["trace"] for r in programs.results if r.get("trace")]
    members = [m["trace"] for m in fleet["members"] if m.get("trace")]
    raw = layer_metrics(traces, members)
    loops = serve["loops"]
    get = lambda name: raw.get(name, 0.0)
    ratio = lambda part, whole: get(part) / get(whole) if get(whole) else 0.0
    layers = {
        "scenarios.build_s": get("scenarios.build_s"),
        "scenarios.open_s": get("scenarios.open_self_s"),
        "scenarios.opens": get("scenarios.open.calls"),
        "scenarios.snapshot_bytes": setup["snapshot_bytes"],
        "api.statistics_s": get("api.statistics_s"),
        "api.statistics_calls": get("api.statistics.calls"),
        "api.execute_s": get("api.execute_s"),
        "api.executes": get("api.execute.calls"),
        "api.ledger_s": get("api.ledger_s"),
        "api.ledger_records": get("api.ledger.records"),
        "engine.point_s": get("engine.point_s"),
        "engine.points": get("engine.point.calls"),
        "engine.family_s": get("engine.family_s"),
        "engine.families": get("engine.family.calls"),
        "engine.family_members": get("engine.family.members"),
        "engine.store_get_s": get("engine.store_get_s"),
        "engine.store_gets": get("engine.store_get.calls"),
        "engine.store_hit_ratio": ratio("engine.store_get.hits", "engine.store_get.calls"),
        "engine.store_put_s": get("engine.store_put_s"),
        "engine.store_puts": get("engine.store_put.calls"),
        "engine.outside_s": get("engine.outside_s"),
        "core.draw_s": get("core.draw_s"),
        "core.draws": get("core.draw.calls"),
        "core.draw_mb": get("core.draw.bytes") / 1e6,
        "core.envelope_s": get("core.envelope_s"),
        "core.envelope_calls": get("core.envelope.calls"),
        "metrics.reduce_s": get("metrics.reduce_s"),
        "metrics.reduces": get("metrics.reduce.calls"),
        "runtime.claim_s": get("runtime.claim_s"),
        "runtime.claim_attempts": get("runtime.claim.calls"),
        "runtime.claims_won": get("runtime.claim.won"),
        "runtime.claim_win_ratio": ratio("runtime.claim.won", "runtime.claim.calls"),
        "runtime.release_s": get("runtime.release_s"),
        "runtime.wait_s": get("runtime.wait_s"),
        "runtime.split_max_share": fleet["split_max_share"],
        "runtime.duplicates": fleet["duplicates"],
        "runtime.pool_wait_p99_ms": get("runtime.pool_wait_p99_ms"),
        "runtime.pool_busy_s": get("runtime.pool_task_s"),
        "runtime.pool_tasks": get("runtime.pool_task.calls"),
        "storage.put_if_absent_s": get("storage.put_if_absent_s"),
        "storage.put_if_absent_calls": get("storage.put_if_absent.calls"),
        "storage.put_s": get("storage.put_s"),
        "storage.bytes_written": get("storage.put.bytes"),
        "storage.read_s": get("storage.read_s"),
        "storage.bytes_read": get("storage.read.bytes"),
        "storage.append_s": get("storage.append_s"),
        "storage.appends": get("storage.append.calls"),
        "serve.replay_idle_ms": serve["replay_idle_ms"],
        "serve.fresh_idle_ms": serve["fresh_idle_ms"],
        "serve.replay_p50_ms": loops["replay_p50_ms"],
        "serve.replay_p99_ms": loops["replay_p99_ms"],
        "serve.fresh_p50_ms": loops["fresh_p50_ms"],
        "serve.fresh_p95_ms": loops["fresh_p95_ms"],
        "serve.sat_rps": loops["sat_rps"],
        "serve.server_p50_ms": loops["server_p50_ms"],
        "serve.server_p99_ms": loops["server_p99_ms"],
        "serve.dedupe_get_s": get("serve.dedupe_get_s"),
        "serve.dedupe_hit_ratio": ratio("serve.dedupe_get.hits", "serve.dedupe_get.calls"),
        "serve.dedupe_put_s": get("serve.dedupe_put_s"),
        "serve.charge_s": get("serve.charge_s"),
        "serve.charges": get("serve.charge.calls"),
        "serve.max_rate_rps": loops["max_rate_rps"],
        "loadgen.lag_p99_ms": loops["lag_p99_ms"],
        "loadgen.sent": serve["sent"],
        "loadgen.ok": serve["ok"],
        "loadgen.failed": serve["failed"],
        "trace.overhead_frac": overhead,
    }
    for label, prefix in (("default", "experiments.figure_s."),
                          ("family", "experiments.family_figure_s.")):
        times = paper["figure_s"][label]
        for name, value in times.items():
            if name != "tables":
                layers[prefix + name] = value
        layers[prefix.replace("figure_s.", "tables_s")] = times["tables"]
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = report["per_layer"] if args.trace else report["end_to_end"]
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared_units("per_layer" if args.trace else "end_to_end")
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def declared_units(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric ``BENCHMARK.json`` declares of ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(entry["name"], entry["unit"]) for entry in spec[kind]]


if __name__ == "__main__":
    sys.exit(main())
