"""Spans and counters recorded around calls into the program's layers.

The program itself carries no instrumentation.  :func:`install` wraps
public functions and methods of ``repro`` modules from the outside, so
a traced program process records one span per call at each layer
boundary: name, start, end, and the span that caused it.  Spans stay in
memory and are written out once, when the process ends
(:meth:`Tracer.dump`); :func:`layer_metrics` turns the dumps of all of a
run's processes into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

# Span names: "<layer>.<what>".  A layer's busy time sums the outermost
# spans of a name, so a nested or recursive call is never counted twice.
TARGETS = (
    # (module, attribute path, span name, counter hook)
    ("repro.scenarios.store", "SnapshotStore.load_or_generate", "scenarios.open", None),
    ("repro.scenarios.store", "SnapshotStore.save", "scenarios.build", None),
    ("repro.scenarios.store", "SnapshotStore.build", "scenarios.build", None),
    ("repro.scenarios.store", "generate", "scenarios.build", None),
    ("repro.api.session", "ReleaseSession.statistics", "api.statistics", None),
    ("repro.api.session", "ReleaseSession.execute", "api.execute", None),
    ("repro.api.ledger", "PrivacyLedger.record", "api.ledger", "ledger_one"),
    ("repro.api.ledger", "PrivacyLedger.restore", "api.ledger", "ledger_one"),
    ("repro.api.ledger", "PrivacyLedger.merge", "api.ledger", "ledger_many"),
    ("repro.engine.sweep", "run_plan", "engine.run_plan", None),
    ("repro.engine.sweep", "evaluate_point_spec", "engine.point", None),
    ("repro.engine.sweep", "evaluate_fused_family", "engine.family", "family"),
    ("repro.engine.store", "ResultStore.get", "engine.store_get", "hit"),
    ("repro.engine.store", "ResultStore.put", "engine.store_put", None),
    ("repro.core.log_laplace", "LogLaplace.release_counts_batch", "core.draw", "array"),
    ("repro.core.smooth_laplace", "SmoothLaplace.release_counts_batch", "core.draw", "array"),
    ("repro.core.smooth_gamma", "SmoothGamma.release_counts_batch", "core.draw", "array"),
    ("repro.engine.evaluate", "sample_unit_noise", "core.draw", "array"),
    ("repro.core.smooth_sensitivity", "smooth_envelope", "core.envelope", None),
    ("repro.metrics.error", "l1_error_batch", "metrics.reduce", None),
    ("repro.metrics.ranking", "spearman_correlation_batch", "metrics.reduce", None),
    ("repro.metrics.ranking", "spearman_distinct_batch", "metrics.reduce", None),
    ("repro.runtime.claims", "ClaimBoard.try_claim", "runtime.claim", "won"),
    ("repro.runtime.claims", "ClaimBoard.release", "runtime.release", None),
    ("repro.runtime.claims", "ClaimBoard.release_all", "runtime.release", None),
    ("repro.storage.local", "LocalFSBackend.put_if_absent", "storage.put_if_absent", None),
    ("repro.storage.local", "LocalFSBackend.put_file", "storage.put", "bytes_written"),
    ("repro.storage.local", "LocalFSBackend.read_bytes", "storage.read", "bytes_read"),
    ("repro.storage.local", "LocalFSBackend.append_line", "storage.append", None),
    ("repro.serve.dedupe", "ReleaseCache.get", "serve.dedupe_get", "hit"),
    ("repro.serve.dedupe", "ReleaseCache.put", "serve.dedupe_put", None),
    ("repro.serve.tenants", "TenantAccount.charge", "serve.charge", None),
)

# What engine.outside_s and runtime.wait_s subtract: evaluating,
# storing and claiming.
ACCOUNTED = (
    "engine.point",
    "engine.family",
    "engine.store_get",
    "engine.store_put",
    "runtime.claim",
    "runtime.release",
)


class Tracer:
    """In-memory spans, counters and samples of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (id, parent, name, start, end)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.started = clock()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(open_name == name for _, open_name in self._stack())

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, name))
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def dump(self) -> dict:
        return {
            "wall": [self.started, self.clock()],
            "spans": self.spans,
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }


def _array_bytes(result) -> int:
    return int(getattr(result, "nbytes", 0))


def _record(tracer: Tracer, name: str, hook, args, result) -> None:
    """Exact counts at the boundary a span covers."""
    tracer.count(name + ".calls")
    if hook == "hit":
        tracer.count(name + ".hits", result is not None)
    elif hook == "won":
        tracer.count(name + ".won", bool(result))
    elif hook == "array":
        tracer.count(name + ".bytes", _array_bytes(result))
    elif hook == "bytes_written":
        tracer.count(name + ".bytes", len(args[2]))
    elif hook == "bytes_read":
        tracer.count(name + ".bytes", 0 if result is None else len(result))
    elif hook == "ledger_one":
        tracer.count(name + ".records")
    elif hook == "ledger_many":
        tracer.count(name + ".records", len(result))
    elif hook == "family":
        family, evaluate = args[1]
        tracer.count(name + ".members", sum(1 for flag in evaluate if flag))


def _wrap(tracer: Tracer, fn, name: str, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # Only the outermost call of a name records counts: a merge
        # that records each entry, or a recursive call, counts once.
        outer = not tracer.inside(name)
        result = tracer.call(name, fn, *args, **kwargs)
        if outer:
            _record(tracer, name, hook, args, result)
        return result

    traced.__perfbench_original__ = fn
    return traced


def _wrap_pool(tracer: Tracer, run):
    """``SessionPool.run``: time from submit to start, and the task."""

    @functools.wraps(run)
    async def traced(self, fn, /, *args):
        submitted = tracer.clock()

        def task():
            tracer.sample("runtime.pool_wait", tracer.clock() - submitted)
            tracer.count("runtime.pool_task.calls")
            return tracer.call("runtime.pool_task", fn, *args)

        return await run(self, task)

    return traced


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target in :data:`TARGETS` (idempotent per process)."""
    for module_name, path, name, hook in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        if hasattr(original, "__perfbench_original__"):
            continue
        traced = _wrap(tracer, original, name, hook)
        setattr(owner, attr, traced)
        if owner is module:
            _replace_everywhere(original, traced)
    pool = importlib.import_module("repro.serve.pool").SessionPool
    if not hasattr(pool.run, "__perfbench_original__"):
        traced_run = _wrap_pool(tracer, pool.run)
        traced_run.__perfbench_original__ = pool.run
        pool.run = traced_run


# -- analysis -----------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _by_id(spans) -> dict[int, tuple]:
    return {span[0]: span for span in spans}


def _has_ancestor(span, index, names) -> bool:
    parent = index.get(span[1])
    while parent is not None:
        if parent[2] in names:
            return True
        parent = index.get(parent[1])
    return False


def busy(spans, name: str) -> float:
    """Total duration of the outermost spans called ``name``."""
    index = _by_id(spans)
    return sum(
        span[4] - span[3]
        for span in spans
        if span[2] == name and not _has_ancestor(span, index, {name})
    )


def covered(spans, names, within=None) -> float:
    """Time covered by outermost spans in ``names`` (inside ``within``)."""
    index = _by_id(spans)
    names = set(names)
    chosen = [
        (span[3], span[4])
        for span in spans
        if span[2] in names and not _has_ancestor(span, index, names)
        and (within is None or _has_ancestor(span, index, {within}))
    ]
    return _union_length(chosen)


def self_time(spans, name: str, excluding) -> float:
    """Busy time of ``name`` minus the part its ``excluding`` spans cover."""
    return busy(spans, name) - covered(spans, excluding, within=name)


def layer_metrics(dumps: list[dict], members: list[dict] | None = None) -> dict:
    """Per-layer metrics summed over the processes of one run.

    ``members`` are the dumps of fleet drain members: their wall time
    not spent evaluating, storing or claiming is ``runtime.wait_s``.
    """
    metrics: dict[str, float] = defaultdict(float)
    waits: list[float] = []
    span_names = {name for _m, _p, name, _h in TARGETS} | {
        "engine.run_plan",
        "runtime.pool_task",
    }
    for dump in dumps:
        spans = [tuple(span) for span in dump["spans"]]
        for name in span_names:
            metrics[name + "_s"] += busy(spans, name)
        for name, value in dump["counters"].items():
            metrics[name] += value
        metrics["scenarios.open_self_s"] += self_time(
            spans, "scenarios.open", {"scenarios.build"}
        )
        metrics["engine.outside_s"] += self_time(spans, "engine.run_plan", ACCOUNTED)
        waits.extend(dump["samples"].get("runtime.pool_wait", ()))
    for dump in members or ():
        start, end = dump["wall"]
        spans = [tuple(span) for span in dump["spans"]]
        metrics["runtime.wait_s"] += (end - start) - covered(spans, ACCOUNTED)
    metrics["runtime.pool_waits"] = len(waits)
    if waits:
        from perfbench.stats import percentile

        metrics["runtime.pool_wait_p99_ms"] = percentile(waits, 0.99) * 1000.0
    return dict(metrics)
