"""Task placement drivers: serial, thread pool, and crash-tolerant processes.

A driver maps a module-level task function ``fn(context, item)`` over an
item list and returns the results **in item order**, whatever order the
work ran in.  Because every item is self-seeded (its randomness derives
from its content, never from its position in a schedule), *which*
driver ran a task — and whether it ran once or was retried after a
worker crash — cannot change the result.

- :class:`SerialDriver` — the reference implementation: one loop in the
  calling thread.  Every other driver must be bit-identical to it.
- :class:`ThreadDriver` — a thread pool sharing the in-process context
  (the repo's contexts are lock-guarded; the NumPy kernels release the
  GIL for large draws).
- :class:`ProcessDriver` — true parallelism: items are sharded
  round-robin across worker processes.  The context is pickled **once**
  in the parent and unpickled once per shard, so whatever a context
  pickles as — a plain value, or a rebuild recipe such as a
  :class:`~repro.api.session.ReleaseSession`'s ``(config, worker_attrs,
  snapshot store spec)`` — is what each worker gets.  A worker that
  *crashes* (OOM-killed, segfaulted, ``kill -9``) does not abort the
  run: the shards whose results never came back are resubmitted to a
  fresh pool — bounded by :data:`MAX_SHARD_RETRIES` — and because tasks
  are self-seeded the retried results are bit-identical to what the
  dead worker would have produced.  Ordinary task *exceptions* are not
  retried; they propagate (a deterministic error would just fail again).

:func:`resolve_driver` turns the user-facing ``executor=``/``workers=``
knobs (and the CLI's ``--executor``/``--workers``) into a driver.
"""

from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol, runtime_checkable

from repro.runtime.policy import default_workers

__all__ = [
    "Driver",
    "DriverStats",
    "SerialDriver",
    "ThreadDriver",
    "ProcessDriver",
    "DRIVER_NAMES",
    "resolve_driver",
    "KILL_TASK_ENV",
    "MAX_SHARD_RETRIES",
]

# Deterministic fault injection for crash-recovery tests: when set to
# "<marker-path>" (or "<marker-path>@<task-index>"), a process-pool
# worker about to run the matching task atomically creates the marker
# file and SIGKILLs itself — exactly once across the whole pool, because
# O_EXCL arbitrates which worker wins.  Never consulted on the inline
# (serial/thread) paths, so it cannot kill the parent process.
KILL_TASK_ENV = "REPRO_RUNTIME_KILL_TASK"

# Rounds of shard resubmission a process map may spend on crashed
# workers before giving up: a task that kills its worker every time is
# a bug, not bad luck.
MAX_SHARD_RETRIES = 1


@dataclass
class DriverStats:
    """What the last :meth:`ProcessDriver.map` had to do to finish.

    ``attempts`` counts submissions per item index (1 everywhere on a
    clean run); ``retried_tasks`` lists the indices that were
    resubmitted after a worker crash; ``shard_retries`` counts the
    resubmitted shards.  Crash-recovery tests read these to assert a
    crashed task was retried *exactly once*.
    """

    attempts: dict[int, int] = field(default_factory=dict)
    retried_tasks: tuple[int, ...] = ()
    shard_retries: int = 0


@runtime_checkable
class Driver(Protocol):
    """The placement protocol: an ordered map of a task over items."""

    name: str
    workers: int

    def map(self, fn: Callable, context, items: Sequence) -> list:
        """Apply ``fn(context, item)`` to every item; results in order."""
        ...


def _check_workers(workers: int) -> int:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


class SerialDriver:
    """Run every task in the calling thread against the given context."""

    name = "serial"
    workers = 1

    def map(self, fn: Callable, context, items: Sequence) -> list:
        return [fn(context, item) for item in items]

    def __repr__(self) -> str:
        return "SerialDriver()"


class ThreadDriver:
    """A thread pool over one shared in-process context."""

    name = "thread"

    def __init__(self, workers: int = 2):
        self.workers = _check_workers(workers)

    def map(self, fn: Callable, context, items: Sequence) -> list:
        items = list(items)
        if len(items) <= 1 or self.workers == 1:
            return SerialDriver().map(fn, context, items)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            return list(pool.map(partial(fn, context), items))

    def __repr__(self) -> str:
        return f"ThreadDriver(workers={self.workers})"


def _maybe_injected_crash(index: int) -> None:
    """Die here if the fault-injection env var targets this task.

    The marker file is created with ``O_EXCL`` so exactly one worker
    across the pool (and across retries — the marker persists) takes
    the hit; everyone else, including the retry of the killed shard,
    sees the marker and runs normally.
    """
    target = os.environ.get(KILL_TASK_ENV)
    if not target:
        return
    marker, _, wanted = target.partition("@")
    if wanted and int(wanted) != index:
        return
    try:
        descriptor = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(descriptor)
    os.kill(os.getpid(), signal.SIGKILL)


def _run_task_shard(context_bytes: bytes, fn, indexed_items):
    """Worker entry point: evaluate one shard against the shipped context.

    The context arrives as the bytes the parent pickled once; unpickling
    runs whatever the context pickled as (a session's rebuild recipe
    fetches this process's cached session), and the shard streams
    through ``fn(context, item)``.
    """
    context = pickle.loads(context_bytes)
    results = []
    for index, item in indexed_items:
        _maybe_injected_crash(index)
        results.append((index, fn(context, item)))
    return results


class ProcessDriver:
    """Round-robin sharded process pool with bounded crash recovery.

    Items are sharded round-robin so every worker gets an even slice in
    one submission, amortizing whatever unpickling the context costs
    across its whole shard.  With one item or one worker the map runs
    inline in the calling process against the context itself (nothing
    is pickled), so callers get a single code path.

    **Crash recovery**: a dead worker poisons its
    :class:`~concurrent.futures.ProcessPoolExecutor`
    (:class:`BrokenProcessPool`), so every shard runs in its own
    single-worker pool — a crash costs only the shard it hit — and
    shards whose futures never delivered are resubmitted to a *fresh*
    pool.  Each round of resubmission consumes one of
    :data:`MAX_SHARD_RETRIES`; a shard that dies again past the budget
    raises.  Retried tasks are bit-identical to their first attempt
    (self-seeded items), so recovery is invisible in the results;
    ``self.stats`` records what happened.
    """

    name = "process"

    def __init__(self, workers: int = 2):
        self.workers = _check_workers(workers)
        self.stats = DriverStats()

    def map(self, fn: Callable, context, items: Sequence) -> list:
        items = list(items)
        self.stats = DriverStats()
        if len(items) <= 1 or self.workers == 1:
            self.stats.attempts = {i: 1 for i in range(len(items))}
            return SerialDriver().map(fn, context, items)
        # Pickled here, before any worker starts: a context that cannot
        # travel fails fast, and every shard unpickles the same bytes.
        context_bytes = pickle.dumps(context)
        n_workers = min(self.workers, len(items))
        indexed = list(enumerate(items))
        pending = [indexed[offset::n_workers] for offset in range(n_workers)]
        results: list = [None] * len(items)
        retries_left = MAX_SHARD_RETRIES
        while pending:
            for shard in pending:
                for index, _ in shard:
                    self.stats.attempts[index] = (
                        self.stats.attempts.get(index, 0) + 1
                    )
            crashed = []
            with ExitStack() as pools:
                # One single-worker pool per shard: a dying worker breaks
                # only its own pool, so the other shards still deliver.
                submitted = [
                    (
                        shard,
                        pools.enter_context(
                            ProcessPoolExecutor(max_workers=1)
                        ).submit(_run_task_shard, context_bytes, fn, shard),
                    )
                    for shard in pending
                ]
                for shard, future in submitted:
                    try:
                        for index, result in future.result():
                            results[index] = result
                    except BrokenProcessPool:
                        crashed.append(shard)
            if crashed:
                if retries_left <= 0:
                    dead = sorted(i for shard in crashed for i, _ in shard)
                    raise RuntimeError(
                        f"worker process(es) crashed repeatedly; task(s) "
                        f"{dead} failed after "
                        f"{MAX_SHARD_RETRIES + 1} attempt(s)"
                    )
                retries_left -= 1
                self.stats.shard_retries += len(crashed)
                self.stats.retried_tasks = tuple(
                    sorted(
                        set(self.stats.retried_tasks)
                        | {i for shard in crashed for i, _ in shard}
                    )
                )
            pending = crashed
        return results

    def __repr__(self) -> str:
        return f"ProcessDriver(workers={self.workers})"


DRIVER_NAMES = ("serial", "thread", "process")

_POOL_DRIVERS = {"thread": ThreadDriver, "process": ProcessDriver}


def resolve_driver(executor=None, workers: int | None = None):
    """Normalize the (executor, workers) knobs into a driver — or None.

    ``None`` means "no parallelism requested": callers with a historical
    serial path (e.g. :meth:`~repro.api.ReleaseSession.run_grid`) keep
    it, and the sweep engine substitutes :class:`SerialDriver`.
    Accepts a driver instance (returned as-is), one of
    :data:`DRIVER_NAMES` (a pool name without a worker count gets
    :func:`~repro.runtime.default_workers`), or just a worker count
    (> 1 selects processes — the only driver with true CPU
    parallelism).
    """
    if executor is None:
        if workers is None or workers <= 1:
            return None
        return ProcessDriver(workers=workers)
    if isinstance(executor, str):
        if executor == "serial":
            return SerialDriver()
        factory = _POOL_DRIVERS.get(executor)
        if factory is None:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {DRIVER_NAMES}"
            )
        return factory(workers if workers and workers > 0 else default_workers())
    if not hasattr(executor, "map"):
        raise TypeError(
            f"executor must be a driver, name or None, got {executor!r}"
        )
    return executor
