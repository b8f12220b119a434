"""Placement drivers: serial is the reference, the rest must match.

Covers ordered equivalence of the thread and process drivers' ``map``
against the serial reference, how the process driver ships its context
(pickled once in the parent, unpickled once per shard), and its bounded
crash recovery (a SIGKILL'd worker's shard is resubmitted and the
retried tasks are bit-identical).
"""

from __future__ import annotations

import os

import pytest

from repro.runtime import (
    KILL_TASK_ENV,
    Driver,
    ProcessDriver,
    SerialDriver,
    ThreadDriver,
    drivers,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

ITEMS = (1, 2, 3, 4, 5)


def _scale(context, item):
    """Module-level task so process pools can pickle it by reference."""
    return context * item


def _pid_tag(context, item):
    return (os.getpid(), context + item)


_REDUCE_CALLS = 0


def _make_offset(base, extra):
    return _Offset(base + extra)


class _Offset(int):
    """A context that pickles as a factory recipe and counts its pickles."""

    def __reduce__(self):
        global _REDUCE_CALLS
        _REDUCE_CALLS += 1
        return (_make_offset, (int(self), 0))


class TestSerialDriver:
    def test_reference_semantics(self):
        assert SerialDriver().map(_scale, 10, ITEMS) == [10, 20, 30, 40, 50]

    def test_empty_items(self):
        assert SerialDriver().map(_scale, 10, ()) == []

    def test_satisfies_the_protocol(self):
        for driver in (SerialDriver(), ThreadDriver(), ProcessDriver()):
            assert isinstance(driver, Driver)


class TestThreadDriver:
    def test_matches_serial_in_order(self):
        items = range(23)
        expected = SerialDriver().map(_scale, 10, items)
        assert ThreadDriver(workers=4).map(_scale, 10, items) == expected

    def test_single_item_runs_inline(self):
        assert ThreadDriver(workers=4).map(_scale, 10, (3,)) == [30]

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ThreadDriver(workers=0)


class TestProcessDriver:
    def test_matches_serial_in_order(self):
        items = range(11)
        expected = SerialDriver().map(_scale, 10, items)
        driver = ProcessDriver(workers=3)
        assert driver.map(_scale, 10, items) == expected
        assert driver.stats.attempts == {i: 1 for i in range(11)}
        assert driver.stats.retried_tasks == ()
        assert driver.stats.shard_retries == 0

    def test_factory_context_rebuilt_in_workers(self):
        """A context that pickles as a recipe is rebuilt from it per shard."""
        results = ProcessDriver(workers=2).map(
            _pid_tag, _Offset(100), range(8)
        )
        assert [value for _, value in results] == [100 + i for i in range(8)]
        assert all(pid != os.getpid() for pid, _ in results)

    def test_context_is_pickled_once_for_all_shards(self, monkeypatch):
        monkeypatch.setitem(globals(), "_REDUCE_CALLS", 0)
        results = ProcessDriver(workers=3).map(_pid_tag, _Offset(5), range(9))
        assert [value for _, value in results] == [5 + i for i in range(9)]
        assert len({pid for pid, _ in results}) == 3  # one pool per shard
        assert _REDUCE_CALLS == 1

    def test_inline_paths_never_pickle_the_context(self, monkeypatch):
        monkeypatch.setitem(globals(), "_REDUCE_CALLS", 0)
        context = _Offset(1)
        assert ProcessDriver(workers=4).map(_pid_tag, context, (1,)) == [
            (os.getpid(), 2)
        ]
        assert ProcessDriver(workers=1).map(_scale, context, ITEMS) == list(
            ITEMS
        )
        assert _REDUCE_CALLS == 0

    def test_single_item_runs_inline_in_parent(self):
        [(pid, value)] = ProcessDriver(workers=4).map(_pid_tag, 0, (1,))
        assert pid == os.getpid() and value == 1

    def test_empty_items(self):
        driver = ProcessDriver(workers=4)
        assert driver.map(_scale, 10, ()) == []
        assert driver.stats.attempts == {}

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessDriver(workers=0)

    def test_task_exception_propagates_without_retry(self):
        def will_not_pickle(context, item):  # local: unpicklable by ref
            return item

        with pytest.raises(Exception):
            ProcessDriver(workers=2).map(will_not_pickle, None, (1, 2))


class TestCrashRecovery:
    """REPRO_RUNTIME_KILL_TASK: one worker dies once, the run still lands."""

    def test_killed_worker_shard_is_retried_once(self, tmp_path, monkeypatch):
        items = tuple(range(10))
        expected = SerialDriver().map(_scale, 10, items)
        marker = tmp_path / "kill.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@3")
        driver = ProcessDriver(workers=2)
        results = driver.map(_scale, 10, items)
        assert results == expected
        assert marker.exists(), "the injected crash must actually have fired"
        # The victim task was submitted exactly twice (crash + retry) and
        # exactly one shard was resubmitted.
        assert driver.stats.attempts[3] == 2
        assert 3 in driver.stats.retried_tasks
        assert driver.stats.shard_retries == 1
        untouched = set(items) - set(driver.stats.retried_tasks)
        assert all(driver.stats.attempts[i] == 1 for i in untouched)

    def test_repeat_crasher_exhausts_the_budget_and_raises(
        self, tmp_path, monkeypatch
    ):
        # No "@index": the first task to run kills its worker, and with
        # no retry budget that crash alone must fail the map.
        marker = tmp_path / "always.marker"
        monkeypatch.setenv(KILL_TASK_ENV, str(marker))
        monkeypatch.setattr(drivers, "MAX_SHARD_RETRIES", 0)
        driver = ProcessDriver(workers=2)
        with pytest.raises(RuntimeError, match="crashed repeatedly"):
            driver.map(_scale, 10, range(6))

    def test_env_ignored_on_inline_paths(self, tmp_path, monkeypatch):
        """Serial/thread/inline-process runs never consult the kill switch."""
        marker = tmp_path / "never.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@0")
        expected = [10, 20, 30, 40, 50]
        assert SerialDriver().map(_scale, 10, ITEMS) == expected
        assert ThreadDriver(workers=2).map(_scale, 10, ITEMS) == expected
        assert ProcessDriver(workers=1).map(_scale, 10, ITEMS) == expected
        assert not marker.exists()
