"""Cooperative plan drains: claims partition the grid, crashes recover.

The acceptance gates of the claim-based scheduler:

- a claimed drain is **bit-identical** to a claimless run of the same
  plan (claims change placement, never values);
- two concurrent drains of one plan against one shared store compute
  each point **exactly once** (zero duplicate computes, proven by the
  stores' write counters);
- a lease whose owner crashed **expires** and is taken over, so a dead
  drain never wedges the fleet;
- a SIGKILL'd process-pool worker mid-plan does not abort the run: the
  crashed task is retried exactly once and the outcome stays
  bit-identical.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.executors import ProcessExecutor, SerialExecutor
from repro.engine.plan import figure_plan, fused_families
from repro.engine.points import points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import run_plan
from repro.runtime import KILL_TASK_ENV

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def assert_series_identical(xs, ys):
    assert len(xs) == len(ys)
    for a, b in zip(xs, ys):
        assert points_identical(a, b), f"{a} != {b}"


def lease_files(store: ResultStore) -> list[str]:
    return [
        key for key in store.backend.list_keys() if key.endswith(".lease")
    ]


@pytest.fixture(scope="module")
def figure1_plan(engine_config):
    return figure_plan("figure-1", engine_config)


@pytest.fixture(scope="module")
def serial_outcome(figure1_plan, session):
    return run_plan(
        figure1_plan, session, executor=SerialExecutor(), merge_spend=False
    )


class TestClaimValidation:
    def test_claim_requires_a_store(self, figure1_plan, session):
        with pytest.raises(ValueError, match="requires a result store"):
            run_plan(figure1_plan, session, claim=True)

    @pytest.mark.parametrize(
        "timing", [{"claim_ttl_s": 0}, {"claim_ttl_s": -5}, {"claim_poll_s": 0}]
    )
    def test_claim_rejects_non_positive_timings(
        self, figure1_plan, session, tmp_path, timing
    ):
        """A lease born expired would let a second drain take over a
        live claim at once; a zero poll would spin."""
        with pytest.raises(ValueError, match="must be > 0"):
            run_plan(
                figure1_plan,
                session,
                store=ResultStore(tmp_path),
                claim=True,
                **timing,
            )


class TestClaimedDrainEquivalence:
    def test_bit_identical_to_claimless(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        outcome = run_plan(
            figure1_plan,
            session,
            store=store,
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        assert outcome.computed == len(figure1_plan)
        assert outcome.cache_hits == 0
        assert_series_identical(serial_outcome.points, outcome.points)
        assert outcome.spends == serial_outcome.spends
        # Every lease released: claims coordinate, they never linger.
        assert lease_files(store) == []
        assert len(store) == len(figure1_plan)

    def test_claim_implies_resume(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        run_plan(
            figure1_plan,
            session,
            store=store,
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        again = run_plan(
            figure1_plan,
            session,
            store=ResultStore(tmp_path / "cache"),
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        assert again.computed == 0
        assert again.cache_hits == len(figure1_plan)
        assert_series_identical(serial_outcome.points, again.points)


class TestConcurrentDrains:
    def test_two_drains_compute_each_point_exactly_once(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        """The zero-duplicate gate: N drains partition the grid."""
        root = tmp_path / "shared"
        stores = [ResultStore(root), ResultStore(root)]
        outcomes: dict[int, object] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def drain(slot: int) -> None:
            barrier.wait()
            try:
                outcomes[slot] = run_plan(
                    figure1_plan,
                    session,
                    store=stores[slot],
                    claim=True,
                    claim_poll_s=0.02,
                    merge_spend=False,
                )
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=drain, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        n_points = len(figure1_plan)
        a, b = outcomes[0], outcomes[1]
        # Exact partition: every point computed somewhere, none twice.
        assert a.computed + b.computed == n_points
        assert stores[0].writes + stores[1].writes == n_points
        assert a.cache_hits == n_points - a.computed
        assert b.cache_hits == n_points - b.computed
        # Both drains observed the complete, bit-identical series.
        assert_series_identical(serial_outcome.points, a.points)
        assert_series_identical(serial_outcome.points, b.points)
        assert lease_files(stores[0]) == []

    def test_expired_lease_is_taken_over(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        """A crashed drain's claims expire; a live drain finishes the plan."""
        store = ResultStore(tmp_path / "cache")
        crashed = store.claim_board(owner="crashed-drain", ttl_s=0.05)
        for spec in figure1_plan.points:
            assert crashed.try_claim(spec.key(figure1_plan.fingerprint))
        # The owner "crashes": never releases, never publishes.
        time.sleep(0.1)
        outcome = run_plan(
            figure1_plan,
            session,
            store=store,
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
        )
        assert outcome.computed == len(figure1_plan)
        assert_series_identical(serial_outcome.points, outcome.points)
        assert lease_files(store) == []

    def test_foreign_claim_is_deferred_then_adopted(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        """A point someone else holds is polled for, not recomputed."""
        reference = ResultStore(tmp_path / "reference")
        run_plan(
            figure1_plan,
            session,
            store=reference,
            merge_spend=False,
        )
        shared = ResultStore(tmp_path / "shared")
        key = figure1_plan.points[0].key(figure1_plan.fingerprint)
        holder = shared.claim_board(owner="other-drain", ttl_s=60.0)
        assert holder.try_claim(key)

        def publish() -> None:
            # The foreign drain finishes its point and publishes it.
            time.sleep(0.3)
            ResultStore(tmp_path / "shared").put(key, reference.get(key))

        feeder = threading.Thread(target=publish)
        feeder.start()
        try:
            outcome = run_plan(
                figure1_plan,
                session,
                store=shared,
                claim=True,
                claim_poll_s=0.02,
                merge_spend=False,
            )
        finally:
            feeder.join()
        # This drain computed everything *except* the held point, which
        # it adopted as a cache hit once the holder published.
        assert outcome.computed == len(figure1_plan) - 1
        assert outcome.cache_hits == 1
        assert_series_identical(serial_outcome.points, outcome.points)


class TestFamilyClaims:
    """Claims over family units: one lease per mechanism family."""

    @pytest.fixture(scope="class")
    def family_outcome(self, figure1_plan, session):
        return run_plan(
            figure1_plan, session, merge_spend=False, fused="family"
        )

    def test_claimed_family_drain_bit_identical_to_claimless(
        self, figure1_plan, session, family_outcome, tmp_path
    ):
        store = ResultStore(tmp_path / "cache")
        outcome = run_plan(
            figure1_plan,
            session,
            store=store,
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
            fused="family",
        )
        assert outcome.computed == len(figure1_plan)
        assert_series_identical(family_outcome.points, outcome.points)
        assert outcome.spends == family_outcome.spends
        assert lease_files(store) == []
        assert len(store) == len(figure1_plan)

    def test_two_family_drains_store_each_member_once(
        self, figure1_plan, session, family_outcome, tmp_path
    ):
        root = tmp_path / "shared"
        stores = [ResultStore(root), ResultStore(root)]
        outcomes: dict[int, object] = {}
        errors: list[BaseException] = []
        barrier = threading.Barrier(2)

        def drain(slot: int) -> None:
            barrier.wait()
            try:
                outcomes[slot] = run_plan(
                    figure1_plan,
                    session,
                    store=stores[slot],
                    claim=True,
                    claim_poll_s=0.02,
                    merge_spend=False,
                    fused="family",
                )
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=drain, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        n_points = len(figure1_plan)
        assert outcomes[0].computed + outcomes[1].computed == n_points
        assert stores[0].writes + stores[1].writes == n_points
        for outcome in outcomes.values():
            assert_series_identical(family_outcome.points, outcome.points)
        assert lease_files(stores[0]) == []

    def test_expired_family_lease_recomputes_only_missing_members(
        self, figure1_plan, session, family_outcome, tmp_path
    ):
        """A crashed drain stored some members of each family, then died
        holding the family leases: a live drain takes the expired leases
        over and recomputes exactly the members that never landed."""
        store = ResultStore(tmp_path / "cache")
        run_plan(
            figure1_plan, session, store=store, merge_spend=False,
            fused="family",
        )
        fingerprint = figure1_plan.fingerprint
        families, _ = fused_families(figure1_plan)
        crashed = store.claim_board(owner="crashed-drain", ttl_s=0.05)
        dropped = 0
        for family in families:
            assert crashed.try_claim(family.key(fingerprint))
            for index in family.indices[1::2]:
                spec = figure1_plan.points[index]
                store.path_for(family.member_key(spec, fingerprint)).unlink()
                dropped += 1
        time.sleep(0.1)
        outcome = run_plan(
            figure1_plan,
            session,
            store=ResultStore(tmp_path / "cache"),
            claim=True,
            claim_poll_s=0.02,
            merge_spend=False,
            fused="family",
        )
        assert outcome.computed == dropped
        assert outcome.cache_hits == len(figure1_plan) - dropped
        assert_series_identical(family_outcome.points, outcome.points)
        assert lease_files(store) == []


class TestCrashRecoveryMidPlan:
    def test_killed_worker_retries_once_and_stays_bit_identical(
        self, figure1_plan, session, serial_outcome, tmp_path, monkeypatch
    ):
        """SIGKILL one process-pool worker mid-plan: the run still lands."""
        marker = tmp_path / "kill.marker"
        monkeypatch.setenv(KILL_TASK_ENV, f"{marker}@3")
        executor = ProcessExecutor(workers=2)
        outcome = run_plan(
            figure1_plan, session, executor=executor, merge_spend=False
        )
        assert marker.exists(), "the injected crash must actually have fired"
        assert_series_identical(serial_outcome.points, outcome.points)
        assert outcome.spends == serial_outcome.spends
        stats = executor.driver.stats
        # The victim was submitted exactly twice: the crash and one retry.
        assert stats.attempts[3] == 2
        assert 3 in stats.retried_tasks
        assert stats.shard_retries == 1
