"""Cooperative plan drains: claims partition the grid, crashes recover.

The acceptance gates of the claim-based scheduler:

- a claimed drain is **bit-identical** to a claimless run of the same
  plan (claims change placement, never values);
- two concurrent drains of one plan against one shared store compute
  each point **exactly once** (zero duplicate computes, proven by the
  stores' write counters);
- a lease whose owner crashed **expires** and is taken over, so a dead
  drain never wedges the fleet, while a live owner's heartbeat keeps a
  slow block from being taken over;
- claim blocks are cut from the whole plan, so drains that resumed
  different subsets still lease the same keys;
- a SIGKILL'd process-pool worker mid-plan does not abort the run: the
  crashed task is retried exactly once and the outcome stays
  bit-identical.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import sweep
from repro.engine.plan import figure_plan, fused_families, grid_plan
from repro.engine.points import points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import (
    BLOCK_DIVISOR,
    guided_blocks,
    lease_blocks,
    run_plan,
)
from repro.runtime import KILL_TASK_ENV, ProcessDriver, SerialDriver

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
        figure1_plan, session, executor=SerialDriver(), merge_spend=False
    )


def drain_concurrently(plan, session, stores, **kwargs):
    """Run one claimed drain per store in its own thread, all at once."""
    outcomes: dict[int, object] = {}
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(stores))

    def drain(slot: int) -> None:
        barrier.wait()
        try:
            outcomes[slot] = run_plan(
                plan,
                session,
                store=stores[slot],
                claim=True,
                claim_poll_s=0.02,
                merge_spend=False,
                **kwargs,
            )
        except BaseException as error:  # surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=drain, args=(slot,))
        for slot in range(len(stores))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    return [outcomes[slot] for slot in range(len(stores))]


class TestClaimBlocks:
    @given(st.integers(min_value=0, max_value=5_000))
    def test_guided_blocks_partition_any_plan(self, n_units):
        blocks = guided_blocks(n_units)
        assert blocks == guided_blocks(n_units)
        assert [i for block in blocks for i in block] == list(range(n_units))
        sizes = [len(block) for block in blocks]
        assert all(size >= 1 for size in sizes)
        assert sizes == sorted(sizes, reverse=True)
        for block, after in zip(blocks, blocks[1:]):
            assert block.stop == after.start
        # Guided: each block is an eighth of what is left, so the tail
        # runs down to single units that balance the fleet.
        for block in blocks:
            remaining = n_units - block.start
            assert len(block) == -(-remaining // BLOCK_DIVISOR)
        assert n_units == 0 or sizes[-1] == 1

    def test_guided_sizes_of_a_dense_surface(self):
        sizes = [len(block) for block in guided_blocks(600)]
        assert len(sizes) == 37
        assert sizes[:3] == [75, 66, 58]

    @pytest.mark.parametrize("fused", [False, "family"])
    def test_lease_blocks_cover_the_plan_once(self, figure1_plan, fused):
        blocks = lease_blocks(figure1_plan, fused=fused)
        assert blocks == lease_blocks(figure1_plan, fused=fused)
        members = sorted(i for _, indices in blocks for i in indices)
        assert members == list(range(len(figure1_plan)))
        assert len({key for key, _ in blocks}) == len(blocks)


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
        a, b = drain_concurrently(figure1_plan, session, stores)
        n_points = len(figure1_plan)
        # Exact partition: every point computed somewhere, none twice.
        assert a.computed + b.computed == n_points
        assert stores[0].writes + stores[1].writes == n_points
        assert a.cache_hits == n_points - a.computed
        assert b.cache_hits == n_points - b.computed
        # Both drains observed the complete, bit-identical series.
        assert_series_identical(serial_outcome.points, a.points)
        assert_series_identical(serial_outcome.points, b.points)
        assert lease_files(stores[0]) == []

    def test_drains_resuming_different_subsets_store_each_point_once(
        self, session, tmp_path, monkeypatch
    ):
        """Drain A resumes a third of the plan, drain B two thirds; both
        cut the same blocks, so the rest is still computed exactly once."""
        plan = grid_plan(
            "workload-1",
            "l1-ratio",
            ("log-laplace", "smooth-laplace", "smooth-gamma"),
            (0.05, 0.1, 0.2, 0.4),
            (0.5, 1.0, 2.0, 4.0, 8.0),
            fingerprint=figure_plan("figure-1", session.config).fingerprint,
            delta=0.05,
            n_trials=2,
            seed=11,
            tag="subsets",
        )
        reference = ResultStore(tmp_path / "reference")
        serial = run_plan(plan, session, store=reference, merge_spend=False)
        root = tmp_path / "shared"
        stores = [ResultStore(root), ResultStore(root)]
        feed = ResultStore(root)

        def seed_points(indices) -> None:
            for index in indices:
                key = plan.points[index].key(plan.fingerprint)
                feed.put(key, reference.get(key))

        # A resumes the first subset; its first claim waits until the
        # second subset landed and B is on its way.
        seed_points(range(0, len(plan), 3))
        scanned, go = threading.Event(), threading.Event()
        claim_board = stores[0].claim_board

        def gated_board(**kwargs):
            board = claim_board(**kwargs)
            try_claim = board.try_claim

            def gated(key):
                scanned.set()
                go.wait(10)
                return try_claim(key)

            board.try_claim = gated
            return board

        monkeypatch.setattr(stores[0], "claim_board", gated_board)
        outcomes: dict[int, object] = {}

        def drain(slot: int) -> None:
            outcomes[slot] = run_plan(
                plan,
                session,
                store=stores[slot],
                claim=True,
                claim_poll_s=0.02,
                merge_spend=False,
            )

        first = threading.Thread(target=drain, args=(0,))
        first.start()
        assert scanned.wait(10)
        seed_points(range(1, len(plan), 3))
        second = threading.Thread(target=drain, args=(1,))
        second.start()
        go.set()
        first.join()
        second.join()

        left = len(range(2, len(plan), 3))
        a, b = outcomes[0], outcomes[1]
        assert a.computed + b.computed == left
        assert stores[0].writes + stores[1].writes == left
        assert_series_identical(serial.points, a.points)
        assert_series_identical(serial.points, b.points)
        assert len(stores[0]) == len(plan)
        assert lease_files(stores[0]) == []

    def test_heartbeat_keeps_a_slow_block_from_takeover(
        self, figure1_plan, session, serial_outcome, tmp_path, monkeypatch
    ):
        """One evaluation outlives the 0.2 s lease TTL: the owner's
        heartbeat renews its block, so the other drain waits instead of
        taking it over and no point is computed twice."""
        evaluate = sweep.evaluate_point_spec
        calls: Counter = Counter()
        lock = threading.Lock()

        def slow_first(session, spec):
            with lock:
                first = not calls
                calls[spec.key(figure1_plan.fingerprint)] += 1
            if first:
                time.sleep(0.5)
            return evaluate(session, spec)

        monkeypatch.setattr(sweep, "evaluate_point_spec", slow_first)
        root = tmp_path / "shared"
        stores = [ResultStore(root), ResultStore(root)]
        a, b = drain_concurrently(
            figure1_plan, session, stores, claim_ttl_s=0.2
        )
        assert sorted(calls.values()) == [1] * len(figure1_plan)
        assert a.computed + b.computed == len(figure1_plan)
        assert stores[0].writes + stores[1].writes == len(figure1_plan)
        assert_series_identical(serial_outcome.points, a.points)
        assert_series_identical(serial_outcome.points, b.points)
        assert lease_files(stores[0]) == []

    def test_expired_lease_is_taken_over(
        self, figure1_plan, session, serial_outcome, tmp_path
    ):
        """A crashed drain's claims expire; a live drain finishes the plan."""
        store = ResultStore(tmp_path / "cache")
        crashed = store.claim_board(owner="crashed-drain", ttl_s=0.05)
        for lease, _ in lease_blocks(figure1_plan):
            assert crashed.try_claim(lease)
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
        """A block someone else holds is polled for, not recomputed."""
        reference = ResultStore(tmp_path / "reference")
        run_plan(
            figure1_plan,
            session,
            store=reference,
            merge_spend=False,
        )
        shared = ResultStore(tmp_path / "shared")
        lease, held = lease_blocks(figure1_plan)[0]
        holder = shared.claim_board(owner="other-drain", ttl_s=60.0)
        assert holder.try_claim(lease)

        def publish() -> None:
            # The foreign drain finishes its block and publishes it.
            time.sleep(0.3)
            feed = ResultStore(tmp_path / "shared")
            for index in held:
                key = figure1_plan.points[index].key(figure1_plan.fingerprint)
                feed.put(key, reference.get(key))

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
        # This drain computed everything *except* the held block, which
        # it adopted as cache hits once the holder published.
        assert 1 < len(held) < len(figure1_plan)
        assert outcome.computed == len(figure1_plan) - len(held)
        assert outcome.cache_hits == len(held)
        assert_series_identical(serial_outcome.points, outcome.points)


class TestFamilyClaims:
    """Claims over family units: blocks of whole mechanism families."""

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
        outcomes = drain_concurrently(
            figure1_plan, session, stores, fused="family"
        )
        n_points = len(figure1_plan)
        assert outcomes[0].computed + outcomes[1].computed == n_points
        assert stores[0].writes + stores[1].writes == n_points
        for outcome in outcomes:
            assert_series_identical(family_outcome.points, outcome.points)
        assert lease_files(stores[0]) == []

    def test_expired_family_lease_recomputes_only_missing_members(
        self, figure1_plan, session, family_outcome, tmp_path
    ):
        """A crashed drain stored some members of each family, then died
        holding the block leases: a live drain takes the expired leases
        over and recomputes exactly the members that never landed."""
        store = ResultStore(tmp_path / "cache")
        run_plan(
            figure1_plan, session, store=store, merge_spend=False,
            fused="family",
        )
        fingerprint = figure1_plan.fingerprint
        families, _ = fused_families(figure1_plan)
        crashed = store.claim_board(owner="crashed-drain", ttl_s=0.05)
        for lease, _ in lease_blocks(figure1_plan, fused="family"):
            assert crashed.try_claim(lease)
        dropped = 0
        for family in families:
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
        executor = ProcessDriver(workers=2)
        outcome = run_plan(
            figure1_plan, session, executor=executor, merge_spend=False
        )
        assert marker.exists(), "the injected crash must actually have fired"
        assert_series_identical(serial_outcome.points, outcome.points)
        assert outcome.spends == serial_outcome.spends
        stats = executor.stats
        # The victim was submitted exactly twice: the crash and one retry.
        assert stats.attempts[3] == 2
        assert 3 in stats.retried_tasks
        assert stats.shard_retries == 1
