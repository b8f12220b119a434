"""Sweep orchestration: plans in, points out — parallel and resumable.

:func:`run_plan` is the engine's front door.  It cuts a
:class:`~repro.engine.plan.SweepPlan` into **work units** — one per
point, or, with ``fused="family"``, one per
:class:`~repro.engine.plan.FusedFamily` whose single unit-noise draw
serves a mechanism's whole α×ε grid — and runs one loop over them:

1. consult the :class:`~repro.engine.store.ResultStore` (when resuming)
   member by member and keep every already-computed point — a resumed
   figure recomputes only what is missing;
2. with ``claim=True``, lease **blocks** of consecutive units on the
   store's claim board (guided self-scheduling: long blocks first, single
   units last), adopting the members other drains published;
3. fan the units through a :mod:`repro.runtime` driver's
   ``map(fn, session, units)`` (serial by default; thread or process
   pools for parallel sweeps) via the non-debiting session outcome
   methods, so workers never touch a ledger;
4. record each **computed** point's spend on the parent session's
   ledger and then persist the point to the store, walking plan order
   — accounting is exact and deterministic no matter which driver ran
   the units, and a raise-mode overdraft aborts before the offending
   point is ever cached;
5. release a block's lease only after all its members are stored.

Cache hits debit nothing: re-serving a stored release consumes no new
privacy budget (the noise was drawn, and paid for, when the point was
first computed and stored).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from functools import partial

from repro.api.ledger import LedgerEntry
from repro.core.params import EREEParams
from repro.engine import profile as stage_profile
from repro.engine.plan import (
    TRUNCATED_LAPLACE,
    FusedFamily,
    PointSpec,
    SweepPlan,
    fused_families,
)
from repro.engine.points import FigureSeries, SeriesPoint
from repro.engine.store import ResultStore, content_key
from repro.runtime.drivers import SerialDriver, resolve_driver

__all__ = [
    "SweepOutcome",
    "run_plan",
    "guided_blocks",
    "lease_blocks",
    "evaluate_point_spec",
    "evaluate_fused_family",
    "resolve_workload",
    "resolve_fused",
    "figure_series",
]


def resolve_workload(name: str):
    """Look a workload up by registry name (see ``WORKLOADS``)."""
    # Imported lazily: repro.experiments sits above the engine (its
    # package __init__ pulls in the session layer, which imports us).
    from repro.experiments.workloads import WORKLOADS

    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


def evaluate_point_spec(session, spec: PointSpec):
    """Task function: one spec → ``(SeriesPoint, LedgerEntry | None)``.

    Module-level (hence picklable by reference) so every driver — in
    particular process pools — can run it.  The spend record is built
    but **not** debited; the parent merges it.
    """
    workload = resolve_workload(spec.workload)
    if spec.mechanism == TRUNCATED_LAPLACE:
        return session.evaluate_point_outcome(
            workload,
            spec.mechanism,
            metric=spec.metric,
            n_trials=spec.n_trials,
            seed=spec.seed,
            batch_size=spec.batch_size,
            theta=spec.theta,
            epsilon=spec.epsilon,
        )
    params = EREEParams(spec.alpha, spec.epsilon, spec.delta)
    return session.evaluate_point_outcome(
        workload,
        spec.mechanism,
        params,
        metric=spec.metric,
        n_trials=spec.n_trials,
        seed=spec.seed,
        batch_size=spec.batch_size,
    )


def evaluate_fused_family(session, item):
    """Task function: ``(family, evaluate mask)`` → (points, spends).

    Module-level (picklable by reference); one unit draw serves the
    family's whole α×ε grid.  The mask marks which members to reduce —
    a resumed family recomputes only its missing members, bit-identical
    to the full-family run because the unit draw never depends on the
    mask.  Masked-out slots come back ``None``.
    """
    family, evaluate = item
    workload = resolve_workload(family.workload)
    values, spends = session.evaluate_family_outcome(
        workload,
        family.mechanism,
        members=family.members,
        delta=family.delta,
        metrics=(family.metric,),
        n_trials=family.n_trials,
        seed=family.family_seed,
        batch_size=family.batch_size,
        evaluate=evaluate,
    )
    return values[family.metric], spends


def _profiled_task(fn, session, item):
    """Run one driver task under its own profiler scope.

    Process-pool workers cannot see the parent's module-global profiler,
    so a profiled sweep ships each task wrapped in this: the worker
    captures its own draw/reduce split and returns it (tagged with the
    worker PID) alongside the outcome for the parent to merge.
    """
    with stage_profile.profiled() as prof:
        result = fn(session, item)
    return result, (os.getpid(), prof.as_dict())


def _driver_map(driver, fn, session, items):
    """``driver.map`` that keeps stage attribution across process pools.

    Serial and thread drivers run tasks in this process, where the
    active profiler already sees the kernels, so they map straight
    through (the per-task wrapper would also race on the module global
    under threads).  A process pool under an active profiler gets the
    wrapped task; the returned per-task profiles fold into the parent's
    stage totals and per-worker breakdown.
    """
    if not (
        stage_profile.active()
        and getattr(driver, "name", None) == "process"
        and getattr(driver, "workers", 1) > 1
    ):
        return driver.map(fn, session, items)
    outcomes = driver.map(partial(_profiled_task, fn), session, items)
    results = []
    for result, (pid, worker_profile) in outcomes:
        stage_profile.merge_worker(pid, worker_profile)
        results.append(result)
    return results


# -- store (de)serialization ----------------------------------------------


def encode_point(point: SeriesPoint) -> dict:
    payload = asdict(point)
    payload["by_stratum"] = list(point.by_stratum)
    return payload


def decode_point(payload: dict) -> SeriesPoint:
    return SeriesPoint(
        mechanism=payload["mechanism"],
        alpha=payload["alpha"],
        epsilon=payload["epsilon"],
        overall=payload["overall"],
        by_stratum=tuple(payload["by_stratum"]),
        feasible=payload.get("feasible", True),
        theta=payload.get("theta"),
    )


def encode_spend(spend: LedgerEntry | None) -> dict | None:
    # One canonical spend wire format: the ledger's own JSON hooks
    # (shared with the release service's durable spend journal).
    return None if spend is None else spend.to_dict()


def decode_spend(payload: dict | None) -> LedgerEntry | None:
    return None if payload is None else LedgerEntry.from_dict(payload)


# -- orchestration --------------------------------------------------------


@dataclass
class SweepOutcome:
    """One executed (or resumed) sweep plan.

    ``points`` is in plan order regardless of execution order or cache
    mixture; ``spends`` holds the ledger entries of the points computed
    *this run* (cache hits spend nothing), also in plan order.
    """

    plan: SweepPlan
    points: list[SeriesPoint]
    computed: int = 0
    cache_hits: int = 0
    spends: list[LedgerEntry] = field(default_factory=list)
    # Per-stage wall-clock breakdown (draw/reduce/store/other/total
    # seconds) when the run was profiled; None otherwise.
    profile: dict | None = None

    @property
    def series(self) -> FigureSeries:
        """The outcome as a renderable figure series."""
        return figure_series(self.plan, self.points)


def figure_series(plan: SweepPlan, points) -> FigureSeries:
    return FigureSeries(
        name=plan.name,
        title=plan.title or plan.name,
        metric=plan.metric,
        points=tuple(points),
    )


def resolve_fused(fused) -> bool:
    """Map the ``fused`` knob onto the family path (True) or per point."""
    if fused is None or fused is False:
        return False
    if fused is True or fused == "family":
        return True
    if fused == "group":
        raise ValueError(
            "fused='group' was removed: the per-(mechanism, alpha) epsilon "
            "groups are dominated by fused='family' (one draw per whole "
            "alpha x epsilon grid)"
        )
    raise ValueError(f"fused must be False, True or 'family', got {fused!r}")


def run_plan(
    plan: SweepPlan,
    session,
    *,
    executor=None,
    workers: int | None = None,
    store: ResultStore | None = None,
    resume: bool = False,
    merge_spend: bool = True,
    fused: bool | str = False,
    profile: bool = False,
    claim: bool = False,
    claim_owner: str | None = None,
    claim_ttl_s: float | None = None,
    claim_poll_s: float = 0.2,
) -> SweepOutcome:
    """Execute a sweep plan: resume from the store, fan out the rest.

    ``executor``/``workers`` resolve through
    :func:`~repro.runtime.resolve_driver` to a driver (serial when
    neither is given).  With a ``store``, newly computed points are
    always persisted; they are *read back* only when ``resume=True``, so
    a default run stays a full recomputation while writing the cache a
    later ``--resume`` run will hit.  ``merge_spend=False`` skips the
    ledger merge for callers doing their own accounting.

    ``claim=True`` turns the drain cooperative: before computing a
    missing work unit this run *claims* it on the store's
    :class:`~repro.runtime.ClaimBoard` (an atomic lease file beside the
    payloads), so N concurrent drains of the same plan against one
    shared store partition the grid instead of each computing all of
    it.  Units are leased in blocks (see :func:`lease_blocks`), and a
    heartbeat renews held leases every third of their TTL.  Units
    another drain claimed are deferred: this run re-polls the store
    with a backoff from 10 ms up to at most ``claim_poll_s`` seconds
    between polls and adopts their results as cache hits when they
    land; a claim whose owner crashed expires after ``claim_ttl_s``
    (default :data:`~repro.runtime.DEFAULT_LEASE_TTL_S`) and is taken
    over.
    Claims are an optimization, never a correctness mechanism — if two
    drains ever compute the same point (expiry race, unreachable
    backend failing open) both write bit-identical bytes and last
    writer wins, exactly the claimless behavior.  Requires a ``store``
    and implies ``resume`` (a cooperative drain must honor what the
    shared store already holds); the per-point values are bit-identical
    to a claimless run of the same plan.

    ``fused=True`` (or ``"family"``) evaluates the plan through
    :class:`~repro.engine.plan.FusedFamily` units — one unit-noise draw
    per mechanism's whole α×ε grid instead of one per point, with linear
    mechanisms reducing the entire family analytically.  The family
    path draws different random bits than the default path
    (statistically, not bit, identical) and stores results under
    ``family``-token member keys, so the two paths never serve each
    other's cached points.  The default ``fused=False`` path is
    bit-identical to what it always produced.

    ``profile=True`` wraps the run in the stage profiler
    (:mod:`repro.engine.profile`); the outcome's ``profile`` field then
    carries the draw/reduce/store wall-clock breakdown — including, for
    process-pool runs, the per-worker stage split shipped back with each
    task.
    """
    family = resolve_fused(fused)
    if claim:
        if store is None:
            raise ValueError("claim=True requires a result store")
        resume = True  # a cooperative drain must honor the shared store
    if claim_ttl_s is not None and claim_ttl_s <= 0:
        raise ValueError(f"claim_ttl_s must be > 0, got {claim_ttl_s!r}")
    if claim_poll_s <= 0:
        raise ValueError(f"claim_poll_s must be > 0, got {claim_poll_s!r}")
    board = (
        store.claim_board(owner=claim_owner, ttl_s=claim_ttl_s)
        if claim
        else None
    )
    drain = partial(
        _drain,
        plan,
        session,
        executor=executor,
        workers=workers,
        store=store,
        resume=resume,
        merge_spend=merge_spend,
        family=family,
        board=board,
        poll_s=claim_poll_s,
    )
    if not profile:
        return drain()
    with stage_profile.profiled() as prof:
        outcome = drain()
    outcome.profile = prof.as_dict()
    return outcome


# -- work units -----------------------------------------------------------


@dataclass(eq=False)
class _Unit:
    """One task of the sweep loop: a point, or a family with a member mask.

    ``indices``, ``keys`` and ``contents`` align member by member (a
    point unit has one member); ``missing`` marks the members not yet
    resumed, adopted or computed.
    """

    task: PointSpec | FusedFamily
    indices: tuple[int, ...]
    keys: tuple[str, ...]
    contents: tuple[dict, ...]
    missing: list[bool]

    def item(self):
        """The driver item: the spec itself, or ``(family, mask)``."""
        if isinstance(self.task, PointSpec):
            return self.task
        return self.task, tuple(self.missing)


def _plan_units(plan: SweepPlan, family: bool) -> list[_Unit]:
    """The plan's work units, in first-member plan order.

    Without ``family`` every point is its own unit.  With it, fusable
    points group into :class:`~repro.engine.plan.FusedFamily` units and
    the rest (truncated-laplace, mechanisms without a unit-noise
    family) stay point units under their ordinary keys — their values
    are identical either way, so they stay shareable with default runs.
    """
    fingerprint = plan.fingerprint
    families, leftover = (
        fused_families(plan) if family else ([], range(len(plan.points)))
    )
    units = []
    for index in leftover:
        spec = plan.points[index]
        content = spec.content(fingerprint)
        units.append(
            _Unit(spec, (index,), (content_key(content),), (content,), [True])
        )
    for fam in families:
        contents = tuple(
            fam.member_content(plan.points[i], fingerprint) for i in fam.indices
        )
        units.append(
            _Unit(
                fam,
                fam.indices,
                tuple(map(content_key, contents)),
                contents,
                [True] * len(fam.indices),
            )
        )
    units.sort(key=lambda unit: unit.indices[0])
    return units


# -- claim blocks ---------------------------------------------------------

# Guided self-scheduling: each claim block takes this fraction of the
# units not yet cut, so early blocks are long (few leases) and the tail
# runs down to single units (the last units still balance the fleet).
BLOCK_DIVISOR = 8

# The first re-poll after a round that found nothing claimable; each
# fruitless round doubles it, up to the drain's ``claim_poll_s``.
FIRST_POLL_S = 0.01


def guided_blocks(n_units: int) -> list[range]:
    """Cut ``range(n_units)`` into guided self-scheduling blocks.

    Each block takes ``ceil(remaining / BLOCK_DIVISOR)`` units: a
    600-unit plan is 37 blocks of 75, 66, 58, … down to 1.  The cut
    depends on nothing but ``n_units``, so every drain of one plan
    derives the same blocks whatever it has already resumed.
    """
    blocks, start = [], 0
    while start < n_units:
        size = -(-(n_units - start) // BLOCK_DIVISOR)
        blocks.append(range(start, start + size))
        start += size
    return blocks


@dataclass(eq=False)
class _Block:
    """Consecutive work units leased together under one key."""

    lease: str
    units: list[_Unit]

    def pending(self) -> list[_Unit]:
        return [unit for unit in self.units if any(unit.missing)]


def _plan_blocks(units: list[_Unit]) -> list[_Block]:
    """The claim blocks over ``units``; a block's lease key is the
    content key of its members' store keys."""
    blocks = []
    for cut in guided_blocks(len(units)):
        members = units[cut.start : cut.stop]
        keys = [key for unit in members for key in unit.keys]
        blocks.append(_Block(content_key({"claim_block": keys}), members))
    return blocks


def lease_blocks(
    plan: SweepPlan, *, fused: bool | str = False
) -> list[tuple[str, tuple[int, ...]]]:
    """The claim blocks a cooperative drain of ``plan`` leases, in order.

    Returns ``(lease key, member plan indices)`` pairs — what a
    :class:`~repro.runtime.ClaimBoard` sees when ``run_plan(plan,
    claim=True, fused=fused)`` drains, so tooling and tests can inspect
    or plant leases without recomputing the cut.
    """
    units = _plan_units(plan, resolve_fused(fused))
    return [
        (block.lease, tuple(i for unit in block.units for i in unit.indices))
        for block in _plan_blocks(units)
    ]


def _evaluate_unit(session, item):
    """Task function: one unit's item → aligned (points, spends) lists.

    Module-level (picklable by reference); it reaches the evaluators
    through their module globals at call time.
    """
    if isinstance(item, PointSpec):
        point, spend = evaluate_point_spec(session, item)
        return [point], [spend]
    return evaluate_fused_family(session, item)


def _adopt(store, unit: _Unit, points: list, *, poll: bool = False) -> None:
    """Place every stored member of ``unit`` and mark it found.

    ``poll`` asks ``contains`` first: a claim round rescans the blocks
    it visits every round, and ``get`` alone would count each miss
    against the store.
    """
    for m, (index, key) in enumerate(zip(unit.indices, unit.keys)):
        if not unit.missing[m] or (poll and not store.contains(key)):
            continue
        payload = store.get(key)
        if payload is not None and "point" in payload:
            points[index] = decode_point(payload["point"])
            unit.missing[m] = False


def _adopt_block(store, block: _Block, points: list) -> list[_Unit]:
    """Adopt ``block``'s stored members; return its units still missing."""
    for unit in block.pending():
        _adopt(store, unit, points, poll=True)
    return block.pending()


def _store_point(store, key: str, content: dict, point, spend) -> None:
    with stage_profile.stage("store"):
        store.put(
            key,
            {
                "spec": content,
                "point": encode_point(point),
                "spend": encode_spend(spend),
            },
        )


def _claimed_rounds(board, store, units, points, want: int, poll_s: float):
    """Yield batches of claimed units, releasing each batch's leases
    after the caller has stored it.

    A round walks the plan's blocks in order: it adopts the stored
    members of each block it visits, claims blocks until it holds at
    least ``want`` units to compute, and re-checks each won block
    against the store — holding the lease freezes the members
    (publishers store *before* releasing), so that re-check is what
    makes concurrent drains compute each member exactly once.  A round
    that wins nothing re-polls after a backoff that starts at
    :data:`FIRST_POLL_S` and doubles up to ``poll_s``.
    """
    blocks = _plan_blocks(units)
    delay = min(FIRST_POLL_S, poll_s)
    while blocks:
        batch, held = [], []
        for block in blocks:
            if len(batch) >= want:
                break
            if not _adopt_block(store, block, points) or not board.try_claim(
                block.lease
            ):
                continue
            mine = _adopt_block(store, block, points)
            if mine:
                batch.extend(mine)
                held.append(block)
            else:
                board.release(block.lease)
        if batch:
            yield batch
            for block in held:
                board.release(block.lease)
            delay = min(FIRST_POLL_S, poll_s)
        blocks = [block for block in blocks if block.pending()]
        if blocks and not batch:
            time.sleep(delay)
            delay = min(2 * delay, poll_s)


@contextmanager
def _heartbeat(board):
    """Renew ``board``'s held leases every third of their TTL.

    A block can hold thousands of units, so a healthy drain may hold a
    lease longer than its TTL; the daemon thread keeps re-stamping it
    until the drain ends, and a crashed drain stops renewing, so its
    leases still expire.
    """
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(board.ttl_s / 3):
            board.renew()

    thread = threading.Thread(target=beat, name="lease-heartbeat", daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _drain(
    plan: SweepPlan,
    session,
    *,
    executor,
    workers: int | None,
    store: ResultStore | None,
    resume: bool,
    merge_spend: bool,
    family: bool,
    board,
    poll_s: float,
) -> SweepOutcome:
    """The one sweep loop over work units, claimed or not.

    Resume per member; then each round (a) computes its units through
    the driver, (b) walks the computed members in plan order — record
    spend, persist — and, with claims, (c) releases the round's block
    leases once all their members are stored.  Spend before store means
    a raise-mode overdraft aborts with every stored point paid for;
    store before release means no member is ever neither claimed nor
    stored.  A claimless drain is a single round that never touches a
    board; claimed rounds come from :func:`_claimed_rounds`, whose
    polls back off, and a crashed owner's lease expires (``ttl_s``), so
    every stall is bounded.  Cache hits debit nothing: their spend was
    recorded by whoever computed them.
    """
    driver = resolve_driver(executor, workers) or SerialDriver()
    n_points = len(plan.points)
    points: list[SeriesPoint | None] = [None] * n_points
    spends: dict[int, LedgerEntry] = {}
    computed = 0

    units = _plan_units(plan, family)
    if store is not None and resume:
        for unit in units:
            _adopt(store, unit, points)
    with ExitStack() as stack:
        if board is None:
            pending = [unit for unit in units if any(unit.missing)]
            rounds = [pending] if pending else []
        else:
            stack.callback(board.release_all)
            stack.enter_context(_heartbeat(board))
            # Blocks are cut from every unit, not just the pending ones,
            # so all drains lease the same keys whatever they resumed.
            rounds = _claimed_rounds(
                board,
                store,
                units,
                points,
                getattr(driver, "workers", 1),
                poll_s,
            )
        for batch in rounds:
            outcomes = _driver_map(
                driver,
                _evaluate_unit,
                session,
                [unit.item() for unit in batch],
            )
            members = sorted(
                (
                    (index, unit, m, unit_points[m], unit_spends[m])
                    for unit, (unit_points, unit_spends) in zip(batch, outcomes)
                    for m, index in enumerate(unit.indices)
                    if unit.missing[m]
                ),
                key=lambda member: member[0],
            )
            for index, unit, m, point, spend in members:
                points[index] = point
                if spend is not None:
                    spends[index] = spend
                    if merge_spend:
                        session.ledger.record(spend)
                if store is not None:
                    _store_point(
                        store, unit.keys[m], unit.contents[m], point, spend
                    )
                unit.missing[m] = False
            computed += len(members)

    return SweepOutcome(
        plan=plan,
        points=points,
        computed=computed,
        cache_hits=n_points - computed,
        spends=[spends[i] for i in sorted(spends)],
    )
