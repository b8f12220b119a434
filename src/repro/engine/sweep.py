"""Sweep orchestration: plans in, points out — parallel and resumable.

:func:`run_plan` is the engine's front door.  It cuts a
:class:`~repro.engine.plan.SweepPlan` into **work units** — one per
point, or, with ``fused="family"``, one per
:class:`~repro.engine.plan.FusedFamily` whose single unit-noise draw
serves a mechanism's whole α×ε grid — and runs one loop over them:

1. consult the :class:`~repro.engine.store.ResultStore` (when resuming)
   member by member and keep every already-computed point — a resumed
   figure recomputes only what is missing;
2. with ``claim=True``, adopt members other drains published and claim
   each unowned unit on the store's lease board;
3. fan the units through an :class:`~repro.engine.executors.Executor`
   (serial by default; thread or process pools for parallel sweeps) via
   the non-debiting session outcome methods, so workers never touch a
   ledger;
4. record each **computed** point's spend on the parent session's
   ledger and then persist the point to the store, walking plan order
   — accounting is exact and deterministic no matter which executor ran
   the units, and a raise-mode overdraft aborts before the offending
   point is ever cached;
5. release a unit's lease only after all its members are stored.

Cache hits debit nothing: re-serving a stored release consumes no new
privacy budget (the noise was drawn, and paid for, when the point was
first computed and stored).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from functools import partial

from repro.api.ledger import LedgerEntry
from repro.core.params import EREEParams
from repro.engine import profile as stage_profile
from repro.engine.executors import SerialExecutor, resolve_executor
from repro.engine.plan import (
    TRUNCATED_LAPLACE,
    FusedFamily,
    PointSpec,
    SweepPlan,
    fused_families,
)
from repro.engine.points import FigureSeries, SeriesPoint
from repro.engine.store import ResultStore, content_key

__all__ = [
    "SweepOutcome",
    "run_plan",
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

    Module-level (hence picklable by reference) so every executor — in
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
    """Run one executor task under its own profiler scope.

    Process-pool workers cannot see the parent's module-global profiler,
    so a profiled sweep ships each task wrapped in this: the worker
    captures its own draw/reduce split and returns it (tagged with the
    worker PID) alongside the outcome for the parent to merge.
    """
    with stage_profile.profiled() as prof:
        result = fn(session, item)
    return result, (os.getpid(), prof.as_dict())


def _executor_map(executor, fn, session, items):
    """``executor.map`` that keeps stage attribution across process pools.

    Serial and thread executors run tasks in this process, where the
    active profiler already sees the kernels, so they map straight
    through (the per-task wrapper would also race on the module global
    under threads).  A process pool under an active profiler gets the
    wrapped task; the returned per-task profiles fold into the parent's
    stage totals and per-worker breakdown.
    """
    if not (
        stage_profile.active()
        and getattr(executor, "name", None) == "process"
        and getattr(executor, "workers", 1) > 1
    ):
        return executor.map(fn, session, items)
    outcomes = executor.map(partial(_profiled_task, fn), session, items)
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
    :func:`~repro.engine.executors.resolve_executor` (serial when
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
    it.  Units another drain claimed are deferred: this run polls the
    store (every ``claim_poll_s`` seconds) and adopts their results as
    cache hits when they land; a claim whose owner crashed expires
    after ``claim_ttl_s`` (default
    :data:`~repro.runtime.DEFAULT_LEASE_TTL_S`) and is taken over.
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
    resumed, adopted or computed.  ``lease`` is the key a cooperative
    drain claims before computing the unit: the point key for a point,
    the family's own content key for a family.
    """

    task: PointSpec | FusedFamily
    indices: tuple[int, ...]
    keys: tuple[str, ...]
    contents: tuple[dict, ...]
    lease: str
    missing: list[bool]

    def item(self):
        """The executor item: the spec itself, or ``(family, mask)``."""
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
        key = content_key(content)
        units.append(_Unit(spec, (index,), (key,), (content,), key, [True]))
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
                fam.key(fingerprint),
                [True] * len(fam.indices),
            )
        )
    units.sort(key=lambda unit: unit.indices[0])
    return units


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

    ``poll`` asks ``contains`` first: a claim round rescans the store
    every round, and ``get`` alone would count each miss against it.
    """
    for m, (index, key) in enumerate(zip(unit.indices, unit.keys)):
        if not unit.missing[m] or (poll and not store.contains(key)):
            continue
        payload = store.get(key)
        if payload is not None and "point" in payload:
            points[index] = decode_point(payload["point"])
            unit.missing[m] = False


def _claim(board, store, unit: _Unit, points: list) -> bool:
    """Win ``unit``'s lease with something left to compute.

    After *winning*, re-check the store: the previous holder may have
    published and released between the adoption scan and this claim.
    Holding the lease freezes the members (publishers store *before*
    releasing), so the re-check is race-free — this is what makes two
    concurrent drains compute each member exactly once.
    """
    if not board.try_claim(unit.lease):
        return False
    _adopt(store, unit, points, poll=True)
    if any(unit.missing):
        return True
    board.release(unit.lease)
    return False


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

    Resume per member; then each round (a) with claims, adopts members
    another drain published and claims every unowned unit, (b) computes
    the round's units through the executor, (c) walks the computed
    members in plan order — record spend, persist — and (d) releases a
    unit's lease once all its members are stored.  Spend before store
    means a raise-mode overdraft aborts with every stored point paid
    for; store before release means no member is ever neither claimed
    nor stored.  A claimless drain is a single round that never touches
    a board; a claimed round that wins nothing sleeps ``poll_s`` and
    rescans, and a crashed owner's lease expires (``ttl_s``), so every
    stall is bounded.  Cache hits debit nothing: their spend was
    recorded by whoever computed them.
    """
    executor = resolve_executor(executor, workers) or SerialExecutor()
    n_points = len(plan.points)
    points: list[SeriesPoint | None] = [None] * n_points
    spends: dict[int, LedgerEntry] = {}
    computed = 0

    pending = _plan_units(plan, family)
    if store is not None and resume:
        for unit in pending:
            _adopt(store, unit, points)
        pending = [unit for unit in pending if any(unit.missing)]
    try:
        while pending:
            batch = pending
            if board is not None:
                for unit in pending:
                    _adopt(store, unit, points, poll=True)
                batch = [
                    unit
                    for unit in pending
                    if any(unit.missing) and _claim(board, store, unit, points)
                ]
            if batch:
                outcomes = _executor_map(
                    executor,
                    _evaluate_unit,
                    session,
                    [unit.item() for unit in batch],
                )
                members = sorted(
                    (
                        (index, unit, m, unit_points[m], unit_spends[m])
                        for unit, (unit_points, unit_spends) in zip(
                            batch, outcomes
                        )
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
                    if board is not None and not any(unit.missing):
                        board.release(unit.lease)
                computed += len(members)
            pending = [unit for unit in pending if any(unit.missing)]
            if pending and not batch:
                time.sleep(poll_s)
    finally:
        if board is not None:
            board.release_all()

    return SweepOutcome(
        plan=plan,
        points=points,
        computed=computed,
        cache_hits=n_points - computed,
        spends=[spends[i] for i in sorted(spends)],
    )
