"""Tests for the family-fused path: one unit-noise draw per mechanism's
whole α×ε sub-grid (``run_plan(fused="family")``).

The family path rides the same content-addressed store and ledger
machinery as the per-point path, so these tests focus on what fusion
adds: statistical agreement with the per-point stream, the analytic
linear reduction, the shared envelope cache, key disjointness from the
per-point keys, member-precise resume, ``--trials-batch`` chunking of
the family draw, and the per-worker profile breakdown that ships back
from process pools.  The bit-exact family values are pinned in
:mod:`tests.engine.test_golden`.
"""

import numpy as np
import pytest

from repro.engine.evaluate import fused_family_points
from repro.engine.plan import fused_families, grid_plan
from repro.engine.points import points_identical
from repro.engine.store import ResultStore
from repro.engine.sweep import guided_blocks, lease_blocks, run_plan
from repro.runtime import ProcessDriver

from .test_golden import FIGURE_GOLDEN, run_figure_plan


def family_plan(session, n_trials=400, metric="l1-ratio", tag="family-equiv"):
    """A multi-α grid: 3 mechanisms × 2 α × 2 ε = 12 points, 3 families.

    α = 0.2 at ε = 1.0 sits below the smooth mechanisms' feasibility
    threshold, so every family carries at least one infeasible member.
    """
    return grid_plan(
        "workload-1",
        metric,
        ("smooth-gamma", "smooth-laplace", "log-laplace"),
        (0.05, 0.2),
        (1.0, 2.0),
        delta=0.05,
        n_trials=n_trials,
        fingerprint=session.snapshot_fingerprint,
        seed=11,
        tag=tag,
    )


class TestFamilyPlanning:
    def test_families_span_alpha_and_epsilon(self, session):
        plan = family_plan(session, n_trials=2)
        families, leftover = fused_families(plan)
        assert not leftover
        assert len(families) == 3  # one per mechanism
        for family in families:
            assert len(family.indices) == 4
            assert set(family.alphas) == {0.05, 0.2}
            assert set(family.epsilons) == {1.0, 2.0}
            assert family.members == tuple(
                zip(family.alphas, family.epsilons)
            )

    def test_family_seed_depends_on_membership(self, session):
        plan = family_plan(session, n_trials=2)
        narrower = grid_plan(
            "workload-1",
            "l1-ratio",
            ("smooth-gamma", "smooth-laplace", "log-laplace"),
            (0.05,),
            (1.0, 2.0),
            delta=0.05,
            n_trials=2,
            fingerprint=session.snapshot_fingerprint,
            seed=11,
            tag="family-equiv",
        )
        wide, _ = fused_families(plan)
        narrow, _ = fused_families(narrower)
        for fw, fn in zip(wide, narrow):
            assert fw.mechanism == fn.mechanism
            assert fw.family_seed != fn.family_seed


class TestFamilyEquivalence:
    """One draw per α×ε family is a different RNG stream from the
    unfused path, but the two must agree statistically at 400 trials."""

    @pytest.fixture(scope="class")
    def paths(self, session):
        plan = family_plan(session)
        unfused = run_plan(plan, session, merge_spend=False)
        family = run_plan(plan, session, merge_spend=False, fused="family")
        return unfused, family

    def test_overall_within_tolerance(self, paths):
        unfused, family = paths
        for pu, pf in zip(unfused.points, family.points):
            assert pf.mechanism == pu.mechanism
            assert pf.alpha == pu.alpha
            assert pf.epsilon == pu.epsilon
            assert pf.feasible == pu.feasible
            if not pu.feasible:
                continue
            rel = abs(pf.overall - pu.overall) / pu.overall
            assert rel < 0.06, (pu.mechanism, pu.alpha, pu.epsilon, rel)

    def test_strata_within_tolerance(self, paths):
        unfused, family = paths
        for pu, pf in zip(unfused.points, family.points):
            if not pu.feasible:
                continue
            for su, sf in zip(pu.by_stratum, pf.by_stratum):
                assert abs(sf - su) / su < 0.10, (
                    pu.mechanism, pu.alpha, pu.epsilon,
                )

    def test_family_is_deterministic(self, session, paths):
        _, family = paths
        plan = family_plan(session)
        again = run_plan(plan, session, merge_spend=False, fused="family")
        for a, b in zip(family.points, again.points):
            assert points_identical(a, b)

    def test_family_differs_from_other_streams(self, paths):
        """Sanity: the family stream really is its own draw (a silent
        fallback to per-point draws would pass the tolerances)."""
        unfused, family = paths
        assert any(
            pu.feasible and pf.overall != pu.overall
            for pu, pf in zip(unfused.points, family.points)
        )

    def test_family_spends_match_unfused(self, paths):
        """Family fusion changes how noise is drawn, never the debits."""
        unfused, family = paths
        assert len(family.spends) == len(unfused.spends)
        key = lambda e: (e.label, e.mechanism, e.epsilon, e.delta, e.mode)
        assert sorted(map(key, family.spends)) == sorted(
            map(key, unfused.spends)
        )


class TestFamilyAnalytic:
    """For linear mechanisms the family L1 path reduces analytically
    from unit |Z| column sums; adding spearman forces the generic
    per-member release path over the same stream, so the two L1 answers
    must agree to float-reassociation error."""

    @pytest.mark.parametrize("mechanism", ["smooth-gamma", "smooth-laplace"])
    def test_analytic_matches_generic(self, session, mechanism):
        from repro.experiments.workloads import WORKLOAD_1

        stats = session.statistics(WORKLOAD_1)
        kwargs = dict(
            members=[(0.05, 1.0), (0.05, 2.0), (0.2, 2.0)],
            delta=0.05,
            n_trials=50,
            seed=99,
        )
        analytic = fused_family_points(stats, mechanism, **kwargs)
        generic = fused_family_points(
            stats, mechanism, metrics=("l1-ratio", "spearman"), **kwargs
        )
        for pa, pg in zip(analytic["l1-ratio"], generic["l1-ratio"]):
            assert pa.overall == pytest.approx(pg.overall, rel=1e-9)
            for sa, sg in zip(pa.by_stratum, pg.by_stratum):
                assert sa == pytest.approx(sg, rel=1e-9)


class TestFamilyStore:
    """Default point keys, family member keys and block lease keys are
    pairwise disjoint, and family resume is member-precise."""

    def test_family_keys_disjoint_from_plain_keys(self, session):
        plan = family_plan(session, n_trials=2)
        families, leftover = fused_families(plan)
        assert not leftover
        plain = {spec.key(plan.fingerprint) for spec in plan.points}
        member = {
            fam.member_key(plan.points[i], plan.fingerprint)
            for fam in families
            for i in fam.indices
        }
        lease = {key for key, _ in lease_blocks(plan, fused="family")}
        assert len(plain) == len(member) == len(plan.points)
        assert len(lease) == len(guided_blocks(len(families)))
        assert plain.isdisjoint(member)
        assert lease.isdisjoint(plain | member)

    def test_family_run_ignores_other_caches(self, session, tmp_path):
        plan = family_plan(session, n_trials=2)
        store = ResultStore(tmp_path)
        run_plan(plan, session, merge_spend=False, store=store, resume=True)
        family = run_plan(
            plan,
            session,
            merge_spend=False,
            store=ResultStore(tmp_path),
            resume=True,
            fused="family",
        )
        assert family.cache_hits == 0
        assert family.computed == len(plan.points)

    def test_family_resume_replays_family_cache(self, session, tmp_path):
        plan = family_plan(session, n_trials=2)
        store = ResultStore(tmp_path)
        first = run_plan(
            plan, session, merge_spend=False, store=store, resume=True,
            fused="family",
        )
        second = run_plan(
            plan,
            session,
            merge_spend=False,
            store=ResultStore(tmp_path),
            resume=True,
            fused="family",
        )
        assert second.computed == 0
        assert second.cache_hits == len(plan.points)
        assert not second.spends  # cache hits debit nothing
        for a, b in zip(first.points, second.points):
            assert points_identical(a, b)

    def test_family_resume_recomputes_only_missing_members(
        self, session, tmp_path
    ):
        """Drop two members of one family from the store: the resumed
        run recomputes exactly those two — the family draw is mask-
        independent, so the values come back bit-for-bit."""
        plan = family_plan(session, n_trials=2)
        store = ResultStore(tmp_path)
        first = run_plan(
            plan, session, merge_spend=False, store=store, resume=True,
            fused="family",
        )
        families, _ = fused_families(plan)
        victim = families[1]
        dropped = list(victim.indices[:2])
        for index in dropped:
            key = victim.member_key(plan.points[index], plan.fingerprint)
            store.path_for(key).unlink()
        second = run_plan(
            plan,
            session,
            merge_spend=False,
            store=ResultStore(tmp_path),
            resume=True,
            fused="family",
        )
        assert second.computed == len(dropped)
        assert second.cache_hits == len(plan.points) - len(dropped)
        for a, b in zip(first.points, second.points):
            assert points_identical(a, b)


class TestFamilyBatching:
    """``--trials-batch`` chunks the family's unit draw: no allocation
    exceeds batch×cells, and for the chunk-invariant Laplace stream the
    results do not change at all."""

    @staticmethod
    def _record_draw_shapes(monkeypatch):
        import repro.engine.evaluate as evaluate

        shapes = []
        original = evaluate.sample_unit_noise

        def recording(kind, shape, seed=None):
            shapes.append(tuple(shape))
            return original(kind, shape, seed)

        monkeypatch.setattr(evaluate, "sample_unit_noise", recording)
        return shapes

    def test_family_draws_respect_batch(self, session, monkeypatch):
        shapes = self._record_draw_shapes(monkeypatch)
        batched = grid_plan(
            "workload-1",
            "l1-ratio",
            ("smooth-laplace",),
            (0.05, 0.2),
            (1.0, 2.0),
            delta=0.05,
            n_trials=7,
            batch_size=3,
            fingerprint=session.snapshot_fingerprint,
            seed=11,
            tag="family-batch",
        )
        run_plan(batched, session, merge_spend=False, fused="family")
        assert shapes, "family path never drew unit noise"
        rows = [shape[0] for shape in shapes]
        assert all(r <= 3 for r in rows)
        assert sum(rows) == 7  # chunks partition the trial count

    def test_laplace_family_results_unchanged_under_batching(self, session):
        """The Laplace unit stream fills row-major, so chunking the
        family draw leaves every member's statistics unchanged up to
        summation reassociation (the chunk boundary splits the per-cell
        accumulations, nothing else)."""
        def run(batch_size):
            plan = grid_plan(
                "workload-1",
                "l1-ratio",
                ("smooth-laplace", "log-laplace"),
                (0.05, 0.2),
                (1.0, 2.0),
                delta=0.05,
                n_trials=10,
                batch_size=batch_size,
                fingerprint=session.snapshot_fingerprint,
                seed=11,
                tag="family-batch-bits",
            )
            return run_plan(plan, session, merge_spend=False, fused="family")

        whole = run(None)
        chunked = run(3)
        for a, b in zip(whole.points, chunked.points):
            assert (a.mechanism, a.alpha, a.epsilon) == (
                b.mechanism, b.alpha, b.epsilon,
            )
            assert a.feasible == b.feasible
            if not a.feasible:
                continue
            assert b.overall == pytest.approx(a.overall, rel=1e-12)
            for sa, sb in zip(a.by_stratum, b.by_stratum):
                assert sb == pytest.approx(sa, rel=1e-12)


class TestEnvelopeCache:
    """The per-α smooth-sensitivity envelope is computed once on the
    workload statistics and shared read-only by every mechanism."""

    def test_cached_and_read_only(self, session):
        from repro.core.smooth_sensitivity import smooth_envelope
        from repro.experiments.workloads import WORKLOAD_1

        stats = session.statistics(WORKLOAD_1)
        first = stats.envelope(0.05)
        again = stats.envelope(0.05)
        assert first is again  # cached, not recomputed
        other = stats.envelope(0.2)
        assert other is not first
        np.testing.assert_array_equal(
            first, smooth_envelope(stats.eval_xv, 0.05)
        )
        np.testing.assert_array_equal(
            first, np.maximum(stats.eval_xv * 0.05, 1.0)
        )
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0.0


class TestFamilyFigures:
    """End-to-end family runs of the published plans."""

    def test_finding6_family_equals_unfused(self, session):
        """Truncated-laplace points are not fusable: the family runner
        routes them through the ordinary path, bit-identically."""
        _, unfused = run_figure_plan(session, "finding-6")
        _, family = run_figure_plan(session, "finding-6", fused="family")
        for a, b in zip(unfused.points, family.points):
            assert points_identical(a, b)

    def test_figure1_family_feasibility_matches(self, session):
        _, family = run_figure_plan(session, "figure-1", fused="family")
        golden = FIGURE_GOLDEN["figure-1"]
        assert len(family.points) == len(golden)
        for point, expected in zip(family.points, golden):
            assert point.mechanism == expected[0]
            assert point.alpha == (expected[1] or point.alpha)
            assert point.epsilon == expected[2]
            assert point.feasible == expected[4]

    def test_figure2_family_feasibility_matches(self, session):
        _, family = run_figure_plan(session, "figure-2", fused="family")
        golden = FIGURE_GOLDEN["figure-2"]
        assert len(family.points) == len(golden)
        for point, expected in zip(family.points, golden):
            assert point.mechanism == expected[0]
            assert point.epsilon == expected[2]
            assert point.feasible == expected[4]


class TestWorkerProfile:
    """``--profile`` reaches into process-pool workers: each task ships
    its stage profile back and the parent merges a per-worker view."""

    def test_process_pool_profile_has_per_worker(self, session):
        plan = family_plan(session, n_trials=2)
        outcome = run_plan(
            plan,
            session,
            merge_spend=False,
            fused="family",
            executor=ProcessDriver(workers=2),
            profile=True,
        )
        prof = outcome.profile
        per_worker = prof.get("per_worker")
        assert per_worker, "process-pool profile lost the worker stages"
        assert sum(w["tasks"] for w in per_worker) == 3  # one per family
        for worker in per_worker:
            assert worker["pid"] > 0
            assert worker["total_s"] >= 0.0
        # Worker stage seconds fold into the parent totals.
        assert prof["draw_s"] + prof["reduce_s"] > 0.0

    def test_serial_profile_has_no_per_worker(self, session):
        plan = family_plan(session, n_trials=2)
        outcome = run_plan(
            plan, session, merge_spend=False, fused="family", profile=True
        )
        assert "per_worker" not in outcome.profile
        assert outcome.profile["total_s"] > 0


class TestFamilyTable3:
    """Table 3 under ``fused="family"``: each metric plan runs one family
    per mechanism, both plans share the family seed, and the table debits
    what the default rows debit."""

    def test_rows_and_debits_match_default(self, engine_config, tmp_path):
        from repro.api.session import ReleaseSession
        from repro.experiments.tables import table3_rows

        default = ReleaseSession(engine_config)
        family = ReleaseSession(engine_config)
        rows = table3_rows(default, n_trials=2)
        fused = table3_rows(
            family, n_trials=2, fused="family", store=ResultStore(tmp_path)
        )
        key = lambda row: (row["mechanism"], row["alpha"], row["epsilon"])
        assert [key(r) for r in fused] == [key(r) for r in rows]
        assert [r["feasible"] for r in fused] == [r["feasible"] for r in rows]
        assert any(
            r["l1_ratio"] != f["l1_ratio"] for r, f in zip(rows, fused)
        )
        spend = lambda e: (e.mechanism, e.epsilon, e.delta)
        assert sorted(map(spend, family.ledger.entries)) == sorted(
            map(spend, default.ledger.entries)
        )

        resumed = ReleaseSession(engine_config)
        again = table3_rows(
            resumed,
            n_trials=2,
            fused=True,
            store=ResultStore(tmp_path),
            resume=True,
        )
        assert again == fused
        assert not resumed.ledger.entries  # cache hits debit nothing

    def test_process_driver_maps_the_families(self, engine_config):
        from repro.api.session import ReleaseSession
        from repro.experiments.tables import table3_rows

        serial_session = ReleaseSession(engine_config)
        serial = table3_rows(serial_session, n_trials=2, fused="family")
        driver = ProcessDriver(workers=2)
        pooled_session = ReleaseSession(engine_config)
        pooled = table3_rows(
            pooled_session, n_trials=2, fused="family", executor=driver
        )
        assert pooled == serial
        # The last map was the Spearman plan's: one task per mechanism.
        assert driver.stats.attempts == {0: 1, 1: 1, 2: 1}
        assert pooled_session.ledger.entries == serial_session.ledger.entries
