"""Neutral point/result dataclasses shared across the layer boundaries.

They live here, below every layer that uses them: the session, the
evaluation kernels (:mod:`repro.engine.evaluate`), the sweep engine and
the experiment harness all import *down* into this module and never at
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.metrics.strata import STRATUM_LABELS

if TYPE_CHECKING:  # annotation-only: neither layer is imported at runtime
    from repro.db.query import Marginal
    from repro.experiments.workloads import Workload

N_STRATA = len(STRATUM_LABELS)


@dataclass(frozen=True)
class WorkloadStatistics:
    """Trial-invariant statistics of one workload on one snapshot.

    Arrays are over the marginal's cells.  ``mask`` selects the cells
    used for evaluation (positive true count, hence published by both
    systems); ``xv`` is the smooth-sensitivity statistic; ``strata`` the
    place-population stratum per cell.
    """

    workload: "Workload"
    marginal: "Marginal"
    true: np.ndarray
    released: np.ndarray
    xv: np.ndarray
    strata: np.ndarray
    sdl_noisy: np.ndarray
    mode: str
    per_cell_params_of: object  # Callable[[EREEParams], EREEParams]
    budget_of: object = None  # Callable[[EREEParams], MarginalBudget]

    @cached_property
    def mask(self) -> np.ndarray:
        # cached_property writes straight into __dict__, so it works on a
        # frozen dataclass; every statistic below derives from this mask
        # and is likewise computed once per (workload, snapshot), not
        # once per sweep point.
        return (self.true > 0) & self.released

    def masked(self, values: np.ndarray) -> np.ndarray:
        return values[self.mask]

    @cached_property
    def eval_true(self) -> np.ndarray:
        """True counts over the evaluation cells."""
        return self.true[self.mask]

    @cached_property
    def eval_sdl(self) -> np.ndarray:
        """SDL baseline answers over the evaluation cells."""
        return self.sdl_noisy[self.mask]

    @cached_property
    def eval_xv(self) -> np.ndarray:
        """Smooth-sensitivity statistic xv over the evaluation cells."""
        return self.xv[self.mask]

    @cached_property
    def eval_strata(self) -> np.ndarray:
        """Place-population stratum per evaluation cell."""
        return self.strata[self.mask]

    @cached_property
    def stratum_cells(self) -> tuple[np.ndarray, ...]:
        """Index sets over the evaluation cells: overall + one per stratum.

        Precomputed once so the streaming reducers stop rebuilding
        N_STRATA + 1 boolean masks for every point of every sweep; the
        indices ascend, so gathering with them preserves cell order (and
        hence float summation order) exactly.
        """
        strata = self.eval_strata
        return (
            np.arange(strata.size),
            *(np.flatnonzero(strata == s) for s in range(N_STRATA)),
        )

    def envelope(self, alpha: float) -> np.ndarray:
        """Cached per-α smooth-sensitivity envelope ``max(xv·α, 1)``.

        The envelope depends on the workload's xv statistic and α only —
        never on the mechanism or ε — so one read-only vector per
        (workload, α) serves *every* mechanism of a sweep: each
        mechanism's noise scale is this envelope divided by its own
        admissibility scalar ``a(ε)``.  Computed through the shared
        :func:`~repro.core.smooth_sensitivity.smooth_envelope` kernel,
        identical to what the per-point release path evaluates.
        """
        from repro.core.smooth_sensitivity import smooth_envelope

        cache = self.__dict__.setdefault("_envelope_cache", {})
        envelope = cache.get(alpha)
        if envelope is None:
            envelope = smooth_envelope(self.eval_xv, alpha)
            envelope.setflags(write=False)
            cache[alpha] = envelope
        return envelope

    @cached_property
    def sdl_rank_stats(self) -> tuple[tuple[np.ndarray, float], ...]:
        """Per index set: ``(centered SDL ranks, rank sd)``, computed once.

        Aligned with :attr:`stratum_cells` (overall first, then one entry
        per stratum).  Spearman points compare every noisy ordering
        against the *same* SDL ordering, so ranking the baseline is
        trial- and mechanism-invariant — the fused-family reducer reads
        these instead of re-ranking the SDL answers per (mechanism, α,
        ε, chunk).
        """
        from repro.metrics.ranking import centered_rank_stats

        sdl = self.eval_sdl
        stats = []
        for idx in self.stratum_cells:
            if idx.size < 2:
                stats.append((np.empty(0, dtype=np.float64), 0.0))
                continue
            centered, sd = centered_rank_stats(sdl[idx])
            centered.setflags(write=False)
            stats.append((centered, sd))
        return tuple(stats)

    def stratum_masks(self) -> list[np.ndarray]:
        """Evaluation mask restricted to each place-population stratum."""
        return [
            self.mask & (self.strata == stratum) for stratum in range(N_STRATA)
        ]


@dataclass(frozen=True)
class SeriesPoint:
    """One plotted point: a (mechanism, α, ε) cell of a figure."""

    mechanism: str
    alpha: float | None
    epsilon: float
    overall: float
    by_stratum: tuple[float, ...]
    feasible: bool = True
    theta: int | None = None


@dataclass(frozen=True)
class FigureSeries:
    """All points of one figure, plus labeling metadata."""

    name: str
    title: str
    metric: str  # "l1-ratio" or "spearman"
    points: tuple[SeriesPoint, ...]

    def grid(self, mechanism: str, alpha: float | None = None) -> list[SeriesPoint]:
        return [
            p
            for p in self.points
            if p.mechanism == mechanism
            and (alpha is None or p.alpha == alpha)
        ]


def points_identical(a: SeriesPoint, b: SeriesPoint) -> bool:
    """Bit-level equality of two points, treating NaN as equal to NaN.

    Dataclass ``==`` fails on infeasible points (their values are NaN and
    ``nan != nan``); the driver-equivalence tests and the result store
    use this instead.
    """
    if (a.mechanism, a.theta, a.feasible) != (b.mechanism, b.theta, b.feasible):
        return False
    values_a = [a.alpha, a.epsilon, a.overall, *a.by_stratum]
    values_b = [b.alpha, b.epsilon, b.overall, *b.by_stratum]
    if len(values_a) != len(values_b):
        return False
    for x, y in zip(values_a, values_b):
        if x is None or y is None:
            if x is not y:
                return False
        elif not (x == y or (np.isnan(x) and np.isnan(y))):
            return False
    return True
