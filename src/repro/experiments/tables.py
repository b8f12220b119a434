"""Tables 1 and 2 of the paper, plus the session accuracy summary (Table 3).

Table 1 is the qualitative definitions × requirements matrix (encoded in
:mod:`repro.core.definitions`).  Table 2 gives, per (α, δ), the minimum ε
that makes the Smooth Laplace algorithm feasible; we compute it from the
Algorithm 3 constraint and also report the paper's published values for
comparison (the published δ = .05 column is internally consistent with
δ ≈ .005; see EXPERIMENTS.md).

Table 3 is not in the paper: it is an empirical per-mechanism accuracy
summary of the Workload-1 marginal on one snapshot.  It runs as two
sweep plans (L1 ratio and Spearman ρ over one grid) through the same
engine as the figures — :func:`repro.engine.sweep.run_plan` over one
shared :class:`repro.api.ReleaseSession` — so the ``tables`` CLI
shares the figures' placement, store keys, resume and ledger
accounting.
"""

from __future__ import annotations

from repro.api.session import ReleaseSession
from repro.core.definitions import table1_rows
from repro.core.params import min_epsilon
from repro.engine.plan import grid_plan
from repro.engine.sweep import run_plan
from repro.experiments.config import MECHANISM_NAMES
from repro.experiments.workloads import WORKLOAD_1
from repro.util import format_table

# The paper's published Table 2 entries: (delta, alpha) -> epsilon.
PAPER_TABLE2: dict[tuple[float, float], float] = {
    (0.05, 0.01): 0.105,
    (0.05, 0.10): 1.01,
    (0.05, 0.20): 1.932,
    (5e-4, 0.01): 0.15,
    (5e-4, 0.10): 1.45,
    (5e-4, 0.20): 2.13,
}

TABLE2_ALPHAS: tuple[float, ...] = (0.01, 0.10, 0.20)
TABLE2_DELTAS: tuple[float, ...] = (0.05, 5e-4)


def table1_text() -> str:
    """Table 1 rendered as text."""
    return format_table(
        headers=["Definition", "Individuals", "Emp. Size", "Emp. Shape"],
        rows=table1_rows(),
        title="Table 1: privacy definitions and requirements they satisfy "
        "(Yes* = under weak adversaries)",
    )


def table2_rows(
    alphas=TABLE2_ALPHAS, deltas=TABLE2_DELTAS
) -> list[dict[str, float | None]]:
    """Minimum-ε rows: ours from the Algorithm 3 constraint, plus paper's."""
    rows = []
    for delta in deltas:
        for alpha in alphas:
            rows.append(
                {
                    "delta": delta,
                    "alpha": alpha,
                    "min_epsilon": min_epsilon(alpha, delta),
                    "paper_epsilon": PAPER_TABLE2.get((delta, alpha)),
                }
            )
    return rows


def table2_text() -> str:
    """Table 2 rendered as text with the paper's values alongside."""
    rows = [
        [
            row["delta"],
            row["alpha"],
            row["min_epsilon"],
            row["paper_epsilon"] if row["paper_epsilon"] is not None else "-",
        ]
        for row in table2_rows()
    ]
    return format_table(
        headers=["delta", "alpha", "min eps (ours)", "min eps (paper)"],
        rows=rows,
        title="Table 2: minimum epsilon given alpha and delta "
        "(Smooth Laplace feasibility)",
    )


TABLE3_ALPHA: float = 0.1
TABLE3_EPSILONS: tuple[float, ...] = (1.0, 2.0, 4.0)
TABLE3_DELTA: float = 0.05


def table3_rows(
    session: ReleaseSession,
    alphas=(TABLE3_ALPHA,),
    epsilons=TABLE3_EPSILONS,
    delta: float = TABLE3_DELTA,
    n_trials: int | None = None,
    *,
    executor=None,
    workers: int | None = None,
    store=None,
    resume: bool = False,
    fused: bool | str = False,
) -> list[dict]:
    """Empirical accuracy rows from one shared release session.

    The table is two sweep plans over the same (mechanism × α × ε)
    grid, one per metric, each run through
    :func:`~repro.engine.sweep.run_plan` with the caller's
    ``executor``/``workers``/``store``/``resume``/``fused`` — the same
    drain loop, store keys and resume as the figures.  Infeasible points
    are reported (NaN values), not skipped, and debit nothing.

    A row is one release, debited once.  A point's seed derives from
    ``table3:<mechanism>:<α>:<ε>``, not from the metric, so a row's L1
    and Spearman points draw the same noise — and under
    ``fused="family"`` their two families share one ``family_seed``.
    The L1 plan therefore records the spend (``merge_spend=True``) and
    the Spearman plan records none; a resumed row debits only if its L1
    point is recomputed.
    """
    if n_trials is None:
        n_trials = session.config.n_trials
    l1, rho = (
        run_plan(
            grid_plan(
                WORKLOAD_1.name,
                metric,
                MECHANISM_NAMES,
                alphas,
                epsilons,
                fingerprint=session.snapshot_fingerprint,
                delta=delta,
                n_trials=n_trials,
                seed=session.config.seed,
                tag="table3",
                batch_size=session.config.trials_batch,
            ),
            session,
            executor=executor,
            workers=workers,
            store=store,
            resume=resume,
            merge_spend=metric == "l1-ratio",
            fused=fused,
        ).points
        for metric in ("l1-ratio", "spearman")
    )
    return [
        {
            "mechanism": a.mechanism,
            "alpha": a.alpha,
            "epsilon": a.epsilon,
            "feasible": a.feasible,
            "l1_ratio": a.overall,
            "spearman": b.overall,
        }
        for a, b in zip(l1, rho)
    ]


def table3_text(
    session: ReleaseSession,
    n_trials: int | None = None,
    *,
    executor=None,
    workers: int | None = None,
    store=None,
    resume: bool = False,
    fused: bool | str = False,
) -> str:
    """The session accuracy summary rendered as text."""
    rows = [
        [
            row["mechanism"],
            row["alpha"],
            row["epsilon"],
            "yes" if row["feasible"] else "no",
            row["l1_ratio"],
            row["spearman"],
        ]
        for row in table3_rows(
            session,
            n_trials=n_trials,
            executor=executor,
            workers=workers,
            store=store,
            resume=resume,
            fused=fused,
        )
    ]
    summary = session.dataset.summary()
    return format_table(
        headers=[
            "mechanism",
            "alpha",
            "eps",
            "feasible",
            "L1 ratio vs SDL",
            "Spearman vs SDL",
        ],
        rows=rows,
        title=(
            "Table 3 (companion): Workload-1 accuracy by mechanism on a "
            f"{int(summary['n_jobs'])}-job synthetic snapshot "
            f"({session.config.n_trials if n_trials is None else n_trials} trials)"
        ),
    )
