"""Workload inputs as a pure function of the workload seed.

Everything the program receives — the paper's experiment seed, the
serve hot set, arrival times, request mix and tenants, the fleet sweep
tag and its grid — is derived here from ``--seed`` with
:class:`random.Random`, so one seed always yields the same inputs on
any host and any NumPy version.
"""

from __future__ import annotations

import random

MECHANISMS = ("log-laplace", "smooth-laplace", "smooth-gamma")
SERVE_ATTRS = ("place", "naics")
SERVE_ALPHAS = (0.05, 0.1)
SERVE_EPSILONS = (2.0, 4.0)
SERVE_DELTA = 0.05
SERVE_TRIALS = 20
N_TENANTS = 4
HOT_SET = 32
# One request in six is fresh: 24 s at 50/s gives 1,000 replays (p99 has
# ten samples beyond it) and 200 fresh requests (so has p95).
FRESH_SHARE = 1 / 6

FLEET_ALPHAS = tuple(round(0.02 * step, 2) for step in range(1, 11))
FLEET_EPSILONS = tuple(round(0.25 * step, 2) for step in range(1, 21))
FLEET_TRIALS = 50

# Request seeds live in disjoint ranges so a fresh request never
# collides with a hot-set one (a collision would make it a duplicate).
_HOT_SEEDS = (1, 1 << 30)
_FRESH_SEED_BASE = 1 << 30


def tenant_names() -> list[str]:
    return [f"tenant-{index}" for index in range(N_TENANTS)]


def _release(rng: random.Random, index: int, seed: int) -> dict:
    """One release request payload (the wire format of ``/v1/release``)."""
    return {
        "attrs": list(SERVE_ATTRS),
        "mechanism": MECHANISMS[index % len(MECHANISMS)],
        "alpha": rng.choice(SERVE_ALPHAS),
        "epsilon": rng.choice(SERVE_EPSILONS),
        "delta": SERVE_DELTA,
        "n_trials": SERVE_TRIALS,
        "seed": seed,
    }


def paper_seed(seed: int) -> int:
    """The experiment seed the paper regeneration runs under."""
    return random.Random(f"paper:{seed}").randrange(1, 1 << 31)


def fleet_inputs(seed: int) -> dict:
    """The dense accuracy surface both fleet members drain."""
    rng = random.Random(f"fleet:{seed}")
    return {
        "tag": f"fleet-{rng.randrange(1 << 40):010x}",
        "experiment_seed": rng.randrange(1, 1 << 31),
        "mechanisms": list(MECHANISMS),
        "alphas": list(FLEET_ALPHAS),
        "epsilons": list(FLEET_EPSILONS),
        "n_trials": FLEET_TRIALS,
    }


def serve_inputs(
    seed: int,
    rate: float,
    seconds: float,
    closed: int,
    probe_replays: int,
    probe_fresh: int,
    ladder=(),
    step_s=0.0,
) -> dict:
    """The hot set and every phase's requests for one serve run.

    The sequential probes are ``probe_replays`` replays and
    ``probe_fresh`` fresh requests.  The open-loop phase has exactly
    ``round(rate * seconds)`` requests with Poisson arrivals at
    ``rate``; exactly ``FRESH_SHARE`` of them are fresh (unique seed,
    mechanism rotated), the rest repeat a uniformly chosen hot release
    under the tenant that paid for it.  ``closed`` more requests of the
    same mix feed the closed loop, and each rate of ``ladder`` gets an
    open-loop step of ``step_s`` seconds.
    """
    rng = random.Random(f"serve:{seed}")
    tenants = tenant_names()
    hot_seeds = rng.sample(range(*_HOT_SEEDS), HOT_SET)
    hot = [
        {
            "kind": "prepay",
            "tenant": tenants[index % N_TENANTS],
            "request": _release(rng, index, s),
        }
        for index, s in enumerate(hot_seeds)
    ]
    fresh_counter = iter(range(_FRESH_SEED_BASE, 1 << 62))

    def mix(count: int, share: float = FRESH_SHARE) -> list[dict]:
        fresh_slots = set(rng.sample(range(count), round(count * share)))
        items = []
        for slot in range(count):
            if slot in fresh_slots:
                index = next(fresh_counter)
                items.append(
                    {
                        "kind": "fresh",
                        "tenant": tenants[index % N_TENANTS],
                        "request": _release(rng, index, index),
                    }
                )
            else:
                pick = hot[rng.randrange(HOT_SET)]
                items.append({**pick, "kind": "replay"})
        return items

    def scheduled(step_rate: float, duration: float) -> list[dict]:
        items = mix(round(step_rate * duration))
        due = 0.0
        for item in items:
            due += rng.expovariate(step_rate)
            item["due_s"] = due
        return items

    return {
        "hot": hot,
        "probe_replay": mix(probe_replays, 0.0),
        "probe_fresh": mix(probe_fresh, 1.0),
        "open": scheduled(rate, seconds),
        "closed": mix(closed),
        "ladder": [[step, scheduled(step, step_s)] for step in ladder],
    }
