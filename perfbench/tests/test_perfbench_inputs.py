"""Workload inputs are a pure function of the seed."""

from perfbench import inputs


def _plan(seed, **options):
    return inputs.serve_inputs(seed, 50.0, 24.0, 120, 40, 10, **options)


def test_one_seed_yields_one_schedule():
    first = _plan(7, ladder=(200.0,), step_s=2.0)
    assert first == _plan(7, ladder=(200.0,), step_s=2.0)
    assert _plan(8) != _plan(7)
    assert inputs.fleet_inputs(7) == inputs.fleet_inputs(7)
    assert inputs.fleet_inputs(7)["tag"] != inputs.fleet_inputs(8)["tag"]
    assert inputs.paper_seed(7) == inputs.paper_seed(7) != inputs.paper_seed(8)


def test_open_loop_mix_and_arrivals():
    plan = _plan(3)
    opened = plan["open"]
    kinds = [item["kind"] for item in opened]
    # 24 s at 50/s: 1,000 replays and 200 fresh requests.
    assert kinds.count("fresh") == 200 and kinds.count("replay") == 1000
    dues = [item["due_s"] for item in opened]
    assert dues == sorted(dues)
    assert 20.0 < dues[-1] < 28.0
    assert [i["kind"] for i in plan["closed"]].count("fresh") == 20
    hot = {(h["tenant"], str(h["request"])) for h in plan["hot"]}
    assert len(plan["hot"]) == inputs.HOT_SET
    for item in opened + plan["closed"]:
        if item["kind"] == "replay":
            # A replay repeats a hot release under the tenant that paid.
            assert (item["tenant"], str(item["request"])) in hot


def test_fresh_requests_are_unique():
    plan = _plan(5, ladder=(300.0,), step_s=3.0)
    items = (plan["hot"] + plan["probe_replay"] + plan["probe_fresh"] + plan["open"]
             + plan["closed"] + plan["ladder"][0][1])
    seeds = [i["request"]["seed"] for i in items if i["kind"] in ("fresh", "prepay")]
    assert len(seeds) == len(set(seeds))
    assert len(plan["ladder"][0][1]) == 900
    assert [i["kind"] for i in plan["probe_replay"]] == ["replay"] * 40
    assert [i["kind"] for i in plan["probe_fresh"]] == ["fresh"] * 10


def test_fleet_surface():
    fleet = inputs.fleet_inputs(5)
    n_points = len(fleet["mechanisms"]) * len(fleet["alphas"]) * len(fleet["epsilons"])
    assert n_points == 600
    assert fleet["n_trials"] == 50
