"""Open-loop latency runs from the due time; generator lag is reported."""

from perfbench import loadgen


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class FakeConnection:
    """Each request takes ``service`` seconds of the fake clock."""

    def __init__(self, clock, service):
        self.clock, self.service = clock, service

    def release(self, item):
        self.clock.now += self.service[item["id"]]
        return 200, {"id": item["id"]}

    def close(self):
        pass


def _items(dues):
    return [{"id": i, "due_s": due, "kind": "replay"} for i, due in enumerate(dues)]


def test_latency_counts_from_due_time_and_lag_is_reported():
    clock = FakeClock()
    # Request 0 stalls for 0.5 s; requests 1 and 2 were due during the
    # stall, so on one connection they wait and inherit the stall.
    service = {0: 0.5, 1: 0.01, 2: 0.01, 3: 0.01}
    outcomes = loadgen.open_loop(
        _items([0.0, 0.1, 0.2, 1.0]),
        lambda: FakeConnection(clock, service),
        connections=1,
        clock=clock,
        sleep=clock.sleep,
    )
    start = 100.0
    assert [o.due for o in outcomes] == [start, start + 0.1, start + 0.2, start + 1.0]
    assert abs(outcomes[0].latency - 0.5) < 1e-9
    assert abs(outcomes[0].lag) < 1e-9
    # Sent at 0.5 although due at 0.1: 0.4 s of lag, 0.41 s of latency.
    assert abs(outcomes[1].lag - 0.4) < 1e-9
    assert abs(outcomes[1].latency - 0.41) < 1e-9
    assert abs(outcomes[2].lag - 0.31) < 1e-9
    assert abs(outcomes[2].latency - 0.32) < 1e-9
    # The generator caught up: the last request left on time.
    assert abs(outcomes[3].lag) < 1e-9
    assert abs(outcomes[3].latency - 0.01) < 1e-9
    assert all(o.status == 200 for o in outcomes)


def test_closed_loop_stops_at_deadline():
    clock = FakeClock()
    service = {i: 0.25 for i in range(100)}
    outcomes, elapsed = loadgen.closed_loop(
        _items([0.0] * 100),
        lambda: FakeConnection(clock, service),
        connections=1,
        seconds=1.0,
        clock=clock,
    )
    assert len(outcomes) == 4
    assert abs(elapsed - 1.0) < 1e-9
    assert [o.index for o in outcomes] == [0, 1, 2, 3]
