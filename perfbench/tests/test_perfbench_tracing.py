"""Self time from nested spans, busy time, and the wrapped counters."""

from perfbench import tracing


def span(span_id, parent, name, start, end):
    return (span_id, parent, name, start, end)


def test_self_time_subtracts_covered_child_time():
    spans = [
        span(1, 0, "engine.run_plan", 0.0, 10.0),
        span(2, 1, "engine.point", 1.0, 4.0),
        span(3, 1, "engine.store_put", 3.0, 5.0),  # overlaps its sibling
        span(4, 2, "core.draw", 1.5, 2.5),  # inside a point: covered once
        span(5, 1, "api.ledger", 6.0, 7.0),  # not subtracted
        span(6, 0, "engine.run_plan", 20.0, 22.0),
        span(7, 6, "engine.run_plan", 20.5, 21.5),  # nested: counted once
        span(8, 7, "runtime.claim", 21.0, 21.2),
    ]
    accounted = {"engine.point", "engine.store_put", "runtime.claim"}
    # [0, 10] minus [1, 5]; [20, 22] minus [21, 21.2].
    assert abs(tracing.self_time(spans, "engine.run_plan", accounted) - 7.8) < 1e-9
    assert tracing.self_time(spans, "engine.point", {"core.draw"}) == 2.0


def test_busy_counts_outermost_spans_once():
    spans = [
        span(1, 0, "api.ledger", 0.0, 3.0),
        span(2, 1, "api.ledger", 0.5, 1.0),  # merge -> record
        span(3, 0, "api.ledger", 5.0, 6.0),
    ]
    assert tracing.busy(spans, "api.ledger") == 4.0


def test_covered_within_a_parent():
    spans = [
        span(1, 0, "engine.run_plan", 0.0, 10.0),
        span(2, 1, "engine.point", 1.0, 4.0),
        span(3, 2, "engine.store_get", 2.0, 3.0),  # inside a point
        span(4, 1, "runtime.claim", 6.0, 7.0),
        span(5, 0, "engine.point", 20.0, 30.0),  # outside any run_plan
    ]
    accounted = tracing.ACCOUNTED
    assert tracing.covered(spans, accounted, within="engine.run_plan") == 4.0
    assert tracing.covered(spans, accounted) == 14.0
    dump = {"wall": [0.0, 40.0], "spans": spans, "counters": {}, "samples": {}}
    metrics = tracing.layer_metrics([dump], members=[dump])
    assert metrics["engine.outside_s"] == 6.0
    assert metrics["runtime.wait_s"] == 26.0


def test_wrapped_calls_record_spans_and_counts():
    tracer = tracing.Tracer()

    def merge(self, records):
        return [record(self, r) for r in records]

    def record(self, entry):
        return entry

    record = tracing._wrap(tracer, record, "api.ledger", "ledger_one")
    merge = tracing._wrap(tracer, merge, "api.ledger", "ledger_many")
    assert merge(None, [1, 2, 3]) == [1, 2, 3]
    assert record(None, 4) == 4
    # The merge counts its three records once; the nested calls do not.
    assert tracer.counters["api.ledger.records"] == 4
    assert tracer.counters["api.ledger.calls"] == 2
    names = [s[2] for s in tracer.spans]
    assert names.count("api.ledger") == 5
    outer = [s for s in tracer.spans if s[1] == 0]
    assert len(outer) == 2
    assert abs(tracing.busy(tracer.spans, "api.ledger")
               - sum(s[4] - s[3] for s in outer)) < 1e-12
