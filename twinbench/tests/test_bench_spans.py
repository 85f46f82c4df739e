"""Self-time arithmetic and span attribution on hand-built span trees."""

import pytest

from spans import (Instrumentation, MissingFunctions, SpanRecorder,
                   assign_to_ops, layer_metrics, overlap, self_times, union)
from spec import metric_units

MAIN, WORKER = 1, 2


def span(name, start, end, parent=-1, thread=MAIN, count=None):
    return [name, start, end, parent, thread, count]


def test_self_time_subtracts_children_once():
    spans = [
        span("services.state", 0.0, 10.0),              # 0
        span("shadows.get", 1.0, 5.0, parent=0),        # 1
        span("storage.read", 2.0, 4.0, parent=1),       # 2
        span("storage.read", 6.0, 9.0, parent=0),       # 3
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 3.0])


def test_overlapping_children_count_once_and_are_clipped():
    spans = [
        span("storage.write", 0.0, 10.0),
        span("storage.write", 2.0, 6.0, parent=0),
        span("storage.write", 4.0, 8.0, parent=0),
        span("storage.write", 9.0, 12.0, parent=0),     # runs past parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_are_assigned_by_start():
    ops = [(0.0, 10.0), (10.0, 20.0)]
    spans = [span("a", 1, 2), span("a", 10, 11), span("a", 25, 26),
             span("a", -1, 0)]
    assert assign_to_ops(spans, ops) == [0, 1, -1, -1]


def test_layer_metrics_on_a_hand_built_tree():
    ops = [(0.0, 0.010), (0.010, 0.020)]
    spans = [
        # op 0: a state read over a shadow read over a storage read
        span("services.state", 0.001, 0.007),                   # 0
        span("shadows.get", 0.002, 0.006, parent=0, count=5),    # 1
        span("storage.read", 0.003, 0.005, parent=1, count=9),   # 2
        # op 1: a drain that waits while the worker executes
        span("simulation.wait", 0.011, 0.019),                   # 3
        span("simulation.exec", 0.012, 0.018, thread=WORKER),    # 4
        span("storage.write", 0.013, 0.014, parent=4, thread=WORKER),
        span("storage.write", 0.0135, 0.0138, parent=5,
             thread=WORKER),                                     # nested
        # outside every op: a replay and a trace check
        span("storage.replay", 0.030, 0.034),
        span("tracing.check", 0.040, 0.041),
    ]
    m = layer_metrics(spans, ops, op_thread=MAIN)
    assert m["services.state_self_ms_per_op"] == pytest.approx(2.0 / 2)
    assert m["shadows.get_self_ms_per_op"] == pytest.approx(2.0 / 2)
    assert m["storage.read_self_ms_per_op"] == pytest.approx(2.0 / 2)
    assert m["storage.read_calls_per_op"] == 0.5
    assert m["storage.read_records_per_op"] == 4.5
    assert m["shadows.points_materialized_per_op"] == 2.5
    assert m["simulation.wait_ms_per_op"] == pytest.approx(8.0 / 2)
    # the 8 ms wait holds the worker's 6 ms exec span
    assert m["simulation.handoff_ms_per_op"] == pytest.approx(2.0 / 2)
    assert m["simulation.exec_self_ms_per_op"] == pytest.approx(5.0 / 2)
    assert m["simulation.scenarios_per_op"] == 0.5
    assert m["storage.write_self_ms_per_op"] == pytest.approx(1.0 / 2)
    assert m["storage.write_calls_per_op"] == 0.5      # nested call not new
    # worker spans overlap the wait, so only op-thread spans are taken
    # from the op time: 20 ms - (6 + 8) ms
    assert m["orchestrator.self_ms_per_op"] == pytest.approx(6.0 / 2)
    assert m["storage.replay_ms"] == pytest.approx(4.0)
    assert m["tracing.check_ms"] == pytest.approx(1.0)


def test_handoff_is_the_wait_no_other_thread_covers():
    ops = [(0.0, 0.100)]
    spans = [
        span("simulation.wait", 0.010, 0.050),
        span("simulation.exec", 0.005, 0.020, thread=WORKER),  # half in
        span("simulation.exec", 0.030, 0.040, thread=WORKER),
        span("storage.write", 0.032, 0.034, parent=2, thread=WORKER),
        span("simulation.wait", 0.060, 0.070),                # no worker
    ]
    m = layer_metrics(spans, ops, op_thread=MAIN)
    assert m["simulation.wait_ms_per_op"] == pytest.approx(50.0)
    assert m["simulation.handoff_ms_per_op"] == pytest.approx(50.0 - 20.0)


def test_union_and_overlap():
    assert union([(3, 4), (0, 2), (1, 3), (6, 7)]) == [(0, 4), (6, 7)]
    assert overlap([(0, 4), (6, 7)], [(1, 2), (3, 6.5)]) == 2.5
    assert overlap([], [(0, 1)]) == 0.0


def test_layer_metrics_cover_every_declared_metric_but_two():
    m = layer_metrics([span("harness", 0.0, 0.001)], [(0.0, 0.002)], MAIN)
    declared = set(metric_units("per_layer"))
    assert declared - set(m) == {"storage.journal_bytes_per_op",
                                 "trace.overhead_pct"}
    assert set(m) <= declared


def test_instrumentation_wraps_and_restores():
    from twinarch import adapters, wire
    from twinarch.storage import Namespace, Query, SharedStorage
    original_read = SharedStorage.crud_read
    original_parse = adapters.parse_ultralight
    recorder = SpanRecorder()
    with Instrumentation(recorder):
        assert adapters.parse_ultralight is not original_parse
        assert wire.parse_ultralight is adapters.parse_ultralight
        store = SharedStorage()
        store.crud_read(Query(namespace=Namespace.STATES))
    assert SharedStorage.crud_read is original_read
    assert adapters.parse_ultralight is original_parse
    assert [(s[0], s[5]) for s in recorder.spans] == [("storage.read", 0)]


def test_a_name_the_package_lacks_stops_the_traced_run():
    from twinarch.storage import SharedStorage
    original_read = SharedStorage.crud_read
    table = [("twinarch.storage", "SharedStorage.crud_read", "x", None),
             ("twinarch.storage", "SharedStorage.no_such_method", "x", None),
             ("twinarch.storage", "no_such_function", "x", None)]
    with pytest.raises(MissingFunctions) as raised:
        with Instrumentation(SpanRecorder(), table):
            pass
    assert ("twinarch.storage.SharedStorage.no_such_method, "
            "twinarch.storage.no_such_function") in str(raised.value)
    assert SharedStorage.crud_read is original_read      # nothing wrapped
