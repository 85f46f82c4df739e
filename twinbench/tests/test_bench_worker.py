"""The worker prints exactly the metrics BENCHMARK.json declares."""

import pytest

from spec import as_metrics, metric_units
from worker import block_medians_ms, end_to_end, layer_shares
from workloads import Session


def _session(start: float, op_ms: float, n: int = 20) -> Session:
    ops = [(start + i * op_ms / 1e3, start + (i + 1) * op_ms / 1e3)
           for i in range(n)]
    return Session(ops=ops, build_s=0.001, replay_lines=10, replay_s=0.002,
                   steps=[end - begin for begin, end in ops])


def test_end_to_end_names_are_the_declared_ones_but_setup():
    values = end_to_end([_session(0.0, 1.0), _session(1.0, 2.0)], 30.0)
    units = metric_units("end_to_end")
    assert set(values) | {"setup_s"} == set(units)
    assert "setup_s" not in values


def test_as_metrics_refuses_undeclared_or_missing_names():
    units = {"a": "ms", "b": "s"}
    assert as_metrics({"a": 1.0, "b": 2.0}, units) == {
        "a": {"value": 1.0, "unit": "ms"}, "b": {"value": 2.0, "unit": "s"}}
    with pytest.raises(KeyError):
        as_metrics({"a": 1.0}, units)
    with pytest.raises(KeyError):
        as_metrics({"a": 1.0, "b": 2.0, "c": 3.0}, units)


def test_block_medians_follow_the_sessions_in_time_order():
    # session i takes 1 + i ms per op; blocks of two, the odd one out
    # joining the last block
    sessions = [_session(i, 1.0 + i) for i in range(11)]
    assert block_medians_ms(sessions) == pytest.approx(
        [1.5, 3.5, 5.5, 7.5, 10.0])
    assert block_medians_ms(sessions[:7]) == pytest.approx(
        [1.0, 2.0, 3.5, 5.0, 6.5])
    assert block_medians_ms(sessions[:3]) == pytest.approx([1.0, 2.0, 3.0])


def test_layer_shares_count_the_wait_only_as_its_handoff():
    shares = layer_shares({"simulation.wait_ms_per_op": 8.0,
                           "simulation.handoff_ms_per_op": 2.0,
                           "simulation.exec_self_ms_per_op": 6.0,
                           "storage.read_calls_per_op": 3.0})
    assert shares == {"simulation.exec": 0.75, "simulation.handoff": 0.25}
