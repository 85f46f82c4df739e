"""Physical harness: schedule, actuation latency, faults, command intake."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from twinarch.harness import (Fault, FaultKind, HarnessConfig,
                              PhysicalHarness)
from twinarch.wire import Source, parse_ultralight

from conftest import ts


def harness(**kwargs):
    defaults = dict(device_id="TLF01", schedule=((1, 20.0), (2, 30.0),
                                                 (3, 40.0)))
    defaults.update(kwargs)
    return PhysicalHarness(HarnessConfig(**defaults), clock=ts)


def flows(payloads):
    out = []
    for p in payloads:
        (m,) = parse_ultralight(p, "TLF01", ts(0),
                                attribute_map={"f": "vehicleFlow"})
        out.append(m.value)
    return out


def test_schedule_emits_only_on_scheduled_ticks():
    h = harness()
    assert flows(h.emit(1)) == [20]
    assert h.emit(4) == []           # unscheduled tick: silence
    assert h.emitted_flows == [(1, 20.0)]


def test_config_validation():
    with pytest.raises(ValueError):
        HarnessConfig(device_id="d", latency=-1)
    with pytest.raises(ValueError):
        HarnessConfig(device_id="d", schedule=((3, 1.0), (1, 1.0)))


def test_payload_carries_short_key_and_timestamp():
    h = harness()
    (payload,) = h.emit(2)
    assert payload == "f|30"
    ngsi = harness(format=Source.NGSI_LD, entity_type="TrafficFlowObserved")
    (doc,) = [json.loads(p) for p in ngsi.emit(2)]
    assert doc["vehicleFlow"] == {"value": 30,
                                  "observedAt": "2024-12-10T12:00:02Z"}


def command(name, args, correlation="c1"):
    return json.dumps({"device": "TLF01", "command": name, "args": args,
                       "correlationId": correlation,
                       "issuedAt": "2024-12-10T12:00:00Z"})


def test_commands_apply_next_tick_plus_latency():
    h = harness(latency=1)
    h.emit(1)
    ack = h.receive(command("extend-green", {"seconds": 5}))
    assert ack == {"status": "ok", "correlationId": "c1"}
    assert flows(h.emit(2)) == [30]      # in flight: 1 + 1 + 1 = tick 3
    assert flows(h.emit(3)) == [35.0]    # 40 - 1.0 * 5
    assert h.actuator.applied_at == 3
    assert h.actuator.last_correlation_id == "c1"


def test_later_command_wins_on_the_same_tick():
    h = harness()
    h.emit(1)
    h.receive(command("extend-green", {"seconds": 5}, "c1"))
    h.receive(command("extend-green", {"seconds": 10}, "c2"))
    assert flows(h.emit(2)) == [20.0]    # 30 - 10
    assert h.actuator.last_correlation_id == "c2"


def test_divert_scales_after_green_subtraction():
    h = harness(response_gain=2.0)
    h.emit(1)
    h.receive(command("extend-green", {"seconds": 5}, "c1"))
    h.receive(command("divert-traffic", {"fraction": 0.5}, "c2"))
    # (30 - 2 * 5) * (1 - 0.5) = 10
    assert flows(h.emit(2)) == [10]
    # flow never goes negative
    h.receive(command("extend-green", {"seconds": 1000}, "c3"))
    assert flows(h.emit(3)) == [0]


def test_fault_injection_drop_corrupt_delay():
    h = harness(faults=(Fault(1, FaultKind.DROP),
                        Fault(2, FaultKind.CORRUPT),
                        Fault(3, FaultKind.DELAY, param=2)))
    assert h.emit(1) == []
    assert h.emitted_flows == [(1, 20.0)]   # dropped payloads still count
    (corrupt,) = h.emit(2)
    assert corrupt.endswith("\x00|") and corrupt != "f|30"
    assert h.emit(3) == []
    assert flows(h.emit(5)) == [40]          # the delayed payload arrives
    assert [t for t, _ in h.emitted_flows] == [1, 2, 3]


def test_notifications_are_stored_not_actuated():
    h = harness()
    ack = h.receive(json.dumps({"notification": "congestion ahead",
                                "severity": "Warning",
                                "correlationId": "n1"}))
    assert ack == {"status": "ok", "correlationId": "n1"}
    assert h.notifications[0]["notification"] == "congestion ahead"
    assert flows(h.emit(1)) == [20]          # unchanged emission


def test_malformed_commands_ack_with_error():
    h = harness()
    bad = ["not json",
           json.dumps([1, 2]),
           json.dumps({"device": "d"}),
           command("extend-green", {}),
           command("divert-traffic", {"fraction": 2.0}),
           command("divert-traffic", {}),
           # a boolean is not a number
           command("extend-green", {"seconds": True}),
           command("divert-traffic", {"fraction": True}),
           # nor is NaN, an infinity or an int beyond a float's range
           command("extend-green", {"seconds": float("nan")}),
           command("extend-green", {"seconds": float("inf")}),
           command("extend-green", {"seconds": 10**400}),
           command("repaint-road", {}),
           command("echo-state", {"attribute": "x"}),
           json.dumps({"device": "d", "command": "extend-green",
                       "args": "not a dict", "correlationId": "c",
                       "issuedAt": "t"})]
    for payload in bad:
        ack = h.receive(payload)
        assert ack["status"] == "error" and ack["detail"]
    assert len(h.acks) == len(bad)           # every receive acks exactly once
    assert flows(h.emit(1)) == [20]          # nothing actuated


@given(seed=st.integers(0, 2**16), sigma=st.floats(0.1, 5.0))
def test_jitter_is_deterministic_per_seed(seed, sigma):
    a = harness(jitter_sigma=sigma, seed=seed)
    b = harness(jitter_sigma=sigma, seed=seed)
    assert [a.emit(t) for t in range(1, 4)] == [b.emit(t)
                                                for t in range(1, 4)]
    assert a.emitted_flows == b.emitted_flows
    assert a.emitted_flows != [(1, 20.0), (2, 30.0), (3, 40.0)]  # jittered


def test_closing_the_loop_reduces_emitted_flow():
    h = harness(schedule=tuple((t, 50.0) for t in range(1, 6)))
    baseline = PhysicalHarness(h.config, clock=ts)
    for t in range(1, 3):
        assert h.emit(t) == baseline.emit(t)
    h.receive(command("extend-green", {"seconds": 20}))
    for t in range(3, 6):
        h.emit(t), baseline.emit(t)
    commanded = dict(h.emitted_flows)
    untouched = dict(baseline.emitted_flows)
    assert all(commanded[t] < untouched[t] for t in range(3, 6))
