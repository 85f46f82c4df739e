"""Measurement cleaning: dedup, unit normalization, idempotence."""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from twinarch.processing import UNIT_TABLE, process
from twinarch.wire import Measurement

from conftest import ts


def m(attr="flow", value=1, t=0, entity="e1", unit=None):
    return Measurement(entity, "T", attr, value, ts(t), unit=unit)


def test_duplicates_collapse_first_wins():
    result = process([m(value=1), m(value=2), m(value=3, t=1)])
    assert [x.value for x in result.measurements] == [1, 3]
    assert result.stats.duplicates_dropped == 1
    assert result.stats.input_count == 3
    assert result.stats.output_count == 2


def test_output_sorted_by_time_entity_attribute():
    result = process([m(t=2), m(attr="a", t=0, entity="z"),
                      m(attr="b", t=0, entity="a")])
    order = [(x.observed_at, x.entity_id, x.attribute)
             for x in result.measurements]
    assert order == sorted(order)


def test_non_finite_values_dropped():
    # 1e308 m/s is finite until unit scaling makes it inf km/h
    result = process([m(value=float("nan"), t=0), m(value=float("inf"), t=1),
                      m(value=5.0, t=2), m(value=1e308, t=3, unit="m/s"),
                      m(value=10**400, t=4)])
    assert [x.value for x in result.measurements] == [5.0]
    assert result.stats.non_finite_dropped == 4
    assert result.stats.units_normalized == 0


def test_unit_conversion_to_canonical():
    # 15 m/s is 54 km/h; 1 mph is 1.609344 km/h; 250 ms is 0.25 s
    result = process([m(value=15, unit="m/s"), m(value=1.0, unit="mph", t=1),
                      m(value=250, unit="ms", t=2), m(value=30, unit="km/h", t=3),
                      m(value=7, unit="furlongs", t=4)])
    by_t = {x.observed_at: x for x in result.measurements}
    assert math.isclose(by_t[ts(0)].value, 54.0)
    assert by_t[ts(0)].unit == "km/h"
    assert math.isclose(by_t[ts(1)].value, 1.609344)
    assert math.isclose(by_t[ts(2)].value, 0.25)
    assert by_t[ts(2)].unit == "s"
    assert by_t[ts(3)].value == 30          # already canonical: untouched
    assert by_t[ts(4)].unit == "furlongs"   # unknown unit: passed through
    assert result.stats.units_normalized == 3


def test_non_numeric_values_skip_unit_conversion():
    (out,) = process([m(value="fast", unit="m/s")]).measurements
    assert out.value == "fast" and out.unit == "m/s"


_measurements = st.builds(
    m,
    attr=st.sampled_from(["flow", "speed"]),
    value=st.one_of(
        st.integers(-1000, 1000),
        st.floats(allow_nan=True, allow_infinity=True, width=32)),
    t=st.integers(0, 10),
    entity=st.sampled_from(["e1", "e2"]),
    unit=st.one_of(st.none(), st.sampled_from(sorted(UNIT_TABLE))))


@given(st.lists(_measurements, max_size=30))
def test_process_is_idempotent(raw):
    once = process(raw)
    twice = process(once.measurements)
    assert twice.measurements == once.measurements
    assert twice.stats.duplicates_dropped == 0
    assert twice.stats.non_finite_dropped == 0
    assert twice.stats.units_normalized == 0


@given(st.lists(_measurements, max_size=30))
def test_stats_account_for_every_input(raw):
    stats = process(raw).stats
    assert (stats.output_count + stats.duplicates_dropped
            + stats.non_finite_dropped == stats.input_count)
    assert all(not (isinstance(x.value, float) and not math.isfinite(x.value))
               for x in process(raw).measurements)
