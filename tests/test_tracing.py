"""Trace recording and sequence-template conformance matching."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import twinarch
from twinarch.catalog import load_catalog
from twinarch.clock import DEFAULT_EPOCH
from twinarch.tracing import (HOPS, ChoiceRule, Hop, SequenceTemplate,
                              StepGroup, TemplateStep, TraceEvent, Tracer,
                              check_trace, hop, monitoring_template,
                              payload_digest, prediction_template)


def ev(source, target, message, tick=0, seq=0):
    return TraceEvent(tick=tick, seq=seq, source=source, target=target,
                      message=message, digest="")


def events(*triples):
    return [ev(s, t, m, seq=i) for i, (s, t, m) in enumerate(triples)]


# --- recording ----------------------------------------------------------------

def test_digest_is_stable_and_sixteen_hex_chars():
    a = payload_digest({"b": 1, "a": 2})
    b = payload_digest({"a": 2, "b": 1})
    assert a == b and len(a) == 16 and int(a, 16) >= 0
    assert payload_digest({"a": 3}) != a


def test_digest_refuses_a_value_json_cannot_hold():
    # no `default=str`: an instant is traced as its RFC 3339 text, never
    # as whatever `str` makes of it
    with pytest.raises(TypeError):
        payload_digest({"at": DEFAULT_EPOCH})


def test_tracer_validates_elements_against_the_catalog():
    tracer = Tracer()
    tracer.advance(3)
    event = tracer.record("TwinManager", "ModelManager", "executeSimulation",
                          payload={"x": 1})
    assert event.tick == 3 and event.seq == 0
    with pytest.raises(ValueError):
        tracer.record("TwinManager", "Nobody", "hello")
    with pytest.raises(ValueError):
        tracer.record("Nobody", "TwinManager", "hello")
    # two catalog elements, but not a declared hop
    with pytest.raises(ValueError, match="undeclared"):
        tracer.record("TwinManager", "ModelManager", "hello")
    assert len(tracer.events) == 1


# --- hop table ------------------------------------------------------------------

def test_hop_table_declares_each_hop_once_between_catalog_elements():
    entries = [h for h in vars(hop).values() if isinstance(h, Hop)]
    assert len(entries) == len(HOPS) == 24
    catalog = load_catalog()
    elements = ({e.name for e in catalog.entities}
                | {c.name for c in catalog.components})
    for declared in HOPS:
        assert {declared.source, declared.target} <= elements, declared


def test_embedded_template_steps_are_table_hops():
    for template in (monitoring_template(), prediction_template()):
        for group in template.groups:
            for step in group.steps:
                assert (step.source, step.target, step.message) in HOPS, step


def test_no_record_call_spells_a_hop_inline():
    # a new hop goes into the table; a literal at a call site would be
    # a second copy nothing keeps in step with the templates
    inline = []
    for path in sorted(Path(twinarch.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record"):
                continue
            args = node.args[:3] + [kw.value for kw in node.keywords
                                    if kw.arg in ("source", "target",
                                                  "message")]
            if any(isinstance(arg, ast.JoinedStr)
                   or (isinstance(arg, ast.Constant)
                       and isinstance(arg.value, str)) for arg in args):
                inline.append(f"{path.name}:{node.lineno}")
    assert inline == []


def test_trace_file_round_trip(tmp_path):
    tracer = Tracer()
    tracer.record("TwinManager", "ModelManager", "executeSimulation",
                  payload={"x": 1})
    tracer.advance(1)
    tracer.record("ModelManager", "DataManager", "storeSimResult")
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines[0] == {"tick": 0, "from": "TwinManager",
                        "to": "ModelManager", "message": "executeSimulation",
                        "digest": lines[0]["digest"]}
    assert lines == [e.to_json() for e in tracer.events]
    # equal traces hash equal, different traces do not
    other = Tracer()
    other.record("TwinManager", "ModelManager", "executeSimulation",
                 payload={"x": 1})
    assert other.digest() != tracer.digest()


# --- matcher ------------------------------------------------------------------

SIMPLE = SequenceTemplate(name="simple", groups=(
    StepGroup("go", (
        TemplateStep("TwinManager", "ModelManager", "m1"),
        TemplateStep("ModelManager", "DataManager", "m2"),
    )),
))


def test_simple_template_counts_instances():
    trace = events(("TwinManager", "ModelManager", "m1"),
                   ("ModelManager", "DataManager", "m2"),
                   ("TwinManager", "ModelManager", "m1"),
                   ("ModelManager", "DataManager", "m2"))
    report = check_trace(trace, SIMPLE)
    assert report.ok and report.instances == 2
    assert report.describe() == "simple: Pass (2 instance(s) matched)"


def test_empty_trace_is_a_failure():
    report = check_trace([], SIMPLE)
    assert not report.ok
    assert report.expected == "at least one template instance"


def test_mismatch_after_commitment_is_a_divergence():
    trace = events(("TwinManager", "ModelManager", "m1"),
                   ("TwinManager", "ModelManager", "m1"))
    report = check_trace(trace, SIMPLE)
    assert not report.ok
    assert report.index == 1
    assert "ModelManager -> DataManager: m2" in report.expected
    assert "group 'go'" in report.expected
    assert "Fail at event 1" in report.describe()


def test_truncated_trace_reports_end_of_trace():
    report = check_trace(events(("TwinManager", "ModelManager", "m1")), SIMPLE)
    assert not report.ok
    assert report.got == "end of trace"


def test_required_group_missing_is_a_divergence():
    template = SequenceTemplate(name="t", groups=(
        StepGroup("a", (TemplateStep("TwinManager", "ModelManager", "m1"),),
                  optional=True),
        StepGroup("b", (TemplateStep("ModelManager", "DataManager", "m2"),)),
    ))
    report = check_trace(events(("TwinManager", "ModelManager", "m1"),
                                ("TwinManager", "ModelManager", "m1")),
                         template)
    assert not report.ok
    assert "group 'b'" in report.expected


def test_unmatchable_event_fails_without_progress():
    template = SequenceTemplate(name="t", groups=(
        StepGroup("a", (TemplateStep("TwinManager", "ModelManager", "m1"),),
                  optional=True),
    ))
    report = check_trace(events(("DataManager", "ShadowManager", "junk")),
                         template)
    assert not report.ok
    assert report.expected == "any template step (no progress)"


def test_optional_steps_and_repeatable_groups():
    template = SequenceTemplate(name="t", groups=(
        StepGroup("burst", (
            TemplateStep("DataProvider", "P2DAdapter", "transmitData"),
            TemplateStep("P2DAdapter", "DataManager", "storeData",
                         optional=True),
        ), repeatable=True),
        StepGroup("close", (
            TemplateStep("TwinManager", "ServiceManager", "computeState"),
        )),
    ))
    trace = events(("DataProvider", "P2DAdapter", "transmitData"),
                   ("P2DAdapter", "DataManager", "storeData"),
                   ("DataProvider", "P2DAdapter", "transmitData"),
                   ("TwinManager", "ServiceManager", "computeState"))
    report = check_trace(trace, template)
    assert report.ok and report.instances == 1


# --- embedded templates ---------------------------------------------------------

def monitoring_instance(with_ingest=True, with_update=False):
    steps = []
    if with_ingest:
        steps += [("DataProvider", "P2DAdapter", "transmitData"),
                  ("P2DAdapter", "DataManager", "storeData"),
                  ("DataManager", "ShadowManager", "updateShadows")]
    if with_update:
        steps.append(("TwinManager", "ModelManager", "updateModel"))
    steps += [("TwinManager", "ModelManager", "executeSimulation"),
              ("ModelManager", "DataManager", "storeSimResult"),
              ("TwinManager", "ServiceManager", "computeState"),
              ("ServiceManager", "DataManager", "storeState"),
              ("ServiceManager", "FeedbackProvider", "deliverState"),
              ("FeedbackProvider", "D2PAdapter", "emitFeedback"),
              ("D2PAdapter", "DataReceiver", "deliverFeedback")]
    return steps


def test_monitoring_template_accepts_only_store_first_ingest():
    default = events(*(monitoring_instance(with_update=True)
                       + monitoring_instance(with_ingest=False)))
    report = check_trace(default, monitoring_template())
    assert report.ok and report.instances == 2
    # shadows fed straight from the adapter: no connector in the catalog
    steps = monitoring_instance(with_update=True)
    steps[1:3] = [("P2DAdapter", "ShadowManager", "updateShadows"),
                  ("P2DAdapter", "DataManager", "storeData")]
    assert not check_trace(events(*steps), monitoring_template()).ok


def test_monitoring_swapped_adjacent_events_diverge():
    steps = monitoring_instance()
    steps[1], steps[2] = steps[2], steps[1]
    report = check_trace(events(*steps), monitoring_template())
    assert not report.ok
    assert report.index == 1
    assert "storeData" in report.expected


def test_feedback_group_optional_only_when_flagged():
    quiet = events(*monitoring_instance()[:-3])
    assert not check_trace(quiet, monitoring_template()).ok
    # a manifest's check_template may flag the group optional
    doc = monitoring_template().to_json()
    (feedback,) = [g for g in doc["groups"] if g["name"] == "feedback"]
    feedback["optional"] = True
    assert check_trace(quiet, SequenceTemplate.from_json(doc)).ok


def prediction_events(deviation=True, whatif=2, plan=True, alert=False):
    steps = [("DataProvider", "P2DAdapter", "transmitData"),
             ("P2DAdapter", "DataManager", "storeData"),
             ("DataManager", "ShadowManager", "updateShadows"),
             ("TwinManager", "Predictor", "forecast"),
             ("Predictor", "DeviationDetector", "predictedStates")]
    if deviation:
        steps.append(("DeviationDetector", "SolutionFinder", "deviation"))
    for _ in range(whatif):
        steps += [("SolutionFinder", "ScenarioGenerator", "genScenario"),
                  ("Planner", "TwinManager", "newScenarioSim"),
                  ("ModelManager", "ModelEngine", "modelExecution"),
                  ("ModelEngine", "DataManager", "storeSimResult")]
    if plan:
        steps += [("Planner", "FeedbackExecutor", "plan"),
                  ("FeedbackExecutor", "D2PAdapter", "commandPlan"),
                  ("D2PAdapter", "DataReceiver", "deliverCommands")]
    if alert:
        steps += [("DeviationDetector", "FeedbackExecutor", "deviationAlert"),
                  ("FeedbackExecutor", "D2PAdapter", "alert"),
                  ("D2PAdapter", "DataReceiver", "deliverAlert")]
    return events(*steps)


def test_prediction_template_happy_paths():
    plan_path = check_trace(prediction_events(), prediction_template())
    assert plan_path.ok and plan_path.instances == 1
    alert_path = check_trace(
        prediction_events(whatif=0, plan=False, alert=True),
        prediction_template())
    assert alert_path.ok
    healthy = check_trace(
        prediction_events(deviation=False, whatif=0, plan=False),
        prediction_template())
    assert healthy.ok


def test_prediction_choice_rules():
    template = prediction_template()
    # a deviation must be answered by exactly one delivery
    silent = check_trace(prediction_events(plan=False), template)
    assert not silent.ok and "exactly one" in silent.expected
    both = check_trace(prediction_events(plan=True, alert=True), template)
    assert not both.ok
    # no deviation: no deliveries allowed
    spurious = check_trace(
        prediction_events(deviation=False, whatif=0, plan=True), template)
    assert not spurious.ok
    # what-if simulation only after a deviation
    unprompted = check_trace(
        prediction_events(deviation=False, whatif=1, plan=False), template)
    assert not unprompted.ok
    assert "only after" in unprompted.expected


# --- template JSON -----------------------------------------------------------

def test_templates_round_trip_through_json():
    for template in (monitoring_template(), prediction_template(), SIMPLE):
        doc = json.loads(json.dumps(template.to_json()))
        assert SequenceTemplate.from_json(doc) == template
