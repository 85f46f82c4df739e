"""Interaction traces and sequence-template conformance checking.

Every cross-element call in a run is one hop of the table below,
recorded as one trace event (tick, from, to, message, payload
digest). Conformance templates describe the two closed loops as
ordered step groups; the matcher verifies that a recorded trace is a
sequence of template instances and reports the first divergence when
it is not.

Trace file format, one JSON object per line:

    {"tick": n, "from": "...", "to": "...", "message": "...",
     "digest": "16 hex chars"}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .wire.common import encode


class Hop(NamedTuple):
    """One cross-element call that a run may record."""

    source: str
    target: str
    message: str


class hop:
    """The hop table: every (source, target, message) a run records,
    declared once. The record sites and the embedded templates both
    read it, and `Tracer.record` refuses any triple not in it."""

    # ingest, both loops: telemetry is stored, then the shadows updated
    TRANSMIT_DATA = Hop("DataProvider", "P2DAdapter", "transmitData")
    STORE_DATA = Hop("P2DAdapter", "DataManager", "storeData")
    UPDATE_SHADOWS = Hop("DataManager", "ShadowManager", "updateShadows")
    # monitoring
    UPDATE_MODEL = Hop("TwinManager", "ModelManager", "updateModel")
    EXECUTE_SIMULATION = Hop("TwinManager", "ModelManager",
                             "executeSimulation")
    STORE_SIM_RESULT = Hop("ModelManager", "DataManager", "storeSimResult")
    COMPUTE_STATE = Hop("TwinManager", "ServiceManager", "computeState")
    STORE_STATE = Hop("ServiceManager", "DataManager", "storeState")
    DELIVER_STATE = Hop("ServiceManager", "FeedbackProvider", "deliverState")
    EMIT_FEEDBACK = Hop("FeedbackProvider", "D2PAdapter", "emitFeedback")
    DELIVER_FEEDBACK = Hop("D2PAdapter", "DataReceiver", "deliverFeedback")
    # prediction
    FORECAST = Hop("TwinManager", "Predictor", "forecast")
    PREDICTED_STATES = Hop("Predictor", "DeviationDetector",
                           "predictedStates")
    DEVIATION = Hop("DeviationDetector", "SolutionFinder", "deviation")
    GEN_SCENARIO = Hop("SolutionFinder", "ScenarioGenerator", "genScenario")
    NEW_SCENARIO_SIM = Hop("Planner", "TwinManager", "newScenarioSim")
    MODEL_EXECUTION = Hop("ModelManager", "ModelEngine", "modelExecution")
    STORE_WHATIF_RESULT = Hop("ModelEngine", "DataManager", "storeSimResult")
    PLAN = Hop("Planner", "FeedbackExecutor", "plan")
    COMMAND_PLAN = Hop("FeedbackExecutor", "D2PAdapter", "commandPlan")
    DELIVER_COMMANDS = Hop("D2PAdapter", "DataReceiver", "deliverCommands")
    DEVIATION_ALERT = Hop("DeviationDetector", "FeedbackExecutor",
                          "deviationAlert")
    ALERT = Hop("FeedbackExecutor", "D2PAdapter", "alert")
    DELIVER_ALERT = Hop("D2PAdapter", "DataReceiver", "deliverAlert")


HOPS = frozenset(h for h in vars(hop).values() if isinstance(h, Hop))


def _describe_hop(source: str, target: str, message: str) -> str:
    return f"{source} -> {target}: {message}"


def payload_digest(payload: object) -> str:
    """The digest of `payload`'s text, an `Encoded` payload's as held."""
    return hashlib.sha256(encode(payload).encode("utf-8")).hexdigest()[:16]


class TraceEvent(NamedTuple):
    """One recorded hop: its tick, the hop, and its payload's digest."""

    tick: int
    source: str
    target: str
    message: str
    digest: str

    def to_json(self) -> dict:
        return {"tick": self.tick, "from": self.source, "to": self.target,
                "message": self.message, "digest": self.digest}


class Tracer:
    """Ordered event recorder for one run."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.tick = 0

    def advance(self, tick: int) -> None:
        self.tick = tick

    def record(self, source: str, target: str, message: str,
               payload: object = None) -> TraceEvent:
        if (source, target, message) not in HOPS:
            raise ValueError(f"undeclared trace hop: "
                             f"{_describe_hop(source, target, message)}")
        event = TraceEvent(self.tick, source, target, message,
                           payload_digest(payload))
        self.events.append(event)
        return event

    def digest(self) -> str:
        """Digest of the whole trace; equal traces hash equal."""
        lines = [encode(e.to_json()) for e in self.events]
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def write_jsonl(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event.to_json()) + "\n")


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TemplateStep:
    source: str
    target: str
    message: str
    optional: bool = False

    def matches(self, event: TraceEvent) -> bool:
        return (event.source == self.source and event.target == self.target
                and event.message == self.message)

    def describe(self) -> str:
        return _describe_hop(self.source, self.target, self.message)


@dataclass(frozen=True)
class StepGroup:
    name: str
    steps: tuple[TemplateStep, ...]
    optional: bool = False
    repeatable: bool = False


@dataclass(frozen=True)
class ChoiceRule:
    """Cross-group constraint checked after an instance matches.

    exactly-one-iff: exactly one option group matched iff `when`
    matched, none otherwise. only-if: option groups may match only
    when `when` matched.
    """

    when: str
    options: tuple[str, ...]
    mode: str = "exactly-one-iff"      # or "only-if"


@dataclass(frozen=True)
class SequenceTemplate:
    name: str
    groups: tuple[StepGroup, ...]
    rules: tuple[ChoiceRule, ...] = ()

    def to_json(self) -> dict:
        return {"name": self.name,
                "groups": [
                    {"name": g.name, "optional": g.optional,
                     "repeatable": g.repeatable,
                     "steps": [{"from": s.source, "to": s.target,
                                "message": s.message,
                                "optional": s.optional} for s in g.steps]}
                    for g in self.groups],
                "rules": [{"when": r.when, "options": list(r.options),
                           "mode": r.mode} for r in self.rules]}

    @classmethod
    def from_json(cls, doc: dict) -> "SequenceTemplate":
        groups = tuple(
            StepGroup(
                name=g["name"], optional=bool(g.get("optional")),
                repeatable=bool(g.get("repeatable")),
                steps=tuple(TemplateStep(
                    source=s["from"], target=s["to"], message=s["message"],
                    optional=bool(s.get("optional"))) for s in g["steps"]))
            for g in doc.get("groups", ()))
        rules = tuple(
            ChoiceRule(when=r["when"], options=tuple(r["options"]),
                       mode=r.get("mode", "exactly-one-iff"))
            for r in doc.get("rules", ()))
        return cls(name=doc.get("name", "template"), groups=groups,
                   rules=rules)


@dataclass(frozen=True)
class MatchReport:
    """A check's outcome. A failed one holds the first divergence: its
    event index (len(trace) when the trace ended early), what was there
    and what the template expected."""

    template: str
    instances: int
    index: int | None = None
    got: str | None = None
    expected: str | None = None

    @property
    def ok(self) -> bool:
        return self.expected is None

    def describe(self) -> str:
        if self.ok:
            return (f"{self.template}: Pass "
                    f"({self.instances} instance(s) matched)")
        return (f"{self.template}: Fail at event {self.index}: "
                f"got {self.got}, expected {self.expected}")


def _event_str(events: list[TraceEvent], index: int) -> str:
    if index >= len(events):
        return "end of trace"
    e = events[index]
    return _describe_hop(e.source, e.target, e.message)


def _try_group(events: list[TraceEvent], start: int,
               group: StepGroup) -> tuple[int, bool, tuple | None]:
    """Attempt one pass through the group from `start`.

    Returns (next index, entered, divergence), a divergence being
    `MatchReport`'s (index, got, expected). Once any step has been
    consumed the group is committed: a later required mismatch is a
    hard divergence, not a clean no-entry.
    """
    i = start
    consumed = False
    for step in group.steps:
        if i < len(events) and step.matches(events[i]):
            i += 1
            consumed = True
            continue
        if step.optional:
            continue
        if consumed:
            return i, False, (i, _event_str(events, i),
                              f"{step.describe()} (in group {group.name!r})")
        return start, False, None
    return i, consumed, None


def check_trace(events: list[TraceEvent],
                template: SequenceTemplate) -> MatchReport:
    """Verify that the trace is a sequence of template instances."""
    i = 0
    instances = 0

    def fail(index: int, got: str, expected: str) -> MatchReport:
        return MatchReport(template.name, instances, index, got, expected)

    while i < len(events):
        start = i
        entered: dict[str, int] = {}
        for group in template.groups:
            count = 0
            while True:
                j, ok, divergence = _try_group(events, i, group)
                if divergence is not None:
                    return fail(*divergence)
                if not ok:
                    break
                i = j
                count += 1
                if not group.repeatable:
                    break
            if count == 0 and not group.optional:
                expected = next(
                    (s for s in group.steps if not s.optional),
                    group.steps[0])
                return fail(i, _event_str(events, i),
                            f"{expected.describe()} (group {group.name!r})")
            entered[group.name] = count
        if i == start:
            return fail(i, _event_str(events, i),
                        "any template step (no progress)")
        rule_failure = _check_rules(template, entered, i)
        if rule_failure is not None:
            return fail(*rule_failure)
        instances += 1
    if instances == 0:
        return fail(0, "end of trace", "at least one template instance")
    return MatchReport(template.name, instances)


def _check_rules(template: SequenceTemplate, entered: dict[str, int],
                 index: int) -> tuple | None:
    for rule in template.rules:
        condition = entered.get(rule.when, 0) > 0
        matched = [name for name in rule.options if entered.get(name, 0) > 0]
        if rule.mode == "exactly-one-iff":
            if condition and len(matched) != 1:
                return (index, f"groups {matched or 'none'}",
                        f"exactly one of {list(rule.options)} "
                        f"after {rule.when!r}")
            if not condition and matched:
                return (index, f"groups {matched}",
                        f"none of {list(rule.options)} without {rule.when!r}")
        elif rule.mode == "only-if":
            if not condition and matched:
                return (index, f"groups {matched}",
                        f"{list(rule.options)} only after {rule.when!r}")
    return None


# ---------------------------------------------------------------------------
# Embedded loop templates
# ---------------------------------------------------------------------------

def _steps(*hops: Hop) -> tuple[TemplateStep, ...]:
    return tuple(TemplateStep(*h) for h in hops)


_INGEST_STEPS = _steps(hop.TRANSMIT_DATA, hop.STORE_DATA, hop.UPDATE_SHADOWS)


def monitoring_template() -> SequenceTemplate:
    """Per-tick monitoring sequence at the entity level."""
    return SequenceTemplate(
        name="monitoring",
        groups=(
            StepGroup("ingest", _INGEST_STEPS, optional=True,
                      repeatable=True),
            StepGroup("model", (
                TemplateStep(*hop.UPDATE_MODEL, optional=True),
                *_steps(hop.EXECUTE_SIMULATION, hop.STORE_SIM_RESULT))),
            StepGroup("state", _steps(hop.COMPUTE_STATE, hop.STORE_STATE)),
            StepGroup("feedback", _steps(
                hop.DELIVER_STATE, hop.EMIT_FEEDBACK, hop.DELIVER_FEEDBACK)),
        ))


def prediction_template() -> SequenceTemplate:
    """Whole-run prediction sequence at the component level."""
    return SequenceTemplate(
        name="prediction",
        groups=(
            StepGroup("ingest", _INGEST_STEPS, optional=True,
                      repeatable=True),
            StepGroup("forecast", _steps(hop.FORECAST, hop.PREDICTED_STATES)),
            StepGroup("deviation", _steps(hop.DEVIATION), optional=True),
            StepGroup("whatif", _steps(
                hop.GEN_SCENARIO, hop.NEW_SCENARIO_SIM, hop.MODEL_EXECUTION,
                hop.STORE_WHATIF_RESULT), optional=True, repeatable=True),
            StepGroup("plan_delivery", optional=True, steps=_steps(
                hop.PLAN, hop.COMMAND_PLAN, hop.DELIVER_COMMANDS)),
            StepGroup("alert_delivery", optional=True, steps=_steps(
                hop.DEVIATION_ALERT, hop.ALERT, hop.DELIVER_ALERT)),
        ),
        rules=(
            ChoiceRule(when="deviation",
                       options=("plan_delivery", "alert_delivery")),
            ChoiceRule(when="deviation", options=("whatif",), mode="only-if"),
        ))
