"""Interaction traces and sequence-template conformance checking.

Every cross-element call in a run is recorded as one trace event
(tick, from, to, message, payload digest). Conformance templates
describe the two closed loops as ordered step groups; the matcher
verifies that a recorded trace is a sequence of template instances and
reports the first divergence when it is not.

Trace file format, one JSON object per line:

    {"tick": n, "from": "...", "to": "...", "message": "...",
     "digest": "16 hex chars"}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import load_catalog


def payload_digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    seq: int
    source: str
    target: str
    message: str
    digest: str

    def to_json(self) -> dict:
        return {"tick": self.tick, "from": self.source, "to": self.target,
                "message": self.message, "digest": self.digest}


_KNOWN_ELEMENTS: frozenset[str] | None = None


def _known_elements() -> frozenset[str]:
    global _KNOWN_ELEMENTS
    if _KNOWN_ELEMENTS is None:
        cat = load_catalog()
        _KNOWN_ELEMENTS = frozenset(
            [e.name for e in cat.entities] + [c.name for c in cat.components])
    return _KNOWN_ELEMENTS


class Tracer:
    """Ordered event recorder for one run."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.tick = 0

    def advance(self, tick: int) -> None:
        self.tick = tick

    def record(self, source: str, target: str, message: str,
               payload: object = None) -> TraceEvent:
        known = _known_elements()
        if source not in known or target not in known:
            raise ValueError(
                f"trace elements must come from the catalog: "
                f"{source!r} -> {target!r}")
        event = TraceEvent(tick=self.tick, seq=len(self.events),
                           source=source, target=target, message=message,
                           digest=payload_digest(payload))
        self.events.append(event)
        return event

    def digest(self) -> str:
        """Digest of the whole trace; equal traces hash equal."""
        lines = [json.dumps(e.to_json(), sort_keys=True) for e in self.events]
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
        return f"{self.source} -> {self.target}: {self.message}"


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
class Divergence:
    index: int                  # event index, or len(trace) when truncated
    got: str
    expected: str

    def describe(self) -> str:
        return f"at event {self.index}: got {self.got}, expected {self.expected}"


@dataclass(frozen=True)
class MatchReport:
    template: str
    ok: bool
    instances: int
    divergence: Divergence | None = None

    def describe(self) -> str:
        if self.ok:
            return (f"{self.template}: Pass "
                    f"({self.instances} instance(s) matched)")
        return f"{self.template}: Fail {self.divergence.describe()}"


def _event_str(events: list[TraceEvent], index: int) -> str:
    if index >= len(events):
        return "end of trace"
    e = events[index]
    return f"{e.source} -> {e.target}: {e.message}"


def _try_group(events: list[TraceEvent], start: int,
               group: StepGroup) -> tuple[int, bool, Divergence | None]:
    """Attempt one pass through the group from `start`.

    Returns (next index, entered, divergence). Once any step has been
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
            return i, False, Divergence(
                index=i, got=_event_str(events, i),
                expected=f"{step.describe()} (in group {group.name!r})")
        return start, False, None
    return i, consumed, None


def check_trace(events: list[TraceEvent],
                template: SequenceTemplate) -> MatchReport:
    """Verify that the trace is a sequence of template instances."""
    i = 0
    instances = 0
    while i < len(events):
        start = i
        entered: dict[str, int] = {}
        for group in template.groups:
            count = 0
            while True:
                j, ok, divergence = _try_group(events, i, group)
                if divergence is not None:
                    return MatchReport(template=template.name, ok=False,
                                       instances=instances,
                                       divergence=divergence)
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
                return MatchReport(
                    template=template.name, ok=False, instances=instances,
                    divergence=Divergence(
                        index=i, got=_event_str(events, i),
                        expected=f"{expected.describe()} "
                                 f"(group {group.name!r})"))
            entered[group.name] = count
        if i == start:
            return MatchReport(
                template=template.name, ok=False, instances=instances,
                divergence=Divergence(
                    index=i, got=_event_str(events, i),
                    expected="any template step (no progress)"))
        rule_failure = _check_rules(template, entered, i, events)
        if rule_failure is not None:
            return MatchReport(template=template.name, ok=False,
                               instances=instances, divergence=rule_failure)
        instances += 1
    if instances == 0:
        return MatchReport(
            template=template.name, ok=False, instances=0,
            divergence=Divergence(index=0, got="end of trace",
                                  expected="at least one template instance"))
    return MatchReport(template=template.name, ok=True, instances=instances)


def _check_rules(template: SequenceTemplate, entered: dict[str, int],
                 index: int, events: list[TraceEvent]) -> Divergence | None:
    for rule in template.rules:
        condition = entered.get(rule.when, 0) > 0
        matched = [name for name in rule.options if entered.get(name, 0) > 0]
        if rule.mode == "exactly-one-iff":
            if condition and len(matched) != 1:
                return Divergence(
                    index=index, got=f"groups {matched or 'none'}",
                    expected=f"exactly one of {list(rule.options)} "
                             f"after {rule.when!r}")
            if not condition and matched:
                return Divergence(
                    index=index, got=f"groups {matched}",
                    expected=f"none of {list(rule.options)} "
                             f"without {rule.when!r}")
        elif rule.mode == "only-if":
            if not condition and matched:
                return Divergence(
                    index=index, got=f"groups {matched}",
                    expected=f"{list(rule.options)} only after {rule.when!r}")
    return None


# ---------------------------------------------------------------------------
# Embedded loop templates
# ---------------------------------------------------------------------------

# telemetry is stored first, then the shadows are updated from it
_INGEST_STEPS = (
    TemplateStep("DataProvider", "P2DAdapter", "transmitData"),
    TemplateStep("P2DAdapter", "DataManager", "storeData"),
    TemplateStep("DataManager", "ShadowManager", "updateShadows"),
)


def monitoring_template() -> SequenceTemplate:
    """Per-tick monitoring sequence at the entity level."""
    return SequenceTemplate(
        name="monitoring",
        groups=(
            StepGroup("ingest", _INGEST_STEPS, optional=True,
                      repeatable=True),
            StepGroup("model", (
                TemplateStep("TwinManager", "ModelManager", "updateModel",
                             optional=True),
                TemplateStep("TwinManager", "ModelManager",
                             "executeSimulation"),
                TemplateStep("ModelManager", "DataManager", "storeSimResult"),
            )),
            StepGroup("state", (
                TemplateStep("TwinManager", "ServiceManager", "computeState"),
                TemplateStep("ServiceManager", "DataManager", "storeState"),
            )),
            StepGroup("feedback", (
                TemplateStep("ServiceManager", "FeedbackProvider",
                             "deliverState"),
                TemplateStep("FeedbackProvider", "D2PAdapter", "emitFeedback"),
                TemplateStep("D2PAdapter", "DataReceiver", "deliverFeedback"),
            )),
        ))


def prediction_template() -> SequenceTemplate:
    """Whole-run prediction sequence at the component level."""
    return SequenceTemplate(
        name="prediction",
        groups=(
            StepGroup("ingest", _INGEST_STEPS, optional=True,
                      repeatable=True),
            StepGroup("forecast", (
                TemplateStep("TwinManager", "Predictor", "forecast"),
                TemplateStep("Predictor", "DeviationDetector",
                             "predictedStates"),
            )),
            StepGroup("deviation", (
                TemplateStep("DeviationDetector", "SolutionFinder",
                             "deviation"),
            ), optional=True),
            StepGroup("whatif", (
                TemplateStep("SolutionFinder", "ScenarioGenerator",
                             "genScenario"),
                TemplateStep("Planner", "TwinManager", "newScenarioSim"),
                TemplateStep("TwinManager", "ModelManager", "updateModel",
                             optional=True),
                TemplateStep("ModelManager", "ModelEngine", "modelExecution"),
                TemplateStep("ModelEngine", "DataManager", "storeSimResult"),
            ), optional=True, repeatable=True),
            StepGroup("plan_delivery", (
                TemplateStep("Planner", "FeedbackExecutor", "plan"),
                TemplateStep("FeedbackExecutor", "D2PAdapter", "commandPlan"),
                TemplateStep("D2PAdapter", "DataReceiver", "deliverCommands"),
            ), optional=True),
            StepGroup("alert_delivery", (
                TemplateStep("DeviationDetector", "FeedbackExecutor",
                             "deviationAlert"),
                TemplateStep("FeedbackExecutor", "D2PAdapter", "alert"),
                TemplateStep("D2PAdapter", "DataReceiver", "deliverAlert"),
            ), optional=True),
        ),
        rules=(
            ChoiceRule(when="deviation",
                       options=("plan_delivery", "alert_delivery")),
            ChoiceRule(when="deviation", options=("whatif",), mode="only-if"),
        ))
