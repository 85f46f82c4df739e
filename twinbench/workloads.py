"""The benchmark's three workloads: seeded inputs, sessions, checks.

Each workload turns `--seed` into its inputs (the program sees only
those), then runs sessions: a fresh set of twinarch objects, a fixed
number of timed ops, and the checks of that session's outputs. All
sessions of one run are alike, so any count per op is exact.

* monitoring-history: one op is one monitoring tick; a session is one
  `TwinManager.run_monitoring()` over `MONITORING_TICKS` ticks with
  Ultralight telemetry on every tick, journal on.
* prediction-search: one op is one whole `run_prediction()` on a fresh
  `TwinManager`, over `CANDIDATES` seeded candidates.
* ingest-replay: one op is one payload through `P2DAdapter.ingest` and
  `ShadowManager.update_from_measurement`; a session ingests the
  seeded payloads of eight devices into a fresh journaled store and
  ends with a replay of that journal.

The generators below use the standard library only; everything that
touches twinarch is imported inside the session classes.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import product
from pathlib import Path

BENCH_EPOCH = datetime(2024, 12, 10, 12, 0, 0, tzinfo=timezone.utc)

MONITORING_TICKS = 300
CANDIDATES = 48            # 6 divert-only + 6 extend-only + 36 both
WHATIF_HORIZON = 120
INGEST_TICKS = 50          # each of the eight devices reports once a tick
# The ingest traffic mix is a coverage choice, not measured traffic:
# nothing in the repository records how often real devices send late,
# resent or self-repeating payloads. Each share gives one path a small,
# fixed weight in every session, so a gain found only on that path
# moves the ingest-replay numbers only as far as that weight.
LATE_SHARE = 0.08          # observed before the newest point: shadows'
                           # `late` flag on the update path
REPEAT_SHARE = 0.05        # a payload sent again: the same record keys,
                           # so upsert takes the crud_update branch
DUPLICATE_KEY_SHARE = 0.10  # an Ultralight key twice in one payload:
                            # processing's duplicate drop

UL_DEVICES = tuple(f"UL{i:02d}" for i in range(1, 5))
NGSI_DEVICES = tuple(f"urn:ngsi-ld:TrafficFlowObserved:NG{i:02d}"
                     for i in range(1, 5))

# The demo run wiring (configs/demo), copied so the benchmark's inputs
# stay fixed when the demo changes.
_MODEL = {"model_id": "traffic-flow-tlf01", "kind": "traffic-flow",
          "parameters": {"capacity": 30.0, "inflow_gain": 1.0,
                         "green_sensitivity": 1.5},
          "inputs": ["inflow"], "outputs": ["density"]}
_SHADOWS = [{"name": "traffic", "attributes": ["vehicleFlow"],
             "entity_type": "TrafficSensor"}]
_ADAPTER = {"format": "ultralight", "attribute_map": {"f": "vehicleFlow"},
            "entity_type": "TrafficSensor"}
_HARNESS = {"device_id": "TLF01", "format": "ultralight",
            "entity_type": "TrafficSensor", "attribute": "vehicleFlow",
            "short_key": "f", "latency": 0, "response_gain": 1.0, "seed": 0}
_DENSITY_BAND = {"lo": 0.0, "hi": 0.7, "critical_multiplier": 0.5}
_DEMO_PREDICTION_SCHEDULE = [
    [1, 20], [2, 22], [3, 24], [4, 26], [5, 28], [6, 30], [7, 32], [8, 34],
    [9, 36], [10, 38], [11, 40], [12, 42], [13, 64], [14, 64], [15, 64]]


def _run_section(max_ticks: int, horizon: int, sim_horizon: int,
                 alert_metric: str, alert: str) -> dict:
    return {"entity_id": "TLF01", "tick_interval": 1.0,
            "max_ticks": max_ticks, "horizon": horizon,
            "low_latency_ingest": False, "feedback_on_change_only": False,
            "model": _MODEL,
            "sim": {"objective_metric": "density",
                    "input_metric": "vehicleFlow", "input_name": "inflow",
                    "horizon": sim_horizon, "step_size": 1.0, "seed": 0},
            "predictor": {"method": "linear", "window": 10, "min_window": 3},
            "shadow_types": _SHADOWS, "adapter": _ADAPTER,
            "feedback": {"alert_templates": {alert_metric: alert},
                         "display_names": {"TLF01": "Main Street"},
                         "ok_message": "traffic flowing normally"}}


# ---------------------------------------------------------------------------
# Input generators (seeded, standard library only)
# ---------------------------------------------------------------------------

def monitoring_schedule(seed: int, ticks: int = MONITORING_TICKS) -> list:
    """Vehicle flow on every tick, alternating surges above the
    intersection's capacity (30) with calm spells below it, so the
    simulated density crosses the 0.7 band edge both ways."""
    rng = random.Random(f"monitoring-history/{seed}")
    flows: list[int] = []
    surge = rng.random() < 0.5
    while len(flows) < ticks:
        lo, hi = (36, 48) if surge else (12, 26)
        flows.extend(rng.randint(lo, hi) for _ in range(rng.randint(8, 24)))
        surge = not surge
    return [[tick, flows[tick - 1]] for tick in range(1, ticks + 1)]


def monitoring_manifest(seed: int) -> dict:
    return {"harness": dict(_HARNESS, schedule=monitoring_schedule(seed)),
            "run": _run_section(
                MONITORING_TICKS, 5, 10, "density",
                "High congestion detected on {name}; notify drivers to "
                "avoid the area"),
            "thresholds": {"bands": {"density": _DENSITY_BAND,
                                     "vehicleFlow": {"lo": 0.0,
                                                     "hi": 1000.0}}}}


def prediction_candidates(seed: int) -> list[dict]:
    """A shuffled grid of divert fractions and green extensions. Each
    value is drawn from its own slice of the range, so the strongest
    candidates always bring the density back into its band."""
    rng = random.Random(f"prediction-search/{seed}")
    fractions = [round(rng.uniform(0.05 + 0.1 * i, 0.15 + 0.1 * i), 2)
                 for i in range(6)]
    seconds = [rng.randint(2 + 5 * i, 6 + 5 * i) for i in range(6)]

    def divert(f):
        return {"name": "divert-traffic", "target": "TLF01",
                "args": {"fraction": f}}

    def extend(s):
        return {"name": "extend-green", "target": "TLF01",
                "args": {"seconds": s}}

    plans = ([[divert(f)] for f in fractions]
             + [[extend(s)] for s in seconds]
             + [[divert(f), extend(s)] for f, s in product(fractions,
                                                           seconds)])
    rng.shuffle(plans)
    return [{"id": f"c{i:02d}", "actions": actions}
            for i, actions in enumerate(plans)]


def prediction_manifest(seed: int) -> dict:
    return {"harness": dict(_HARNESS, schedule=_DEMO_PREDICTION_SCHEDULE),
            "run": _run_section(
                12, 10, WHATIF_HORIZON, "vehicleFlow",
                "Heavy traffic expected on {name}; notify drivers to "
                "avoid the area"),
            "thresholds": {"bands": {
                "vehicleFlow": {"lo": 0.0, "hi": 43.0,
                                "critical_multiplier": 0.5},
                "density": _DENSITY_BAND}},
            "candidates": {"candidates": prediction_candidates(seed)}}


@dataclass(frozen=True)
class Payload:
    format: str           # "ultralight" or "ngsi-ld"
    device: str
    text: str
    offset_s: float       # observation time, seconds after BENCH_EPOCH
    decoded: int          # measurements the payload encodes
    stored: int           # measurements left after dropping repeated keys


def _stamp(offset_s: float) -> str:
    at = BENCH_EPOCH + timedelta(seconds=offset_s)
    frac = f".{at.microsecond:06d}".rstrip("0") if at.microsecond else ""
    return at.strftime("%Y-%m-%dT%H:%M:%S") + frac + "Z"


def _ultralight(rng: random.Random, device: str, offset_s: float) -> Payload:
    text = f"f|{rng.randint(5, 80)}|s|{rng.randint(10, 90)}"
    if rng.random() < DUPLICATE_KEY_SHARE:
        # a repeated key inside one payload; processing keeps the first
        text += f"|f|{rng.randint(5, 80)}"
        return Payload("ultralight", device, text, offset_s, 3, 2)
    return Payload("ultralight", device, text, offset_s, 2, 2)


def _ngsi_ld(rng: random.Random, device: str, offset_s: float) -> Payload:
    stamp = _stamp(offset_s)
    doc = {"id": device, "type": "TrafficFlowObserved",
           "vehicleFlow": {"value": rng.randint(5, 80), "observedAt": stamp},
           # m/s, so processing converts every speed to km/h
           "averageSpeed": {"value": round(rng.uniform(2.0, 25.0), 2),
                            "unitCode": "m/s", "observedAt": stamp},
           "occupancy": {"value": round(rng.uniform(0.0, 1.0), 3),
                         "observedAt": stamp}}
    return Payload("ngsi-ld", device, json.dumps(doc), offset_s, 3, 3)


def ingest_payloads(seed: int, ticks: int = INGEST_TICKS) -> list[Payload]:
    """Each device reports once a tick. A seeded share of readings is
    late (stamped between earlier ticks) and another share is sent
    again verbatim, as a device retrying after a lost ack would."""
    rng = random.Random(f"ingest-replay/{seed}")
    sent: dict[str, list[Payload]] = {}
    out: list[Payload] = []
    for tick in range(1, ticks + 1):
        for device in UL_DEVICES + NGSI_DEVICES:
            offset = float(tick)
            if tick > 5 and rng.random() < LATE_SHARE:
                offset = tick - rng.randint(1, 5) - 0.5
            make = _ultralight if device in UL_DEVICES else _ngsi_ld
            payload = make(rng, device, offset)
            out.append(payload)
            history = sent.setdefault(device, [])
            history.append(payload)
            if rng.random() < REPEAT_SHARE:
                out.append(rng.choice(history))
    return out


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when all is well
# ---------------------------------------------------------------------------

def check_monitoring(report_ok: bool, feedbacks: int, ticks: int,
                     digest: str, reference_digest: str | None) -> list[str]:
    problems = []
    if not report_ok:
        problems.append("monitoring trace does not match its template")
    if feedbacks != ticks:
        problems.append(f"{feedbacks} feedbacks for {ticks} ticks")
    if reference_digest is not None and digest != reference_digest:
        problems.append(f"trace digest {digest[:12]} differs from the "
                        f"first session's {reference_digest[:12]}")
    return problems


def band_distance(value: float, lo: float, hi: float) -> float:
    if value < lo:
        return lo - value
    if value > hi:
        return value - hi
    return 0.0


def best_candidate(sim_results: dict[str, dict], candidates: list[dict],
                   band: tuple[float, float], metric: str,
                   problems: list[str]) -> tuple[dict, float, str] | None:
    """The best-scoring feasible candidate, recomputed from the what-if
    results: least distance to the band, then fewest actions, then
    action names; the first in catalog order wins a full tie."""
    scored = []
    for candidate in candidates:
        suffix = "-" + candidate["id"]
        ids = [s for s in sim_results if s.endswith(suffix)]
        if len(ids) != 1:
            problems.append(f"{len(ids)} what-if results for candidate "
                            f"{candidate['id']}")
            continue
        body = sim_results[ids[0]]
        objective = float(body["series"][-1][metric])
        if body.get("objective") != objective:
            problems.append(f"{ids[0]}: objective {body.get('objective')} "
                            f"is not the final {metric} {objective}")
        score = band_distance(objective, *band)
        key = (score, len(candidate["actions"]),
               tuple(sorted(a["name"] for a in candidate["actions"])))
        scored.append((key, candidate, objective, ids[0]))
    feasible = [entry for entry in scored if entry[0][0] == 0.0]
    if not feasible:
        return None
    _, candidate, objective, scenario_id = min(feasible,
                                               key=lambda e: e[0])
    return candidate, objective, scenario_id


def check_prediction(report_ok: bool, plan, acks: list[dict],
                     sim_results: dict[str, dict], candidates: list[dict],
                     band: tuple[float, float], metric: str) -> list[str]:
    problems = []
    if not report_ok:
        problems.append("prediction trace does not match its template")
    if plan is None:
        return problems + ["no plan was delivered"]
    if len(acks) != len(plan.actions) or any(
            ack.get("status") != "ok" for ack in acks):
        problems.append(f"{len(plan.actions)} commands but acks {acks!r}")
    best = best_candidate(sim_results, candidates, band, metric, problems)
    if best is None:
        return problems + ["the what-if results hold no feasible candidate"]
    candidate, objective, scenario_id = best
    got = [(a.name, a.target, dict(a.arguments)) for a in plan.actions]
    want = [(a["name"], a["target"], a["args"])
            for a in candidate["actions"]]
    if got != want:
        problems.append(f"plan {got} is not the best candidate "
                        f"{candidate['id']} {want}")
    if plan.expected_objective != objective:
        problems.append(f"plan objective {plan.expected_objective} != "
                        f"{objective}")
    if not plan.scenario_ids or plan.scenario_ids[0] != scenario_id:
        problems.append(f"plan cites {plan.scenario_ids[:1]}, "
                        f"not {scenario_id}")
    return problems


def check_receipt(decoded: int, stored: int, shadows_updated: int,
                  payload: Payload) -> list[str]:
    if (decoded, stored, shadows_updated) == (payload.decoded,
                                               payload.stored,
                                               payload.stored):
        return []
    return [f"{payload.device}@{payload.offset_s}: decoded {decoded}, "
            f"stored {stored}, shadows {shadows_updated}; expected "
            f"{payload.decoded}, {payload.stored}, {payload.stored}"]


def check_replay(live: list, replayed: list) -> list[str]:
    """The replayed store equals the live one: key, body and revision."""
    live_map = {r.key: (r.body, r.revision) for r in live}
    replay_map = {r.key: (r.body, r.revision) for r in replayed}
    if live_map == replay_map:
        return []
    missing = len(live_map.keys() - replay_map.keys())
    extra = len(replay_map.keys() - live_map.keys())
    changed = sum(1 for k in live_map.keys() & replay_map.keys()
                  if live_map[k] != replay_map[k])
    return [f"replay differs from the live store: {missing} missing, "
            f"{extra} extra, {changed} changed records"]


def read_sim_results(journal: Path) -> dict[str, dict]:
    """SimResults bodies by record name, straight from the journal."""
    out: dict[str, dict] = {}
    with open(journal, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            key = doc["key"]
            if key["namespace"] != "SimResults":
                continue
            if doc.get("op") == "delete":
                out.pop(key["name"], None)
            else:
                out[key["name"]] = doc["body"]
    return out


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

@dataclass
class Session:
    ops: list[tuple[float, float]] = field(default_factory=list)
    build_s: float = 0.0          # building the twinarch objects
    failed: int = 0               # ops whose output check failed
    problems: list[str] = field(default_factory=list)
    journal_op_bytes: int = 0     # journal bytes written during the ops
    replay_lines: int = 0
    replay_s: float = 0.0
    # durations of the steps whose growth along the session op_growth
    # compares: the ops themselves, or the what-if candidates of a search
    steps: list[float] = field(default_factory=list)


def _replay(journal: Path, live: list, session: Session) -> None:
    """Time the replay of a session's journal, compare, remove it."""
    from twinarch.storage import SharedStorage
    session.replay_lines = journal.read_bytes().count(b"\n")
    start = time.perf_counter()
    replayed = SharedStorage.replay(journal)
    session.replay_s = time.perf_counter() - start
    session.problems += check_replay(live, replayed.all_records())
    journal.unlink()


class _TwinWorkload:
    """A workload whose sessions each build one TwinManager."""

    name: str
    loop: str

    def __init__(self, seed: int, workdir: Path, manifest: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.manifest_path = workdir / self.name / "manifest.json"
        self.manifest_path.parent.mkdir(parents=True, exist_ok=True)
        self.manifest_path.write_text(json.dumps(manifest, indent=1),
                                      encoding="utf-8")
        self.manifest = None

    def setup(self) -> None:
        from twinarch import TwinManager, load_catalog
        from twinarch.configs import load_manifest
        self.manifest = load_manifest(self.manifest_path, loop=self.loop)
        load_catalog()
        TwinManager(self.manifest, seed=self.seed).shutdown()

    def _start(self, index: int):
        """A fresh manager journaling to its own file, and its session."""
        from twinarch import TwinManager
        journal = self.workdir / f"{self.name}-{index}.jsonl"
        session = Session()
        start = time.perf_counter()
        manager = TwinManager(self.manifest, seed=self.seed,
                              journal_path=journal)
        session.build_s = time.perf_counter() - start
        return journal, session, manager


class MonitoringHistory(_TwinWorkload):
    name = "monitoring-history"
    loop = "monitoring"
    ops_per_session = MONITORING_TICKS

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir, monitoring_manifest(seed))
        self.reference_digest: str | None = None

    def session(self, index: int) -> Session:
        journal, session, manager = self._start(index)
        marks: list[float] = []
        advance = manager.tracer.advance

        def timed_advance(tick: int) -> None:
            # each tick starts by advancing the tracer
            marks.append(time.perf_counter())
            advance(tick)

        manager.tracer.advance = timed_advance
        before = journal.stat().st_size
        try:
            output = manager.run_monitoring()
            marks.append(time.perf_counter())
        finally:
            manager.shutdown()
        session.ops = list(zip(marks, marks[1:]))
        session.steps = [end - start for start, end in session.ops]
        session.journal_op_bytes = journal.stat().st_size - before
        digest = manager.tracer.digest()
        session.problems += check_monitoring(
            manager.check("monitoring").ok, len(output.feedbacks),
            MONITORING_TICKS, digest, self.reference_digest)
        if self.reference_digest is None:
            self.reference_digest = digest
        _replay(journal, manager.storage.all_records(), session)
        if session.problems:
            session.failed = len(session.ops)
        return session


class PredictionSearch(_TwinWorkload):
    name = "prediction-search"
    loop = "prediction"
    ops_per_session = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        manifest = prediction_manifest(seed)
        super().__init__(seed, workdir, manifest)
        self.candidates = manifest["candidates"]["candidates"]
        self.band = (_DENSITY_BAND["lo"], _DENSITY_BAND["hi"])

    def session(self, index: int) -> Session:
        journal, session, manager = self._start(index)
        marks: list[float] = []
        record = manager.tracer.record

        def timed_record(source, target, message, payload=None):
            # each what-if candidate starts with one genScenario hop
            if message == "genScenario":
                marks.append(time.perf_counter())
            return record(source, target, message, payload)

        manager.tracer.record = timed_record
        before = journal.stat().st_size
        try:
            op_start = time.perf_counter()
            output = manager.run_prediction()
            session.ops = [(op_start, time.perf_counter())]
        finally:
            manager.shutdown()
        session.steps = [b - a for a, b in zip(marks, marks[1:])]
        session.journal_op_bytes = journal.stat().st_size - before
        session.problems += check_prediction(
            manager.check("prediction").ok, output.plan,
            manager.harness.acks, read_sim_results(journal),
            self.candidates, self.band, "density")
        _replay(journal, manager.storage.all_records(), session)
        if session.problems:
            session.failed = 1
        return session


class IngestReplay:
    name = "ingest-replay"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.payloads = ingest_payloads(seed)
        self.ops_per_session = len(self.payloads)
        self.observed_at = [BENCH_EPOCH + timedelta(seconds=p.offset_s)
                            for p in self.payloads]

    def _build(self, journal: Path | None):
        from twinarch.adapters import AdapterConfig, Direction, P2DAdapter
        from twinarch.shadows import ShadowManager, ShadowType
        from twinarch.storage import SharedStorage
        from twinarch.wire import Source
        # a fixed commit clock keeps the journal's bytes the same each run
        storage = SharedStorage(journal_path=journal,
                                clock=lambda: BENCH_EPOCH)
        shadows = ShadowManager(storage)
        types = {"ultralight": ShadowType(
                     "traffic", frozenset({"vehicleFlow", "speed"}),
                     "TrafficSensor"),
                 "ngsi-ld": ShadowType(
                     "flow", frozenset({"vehicleFlow", "averageSpeed",
                                        "occupancy"}),
                     "TrafficFlowObserved")}
        for device in UL_DEVICES:
            shadows.create_shadow(types["ultralight"], device, BENCH_EPOCH)
        for device in NGSI_DEVICES:
            shadows.create_shadow(types["ngsi-ld"], device, BENCH_EPOCH)
        adapters = {
            "ultralight": P2DAdapter(
                AdapterConfig(direction=Direction.P2D,
                              format=Source.ULTRALIGHT,
                              attribute_map={"f": "vehicleFlow",
                                             "s": "speed"},
                              entity_type="TrafficSensor"), storage),
            "ngsi-ld": P2DAdapter(
                AdapterConfig(direction=Direction.P2D,
                              format=Source.NGSI_LD), storage)}
        return storage, shadows, adapters

    def setup(self) -> None:
        self._build(None)

    def session(self, index: int) -> Session:
        journal = self.workdir / f"{self.name}-{index}.jsonl"
        session = Session()
        start = time.perf_counter()
        storage, shadows, adapters = self._build(journal)
        session.build_s = time.perf_counter() - start
        before = journal.stat().st_size
        bad_ops = 0
        try:
            for payload, observed_at in zip(self.payloads, self.observed_at):
                op_start = time.perf_counter()
                receipt = adapters[payload.format].ingest(
                    payload.text, payload.device, observed_at)
                updated = 0
                for measurement in receipt.measurements:
                    updated += len(
                        shadows.update_from_measurement(measurement))
                session.ops.append((op_start, time.perf_counter()))
                problems = check_receipt(receipt.decoded, receipt.stored,
                                         updated, payload)
                if problems:
                    bad_ops += 1
                    session.problems += problems
        finally:
            storage.close()
        session.steps = [end - start for start, end in session.ops]
        session.journal_op_bytes = journal.stat().st_size - before
        replay_problems_before = len(session.problems)
        _replay(journal, storage.all_records(), session)
        replay_failed = len(session.problems) > replay_problems_before
        session.failed = len(session.ops) if replay_failed else bad_ops
        return session


WORKLOADS = {w.name: w for w in (MonitoringHistory, PredictionSearch,
                                 IngestReplay)}
