"""Machine-readable registry of the TwinArch reference architecture.

Holds the sixteen domain entities of the module view, the twenty-two
components of the component view, the relationships of both views, the
entity/component traceability matrix, and the ISO 23247 functional
entity mapping. All of it is embedded as static data: conformance
checks and report generation must not depend on runtime input.

Everything returned by :func:`load_catalog` is immutable and safe to
share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidRelationship

# Closed set of named interfaces appearing in the component view.
INTERFACE_NAMES = frozenset({
    "CRUDop",
    "getShadow",
    "modelExecution",
    "getSimState",
    "scenarioSim",
    "getState",
    "prediction",
    "genScenario",
    "newScenarioSim",
})


class RelationshipKind(Enum):
    IS_PART_OF_COMPOSITION = "is-part-of-composition"
    IS_PART_OF_AGGREGATION = "is-part-of-aggregation"
    IS_A = "is-a"
    USE = "use"
    ABSTRACTION = "abstraction"
    ASSEMBLY = "assembly"
    PORT_ATTACHMENT = "port-attachment"
    INTERFACE_DELEGATION = "interface-delegation"


# Kinds legal between two module-view entities / two component-view components.
MTV_KINDS = frozenset({
    RelationshipKind.IS_PART_OF_COMPOSITION,
    RelationshipKind.IS_PART_OF_AGGREGATION,
    RelationshipKind.IS_A,
    RelationshipKind.USE,
    RelationshipKind.ABSTRACTION,
})
CTV_KINDS = frozenset({
    RelationshipKind.IS_PART_OF_COMPOSITION,
    RelationshipKind.USE,
    RelationshipKind.ASSEMBLY,
    RelationshipKind.PORT_ATTACHMENT,
    RelationshipKind.INTERFACE_DELEGATION,
})


class IsoSupport(Enum):
    """How fully a functional entity is covered by the architecture."""

    FULL = "full"
    PARTIAL = "partial"
    NONE = "none"


@dataclass(frozen=True)
class EntityDef:
    id: str          # dte_1 .. dte_16
    name: str
    description: str


@dataclass(frozen=True)
class ComponentDef:
    id: str          # dtc_1 .. dtc_22
    name: str
    description: str
    provided_interfaces: tuple[str, ...] = ()
    required_interfaces: tuple[str, ...] = ()


@dataclass(frozen=True)
class Relationship:
    kind: RelationshipKind
    source: str      # part / child / requirer side
    target: str      # whole / parent / provider side
    multiplicity: str | None = None


@dataclass(frozen=True)
class TraceabilityMatrix:
    """Set of (component_id, entity_id) cells linking the two views."""

    cells: frozenset[tuple[str, str]]

    def entities_for(self, component_id: str) -> tuple[str, ...]:
        # ids sort numerically: dte_7 before dte_10
        return tuple(sorted((e for c, e in self.cells if c == component_id),
                            key=lambda i: int(i.rsplit("_", 1)[1])))


@dataclass(frozen=True)
class IsoMappingRow:
    functional_entity: str
    iso_domain: str
    mtv_elements: tuple[str, ...]   # empty tuple marks "unsupported"
    ctv_elements: tuple[str, ...]

    @property
    def support(self) -> IsoSupport:
        if self.mtv_elements and self.ctv_elements:
            return IsoSupport.FULL
        if self.mtv_elements or self.ctv_elements:
            return IsoSupport.PARTIAL
        return IsoSupport.NONE

    def to_json(self) -> dict:
        return {"functional_entity": self.functional_entity,
                "iso_domain": self.iso_domain,
                "mtv_elements": list(self.mtv_elements),
                "ctv_elements": list(self.ctv_elements),
                "support": self.support.value}


@dataclass(frozen=True)
class ConformanceReport:
    total_cells: int
    unmapped_components: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.unmapped_components


@dataclass(frozen=True)
class Catalog:
    entities: tuple[EntityDef, ...]
    components: tuple[ComponentDef, ...]
    relationships: tuple[Relationship, ...]
    matrix: TraceabilityMatrix
    iso_rows: tuple[IsoMappingRow, ...]

    entity_by_id: dict[str, EntityDef] = field(repr=False, default_factory=dict)
    component_by_id: dict[str, ComponentDef] = field(repr=False, default_factory=dict)


# ---------------------------------------------------------------------------
# Embedded registry data
# ---------------------------------------------------------------------------

_ENTITY_ROWS = [
    ("dte_1", "PhysicalTwin",
     "Real-world system replicated by the digital twin; source of truth for telemetry."),
    ("dte_2", "DataProvider",
     "Transmits raw observations from the physical system into the digital twin."),
    ("dte_3", "DataReceiver",
     "Accepts feedback and commands flowing from the digital twin back to the physical system."),
    ("dte_4", "Adapter",
     "Converts between external data formats and the twin's canonical data model."),
    ("dte_5", "P2DAdapter",
     "Adapter for the physical-to-digital direction; prepares inbound telemetry for ingestion."),
    ("dte_6", "D2PAdapter",
     "Adapter for the digital-to-physical direction; prepares outbound feedback for delivery."),
    ("dte_7", "DigitalRepresentation",
     "Virtual abstraction of the physical system's structural and behavioral aspects."),
    ("dte_8", "DigitalShadow",
     "Temporal trace of physical states, grouped under a shadow type."),
    ("dte_9", "ShadowManager",
     "Creates, updates, and deletes digital shadows and serves shadow queries."),
    ("dte_10", "DigitalModel",
     "Behavioral model of the physical system used to simulate current and future states."),
    ("dte_11", "ModelManager",
     "Manages the lifecycle and consistency of digital models."),
    ("dte_12", "TwinManager",
     "Central orchestrator coordinating shadow, model, and service operations."),
    ("dte_13", "ServiceManager",
     "Implements and coordinates twin services such as monitoring and prediction."),
    ("dte_14", "FeedbackProvider",
     "Generates alerts, events, and commands directed at the physical system."),
    ("dte_15", "DataManager",
     "Aggregates, stores, and retrieves data circulating within the twin."),
    ("dte_16", "DataModel",
     "Defines the logical structure of exchanged data for interoperability."),
]

# (id, name, description, provided, required)
_COMPONENT_ROWS = [
    ("dtc_1", "PhysicalTwin",
     "Real-world asset replicated by the twin.", (), ()),
    ("dtc_2", "DataProvider",
     "Forwards raw physical measurements toward the twin.", (), ()),
    ("dtc_3", "DataReceiver",
     "Receives feedback, updates, and commands destined for the physical asset.", (), ()),
    ("dtc_4", "P2DAdapter",
     "Translates physical-side payloads into the canonical data model.",
     (), ("CRUDop",)),
    ("dtc_5", "D2PAdapter",
     "Translates twin outputs into physical-side payload formats.", (), ()),
    ("dtc_6", "DataProcessor",
     "Cleans, filters, and normalizes raw measurements before storage.",
     (), ("CRUDop",)),
    ("dtc_7", "StorageManager",
     "Exposes create/read/update/delete access to the shared repository.",
     ("CRUDop",), ()),
    ("dtc_8", "DataManager",
     "Facade bundling processing and storage behind one data surface.",
     ("CRUDop",), ()),
    ("dtc_9", "SharedStorage",
     "Passive repository holding heterogeneous data from both realms.", (), ()),
    ("dtc_10", "ShadowManager",
     "Owns shadow lifecycles and answers shadow queries.",
     ("getShadow",), ("CRUDop",)),
    ("dtc_11", "ModelManager",
     "Creates, updates, and configures digital models.",
     (), ("modelExecution",)),
    ("dtc_12", "ModelEngine",
     "Executes simulations against digital models and produces result series.",
     ("modelExecution",), ("CRUDop",)),
    ("dtc_13", "Simulator",
     "Composite of model management and execution offering scenario simulation.",
     ("getSimState", "scenarioSim"), ()),
    ("dtc_14", "TwinManager",
     "Orchestrates shadows, models, and services for cohesive operation.",
     ("newScenarioSim",),
     ("getSimState", "scenarioSim", "getState", "prediction", "getShadow")),
    ("dtc_15", "StateMonitor",
     "Computes the current physical state by fusing real and simulated data.",
     ("getState",), ("CRUDop", "getShadow")),
    ("dtc_16", "DeviationDetector",
     "Compares real or predicted states with expectations to find deviations.", (), ()),
    ("dtc_17", "Predictor",
     "Forecasts future states from current and historical traces.",
     ("prediction",), ("getShadow",)),
    ("dtc_18", "Analyzer",
     "Composite analytics surface bundling prediction and deviation detection.",
     ("prediction",), ("prediction",)),
    ("dtc_19", "SolutionFinder",
     "Searches candidate actions for the best way back to a desired state.",
     (), ("genScenario",)),
    ("dtc_20", "ScenarioGenerator",
     "Builds simulation scenarios from deviations and candidate actions.",
     ("genScenario",), ("getState",)),
    ("dtc_21", "Planner",
     "Assembles and submits solution plans backed by scenario simulations.",
     (), ("newScenarioSim",)),
    ("dtc_22", "FeedbackExecutor",
     "Turns deviations or plans into alerts or actionable command sequences.", (), ()),
]

_R = RelationshipKind
_RELATIONSHIP_ROWS = [
    # Module view: decomposition / generalization / uses / abstraction.
    (_R.IS_PART_OF_COMPOSITION, "dte_2", "dte_1", None),
    (_R.IS_PART_OF_COMPOSITION, "dte_3", "dte_1", None),
    (_R.IS_A, "dte_5", "dte_4", None),
    (_R.IS_A, "dte_6", "dte_4", None),
    (_R.IS_A, "dte_8", "dte_7", None),
    (_R.IS_A, "dte_10", "dte_7", None),
    (_R.ABSTRACTION, "dte_7", "dte_1", None),
    (_R.USE, "dte_2", "dte_5", None),
    (_R.USE, "dte_6", "dte_3", None),
    (_R.USE, "dte_5", "dte_16", None),
    (_R.USE, "dte_5", "dte_15", None),
    (_R.IS_PART_OF_COMPOSITION, "dte_8", "dte_9", "1..*"),
    (_R.IS_PART_OF_COMPOSITION, "dte_10", "dte_11", "1..*"),
    (_R.IS_PART_OF_AGGREGATION, "dte_9", "dte_12", None),
    (_R.IS_PART_OF_AGGREGATION, "dte_11", "dte_12", None),
    (_R.IS_PART_OF_COMPOSITION, "dte_14", "dte_13", None),
    (_R.USE, "dte_12", "dte_15", None),
    (_R.USE, "dte_13", "dte_15", None),
    (_R.USE, "dte_9", "dte_15", None),
    (_R.USE, "dte_15", "dte_16", None),
    # Component view: tier composition.
    (_R.IS_PART_OF_COMPOSITION, "dtc_2", "dtc_1", None),
    (_R.IS_PART_OF_COMPOSITION, "dtc_3", "dtc_1", None),
    (_R.IS_PART_OF_COMPOSITION, "dtc_6", "dtc_8", None),
    (_R.IS_PART_OF_COMPOSITION, "dtc_7", "dtc_8", None),
    (_R.IS_PART_OF_COMPOSITION, "dtc_11", "dtc_13", None),
    (_R.IS_PART_OF_COMPOSITION, "dtc_12", "dtc_13", None),
    # Component view: port attachments.
    (_R.PORT_ATTACHMENT, "dtc_2", "dtc_4", None),
    (_R.PORT_ATTACHMENT, "dtc_5", "dtc_3", None),
    (_R.PORT_ATTACHMENT, "dtc_6", "dtc_10", None),
    (_R.PORT_ATTACHMENT, "dtc_7", "dtc_9", None),
    (_R.PORT_ATTACHMENT, "dtc_17", "dtc_16", None),
    (_R.PORT_ATTACHMENT, "dtc_16", "dtc_19", None),
    (_R.PORT_ATTACHMENT, "dtc_22", "dtc_5", None),
    # Component view: assemblies (requirer -> provider).
    (_R.ASSEMBLY, "dtc_4", "dtc_8", None),
    (_R.ASSEMBLY, "dtc_11", "dtc_12", None),
    (_R.ASSEMBLY, "dtc_10", "dtc_8", None),
    (_R.ASSEMBLY, "dtc_14", "dtc_13", None),
    (_R.ASSEMBLY, "dtc_14", "dtc_15", None),
    (_R.ASSEMBLY, "dtc_14", "dtc_18", None),
    (_R.ASSEMBLY, "dtc_19", "dtc_20", None),
    (_R.ASSEMBLY, "dtc_21", "dtc_14", None),
    # Component view: interface delegation (outer -> inner provider).
    (_R.INTERFACE_DELEGATION, "dtc_8", "dtc_7", None),
    (_R.INTERFACE_DELEGATION, "dtc_18", "dtc_17", None),
    # Component view: shared-data style usage of the repository.
    (_R.USE, "dtc_6", "dtc_9", None),
    (_R.USE, "dtc_10", "dtc_9", None),
    (_R.USE, "dtc_12", "dtc_9", None),
    (_R.USE, "dtc_15", "dtc_9", None),
]

# component name -> entity names it traces to (33 cells total).
_MATRIX_ROWS = {
    "PhysicalTwin": ["PhysicalTwin"],
    "DataProvider": ["DataProvider"],
    "DataReceiver": ["DataReceiver"],
    "P2DAdapter": ["Adapter", "P2DAdapter"],
    "D2PAdapter": ["Adapter", "D2PAdapter"],
    "DataProcessor": ["DataManager", "DataModel"],
    "StorageManager": ["DataManager", "DataModel"],
    "DataManager": ["DataManager"],
    "SharedStorage": ["DataManager", "DataModel"],
    "ShadowManager": ["DigitalRepresentation", "DigitalShadow", "ShadowManager"],
    "ModelManager": ["DigitalRepresentation", "ModelManager"],
    "ModelEngine": ["DigitalModel", "ModelManager"],
    "Simulator": ["DigitalRepresentation", "DigitalModel", "ModelManager"],
    "TwinManager": ["TwinManager"],
    "StateMonitor": ["ServiceManager"],
    "DeviationDetector": ["ServiceManager"],
    "Predictor": ["ServiceManager"],
    "Analyzer": ["ServiceManager"],
    "SolutionFinder": ["ServiceManager"],
    "ScenarioGenerator": ["ServiceManager"],
    "Planner": ["ServiceManager"],
    "FeedbackExecutor": ["FeedbackProvider"],
}

# (functional entity, ISO domain, MTV elements, CTV elements); empty = unsupported.
_ISO_ROWS = [
    ("Observable Manufacturing Elements", "Observable Manufacturing Domain",
     ("PhysicalTwin",), ("PhysicalTwin",)),
    ("Data Collecting", "Data Collection and Device Control Domain",
     ("DataProvider",), ("DataProvider",)),
    ("Data Pre-Processing", "Data Collection and Device Control Domain",
     ("DataManager",), ("DataProcessor",)),
    ("Data Translation", "Cross-System Domain",
     ("Adapter", "P2DAdapter", "D2PAdapter"), ("P2DAdapter", "D2PAdapter")),
    ("Controlling", "Data Collection and Device Control Domain",
     ("FeedbackProvider",), ("FeedbackExecutor",)),
    ("Actuation", "Data Collection and Device Control Domain",
     ("DataReceiver",), ("DataReceiver",)),
    ("Digital Modeling", "Core Domain",
     ("DigitalRepresentation", "DigitalModel"), ("ModelEngine",)),
    ("Maintenance", "Core Domain", (), ()),
    ("Synchronization", "Core Domain",
     ("DataProvider", "DataReceiver", "TwinManager"),
     ("DataProvider", "DataReceiver", "TwinManager")),
    ("Simulation", "Core Domain", ("ModelManager",), ("Simulator",)),
    ("Analytic Service", "Core Domain", ("ServiceManager",), ("Analyzer",)),
    ("Reporting", "Core Domain", ("TwinManager",), ("TwinManager", "StateMonitor")),
    ("Application Support", "Core Domain", ("TwinManager",), ("TwinManager",)),
    ("Interoperability Support", "Core Domain",
     ("DataModel", "DataManager"), ("DataProcessor", "SharedStorage")),
    ("Access Control", "Core Domain", (), ()),
    ("Security Support", "Cross-System Domain", (), ()),
    ("User Interface", "User Domain", ("TwinManager",), ("TwinManager",)),
]


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------

def validate_relationship(rel: Relationship, entity_ids: frozenset[str],
                          component_ids: frozenset[str]) -> None:
    """Reject relationship kinds that are illegal for their endpoints.

    Module-view-only kinds between two components (or the reverse) and
    relationships crossing the two views are both errors.
    """
    src_entity = rel.source in entity_ids
    dst_entity = rel.target in entity_ids
    src_comp = rel.source in component_ids
    dst_comp = rel.target in component_ids
    if not (src_entity or src_comp) or not (dst_entity or dst_comp):
        raise InvalidRelationship(f"unknown endpoint in {rel}")
    if src_entity and dst_entity:
        legal = MTV_KINDS
    elif src_comp and dst_comp:
        legal = CTV_KINDS
    else:
        raise InvalidRelationship(
            f"relationship {rel.kind.value} crosses module/component views: "
            f"{rel.source} -> {rel.target}")
    if rel.kind not in legal:
        view = "module" if src_entity else "component"
        raise InvalidRelationship(
            f"kind {rel.kind.value} is not legal in the {view} view "
            f"({rel.source} -> {rel.target})")


def _build_catalog() -> Catalog:
    entities = tuple(EntityDef(*row) for row in _ENTITY_ROWS)
    components = tuple(ComponentDef(*row) for row in _COMPONENT_ROWS)
    entity_by_id = {e.id: e for e in entities}
    component_by_id = {c.id: c for c in components}

    relationships = tuple(Relationship(*row) for row in _RELATIONSHIP_ROWS)
    entity_ids = frozenset(entity_by_id)
    component_ids = frozenset(component_by_id)
    for rel in relationships:
        validate_relationship(rel, entity_ids, component_ids)

    # a misspelt matrix name fails here with a KeyError
    entity_id = {e.name: e.id for e in entities}
    component_id = {c.name: c.id for c in components}
    matrix = TraceabilityMatrix(cells=frozenset(
        (component_id[comp_name], entity_id[entity_name])
        for comp_name, entity_names in _MATRIX_ROWS.items()
        for entity_name in entity_names))

    return Catalog(
        entities=entities,
        components=components,
        relationships=relationships,
        matrix=matrix,
        iso_rows=tuple(IsoMappingRow(*row) for row in _ISO_ROWS),
        entity_by_id=entity_by_id,
        component_by_id=component_by_id,
    )


_CATALOG: Catalog | None = None


def load_catalog() -> Catalog:
    """Return the embedded registry, built once on first use. Building
    checks each relationship against its views and resolves every
    matrix name."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def check_traceability(matrix: TraceabilityMatrix,
                       components: tuple[ComponentDef, ...] | None = None) -> ConformanceReport:
    """Report components with no entity mapping and the total cell count."""
    if components is None:
        components = load_catalog().components
    mapped = {c for c, _ in matrix.cells}
    unmapped = tuple(c.name for c in components if c.id not in mapped)
    return ConformanceReport(total_cells=len(matrix.cells), unmapped_components=unmapped)


def traceability_report(fmt: str = "text") -> str:
    """Human-readable component-to-entity mapping, one row per component."""
    cat = load_catalog()
    if fmt == "json":
        rows = [
            {"component": c.name,
             "entities": [cat.entity_by_id[e].name
                          for e in cat.matrix.entities_for(c.id)]}
            for c in cat.components]
        return json.dumps({"rows": rows, "total_cells": len(cat.matrix.cells)},
                          indent=2, sort_keys=True) + "\n"
    report = check_traceability(cat.matrix, cat.components)
    lines = ["Traceability matrix (component -> entities)", ""]
    for comp in cat.components:
        names = [cat.entity_by_id[e].name for e in cat.matrix.entities_for(comp.id)]
        lines.append(f"{comp.name} -> {', '.join(names) if names else 'UNMAPPED'}")
    lines.append("")
    lines.append(f"cells: {report.total_cells}")
    lines.append(f"unmapped components: {len(report.unmapped_components)}")
    return "\n".join(lines) + "\n"


def iso_report(fmt: str = "text") -> str:
    """Deterministic ISO 23247 functional entity mapping report."""
    cat = load_catalog()
    if fmt == "json":
        rows = [r.to_json() for r in cat.iso_rows]
        return json.dumps({"rows": rows}, indent=2, sort_keys=True) + "\n"
    lines = ["ISO 23247 functional entity mapping", ""]
    for row in cat.iso_rows:
        mtv = ", ".join(row.mtv_elements) if row.mtv_elements else "unsupported"
        ctv = ", ".join(row.ctv_elements) if row.ctv_elements else "unsupported"
        lines.append(f"{row.functional_entity} → {mtv} / {ctv} "
                     f"[{row.support.value}] ({row.iso_domain})")
    return "\n".join(lines) + "\n"


def catalog_to_json() -> str:
    """Serialize the registry to the documented catalog.json schema."""
    cat = load_catalog()
    doc = {
        "entities": [
            {"id": e.id, "name": e.name, "description": e.description}
            for e in cat.entities],
        "components": [
            {"id": c.id, "name": c.name, "description": c.description,
             "provided_interfaces": list(c.provided_interfaces),
             "required_interfaces": list(c.required_interfaces)}
            for c in cat.components],
        "relationships": [
            {"kind": r.kind.value, "from": r.source, "to": r.target,
             **({"multiplicity": r.multiplicity} if r.multiplicity else {})}
            for r in cat.relationships],
        "matrix": [
            {"component": c, "entity": e}
            for c, e in sorted(cat.matrix.cells,
                               key=lambda ce: (int(ce[0].rsplit("_", 1)[1]),
                                               int(ce[1].rsplit("_", 1)[1])))],
        "iso": [r.to_json() for r in cat.iso_rows],
    }
    return json.dumps(doc, indent=2) + "\n"
