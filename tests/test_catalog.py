"""Architecture registry: counts, closure, legality, and reports."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from twinarch.catalog import (CTV_KINDS, INTERFACE_NAMES, MTV_KINDS,
                              IsoSupport, Relationship, RelationshipKind,
                              catalog_to_json, check_traceability, iso_report,
                              load_catalog, traceability_report,
                              validate_relationship)
from twinarch.errors import InvalidRelationship

EXPECTED_ENTITIES = {
    "PhysicalTwin", "DataProvider", "DataReceiver", "Adapter", "P2DAdapter",
    "D2PAdapter", "DigitalRepresentation", "DigitalShadow", "ShadowManager",
    "DigitalModel", "ModelManager", "TwinManager", "ServiceManager",
    "FeedbackProvider", "DataManager", "DataModel",
}

EXPECTED_COMPONENTS = {
    "PhysicalTwin", "DataProvider", "DataReceiver", "P2DAdapter",
    "D2PAdapter", "DataProcessor", "StorageManager", "DataManager",
    "SharedStorage", "ShadowManager", "ModelManager", "ModelEngine",
    "Simulator", "TwinManager", "StateMonitor", "DeviationDetector",
    "Predictor", "Analyzer", "SolutionFinder", "ScenarioGenerator",
    "Planner", "FeedbackExecutor",
}


def test_entity_catalog_names():
    cat = load_catalog()
    assert len(cat.entities) == 16
    assert {e.name for e in cat.entities} == EXPECTED_ENTITIES


def test_component_catalog_names():
    cat = load_catalog()
    assert len(cat.components) == 22
    assert {c.name for c in cat.components} == EXPECTED_COMPONENTS


def test_ids_are_sequential():
    cat = load_catalog()
    assert [e.id for e in cat.entities] == [f"dte_{i}" for i in range(1, 17)]
    assert [c.id for c in cat.components] == [f"dtc_{i}" for i in range(1, 23)]


def test_interface_closure():
    cat = load_catalog()
    assert len(INTERFACE_NAMES) == 9
    for component in cat.components:
        for name in component.provided_interfaces + component.required_interfaces:
            assert name in INTERFACE_NAMES, (component.name, name)


def test_every_provided_interface_has_a_consumer():
    cat = load_catalog()
    required = {name for c in cat.components
                for name in c.required_interfaces}
    provided = {name for c in cat.components
                for name in c.provided_interfaces}
    assert provided <= required
    assert required <= provided


def test_traceability_complete():
    cat = load_catalog()
    report = check_traceability(cat.matrix, cat.components)
    assert report.total_cells == 33
    assert report.unmapped_components == ()
    assert report.ok


def test_storage_manager_maps_to_data_manager_and_data_model():
    cat = load_catalog()
    storage_manager = next(c for c in cat.components
                           if c.name == "StorageManager")
    names = {cat.entity_by_id[e].name
             for e in cat.matrix.entities_for(storage_manager.id)}
    assert names == {"DataManager", "DataModel"}


def test_entities_for_orders_by_numeric_id():
    cat = load_catalog()
    for component in cat.components:
        ids = cat.matrix.entities_for(component.id)
        numeric = [int(i.rsplit("_", 1)[1]) for i in ids]
        assert numeric == sorted(numeric)


def test_catalog_load_is_cached():
    assert load_catalog() is load_catalog()


def test_relationship_kind_legality():
    cat = load_catalog()
    entity_ids = frozenset(e.id for e in cat.entities)
    component_ids = frozenset(c.id for c in cat.components)
    validate_relationship(Relationship(
        kind=RelationshipKind.IS_PART_OF_COMPOSITION, source="dte_2",
        target="dte_1"), entity_ids, component_ids)
    # assembly connectors belong to the component view
    with pytest.raises(InvalidRelationship):
        validate_relationship(Relationship(
            kind=RelationshipKind.ASSEMBLY, source="dte_2",
            target="dte_1"), entity_ids, component_ids)
    with pytest.raises(InvalidRelationship):
        validate_relationship(Relationship(
            kind=RelationshipKind.IS_PART_OF_COMPOSITION, source="nobody",
            target="dte_1"), entity_ids, component_ids)
    # an edge may not straddle the two views
    with pytest.raises(InvalidRelationship):
        validate_relationship(Relationship(
            kind=RelationshipKind.USE, source="dtc_14",
            target="dte_1"), entity_ids, component_ids)


@given(st.sampled_from(sorted(RelationshipKind, key=lambda k: k.value)))
def test_relationship_kinds_split_by_view(kind):
    # every kind is legal in at least one view, and the two views
    # partition usage for the kinds that differ
    assert kind in MTV_KINDS or kind in CTV_KINDS


def test_iso_mapping_shape():
    cat = load_catalog()
    assert len(cat.iso_rows) == 17
    unsupported = {r.functional_entity for r in cat.iso_rows
                   if r.support is IsoSupport.NONE}
    assert unsupported == {"Maintenance", "Access Control",
                          "Security Support"}
    for row in cat.iso_rows:
        if row.support is IsoSupport.NONE:
            assert row.mtv_elements == () and row.ctv_elements == ()
        else:
            assert row.mtv_elements and row.ctv_elements


def test_iso_rows_name_catalog_elements():
    cat = load_catalog()
    entities = {e.name for e in cat.entities}
    components = {c.name for c in cat.components}
    for row in cat.iso_rows:
        assert set(row.mtv_elements) <= entities, row.functional_entity
        assert set(row.ctv_elements) <= components, row.functional_entity


def test_reports_are_deterministic():
    assert iso_report("text") == iso_report("text")
    assert traceability_report("json") == traceability_report("json")
    assert catalog_to_json() == catalog_to_json()


def test_iso_report_row_count():
    lines = [l for l in iso_report("text").splitlines() if "(" in l]
    assert len(lines) == 17
    rows = json.loads(iso_report("json"))["rows"]
    assert len(rows) == 17


def test_traceability_report_covers_every_component():
    doc = json.loads(traceability_report("json"))
    assert len(doc["rows"]) == 22
    assert doc["total_cells"] == 33
    assert all(row["entities"] for row in doc["rows"])


def test_catalog_json_schema():
    doc = json.loads(catalog_to_json())
    assert set(doc) == {"entities", "components", "relationships", "matrix",
                        "iso"}
    assert len(doc["entities"]) == 16
    assert len(doc["components"]) == 22
    assert len(doc["matrix"]) == 33
    assert len(doc["iso"]) == 17
    for cell in doc["matrix"]:
        assert set(cell) == {"component", "entity"}
