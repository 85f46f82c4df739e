"""The workload generators are deterministic per seed and vary by seed."""

from workloads import (CANDIDATES, MONITORING_TICKS, ingest_payloads,
                       monitoring_manifest, prediction_candidates,
                       prediction_manifest)

GENERATORS = (monitoring_manifest, prediction_manifest, ingest_payloads)


def test_same_seed_same_inputs():
    for make in GENERATORS:
        assert make(7) == make(7), make.__name__


def test_other_seed_other_inputs():
    for make in GENERATORS:
        assert make(7) != make(8), make.__name__


def test_monitoring_schedule_crosses_capacity_every_session():
    for seed in range(10):
        flows = [flow for _, flow in
                 monitoring_manifest(seed)["harness"]["schedule"]]
        assert len(flows) == MONITORING_TICKS
        assert max(flows) > 30 > min(flows)


def test_candidates_are_a_full_grid_with_unique_ids():
    for seed in range(10):
        candidates = prediction_candidates(seed)
        assert len(candidates) == CANDIDATES
        ids = [c["id"] for c in candidates]
        assert len(set(ids)) == len(ids)
        # no id is a suffix of another, so results map back by suffix
        assert not any(a != b and b.endswith(a) for a in ids for b in ids)


def test_ingest_mixes_formats_late_repeated_and_duplicate_keys():
    payloads = ingest_payloads(3)
    formats = {p.format for p in payloads}
    assert formats == {"ultralight", "ngsi-ld"}
    assert any(p.offset_s != int(p.offset_s) for p in payloads)   # late
    assert len(set(payloads)) < len(payloads)                     # repeated
    assert any(p.decoded > p.stored for p in payloads)            # dup key
