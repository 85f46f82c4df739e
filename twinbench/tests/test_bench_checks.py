"""Each output check passes a real result and rejects a planted wrong one."""

import dataclasses
from types import SimpleNamespace

from workloads import (IngestReplay, MonitoringHistory, Payload,
                       PredictionSearch, check_monitoring, check_prediction,
                       check_receipt, check_replay, read_sim_results)


def test_check_monitoring_rejects_each_planted_fault():
    assert check_monitoring(True, 300, 300, "abc", "abc") == []
    assert check_monitoring(False, 300, 300, "abc", "abc")
    assert check_monitoring(True, 299, 300, "abc", "abc")
    assert check_monitoring(True, 300, 300, "abd", "abc")


def test_monitoring_sessions_repeat_their_digest(tmp_path, monkeypatch):
    monkeypatch.setattr("workloads.MONITORING_TICKS", 20)
    monkeypatch.setattr(MonitoringHistory, "ops_per_session", 20)
    workload = MonitoringHistory(4, tmp_path)
    workload.setup()
    first = workload.session(0)
    second = workload.session(1)
    assert first.problems == [] and second.problems == []
    assert len(second.ops) == 20


def _prediction_run(tmp_path):
    """A real prediction session, kept so the check can be re-run."""
    from twinarch import TwinManager
    workload = PredictionSearch(5, tmp_path)
    workload.setup()
    journal = tmp_path / "journal.jsonl"
    manager = TwinManager(workload.manifest, seed=5, journal_path=journal)
    try:
        output = manager.run_prediction()
    finally:
        manager.shutdown()
    return (workload, manager.check("prediction").ok, output.plan,
            list(manager.harness.acks), read_sim_results(journal))


def test_check_prediction_rejects_each_planted_fault(tmp_path):
    workload, ok, plan, acks, results = _prediction_run(tmp_path)
    args = (workload.candidates, workload.band, "density")
    assert check_prediction(ok, plan, acks, results, *args) == []

    assert check_prediction(False, plan, acks, results, *args)
    assert check_prediction(ok, None, acks, results, *args)
    bad_ack = [dict(acks[0], status="error")] + acks[1:]
    assert check_prediction(ok, plan, bad_ack, results, *args)

    # a plan naming another candidate's actions
    chosen = plan.scenario_ids[0]
    other = next(c for c in workload.candidates
                 if not chosen.endswith("-" + c["id"])
                 and c["actions"][0]["name"] != plan.actions[0].name)
    actions = tuple(SimpleNamespace(name=a["name"], target=a["target"],
                                    arguments=a["args"])
                    for a in other["actions"])
    assert check_prediction(ok, dataclasses.replace(plan, actions=actions),
                            acks, results, *args)
    assert check_prediction(
        ok, dataclasses.replace(plan, expected_objective=0.123),
        acks, results, *args)

    # a what-if result whose stored objective disagrees with its series
    tampered = dict(results)
    tampered[chosen] = dict(results[chosen], objective=0.5)
    assert check_prediction(ok, plan, acks, tampered, *args)
    missing = {k: v for k, v in results.items() if k != chosen}
    assert check_prediction(ok, plan, acks, missing, *args)


def test_check_replay_rejects_a_changed_body_revision_or_record():
    from twinarch.storage import Namespace, RecordKey, SharedStorage
    from workloads import BENCH_EPOCH
    store = SharedStorage()
    for name in ("a", "b"):
        store.upsert(RecordKey(Namespace.STATES, "e", name, BENCH_EPOCH),
                     {"v": 1})
    live = store.all_records()
    assert check_replay(live, list(live)) == []
    first = live[0]
    assert check_replay(live, [dataclasses.replace(first, body={"v": 2}),
                               live[1]])
    assert check_replay(live, [dataclasses.replace(first, revision=2),
                               live[1]])
    assert check_replay(live, live[:1])


def test_check_receipt_rejects_wrong_counts():
    payload = Payload("ultralight", "UL01", "f|1|s|2|f|3", 1.0, 3, 2)
    assert check_receipt(3, 2, 2, payload) == []
    assert check_receipt(3, 3, 3, payload)     # the repeated key was kept
    assert check_receipt(3, 2, 1, payload)     # a shadow missed an update


def test_ingest_session_passes_its_checks(tmp_path):
    workload = IngestReplay(6, tmp_path)
    workload.setup()
    session = workload.session(0)
    assert session.problems == [] and session.failed == 0
    assert len(session.ops) == workload.ops_per_session
    assert session.replay_lines > 0
