"""Command line surface: subcommands, exit codes, determinism."""

from __future__ import annotations

import io
import json
import os
import socket
import subprocess
import sys
import time
from datetime import timedelta

import pytest

from twinarch.cli import main
from twinarch.clock import DEFAULT_EPOCH
from twinarch.simulation import MAX_HORIZON
from twinarch.storage import Namespace, Query, SharedStorage


# -- catalog / report --------------------------------------------------------------


def test_catalog_check_passes(capsys):
    assert main(["catalog", "--check"]) == 0
    out = capsys.readouterr().out
    assert "entities: 16" in out
    assert "components: 22" in out
    assert "matrix cells: 33" in out
    assert "unmapped components: 0" in out
    assert "verdict: Pass" in out


def test_catalog_export_is_documented_json(capsys):
    assert main(["catalog"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["entities"]) == 16
    assert len(doc["components"]) == 22
    assert len(doc["matrix"]) == 33
    assert {"kind", "from", "to"} <= set(doc["relationships"][0])


def test_iso_report_json(capsys):
    assert main(["report", "iso", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 17
    unsupported = [r for r in doc["rows"] if r["support"] == "none"]
    assert len(unsupported) == 3


def test_traceability_report_text(capsys):
    assert main(["report", "traceability"]) == 0
    out = capsys.readouterr().out
    assert "cells: 33" in out
    assert "UNMAPPED" not in out


# -- parse -------------------------------------------------------------------------


def test_parse_ultralight_file(tmp_path, capsys):
    payload = tmp_path / "payload.txt"
    payload.write_text("f|35|s|12.5", encoding="utf-8")
    code = main(["parse", "--format", "ultralight", "--device", "TLF01",
                 "--map", "f=vehicleFlow", "--map", "s=speed",
                 str(payload)])
    assert code == 0
    docs = json.loads(capsys.readouterr().out)
    assert [(d["attribute"], d["value"]) for d in docs] == [
        ("vehicleFlow", 35), ("speed", 12.5)]
    assert all(d["entity_id"] == "TLF01" for d in docs)


def test_parse_without_device_is_a_config_error(tmp_path, capsys):
    payload = tmp_path / "payload.txt"
    payload.write_text("f|35", encoding="utf-8")
    assert main(["parse", "--format", "ultralight", str(payload)]) == 2
    assert "config error:" in capsys.readouterr().err


def test_parse_malformed_payload_is_a_runtime_error(tmp_path, capsys):
    payload = tmp_path / "payload.txt"
    payload.write_text("f|", encoding="utf-8")
    code = main(["parse", "--format", "ultralight", "--device", "d1",
                 str(payload)])
    assert code == 4
    assert "MalformedPayload" in capsys.readouterr().err


# -- ingest / store / shadow -------------------------------------------------------


def test_ingest_writes_receipts_and_a_replayable_journal(
        tmp_path, monkeypatch, capsys):
    journal = tmp_path / "journal.jsonl"
    monkeypatch.setattr("sys.stdin", io.StringIO("f|20\n\nf|25\n"))
    code = main(["ingest", "--format", "ultralight", "--device", "TLF01",
                 "--map", "f=vehicleFlow", "--journal", str(journal)])
    assert code == 0
    receipts = [json.loads(line)
                for line in capsys.readouterr().out.splitlines() if line]
    assert receipts == [
        {"decoded": 1, "stored": 1, "rejected": 0, "dropped": 0},
        {"decoded": 1, "stored": 1, "rejected": 0, "dropped": 0}]

    assert main(["store", "dump", "--journal", str(journal),
                 "--namespace", "Measurements"]) == 0
    rows = [json.loads(line)
            for line in capsys.readouterr().out.splitlines() if line]
    assert len(rows) == 2


def test_ingest_appends_after_a_torn_tail(tmp_path, monkeypatch, capsys,
                                          caplog):
    journal = tmp_path / "journal.jsonl"
    monkeypatch.setattr("sys.stdin", io.StringIO("f|20\nf|25\n"))
    assert main(["ingest", "--format", "ultralight", "--device", "TLF01",
                 "--journal", str(journal)]) == 0
    data = journal.read_bytes()
    journal.write_bytes(data[:-10])     # a crash in the second line
    tail = len(data) - 10 - (data.index(b"\n") + 1)
    monkeypatch.setattr("sys.stdin", io.StringIO("f|30\n"))
    assert main(["ingest", "--format", "ultralight", "--device", "TLF01",
                 "--journal", str(journal)]) == 0
    (warning,) = caplog.records
    assert warning.getMessage() == \
        f"{journal}: dropped a torn final line of {tail} bytes"
    lines = journal.read_bytes().splitlines(keepends=True)
    assert len(lines) == 2 and lines[0] == data[:data.index(b"\n") + 1]
    capsys.readouterr()
    assert main(["store", "dump", "--journal", str(journal),
                 "--namespace", "Measurements"]) == 0
    assert capsys.readouterr().out


def _ingest(monkeypatch, journal, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return main(["ingest", "--format", "ultralight", "--device", "TLF01",
                 "--journal", str(journal)])


def test_a_second_ingest_continues_the_journal(tmp_path, monkeypatch,
                                               capsys):
    # both runs stamp their first line at the same instant: the second
    # is the key's revision 2, not a second revision 1
    journal = tmp_path / "journal.jsonl"
    assert _ingest(monkeypatch, journal, "f|10\n") == 0
    assert _ingest(monkeypatch, journal, "f|99\n") == 0
    capsys.readouterr()
    assert main(["store", "dump", "--journal", str(journal),
                 "--namespace", "Measurements"]) == 0
    (row,) = map(json.loads, capsys.readouterr().out.splitlines())
    assert (row["body"]["value"], row["revision"]) == (99, 2)


def test_a_revision_out_of_sequence_is_corrupt(tmp_path, monkeypatch,
                                               capsys):
    journal = tmp_path / "journal.jsonl"
    assert _ingest(monkeypatch, journal, "f|10\nf|20\n") == 0
    first, second = journal.read_text(encoding="utf-8").splitlines(True)
    assert '"revision": 1}' in second
    journal.write_text(first + second.replace('"revision": 1}',
                                              '"revision": 7}'),
                       encoding="utf-8")
    capsys.readouterr()
    assert main(["store", "dump", "--journal", str(journal),
                 "--namespace", "Measurements"]) == 4
    assert capsys.readouterr().err.startswith(
        f"error: JournalCorrupt: {journal}: line 2: revision 7, expected 1")


@pytest.mark.parametrize("command", [
    ["shadow", "get"], ["service", "predict", "--entity", "TLF01",
                        "--horizon", "3"]])
@pytest.mark.parametrize("change", [
    {"attributes": [["vehicleFlow"]]}, {"attributes": 5},
    {"attributes": "vehicleFlow"}, {"attributes": []}, {"type": None},
    {"type": ""}, {"entity_type": 7}], ids=repr)
def test_a_malformed_shadow_descriptor_is_refused_naming_it(
        tmp_path, repo_root, capsys, command, change):
    lines = (repo_root / "out" / "prediction" / "journal.jsonl").read_text(
        encoding="utf-8").splitlines(True)
    line = json.loads(lines[0])
    assert line["key"]["name"] == "traffic.__descriptor__"
    line["body"].update(change)
    journal = tmp_path / "journal.jsonl"
    journal.write_text(json.dumps(line) + "\n" + "".join(lines[1:]),
                       encoding="utf-8")
    capsys.readouterr()
    assert main([*command[:2], "--journal", str(journal), *command[2:]]) == 4
    assert capsys.readouterr().err.startswith(
        "error: JournalCorrupt: shadow descriptor "
        "TLF01/traffic.__descriptor__: ")


def test_ingest_onto_a_corrupt_journal_leaves_it_alone(tmp_path, monkeypatch,
                                                       capsys):
    journal = tmp_path / "journal.jsonl"
    assert _ingest(monkeypatch, journal, "f|10\n") == 0
    journal.write_text(journal.read_text(encoding="utf-8") + "{oops\n",
                       encoding="utf-8")
    data = journal.read_bytes()
    capsys.readouterr()
    assert _ingest(monkeypatch, journal, "f|20\n") == 4
    assert capsys.readouterr().err.startswith(
        f"error: JournalCorrupt: {journal}: line 2: ")
    assert journal.read_bytes() == data


def test_ingest_reports_bad_lines_without_dying(tmp_path, monkeypatch, capsys):
    journal = tmp_path / "journal.jsonl"
    monkeypatch.setattr("sys.stdin", io.StringIO("f|\nf|30\n"))
    code = main(["ingest", "--format", "ultralight", "--device", "TLF01",
                 "--journal", str(journal)])
    assert code == 0
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines() if line]
    assert lines[0]["error"] == "MalformedPayload"
    assert lines[1]["stored"] == 1


def test_ingest_stamps_lines_from_the_default_epoch(tmp_path, monkeypatch):
    monkeypatch.setenv("TWINARCH_EPOCH", "garbage")
    journal = tmp_path / "journal.jsonl"
    monkeypatch.setattr("sys.stdin", io.StringIO("f|20\nf|25\n"))
    assert main(["ingest", "--format", "ultralight", "--device", "TLF01",
                 "--journal", str(journal)]) == 0
    records = SharedStorage.replay(journal).crud_read(
        Query(namespace=Namespace.MEASUREMENTS))
    assert [r.key.observed_at for r in records] == [
        DEFAULT_EPOCH, DEFAULT_EPOCH + timedelta(seconds=1)]


def _twinarch(repo_root, *argv):
    """`python -m twinarch ARGV` as a child process, its stdout piped."""
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    return subprocess.Popen([sys.executable, "-m", "twinarch", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("argv", [["catalog"], ["catalog", "--check"]],
                         ids=["fails-mid-write", "fails-at-flush"])
def test_a_closed_stdout_exits_quietly(repo_root, argv):
    # the read end is closed before the child starts, so every write
    # to its stdout fails, whenever it happens
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "twinarch", *argv],
            env=dict(os.environ, PYTHONPATH=str(repo_root / "src")),
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_ingest_listen_leaves_a_file_that_is_not_a_socket(tmp_path,
                                                          repo_root):
    target = tmp_path / "notes.txt"
    target.write_text("keep me", encoding="utf-8")
    proc = _twinarch(repo_root, "ingest", "--format", "ultralight",
                     "--device", "d1", "--listen", str(target))
    try:
        _, err = proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
    assert target.read_text(encoding="utf-8") == "keep me"
    assert proc.returncode == 2
    assert "not a socket" in err


def test_ingest_listen_replaces_a_stale_socket(tmp_path, repo_root):
    path = tmp_path / "s"
    stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    stale.bind(str(path))
    stale.close()       # the file stays: a socket nobody listens on
    proc = _twinarch(repo_root, "ingest", "--format", "ultralight",
                     "--device", "d1", "--listen", str(path))
    try:
        deadline = time.monotonic() + 10
        while True:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                client.connect(str(path))
                break
            except OSError:
                client.close()
                assert time.monotonic() < deadline, "server never listened"
                time.sleep(0.05)
        with client, client.makefile("rw", encoding="utf-8") as stream:
            stream.write("f|20\n")
            stream.flush()
            client.shutdown(socket.SHUT_WR)
            receipts = stream.read()
        assert proc.wait(timeout=10) == 0
    finally:
        proc.kill()
        proc.communicate()
    assert json.loads(receipts) == {"decoded": 1, "stored": 1,
                                    "rejected": 0, "dropped": 0}
    assert not path.exists()


def test_parse_and_ingest_dtdl_with_the_fixture_model(repo_root, monkeypatch,
                                                      capsys):
    fixtures = repo_root / "fixtures"
    model = str(fixtures / "dtdl_interface.json")
    telemetry = fixtures / "dtdl_telemetry.json"
    assert main(["parse", "--format", "dtdl", "--model", model,
                 str(telemetry)]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [(d["attribute"], d["value"]) for d in docs] == [
        ("vehicleCount", 35)]
    line = json.dumps(json.loads(telemetry.read_text(encoding="utf-8")))
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    assert main(["ingest", "--format", "dtdl", "--device", "d1",
                 "--model", model]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "decoded": 1, "stored": 1, "rejected": 0, "dropped": 0}


@pytest.mark.parametrize("command, model", [
    ("parse", "absent"), ("parse", "{not json"), ("parse", "[]"),
    ("parse", "{}"),
    ("ingest", "absent"), ("ingest", "{not json"), ("ingest", "[]"),
    ("ingest", "{}"), ("ingest", None)])
def test_dtdl_model_problems_are_config_errors(tmp_path, monkeypatch, capsys,
                                               command, model):
    telemetry = '{"vehicleCount": 35}'
    payload = tmp_path / "telemetry.json"
    payload.write_text(telemetry, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(telemetry + "\n"))
    argv = [command, "--format", "dtdl", "--device", "d1"]
    if model is not None:
        path = tmp_path / "model.json"
        if model != "absent":
            path.write_text(model, encoding="utf-8")
        argv += ["--model", str(path)]
    journal = tmp_path / "journal.jsonl"
    argv += [str(payload)] if command == "parse" else ["--journal",
                                                        str(journal)]
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err
    assert not journal.exists()


def test_store_dump_rejects_unknown_namespace(tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    journal.write_text("", encoding="utf-8")
    code = main(["store", "dump", "--journal", str(journal),
                 "--namespace", "Nope"])
    assert code == 2


def test_store_dump_missing_journal_is_a_config_error(tmp_path):
    assert main(["store", "dump", "--journal", str(tmp_path / "no.jsonl"),
                 "--namespace", "Measurements"]) == 2


# -- sim ---------------------------------------------------------------------------


SPEC_DOC = {
    "model_id": "m1",
    "kind": "traffic-flow",
    "parameters": {"capacity": 30.0, "inflow_gain": 1.0,
                   "green_sensitivity": 1.5},
    "inputs": ["inflow"],
    "outputs": ["density"],
}

SCENARIO_DOC = {
    "scenario_id": "s1",
    "model_id": "m1",
    "initial_state": {"density": 0.0},
    "input_series": {"inflow": [45.0, 45.0]},
    "horizon": 2,
    "step_size": 1.0,
    "seed": 0,
    "objective_metric": "density",
}


def test_sim_run_with_embedded_model(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"model": SPEC_DOC,
                                    "scenario": SCENARIO_DOC}),
                        encoding="utf-8")
    assert main(["sim", "run", "--scenario", str(scenario)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario_id"] == "s1"
    assert [s["density"] for s in doc["series"]] == \
        pytest.approx([0.5, 1.0], abs=1e-12)
    assert doc["objective"] == pytest.approx(1.0)


def test_sim_run_with_split_files(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    model = tmp_path / "model.json"
    scenario.write_text(json.dumps(SCENARIO_DOC), encoding="utf-8")
    model.write_text(json.dumps(SPEC_DOC), encoding="utf-8")
    assert main(["sim", "run", "--scenario", str(scenario),
                 "--model", str(model)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == pytest.approx(1.0)


def test_sim_run_without_model_is_a_config_error(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO_DOC), encoding="utf-8")
    assert main(["sim", "run", "--scenario", str(scenario)]) == 2


# a None value stands for a key left out
REJECTED = [
    ("horizon-0", "scenario", {"horizon": 0}),
    ("zero-capacity", "scenario", {"overrides": {"capacity": 0}}),
    ("unknown-names", "scenario", {"input_series": {"nitrogen": [1.0]},
                                   "overrides": {"bogus": 1.0}}),
    ("nan-initial-state", "scenario",
     {"initial_state": {"density": float("nan")}}),
    ("model-without-kind", "model", {"kind": None}),
    # both documents are read as strictly as a manifest
    ("model-unknown-key", "model", {"colour": "red"}),
    ("model-version-string", "model", {"version": "3"}),
    ("model-version-float", "model", {"version": 2.7}),
    ("model-capacity-bool", "model", {"parameters": {
        **SPEC_DOC["parameters"], "capacity": True}}),
    ("scenario-horizon-float", "scenario", {"horizon": 2.7}),
    ("scenario-horizon-over-bound", "scenario", {"horizon": MAX_HORIZON + 1}),
    ("scenario-horizon-huge", "scenario", {"horizon": 10**19}),
    ("scenario-seed-string", "scenario", {"seed": "4"}),
    ("scenario-unknown-key", "scenario", {"colour": "red"}),
    ("scenario-of-another-model", "scenario", {"model_id": "other"}),
]


@pytest.mark.parametrize("section,change", [row[1:] for row in REJECTED],
                         ids=[row[0] for row in REJECTED])
def test_sim_run_rejects_an_invalid_scenario(tmp_path, capsys, section,
                                             change):
    doc = {"model": dict(SPEC_DOC), "scenario": dict(SCENARIO_DOC)}
    doc[section].update(change)
    doc[section] = {k: v for k, v in doc[section].items() if v is not None}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["sim", "run", "--scenario", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("content", [None, "{oops"],
                         ids=["absent", "not-json"])
def test_sim_run_rejects_an_unreadable_scenario_file(tmp_path, capsys,
                                                     content):
    scenario = tmp_path / "scenario.json"
    if content is not None:
        scenario.write_text(content, encoding="utf-8")
    assert main(["sim", "run", "--scenario", str(scenario)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_sim_run_reproduces_the_stored_what_if_results(tmp_path, repo_root,
                                                      capsys):
    # what the runtime writes, the strict readers read back
    manifest = write_manifest(tmp_path, repo_root, name="prediction")
    assert main(["run", "--loop", "prediction",
                 "--config", str(manifest)]) == 0
    capsys.readouterr()
    assert main(["store", "dump", "--namespace", "SimResults", "--journal",
                 str(tmp_path / "out" / "journal.jsonl")]) == 0
    bodies = [json.loads(line)["body"]
              for line in capsys.readouterr().out.splitlines()]
    assert len(bodies) == 3
    for index, body in enumerate(bodies):
        embedded = tmp_path / f"result{index}.json"
        embedded.write_text(json.dumps(body), encoding="utf-8")
        assert main(["sim", "run", "--scenario", str(embedded)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["series"] == body["series"]
        assert doc["objective"] == body["objective"]
    model, scenario = tmp_path / "model.json", tmp_path / "scenario.json"
    model.write_text(json.dumps(body["model"]), encoding="utf-8")
    scenario.write_text(json.dumps(body["scenario"]), encoding="utf-8")
    assert main(["sim", "run", "--scenario", str(scenario),
                 "--model", str(model)]) == 0
    assert json.loads(capsys.readouterr().out)["series"] == body["series"]


# -- run ---------------------------------------------------------------------------


def write_manifest(tmp_path, repo_root, name="monitoring",
                   run_from=None, output_dir="out"):
    """Manifest in tmp referencing the demo section files."""
    demo = repo_root / "configs" / "demo"
    doc = {
        "harness": str(demo / name / "harness.json"),
        "run": str(run_from or demo / name / "run.json"),
        "thresholds": str(demo / name / "thresholds.json"),
        "output_dir": output_dir,
    }
    if (demo / name / "candidates.json").exists():
        doc["candidates"] = str(demo / name / "candidates.json")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_run_monitoring_checks_clean(tmp_path, repo_root, capsys):
    manifest = write_manifest(tmp_path, repo_root)
    code = main(["run", "--loop", "monitoring", "--config", str(manifest),
                 "--check"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "ticks: 10" in out
    assert "conformance: Pass (10 instances" in out
    out_dir = tmp_path / "out"
    for artifact in ("journal.jsonl", "trace.jsonl", "states.json",
                     "conformance.txt"):
        assert (out_dir / artifact).exists(), artifact
    states = json.loads((out_dir / "states.json").read_text(encoding="utf-8"))
    assert states["TLF01"]["metrics"]["density"] == pytest.approx(1.0)
    assert states["TLF01"]["provenance"] == "Fused"


def test_run_prediction_writes_the_plan(tmp_path, repo_root, capsys):
    manifest = write_manifest(tmp_path, repo_root, name="prediction")
    code = main(["run", "--loop", "prediction", "--config", str(manifest),
                 "--check"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "plan: extend-green" in out
    plan = json.loads((tmp_path / "out" / "plan.json").read_text(
        encoding="utf-8"))
    assert plan["actions"] == [{"name": "extend-green", "target": "TLF01",
                                "arguments": {"seconds": 20}}]
    assert plan["scenario_ids"][0] == "whatif-2-extend-green-only"


def test_run_against_swapped_template_exits_3(tmp_path, repo_root, capsys):
    swapped = repo_root / "configs" / "demo" / "monitoring_swapped"
    manifest = write_manifest(tmp_path, repo_root,
                              run_from=swapped / "run.json")
    code = main(["run", "--loop", "monitoring", "--config", str(manifest),
                 "--check"])
    out = capsys.readouterr().out
    assert code == 3
    assert "conformance: Fail" in out


def test_run_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--loop", "monitoring",
                 "--config", str(tmp_path / "absent.json")])
    assert code == 2


@pytest.mark.parametrize("ticks", ["-5", "0", "three"])
def test_run_rejects_bad_tick_count_before_touching_output(
        tmp_path, repo_root, capsys, ticks):
    manifest = write_manifest(tmp_path, repo_root)
    assert main(["run", "--loop", "monitoring", "--config", str(manifest),
                 "--check"]) == 0
    journal = tmp_path / "out" / "journal.jsonl"
    before = journal.read_bytes()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["run", "--loop", "monitoring", "--config", str(manifest),
              "--ticks", ticks, "--check"])
    assert exc.value.code == 2
    assert "--ticks" in capsys.readouterr().err
    assert journal.read_bytes() == before


def test_run_with_a_misspelt_run_key_exits_2(tmp_path, repo_root, capsys):
    run = json.loads((repo_root / "configs" / "demo" / "monitoring" /
                      "run.json").read_text(encoding="utf-8"))
    run["max_tick"] = run.pop("max_ticks")
    misspelt = tmp_path / "run.json"
    misspelt.write_text(json.dumps(run), encoding="utf-8")
    manifest = write_manifest(tmp_path, repo_root, run_from=misspelt)
    assert main(["run", "--loop", "monitoring",
                 "--config", str(manifest)]) == 2
    assert "run: unknown keys ['max_tick']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, text", [
    (("harness", "response_gain"), "1" + "0" * 400),
    (("run", "tick_interval"), "NaN"),
    (("run", "model", "parameters", "capacity"), "Infinity"),
], ids=["response-gain-400-digits", "tick-interval-nan", "capacity-infinity"])
def test_a_manifest_number_no_float_holds_exits_2(tmp_path, repo_root, capsys,
                                                  path, text):
    # json.loads reads all three, but none is a number a float holds
    demo = repo_root / "configs" / "demo" / "monitoring"
    doc = {name: json.loads((demo / f"{name}.json").read_text(
        encoding="utf-8")) for name in ("harness", "run")}
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc).replace('"@"', text), encoding="utf-8")
    assert main(["run", "--loop", "monitoring",
                 "--config", str(manifest)]) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_prediction_without_candidates_exits_2(tmp_path, repo_root):
    # the monitoring manifest has no candidate catalog
    manifest = write_manifest(tmp_path, repo_root, name="monitoring")
    assert main(["run", "--loop", "prediction",
                 "--config", str(manifest)]) == 2


@pytest.mark.parametrize("action", [
    {"name": "divert-traffic", "args": {"fraction": "0.5"}},
    {"name": "extend-green", "args": {"seconds": float("nan")}},
    {"name": "divert-traffic", "args": {"fraction": True}},
    {"name": "open-bridge"},
], ids=["text-fraction", "nan-seconds", "boolean-fraction", "unknown-name"])
def test_run_refuses_an_unmappable_candidate_at_load(tmp_path, repo_root,
                                                     action, capsys):
    manifest = write_manifest(tmp_path, repo_root, name="prediction")
    doc = json.loads(manifest.read_text(encoding="utf-8"))
    doc["candidates"] = {"candidates": [{"id": "c", "actions": [action]}]}
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--loop", "prediction",
                 "--config", str(manifest)]) == 2
    assert "candidates.candidates[0].actions[0]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- service -----------------------------------------------------------------------


@pytest.fixture()
def run_journal(tmp_path, repo_root, capsys):
    manifest = write_manifest(tmp_path, repo_root)
    assert main(["run", "--loop", "monitoring",
                 "--config", str(manifest)]) == 0
    capsys.readouterr()
    return tmp_path / "out" / "journal.jsonl"


def test_store_dump_drops_a_torn_tail(run_journal, tmp_path, capsys,
                                      caplog):
    data = run_journal.read_bytes()
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(data[:-10])
    tail = len(data) - 10 - (data.rindex(b"\n", 0, len(data) - 10) + 1)
    assert main(["store", "dump", "--journal", str(torn),
                 "--namespace", "Feedback"]) == 0
    dumped = capsys.readouterr().out.splitlines()
    assert main(["store", "dump", "--journal", str(run_journal),
                 "--namespace", "Feedback"]) == 0
    # the journal's last line is the last tick's feedback
    assert dumped == capsys.readouterr().out.splitlines()[:-1]
    (warning,) = caplog.records
    assert warning.getMessage() == \
        f"{torn}: dropped a torn final line of {tail} bytes"


def test_store_dump_of_a_corrupt_line_exits_4(run_journal, tmp_path, capsys):
    lines = run_journal.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = lines[2][:20] + "\n"
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("".join(lines), encoding="utf-8")
    assert main(["store", "dump", "--journal", str(corrupt),
                 "--namespace", "Measurements"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: JournalCorrupt: {corrupt}: line 3: ")


def test_shadow_get_over_a_run_journal(run_journal, capsys):
    code = main(["shadow", "get", "--journal", str(run_journal),
                 "--type", "traffic", "--entity", "TLF01"])
    assert code == 0
    docs = json.loads(capsys.readouterr().out)
    assert len(docs) == 1
    values = [p["value"] for p in docs[0]["trace"]]
    assert values == [20, 25, 30, 35, 40, 45, 50, 50, 50, 50]
    assert not any(p["late"] for p in docs[0]["trace"])


def test_service_predict_over_a_run_journal(run_journal, tmp_path, capsys):
    thresholds = tmp_path / "bands.json"
    thresholds.write_text(json.dumps(
        {"bands": {"vehicleFlow": {"lo": 0.0, "hi": 43.0}}}),
        encoding="utf-8")
    code = main(["service", "predict", "--journal", str(run_journal),
                 "--entity", "TLF01", "--horizon", "3",
                 "--thresholds", str(thresholds)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "linear"
    assert len(doc["series"]) == 3
    # the ramp flattens at 50, so every forecast step sits over the band
    assert doc["deviations"][0]["metric"] == "vehicleFlow"
    assert doc["deviations"][0]["kind"] == "Predicted"


@pytest.mark.parametrize("content", [
    None,
    "{oops",
    json.dumps({"bands": {"vehicleFlow": {"hi": 43.0}}}),
    json.dumps({"bands": {"vehicleFlow": {"lo": 43.0, "hi": 0.0}}}),
    json.dumps([1, 2]),
], ids=["absent", "not-json", "band-without-lo", "band-upside-down",
        "not-an-object"])
def test_service_predict_rejects_bad_thresholds(run_journal, tmp_path,
                                                capsys, content):
    thresholds = tmp_path / "bands.json"
    if content is not None:
        thresholds.write_text(content, encoding="utf-8")
    code = main(["service", "predict", "--journal", str(run_journal),
                 "--entity", "TLF01", "--horizon", "3",
                 "--thresholds", str(thresholds)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


@pytest.mark.parametrize("value", ["0", "-3", "x"])
@pytest.mark.parametrize("flag", ["--horizon", "--window", "--connections"])
def test_count_flags_reject_values_below_one(run_journal, tmp_path,
                                             monkeypatch, capsys, flag,
                                             value):
    monkeypatch.setattr("sys.stdin", io.StringIO("f|20\n"))
    if flag == "--connections":
        argv = ["ingest", "--format", "ultralight", "--device", "TLF01",
                "--journal", str(tmp_path / "ingest.jsonl")]
    else:
        argv = ["service", "predict", "--journal", str(run_journal),
                "--entity", "TLF01", "--horizon", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("value", [MAX_HORIZON + 1, 10**19])
def test_service_predict_refuses_a_horizon_beyond_the_bound(
        run_journal, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["service", "predict", "--journal", str(run_journal),
              "--entity", "TLF01", "--horizon", str(value)])
    assert exc.value.code == 2
    assert f"at most {MAX_HORIZON}" in capsys.readouterr().err


def test_service_predict_without_history_exits_4(tmp_path, monkeypatch,
                                                 capsys):
    journal = tmp_path / "journal.jsonl"
    monkeypatch.setattr("sys.stdin", io.StringIO("f|20\n"))
    assert main(["ingest", "--format", "ultralight", "--device", "TLF01",
                 "--journal", str(journal)]) == 0
    capsys.readouterr()
    code = main(["service", "predict", "--journal", str(journal),
                 "--entity", "TLF01", "--horizon", "3"])
    assert code == 4
    assert "InsufficientHistory" in capsys.readouterr().err


# -- determinism -------------------------------------------------------------------


def test_same_seed_reproduces_run_artifacts_byte_for_byte(
        tmp_path, repo_root, capsys):
    outputs = []
    for sub in ("a", "b"):
        base = tmp_path / sub
        base.mkdir()
        manifest = write_manifest(base, repo_root, name="prediction")
        assert main(["run", "--loop", "prediction", "--config", str(manifest),
                     "--seed", "7"]) == 0
        outputs.append(capsys.readouterr().out)
    for artifact in ("journal.jsonl", "trace.jsonl", "states.json",
                     "plan.json"):
        first = (tmp_path / "a" / "out" / artifact).read_bytes()
        second = (tmp_path / "b" / "out" / artifact).read_bytes()
        assert first == second, artifact
    assert outputs[0] == outputs[1]
