"""Command line entry point.

One binary, eight subcommands: catalog checks and exports, payload
parsing, journal inspection, shadow queries, one-shot simulations,
forecasting, telemetry ingestion, and full closed-loop runs. Exit
codes: 0 success, 2 configuration error, 3 conformance failure,
4 runtime failure, 141 stdout closed by its reader. Log level comes
from TWINARCH_LOG.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import socket
import sys
from datetime import timedelta
from pathlib import Path

from .catalog import (catalog_to_json, check_traceability, iso_report,
                      load_catalog, traceability_report)
from .clock import DEFAULT_EPOCH, format_rfc3339, parse_rfc3339
from .configs import (dtdl_interface, load_manifest, model_spec, parse_bands,
                      read_json, sim_scenario)
from .errors import ConfigError, ParseError, TwinArchError
from .orchestrator import run_loop
from .services import (FORECAST_METHODS, PredictorConfig, Predictor,
                       DeviationDetector)
from .shadows import ShadowManager
from .simulation import execute
from .storage import Namespace, Query, SharedStorage
from .wire import Source
from .adapters import AdapterConfig, Direction, P2DAdapter, parse_payload

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONFORMANCE = 3
EXIT_RUNTIME = 4
EXIT_BROKEN_PIPE = 141   # what a shell reports for a filter ended by SIGPIPE

log = logging.getLogger("twinarch.cli")


def _setup_logging() -> None:
    level = os.environ.get("TWINARCH_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _print_json(doc: object) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _positive_int(text: str) -> int:
    """argparse type for counts and sizes: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_map(pairs: list[str]) -> dict[str, str]:
    mapping = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ConfigError(f"--map entries look like short=attribute, got {pair!r}")
        mapping[key] = value
    return mapping


# ---------------------------------------------------------------------------
# catalog / report
# ---------------------------------------------------------------------------

def cmd_catalog(args: argparse.Namespace) -> int:
    catalog = load_catalog()
    if args.check:
        report = check_traceability(catalog.matrix, catalog.components)
        print(f"entities: {len(catalog.entities)}")
        print(f"components: {len(catalog.components)}")
        print(f"matrix cells: {report.total_cells}")
        print(f"unmapped components: {len(report.unmapped_components)}")
        for name in report.unmapped_components:
            print(f"  UNMAPPED: {name}")
        print("verdict: Pass" if report.ok else "verdict: Fail")
        return EXIT_OK if report.ok else EXIT_CONFORMANCE
    sys.stdout.write(catalog_to_json())
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    render = iso_report if args.kind == "iso" else traceability_report
    sys.stdout.write(render(args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parse / ingest
# ---------------------------------------------------------------------------

def _adapter_config(args: argparse.Namespace) -> AdapterConfig:
    """The inbound adapter configuration `parse` and `ingest` share; an
    input the format needs but lacks is a configuration error."""
    fmt = Source(args.format)
    if fmt is Source.ULTRALIGHT and not args.device:
        raise ConfigError("ultralight payloads need --device")
    dtdl_model = None
    if fmt is Source.DTDL:
        if not args.model:
            raise ConfigError("dtdl telemetry needs --model interface.json")
        dtdl_model = dtdl_interface(
            read_json(Path(args.model), "DTDL model file"), args.model)
    return AdapterConfig(direction=Direction.P2D, format=fmt,
                         attribute_map=_parse_map(args.map),
                         entity_type=args.entity_type,
                         dtdl_model=dtdl_model)


def cmd_parse(args: argparse.Namespace) -> int:
    config = _adapter_config(args)
    payload = _read_input(args.file)
    measurements = parse_payload(config, payload, args.device,
                                 parse_rfc3339(args.observed_at))
    _print_json([m.to_json() for m in measurements])
    return EXIT_OK


def _ingest_lines(adapter: P2DAdapter, lines, device: str, out) -> None:
    for index, line in enumerate(lines):
        line = line.rstrip("\n")
        if not line:
            continue
        observed_at = DEFAULT_EPOCH + timedelta(seconds=index)
        try:
            receipt = adapter.ingest(line, device, observed_at=observed_at)
        except ParseError as exc:
            out.write(json.dumps({"error": type(exc).__name__,
                                  "detail": str(exc)}) + "\n")
            out.flush()
            continue
        out.write(json.dumps({"decoded": receipt.decoded,
                              "stored": receipt.stored,
                              "rejected": receipt.rejected,
                              "dropped": receipt.dropped}) + "\n")
        out.flush()


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _adapter_config(args)
    listen = Path(args.listen) if args.listen else None
    if listen is not None and listen.exists() and not listen.is_socket():
        raise ConfigError(f"--listen {listen}: exists and is not a socket")
    storage = SharedStorage(journal_path=args.journal)
    adapter = P2DAdapter(config, storage)
    try:
        if listen is not None:
            _serve_socket(adapter, args)
        else:
            _ingest_lines(adapter, sys.stdin, args.device, sys.stdout)
    finally:
        storage.close()
    return EXIT_OK


def _serve_socket(adapter: P2DAdapter, args: argparse.Namespace) -> None:
    """Line-delimited ingestion over a local stream socket.

    Serves one connection at a time; exits after --connections clients
    (default 1) have disconnected, so harness drivers can run it as a
    bounded subprocess. A stale socket at the path is replaced.
    """
    path = Path(args.listen)
    if path.is_socket():
        path.unlink()
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        server.bind(str(path))
        server.listen(1)
        log.info("listening on %s", path)
        for _ in range(args.connections):
            conn, _addr = server.accept()
            try:
                with conn, conn.makefile("r", encoding="utf-8") as reader, \
                        conn.makefile("w", encoding="utf-8") as writer:
                    _ingest_lines(adapter, reader, args.device, writer)
            except (BrokenPipeError, ConnectionResetError) as exc:
                # data already ingested stays ingested; only the receipt
                # stream to this client is lost
                log.warning("client disconnected early: %s", exc)
    finally:
        server.close()
        if path.exists():
            path.unlink()


# ---------------------------------------------------------------------------
# store / shadow / service (journal-backed, read only)
# ---------------------------------------------------------------------------

def _replayed(journal: str) -> SharedStorage:
    if not Path(journal).exists():
        raise ConfigError(f"journal not found: {journal}")
    return SharedStorage.replay(journal)


def _replayed_shadows(journal: str) -> ShadowManager:
    manager = ShadowManager(_replayed(journal))
    manager.rebuild_index()
    return manager


def cmd_store_dump(args: argparse.Namespace) -> int:
    storage = _replayed(args.journal)
    try:
        namespace = Namespace(args.namespace)
    except ValueError as exc:
        raise ConfigError(
            f"unknown namespace {args.namespace!r}; one of "
            f"{sorted(n.value for n in Namespace)}") from exc
    for doc in storage.dump(namespace):
        sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_shadow_get(args: argparse.Namespace) -> int:
    manager = _replayed_shadows(args.journal)
    time_from = parse_rfc3339(args.time_from) if args.time_from else None
    time_to = parse_rfc3339(args.time_to) if args.time_to else None
    shadows = manager.get_shadow(type_name=args.type, entity_id=args.entity,
                                 time_from=time_from, time_to=time_to)
    docs = [{
        "shadow_id": s.shadow_id,
        "type": s.type.name,
        "entity_id": s.entity_id,
        "created_at": format_rfc3339(s.created_at),
        "trace": [{"observed_at": format_rfc3339(p.observed_at),
                   "attribute": p.attribute, "value": p.value,
                   "late": p.late} for p in s.trace],
    } for s in shadows]
    _print_json(docs)
    return EXIT_OK


def cmd_service_predict(args: argparse.Namespace) -> int:
    config = PredictorConfig(method=args.method, window=args.window)
    predictor = Predictor(_replayed_shadows(args.journal), config)
    prediction = predictor.prediction(args.entity, args.horizon)
    doc: dict = {
        "entity_id": prediction.entity_id,
        "method": prediction.method,
        "horizon": args.horizon,
        "series": [[format_rfc3339(stamp), metrics]
                   for stamp, metrics in prediction.predicted_series],
    }
    if args.thresholds:
        detector = DeviationDetector(parse_bands(
            read_json(Path(args.thresholds), "thresholds file")))
        doc["deviations"] = [{
            "metric": d.metric, "value": d.value, "expected": d.expected,
            "severity": d.severity.value, "kind": d.kind.value,
            "detected_at": format_rfc3339(d.detected_at),
        } for d in detector.detect_deviation(prediction)]
    _print_json(doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sim
# ---------------------------------------------------------------------------

def cmd_sim_run(args: argparse.Namespace) -> int:
    doc = read_json(Path(args.scenario), "scenario file")
    if isinstance(doc, dict) and "scenario" in doc and "model" in doc:
        spec_doc, scenario_doc = doc["model"], doc["scenario"]
    else:
        if not args.model:
            raise ConfigError(
                "scenario file has no embedded model; pass --model spec.json")
        spec_doc = read_json(Path(args.model), "model file")
        scenario_doc = doc
    spec = model_spec(spec_doc, "model")
    scenario = sim_scenario(scenario_doc, "scenario", spec)
    completed_at = scenario.base_time or DEFAULT_EPOCH
    result = execute(spec, scenario, completed_at=completed_at)
    _print_json({
        "scenario_id": result.scenario_id,
        "series": result.state_series,
        "objective": result.objective,
        "completed_at": format_rfc3339(result.completed_at),
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.config, loop=args.loop)
    out_dir = manifest.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    journal = out_dir / "journal.jsonl"
    if journal.exists():
        journal.unlink()

    output, manager = run_loop(manifest, args.loop, seed=args.seed,
                               ticks=args.ticks, journal_path=journal,
                               check=args.check)
    try:
        output.tracer.write_jsonl(out_dir / "trace.jsonl")
        states = {entity: state.to_json()
                  for entity, state in output.states.items()}
        (out_dir / "states.json").write_text(
            json.dumps(states, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        if output.plan is not None:
            plan = output.plan
            (out_dir / "plan.json").write_text(json.dumps({
                "entity_id": plan.entity_id,
                "actions": [{"name": a.name, "target": a.target,
                             "arguments": dict(a.arguments)}
                            for a in plan.actions],
                "expected_objective": plan.expected_objective,
                "scenario_ids": list(plan.scenario_ids),
                "deviation_id": plan.deviation_id,
            }, indent=2) + "\n", encoding="utf-8")
        print(f"loop: {args.loop}")
        print(f"ticks: {output.ticks_run}")
        print(f"trace events: {len(output.tracer.events)}")
        print(f"trace digest: {output.tracer.digest()}")
        if output.plan is not None:
            names = ", ".join(a.name for a in output.plan.actions)
            print(f"plan: {names} "
                  f"(objective {output.plan.expected_objective:.4f})")
        if args.check:
            report = output.report
            assert report is not None
            (out_dir / "conformance.txt").write_text(report.describe() + "\n",
                                                     encoding="utf-8")
            print(f"conformance: {'Pass' if report.ok else 'Fail'} "
                  f"({report.instances} instances of {report.template})")
            if not report.ok:
                print(report.describe())
                return EXIT_CONFORMANCE
        return EXIT_OK
    finally:
        manager.shutdown()


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinarch",
        description="digital twin runtime: catalogs, adapters, shadows, "
                    "simulation, and closed-loop runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="export or check the catalog")
    p.add_argument("--check", action="store_true",
                   help="verify traceability; exit 3 on failure")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("report", help="emit a catalog report")
    p.add_argument("kind", choices=["iso", "traceability"])
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_report)

    # the inbound adapter flags that parse and ingest share
    adapter = argparse.ArgumentParser(add_help=False)
    adapter.add_argument("--format", required=True,
                         choices=[s.value for s in Source
                                  if s is not Source.INTERNAL])
    adapter.add_argument("--entity-type", default=AdapterConfig.entity_type)
    adapter.add_argument("--map", action="append", default=[],
                         metavar="SHORT=ATTRIBUTE",
                         help="attribute rename, repeatable")
    adapter.add_argument("--model", help="DTDL interface file (dtdl only)")

    p = sub.add_parser("parse", parents=[adapter],
                       help="parse one payload to canonical JSON")
    p.add_argument("--device", help="device id for formats without one")
    p.add_argument("--observed-at", default=format_rfc3339(DEFAULT_EPOCH),
                   help="timestamp for formats without one (RFC 3339)")
    p.add_argument("file", nargs="?", help="payload file; default stdin")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("ingest", parents=[adapter],
                       help="ingest line-delimited payloads into a journal")
    p.add_argument("--device", required=True)
    p.add_argument("--journal", help="journal file to replay and continue")
    p.add_argument("--listen", metavar="SOCKET",
                   help="serve a local stream socket instead of stdin")
    p.add_argument("--connections", type=_positive_int, default=1,
                   help="client connections to serve before exiting")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("store", help="inspect a journal")
    store_sub = p.add_subparsers(dest="store_command", required=True)
    d = store_sub.add_parser("dump", help="replay and dump one namespace")
    d.add_argument("--journal", required=True)
    d.add_argument("--namespace", required=True)
    d.set_defaults(func=cmd_store_dump)

    p = sub.add_parser("shadow", help="query shadows from a journal")
    shadow_sub = p.add_subparsers(dest="shadow_command", required=True)
    g = shadow_sub.add_parser("get")
    g.add_argument("--journal", required=True)
    g.add_argument("--type", help="shadow type name")
    g.add_argument("--entity", help="entity id")
    g.add_argument("--from", dest="time_from", help="RFC 3339 inclusive")
    g.add_argument("--to", dest="time_to", help="RFC 3339 exclusive")
    g.set_defaults(func=cmd_shadow_get)

    p = sub.add_parser("sim", help="run one scenario")
    sim_sub = p.add_subparsers(dest="sim_command", required=True)
    r = sim_sub.add_parser("run")
    r.add_argument("--scenario", required=True,
                   help="scenario JSON, optionally {model, scenario}")
    r.add_argument("--model", help="model spec JSON")
    r.set_defaults(func=cmd_sim_run)

    p = sub.add_parser("service", help="analytics over a journal")
    service_sub = p.add_subparsers(dest="service_command", required=True)
    f = service_sub.add_parser("predict")
    f.add_argument("--journal", required=True)
    f.add_argument("--entity", required=True)
    f.add_argument("--horizon", type=_positive_int, required=True)
    f.add_argument("--method", default=PredictorConfig.method,
                   choices=list(FORECAST_METHODS))
    f.add_argument("--window", type=_positive_int,
                   default=PredictorConfig.window)
    f.add_argument("--thresholds", help="bands JSON to also detect deviations")
    f.set_defaults(func=cmd_service_predict)

    p = sub.add_parser("run", help="execute one closed loop")
    p.add_argument("--loop", required=True,
                   choices=["monitoring", "prediction"])
    p.add_argument("--config", required=True, help="run manifest JSON")
    p.add_argument("--ticks", type=_positive_int,
                   help="override the manifest tick count (at least 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="check the trace against the sequence template")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away, as `| head` does: stop quietly, and send
        # what is still buffered nowhere so the exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TwinArchError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        log.debug("runtime failure", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
