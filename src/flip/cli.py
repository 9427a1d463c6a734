"""Command line front end.

Session state between invocations is a JSON file holding the loaded
topology, optional coverage map, and the command log; each invocation
rebuilds the fabric by replaying the log, so state is exactly as
reproducible as the log itself. The engine configuration file
(`engine_configs.json` in the session directory) is output only, and no
invocation reads it: the replay writes it once, and `run`, `cmd` and a
`serve` stopped with ctrl-c write it again when they save the log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import control, dsl, harness
from .control import Session
from .epb import ConfigStore
from .errors import FlipError, ParseError, ValidationError
from .topology import load_topology, read_json, read_text

DEFAULT_SESSION_DIR = ".flip"
SESSION_FILE = "session.json"


def _session_path(directory: str) -> Path:
    return Path(directory) / SESSION_FILE


def _load_session(directory: str) -> tuple[Session, dict]:
    path = _session_path(directory)
    if not path.exists():
        raise FlipError(f"no session at {path}; run `flip load` first")
    doc = read_json(path)
    if not isinstance(doc, dict) or "topology" not in doc:
        raise ParseError(f"{path}: not a flip session; run `flip load` again")
    topology = load_topology(doc["topology"])
    coverage = dsl.load_coverage(doc["coverage"]) if doc.get("coverage") else None
    session = Session.replay(topology, doc.get("log", []), coverage, directory)
    return session, doc


def _save_session(directory: str, doc: dict, store: ConfigStore | None = None) -> Path:
    """Write doc as session.json, then, given the session's store, the
    engine configuration file."""
    path = _session_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    if store is not None:
        control.write_config_file(store, directory)
    return path


def _cmd_load(args) -> int:
    topo_doc = read_json(args.topology)
    topology = load_topology(topo_doc)  # validate before persisting
    cov_doc = None
    if args.coverage:
        cov_doc = read_json(args.coverage)
        dsl.load_coverage(cov_doc)
    path = _save_session(args.session, {"topology": topo_doc, "coverage": cov_doc, "log": []})
    # a new session must not show the previous session's configs
    (Path(args.session) / control.CONFIG_FILE).unlink(missing_ok=True)
    print(
        f"loaded {topology.node_count()} nodes "
        f"({len(topology.switches())} switches) into {path}"
    )
    return 0


def _cmd_run(args) -> int:
    session, doc = _load_session(args.session)
    results = session.run_script(
        read_text(args.script), keep_going=args.keep_going, baseline=args.mode == "baseline"
    )
    _save_session(args.session, {**doc, "log": session.command_log}, session.store)
    failures = 0
    for i, result in enumerate(results, 1):
        if result.ok:
            print(f"[{i}] ok")
        else:
            failures += 1
            print(f"[{i}] error {result.code}: {result.message}")
    print(f"{len(results) - failures}/{len(results)} requests installed")
    return 0 if failures == 0 else 1


def _cmd_cmd(args) -> int:
    cmd_args: dict = {}
    if args.json:
        try:
            cmd_args = json.loads(args.json)
        except ValueError as exc:  # not JSON, or an int of more digits than int() takes
            raise ParseError(f"--json: {exc}") from None
        if not isinstance(cmd_args, dict):
            raise ValidationError(f"--json must be a JSON object, got {args.json!r}")
    for pair in args.args:
        key, _, value = pair.partition("=")
        try:
            cmd_args[key] = json.loads(value)
        except ValueError:  # not JSON, or an int of more digits than int() takes
            cmd_args[key] = value
    session, doc = _load_session(args.session)
    result = session.execute(args.verb, cmd_args)
    _save_session(args.session, {**doc, "log": session.command_log}, session.store)
    print(json.dumps(result.to_doc(), indent=2, sort_keys=True))
    return 0 if result.ok else 1


def _cmd_stats(args) -> int:
    session, _ = _load_session(args.session)
    report = session.fabric.stats(args.filter_dest)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("switch,id,count\n")
            for sw, dpid in session.dpids.items():
                fh.write(f"{sw},{dpid},{report.switch_counts[sw]}\n")
        print(f"wrote {args.csv}")
    else:
        print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    return 0


def _cmd_serve(args) -> int:
    session, doc = _load_session(args.session)
    # bind first, so a refused path prints only its error
    with control.CommandServer(session, args.socket) as server:
        print(f"serving on {args.socket} (ctrl-c to stop)", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            # under the lock, a command still in flight is saved in both
            # files or in neither
            with session.lock:
                _save_session(args.session, {**doc, "log": session.command_log}, session.store)
    return 0


def _cmd_bench(args) -> int:
    workload = harness.Workload(
        seed=args.seed, horizon_ms=args.horizon_ms, period_ms=args.period_ms
    )
    if args.out:  # a directory that cannot be made fails before the run
        Path(args.out).mkdir(parents=True, exist_ok=True)
    report = harness.run_suite(workload=workload)
    print(f"{'request':8} {'flip':>10} {'baseline':>10} {'reduction':>10}")
    for row in report.rows:
        print(
            f"{row.label:8} {row.flip_total_hops:>10} {row.baseline_total_hops:>10} "
            f"{row.reduction_pct:>9.1f}%"
        )
    print(f"audit: {'pass' if all(r.audit_ok for r in report.rows) else 'FAIL'}")
    if args.out:
        paths = harness.export_report(report, args.out)
        for name, path in paths.items():
            print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flip", description="in-network IoT aggregation planner and simulator"
    )
    parser.add_argument(
        "--session", default=DEFAULT_SESSION_DIR, help="session directory (default .flip)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="load and validate a topology file")
    p.add_argument("topology")
    p.add_argument("--coverage", help="coverage map file")
    p.set_defaults(func=_cmd_load)

    p = sub.add_parser("run", help="run a request script")
    p.add_argument("script")
    p.add_argument("--mode", choices=("flip", "baseline"), default="flip")
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("cmd", help="execute one command verb")
    p.add_argument("verb", choices=control.VERBS)
    p.add_argument("args", nargs="*", help="key=value pairs")
    p.add_argument("--json", help="JSON object merged into the arguments")
    p.set_defaults(func=_cmd_cmd)

    p = sub.add_parser("stats", help="per-switch packet counters")
    p.add_argument("--filter-dest", help="count only packets for this final destination")
    p.add_argument("--csv", help="write switch,id,count rows to this file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("serve", help="serve the command protocol on a unix socket")
    p.add_argument("--socket", default=".flip/control.sock")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("bench", help="run the benchmark suite in both modes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon-ms", type=float, default=10_000.0)
    p.add_argument("--period-ms", type=float, default=100.0)
    p.add_argument("--out", help="directory for report CSVs and summary")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FlipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a file or directory the command cannot use
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
