"""Command facade over planner, fabric, and engine configs.

Accepts the fixed verb set (topology queries, flow table edits, engine
config management, and the two datapath request forms) either in process,
from a script's text, or over a newline-delimited JSON socket protocol.
Every mutation is serialized under one lock and appended to a command log;
replaying the log onto a fresh session reproduces the same fabric state.
The log is the only source of a session's state. The engine configuration
file is output only: `write_config_file` dumps a store there, once per
replay and per save, and nothing reads it.
"""

from __future__ import annotations

import functools
import json
import socket
import socketserver
import stat
import threading
from dataclasses import dataclass
from pathlib import Path

from . import dsl, planner
from .dataplane import Fabric
from .epb import ConfigStore, EngineConfig
from .errors import (
    FlipError,
    ParseError,
    UnknownSwitchError,
    UnknownVerbError,
    ValidationError,
)
from .dsl import RequestMode
from .planner import FlowRule
from .topology import NodeKind, Topology, natural_key

MANUFACTURER = "flip-sim"

# the engine configuration file's name inside a session's config directory
CONFIG_FILE = "engine_configs.json"


def write_config_file(store: ConfigStore, directory: str | Path) -> None:
    """Write the store's document to `directory/engine_configs.json`,
    making the directory first: one plain dump over whatever the file
    held, not atomic. A failed write is the OSError naming the path."""
    path = Path(directory) / CONFIG_FILE
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(store.to_doc(), indent=2, sort_keys=True), encoding="utf-8")


# the config sections `setconfig/user/module` may replace
CONFIG_MODULES = ("compute", "rate", "jitter", "source", "destination")


@dataclass
class CommandResult:
    status: str  # "ok" | "error"
    body: dict
    code: str | None = None
    message: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_doc(self) -> dict:
        doc = {"status": self.status, "body": self.body}
        if self.code:
            doc["code"] = self.code
        if self.message:
            doc["message"] = self.message
        return doc


class Session:
    """One loaded topology plus its running fabric and config store;
    `execute` is the one path from a request to installed rules and configs.
    A session's inputs are its arguments: it starts with no rules and no
    configs, and no command writes a file."""

    def __init__(self, topology: Topology, coverage: dsl.CoverageMap | None = None):
        self.topology = topology
        self.coverage = coverage or {}
        self.store = ConfigStore()
        self.fabric = Fabric(topology, self.store)
        self.command_log: list[dict] = []
        # held by each command, and by a reader that needs the log and the
        # store to agree
        self.lock = threading.Lock()
        self.dpids = {sw: i + 1 for i, sw in enumerate(topology.switches())}

    # -- dispatch --

    def execute(self, verb: str, args: dict | None = None) -> CommandResult:
        args = {} if args is None else args
        with self.lock:
            try:
                if not isinstance(verb, str) or verb not in VERB_TABLE:
                    raise UnknownVerbError(f"unknown verb {verb!r}")
                if not isinstance(args, dict):
                    kind = type(args).__name__
                    raise ValidationError(f"{verb} arguments must be an object, got {kind}")
                handler, mutates = VERB_TABLE[verb]
                body = handler(self, args)
            except FlipError as exc:
                return CommandResult("error", {}, code=exc.code, message=str(exc))
            if mutates:
                self.command_log.append({"verb": verb, "args": args})
            return CommandResult("ok", body)

    # -- topology verbs --

    def _getswitches(self, args) -> dict:
        switches = []
        for sw in self.topology.switches():
            neighbors = self.topology.neighbors(sw)
            engine = next(
                (n for n in neighbors if self.topology.kind(n) is NodeKind.ENGINE), None
            )
            switches.append(
                {
                    "dpid": self.dpids[sw],
                    "id": sw,
                    "ports": len(neighbors),
                    "engine": engine,
                    "manufacturer": MANUFACTURER,
                }
            )
        return {"switches": switches}

    def _getlinks(self, args) -> dict:
        return {
            "links": [
                {"a": l.a, "b": l.b, "delay_ms": l.delay_ms} for l in self.topology.links()
            ]
        }

    def _gethosts(self, args) -> dict:
        hosts = []
        for kind in (NodeKind.BASE_STATION, NodeKind.DESTINATION, NodeKind.CLOUD):
            for node in self.topology.nodes_of_kind(kind):
                peer = next(iter(self.topology.neighbors(node)), None)
                hosts.append({"id": node, "kind": kind.value, "switch": peer})
        return {"hosts": hosts}

    def _resolve_dpid(self, args) -> str:
        dpid = args.get("dpid")
        if isinstance(dpid, int) and not isinstance(dpid, bool):
            for sw, n in self.dpids.items():
                if n == dpid:
                    return sw
            raise UnknownSwitchError(f"unknown dpid {dpid}")
        if isinstance(dpid, str) and dpid in self.fabric.tables:
            return dpid
        raise UnknownSwitchError(f"unknown switch {dpid!r}")

    def _getswdesc(self, args) -> dict:
        sw = self._resolve_dpid(args)
        return {
            "dpid": self.dpids[sw],
            "id": sw,
            "manufacturer": MANUFACTURER,
            "hw_desc": "simulated switch",
            "sw_desc": "flip fabric",
        }

    def _getflows(self, args) -> dict:
        sw = self._resolve_dpid(args)
        table = self.fabric.tables[sw]
        return {
            "dpid": self.dpids[sw],
            "id": sw,
            "flows": [
                {**rule.to_doc(), "index": i, "count": table.counters[i]}
                for i, rule in enumerate(table.rules)
            ],
        }

    def _gettables(self, args) -> dict:
        sw = self._resolve_dpid(args)
        return {
            "dpid": self.dpids[sw],
            "id": sw,
            "tables": [{"table_id": 0, "active_count": len(self.fabric.tables[sw].rules)}],
        }

    def _getports(self, args) -> dict:
        sw = self._resolve_dpid(args)
        stats = self.fabric.stats()
        rx, tx = stats.port_rx[sw], stats.port_tx[sw]
        ports = []
        for port_no, peer in enumerate(sorted(self.topology.neighbors(sw), key=natural_key), 1):
            ports.append(
                {
                    "port": port_no,
                    "peer": peer,
                    "rx_packets": rx.get(peer, 0),
                    "tx_packets": tx.get(peer, 0),
                }
            )
        return {"dpid": self.dpids[sw], "id": sw, "ports": ports}

    # -- flow verbs --

    def _rule_from_args(self, sw: str, args: dict) -> FlowRule:
        doc = {
            "switch": sw,
            "match": args.get("match", {}),
            "action": args.get("action", {}),
        }
        return FlowRule.from_doc(doc)

    def _addflow(self, args) -> dict:
        sw = self._resolve_dpid(args)
        added = self.fabric.install_rules([self._rule_from_args(sw, args)])
        return {"added": added}

    def _flow_index(self, args) -> tuple[str, int]:
        sw = self._resolve_dpid(args)
        index = args.get("index")
        rules = self.fabric.tables[sw].rules
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < len(rules):
            raise ValidationError(f"no flow at index {index!r} on {sw}")
        return sw, index

    def _modflow(self, args) -> dict:
        sw, index = self._flow_index(args)
        rule = self._rule_from_args(sw, args)
        self.fabric.check_rules([rule], replacing=index)
        self.fabric.tables[sw].replace(index, rule)
        return {"modified": index}

    def _delflow(self, args) -> dict:
        sw, index = self._flow_index(args)
        self.fabric.tables[sw].remove(index)
        return {"removed": 1}

    def _delflowall(self, args) -> dict:
        sw = self._resolve_dpid(args)
        return {"removed": self.fabric.tables[sw].clear()}

    # -- engine config verbs --

    def _engine_arg(self, args) -> str:
        engine = args.get("engine")
        if not isinstance(engine, str) or engine not in self.fabric.engines:
            raise UnknownSwitchError(f"unknown engine {engine!r}")
        return engine

    def _user_arg(self, args) -> str:
        user = args.get("user", "")
        if not isinstance(user, str):
            raise ValidationError(f"user must be a string, got {user!r}")
        return user

    def _getconfig(self, args) -> dict:
        engine = self._engine_arg(args)
        configs = self.store.configs_for(engine)
        return {
            "engine": engine,
            "configs": [{"user": c.user, **c.to_doc()} for c in configs],
        }

    def _getconfig_user(self, args) -> dict:
        engine = self._engine_arg(args)
        user = self._user_arg(args)
        configs = self.store.user_configs(engine, user)
        return {"engine": engine, "user": user, "configs": [c.to_doc() for c in configs]}

    def _setconfig_user(self, args) -> dict:
        engine = self._engine_arg(args)
        user = self._user_arg(args)
        if not user:
            raise ValidationError("setconfig/user needs a user name")
        cfg = EngineConfig.from_doc(engine, user, args.get("config", {}))
        self.store.set_config(cfg)
        return {"engine": engine, "user": user, "set": cfg.to_doc()}

    def _setconfig_module(self, args) -> dict:
        """Update one named section (one of CONFIG_MODULES) of an existing
        config."""
        engine = self._engine_arg(args)
        user = self._user_arg(args)
        module = args.get("module")
        value = args.get("value")
        configs = self.store.user_configs(engine, user)
        if args.get("destination"):
            configs = [c for c in configs if c.destination == args["destination"]]
        if not configs:
            raise ValidationError(f"no config for user {user!r} on {engine}")
        if len(configs) > 1:
            raise ValidationError(
                f"user {user!r} has {len(configs)} configs on {engine}; pass destination"
            )
        current = configs[0]
        doc = current.to_doc()
        if module not in CONFIG_MODULES:
            raise ValidationError(f"unknown config module {module!r}")
        doc[module] = value
        updated = EngineConfig.from_doc(engine, current.user, doc)
        if module == "destination":
            self.store.remove(current.key())
        self.store.set_config(updated)
        return {"engine": engine, "user": current.user, "set": updated.to_doc()}

    # -- datapath verbs --

    def _datapath(self, args: dict, verb: str) -> dict:
        text = args.get("request")
        if not isinstance(text, str):
            raise ValidationError(f"{verb} needs a request string")
        request = dsl.parse_request(text)
        expected = RequestMode.AUTOMATED if verb == "datapath_a" else RequestMode.MANUAL
        if request.mode is not expected:
            raise ValidationError(f"{verb} got a {request.mode.value} request")
        baseline = args.get("baseline", False)
        if not isinstance(baseline, bool):
            raise ValidationError(f"baseline must be true or false, got {baseline!r}")
        if baseline:
            return self._install_baseline(request)
        plan = planner.plan(request, self.topology, self.coverage)
        installed = self.fabric.install_rules(plan.rules)
        for cfg in plan.engine_configs:
            self.store.set_config(cfg)
        return {
            "plan": plan.to_doc(),
            "installed_rules": installed,
            "configs_set": len(plan.engine_configs),
        }

    def _install_baseline(self, request: dsl.Request) -> dict:
        """Send-everything mode: shortest-path rules, no engines."""
        tg = dsl.expand_sources(request, self.topology, self.coverage)
        destination = planner.resolve_endpoint(self.topology, request.destination)
        rules = planner.compile_baseline(self.topology, tg.leaves(), destination)
        installed = self.fabric.install_rules(rules)
        return {
            "baseline": True,
            "destination": destination,
            "sources": tg.leaves(),
            "installed_rules": installed,
            "configs_set": 0,
        }

    # -- scripts, replay, state --

    def run_script(
        self, text: str, keep_going: bool = False, baseline: bool = False
    ) -> list[CommandResult]:
        """Execute a script's datapath commands line by line; `#` comments
        and blank lines are skipped. Stops at the first error unless
        keep_going."""
        results: list[CommandResult] = []
        for line_no, line in dsl.script_lines(text):
            verb = "datapath_m" if line.startswith("datapath_m") else "datapath_a"
            result = self.execute(verb, {"request": line, "baseline": baseline})
            if not result.ok:
                result.message = f"line {line_no}: {result.message}"
            results.append(result)
            if not result.ok and not keep_going:
                break
        return results

    def state_doc(self) -> dict:
        return self.fabric.state_doc()

    def state_json(self) -> str:
        return json.dumps(self.state_doc(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def replay(
        cls,
        topology: Topology,
        log: list[dict],
        coverage: dsl.CoverageMap | None = None,
        config_dir: str | Path | None = None,
    ) -> "Session":
        """Rebuild a session by re-executing a command log in order. With a
        config_dir, the store is then written there once, so that even an
        empty log leaves the config file showing the store, and a replay
        that fails part way writes nothing. A log that is not a list of
        {"verb": str, "args": object} is a ParseError."""
        if not isinstance(log, list):
            raise ParseError(f"command log must be a list, got {type(log).__name__}")
        session = cls(topology, coverage)
        for i, entry in enumerate(log):
            if not (
                isinstance(entry, dict)
                and isinstance(entry.get("verb"), str)
                and isinstance(entry.get("args"), dict)
            ):
                raise ParseError(f'command log entry {i} is not {{"verb": str, "args": object}}')
            result = session.execute(entry["verb"], entry["args"])
            if not result.ok:
                raise FlipError(f"replay failed on {entry['verb']}: {result.message}")
        if config_dir:
            write_config_file(session.store, config_dir)
        return session


# verb -> (handler, whether a successful call mutates state and is logged)
VERB_TABLE = {
    "getswitches": (Session._getswitches, False),
    "getlinks": (Session._getlinks, False),
    "gethosts": (Session._gethosts, False),
    "getswdesc": (Session._getswdesc, False),
    "getflows": (Session._getflows, False),
    "gettables": (Session._gettables, False),
    "getports": (Session._getports, False),
    "addflow": (Session._addflow, True),
    "modflow": (Session._modflow, True),
    "delflow": (Session._delflow, True),
    "delflowall": (Session._delflowall, True),
    "getconfig": (Session._getconfig, False),
    "getconfig/user": (Session._getconfig_user, False),
    "setconfig/user": (Session._setconfig_user, True),
    "setconfig/user/module": (Session._setconfig_module, True),
    "datapath_m": (functools.partial(Session._datapath, verb="datapath_m"), True),
    "datapath_a": (functools.partial(Session._datapath, verb="datapath_a"), True),
}

VERBS = tuple(VERB_TABLE)


# -- socket protocol -----------------------------------------------------------


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        while True:
            line = self.rfile.readline()
            if not line:
                return
            try:
                doc = json.loads(line)
                result = self.server.session.execute(doc.get("verb", ""), doc.get("args"))
                out = result.to_doc()
            # ValueError: not JSON, or an int of more digits than int() takes;
            # AttributeError: the line is not an object
            except (ValueError, AttributeError) as exc:
                out = {"status": "error", "code": "bad_request", "message": str(exc), "body": {}}
            self.wfile.write(json.dumps(out, sort_keys=True).encode() + b"\n")


class CommandServer(socketserver.ThreadingUnixStreamServer):
    """Command server on a unix socket (one JSON object per line); bound
    on construction, serving from `serve_forever()`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, session: Session, socket_path: str | Path):
        """Bind socket_path, replacing only a stale socket left there."""
        path = Path(socket_path)
        try:
            if not stat.S_ISSOCK(path.lstat().st_mode):
                raise FlipError(f"{path} exists and is not a socket; not replacing it")
            path.unlink()
        except FileNotFoundError:
            pass
        try:
            super().__init__(str(path), _Handler)
        except OSError as exc:  # a bind error names no file
            raise FlipError(f"{path}: {exc.strerror or exc}") from None
        self.session = session
        self.socket_path = path


def send_command(socket_path: str | Path, verb: str, args: dict | None = None) -> dict:
    """Client helper for the socket protocol."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(str(socket_path))
        payload = json.dumps({"verb": verb, "args": args or {}}) + "\n"
        sock.sendall(payload.encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf)
