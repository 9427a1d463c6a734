import json
import os
import random
import socket
import threading
from pathlib import Path

import pytest

from flip import cli, harness
from flip.cli import main as cli_main
from flip.control import CommandServer, Session, send_command
from flip.errors import FlipError, ParseError
from flip.harness import build_experiment_topology, demo_topology
from flip.packets import PacketRecord, Scalar
from flip.topology import load_topology

EQ1 = (
    "datapath_a(max(avg(bs1:bs10),avg(bs11:bs100),"
    "max(min(bs101:bs200),min(bs201:bs300))),destination<-user)"
)


@pytest.fixture()
def session():
    return Session(build_experiment_topology())


@pytest.fixture()
def demo_session():
    return Session(demo_topology())


def test_getswitches_returns_twelve(session):
    result = session.execute("getswitches")
    assert result.ok
    switches = result.body["switches"]
    assert len(switches) == 12
    assert switches[0]["manufacturer"] == "flip-sim"
    assert switches[0]["engine"] == "e-sw1"


def test_getlinks_gethosts(session):
    links = session.execute("getlinks").body["links"]
    assert {"a": "sw11", "b": "sw12", "delay_ms": 1.0} in links
    hosts = session.execute("gethosts").body["hosts"]
    ids = {h["id"] for h in hosts}
    assert "user" in ids and "cloud" in ids and "bs1" in ids


def test_getswdesc_and_ports(session):
    desc = session.execute("getswdesc", {"dpid": "sw3"}).body
    assert desc["manufacturer"] == "flip-sim"
    ports = session.execute("getports", {"dpid": "sw3"}).body["ports"]
    assert any(p["peer"] == "e-sw3" for p in ports)


def test_delflowall_on_empty_is_ok(session):
    result = session.execute("delflowall", {"dpid": "sw1"})
    assert result.ok and result.body["removed"] == 0


def test_unknown_verb(session):
    result = session.execute("reboot")
    assert not result.ok
    assert result.code == "unknown_verb"


def test_addflow_getflows_delflow(session):
    add = session.execute(
        "addflow",
        {
            "dpid": "sw1",
            "match": {"final_destination": "user", "sources": ["bs1"]},
            "action": {"type": "forward", "target": "sw9"},
        },
    )
    assert add.ok and add.body["added"] == 1
    flows = session.execute("getflows", {"dpid": "sw1"}).body["flows"]
    assert len(flows) == 1 and flows[0]["action"]["target"] == "sw9"
    assert session.execute("delflow", {"dpid": "sw1", "index": 0}).ok
    assert session.execute("getflows", {"dpid": "sw1"}).body["flows"] == []


def test_datapath_a_installs_plan(demo_session):
    result = demo_session.execute("datapath_a", {"request": EQ1})
    assert result.ok
    plan_doc = result.body["plan"]
    assert len(plan_doc["placements"]) == 6
    # flow dump reflects the compiled rules on the touched switches
    for sw in ("sw1", "sw3", "sw5"):
        flows = demo_session.execute("getflows", {"dpid": sw}).body["flows"]
        compiled = [r for r in plan_doc["rules"] if r["switch"] == sw]
        assert [f["match"] for f in flows] == [r["match"] for r in compiled]


def test_datapath_mode_mismatch(demo_session):
    result = demo_session.execute("datapath_m", {"request": EQ1})
    assert not result.ok and result.code == "validation_error"


def test_rejected_by_delay_installs_nothing(demo_session):
    text = EQ1[:-1] + ",requirement<-{delay=3ms})"
    result = demo_session.execute("datapath_a", {"request": text})
    assert not result.ok
    assert result.code == "rejected_by_delay"
    for sw in demo_session.topology.switches():
        assert demo_session.execute("getflows", {"dpid": sw}).body["flows"] == []
    assert demo_session.store.to_doc() == {}
    assert demo_session.command_log == []


def test_setconfig_and_getconfig(session):
    cfg = {
        "compute": "sum",
        "source": ["bs1", "bs2"],
        "destination": "user",
        "rate": 1000.0,
    }
    result = session.execute("setconfig/user", {"engine": "e-sw1", "user": "maya", "config": cfg})
    assert result.ok
    got = session.execute("getconfig/user", {"engine": "e-sw1", "user": "maya"}).body
    assert got["configs"][0]["compute"] == "sum"
    assert got["configs"][0]["rate"] == 1000.0
    all_cfg = session.execute("getconfig", {"engine": "e-sw1"}).body
    assert all_cfg["configs"][0]["user"] == "maya"


@pytest.mark.parametrize(
    "overrides",
    [
        {"rate": "x"},
        {"jitter": "x"},
        {"rate": True},
        {"jitter": [1]},
        {"source": "bs1"},
        {"source": ["bs1", 2]},
        {"match": "user"},
        {"destination": 5},
        {"user": 5},
    ],
)
def test_setconfig_rejects_a_bad_value_type(session, overrides):
    user = overrides.get("user", "u")
    cfg = {"compute": "sum", "source": ["bs1", "bs2"], "destination": "user", **overrides}
    cfg.pop("user", None)
    result = session.execute("setconfig/user", {"engine": "e-sw1", "user": user, "config": cfg})
    assert not result.ok
    assert result.code == "validation_error"
    assert session.store.to_doc() == {}
    assert session.command_log == []


@pytest.mark.parametrize(
    "module,value", [("source", "bs1"), ("rate", "x"), ("jitter", "1"), ("destination", 5)]
)
def test_setconfig_module_rejects_a_bad_value_type(session, module, value):
    cfg = {"compute": "sum", "source": ["bs1"], "destination": "user"}
    session.execute("setconfig/user", {"engine": "e-sw1", "user": "u", "config": cfg})
    before = session.store.to_doc()
    result = session.execute(
        "setconfig/user/module",
        {"engine": "e-sw1", "user": "u", "module": module, "value": value},
    )
    assert result.code == "validation_error"
    assert session.store.to_doc() == before


def test_setconfig_module_updates_section(session):
    cfg = {"compute": "sum", "source": ["bs1"], "destination": "user"}
    session.execute("setconfig/user", {"engine": "e-sw1", "user": "u", "config": cfg})
    result = session.execute(
        "setconfig/user/module",
        {"engine": "e-sw1", "user": "u", "module": "compute", "value": "max"},
    )
    assert result.ok
    got = session.execute("getconfig/user", {"engine": "e-sw1", "user": "u"}).body
    assert got["configs"][0]["compute"] == "max"


def test_run_script_r1_r9(tmp_path, session):
    script = tmp_path / "suite.flip"
    script.write_text("\n".join(["# all nine"] + harness.request_texts()) + "\n")
    results = session.run_script(script)
    assert len(results) == 9
    assert all(r.ok for r in results)
    # a str is script text, even one line longer than a file name may be
    wide = f"datapath_a(sum({','.join(f'bs{i}' for i in range(1, 79))}),destination<-user)"
    assert len(wide) > 255
    [result] = Session(build_experiment_topology()).run_script(wide)
    assert result.ok


def test_run_script_baseline_mode(tmp_path, session):
    script = tmp_path / "suite.flip"
    script.write_text("\n".join(harness.request_texts()) + "\n")
    results = session.run_script(script, baseline=True)
    assert all(r.ok for r in results)
    assert all(r.body.get("baseline") for r in results)
    # shortest-path delivery only: no engine configs, no redirects anywhere
    assert session.store.to_doc() == {}
    for table in session.fabric.tables.values():
        assert all(r.action.value != "redirect" for r in table.rules)


def test_run_script_empty(tmp_path, session):
    script = tmp_path / "empty.flip"
    script.write_text("# nothing here\n\n")
    assert session.run_script(script) == []


def test_run_script_keep_going(tmp_path, session):
    lines = harness.request_texts()[:4] + ["datapath_a(frob(bs1),destination<-user)"]
    lines += harness.request_texts()[4:]
    script = tmp_path / "broken.flip"
    script.write_text("\n".join(lines) + "\n")
    results = session.run_script(script, keep_going=True)
    assert len(results) == 10
    assert sum(1 for r in results if r.ok) == 9
    assert sum(1 for r in results if not r.ok) == 1
    # without keep_going, execution stops at the bad line
    fresh = Session(build_experiment_topology())
    stopped = fresh.run_script(script)
    assert len(stopped) == 5 and not stopped[-1].ok


def test_replay_reproduces_state(demo_session):
    demo_session.execute("datapath_a", {"request": EQ1})
    demo_session.execute(
        "addflow",
        {
            "dpid": "sw4",
            "match": {"final_destination": "cloudish", "sources": ["bs201"]},
            "action": {"type": "forward", "target": "sw5"},
        },
    )
    demo_session.execute("delflow", {"dpid": "sw4", "index": len(demo_session.fabric.tables["sw4"].rules) - 1})
    replayed = Session.replay(demo_topology(), demo_session.command_log)
    assert replayed.state_json() == demo_session.state_json()


def test_modflow_replaces_the_rule(demo_session):
    demo_session.execute("datapath_a", {"request": EQ1})
    rule = {
        "match": {"final_destination": "user", "sources": ["bs1"]},
        "action": {"type": "forward", "target": "sw4"},
    }
    result = demo_session.execute("modflow", {"dpid": "sw1", "index": 0, **rule})
    assert result.ok
    flows = demo_session.execute("getflows", {"dpid": "sw1"}).body["flows"]
    assert len(flows) == 2 and flows[0]["action"] == rule["action"]
    replayed = Session.replay(demo_topology(), demo_session.command_log)
    assert replayed.state_json() == demo_session.state_json()


def test_modflow_keeps_the_rule_in_its_place(session):
    """An edited rule keeps its index, so it still matches ahead of the
    rules installed after it; a replacement equal to another installed
    rule is refused and changes nothing."""
    a = {
        "match": {"final_destination": "user", "sources": ["bs1"]},
        "action": {"type": "forward", "target": "sw9"},
    }
    b = {
        "match": {"final_destination": "user", "sources": ["bs1", "bs2"]},
        "action": {"type": "deliver"},
    }
    for rule in (a, b):
        assert session.execute("addflow", {"dpid": "sw1", **rule}).ok
    result = session.execute("modflow", {"dpid": "sw1", "index": 0, **a})
    assert result.ok and result.body == {"modified": 0}
    flows = session.execute("getflows", {"dpid": "sw1"}).body["flows"]
    assert [f["action"]["type"] for f in flows] == ["forward", "deliver"]
    packet = PacketRecord("bs1", "user", "default", 0, 0.0, Scalar(1.0))
    assert session.fabric.tables["sw1"].match(packet)[0] == 0

    before, log = session.state_json(), list(session.command_log)
    refused = session.execute("modflow", {"dpid": "sw1", "index": 0, **b})
    assert not refused.ok and refused.code == "validation_error"
    assert session.state_json() == before and session.command_log == log


@pytest.mark.parametrize(
    "action, code",
    [
        ({"type": "frob"}, "compile_error"),
        ({"type": "forward", "target": "sw5"}, "unknown_switch"),  # not adjacent to sw1
    ],
)
def test_bad_modflow_changes_nothing(demo_session, action, code):
    demo_session.execute("datapath_a", {"request": EQ1})
    flows = demo_session.execute("getflows", {"dpid": "sw1"}).body["flows"]
    log = list(demo_session.command_log)
    result = demo_session.execute(
        "modflow",
        {
            "dpid": "sw1",
            "index": 0,
            "match": {"final_destination": "user", "sources": ["bs1"]},
            "action": action,
        },
    )
    assert not result.ok and result.code == code
    assert demo_session.execute("getflows", {"dpid": "sw1"}).body["flows"] == flows
    assert demo_session.command_log == log
    replayed = Session.replay(demo_topology(), log)
    assert replayed.state_json() == demo_session.state_json()


@pytest.mark.parametrize(
    "dpid, action",
    [
        ("sw1", {"type": "redirect", "target": "sw3"}),
        ("sw5", {"type": "redirect", "target": "user"}),
        ("sw1", {"type": "forward", "target": "e-sw1"}),
        ("sw1", {"type": "forward", "target": "bs2"}),
    ],
    ids=["redirect-to-switch", "redirect-to-host", "forward-to-engine", "forward-to-base-station"],
)
def test_a_flow_whose_target_does_not_fit_its_action_is_refused(demo_session, dpid, action):
    """A forward goes to a switch and a redirect to an engine. Any other
    adjacent target is a validation error through addflow and modflow, and
    changes nothing; the packet it would have caught is dropped, counted."""
    flow = {"dpid": dpid, "match": {"final_destination": "user", "sources": ["bs1"]}, "action": action}
    for verb, args in (("addflow", flow), ("modflow", {**flow, "index": 0})):
        if verb == "modflow":
            keep = {"type": "deliver"}
            assert demo_session.execute("addflow", {**flow, "action": keep}).ok
        before, log = demo_session.state_json(), list(demo_session.command_log)
        result = demo_session.execute(verb, args)
        assert not result.ok and result.code == "validation_error", result.message
        assert demo_session.state_json() == before and demo_session.command_log == log
    demo_session.execute("delflowall", {"dpid": dpid})
    fabric = demo_session.fabric
    fabric.inject(PacketRecord("bs1", "user", "default", 0, 0.0, Scalar(1.0)), at="bs1")
    fabric.run()
    assert fabric.stats().dropped == 1 and fabric.conservation()["balanced"]


def test_concurrent_mutations_linearize(session):
    def worker(start):
        for i in range(start, start + 10):
            session.execute(
                "addflow",
                {
                    "dpid": "sw1",
                    "match": {"final_destination": "user", "sources": [f"bs{i}"]},
                    "action": {"type": "forward", "target": "sw9"},
                },
            )

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 11)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    flows = session.execute("getflows", {"dpid": "sw1"}).body["flows"]
    assert len(flows) == 20
    replayed = Session.replay(build_experiment_topology(), session.command_log)
    assert replayed.state_json() == session.state_json()


def test_manual_chain_end_to_end(demo_session):
    """The six-command chained decomposition delivers the same value the
    automated plan would: engines feed engines until the user host."""
    commands = [
        "datapath_m({bs201:bs300},switch<-sw4,compute<-min,destination<-sw5[engine])",
        "datapath_m({bs101:bs200},switch<-sw3,compute<-min,destination<-sw5[engine])",
        "datapath_m(sw4[engine],sw3[engine],switch<-sw5,compute<-max,destination<-sw3[engine])",
        "datapath_m({bs11:bs100},switch<-sw2,compute<-avg,destination<-sw3[engine])",
        "datapath_m({bs1:bs10},switch<-sw1,compute<-avg,destination<-sw3[engine])",
        "datapath_m(sw1[engine],sw2[engine],sw5[engine],switch<-sw3,compute<-max,destination<-user)",
    ]
    ingress: dict[str, str] = {}
    for text in commands:
        result = demo_session.execute("datapath_m", {"request": text})
        assert result.ok, result.message
        ingress.update(result.body["plan"]["source_ingress"])

    from flip.harness import Workload, evaluate_expression
    from flip.packets import PacketRecord, Scalar

    w = Workload(seed=17, horizon_ms=100.0)
    sources = [f"bs{i}" for i in range(1, 301)]
    samples = w.samples(sources)
    for s in samples:
        demo_session.fabric.inject(
            PacketRecord(s.source, ingress[s.source], "default", s.epoch, s.publish_ms, Scalar(s.value)),
            at=s.source,
        )
    demo_session.fabric.run()
    delivered = demo_session.fabric.delivered_at("user")
    assert len(delivered) == 1
    tg = dsl_expand_eq1(demo_session.topology)
    values = {s.source: s.value for s in samples}
    want = evaluate_expression(tg, values)
    got = delivered[0]["payload"]["scalar"]
    assert got == pytest.approx(want, rel=1e-9)


def test_automated_output_feeds_a_manual_engine(demo_session):
    """An automated request addressed to an engine hands its value to the
    manual command configured on that engine, not to the engine as a host."""
    commands = [
        ("datapath_a", "datapath_a(max(bs1:bs10),destination<-sw5[engine])"),
        (
            "datapath_m",
            "datapath_m({bs201:bs300},switch<-sw4,compute<-min,destination<-sw5[engine])",
        ),
        (
            "datapath_m",
            "datapath_m(sw1[engine],sw4[engine],switch<-sw5,compute<-max,destination<-user)",
        ),
    ]
    ingress: dict[str, str] = {}
    for verb, text in commands:
        result = demo_session.execute(verb, {"request": text})
        assert result.ok, result.message
        ingress.update(result.body["plan"]["source_ingress"])

    from flip import dsl
    from flip.harness import Workload, audit_delivered
    from flip.packets import PacketRecord, Scalar

    w = Workload(seed=23, horizon_ms=500.0)
    samples = w.samples([f"bs{i}" for i in (*range(1, 11), *range(201, 301))])
    fabric = demo_session.fabric
    for s in samples:
        fabric.inject(
            PacketRecord(s.source, ingress[s.source], "default", s.epoch, s.publish_ms, Scalar(s.value)),
            at=s.source,
        )
    fabric.run()
    assert fabric.delivered_at("e-sw5") == []
    composed = dsl.parse_request(
        "datapath_a(max(max(bs1:bs10),min(bs201:bs300)),destination<-user)"
    )
    tg = dsl.expand_sources(composed, demo_session.topology)
    assert audit_delivered(tg, fabric, samples, "user", w.epochs()) == 5


def dsl_expand_eq1(topology):
    from flip import dsl

    return dsl.expand_sources(dsl.parse_request(EQ1), topology)


def test_socket_server_roundtrip(tmp_path, demo_session):
    sock = tmp_path / "flip.sock"
    server = CommandServer(demo_session, sock)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        reply = send_command(sock, "getswitches")
        assert reply["status"] == "ok"
        assert len(reply["body"]["switches"]) == 5
        bad = send_command(sock, "nonsense")
        assert bad["status"] == "error"
    finally:
        server.shutdown()
        server.server_close()


def test_socket_server_replaces_only_a_stale_socket(tmp_path, demo_session):
    """A regular file at the socket path is refused by name and left as it
    was; a socket left behind by a closed server is replaced."""
    notes = tmp_path / "notes.txt"
    notes.write_bytes(b"keep me\n")
    with pytest.raises(FlipError, match="notes.txt"):
        CommandServer(demo_session, notes)
    assert notes.read_bytes() == b"keep me\n"

    stale = tmp_path / "stale.sock"
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as leftover:
        leftover.bind(str(stale))
    server = CommandServer(demo_session, stale)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        assert send_command(stale, "getswitches")["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()


# a JSON number json.loads refuses with a plain ValueError, not a
# JSONDecodeError: it has more digits than int() converts by default
LONG_INT = "1" * 5000


def test_socket_bad_number_is_bad_request_and_the_next_line_is_served(tmp_path, demo_session):
    sock_path = tmp_path / "flip.sock"
    server = CommandServer(demo_session, sock_path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(10)
            sock.connect(str(sock_path))
            lines = sock.makefile("rb")
            sock.sendall(f'{{"verb": "getswitches", "args": {{"n": {LONG_INT}}}}}\n'.encode())
            bad = json.loads(lines.readline())
            assert (bad["status"], bad["code"]) == ("error", "bad_request")
            sock.sendall(b'{"verb": "getswitches", "args": {}}\n')
            reply = json.loads(lines.readline())
            assert reply["status"] == "ok" and len(reply["body"]["switches"]) == 5
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def _nested(depth: int) -> str:
    return "datapath_a(" + "sum(" * depth + "bs1" + ")" * depth + ",destination<-user)"


def test_deeply_nested_request_is_a_syntax_error_and_the_session_goes_on(demo_session):
    from flip.dsl import MAX_NESTING

    deep = demo_session.execute("datapath_a", {"request": _nested(1200)})
    assert (deep.status, deep.code) == ("error", "syntax_error")
    assert "nested deeper" in deep.message
    # at the bound the request parses and fails later, as a typed error
    bounded = demo_session.execute("datapath_a", {"request": _nested(MAX_NESTING)})
    assert (bounded.status, bounded.code) == ("error", "placement_error")
    assert demo_session.command_log == []
    assert demo_session.execute("datapath_a", {"request": EQ1}).ok


def test_socket_deeply_nested_request_is_a_syntax_error_reply(tmp_path, demo_session):
    sock = tmp_path / "flip.sock"
    server = CommandServer(demo_session, sock)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        deep = send_command(sock, "datapath_a", {"request": _nested(1200)})
        assert (deep["status"], deep["code"]) == ("error", "syntax_error")
        reply = send_command(sock, "datapath_a", {"request": EQ1})
        assert reply["status"] == "ok"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_session_reads_no_config_dir_from_the_environment(tmp_path, monkeypatch):
    config = {"compute": "sum", "source": ["bs1"], "destination": "user"}
    stored = Session(demo_topology(), config_dir=tmp_path)
    stored.execute("setconfig/user", {"engine": "e-sw1", "user": "u", "config": config})
    config_file = tmp_path / "engine_configs.json"
    before = config_file.read_bytes()
    monkeypatch.setenv("FLIP_CONFIG_DIR", str(tmp_path))
    session = Session(demo_topology())
    assert session.store.to_doc() == {}
    session.execute("setconfig/user", {"engine": "e-sw2", "user": "v", "config": config})
    assert config_file.read_bytes() == before


GHOST = {"compute": "max", "source": ["bs1"], "destination": "user"}


@pytest.mark.parametrize(
    "text", [json.dumps({"e-sw1": {"ghost": [GHOST]}}), "{not json"], ids=["ghost-config", "not-json"]
)
def test_replay_over_a_foreign_config_file_is_replay_without_one(tmp_path, text):
    """The command log is a session's only source of state: whatever the
    config file held before adds nothing to the replayed session, and the
    first write replaces it with the store's document."""
    topology = demo_topology()
    first = Session(topology)
    assert first.execute("datapath_a", {"request": EQ1}).ok
    path = tmp_path / "engine_configs.json"
    path.write_text(text, encoding="utf-8")
    replayed = Session.replay(topology, first.command_log, config_dir=tmp_path)
    assert replayed.state_json() == Session.replay(topology, first.command_log).state_json()
    assert json.loads(path.read_text(encoding="utf-8")) == replayed.store.to_doc()
    assert "ghost" not in path.read_text(encoding="utf-8")


def test_a_command_writes_the_config_file_at_most_once(tmp_path, monkeypatch):
    writes = []
    os_open = os.open

    def spy(path, flags, *args, **kwargs):
        if Path(path).name == "engine_configs.json" and flags & os.O_WRONLY:
            writes.append(Path(path))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    session = Session(build_experiment_topology(), config_dir=tmp_path)
    result = session.execute("datapath_a", {"request": harness.request_texts()[8]})
    assert result.ok and result.body["configs_set"] > 1
    assert writes == [tmp_path / "engine_configs.json"]
    rule = {"final_destination": "user", "sources": ["bs1"]}
    forward = {"type": "forward", "target": "sw2"}
    assert session.execute("getswitches").ok
    assert session.execute("addflow", {"dpid": "sw1", "match": rule, "action": forward}).ok
    assert len(writes) == 1


def test_config_file_shows_the_store_after_every_command(tmp_path):
    """A seeded mix of installs, config edits, reads and failing commands;
    after each one the file is the store's document."""
    rng = random.Random(5)
    path = tmp_path / "engine_configs.json"
    session = Session(build_experiment_topology(), config_dir=tmp_path)
    users = ("maya", 'u"q', "\u00e9", "zed")
    engines = ("e-sw1", "e-sw2", "e-sw9", "e-sw12")
    requests = harness.request_texts()

    def config():
        sources = rng.sample(["bs1", "bs2", "bs11", "bs21"], rng.randint(1, 3))
        doc = {"compute": rng.choice(("sum", "max", "sub")), "source": sources}
        doc["destination"] = rng.choice(("user", "e-sw12"))
        doc["rate"] = rng.choice((100.0, 250.5, "x", -1))
        return doc

    def command():
        engine, user = rng.choice(engines), rng.choice(users)
        request = rng.choice(requests)[:-1] + f",user<-u{rng.randint(1, 4)})"
        return rng.choice(
            [
                ("datapath_a", {"request": request}),
                ("datapath_a", {"request": "datapath_a(frob(bs1),destination<-user)"}),
                ("datapath_a", {"request": requests[0], "baseline": True}),
                ("setconfig/user", {"engine": engine, "user": user, "config": config()}),
                ("setconfig/user", {"engine": "e-sw99", "user": user, "config": config()}),
                (
                    "setconfig/user/module",
                    {
                        "engine": engine,
                        "user": user,
                        "module": "destination",
                        "value": rng.choice(("user", "e-sw12", "cloud")),
                        "destination": rng.choice(("user", "e-sw12")),
                    },
                ),
                (
                    "setconfig/user/module",
                    {"engine": engine, "user": user, "module": "rate", "value": rng.choice((50, "x"))},
                ),
                ("getconfig", {"engine": engine}),
                ("getconfig/user", {"engine": engine, "user": user}),
                ("getswitches", {}),
                ("frob", {}),
            ]
        )

    outcomes = set()
    for _ in range(150):
        verb, args = command()
        outcomes.add((verb, session.execute(verb, args).ok))
        doc = session.store.to_doc()
        if path.exists():
            assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True)
            assert json.loads(path.read_text(encoding="utf-8")) == doc
        else:
            assert doc == {}
    assert path.exists()
    # every kind of command ran, and the editing ones both passed and failed
    assert {verb for verb, _ in outcomes} == {
        "datapath_a", "setconfig/user", "setconfig/user/module", "getconfig",
        "getconfig/user", "getswitches", "frob",
    }
    for verb in ("datapath_a", "setconfig/user", "setconfig/user/module"):
        assert {(verb, True), (verb, False)} <= outcomes


def test_a_command_cuts_a_longer_config_file_to_its_new_length(tmp_path):
    """A file written with wider indents than the store's is longer than
    the store's document; the next write leaves no stale tail."""
    path = tmp_path / "engine_configs.json"
    first = Session(build_experiment_topology(), config_dir=tmp_path)
    assert first.execute("datapath_a", {"request": harness.request_texts()[8]}).ok
    path.write_text(json.dumps(first.store.to_doc(), indent=4, sort_keys=True), encoding="utf-8")
    longer = path.stat().st_size
    session = Session(build_experiment_topology(), config_dir=tmp_path)
    cfg = {"compute": "max", "source": ["bs1"], "destination": "user"}
    result = session.execute("setconfig/user", {"engine": "e-sw1", "user": "zed", "config": cfg})
    assert result.ok
    doc = session.store.to_doc()
    assert "zed" in doc["e-sw1"]
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert len(text) < longer
    assert path.read_bytes() == text.encode("ascii")
    assert json.loads(path.read_text(encoding="utf-8")) == doc


def test_a_failed_config_write_is_an_error_result_and_keeps_the_command(tmp_path):
    """An unwritable config file is a typed error, not an exception out of
    execute; the installed command stays in the log, and the next command
    writes the whole document once the path is writable."""
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("", encoding="utf-8")
    topology = build_experiment_topology()
    session = Session(topology, config_dir=blocker)
    args = {"request": "datapath_a(max(bs1:bs10),destination<-user)"}
    result = session.execute("datapath_a", args)
    assert not result.ok and result.code == "error"
    assert result.message.startswith(f"cannot write {blocker / 'engine_configs.json'}: ")
    assert session.command_log == [{"verb": "datapath_a", "args": args}]
    assert sum(len(session.fabric.tables[sw].rules) for sw in topology.switches()) == 5
    assert [len(rs) for users in session.store.to_doc().values() for rs in users.values()] == [1]
    assert Session.replay(topology, session.command_log).state_json() == session.state_json()
    # still unwritable: the pending write fails again, and nothing is logged
    result = session.execute("getswitches")
    assert not result.ok and result.message.startswith("cannot write ")
    assert len(session.command_log) == 1
    blocker.unlink()
    blocker.mkdir()
    assert session.execute("getswitches").ok
    path = blocker / "engine_configs.json"
    doc = session.store.to_doc()
    assert path.read_text(encoding="utf-8") == json.dumps(doc, indent=2, sort_keys=True)
    assert json.loads(path.read_text(encoding="utf-8")) == doc


def test_a_new_session_over_an_old_file_writes_it_once(tmp_path, monkeypatch):
    """A new session's first command writes its store over the file a
    previous session left, though the command changes no config; the next
    such command writes nothing."""
    path = tmp_path / "engine_configs.json"
    first = Session(build_experiment_topology(), config_dir=tmp_path)
    assert first.execute("datapath_a", {"request": harness.request_texts()[8]}).ok
    writes = []
    os_open = os.open

    def spy(name, flags, *args, **kwargs):
        if Path(name) == path and flags & os.O_WRONLY:
            writes.append(name)
        return os_open(name, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    session = Session(build_experiment_topology(), config_dir=tmp_path)
    assert session.execute("getconfig", {"engine": "e-sw1"}).ok
    assert path.read_text(encoding="utf-8") == "{}" and len(writes) == 1
    assert session.execute("getconfig", {"engine": "e-sw1"}).ok
    assert len(writes) == 1


def test_a_command_that_changes_no_config_replaces_a_malformed_file(tmp_path):
    """The file shows the store after every command, from the first on:
    a failed command and a read over a file that is not JSON leave `{}`."""
    path = tmp_path / "engine_configs.json"
    path.write_text("not json", encoding="utf-8")
    session = Session(demo_topology(), config_dir=tmp_path)
    bad = {"dpid": "sw1", "match": {"final_destination": "user"}, "action": {"type": "frob"}}
    assert not session.execute("addflow", bad).ok
    assert session.execute("getswitches").ok
    assert session.store.to_doc() == {}
    assert path.read_text(encoding="utf-8") == "{}"


def test_replaying_an_empty_log_replaces_a_malformed_file(tmp_path):
    """`flip stats` runs no command: the replay itself leaves the file
    showing the store."""
    path = tmp_path / "engine_configs.json"
    path.write_text("not json", encoding="utf-8")
    Session.replay(demo_topology(), [], config_dir=tmp_path)
    assert path.read_text(encoding="utf-8") == "{}"


FLOW = {"match": {"final_destination": "user"}, "action": {"type": "forward", "target": "sw2"}}
CONFIG = {"compute": "sum", "source": ["bs1"], "destination": "user"}
# 400 nines overflow a float to inf
OVERFLOW = (
    "datapath_a(max(bs1:bs10),destination<-user,requirement<-{{{key}="
    + "9" * 400
    + "{unit}}})"
)


@pytest.mark.parametrize(
    "verb, args, code",
    [
        ("getflows", {"dpid": [1]}, "unknown_switch"),
        ("getports", {"dpid": {"id": "sw1"}}, "unknown_switch"),
        ("getswdesc", {"dpid": ["sw1"]}, "unknown_switch"),
        ("gettables", {"dpid": True}, "unknown_switch"),
        ("addflow", {"dpid": ["sw1"], **FLOW}, "unknown_switch"),
        ("modflow", {"dpid": ["sw1"], "index": 0, **FLOW}, "unknown_switch"),
        ("delflow", {"dpid": {"id": "sw1"}, "index": 0}, "unknown_switch"),
        ("delflowall", {"dpid": [1]}, "unknown_switch"),
        ("getconfig", {"engine": ["e-sw1"]}, "unknown_switch"),
        ("getconfig/user", {"engine": {"id": "e-sw1"}, "user": "u"}, "unknown_switch"),
        ("getconfig/user", {"engine": "e-sw1", "user": ["u"]}, "validation_error"),
        ("setconfig/user", {"engine": ["e-sw1"], "user": "u", "config": CONFIG}, "unknown_switch"),
        (
            "setconfig/user/module",
            {"engine": "e-sw1", "user": {"name": "u"}, "module": "rate", "value": "1s"},
            "validation_error",
        ),
        ("datapath_a", {"request": EQ1, "baseline": "no"}, "validation_error"),
        ("datapath_a", {"request": EQ1, "baseline": 1}, "validation_error"),
        ("datapath_a", {"request": OVERFLOW.format(key="rate", unit="ms")}, "validation_error"),
        ("datapath_a", {"request": OVERFLOW.format(key="delay", unit="s")}, "validation_error"),
        (
            "setconfig/user",
            {"engine": "e-sw1", "user": "u", "config": {**CONFIG, "rate": float("nan")}},
            "validation_error",
        ),
        (
            "setconfig/user",
            {"engine": "e-sw1", "user": "u", "config": {**CONFIG, "jitter": float("inf")}},
            "validation_error",
        ),
        # json.loads gives an int beyond float range for a 401-digit number
        (
            "setconfig/user",
            {"engine": "e-sw1", "user": "u", "config": {**CONFIG, "rate": json.loads("1" + "0" * 400)}},
            "validation_error",
        ),
        (
            "setconfig/user",
            {"engine": "e-sw1", "user": "u", "config": {**CONFIG, "jitter": -(10**400)}},
            "validation_error",
        ),
    ],
)
def test_wrongly_typed_arguments_are_typed_errors(demo_session, verb, args, code):
    before = demo_session.state_json()
    result = demo_session.execute(verb, args)
    assert not result.ok and result.code == code, result
    assert demo_session.state_json() == before
    assert demo_session.command_log == []


@pytest.mark.parametrize(
    "verb, args, code",
    [
        ("addflow", "x", "validation_error"),
        ("getswitches", [1], "validation_error"),
        ("datapath_a", [EQ1], "validation_error"),
        ("getswitches", 0, "validation_error"),
        (["getswitches"], {}, "unknown_verb"),
    ],
)
def test_arguments_that_are_not_an_object_are_a_typed_error(demo_session, verb, args, code):
    result = demo_session.execute(verb, args)
    assert not result.ok and result.code == code, result
    assert demo_session.command_log == []


MALFORMED_LOGS = {
    "number": 5,
    "object": {"verb": "getswitches", "args": {}},
    "entry-not-object": ["getswitches"],
    "no-args": [{"verb": "getswitches"}],
    "no-verb": [{"args": {}}],
    "verb-not-string": [{"verb": 5, "args": {}}],
    "args-not-object": [{"verb": "getswitches", "args": [1]}],
}


@pytest.mark.parametrize("log", MALFORMED_LOGS.values(), ids=MALFORMED_LOGS.keys())
def test_a_malformed_command_log_is_a_parse_error(tmp_path, capsys, log):
    """A log that is not a list of {"verb": str, "args": object} fails the
    replay with a ParseError, and the CLI with an `error:` line."""
    with pytest.raises(ParseError, match="command log"):
        Session.replay(demo_topology(), log)
    session_dir = tmp_path / "s"
    topo_file = str(harness.DATA_DIR / "demo_topology.json")
    assert cli_main(["--session", str(session_dir), "load", topo_file]) == 0
    doc = json.loads((session_dir / "session.json").read_text(encoding="utf-8"))
    doc["log"] = log
    (session_dir / "session.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert cli_main(["--session", str(session_dir), "cmd", "getswitches"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "command log" in err, err


def _flow(**match) -> dict:
    """A forward rule toward sw1's neighbour sw3, with `match` overrides."""
    return {
        "match": {"final_destination": "user", "sources": ["bs1"], **match},
        "action": {"type": "forward", "target": "sw3"},
    }


@pytest.mark.parametrize(
    "verb, args, code",
    [
        ("addflow", {"dpid": "sw1", **_flow(sources="bs1")}, "compile_error"),
        ("addflow", {"dpid": "sw1", **_flow(sources=["bs1", 1])}, "compile_error"),
        ("addflow", {"dpid": "sw1", **_flow(final_destination=["user"])}, "compile_error"),
        (
            "addflow",
            {"dpid": "sw1", **_flow(), "action": {"type": "forward", "target": ["sw3"]}},
            "compile_error",
        ),
        ("addflow", {"dpid": "sw1", **_flow(), "match": ["user"]}, "compile_error"),
        ("addflow", {"dpid": "sw1", **_flow(), "action": "forward"}, "compile_error"),
        ("delflow", {"dpid": "sw1", "index": True}, "validation_error"),
        ("modflow", {"dpid": "sw1", "index": True, **_flow()}, "validation_error"),
    ],
)
def test_malformed_flow_rule_documents_are_typed_errors(demo_session, verb, args, code):
    """A flow document's names must be names, not a string split into
    letters or a list installed as one name, and a bool is no flow index
    (sw1 holds two flows after EQ1, so `True` would pick flow 1)."""
    assert demo_session.execute("datapath_a", {"request": EQ1}).ok
    before = demo_session.state_json()
    result = demo_session.execute(verb, args)
    assert not result.ok and result.code == code, result
    assert demo_session.state_json() == before
    assert len(demo_session.command_log) == 1


# -- CLI ------------------------------------------------------------------------


def test_cli_load_run_stats_roundtrip(tmp_path):
    topo_file = Path("data/demo_topology.json").resolve()
    script = tmp_path / "one.flip"
    script.write_text(EQ1 + "\n")
    session_dir = str(tmp_path / "session")
    assert cli_main(["--session", session_dir, "load", str(topo_file)]) == 0
    assert cli_main(["--session", session_dir, "run", str(script)]) == 0
    csv_out = tmp_path / "stats.csv"
    assert cli_main(["--session", session_dir, "stats", "--csv", str(csv_out)]) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "switch,id,count"
    assert len(lines) == 6  # header + 5 switches


def test_cli_cmd_and_persistence(tmp_path):
    topo_file = Path("data/demo_topology.json").resolve()
    session_dir = str(tmp_path / "s")
    cli_main(["--session", session_dir, "load", str(topo_file)])
    assert cli_main(["--session", session_dir, "cmd", "datapath_a", f"request={EQ1}"]) == 0
    # state persists through the command log
    doc = json.loads((Path(session_dir) / "session.json").read_text())
    assert len(doc["log"]) == 1
    assert cli_main(["--session", session_dir, "cmd", "getflows", "dpid=sw1"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["load", "bad.json"],
        ["load", "TOPO", "--coverage", "bad.json"],
        ["load", "missing.json"],
        ["run", "missing.flip"],
        ["cmd", "getflows", "--json", "{bad"],
        ["cmd", "getflows", "--json", "[1]"],
        ["run", "binary.flip"],
        ["--session", "other", "stats"],
    ],
    ids=[
        "topology-not-json",
        "coverage-not-json",
        "missing-topology",
        "missing-script",
        "json-malformed",
        "json-not-object",
        "script-not-utf8",
        "session-not-a-session",
    ],
)
def test_cli_bad_input_is_an_error_line(tmp_path, monkeypatch, capsys, argv):
    """A missing or malformed input file, or a --json value that is not a
    JSON object, exits 1 with an `error:` line instead of a traceback."""
    topo_file = str(Path("data/demo_topology.json").resolve())
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text("not json\n")
    Path("binary.flip").write_bytes(b"\xd0\xcf\x11\xe0")
    Path("other").mkdir()
    Path("other", "session.json").write_text("[1]\n")
    assert cli_main(["--session", "s", "load", topo_file]) == 0
    capsys.readouterr()
    argv = [topo_file if arg == "TOPO" else arg for arg in argv]
    assert cli_main(["--session", "s", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


def test_cli_bad_number_in_a_file_is_a_parse_error(tmp_path, capsys):
    topo = tmp_path / "topology.json"
    topo.write_text(f'{{"nodes": [{{"id": "sw1", "kind": "switch", "n": {LONG_INT}}}], "links": []}}')
    with pytest.raises(ParseError):
        cli._read_json(topo)
    assert cli_main(["--session", str(tmp_path / "s"), "load", str(topo)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


def test_cli_bad_number_argument_falls_back_to_a_string(tmp_path, capsys):
    """A key=value argument json.loads refuses is passed on as the string;
    in --json it is a parse error."""
    session_dir = str(tmp_path / "s")
    assert cli_main(["--session", session_dir, "load", str(Path("data/demo_topology.json").resolve())]) == 0
    capsys.readouterr()
    assert cli_main(["--session", session_dir, "cmd", "getflows", f"dpid={LONG_INT}"]) == 1
    reply = json.loads(capsys.readouterr().out)
    assert reply["code"] == "unknown_switch" and f"'{LONG_INT}'" in reply["message"]
    assert cli_main(["--session", session_dir, "cmd", "getflows", "--json", f'{{"dpid": {LONG_INT}}}']) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err


@pytest.mark.parametrize(
    "delay",
    ["NaN", "Infinity", "-1", '"2"', "true", "[1]"],
    ids=["nan", "infinity", "negative", "string", "bool", "list"],
)
def test_cli_load_rejects_a_bad_link_delay(tmp_path, capsys, delay):
    """A link delay that is not a finite, non-negative number fails `flip
    load` with one `error:` line naming the link, and no session is saved."""
    topo = tmp_path / "topology.json"
    topo.write_text(
        '{"nodes": [{"id": "sw1", "kind": "switch"}, {"id": "sw2", "kind": "switch"}],'
        ' "links": [{"a": "sw1", "b": "sw2", "delay_ms": %s}]}' % delay
    )
    assert cli_main(["--session", str(tmp_path / "s"), "load", str(topo)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "link sw1-sw2" in err, err
    assert not (tmp_path / "s" / "session.json").exists()


def test_cli_load_builds_the_topology_once(tmp_path, monkeypatch, capsys):
    """`flip load` validates the topology by building it, before anything is
    written, and prints its node count from that one build; a topology that
    does not build leaves no session behind."""
    built = []

    def counting_load(doc):
        built.append(doc)
        return load_topology(doc)

    monkeypatch.setattr(cli, "load_topology", counting_load)
    demo = str(Path("data/demo_topology.json").resolve())
    assert cli_main(["--session", str(tmp_path / "s"), "load", demo]) == 0
    assert len(built) == 1
    out = capsys.readouterr().out
    assert out == f"loaded 311 nodes (5 switches) into {tmp_path / 's' / 'session.json'}\n"

    topo = tmp_path / "topology.json"
    topo.write_text('{"nodes": [{"id": "sw1", "kind": "switch"}, {"id": "sw1", "kind": "switch"}], "links": []}')
    assert cli_main(["--session", str(tmp_path / "bad"), "load", str(topo)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "bad" / "session.json").exists()


def test_cli_wrongly_typed_argument_is_an_error_reply(tmp_path, capsys):
    """`dpid=[1]` parses as a JSON list: the command fails with exit code 1
    and a typed error reply, not a traceback."""
    session_dir = str(tmp_path / "s")
    assert cli_main(["--session", session_dir, "load", str(harness.DATA_DIR / "demo_topology.json")]) == 0
    capsys.readouterr()
    assert cli_main(["--session", session_dir, "cmd", "getflows", "dpid=[1]"]) == 1
    out, err = capsys.readouterr()
    reply = json.loads(out)
    assert reply["status"] == "error" and reply["code"] == "unknown_switch"
    assert "Traceback" not in err


def test_cli_bench_writes_report(tmp_path):
    out = tmp_path / "report"
    code = cli_main(
        ["bench", "--suite", "r1r9", "--seed", "1", "--horizon-ms", "300", "--out", str(out)]
    )
    assert code == 0
    assert (out / "switch_counts.csv").exists()
    assert (out / "request_totals.csv").exists()
    assert (out / "summary.json").exists()


def test_cli_writes_engine_config_file(tmp_path):
    session_dir = tmp_path / "s"
    config_file = session_dir / "engine_configs.json"
    topo_file = str(harness.DATA_DIR / "experiment_topology.json")
    script = str(harness.DATA_DIR / "requests_r1r9.flip")
    assert cli_main(["--session", str(session_dir), "load", topo_file]) == 0
    assert cli_main(["--session", str(session_dir), "run", script, "--keep-going"]) == 0
    doc = json.loads((session_dir / "session.json").read_text())
    replayed = Session.replay(build_experiment_topology(), doc["log"])
    assert json.loads(config_file.read_text()) == replayed.state_doc()["configs"]
    # a new load must not inherit the previous session's configs
    assert cli_main(["--session", str(session_dir), "load", topo_file]) == 0
    assert not config_file.exists()


def test_cli_config_file_follows_the_log(tmp_path):
    session_dir = str(tmp_path / "s")
    topo_file = str(harness.DATA_DIR / "demo_topology.json")
    assert cli_main(["--session", session_dir, "load", topo_file]) == 0
    config = {"compute": "sum", "source": ["bs1"], "destination": "user"}
    base = ["--session", session_dir, "cmd"]
    set_args = ["engine=e-sw1", "user=u", "--json", json.dumps({"config": config})]
    assert cli_main(base + ["setconfig/user"] + set_args) == 0
    module_args = ["engine=e-sw1", "user=u", "module=destination", "value=e-sw5"]
    assert cli_main(base + ["setconfig/user/module"] + module_args) == 0
    # each invocation replays the log; the file the previous one left must
    # not add the config the destination change removed
    assert cli_main(base + ["getconfig/user", "engine=e-sw1", "user=u"]) == 0
    stored = json.loads((Path(session_dir) / "engine_configs.json").read_text())
    assert [c["destination"] for c in stored["e-sw1"]["u"]] == ["e-sw5"]
