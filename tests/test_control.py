import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from flip import cli, errors, harness
from flip.cli import main as cli_main
from flip.control import CONFIG_FILE, VERB_TABLE, CommandServer, Session, send_command
from flip.errors import FlipError, ParseError, UnknownSwitchError, ValidationError
from flip.harness import build_experiment_topology, demo_topology
from flip.packets import PacketRecord, Scalar
from flip.topology import load_topology, load_topology_file

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
    results = session.run_script(script.read_text())
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
    results = session.run_script(script.read_text(), baseline=True)
    assert all(r.ok for r in results)
    assert all(r.body.get("baseline") for r in results)
    # shortest-path delivery only: no engine configs, no redirects anywhere
    assert session.store.to_doc() == {}
    for table in session.fabric.tables.values():
        assert all(r.action.value != "redirect" for r in table.rules)


def test_run_script_empty(tmp_path, session):
    script = tmp_path / "empty.flip"
    script.write_text("# nothing here\n\n")
    assert session.run_script(script.read_text()) == []


def test_run_script_keep_going(tmp_path, session):
    lines = harness.request_texts()[:4] + ["datapath_a(frob(bs1),destination<-user)"]
    lines += harness.request_texts()[4:]
    script = tmp_path / "broken.flip"
    script.write_text("\n".join(lines) + "\n")
    results = session.run_script(script.read_text(), keep_going=True)
    assert len(results) == 10
    assert sum(1 for r in results if r.ok) == 9
    assert sum(1 for r in results if not r.ok) == 1
    # without keep_going, execution stops at the bad line
    fresh = Session(build_experiment_topology())
    stopped = fresh.run_script(script.read_text())
    assert len(stopped) == 5 and not stopped[-1].ok


COMMAND_ERRORS = {
    "duplicate-sources": (
        "setconfig/user",
        {
            "engine": "e-sw1",
            "user": "u",
            "config": {"compute": "max", "source": ["bs1", "bs1"], "destination": "user"},
        },
        ValidationError,
        "duplicate sources in config: ('bs1', 'bs1')",
    ),
    "no-flow-at-index": (
        "delflow", {"dpid": "sw1", "index": 0}, ValidationError, "no flow at index 0 on sw1"
    ),
    "unknown-dpid": ("delflowall", {"dpid": 99}, UnknownSwitchError, "unknown dpid 99"),
}


@pytest.mark.parametrize("verb, args, error, fragment", COMMAND_ERRORS.values(), ids=COMMAND_ERRORS)
def test_a_failing_command_is_its_typed_error_and_fails_a_replay(demo_session, verb, args, error, fragment):
    """A command that fails returns its error's code and is not logged; a
    log that holds it anyway fails its replay with an error naming the verb."""
    result = demo_session.execute(verb, args)
    assert (result.status, result.code) == ("error", error.code) and fragment in result.message
    assert demo_session.command_log == []
    with pytest.raises(FlipError, match=f"^replay failed on {re.escape(verb)}: .*{re.escape(fragment)}"):
        Session.replay(demo_session.topology, [{"verb": verb, "args": args}])


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
        "match": {"final_destination": "e-sw3", "sources": ["e-sw1"]},
        "action": {"type": "forward", "target": "sw4"},
    }
    result = demo_session.execute("modflow", {"dpid": "sw1", "index": 0, **rule})
    assert result.ok
    flows = demo_session.execute("getflows", {"dpid": "sw1"}).body["flows"]
    assert len(flows) == 2 and flows[0]["action"] == rule["action"]
    replayed = Session.replay(demo_topology(), demo_session.command_log)
    assert replayed.state_json() == demo_session.state_json()
    # a forward for a match the redirect at index 1 owns is refused
    before, log = demo_session.state_json(), list(demo_session.command_log)
    shadowing = {"match": {"final_destination": "user", "sources": ["bs1"]}, "action": rule["action"]}
    refused = demo_session.execute("modflow", {"dpid": "sw1", "index": 0, **shadowing})
    assert (refused.status, refused.code) == ("error", "conflict")
    assert demo_session.state_json() == before and demo_session.command_log == log


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


REPRO_3 = (
    "datapath_a(sum(bs1,bs15),destination<-user,user<-a)",
    "datapath_a(max(bs11:bs20),destination<-user,user<-b)",
)


@pytest.mark.parametrize("first, second", [REPRO_3, REPRO_3[::-1]], ids=["a-then-b", "b-then-a"])
def test_a_request_whose_rule_would_shadow_a_redirect_is_a_conflict(session, first, second):
    """User a's forward for (user, bs15) on sw2 would shadow user b's
    redirect there, or be shadowed by it: whichever request comes second is
    refused with `conflict`, installs nothing, and is not logged."""
    assert session.execute("datapath_a", {"request": first}).ok
    before, log = session.state_json(), list(session.command_log)
    result = session.execute("datapath_a", {"request": second})
    assert (result.status, result.code) == ("error", "conflict")
    assert "'sw2'" in result.message and "'bs15'" in result.message
    assert session.state_json() == before and session.command_log == log
    assert Session.replay(session.topology, log).state_json() == before


def test_a_redirect_owns_its_match_against_hand_edits(demo_session):
    """A hand-added forward for a match a planned redirect owns is a
    `conflict`; the redirect itself can still be edited at its own index,
    since a rule is not checked against the one it replaces."""
    demo_session.execute("datapath_a", {"request": EQ1})
    rules = demo_session.fabric.tables["sw1"].rules
    index = next(i for i, rule in enumerate(rules) if rule.action.value == "redirect")
    match = {"final_destination": "user", "sources": ["bs1"]}
    before, log = demo_session.state_json(), list(demo_session.command_log)
    forward = {"type": "forward", "target": "sw3"}
    refused = demo_session.execute("addflow", {"dpid": "sw1", "match": match, "action": forward})
    assert (refused.status, refused.code) == ("error", "conflict")
    assert demo_session.state_json() == before and demo_session.command_log == log
    edited = demo_session.execute("modflow", {"dpid": "sw1", "index": index, "match": match, "action": forward})
    assert edited.ok, edited.message
    assert demo_session.fabric.tables["sw1"].rules[index].action.value == "forward"
    assert Session.replay(demo_topology(), demo_session.command_log).state_json() == demo_session.state_json()


def _publish(session: Session, flows, epochs: int) -> dict[str, list]:
    """Publish each (user, source ingress, seed) flow's seeded samples on
    the session's fabric and run it; user -> its deliveries as sorted
    (epoch, node, value)."""
    fabric = session.fabric
    for user, ingress, seed in flows:
        for s in harness.Workload(seed=seed, horizon_ms=100.0 * epochs).samples(list(ingress)):
            packet = PacketRecord(s.source, ingress[s.source], user, s.epoch, s.publish_ms, Scalar(s.value))
            fabric.inject(packet, at=s.source)
    fabric.run()
    assert fabric.conservation()["balanced"]
    delivered: dict[str, list] = {}
    for record in fabric.delivered:
        delivered.setdefault(record["user"], []).append((record["epoch"], record["node"], record["payload"]["scalar"]))
    return {user: sorted(values) for user, values in delivered.items()}


def test_co_installed_requests_are_isolated_or_refused():
    """Seeded trials of 2-6 distinct users on one session, each with an
    R1-R9 shape or a small overlapping one, sent to the user or the cloud
    host. Each request is either refused with `conflict`, or admitted, and
    then delivers the same value in every epoch as it does alone on a
    fresh session with the same samples. Each trial's log replays to its
    live state."""
    t = build_experiment_topology()
    shapes = [text[len("datapath_a(") : -len(",destination<-user)")] for text in harness.request_texts()]
    shapes += ["sum(bs1,bs15)", "max(bs11:bs20)", "min(bs9:bs12)", "avg(bs5,bs25,bs45)", "max(sum(bs1,bs2),min(bs15,bs16))"]
    epochs = 3
    rng = random.Random(25)
    alone: dict[str, list] = {}
    refused = admitted = 0
    for _ in range(150):
        session = Session(t)
        flows = []
        for n in rng.sample(range(40), rng.randint(2, 6)):
            destination = rng.choice(("user", "cloud"))
            text = f"datapath_a({rng.choice(shapes)},destination<-{destination},user<-u{n})"
            result = session.execute("datapath_a", {"request": text})
            if not result.ok:
                assert result.code == "conflict", result.message
                refused += 1
                continue
            admitted += 1
            flows.append((text, (f"u{n}", result.body["plan"]["source_ingress"], n)))
        assert Session.replay(t, session.command_log).state_json() == session.state_json()
        together = _publish(session, [flow for _, flow in flows], epochs)
        for text, flow in flows:
            if text not in alone:
                fresh = Session(t)
                assert fresh.execute("datapath_a", {"request": text}).ok
                alone[text] = _publish(fresh, [flow], epochs)[flow[0]]
                assert len(alone[text]) == epochs
            assert together.get(flow[0]) == alone[text], text
    assert refused and admitted > refused, (admitted, refused)


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


def _config_writes(monkeypatch) -> list[Path]:
    """The engine configuration files written from now on, one entry per
    write, in order."""
    writes = []
    write_text = Path.write_text

    def spy(path, *args, **kwargs):
        if path.name == CONFIG_FILE:
            writes.append(path)
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", spy)
    return writes


def _canonical(store) -> str:
    return json.dumps(store.to_doc(), indent=2, sort_keys=True)


def test_session_reads_no_config_dir_from_the_environment(tmp_path, monkeypatch):
    config = {"compute": "sum", "source": ["bs1"], "destination": "user"}
    first = Session(demo_topology())
    first.execute("setconfig/user", {"engine": "e-sw1", "user": "u", "config": config})
    Session.replay(demo_topology(), first.command_log, config_dir=tmp_path)
    config_file = tmp_path / CONFIG_FILE
    before = config_file.read_bytes()
    monkeypatch.setenv("FLIP_CONFIG_DIR", str(tmp_path))
    session = Session.replay(demo_topology(), [])
    assert session.store.to_doc() == {}
    session.execute("setconfig/user", {"engine": "e-sw2", "user": "v", "config": config})
    assert config_file.read_bytes() == before


def test_a_config_dir_that_does_not_exist_yet_is_made(tmp_path):
    session = Session(demo_topology())
    assert session.execute("datapath_a", {"request": EQ1}).ok
    replayed = Session.replay(demo_topology(), session.command_log, config_dir=tmp_path / "a" / "b")
    text = (tmp_path / "a" / "b" / CONFIG_FILE).read_text(encoding="utf-8")
    assert replayed.store.to_doc() == session.store.to_doc() and text == _canonical(session.store)


GHOST = {"compute": "max", "source": ["bs1"], "destination": "user"}


@pytest.mark.parametrize(
    "text", [json.dumps({"e-sw1": {"ghost": [GHOST]}}), "{not json"], ids=["ghost-config", "not-json"]
)
def test_replay_over_a_foreign_config_file_is_replay_without_one(tmp_path, text):
    """The command log is a session's only source of state: whatever the
    config file held before adds nothing to the replayed session, and the
    replay's write replaces it with the store's document."""
    topology = demo_topology()
    first = Session(topology)
    assert first.execute("datapath_a", {"request": EQ1}).ok
    path = tmp_path / CONFIG_FILE
    path.write_text(text, encoding="utf-8")
    replayed = Session.replay(topology, first.command_log, config_dir=tmp_path)
    assert replayed.state_json() == Session.replay(topology, first.command_log).state_json()
    assert json.loads(path.read_text(encoding="utf-8")) == replayed.store.to_doc()
    assert "ghost" not in path.read_text(encoding="utf-8")


def test_a_command_writes_the_config_file_at_most_once(tmp_path, monkeypatch):
    """No command writes the config file. Replaying N logged commands
    writes it exactly once, at the end; a `flip cmd` invocation writes it
    twice, at the end of its replay and when it saves; `flip stats` once."""
    writes = _config_writes(monkeypatch)
    topology = build_experiment_topology()
    session = Session(topology)
    for text in harness.request_texts():
        session.execute("datapath_a", {"request": text})
    assert session.execute("getswitches").ok
    assert len(session.command_log) > 1 and writes == []
    Session.replay(topology, session.command_log, config_dir=tmp_path)
    assert writes == [tmp_path / CONFIG_FILE]

    session_dir = tmp_path / "s"
    config_file = session_dir / CONFIG_FILE
    assert cli_main(["--session", str(session_dir), "load", str(harness.DATA_DIR / "experiment_topology.json")]) == 0
    for text in harness.request_texts()[:3]:
        writes.clear()
        assert cli_main(["--session", str(session_dir), "cmd", "datapath_a", f"request={text}"]) == 0
        assert writes == [config_file, config_file]
    writes.clear()
    assert cli_main(["--session", str(session_dir), "stats"]) == 0
    assert writes == [config_file]


def test_config_file_shows_the_store_after_every_command(tmp_path, capsys):
    """A seeded mix of installs, config edits, reads and failing commands,
    each one `flip cmd` invocation; after each one the file is the
    canonical dump of the store a live session reached by the same
    commands."""
    rng = random.Random(5)
    session_dir = str(tmp_path / "s")
    path = tmp_path / "s" / CONFIG_FILE
    assert cli_main(["--session", session_dir, "load", str(harness.DATA_DIR / "experiment_topology.json")]) == 0
    live = Session(build_experiment_topology())
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
            ]
        )

    outcomes = set()
    for _ in range(100):
        verb, args = command()
        code = cli_main(["--session", session_dir, "cmd", verb, "--json", json.dumps(args)])
        ok = live.execute(verb, args).ok
        assert code == (0 if ok else 1)
        outcomes.add((verb, ok))
        assert path.read_text(encoding="utf-8") == _canonical(live.store)
    capsys.readouterr()
    # every kind of command ran, and the editing ones both passed and failed
    assert {verb for verb, _ in outcomes} == {
        "datapath_a", "setconfig/user", "setconfig/user/module", "getconfig",
        "getconfig/user", "getswitches",
    }
    for verb in ("datapath_a", "setconfig/user", "setconfig/user/module"):
        assert {(verb, True), (verb, False)} <= outcomes
    assert live.store.to_doc()


def test_a_command_cuts_a_longer_config_file_to_its_new_length(tmp_path, capsys):
    """A file written with wider indents than the store's is longer than
    the store's document; the next invocation leaves no stale tail."""
    session_dir = tmp_path / "s"
    path = session_dir / CONFIG_FILE
    base = ["--session", str(session_dir), "cmd"]
    assert cli_main(["--session", str(session_dir), "load", str(harness.DATA_DIR / "experiment_topology.json")]) == 0
    assert cli_main(base + ["datapath_a", f"request={harness.request_texts()[8]}"]) == 0
    path.write_text(json.dumps(json.loads(path.read_text()), indent=4, sort_keys=True), encoding="utf-8")
    longer = path.stat().st_size
    cfg = {"compute": "max", "source": ["bs1"], "destination": "user"}
    assert cli_main(base + ["setconfig/user", "engine=e-sw1", "user=zed", "--json", json.dumps({"config": cfg})]) == 0
    capsys.readouterr()
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert "zed" in doc["e-sw1"]
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert len(text) < longer
    assert path.read_bytes() == text.encode("ascii")


def test_a_new_session_over_an_old_file_writes_it_once(tmp_path, monkeypatch):
    """A replay writes its store over the file a previous session left,
    though its log changes no config, and the commands after it write
    nothing."""
    path = tmp_path / CONFIG_FILE
    first = Session(build_experiment_topology())
    assert first.execute("datapath_a", {"request": harness.request_texts()[8]}).ok
    Session.replay(build_experiment_topology(), first.command_log, config_dir=tmp_path)
    assert json.loads(path.read_text(encoding="utf-8")) == first.store.to_doc()
    writes = _config_writes(monkeypatch)
    session = Session.replay(build_experiment_topology(), [], config_dir=tmp_path)
    assert path.read_text(encoding="utf-8") == "{}" and len(writes) == 1
    assert session.execute("getconfig", {"engine": "e-sw1"}).ok
    assert session.execute("datapath_a", {"request": harness.request_texts()[0]}).ok
    assert len(writes) == 1


def test_a_command_that_changes_no_config_replaces_a_malformed_file(tmp_path, capsys):
    """The file shows the store after every CLI invocation: a failed
    command and a read over a file that is not JSON leave `{}`."""
    session_dir = str(tmp_path / "s")
    path = tmp_path / "s" / CONFIG_FILE
    assert cli_main(["--session", session_dir, "load", str(harness.DATA_DIR / "demo_topology.json")]) == 0
    bad = {"dpid": "sw1", "match": {"final_destination": "user"}, "action": {"type": "frob"}}
    for argv, code in ((["addflow", "--json", json.dumps(bad)], 1), (["getswitches"], 0)):
        path.write_text("not json", encoding="utf-8")
        assert cli_main(["--session", session_dir, "cmd", *argv]) == code
        assert path.read_text(encoding="utf-8") == "{}"
    capsys.readouterr()


def test_replaying_an_empty_log_replaces_a_malformed_file(tmp_path):
    """`flip stats` runs no command: the replay itself leaves the file
    showing the store."""
    path = tmp_path / CONFIG_FILE
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
    # the ids are the dpids getswitches reports
    switches = Session(demo_topology()).execute("getswitches").body["switches"]
    assert [line.split(",")[:2] for line in lines[1:]] == [[s["id"], str(s["dpid"])] for s in switches]


def test_cli_run_reports_the_failing_line(tmp_path, capsys):
    script = tmp_path / "broken.flip"
    script.write_text(f"# one good, one bad\n{EQ1}\ndatapath_a(frob(bs1),destination<-user)\n{EQ1}\n")
    session_dir = str(tmp_path / "s")
    assert cli_main(["--session", session_dir, "load", str(harness.DATA_DIR / "demo_topology.json")]) == 0
    capsys.readouterr()
    assert cli_main(["--session", session_dir, "run", str(script)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[1] ok"
    assert lines[1].startswith("[2] error unknown_operation: line 3: unknown operation 'frob'"), lines
    assert lines[2:] == ["1/2 requests installed"]


def test_cli_stats_prints_the_report(tmp_path, capsys):
    session_dir = str(tmp_path / "s")
    assert cli_main(["--session", session_dir, "load", str(harness.DATA_DIR / "demo_topology.json")]) == 0
    assert cli_main(["--session", session_dir, "cmd", "datapath_a", f"request={EQ1}"]) == 0
    capsys.readouterr()
    assert cli_main(["--session", session_dir, "stats", "--filter-dest", "user"]) == 0
    session = Session(demo_topology())
    session.execute("datapath_a", {"request": EQ1})
    report = session.fabric.stats("user")
    assert capsys.readouterr().out == json.dumps(report.to_doc(), indent=2, sort_keys=True) + "\n"


def test_cli_cmd_and_persistence(tmp_path):
    topo_file = Path("data/demo_topology.json").resolve()
    session_dir = str(tmp_path / "s")
    cli_main(["--session", session_dir, "load", str(topo_file)])
    assert cli_main(["--session", session_dir, "cmd", "datapath_a", f"request={EQ1}"]) == 0
    # state persists through the command log
    doc = json.loads((Path(session_dir) / "session.json").read_text())
    assert len(doc["log"]) == 1
    assert cli_main(["--session", session_dir, "cmd", "getflows", "dpid=sw1"]) == 0


BAD_CLI_INPUT = {
    "topology-not-json": (["load", "bad.json"], "bad.json: Expecting value"),
    "topology-not-utf8": (["load", "binary.flip"], "binary.flip: 'utf-8' codec can't decode"),
    "coverage-not-json": (["load", "TOPO", "--coverage", "bad.json"], "bad.json: Expecting value"),
    "missing-topology": (["load", "missing.json"], "missing.json: No such file"),
    "missing-script": (["run", "missing.flip"], "missing.flip: No such file"),
    "json-malformed": (["cmd", "getflows", "--json", "{bad"], "--json: Expecting property name"),
    "json-not-object": (["cmd", "getflows", "--json", "[1]"], "--json must be a JSON object"),
    "script-not-utf8": (["run", "binary.flip"], "binary.flip: 'utf-8' codec can't decode"),
    "session-not-a-session": (["--session", "other", "stats"], "not a flip session"),
    # a file or directory that cannot be used
    "csv-in-a-missing-directory": (["stats", "--csv", "nodir/c.csv"], "nodir/c.csv: No such file"),
    "bench-out-under-a-file": (["bench", "--out", "bad.json/x"], "bad.json/x: Not a directory"),
    "session-under-a-file": (["--session", "bad.json/s", "load", "TOPO"], "bad.json/s: Not a directory"),
    "socket-in-a-missing-directory": (["serve", "--socket", "nodir/s.sock"], "nodir/s.sock: No such file"),
    "config-file-is-a-directory": (["--session", "blocked", "cmd", "getswitches"], f"blocked/{CONFIG_FILE}: Is a directory"),
    # bench numbers that give no epoch
    "zero-period": (["bench", "--period-ms", "0"], "period_ms must be finite and above 0, got 0.0"),
    "nan-period": (["bench", "--period-ms", "nan"], "period_ms must be finite and above 0, got nan"),
    "infinite-period": (["bench", "--period-ms", "inf"], "period_ms must be finite and above 0, got inf"),
    "infinite-horizon": (["bench", "--horizon-ms", "inf"], "horizon_ms must be finite and at least one period"),
    "zero-horizon": (["bench", "--horizon-ms", "0"], "horizon_ms must be finite and at least one period"),
    "horizon-under-a-period": (["bench", "--horizon-ms", "50"], "at least one period (100.0 ms), got 50.0"),
    "negative-horizon": (["bench", "--horizon-ms", "-5"], "at least one period (100.0 ms), got -5.0"),
    # and one that gives too many
    "too-many-epochs": (["bench", "--period-ms", "1e-300"], "at most 1000000 epochs, got 1e+304"),
}


@pytest.mark.parametrize("argv, fragment", BAD_CLI_INPUT.values(), ids=BAD_CLI_INPUT)
def test_cli_bad_input_is_an_error_line(tmp_path, monkeypatch, capsys, argv, fragment):
    """A missing, malformed or unusable input or output path, a --json
    value that is not a JSON object, or a bench number that gives no epoch
    or too many exits 1 with one `error:` line naming it instead of a
    traceback, and before any output."""
    topo_file = str(Path("data/demo_topology.json").resolve())
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text("not json\n")
    Path("binary.flip").write_bytes(b"\xd0\xcf\x11\xe0")
    Path("other").mkdir()
    Path("other", "session.json").write_text("[1]\n")
    assert cli_main(["--session", "s", "load", topo_file]) == 0
    assert cli_main(["--session", "blocked", "load", topo_file]) == 0
    Path("blocked", CONFIG_FILE).mkdir()
    capsys.readouterr()
    argv = [topo_file if arg == "TOPO" else arg for arg in argv]
    assert cli_main(["--session", "s", *argv]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err, err
    assert out == ""


def test_cli_bad_number_in_a_file_is_a_parse_error(tmp_path, capsys):
    topo = tmp_path / "topology.json"
    topo.write_text(f'{{"nodes": [{{"id": "sw1", "kind": "switch", "n": {LONG_INT}}}], "links": []}}')
    with pytest.raises(ParseError, match=f"^{re.escape(str(topo))}: "):
        load_topology_file(topo)
    assert cli_main(["--session", str(tmp_path / "s"), "load", str(topo)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {topo}: ") and "Traceback" not in err, err


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


@pytest.mark.parametrize(
    "node",
    [
        '{"range": 5, "kind": "basestation", "switch": "sw1"}',
        '{"range": null, "kind": "basestation", "switch": "sw1"}',
        '{"range": true, "kind": "basestation", "switch": "sw1"}',
        '{"range": ["bs1:bs3"], "kind": "basestation", "switch": "sw1"}',
        '{"range": {"from": "bs1"}, "kind": "basestation", "switch": "sw1"}',
        '{"id": "bs1", "kind": ["basestation"]}',
        '{"id": "bs1", "kind": {"name": "basestation"}}',
    ],
    ids=["range-number", "range-null", "range-bool", "range-list", "range-object", "kind-list", "kind-object"],
)
def test_cli_load_rejects_a_node_entry_of_the_wrong_type(tmp_path, capsys, node):
    """A range that is not a string, or a kind that is not a name, fails
    `flip load` with one `error:` line naming the value, and no session is
    saved."""
    topo = tmp_path / "topology.json"
    topo.write_text('{"nodes": [{"id": "sw1", "kind": "switch"}, %s], "links": []}' % node)
    assert cli_main(["--session", str(tmp_path / "s"), "load", str(topo)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert ("range" in err) if '"range"' in node else ("unknown node kind" in err), err
    assert not (tmp_path / "s" / "session.json").exists()


def test_cli_serve_prints_nothing_before_a_refused_bind(tmp_path, capsys):
    """`flip serve` binds before it says it is serving, so a regular file
    at the socket path exits 1 with its error and no `serving on` line."""
    session_dir = str(tmp_path / "s")
    assert cli_main(["--session", session_dir, "load", str(harness.DATA_DIR / "demo_topology.json")]) == 0
    notes = tmp_path / "notes.txt"
    notes.write_bytes(b"keep me\n")
    capsys.readouterr()
    assert cli_main(["--session", session_dir, "serve", "--socket", str(notes)]) == 1
    out, err = capsys.readouterr()
    assert "serving on" not in out, out
    assert err.startswith("error: ") and "notes.txt" in err, err
    assert notes.read_bytes() == b"keep me\n"


def test_cli_serve_saves_its_session_when_stopped(tmp_path, capsys):
    """`flip serve` stopped with ctrl-c saves the commands it served to the
    log and the config file, so the next invocation sees them."""
    session_dir = str(tmp_path / "s")
    assert cli_main(["--session", session_dir, "load", str(harness.DATA_DIR / "demo_topology.json")]) == 0
    sock = tmp_path / "s.sock"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # a child started from a shell's background job inherits SIGINT ignored,
    # so the server is given Python's own ctrl-c handler first
    serve = (
        "import signal, sys; signal.signal(signal.SIGINT, signal.default_int_handler); "
        "from flip.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    argv = [sys.executable, "-c", serve, "--session", session_dir, "serve", "--socket", str(sock)]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True) as proc:
        try:
            assert proc.stdout.readline().startswith("serving on"), proc.stderr.read()
            reply = send_command(sock, "setconfig/user", {"engine": "e-sw1", "user": "u", "config": CONFIG})
            assert reply["status"] == "ok", reply
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
    assert proc.returncode == 0, err
    log = json.loads((tmp_path / "s" / "session.json").read_text(encoding="utf-8"))["log"]
    assert [entry["verb"] for entry in log] == ["setconfig/user"]
    stored = json.loads((tmp_path / "s" / CONFIG_FILE).read_text(encoding="utf-8"))
    assert stored == {"e-sw1": {"u": [CONFIG]}}
    capsys.readouterr()
    assert cli_main(["--session", session_dir, "cmd", "getconfig", "engine=e-sw1"]) == 0
    reply = json.loads(capsys.readouterr().out)
    assert reply["body"]["configs"] == [{"user": "u", **CONFIG}]


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
    code = cli_main(["bench", "--seed", "1", "--horizon-ms", "300", "--out", str(out)])
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


# -- seeded model test of the command surface ----------------------------------

# malformed values an argument is sometimes given: wrong types, unknown
# names, out-of-range numbers, NaN and a 401-digit number
_JUNK = [None, True, -1, 99, 2.5, float("nan"), 10**400, "", "nope", [1], {"a": 1}]

# request texts per verb: first ones the verb installs, then ones it
# refuses (delay bound, unknown region, empty range, syntax, the other
# verb's form, unknown switch)
_REQUESTS = {
    "datapath_a": [
        "datapath_a(max(bs1:bs10),destination<-user)",
        "datapath_a(sum(avg(bs1:bs3),min(bs11:bs14)),destination<-user,user<-u1)",
        "datapath_a(sub(bs101,bs201),destination<-user,requirement<-{rate=100ms,jitter=5ms})",
        "datapath_a(mul(bs1,bs2),destination<-user,requirement<-{delay=0.5ms})",
        "datapath_a(max(Seoul),destination<-user)",
        "datapath_a(max(bs10:bs1),destination<-user)",
        "datapath_a(max(bs1,destination<-user)",
        "datapath_m(bs1,bs2,switch<-sw1,compute<-sum,destination<-user)",
    ],
    "datapath_m": [
        "datapath_m(bs1,bs2,switch<-sw1,compute<-sum,destination<-user)",
        "datapath_m(bs11,bs12,switch<-sw2,compute<-avg,destination<-sw5[engine],user<-u2)",
        "datapath_m(bs1,switch<-sw9,compute<-max,destination<-user)",
        "datapath_a(max(bs1:bs10),destination<-user)",
    ],
}

# a valid value for each section `setconfig/user/module` may replace
_MODULE_VALUES = {"compute": "min", "rate": 50, "jitter": 2, "source": ["bs2", "bs11"], "destination": "e-sw5"}


def _random_command(rng: random.Random, session: Session) -> tuple[str, object]:
    """One command over the 17 verbs, now and then an unknown verb or
    arguments that are not an object. The arguments are valid for the
    session as it stands, except that every other command has one of them
    dropped or replaced by a malformed value. Most commands name a switch
    with rules and an (engine, user) with a config, when there are any."""
    roll = rng.random()
    if roll < 0.03:
        return "nonsense", {}
    # the verbs that add rules and configs come up twice as often
    verb = rng.choice(sorted(VERB_TABLE) + ["addflow", "datapath_a", "datapath_m", "setconfig/user"])
    if roll < 0.06:
        return verb, rng.choice([[], 5, "dpid=sw1"])
    switches = list(session.fabric.tables)
    engines = list(session.fabric.engines)
    with_rules = [s for s in switches if session.fabric.tables[s].rules]
    sw = rng.choice(with_rules if with_rules and rng.random() < 0.8 else switches)
    configs = [c for e in engines for c in session.store.configs_for(e)]
    cfg = rng.choice(configs) if configs and rng.random() < 0.8 else None
    module = rng.choice(sorted(_MODULE_VALUES))
    target = rng.choice(sorted(session.topology.neighbors(sw))[:4])
    kind = session.topology.kind(target).value
    action = {"switch": "forward", "engine": "redirect"}.get(kind, "deliver")
    args = {
        "dpid": rng.choice([sw, switches.index(sw) + 1]),
        # one past the last rule now and then
        "index": rng.randrange(len(session.fabric.tables[sw].rules) + 1),
        "match": {
            "final_destination": rng.choice(["user", "e-sw5", sw]),
            "sources": rng.sample(["bs1", "bs2", "bs11", "bs101"], rng.randint(1, 2)),
        },
        # now and then a target that does not fit the action, which is refused
        "action": {"type": rng.choice([action, action, "forward", "redirect"]), "target": target},
        "engine": cfg.engine if cfg else rng.choice(engines),
        "user": cfg.user if cfg else rng.choice(["u1", "u2"]),
        "config": {
            "compute": rng.choice(["max", "sum", "sub"]),
            "source": rng.sample(["bs1", "bs2", "bs11"], rng.randint(1, 3)),
            "destination": rng.choice(["user", *engines]),
            "rate": rng.choice([100, 250.0]),
            "jitter": rng.choice([5, 0.0]),
        },
        "module": module,
        "value": _MODULE_VALUES[module],
        "request": rng.choice(_REQUESTS.get(verb, _REQUESTS["datapath_a"])),
        "baseline": rng.random() < 0.2,
    }
    if rng.random() < 0.5:
        args["destination"] = cfg.destination if cfg else rng.choice(["user", *engines])
    if rng.random() < 0.5:
        key = rng.choice(sorted(args))
        if rng.random() < 0.2:
            del args[key]
        else:
            args[key] = rng.choice(_JUNK)
    return verb, args


def test_random_commands_keep_typed_errors_and_replay():
    """Seeded commands on demo-topology sessions: no command raises, every
    error carries the code of a flip error class, and replaying the log
    gives the live state after every command. No traffic runs (ROADMAP
    item 3's traffic half)."""
    codes = {c.code for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.FlipError)}
    topology = demo_topology()
    rng = random.Random(23)
    succeeded = set()
    for _ in range(24):
        session = Session(topology)
        for _ in range(25):
            verb, args = _random_command(rng, session)
            result = session.execute(verb, args)
            if result.ok:
                succeeded.add(verb)
            else:
                assert result.code in codes, (verb, args, result)
            replayed = Session.replay(topology, session.command_log)
            assert replayed.state_json() == session.state_json(), (verb, args)
    # every verb also ran to success, not only to an error
    assert succeeded == VERB_TABLE.keys()
