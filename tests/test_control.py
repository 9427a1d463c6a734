import json
import threading
from pathlib import Path

import pytest

from flip import harness
from flip.cli import main as cli_main
from flip.control import CommandServer, Session, send_command
from flip.harness import build_experiment_topology, demo_topology

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


def test_config_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("FLIP_CONFIG_DIR", str(tmp_path))
    session = Session(demo_topology())
    session.execute(
        "setconfig/user",
        {
            "engine": "e-sw1",
            "user": "u",
            "config": {"compute": "sum", "source": ["bs1"], "destination": "user"},
        },
    )
    assert (tmp_path / "engine_configs.json").exists()


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


def test_cli_bench_writes_report(tmp_path):
    out = tmp_path / "report"
    code = cli_main(
        ["bench", "--suite", "r1r9", "--seed", "1", "--horizon-ms", "300", "--out", str(out)]
    )
    assert code == 0
    assert (out / "switch_counts.csv").exists()
    assert (out / "request_totals.csv").exists()
    assert (out / "summary.json").exists()


def test_cli_writes_engine_config_file(tmp_path, monkeypatch):
    monkeypatch.delenv("FLIP_CONFIG_DIR", raising=False)
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


def test_cli_config_file_follows_the_log(tmp_path, monkeypatch):
    monkeypatch.delenv("FLIP_CONFIG_DIR", raising=False)
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
