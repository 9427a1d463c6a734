"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
import time

import pytest

from flip import dsl, harness
from flip.control import Session
from flip.dsl import OpKind, parse_request
from flip.epb import ConfigStore, Engine, EngineConfig
from flip.harness import Workload, build_experiment_topology, demo_topology, requests_r1_r9
from flip.packets import PacketRecord, Scalar
from flip.planner import plan, steiner_tree
from flip.topology import load_topology

from _oracles import random_connected_graph, steiner_optimum
from test_topology import adj_topology

EQ1 = (
    "datapath_a(max(avg(bs1:bs10),avg(bs11:bs100),"
    "max(min(bs101:bs200),min(bs201:bs300))),destination<-user)"
)


def test_criterion_1_steiner_quality():
    started = time.monotonic()
    rng = random.Random(1234)
    checked = 0
    while checked < 100:
        n = rng.randint(5, 9)
        adj = random_connected_graph(rng, n, extra_edges=rng.randint(1, 6), max_delay=5)
        terminals = set(rng.sample(sorted(adj), rng.randint(3, min(5, n))))
        t = adj_topology(adj)
        tree = steiner_tree(t, terminals)
        opt = steiner_optimum(adj, terminals)
        bound = (2.0 - 2.0 / len(terminals)) * opt
        assert opt - 1e-9 <= tree.weight <= bound + 1e-9, (adj, terminals)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        f"\n[PASS] criterion 1: steiner weight within [OPT, (2-2/t)*OPT] on "
        f"{checked} random graphs in {elapsed:.1f}s"
    )


def test_criterion_2_placement_fidelity():
    expected = {
        "min1": "sw3",
        "min2": "sw4",
        "max2": "sw5",
        "avg1": "sw1",
        "avg2": "sw2",
        "max1": "sw3",
    }
    serialized = set()
    for _ in range(3):
        t = demo_topology()
        result = plan(parse_request(EQ1), t)
        got = {p.op_node: p.switch for p in result.placements}
        assert got == expected
        serialized.add(result.to_json())
    assert len(serialized) == 1
    print(
        "\n[PASS] criterion 2: placement reproduces the manual decomposition "
        "(min->sw3, min->sw4, inner max->sw5, avg->sw1, avg->sw2, root max->sw3), byte-stable"
    )


def test_criterion_3_oracle_equivalence():
    topology = build_experiment_topology()
    requests = requests_r1_r9()
    rng = random.Random(777)
    runs = 0
    for i in range(50):
        request = requests[i % len(requests)]
        workload = Workload(seed=rng.randint(0, 1_000_000), horizon_ms=300.0)
        tg = dsl.expand_sources(request, topology)
        fabric, samples = harness.simulate(topology, request, workload)
        by_epoch: dict[int, dict[str, float]] = {}
        for s in samples:
            by_epoch.setdefault(s.epoch, {})[s.source] = s.value
        delivered = fabric.delivered_at("user")
        assert len(delivered) == workload.epochs()
        has_avg = any(op.kind is OpKind.AVG for op in tg.ops())
        for record in delivered:
            got = record["payload"]["scalar"]
            want = harness.evaluate_expression(tg, by_epoch[record["epoch"]])
            if has_avg:
                assert got == pytest.approx(want, rel=1e-9)
            else:
                assert got == want
        runs += 1
    print(
        f"\n[PASS] criterion 3: delivered values equal direct evaluation on "
        f"{runs} seeded workloads over R1..R9 (exact; 1e-9 rel for avg)"
    )


def test_criterion_4_traffic_reduction():
    started = time.monotonic()
    report = harness.run_suite()  # default workload: seed 0, 100 epochs at 100 ms
    assert len(report.rows) == 9
    for row in report.rows:
        assert 40.0 <= row.reduction_pct <= 80.0, (row.label, row.reduction_pct)
        for sw, flip_count in row.per_switch_flip.items():
            if sw not in row.edge_switches:
                assert flip_count <= row.per_switch_baseline.get(sw, 0), (row.label, sw)
        assert row.audit_ok
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    reductions = ", ".join(f"{r.label}={r.reduction_pct:.1f}%" for r in report.rows)
    print(
        f"\n[PASS] criterion 4: reductions within [40, 80] "
        f"({reductions}) in {elapsed:.1f}s; non-edge switches never exceed baseline"
    )


def test_criterion_5_rate_and_jitter_semantics():
    # rate: publishing every 100 ms against a 1 s requirement
    horizon = 10_000.0
    store = ConfigStore()
    store.set_config(
        EngineConfig(
            engine="e-sw1",
            user="default",
            compute=OpKind.MAX,
            sources=("bs1",),
            destination="user",
            rate_ms=1000.0,
        )
    )
    engine = Engine("e-sw1", store)
    ts = 0.0
    while ts < horizon:
        engine.process(PacketRecord("bs1", "user", "default", 0, ts, Scalar(1.0)), now=ts)
        ts += 100.0
    passes = engine.counters["arrivals"] - engine.counters["rate_dropped"]
    import math

    expected = math.ceil(horizon / 1000.0)
    assert abs(passes - expected) <= 1

    # the same requirement driven end to end through a plan
    doc = {
        "nodes": [
            {"id": "bs1", "kind": "basestation"},
            {"id": "bs2", "kind": "basestation"},
            {"id": "sw1", "kind": "switch"},
            {"id": "e-sw1", "kind": "engine"},
            {"id": "user", "kind": "destination"},
        ],
        "links": [
            {"a": "bs1", "b": "sw1"},
            {"a": "bs2", "b": "sw1"},
            {"a": "e-sw1", "b": "sw1"},
            {"a": "user", "b": "sw1"},
        ],
    }
    t = load_topology(doc)
    req = parse_request(
        "datapath_a(sum(bs1,bs2),destination<-user,requirement<-{rate=1s})"
    )
    w = Workload(seed=5, horizon_ms=horizon, jitter_range_ms=(0.0, 3.0))
    fabric, _ = harness.simulate(t, req, w)
    delivered = fabric.delivered_at("user")
    assert abs(len(delivered) - expected) <= 1

    # jitter: 3 ms offset kept, 10 ms offset discarded
    jitter_engine = Engine("e-sw2", ConfigStore())
    jcfg = EngineConfig(
        engine="e-sw2",
        user="default",
        compute=OpKind.SUM,
        sources=("bs1", "bs2", "bs3"),
        destination="user",
        jitter_ms=5.0,
    )
    jitter_engine.store.set_config(jcfg)
    jitter_engine.process(PacketRecord("bs1", "user", "default", 0, 100.0, Scalar(1.0)), 100.0)
    jitter_engine.process(PacketRecord("bs2", "user", "default", 0, 103.0, Scalar(1.0)), 103.0)
    jitter_engine.process(PacketRecord("bs3", "user", "default", 0, 110.0, Scalar(1.0)), 110.0)
    assert jitter_engine.counters["jitter_discarded"] == 1
    assert jitter_engine.pending_arrivals() == 2  # the 3 ms offset arrival was kept alongside the leader
    print(
        f"\n[PASS] criterion 5: {passes} rate passes for ceil({horizon:g}/1000)={expected} (+-1); "
        f"jitter 5 ms keeps a 3 ms offset and discards a 10 ms offset"
    )


def test_criterion_6_delay_admission():
    t = demo_topology()
    baseline_plan = plan(parse_request(EQ1), t)
    worst = baseline_plan.worst_path_delay_ms

    session = Session(demo_topology())
    tight = session.execute(
        "datapath_a", {"request": EQ1[:-1] + f",requirement<-{{delay={worst - 1:g}ms}})"}
    )
    assert not tight.ok and tight.code == "rejected_by_delay"
    for sw in session.topology.switches():
        assert session.fabric.tables[sw].rules == []
    assert session.store.to_doc() == {}

    relaxed = session.execute(
        "datapath_a", {"request": EQ1[:-1] + f",requirement<-{{delay={worst + 1:g}ms}})"}
    )
    assert relaxed.ok
    assert relaxed.body["plan"]["admitted"] is True
    print(
        f"\n[PASS] criterion 6: delay bound {worst - 1:g} ms rejected with nothing installed; "
        f"{worst + 1:g} ms admitted (worst path {worst:g} ms)"
    )


def test_criterion_7_determinism_and_replay(tmp_path):
    # byte-identical plan serializations from identical inputs
    script = harness.request_texts()
    docs = []
    for _ in range(2):
        session = Session(build_experiment_topology())
        results = session.run_script("\n".join(script))
        assert all(r.ok for r in results)
        docs.append(
            json.dumps([r.body["plan"] for r in results], sort_keys=True, separators=(",", ":"))
        )
    assert docs[0] == docs[1]

    # byte-identical report CSVs for the same seed
    w = Workload(seed=3, horizon_ms=500.0)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    harness.export_report(harness.run_suite(workload=w), out_a)
    harness.export_report(harness.run_suite(workload=w), out_b)
    for name in ("switch_counts.csv", "request_totals.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # command-log replay reproduces fabric state
    live = Session(build_experiment_topology())
    live.run_script("\n".join(script[:4]))
    live.execute(
        "addflow",
        {
            "dpid": "sw2",
            "match": {"final_destination": "user", "sources": ["bs99x"]},
            "action": {"type": "forward", "target": "sw9"},
        },
    )
    replayed = Session.replay(build_experiment_topology(), live.command_log)
    assert replayed.state_json() == live.state_json()
    print(
        "\n[PASS] criterion 7: plans and report CSVs byte-identical across runs; "
        "command-log replay reproduces fabric state"
    )
