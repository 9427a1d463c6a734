import csv
import json
import random

import pytest

from flip import dsl, harness
from flip.dsl import OpKind, parse_request
from flip.errors import AuditFailure
from flip.harness import (
    Workload,
    build_experiment_topology,
    evaluate_expression,
    export_report,
    requests_r1_r9,
    run_comparison,
    run_suite,
)
from flip.topology import NodeKind, load_topology, load_topology_file


@pytest.fixture(scope="module")
def bench():
    return build_experiment_topology()


@pytest.fixture(scope="module")
def quick_report(bench):
    return run_suite(seed=0, workload=Workload(seed=0, horizon_ms=1000.0), topology=bench)


def test_experiment_topology_counts(bench):
    assert len(bench.switches()) == 12
    assert len(bench.nodes_of_kind(NodeKind.ENGINE)) == 12
    assert len(bench.nodes_of_kind(NodeKind.BASE_STATION)) == 78
    assert bench.nodes_of_kind(NodeKind.DESTINATION) == ["user"]
    assert bench.nodes_of_kind(NodeKind.CLOUD) == ["cloud"]


def test_every_bs_has_one_switch(bench):
    for bs in bench.nodes_of_kind(NodeKind.BASE_STATION):
        neighbors = bench.neighbors(bs)
        assert len(neighbors) == 1
        (sw,) = neighbors
        assert bench.kind(sw) is NodeKind.SWITCH


def test_shipped_data_files_load():
    for name in ("demo_topology.json", "experiment_topology.json"):
        load_topology_file(harness.DATA_DIR / name)
    requests = requests_r1_r9()
    assert len(requests) == 9
    for req in requests:
        assert req.mode is dsl.RequestMode.AUTOMATED
        assert req.destination == "user"


def test_shipped_topology_files_match_builders():
    for path, builder in (
        ("data/demo_topology.json", harness.demo_topology),
        ("data/experiment_topology.json", build_experiment_topology),
    ):
        with open(path, encoding="utf-8") as fh:
            shipped = load_topology(json.load(fh))
        built = builder()
        for kind in NodeKind:
            assert shipped.nodes_of_kind(kind) == built.nodes_of_kind(kind)
        assert sorted((l.key(), l.delay_ms) for l in shipped.links()) == sorted(
            (l.key(), l.delay_ms) for l in built.links()
        )


def test_shipped_request_script_matches():
    with open("data/requests_r1r9.flip", encoding="utf-8") as fh:
        lines = [l.strip() for l in fh if l.strip() and not l.startswith("#")]
    assert lines == harness.request_texts()


def test_requests_parse_and_shapes():
    reqs = requests_r1_r9()
    assert len(reqs) == 9
    t = build_experiment_topology()
    r1 = dsl.expand_sources(reqs[0], t)
    assert r1.op_count() == 1
    assert r1.root.kind is OpKind.MAX
    assert len(r1.leaves()) == 10
    r9 = dsl.expand_sources(reqs[8], t)
    assert r9.op_count() == 7
    kinds = [op.kind for op in r9.ops()]
    assert kinds == [
        OpKind.MAX,
        OpKind.AVG,
        OpKind.AVG,
        OpKind.MAX,
        OpKind.MIN,
        OpKind.MIN,
        OpKind.MAX,
    ]


def test_workload_is_deterministic():
    w1 = Workload(seed=13, horizon_ms=500.0)
    w2 = Workload(seed=13, horizon_ms=500.0)
    assert w1.samples(["bs1", "bs2"]) == w2.samples(["bs1", "bs2"])
    assert Workload(seed=14).samples(["bs1"]) != Workload(seed=13).samples(["bs1"])


def test_evaluate_expression_matches_hand_value(bench):
    tg = dsl.expand_sources(
        parse_request("datapath_a(sum(avg(bs1:bs2),max(bs3,bs4)),destination<-user)"), bench
    )
    values = {"bs1": 1.0, "bs2": 3.0, "bs3": 5.0, "bs4": 2.0}
    assert evaluate_expression(tg, values) == (1.0 + 3.0) / 2 + 5.0


def test_r1_closed_form_hop_counts(bench):
    req = requests_r1_r9()[0]
    w = Workload(seed=0, horizon_ms=1000.0)
    row = run_comparison(bench, req, w, label="R1")
    epochs = w.epochs()
    tg = dsl.expand_sources(req, bench)
    # baseline: every source packet visits every switch on its path
    expected_base = 0
    for leaf in tg.leaves():
        path, _ = bench.shortest_path(leaf, "user")
        expected_base += epochs * sum(1 for n in path if bench.kind(n) is NodeKind.SWITCH)
    assert row.baseline_total_hops == expected_base
    # engine-assisted: raw packets stop at sw1, one aggregate per epoch goes on
    raw = len(tg.leaves()) * epochs
    aggregate_path = ["sw9", "sw11", "sw12"]
    assert row.flip_total_hops == raw + epochs * len(aggregate_path)


def test_single_adjacent_source_reduction_is_zero():
    doc = {
        "nodes": [
            {"id": "bs1", "kind": "basestation"},
            {"id": "sw1", "kind": "switch"},
            {"id": "e-sw1", "kind": "engine"},
            {"id": "user", "kind": "destination"},
        ],
        "links": [
            {"a": "bs1", "b": "sw1"},
            {"a": "e-sw1", "b": "sw1"},
            {"a": "user", "b": "sw1"},
        ],
    }
    t = load_topology(doc)
    req = parse_request("datapath_a(max(bs1),destination<-user)")
    row = run_comparison(t, req, Workload(seed=1, horizon_ms=500.0))
    assert row.reduction_pct == 0.0
    assert row.flip_total_hops == row.baseline_total_hops


def test_suite_reductions_within_band(quick_report):
    assert len(quick_report.rows) == 9
    for row in quick_report.rows:
        assert 40.0 <= row.reduction_pct <= 80.0, row.label
        assert row.audit_ok


def test_non_edge_switches_never_exceed_baseline(quick_report):
    for row in quick_report.rows:
        for sw, flip_count in row.per_switch_flip.items():
            if sw in row.edge_switches:
                continue
            assert flip_count <= row.per_switch_baseline.get(sw, 0), (row.label, sw)


def test_edge_switch_counts_match_baseline(quick_report):
    # with the destination filter, edge switches carry identical raw load
    for row in quick_report.rows:
        for sw in row.edge_switches:
            assert row.per_switch_flip[sw] == row.per_switch_baseline[sw]


def test_same_seed_identical_report_bytes(bench):
    w = Workload(seed=21, horizon_ms=500.0)
    a = run_suite(seed=21, workload=w, topology=bench).to_json()
    b = run_suite(seed=21, workload=w, topology=bench).to_json()
    assert a == b


def test_audit_catches_tampered_values(bench):
    req = requests_r1_r9()[0]
    w = Workload(seed=2, horizon_ms=300.0)
    plan, fabric, samples = harness.run_flip(bench, req, w)
    tg = dsl.expand_sources(req, bench)
    fabric.delivered[0]["payload"]["scalar"] += 1.0
    with pytest.raises(AuditFailure):
        harness.audit_delivered(tg, fabric, samples, "user", w.epochs())


def test_export_report_files(tmp_path, quick_report):
    paths = export_report(quick_report, tmp_path)
    with open(paths["switch_counts"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["switch", "flip_count", "baseline_count"]
    assert len(rows) == 13  # header + 12 switches
    with open(paths["request_totals"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["request", "flip_total_hops", "baseline_total_hops", "reduction_pct"]
    assert len(rows) == 10  # header + 9 requests
    # reduction column recomputes exactly from the totals
    for label, flip_hops, base_hops, reduction in rows[1:]:
        recomputed = 100.0 * (1.0 - int(flip_hops) / int(base_hops))
        assert float(reduction) == recomputed
    summary = json.loads(paths["summary"].read_text())
    assert summary["audit_ok"] is True
    assert len(summary["rows"]) == 9


def test_oracle_equivalence_randomized(bench):
    # random short workloads across the nine requests
    reqs = requests_r1_r9()
    rng = random.Random(99)
    for i in range(12):
        req = reqs[i % len(reqs)]
        w = Workload(
            seed=rng.randint(0, 10_000),
            horizon_ms=rng.choice([200.0, 300.0, 400.0]),
        )
        row = run_comparison(bench, req, w, label=f"case{i}")
        assert row.audit_ok
        assert row.delivered_epochs == w.epochs()
