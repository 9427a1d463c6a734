import json
import random

import pytest

from flip.errors import NotFoundError, ParseError, ValidationError
from flip.harness import DATA_DIR, build_experiment_topology, demo_topology
from flip.topology import NodeKind, Topology, load_topology

from _oracles import enumerate_shortest_path, random_connected_graph

MINIMAL = {
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


def adj_topology(adj):
    """Wrap a plain adjacency dict as a switch-only Topology."""
    nodes = {n: NodeKind.SWITCH for n in adj}
    from flip.topology import Link

    links = []
    seen = set()
    for u, nbs in adj.items():
        for v, w in nbs.items():
            if (min(u, v), max(u, v)) not in seen:
                seen.add((min(u, v), max(u, v)))
                links.append(Link(u, v, w))
    return Topology(nodes, links)


def test_load_demo_document_counts():
    doc = json.loads((DATA_DIR / "demo_topology.json").read_text(encoding="utf-8"))
    t = load_topology(doc)
    assert len(t.nodes_of_kind(NodeKind.BASE_STATION)) == 300
    assert len(t.switches()) == 5
    assert len(t.nodes_of_kind(NodeKind.ENGINE)) == 5
    assert t.nodes_of_kind(NodeKind.DESTINATION) == ["user"]


def test_load_minimal_topology():
    t = load_topology(MINIMAL)
    assert t.node_count() == 4
    assert t.connected_switch("bs1") == "sw1"


def test_dangling_link_rejected():
    doc = {
        "nodes": [{"id": "sw1", "kind": "switch"}],
        "links": [{"a": "sw1", "b": "sw9"}],
    }
    with pytest.raises(ValidationError):
        load_topology(doc)


def test_duplicate_id_rejected():
    doc = {
        "nodes": [{"id": "sw1", "kind": "switch"}, {"id": "sw1", "kind": "switch"}],
        "links": [],
    }
    with pytest.raises(ValidationError):
        load_topology(doc)


def test_disconnected_rejected():
    doc = {
        "nodes": [{"id": "sw1", "kind": "switch"}, {"id": "sw2", "kind": "switch"}],
        "links": [],
    }
    with pytest.raises(ValidationError):
        load_topology(doc)


def test_bad_node_id_rejected():
    doc = {"nodes": [{"id": "1sw", "kind": "switch"}], "links": []}
    with pytest.raises(ValidationError):
        load_topology(doc)


def test_unknown_kind_is_parse_error():
    doc = {"nodes": [{"id": "sw1", "kind": "router"}], "links": []}
    with pytest.raises(ParseError):
        load_topology(doc)


def test_engine_link_defaults_to_zero_delay():
    t = load_topology(MINIMAL)
    assert t.link_delay("e-sw1", "sw1") == 0.0
    assert t.link_delay("bs1", "sw1") == 1.0


def test_basestation_with_two_switches_rejected():
    doc = {
        "nodes": [
            {"id": "bs1", "kind": "basestation"},
            {"id": "sw1", "kind": "switch"},
            {"id": "sw2", "kind": "switch"},
        ],
        "links": [
            {"a": "bs1", "b": "sw1"},
            {"a": "bs1", "b": "sw2"},
            {"a": "sw1", "b": "sw2"},
        ],
    }
    with pytest.raises(ValidationError):
        load_topology(doc)


def test_connected_switch_demo_and_experiment():
    demo = demo_topology()
    assert demo.connected_switch("bs1") == "sw1"
    assert demo.connected_switch("bs150") == "sw3"
    exp = build_experiment_topology()
    # read back from the authored benchmark wiring
    assert exp.connected_switch("bs45") == "sw5"
    assert exp.connected_switch("bs78") == "sw9"


def test_connected_switch_rejects_switches():
    t = demo_topology()
    with pytest.raises(NotFoundError):
        t.connected_switch("sw1")


def test_adjacent_switch_picks_min_delay():
    t = demo_topology()
    # sw4 borders sw5 (1 ms) and sw1 (2 ms)
    assert t.adjacent_switch("sw4", set()) == "sw5"


def test_adjacent_switch_brute_force_agrees():
    t = demo_topology()
    for sw in t.switches():
        cands = [
            (w, nb)
            for nb, w in t.neighbors(sw).items()
            if t.kind(nb) is NodeKind.SWITCH
        ]
        assert t.adjacent_switch(sw, set()) == min(cands)[1]


def test_adjacent_switch_no_candidates():
    doc = {
        "nodes": [
            {"id": "sw1", "kind": "switch"},
            {"id": "bs1", "kind": "basestation"},
        ],
        "links": [{"a": "bs1", "b": "sw1"}],
    }
    t = load_topology(doc)
    with pytest.raises(NotFoundError):
        t.adjacent_switch("sw1", set())


def test_adjacent_switch_visited_exhausts():
    t = demo_topology()
    neighbors = {n for n in t.neighbors("sw3") if t.kind(n) is NodeKind.SWITCH}
    with pytest.raises(NotFoundError):
        t.adjacent_switch("sw3", neighbors)


def test_adjacent_switch_is_pure():
    t = demo_topology()
    first = t.adjacent_switch("sw3", {"sw1"})
    for _ in range(5):
        assert t.adjacent_switch("sw3", {"sw1"}) == first


def test_shortest_path_identity():
    t = load_topology(MINIMAL)
    assert t.shortest_path("bs1", "bs1") == (["bs1"], 0.0)


def test_shortest_path_three_node_line():
    doc = {
        "nodes": [
            {"id": "a", "kind": "switch"},
            {"id": "m", "kind": "switch"},
            {"id": "b", "kind": "switch"},
        ],
        "links": [
            {"a": "a", "b": "m", "delay_ms": 1},
            {"a": "m", "b": "b", "delay_ms": 2},
        ],
    }
    t = load_topology(doc)
    assert t.shortest_path("a", "b") == (["a", "m", "b"], 3.0)


def test_shortest_path_matches_enumeration():
    rng = random.Random(7)
    for _ in range(20):
        adj = random_connected_graph(rng, 8, extra_edges=5)
        t = adj_topology(adj)
        nodes = sorted(adj)
        for _ in range(6):
            a, b = rng.sample(nodes, 2)
            delay, path = enumerate_shortest_path(adj, a, b)
            got_path, got_delay = t.shortest_path(a, b)
            assert got_delay == delay
            assert tuple(got_path) == path


def test_shortest_path_symmetric_delay():
    rng = random.Random(11)
    for _ in range(10):
        adj = random_connected_graph(rng, 8, extra_edges=4)
        t = adj_topology(adj)
        nodes = sorted(adj)
        a, b = rng.sample(nodes, 2)
        assert t.shortest_path(a, b)[1] == t.shortest_path(b, a)[1]


def test_every_basestation_has_switch():
    t = build_experiment_topology()
    for bs in t.nodes_of_kind(NodeKind.BASE_STATION):
        assert t.kind(t.connected_switch(bs)) is NodeKind.SWITCH
