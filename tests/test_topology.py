import json
import random
import tracemalloc

import pytest

from flip.errors import NotFoundError, ParseError, ValidationError
from flip import topology
from flip.control import Session
from flip.harness import DATA_DIR, build_experiment_topology, demo_topology, request_texts
from flip.topology import (
    _LETTERS_DIGITS,
    Link,
    NodeKind,
    Topology,
    _rank_key,
    load_topology,
    load_topology_file,
    natural_key,
)

from _oracles import enumerate_shortest_path, heap_shortest_paths_from, random_connected_graph

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


def test_link_endpoint_that_is_not_an_id_is_parse_error():
    doc = {
        "nodes": [{"id": "sw1", "kind": "switch"}, {"id": "sw2", "kind": "switch"}],
        "links": [{"a": ["sw1"], "b": "sw2"}],
    }
    with pytest.raises(ParseError, match="link endpoints"):
        load_topology(doc)


def test_unknown_kind_is_parse_error():
    doc = {"nodes": [{"id": "sw1", "kind": "router"}], "links": []}
    with pytest.raises(ParseError):
        load_topology(doc)


SW1 = {"id": "sw1", "kind": "switch"}
SW2 = {"id": "sw2", "kind": "switch"}


def _load(nodes, links=()):
    return lambda tmp_path: load_topology({"nodes": list(nodes), "links": list(links)})


def _query(name, *args):
    return lambda tmp_path: getattr(load_topology(MINIMAL), name)(*args)


def _load_file(text):
    def call(tmp_path):
        path = tmp_path / "topology.json"
        path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
        return load_topology_file(path)

    return call


TYPED_ERRORS = {
    # the graph
    "self-link": (_load([SW1], [{"a": "sw1", "b": "sw1"}]), ValidationError, "self-link on 'sw1'"),
    "duplicate-link": (
        _load([SW1, SW2], [{"a": "sw1", "b": "sw2"}, {"a": "sw2", "b": "sw1"}]),
        ValidationError,
        "duplicate link sw2-sw1",
    ),
    "no-nodes": (_load([]), ValidationError, "topology has no nodes"),
    "base-station-on-a-host": (
        _load(
            [{"id": "bs1", "kind": "basestation"}, {"id": "user", "kind": "destination"}],
            [{"a": "bs1", "b": "user"}],
        ),
        ValidationError,
        "basestation 'bs1' must attach to a switch",
    ),
    "two-engines": (
        _load(
            [SW1, {"id": "e1", "kind": "engine"}, {"id": "e2", "kind": "engine"}],
            [{"a": "e1", "b": "sw1"}, {"a": "e2", "b": "sw1"}],
        ),
        ValidationError,
        "switch 'sw1' has multiple engines: ['e1', 'e2']",
    ),
    # the loader
    "document-not-an-object": (lambda tmp_path: load_topology([SW1]), ParseError, "must be an object"),
    "nodes-not-a-list": (
        lambda tmp_path: load_topology({"nodes": {"sw1": "switch"}, "links": []}),
        ParseError,
        "needs 'nodes' and 'links' lists",
    ),
    "links-not-a-list": (
        lambda tmp_path: load_topology({"nodes": [SW1], "links": {}}),
        ParseError,
        "needs 'nodes' and 'links' lists",
    ),
    "entry-not-an-object": (_load(["sw1"]), ParseError, "node entry must be an object, got 'sw1'"),
    "range-on-a-switch": (
        _load([{"range": "sw1:sw3", "kind": "switch"}]),
        ParseError,
        "range entries are only for base stations",
    ),
    "range-without-switch": (
        _load([SW1, {"range": "bs1:bs3", "kind": "basestation"}]),
        ParseError,
        "range entry 'bs1:bs3' needs a 'switch'",
    ),
    "malformed-range": (
        _load([SW1, {"range": "bs1:x3", "kind": "basestation", "switch": "sw1"}]),
        ParseError,
        "malformed range 'bs1:x3'",
    ),
    "entry-without-id-or-range": (_load([{"kind": "switch"}]), ParseError, "needs 'id' or 'range'"),
    "link-without-b": (_load([SW1, SW2], [{"a": "sw1"}]), ParseError, "link entry needs 'a' and 'b'"),
    "file-not-json": (_load_file("not json\n"), ParseError, "topology.json: Expecting value"),
    "file-not-utf8": (_load_file(b"\xd0\xcf\x11\xe0"), ParseError, "topology.json: 'utf-8' codec can't decode"),
    "file-int-too-long": (_load_file(f'{{"n": {"1" * 5000}}}'), ParseError, "topology.json: Exceeds the limit"),
    # the queries
    "neighbors-unknown": (_query("neighbors", "sw9"), NotFoundError, "unknown node 'sw9'"),
    "link-delay-unknown": (_query("link_delay", "sw9", "sw1"), NotFoundError, "no link sw9-sw1"),
    "shortest-paths-unknown": (_query("shortest_paths_from", "sw9"), NotFoundError, "unknown node 'sw9'"),
    "engine-of-a-station": (_query("engine_of", "bs1"), NotFoundError, "'bs1' is not a switch"),
    "engine-of-a-bare-switch": (
        lambda tmp_path: load_topology({"nodes": [SW1], "links": []}).engine_of("sw1"),
        NotFoundError,
        "switch 'sw1' has no engine",
    ),
    "adjacent-switch-of-a-station": (
        _query("adjacent_switch", "bs1", set()),
        NotFoundError,
        "'bs1' is not a switch",
    ),
}


@pytest.mark.parametrize("call, error, fragment", TYPED_ERRORS.values(), ids=TYPED_ERRORS)
def test_bad_input_raises_its_typed_error(tmp_path, call, error, fragment):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert fragment in str(info.value)


BAD_DELAYS = [float("nan"), float("inf"), -1, "2", True, [1], 10**400]


@pytest.mark.parametrize(
    "delay", BAD_DELAYS, ids=["nan", "infinity", "negative", "string", "bool", "list", "huge-int"]
)
@pytest.mark.parametrize("form", ["link", "range"])
def test_bad_link_delay_is_rejected_naming_the_link(form, delay):
    """A delay must be a finite, non-negative int or float: NaN made every
    path through the link weigh 0.0 in admission, a string or bool was
    converted, and a list raised a raw TypeError."""
    nodes = [{"id": "sw1", "kind": "switch"}, {"id": "sw2", "kind": "switch"}]
    links = [{"a": "sw1", "b": "sw2", "delay_ms": delay}]
    label = "sw1-sw2"
    if form == "range":
        nodes.append({"range": "bs1:bs3", "kind": "basestation", "switch": "sw1", "delay_ms": delay})
        links = [{"a": "sw1", "b": "sw2"}]
        label = "bs1-sw1"
    with pytest.raises(ValidationError, match=f"link {label} "):
        load_topology({"nodes": nodes, "links": links})


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
    assert t.connected_switch("e-sw2") == "sw2"
    # the destination has one link too, but is not a base station or engine
    for node in ("sw1", "user", "nope"):
        with pytest.raises(NotFoundError):
            t.connected_switch(node)
    # the cloud host of the experiment topology, also one link
    with pytest.raises(NotFoundError):
        build_experiment_topology().connected_switch("cloud")


def test_attachments_hold_each_base_station_and_engine():
    """(switch, link delay, is engine, link) for every base station and
    engine and nothing else, read-only, built once per topology."""
    t = build_experiment_topology()
    attached = [n for kind in (NodeKind.BASE_STATION, NodeKind.ENGINE) for n in t.nodes_of_kind(kind)]
    assert sorted(t.attachments) == sorted(attached)
    for n in attached:
        switch, delay, is_engine, _ = t.attachments[n]
        assert switch == t.connected_switch(n)
        assert (delay, is_engine) == (t.link_delay(n, switch), t.kind(n) is NodeKind.ENGINE)
    assert t.attachments is t.attachments
    with pytest.raises(TypeError):
        t.attachments["bs1"] = ("sw2", 0.0, False, Link("bs1", "sw2", 0.0))


def test_station_links_hold_each_base_station_with_its_link_in_string_order():
    """The link an attachment carries is the topology's own with a <= b; one
    written switch first, or to a switch named before the station, comes
    out as a new link turned round."""
    nodes = {"sw1": NodeKind.SWITCH, "a1": NodeKind.SWITCH, "e-sw1": NodeKind.ENGINE}
    nodes |= {name: NodeKind.BASE_STATION for name in ("bs1", "bs2", "zz")}
    links = [Link("sw1", "a1", 1.0), Link("e-sw1", "sw1", 0.0), Link("bs1", "sw1", 0.5)]
    links += [Link("sw1", "bs2", 0.25), Link("zz", "a1", 2.0)]
    small = Topology(nodes, links)
    assert dict(small.attachments) == {
        "e-sw1": ("sw1", 0.0, True, Link("e-sw1", "sw1", 0.0)),
        "bs1": ("sw1", 0.5, False, Link("bs1", "sw1", 0.5)),
        "bs2": ("sw1", 0.25, False, Link("bs2", "sw1", 0.25)),
        "zz": ("a1", 2.0, False, Link("a1", "zz", 2.0)),
    }
    for t in (small, build_experiment_topology()):
        for n, (switch, delay, _, link) in t.attachments.items():
            own = t._links[Link(n, switch, delay).key()]
            if own.a <= own.b:
                assert link is own
            else:
                assert link == Link(own.b, own.a, own.delay_ms)


@pytest.mark.parametrize("doc", ["demo_topology.json", "experiment_topology.json", "wide"])
def test_rank_is_the_natural_order_of_every_node(doc):
    if doc == "wide":
        doc = wide_fabric_doc(stations_per_edge=50)
    else:
        doc = json.loads((DATA_DIR / doc).read_text(encoding="utf-8"))
    t = load_topology(doc)
    every = [n for kind in NodeKind for n in t.nodes_of_kind(kind)]
    assert sorted(t.rank, key=t.rank.__getitem__) == sorted(every, key=natural_key)
    ranked = sorted(t.rank, key=t.rank.__getitem__)
    for kind in NodeKind:
        assert t.nodes_of_kind(kind) == [n for n in ranked if t.kind(n) is kind]
    assert sorted(t.rank.values()) == list(range(t.node_count()))
    assert t.rank is t.rank
    with pytest.raises(TypeError):
        t.rank["user"] = 0


def test_rank_orders_names_with_equal_natural_keys_by_name():
    nodes = {"sw1": NodeKind.SWITCH, "bs1": NodeKind.BASE_STATION, "bs01": NodeKind.BASE_STATION}
    t = Topology(nodes, [Link("bs1", "sw1", 1.0), Link("bs01", "sw1", 1.0)])
    assert sorted(t.rank, key=t.rank.__getitem__) == ["bs01", "bs1", "sw1"]
    assert t.nodes_of_kind(NodeKind.BASE_STATION) == ["bs01", "bs1"]


def random_node_id(rng: random.Random) -> str:
    """A node id of letter runs, digit runs (leading zeros included), "-"
    and "_", starting with a letter."""
    parts = [rng.choice("abeswAZ")]
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.4:
            parts.append("".join(rng.choice("0123456789") for _ in range(rng.randint(1, 3))))
        elif roll < 0.8:
            parts.append("".join(rng.choice("abswzAZ") for _ in range(rng.randint(1, 3))))
        else:
            parts.append(rng.choice("-_"))
    return "".join(parts)


def test_rank_key_is_natural_key_then_name():
    """`_rank_key`'s fast path for letters-then-digits names gives the key
    `natural_key` gives, over seeded random ids and the shapes that tie."""
    rng = random.Random(21)
    names = [random_node_id(rng) for _ in range(3000)]
    names += ["bs01", "bs1", "bs001", "bs10", "bs9", "user", "cloud", "e-sw1", "e_sw01", "a1b2", "a01b2", "a1b02", "x-", "x_1", "x-1"]
    for name in names:
        assert _rank_key(name) == (natural_key(name), name), name
    assert sorted(names, key=_rank_key) == sorted(names, key=lambda n: (natural_key(n), n))
    assert sum(1 for n in names if _LETTERS_DIGITS.fullmatch(n)) > 500


def test_rank_splits_only_names_that_are_not_letters_then_digits(monkeypatch):
    """A fresh topology's load and first admission call `natural_key`
    for at most the names the fast path does not cover: "user" and
    "cloud" on the experiment topology, no more on the 800-station one."""
    calls = []

    def counted(name):
        calls.append(name)
        return natural_key(name)

    monkeypatch.setattr(topology, "natural_key", counted)
    experiment = load_topology_file(DATA_DIR / "experiment_topology.json")
    assert Session(experiment).execute("datapath_a", {"request": request_texts()[0]}).ok
    assert len(calls) <= 2, calls
    at_experiment = len(calls)
    del calls[:]
    wide = load_topology(wide_fabric_doc(stations_per_edge=50))
    assert wide.node_count() > 800
    assert Session(wide).execute("datapath_a", {"request": "datapath_a(sum(bs1:bs400),destination<-user)"}).ok
    assert len(calls) <= at_experiment, calls


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
    dist, path = t.shortest_paths_from("bs1")
    assert path["bs1"] == ("bs1",)
    assert dist["bs1"] == 0.0


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
    dist, path = t.shortest_paths_from("a")
    assert path["b"] == ("a", "m", "b")
    assert dist["b"] == 3.0


def test_shortest_path_matches_enumeration():
    rng = random.Random(7)
    for _ in range(20):
        adj = random_connected_graph(rng, 8, extra_edges=5)
        t = adj_topology(adj)
        nodes = sorted(adj)
        for _ in range(6):
            a, b = rng.sample(nodes, 2)
            delay, path = enumerate_shortest_path(adj, a, b)
            got_delay, got_path = t.shortest_paths_from(a)
            assert got_delay[b] == delay
            assert got_path[b] == path


def test_shortest_path_symmetric_delay():
    rng = random.Random(11)
    for _ in range(10):
        adj = random_connected_graph(rng, 8, extra_edges=4)
        t = adj_topology(adj)
        nodes = sorted(adj)
        a, b = rng.sample(nodes, 2)
        assert t.shortest_paths_from(a)[0][b] == t.shortest_paths_from(b)[0][a]


def test_every_basestation_has_switch():
    t = build_experiment_topology()
    for bs in t.nodes_of_kind(NodeKind.BASE_STATION):
        assert t.kind(t.connected_switch(bs)) is NodeKind.SWITCH


# -- shortest paths against the heap over every node ----------------------------

# zero delays and tied fractional sums (0.1 + 0.2 is not 0.3 as a float)
DELAYS = (0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5)


def random_pendant_topology(rng: random.Random) -> Topology:
    """Switches on a random connected graph, each with base stations and
    maybe an engine; a one-link destination and sometimes a cloud host
    with one or two links."""
    switches = [f"sw{i}" for i in range(1, rng.randint(1, 7) + 1)]
    nodes = {s: NodeKind.SWITCH for s in switches}
    links = []
    for i, s in enumerate(switches[1:], 1):
        links.append(Link(s, rng.choice(switches[:i]), rng.choice(DELAYS)))
    pairs = [(u, v) for i, u in enumerate(switches) for v in switches[i + 1 :]]
    linked = {link.key() for link in links}
    for u, v in rng.sample(pairs, min(len(pairs), rng.randint(0, 4))):
        if (u, v) not in linked:
            links.append(Link(u, v, rng.choice(DELAYS)))
    station = 0
    for s in switches:
        if rng.random() < 0.5:
            nodes[f"e-{s}"] = NodeKind.ENGINE
            links.append(Link(f"e-{s}", s, rng.choice((0.0, 0.5))))
        for _ in range(rng.randint(0, 4)):
            station += 1
            nodes[f"bs{station}"] = NodeKind.BASE_STATION
            links.append(Link(f"bs{station}", s, rng.choice(DELAYS)))
    nodes["user"] = NodeKind.DESTINATION
    links.append(Link("user", rng.choice(switches), rng.choice(DELAYS)))
    if rng.random() < 0.5:
        nodes["cloud"] = NodeKind.CLOUD
        for s in rng.sample(switches, min(len(switches), rng.randint(1, 2))):
            links.append(Link("cloud", s, rng.choice(DELAYS)))
    return Topology(nodes, links)


def wide_fabric_doc(stations_per_edge: int) -> dict:
    """The wide_fanin fabric's shape: 16 edge switches with base stations,
    4 aggregation switches, 2 core switches, an engine per switch and the
    user, with seeded two-decimal delays."""
    rng = random.Random("wide-fabric")
    edge = [f"sw{i}" for i in range(1, 17)]
    agg = [f"sw{i}" for i in range(17, 21)]
    core = ["sw21", "sw22"]
    nodes = [{"id": s, "kind": "switch"} for s in edge + agg + core]
    nodes += [{"id": f"e-{s}", "kind": "engine"} for s in edge + agg + core]
    nodes.append({"id": "user", "kind": "destination"})
    links = [{"a": f"e-{s}", "b": s} for s in edge + agg + core]
    for k, s in enumerate(edge):
        lo = k * stations_per_edge + 1
        nodes.append({"range": f"bs{lo}:bs{lo + stations_per_edge - 1}", "kind": "basestation", "switch": s})
        links.append({"a": s, "b": agg[k // 4], "delay_ms": round(rng.uniform(1, 2), 2)})
        if k % 2:
            links.append({"a": edge[k - 1], "b": s, "delay_ms": round(rng.uniform(3, 4), 2)})
    for k, s in enumerate(agg):
        links.append({"a": s, "b": core[k // 2], "delay_ms": round(rng.uniform(1, 2), 2)})
    links += [{"a": "sw21", "b": "sw22", "delay_ms": 1}, {"a": "user", "b": "sw22", "delay_ms": 1}]
    return {"nodes": nodes, "links": links}


def assert_maps_match_the_heap_over_every_node(t: Topology) -> int:
    """Compare the maps from every source with the oracle's, to the last
    bit; returns the number of (source, target) pairs compared."""
    pairs = 0
    for source in [n for kind in NodeKind for n in t.nodes_of_kind(kind)]:
        dist, path = t.shortest_paths_from(source)
        want_dist, want_path = heap_shortest_paths_from(t, source)
        for got, want in ((dist, want_dist), (path, want_path)):
            assert set(got) == set(want) == set(got.keys())
            assert len(got) == len(want) == t.node_count()
        for target, delay in want_dist.items():
            assert target in dist and target in path
            assert dist[target].hex() == delay.hex(), (source, target)
            assert path[target] == want_path[target], (source, target)
            pairs += 1
    return pairs


def test_shortest_paths_match_the_heap_over_every_node_on_random_pendant_graphs():
    rng = random.Random(12)
    pairs = 0
    for _ in range(300):
        pairs += assert_maps_match_the_heap_over_every_node(random_pendant_topology(rng))
    assert pairs > 50_000


@pytest.mark.parametrize(
    "doc",
    [
        {"nodes": [{"id": "sw1", "kind": "switch"}], "links": []},
        {
            "nodes": [{"id": "bs1", "kind": "basestation"}, {"id": "sw1", "kind": "switch"}],
            "links": [{"a": "bs1", "b": "sw1", "delay_ms": 0.3}],
        },
        {
            "nodes": [{"id": "sw1", "kind": "switch"}, {"id": "sw2", "kind": "switch"}],
            "links": [{"a": "sw1", "b": "sw2", "delay_ms": 0}],
        },
        "demo_topology.json",
        "experiment_topology.json",
        wide_fabric_doc(stations_per_edge=8),
    ],
    ids=["one-node", "two-node-station", "two-node-switches", "demo", "experiment", "wide"],
)
def test_shortest_paths_match_the_heap_over_every_node(doc):
    if isinstance(doc, str):
        doc = json.loads((DATA_DIR / doc).read_text(encoding="utf-8"))
    t = load_topology(doc)
    assert assert_maps_match_the_heap_over_every_node(t) == t.node_count() ** 2


def test_shortest_path_maps_are_read_only():
    t = demo_topology()
    for source in ("bs1", "sw1", "user"):
        dist, path = t.shortest_paths_from(source)
        for m, value in ((dist, 0.0), (path, ("bs1",))):
            with pytest.raises(TypeError):
                m["bs2"] = value
            with pytest.raises(TypeError):
                del m["bs2"]
            with pytest.raises(KeyError):
                m["nope"]
            assert "nope" not in m
    # the cache hands out the same maps, unchanged
    assert t.shortest_paths_from("bs1")[0]["bs2"] == 2.0


def test_warm_shortest_paths_from_every_node_retain_little_memory():
    """Maps from all 1,069 nodes of a 1,024-station fabric; a heap over
    every node kept a path tuple per (source, target) pair, over 100 MB."""
    t = load_topology(wide_fabric_doc(stations_per_edge=64))
    every = [n for kind in NodeKind for n in t.nodes_of_kind(kind)]
    assert len(every) == 1069 and len(t.nodes_of_kind(NodeKind.BASE_STATION)) == 1024
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for node in every:
            t.shortest_paths_from(node)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 8 * 2**20, f"{retained / 2**20:.1f} MB"
