import json
import random
import re

import pytest

from flip import dsl
from flip.control import Session
from flip.dataplane import Fabric
from flip.dsl import OpKind, parse_request
from flip.errors import (
    CompileError,
    FlipError,
    PlacementError,
    RejectedByDelay,
    UnknownNodeError,
)
from flip.harness import DATA_DIR, build_experiment_topology, demo_topology, request_texts
from flip.planner import (
    ActionKind,
    OpPlacement,
    check_delay,
    compile_baseline,
    compile_rules,
    place_operations,
    plan,
    resolve_endpoint,
    steiner_tree,
)
from flip.topology import Link, NodeKind, Topology, load_topology

from _oracles import (
    check_delay_search,
    collapsed_kmb_steiner_tree,
    compile_manual,
    compile_per_leaf,
    enumerate_shortest_path,
    kmb_steiner_tree,
    placement_transcription,
    random_connected_graph,
    steiner_optimum,
    tree_walk_path,
)

EQ1 = (
    "datapath_a(max(avg(bs1:bs10),avg(bs11:bs100),"
    "max(min(bs101:bs200),min(bs201:bs300))),destination<-user)"
)

EXPECTED_EQ1_PLACEMENT = {
    "min1": "sw3",
    "min2": "sw4",
    "max2": "sw5",
    "avg1": "sw1",
    "avg2": "sw2",
    "max1": "sw3",
}


@pytest.fixture(scope="module")
def demo():
    return demo_topology()


@pytest.fixture(scope="module")
def eq1_plan(demo):
    return plan(parse_request(EQ1), demo)


def random_switch_topology(rng, n_switches, n_bs):
    """Switch mesh with engines and base stations hung off random switches."""
    adj = random_connected_graph(rng, n_switches, extra_edges=rng.randint(1, 4))
    nodes = {}
    links = []
    rename = {old: f"sw{i + 1}" for i, old in enumerate(sorted(adj))}
    for old, nbs in adj.items():
        nodes[rename[old]] = NodeKind.SWITCH
        for other, w in nbs.items():
            if rename[old] < rename[other]:
                links.append(Link(rename[old], rename[other], w))
    switches = sorted(nodes)
    for sw in switches:
        nodes[f"e-{sw}"] = NodeKind.ENGINE
        links.append(Link(f"e-{sw}", sw, 0.0))
    for i in range(1, n_bs + 1):
        sw = rng.choice(switches)
        nodes[f"bs{i}"] = NodeKind.BASE_STATION
        links.append(Link(f"bs{i}", sw, 1.0))
    nodes["user"] = NodeKind.DESTINATION
    links.append(Link("user", rng.choice(switches), 1.0))
    return Topology(nodes, links)


def random_two_level_request(rng, n_bs):
    ops = [k.value for k in (OpKind.MIN, OpKind.MAX, OpKind.SUM, OpKind.AVG)]
    ids = list(range(1, n_bs + 1))
    rng.shuffle(ids)
    groups = []
    while ids:
        size = min(len(ids), rng.randint(1, 4))
        chunk, ids = ids[:size], ids[size:]
        leaves = ",".join(f"bs{i}" for i in chunk)
        groups.append(f"{rng.choice(ops)}({leaves})")
    return f"datapath_a({rng.choice(ops)}({','.join(groups)}),destination<-user)"


# -- placement -----------------------------------------------------------------


def test_eq1_placement_matches_manual_decomposition(demo):
    tg = dsl.expand_sources(parse_request(EQ1), demo)
    placements = place_operations(tg, demo)
    assert {p.op_node: p.switch for p in placements} == EXPECTED_EQ1_PLACEMENT
    for p in placements:
        assert p.engine == demo.engine_of(p.switch)


def test_single_op_lands_on_source_switch():
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
    tg = dsl.expand_sources(parse_request("datapath_a(max(bs1),destination<-user)"), t)
    placements = place_operations(tg, t)
    assert [(p.op_node, p.switch) for p in placements] == [("max1", "sw1")]


def test_placement_matches_pseudocode_transcription():
    rng = random.Random(42)
    checked = 0
    for _ in range(40):
        t = random_switch_topology(rng, rng.randint(3, 6), rng.randint(4, 10))
        req = parse_request(random_two_level_request(rng, len(t.nodes_of_kind(NodeKind.BASE_STATION))))
        tg = dsl.expand_sources(req, t)
        try:
            expected = placement_transcription(tg, t)
        except ValueError:
            with pytest.raises(PlacementError):
                place_operations(tg, t)
            continue
        placements = place_operations(tg, t)
        assert {p.op_node: p.switch for p in placements} == expected
        checked += 1
    assert checked >= 20


def test_placement_covers_every_op_once(demo):
    tg = dsl.expand_sources(parse_request(EQ1), demo)
    placements = place_operations(tg, demo)
    assert sorted(p.op_node for p in placements) == sorted(o.node_id for o in tg.ops())


# -- steiner tree ----------------------------------------------------------------


def test_two_terminals_is_shortest_path(demo):
    tree = steiner_tree(demo, {"bs1", "user"})
    dist, paths = demo.shortest_paths_from("bs1")
    path, delay = paths["user"], dist["user"]
    assert tree.weight == delay
    edges = {l.key() for l in tree.edges}
    assert edges == {tuple(sorted(p)) for p in zip(path, path[1:])}


def test_all_nodes_is_spanning_tree():
    rng = random.Random(5)
    adj = random_connected_graph(rng, 7, extra_edges=4)
    from test_topology import adj_topology

    t = adj_topology(adj)
    tree = steiner_tree(t, set(adj))
    from _oracles import prim_mst_weight

    assert tree.weight == prim_mst_weight(adj, set(adj))
    assert len(tree.edges) == len(adj) - 1


def test_steiner_is_tree_and_spans(demo, eq1_plan):
    tree = eq1_plan.tree
    nodes = tree.nodes()
    assert len(tree.edges) == len(nodes) - 1
    for term in tree.terminals:
        assert term in nodes


def test_steiner_quality_random_graphs():
    rng = random.Random(2024)
    from test_topology import adj_topology

    for _ in range(60):
        n = rng.randint(5, 9)
        adj = random_connected_graph(rng, n, extra_edges=rng.randint(1, 5))
        t = adj_topology(adj)
        k = rng.randint(3, min(5, n))
        terminals = set(rng.sample(sorted(adj), k))
        tree = steiner_tree(t, terminals)
        opt = steiner_optimum(adj, terminals)
        bound = (2 - 2 / len(terminals)) * opt
        assert opt - 1e-9 <= tree.weight <= bound + 1e-9
        # tree-ness
        assert len(tree.edges) == len(tree.nodes()) - 1


def random_pendant_graph(rng, max_delay):
    """Random graph of 3-24 inner nodes where equal delays are common,
    delays are sometimes fractional (so a path's float sum depends on the
    direction it is added in) and degree-1 pendants `p<i>` hang off inner
    nodes, as base stations hang off switches."""
    n = rng.randint(3, 24)
    adj = random_connected_graph(rng, n, extra_edges=rng.randint(0, 2 * n), max_delay=max_delay)
    inner = sorted(adj)
    for i in range(rng.randint(0, 2 * n)):
        pendant = f"p{i}"
        host = rng.choice(inner)
        w = float(rng.randint(1, max_delay))
        adj[pendant] = {host: w}
        adj[host][pendant] = w
    if rng.random() < 0.5:
        scale = rng.choice((0.1, 0.3, 0.7))
        adj = {u: {v: w * scale for v, w in nbs.items()} for u, nbs in adj.items()}
    return adj


def test_steiner_tree_matches_kmb_oracle():
    """Byte-identical trees to the full-closure Kruskal construction on
    graphs where equal delays are common (max delay 1, 2 or 5), delays are
    sometimes fractional (so a path's float sum depends on the direction it
    is added in) and degree-1 pendant terminals hang off inner nodes, as
    base stations hang off switches."""
    from test_topology import adj_topology

    rng = random.Random(20261018)
    checked = 0
    for max_delay in (1, 2, 5):
        for _ in range(180):
            adj = random_pendant_graph(rng, max_delay)
            nodes = sorted(adj)
            terminals = set(rng.sample(nodes, rng.randint(2, len(nodes))))
            got = steiner_tree(adj_topology(adj), terminals).to_doc()
            want = kmb_steiner_tree(adj_topology(adj), terminals).to_doc()
            assert json.dumps(got) == json.dumps(want), (adj, terminals)
            checked += 1
    assert checked >= 500


def test_steiner_tree_prunes_a_spanning_tree_link_no_hub_needs(monkeypatch):
    """With zero-delay links, the expanded shortest paths can reach a
    switch no hub's climb passes: the spanning tree holds 4 links, s25x2's
    among them, and the prune leaves the 3 that join the terminals, the
    tree the KMB oracle gives."""
    from flip import planner
    from test_topology import adj_topology

    adj: dict = {}
    for a, b, w in [
        ("s19x9", "s97x7", 0.0),
        ("s25x2", "s25x10", 0.0),
        ("s72x4", "s97x7", 2.0),
        ("s72x4", "s25x10", 0.0),
        ("s25x2", "s72x4", 0.0),
    ]:
        adj.setdefault(a, {})[b] = w
        adj.setdefault(b, {})[a] = w
    terminals = {"s72x4", "s25x10", "s19x9"}
    spanning = []
    kruskal = planner._kruskal

    def recording(edges):
        spanning.append(kruskal(edges))
        return spanning[-1]

    monkeypatch.setattr(planner, "_kruskal", recording)
    tree = steiner_tree(adj_topology(adj), terminals)
    (mst,) = spanning
    assert len(mst) == 4 and "s25x2" in {n for _, a, b in mst for n in (a, b)}
    want = [["s19x9", "s97x7", 0.0], ["s25x10", "s72x4", 0.0], ["s72x4", "s97x7", 2.0]]
    assert tree.to_doc()["edges"] == want and tree.weight == 2.0
    assert tree.to_doc() == kmb_steiner_tree(adj_topology(adj), terminals).to_doc()


def test_rooted_walk_matches_the_pair_walk_and_delay_search_oracles():
    """Every tree path equals the per-pair depth-first search, whichever
    root the climb runs on, and check_delay's worst equals the destination
    search to the last bit, with engine detours at random placed nodes."""
    from test_topology import adj_topology

    rng = random.Random("rooted-walk")
    for max_delay in (1, 2, 5):
        for _ in range(40):
            adj = random_pendant_graph(rng, max_delay)
            t = adj_topology(adj)
            terminals = set(rng.sample(sorted(adj), rng.randint(2, len(adj))))
            destination = rng.choice(sorted(terminals))
            leaves = sorted(terminals - {destination})
            tree = steiner_tree(t, terminals)
            nodes = sorted(tree.nodes())
            pairs = [(a, b) for a in nodes for b in nodes]
            # no walk yet: the climb runs on the walk from the first node
            first = [tree.path(a, b) for a, b in pairs]
            assert first == [tree_walk_path(tree, a, b) for a, b in pairs]
            placements = [
                OpPlacement(f"op{i}", switch, rng.choice(sorted(adj[switch])))
                for i, switch in enumerate(rng.sample(nodes, rng.randint(0, len(nodes))))
            ]
            delay_ms = rng.choice((None, 5.0))
            admitted, worst = check_delay(t, tree, leaves, placements, destination, delay_ms)
            want = check_delay_search(t, tree, leaves, placements, destination, delay_ms)
            assert (admitted, worst.hex()) == (want[0], want[1].hex())
            # a fresh tree whose first walk is rooted elsewhere
            again = steiner_tree(t, terminals)
            again.rooted(rng.choice(nodes))
            assert [again.path(a, b) for a, b in pairs] == first
            assert [tree.path(a, b) for a, b in pairs] == first


def test_steiner_tree_names_the_first_unknown_terminal_in_natural_order(demo):
    """bs999 comes before bs1000 in natural order, not in string order."""
    with pytest.raises(UnknownNodeError, match=r"^terminal 'bs999' not in topology$"):
        steiner_tree(demo, {"bs1", "bs1000", "sw5", "bs999", "user"})
    with pytest.raises(UnknownNodeError, match=r"^terminal 'bs1000' not in topology$"):
        steiner_tree(demo, ["bs1000", "bs1"])


def test_steiner_tree_collapses_base_stations_like_the_kmb_oracle():
    """With base-station pendants, the tree is the full-closure construction
    over the hubs plus the leaf links, keeps every leaf terminal's link and
    stays within (2 - 2/t) of the optimum over the original terminals."""
    rng = random.Random("collapse-oracle")
    worst_ratio = 0.0
    for i in range(400):
        max_delay = (1, 2, 5)[i % 3]
        adj = random_connected_graph(
            rng, rng.randint(2, 7), extra_edges=rng.randint(0, 6), max_delay=max_delay
        )
        switches = sorted(adj)
        stations = [f"bs{k}" for k in range(1, rng.randint(1, 8) + 1)]
        for bs in stations:
            host = rng.choice(switches)
            adj[bs] = {host: float(rng.randint(1, max_delay))}
            adj[host][bs] = adj[bs][host]
        if rng.random() < 0.5:
            scale = rng.choice((0.1, 0.3, 0.7))
            adj = {u: {v: w * scale for v, w in nbs.items()} for u, nbs in adj.items()}
        nodes = {n: NodeKind.SWITCH for n in switches} | dict.fromkeys(
            stations, NodeKind.BASE_STATION
        )
        links = [Link(u, v, w) for u, nbs in adj.items() for v, w in nbs.items() if u < v]
        terms = set(rng.sample(stations, rng.randint(1, len(stations))))
        terms |= set(rng.sample(switches, rng.randint(0 if len(terms) > 1 else 1, len(switches))))

        tree = steiner_tree(Topology(nodes, links), terms)
        want = collapsed_kmb_steiner_tree(Topology(nodes, links), terms)
        assert json.dumps(tree.to_doc()) == json.dumps(want.to_doc()), (adj, terms)
        assert set(tree.terminals) == terms
        edges = {l.key() for l in tree.edges}
        for bs in terms & set(stations):
            (host,) = adj[bs]
            assert tuple(sorted((bs, host))) in edges
        # a base station that is not a terminal is never in an optimal tree,
        # so the brute-force optimum skips them
        unused = set(stations) - terms
        kept = {
            u: {v: w for v, w in nbs.items() if v not in unused}
            for u, nbs in adj.items()
            if u not in unused
        }
        opt = steiner_optimum(kept, terms)
        assert opt - 1e-9 <= tree.weight <= (2 - 2 / len(terms)) * opt + 1e-9
        worst_ratio = max(worst_ratio, tree.weight / opt)
    assert worst_ratio > 1  # the sample reaches graphs where KMB is not exact


def test_wide_plan_computes_no_shortest_paths_from_base_stations(monkeypatch):
    """Cold planning of a flat request over every base station runs Dijkstra
    from hubs only, never once per leaf, and so does its baseline install."""
    t = demo_topology()
    sources = []
    shortest_paths_from = Topology.shortest_paths_from

    def recording(self, a):
        sources.append(a)
        return shortest_paths_from(self, a)

    monkeypatch.setattr(Topology, "shortest_paths_from", recording)
    p = plan(parse_request("datapath_a(sum(bs1:bs300),destination<-user)"), t)
    assert p.admitted and len(p.tree.terminals) == 302
    assert sources and set(sources) <= {*t.switches(), "user"}

    # the send-everything install of the same request routes from switches too
    sources.clear()
    result = Session(t).execute(
        "datapath_a",
        {"request": "datapath_a(sum(bs1:bs300),destination<-user)", "baseline": True},
    )
    assert result.ok and result.body["installed_rules"]
    assert sources and set(sources) <= set(t.switches())


def cold_wide_fabric() -> Topology:
    """The fabric of the cold wide plan check: 8 edge switches of 500 base
    stations each (sw1 holds bs1:bs500, sw2 bs501:bs1000, ...), chained by
    3 ms links, under aggregation switches sw9 and sw10 and core sw11,
    which the user hangs off; an engine per switch."""
    edge = [f"sw{i}" for i in range(1, 9)]
    switches = edge + ["sw9", "sw10", "sw11"]
    nodes = [{"id": s, "kind": "switch"} for s in switches]
    nodes += [{"id": f"e-{s}", "kind": "engine"} for s in switches]
    nodes.append({"id": "user", "kind": "destination"})
    links = [{"a": f"e-{s}", "b": s} for s in switches]
    links += [{"a": "sw9", "b": "sw11"}, {"a": "sw10", "b": "sw11"}, {"a": "user", "b": "sw11"}]
    for k, s in enumerate(edge):
        nodes.append({"range": f"bs{500 * k + 1}:bs{500 * k + 500}", "kind": "basestation", "switch": s})
        links.append({"a": s, "b": "sw9" if k < 4 else "sw10"})
        if k:
            links.append({"a": edge[k - 1], "b": s, "delay_ms": 3})
    return load_topology({"nodes": nodes, "links": links})


def test_planning_work_does_not_grow_with_stations_per_edge_switch(monkeypatch):
    """Counts, not times: a cold flat sum over 50 and over 500 stations per
    edge switch computes shortest paths from the same number of nodes and
    compiles the same number of rules, since both are per switch."""
    sources = []
    shortest_paths_from = Topology.shortest_paths_from

    def recording(self, a):
        sources.append(a)
        return shortest_paths_from(self, a)

    monkeypatch.setattr(Topology, "shortest_paths_from", recording)
    seen = {}
    for per_edge in (50, 500):
        sources.clear()
        ranges = ",".join(f"bs{500 * k + 1}:bs{500 * k + per_edge}" for k in range(8))
        p = plan(parse_request(f"datapath_a(sum({ranges}),destination<-user)"), cold_wide_fabric())
        assert p.admitted and len(p.tree.terminals) == 8 * per_edge + 2
        seen[per_edge] = (len(sources), len(set(sources)), len(p.rules))
    assert seen[50] == seen[500]


# -- delay admission ----------------------------------------------------------------


def test_no_delay_requirement_is_vacuous(demo, eq1_plan):
    assert eq1_plan.admitted
    assert eq1_plan.worst_path_delay_ms == 4.0


def test_forced_delay_arithmetic():
    doc = {
        "nodes": [
            {"id": "bs1", "kind": "basestation"},
            {"id": "sw1", "kind": "switch"},
            {"id": "e-sw1", "kind": "engine"},
            {"id": "user", "kind": "destination"},
        ],
        "links": [
            {"a": "bs1", "b": "sw1", "delay_ms": 1},
            {"a": "e-sw1", "b": "sw1"},
            {"a": "user", "b": "sw1", "delay_ms": 1},
        ],
    }
    t = load_topology(doc)
    req = parse_request("datapath_a(max(bs1),destination<-user,requirement<-{delay=10ms})")
    result = plan(req, t)
    assert result.admitted and result.worst_path_delay_ms == 2.0


def test_tight_delay_rejected(demo):
    req = parse_request(EQ1[:-1] + ",requirement<-{delay=3ms})")
    with pytest.raises(RejectedByDelay) as err:
        plan(req, demo)
    assert err.value.worst_path_delay_ms == 4.0
    # an absurd bound is unsatisfiable no matter the topology
    with pytest.raises(RejectedByDelay):
        plan(parse_request(EQ1[:-1] + ",requirement<-{delay=0.001ms})"), demo)


def test_relaxed_delay_admitted(demo):
    req = parse_request(EQ1[:-1] + ",requirement<-{delay=5ms})")
    assert plan(req, demo).admitted


# -- rule compilation ----------------------------------------------------------------


def test_manual_compile_example():
    doc = {
        "nodes": [
            {"id": "bs1", "kind": "basestation"},
            {"id": "bs2", "kind": "basestation"},
            {"id": "sw", "kind": "switch"},
            {"id": "e-sw", "kind": "engine"},
            {"id": "dest", "kind": "destination"},
        ],
        "links": [
            {"a": "bs1", "b": "sw"},
            {"a": "bs2", "b": "sw"},
            {"a": "e-sw", "b": "sw"},
            {"a": "dest", "b": "sw"},
        ],
    }
    t = load_topology(doc)
    req = parse_request("datapath_m(bs1,bs2,switch<-sw,computation<-sum,destination<-dest)")
    result = plan(req, t)
    (cfg,) = result.engine_configs
    assert cfg.compute is OpKind.SUM
    assert cfg.sources == ("bs1", "bs2")
    assert cfg.destination == "dest"
    redirects = [r for r in result.rules if r.action is ActionKind.REDIRECT]
    assert len(redirects) == 1
    assert redirects[0].sources == ("bs1", "bs2")
    assert redirects[0].target == "e-sw"
    delivers = [r for r in result.rules if r.action is ActionKind.DELIVER]
    assert len(delivers) == 1


def test_single_source_plan_has_one_redirect(demo):
    result = plan(parse_request("datapath_a(max(bs1),destination<-user)"), demo)
    redirects = [r for r in result.rules if r.action is ActionKind.REDIRECT]
    assert len(redirects) == 1


def test_eq1_engine_config_chain(eq1_plan):
    by_op = dict(zip([p.op_node for p in eq1_plan.placements], eq1_plan.engine_configs))
    # compile emits configs in pre-order: max1, avg1, avg2, max2, min1, min2
    chain = {c.engine + "/" + c.compute.value: c.destination for c in eq1_plan.engine_configs}
    assert chain == {
        "e-sw3/max": "user",
        "e-sw1/avg": "e-sw3",
        "e-sw2/avg": "e-sw3",
        "e-sw5/max": "e-sw3",
        "e-sw3/min": "e-sw5",
        "e-sw4/min": "e-sw5",
    }
    assert len(eq1_plan.engine_configs) == 6


def test_forwarding_is_loop_free(eq1_plan, demo):
    rules_by_switch = {}
    for rule in eq1_plan.rules:
        rules_by_switch.setdefault(rule.switch, []).append(rule)

    def follow(source, fd, start):
        node = start
        hops = 0
        while True:
            hops += 1
            assert hops <= demo.node_count(), "loop detected"
            rules = rules_by_switch.get(node, [])
            match = next(
                (r for r in rules if r.final_destination == fd and source in r.sources), None
            )
            if match is None or match.action is not ActionKind.FORWARD:
                return
            node = match.target

    for rule in eq1_plan.rules:
        for source in rule.sources:
            follow(source, rule.final_destination, rule.switch)


def test_plan_bytes_deterministic(demo):
    a = plan(parse_request(EQ1), demo).to_json()
    b = plan(parse_request(EQ1), demo).to_json()
    assert a == b
    assert json.loads(a)["admitted"] is True


def test_plan_counts(eq1_plan):
    assert len(eq1_plan.placements) == 6
    assert eq1_plan.mode is dsl.RequestMode.AUTOMATED
    # raw sources all stamp the request destination
    assert set(eq1_plan.source_ingress.values()) == {"user"}
    assert len(eq1_plan.source_ingress) == 300


def test_baseline_rules_deliver_everywhere(demo):
    rules = compile_baseline(demo, [f"bs{i}" for i in range(1, 11)], "user")
    assert all(r.final_destination == "user" for r in rules)
    assert any(r.action is ActionKind.DELIVER for r in rules)
    assert not any(r.action is ActionKind.REDIRECT for r in rules)


def test_baseline_routes_are_shortest_and_shared_per_switch():
    """Followed hop by hop from its switch, each source's installed baseline
    rules take a route as short as the enumeration oracle's and end in
    DELIVER at the destination's switch, and all sources on one switch take
    one route, with integer and with fractional link delays."""
    rng = random.Random("baseline-routes")
    for i in range(300):
        max_delay = (1, 2, 3, 5)[i % 4]
        adj = random_connected_graph(
            rng, rng.randint(2, 8), extra_edges=rng.randint(0, 8), max_delay=max_delay
        )
        switches = sorted(adj)
        stations = [f"bs{k}" for k in range(1, rng.randint(2, 16) + 1)]
        for node in [*stations, "user"]:
            host = rng.choice(switches)
            adj[node] = {host: float(rng.randint(1, max_delay))}
            adj[host][node] = adj[node][host]
        if i % 2:
            scale = rng.choice((0.1, 0.3, 0.7))
            adj = {u: {v: w * scale for v, w in nbs.items()} for u, nbs in adj.items()}
        nodes = {n: NodeKind.SWITCH for n in switches} | dict.fromkeys(
            stations, NodeKind.BASE_STATION
        )
        nodes["user"] = NodeKind.DESTINATION
        links = [Link(u, v, w) for u, nbs in adj.items() for v, w in nbs.items() if u < v]
        session = Session(Topology(nodes, links))
        request = f"datapath_a(sum(bs1:bs{len(stations)}),destination<-user)"
        result = session.execute("datapath_a", {"request": request, "baseline": True})
        assert result.ok, result.message

        (user_switch,) = adj["user"]
        routes: dict[str, set] = {}
        for bs in stations:
            (switch,) = adj[bs]
            route, delay = [switch], adj[bs][switch]
            while True:
                rule = next(
                    (
                        r
                        for r in session.fabric.tables[route[-1]].rules
                        if r.final_destination == "user" and bs in r.sources
                    ),
                    None,
                )
                assert rule is not None, (adj, bs, route)
                if rule.action is ActionKind.DELIVER:
                    break
                assert rule.action is ActionKind.FORWARD
                delay += adj[route[-1]][rule.target]
                route.append(rule.target)
                assert len(route) <= len(switches), (adj, bs, route)
            assert route[-1] == user_switch
            delay += adj[user_switch]["user"]
            # equal-delay routes may round differently in the last bit
            assert delay == pytest.approx(enumerate_shortest_path(adj, bs, "user")[0], abs=1e-9)
            routes.setdefault(switch, set()).add(tuple(route))
        assert all(len(r) == 1 for r in routes.values()), routes


def test_manual_chain_covers_manual_decomposition(demo):
    commands = [
        "datapath_m({bs201:bs300},switch<-sw4,compute<-min,destination<-sw5[engine])",
        "datapath_m({bs101:bs200},switch<-sw3,compute<-min,destination<-sw5[engine])",
        "datapath_m(sw4[engine],sw3[engine],switch<-sw5,compute<-max,destination<-sw3[engine])",
        "datapath_m({bs11:bs100},switch<-sw2,compute<-avg,destination<-sw3[engine])",
        "datapath_m({bs1:bs10},switch<-sw1,compute<-avg,destination<-sw3[engine])",
        "datapath_m(sw1[engine],sw2[engine],sw5[engine],switch<-sw3,compute<-max,destination<-user)",
    ]
    plans = [plan(parse_request(c), demo) for c in commands]
    assert [p.engine_configs[0].engine for p in plans] == [
        "e-sw4",
        "e-sw3",
        "e-sw5",
        "e-sw2",
        "e-sw1",
        "e-sw3",
    ]
    # the union of per-command rules reaches the user host
    delivers = [r for p in plans for r in p.rules if r.action is ActionKind.DELIVER]
    assert delivers and all(r.final_destination == "user" for r in delivers)


def random_manual_request(rng, t, regions) -> str:
    """A manual command over single stations, ranges, coverage regions and
    engines, sent to a host or an engine, with random requirements."""
    n_bs = len(t.nodes_of_kind(NodeKind.BASE_STATION))
    switches = t.switches()
    sources = []
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.35:
            sources.append(f"{rng.choice(switches)}[engine]")
        elif roll < 0.6:
            lo = rng.randint(1, n_bs)
            sources.append(f"bs{lo}:bs{min(n_bs, lo + rng.randint(1, 30))}")
        elif roll < 0.7:
            sources.append(rng.choice(regions))
        else:
            sources.append(f"bs{rng.randint(1, n_bs)}")
    hosts = sorted(t.nodes_of_kind(NodeKind.DESTINATION) + t.nodes_of_kind(NodeKind.CLOUD))
    if rng.random() < 0.5:
        destination = f"{rng.choice(switches)}[engine]"
    else:
        destination = rng.choice(hosts)
    args = sources + [
        f"switch<-{rng.choice(switches)}",
        f"compute<-{rng.choice(('min', 'max', 'sum', 'avg'))}",
        f"destination<-{destination}",
    ]
    reqs = [
        f"{key}={value}"
        for key, value in (("delay", "50ms"), ("rate", "100ms"), ("jitter", "5ms"))
        if rng.random() < 0.4
    ]
    if reqs:
        args.append(f"requirement<-{{{','.join(reqs)}}}")
    if rng.random() < 0.3:
        args.append(f"user<-u{rng.randint(1, 3)}")
    return f"datapath_m({','.join(args)})"


def _compiled_docs(rules, configs, ingress) -> str:
    return json.dumps(
        {
            "rules": [r.to_doc() for r in rules],
            "configs": [{"engine": c.engine, "user": c.user, **c.to_doc()} for c in configs],
            "ingress": ingress,
        },
        sort_keys=True,
    )


def test_manual_requests_compile_like_the_manual_oracle():
    """`compile_rules` with the user's switch as the only placement gives
    the rules, engine configs and ingress the former one-operation manual
    compiler gave, on random commands that mix engine sources, engine
    destinations, ranges, regions and requirements."""
    cov = dsl.load_coverage(json.loads((DATA_DIR / "coverage.json").read_text()))
    rng = random.Random(20261018)
    compared = 0
    for t in (demo_topology(), build_experiment_topology()):
        for _ in range(400):
            req = parse_request(random_manual_request(rng, t, sorted(cov)))
            try:
                tg = dsl.expand_sources(req, t, cov)
            except FlipError:
                continue
            destination = resolve_endpoint(t, req.destination)
            placement = OpPlacement(tg.root.node_id, req.switch, t.engine_of(req.switch))
            tree = steiner_tree(t, set(tg.leaves()) | {req.switch, destination})
            got = compile_rules(t, tg, [placement], tree, destination, req)
            want = compile_manual(t, tg, placement, tree, destination, req)
            assert _compiled_docs(*got) == _compiled_docs(*want), dsl.canonical(req)
            compared += 1
    assert compared >= 500


def random_nested_request(rng, t) -> str:
    """An automated request of nested operations, sent to the user or to
    an engine. Each leaf group takes several stations of one or two
    switches, and no station is used twice."""
    unused: dict[str, list[str]] = {}
    for bs in t.nodes_of_kind(NodeKind.BASE_STATION):
        unused.setdefault(t.connected_switch(bs), []).append(bs)
    ops = ("min", "max", "sum", "avg")

    def stations() -> list[str]:
        picks = []
        for switch in rng.sample(sorted(unused), min(len(unused), rng.randint(1, 2))):
            pool = unused[switch]
            for bs in rng.sample(pool, min(len(pool), rng.randint(1, 6))):
                pool.remove(bs)
                picks.append(bs)
            if not pool:
                del unused[switch]
        return picks

    def expr(depth: int) -> str:
        if depth == 0 or rng.random() < 0.25:
            children = stations()
        else:
            children = [expr(depth - 1) for _ in range(rng.randint(2, 3))]
            if rng.random() < 0.2:
                children += stations()
        return f"{rng.choice(ops)}({','.join(children)})"

    switches = t.switches()
    destination = rng.choice(("user", f"{rng.choice(switches)}[engine]"))
    return f"datapath_a({expr(rng.randint(1, 3))},destination<-{destination})"


def test_automated_requests_compile_like_the_per_leaf_oracle():
    """One path walk per (entry switch, final destination) gives the rules,
    engine configs and ingress of one walk per child, on random nested
    requests whose leaf groups share switches, sent to the user or to an
    engine; a compile error is the same error."""
    rng = random.Random("per-leaf-oracle")
    compared = refused = 0
    for t in (demo_topology(), build_experiment_topology()):
        for _ in range(400):
            text = random_nested_request(rng, t)
            try:
                req = parse_request(text)
                tg = dsl.expand_sources(req, t)
                placements = place_operations(tg, t)
            except FlipError:
                continue
            destination = resolve_endpoint(t, req.destination)
            terminals = set(tg.leaves()) | {p.switch for p in placements} | {destination}
            tree = steiner_tree(t, terminals)
            try:
                want = _compiled_docs(*compile_per_leaf(t, tg, placements, tree, destination, req))
            except CompileError as exc:
                with pytest.raises(CompileError, match=re.escape(str(exc))):
                    compile_rules(t, tg, placements, tree, destination, req)
                refused += 1
                continue
            got = _compiled_docs(*compile_rules(t, tg, placements, tree, destination, req))
            assert got == want, text
            compared += 1
    assert compared >= 300 and refused > 0


def test_colocated_sibling_ops_rejected():
    doc = {
        "nodes": [
            {"range": "bs1:bs4", "kind": "basestation", "switch": "sw1"},
            {"id": "sw1", "kind": "switch"},
            {"id": "sw2", "kind": "switch"},
            {"id": "e-sw1", "kind": "engine"},
            {"id": "e-sw2", "kind": "engine"},
            {"id": "user", "kind": "destination"},
        ],
        "links": [
            {"a": "e-sw1", "b": "sw1"},
            {"a": "e-sw2", "b": "sw2"},
            {"a": "sw1", "b": "sw2"},
            {"a": "user", "b": "sw2"},
        ],
    }
    t = load_topology(doc)
    req = parse_request("datapath_a(max(min(bs1,bs2),min(bs3,bs4)),destination<-user)")
    with pytest.raises(CompileError):
        plan(req, t)


def _install_one_at_a_time(t: Topology, rules) -> None:
    """`install_rules` checks a batch only against the rules already
    installed, not against each other. Installing a plan's rules one by one
    checks each against every rule before it, and a clash is symmetric, so
    every pair of the plan's rules is checked."""
    fabric = Fabric(t)
    for rule in rules:
        fabric.install_rules([rule])


def test_no_plan_shadows_itself():
    """No plan holds two rules that clash (`FlowTable.clash`): R1-R9 in both
    modes on both data/ topologies, and the 320 wide requests on the
    wide_fanin fabric's shape. The shared_fabric benchmark's 120 users,
    R1-R9 shapes with its requirements, are then admitted on one session."""
    from test_golden import _many_wide_requests
    from test_topology import wide_fabric_doc

    wide = load_topology(wide_fabric_doc(50))
    cases = [(wide, text) for text in _many_wide_requests(random.Random("many-plans"), 800, 22)]
    for t in (demo_topology(), build_experiment_topology()):
        cases += [(t, text) for text in request_texts()]
    planned = 0
    for t, text in cases:
        try:
            request = parse_request(text)
            p = plan(request, t)
        except FlipError:
            continue
        _install_one_at_a_time(t, p.rules)
        leaves = dsl.expand_sources(request, t).leaves()
        _install_one_at_a_time(t, compile_baseline(t, leaves, resolve_endpoint(t, request.destination)))
        planned += 1
    assert planned > len(cases) * 3 // 4

    shapes = [text[len("datapath_a(") : -len(",destination<-user)")] for text in request_texts()]
    users = [(f"s{i}", shapes[i % 9]) for i in range(20)] + [(f"u{i}", shapes[(i + 4) % 9]) for i in range(100)]
    session = Session(build_experiment_topology())
    requirement = "requirement<-{delay=10ms,rate=100ms,jitter=5ms}"
    for user, shape in users:
        text = f"datapath_a({shape},destination<-user,{requirement},user<-{user})"
        result = session.execute("datapath_a", {"request": text})
        assert result.ok, (user, result.code, result.message)
