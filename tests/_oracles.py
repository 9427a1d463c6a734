"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the production code paths: shortest
paths come from exhaustive simple-path enumeration, Steiner optima from
node-subset enumeration with a Prim spanning tree, and the placement
oracle is a line-by-line transcription of the mapping loop kept separate
from the planner's implementation. The engine config oracles work on a
plain collection of configs: a sorted linear scan for the config a packet
gets, and the file document grouped by sorting on the config key.
`kmb_steiner_tree` is the planner's earlier Steiner construction kept as
it was (the full metric closure sorted by Kruskal), against which the
current one must give the same tree, and `collapsed_kmb_steiner_tree` is
that construction run over the base-station terminals' switches with the
base stations' own links added. `RuleBook` is the planner's earlier
rule book, which the compiler oracles use instead of the planner's.
`compile_manual` is the planner's earlier compiler for one-operation
manual commands, kept as it was with its own copies of the planner's
former path walkers (`_route_along`, `_deliver_along`), against which
the one compile path must give the same rules, configs and ingress.
`compile_per_leaf` is the planner's earlier compiler for every request
form, which walked each child's path on its own, against which the walk
per (entry switch, final destination) must give the same rules, configs
and ingress.
`tree_walk_path` and `check_delay_search` are the planner's earlier tree
walks kept as they were: a depth-first search with sorted neighbours per
path pair, and admission's own search from the destination, against which
the one rooted walk must give the same paths and the same worst delay to
the last bit. `heap_shortest_paths_from` is the earlier
`Topology.shortest_paths_from` kept as it was: every node, one-link nodes
included, goes through the heap and both maps are plain dicts, against
which the one-link maps must give the same floats and tuples for every
(source, target) pair. `scan_rules` is the earlier `FlowTable.match`
kept as it was, with the earlier packet predicate `FlowRule.matches` written in: a linear
scan of the rule list, against which the table's (final destination,
source) index must give the same (position, rule) or miss. `tokenize` is the earlier `dsl._tokenize`
kept as it was: a character loop building one frozen `Token` per token,
against which the one-pattern scan must give the same (kind, value, col,
unit) tuples, or the same error and column, for every text. `close_epoch`
is the earlier close arithmetic of `Engine._close` kept as it was: the
present rows in source order by list comprehension, then `max` over a
list of their timestamps and a left fold over a list of their values,
against which the engine's fold over `zip` must give the same floats to
the last bit, signed zeros and NaN included. `ReferenceFabric` is the
switch fabric as its meaning is written down, sharing no code with
`dataplane.Fabric`: every hop is an event on a plain list kept in (time,
creation number) order, a switch finds its rule with `scan_rules`, a
packet's hops are counted on its event against the topology's node count,
and its engines are `epb.Engine`s over a copy of the store; against it a
fabric's deliveries, counters, drops and books must agree exactly.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import operator
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations


def enumerate_shortest_path(adj: dict[str, dict[str, float]], a: str, b: str):
    """Best (delay, path) over all simple paths, ties by smallest sequence."""
    best = None

    def walk(node, seen, path, delay):
        nonlocal best
        if node == b:
            cand = (delay, tuple(path))
            if best is None or cand < best:
                best = cand
            return
        for nb, w in adj[node].items():
            if nb not in seen:
                walk(nb, seen | {nb}, path + [nb], delay + w)

    walk(a, {a}, [a], 0.0)
    return best


def prim_mst_weight(adj: dict[str, dict[str, float]], nodes: set[str]):
    """Spanning tree weight of the induced subgraph, None if disconnected."""
    nodes = set(nodes)
    start = min(nodes)
    in_tree = {start}
    weight = 0.0
    while in_tree != nodes:
        best = None
        for u in in_tree:
            for v, w in adj[u].items():
                if v in nodes and v not in in_tree:
                    if best is None or w < best[0]:
                        best = (w, v)
        if best is None:
            return None
        weight += best[0]
        in_tree.add(best[1])
    return weight


def steiner_optimum(adj: dict[str, dict[str, float]], terminals: set[str]) -> float:
    """Exact minimum Steiner weight by enumerating Steiner-node subsets."""
    others = sorted(set(adj) - set(terminals))
    best = None
    for r in range(len(others) + 1):
        for extra in combinations(others, r):
            w = prim_mst_weight(adj, set(terminals) | set(extra))
            if w is not None and (best is None or w < best):
                best = w
    return best


def heap_shortest_paths_from(t, a: str):
    """Dijkstra from `a` over every node: (delay map, path map).

    Equal-delay ties resolve to the lexicographically smallest node
    sequence, so results are reproducible across runs.
    """
    dist: dict[str, float] = {}
    path: dict[str, tuple[str, ...]] = {}
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (a,))]
    while heap:
        d, p = heapq.heappop(heap)
        node = p[-1]
        if node in dist:
            continue
        dist[node] = d
        path[node] = p
        for nb in sorted(t._adj[node]):
            if nb not in dist:
                heapq.heappush(heap, (d + t._adj[node][nb], p + (nb,)))
    return dist, path


def random_connected_graph(rng: random.Random, n_nodes: int, extra_edges: int, max_delay: int = 5):
    """Random spanning tree plus extras; integer delays in 1..max_delay."""
    names = [f"n{i}" for i in range(n_nodes)]
    adj: dict[str, dict[str, float]] = {name: {} for name in names}

    def connect(u, v, w):
        adj[u][v] = float(w)
        adj[v][u] = float(w)

    shuffled = names[:]
    rng.shuffle(shuffled)
    for i in range(1, n_nodes):
        connect(shuffled[i], rng.choice(shuffled[:i]), rng.randint(1, max_delay))
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 50:
        attempts += 1
        u, v = rng.sample(names, 2)
        if v not in adj[u]:
            connect(u, v, rng.randint(1, max_delay))
            added += 1
    return adj


def placement_transcription(tg, topo):
    """Literal transcription of the mapping loop used as a placement oracle.

    Mirrors the published pseudocode: edge operations take their leftmost
    leaf's switch; ancestors get an adjacent switch of the originating edge
    switch, excluding switches already assigned, until a visited ancestor
    stops the walk. Returns {op_node_id: switch} or raises ValueError when
    no adjacent switch is available.
    """
    from flip.dsl import OpNode

    edgeswitch: dict[str, str] = {}
    interswitch: dict[str, str] = {}
    visited: set[str] = set()
    claimed: list[str] = []

    def adjswitch(s: str) -> str:
        cands = [
            (w, nb)
            for nb, w in topo.neighbors(s).items()
            if topo.kind(nb).value == "switch" and nb not in claimed
        ]
        if not cands:
            raise ValueError(f"no candidate adjacent to {s}")
        return min(cands)[1]

    edgenodes = [
        op for op in tg.ops() if all(not isinstance(c, OpNode) for c in op.children)
    ]
    for node in edgenodes:
        leafnode = node.children[0]
        sw = topo.connected_switch(leafnode)
        edgeswitch[node.node_id] = sw
        if sw not in claimed:
            claimed.append(sw)
        pnode = tg.parent(node)
        while pnode is not None:
            if pnode.node_id in visited:
                break
            visited.add(pnode.node_id)
            chosen = adjswitch(edgeswitch[node.node_id])
            interswitch[pnode.node_id] = chosen
            if chosen not in claimed:
                claimed.append(chosen)
            pnode = tg.parent(pnode)
    return {**edgeswitch, **interswitch}


def scan_config(configs, engine: str, user: str, source: str, final_destination: str):
    """First config of the engine, in (user, destination) order, whose
    user, sources and matched destinations cover the packet. A config
    without match destinations matches its own destination and engine."""
    ordered = sorted(
        (c for c in configs if c.engine == engine), key=lambda c: (c.user, c.destination)
    )
    for cfg in ordered:
        if (
            cfg.user == user
            and source in cfg.sources
            and final_destination in (cfg.match_destinations or (cfg.destination, cfg.engine))
        ):
            return cfg
    return None


def scan_rules(rules, packet):
    """First rule of the list that matches the packet, with its position."""
    for index, rule in enumerate(rules):
        if packet.final_destination == rule.final_destination and packet.source in rule.sources:
            return index, rule
    return None


class ReferenceFabric:
    """A packet moves one hop per event: (time, creation number, what) on a
    sorted list. `inject` takes the fabric's arguments, so
    `harness.publish` drives it; `drain` runs every event and returns what
    the fabric must agree with."""

    def __init__(self, topology, rules, configs):
        from flip.epb import ConfigStore, Engine
        from flip.topology import NodeKind

        self.t = topology
        self.rules = {s: [] for s in topology.switches()}
        for rule in rules:
            if rule not in self.rules[rule.switch]:
                self.rules[rule.switch].append(rule)
        store = ConfigStore()
        for cfg in configs:
            store.set_config(cfg)
        self.engines = {e: Engine(e, store) for e in topology.nodes_of_kind(NodeKind.ENGINE)}
        self.events: list[tuple] = []
        self.made = self.uid = self.injected = 0
        self.delivered: list[dict] = []
        self.rx = {s: Counter() for s in self.rules}
        self.ingress = {s: Counter() for s in self.rules}
        self.tx = {s: Counter() for s in self.rules}
        self.hits = {s: [0] * len(r) for s, r in self.rules.items()}
        self.drops: Counter = Counter()  # (switch, reason) -> packets

    def _later(self, time, *what):
        self.made += 1
        bisect.insort(self.events, (time, self.made, what))

    def _enter(self, time, p, at):
        """p leaves a base station or engine at `time` for its one switch."""
        from flip.topology import NodeKind

        ((switch, delay),) = self.t.neighbors(at).items()
        self._later(time + delay, "switch", switch, p, at, self.t.kind(at) is NodeKind.ENGINE, 1)

    def inject(self, p, at):
        self.uid += 1
        p.uid = self.uid
        self.injected += 1
        self._enter(p.timestamp_ms, p, at)

    def _emit(self, time, engine, out):
        if out is not None:
            self.uid += 1
            out.uid = self.uid
            self._enter(time, out, engine)

    def _hop(self, time, switch, p, via, from_engine, hops):
        from flip.planner import ActionKind
        from flip.topology import NodeKind

        if hops > self.t.node_count():
            self.drops[switch, "hop_limit"] += 1
            return
        self.rx[switch][via] += 1
        if not from_engine:
            self.ingress[switch][p.final_destination] += 1
        hit = scan_rules(self.rules[switch], p)
        if hit is None:
            self.drops[switch, "no_rule"] += 1
            return
        index, rule = hit
        self.hits[switch][index] += 1
        target = p.final_destination if rule.action is ActionKind.DELIVER else rule.target
        self.tx[switch][target] += 1
        at = time + self.t.link_delay(switch, target)
        if rule.action is ActionKind.REDIRECT:
            self._later(at, "engine", target, p)
        elif self.t.kind(target) is NodeKind.SWITCH:
            self._later(at, "switch", target, p, switch, False, hops + 1)
        else:
            self._later(at, "host", target, p)

    def drain(self) -> dict:
        while self.events:
            time, _, (kind, node, *rest) = self.events.pop(0)
            if kind == "switch":
                self._hop(time, node, *rest)
            elif kind == "host":
                p = rest[0]
                self.delivered.append({
                    "time_ms": time, "node": node, "uid": p.uid, "source": p.source,
                    "user": p.user, "epoch": p.epoch, "payload": p.payload.to_doc(),
                })
            elif kind == "engine":
                out = self.engines[node].process(rest[0], time)
                if type(out) is tuple:  # an epoch opened: its timer
                    deadline, token = out
                    self._later(deadline, "timer", node, token)
                else:
                    self._emit(time, node, out)
            else:
                self._emit(time, node, self.engines[node].on_timeout(rest[0], time))
        from flip.epb import SETTLED

        engine_books = {k: sum(e.counters[k] for e in self.engines.values()) for k in SETTLED}
        pending = sum(e.pending_arrivals() for e in self.engines.values())
        created = self.injected + sum(e.counters["emitted"] for e in self.engines.values())
        settled = len(self.delivered) + sum(self.drops.values()) + sum(engine_books.values()) + pending
        books = {"created": created, "settled": settled, "pending_buffered": pending,
                 "balanced": created == settled, **engine_books}
        return {
            "delivered": self.delivered, "rx": self.rx, "ingress": self.ingress, "tx": self.tx,
            "hits": self.hits, "drops": self.drops, "books": books,
            "engines": {e: engine.counters for e, engine in self.engines.items()},
        }


_FOLD_STEP = {"sum": operator.add, "avg": operator.add, "sub": operator.sub, "mul": operator.mul}


def close_epoch(op: str, sources, arrivals: dict) -> tuple[float, float]:
    """(latest timestamp, folded value) of an epoch that closes over the
    arrivals, source -> (timestamp, value), of `sources`, in that order;
    op is the operation's name."""
    present = [arrivals[s] for s in sources if s in arrivals]
    latest = max([ts for ts, _ in present])
    values = [value for _, value in present]
    if op == "min":
        return latest, min(values)
    if op == "max":
        return latest, max(values)
    acc = functools.reduce(_FOLD_STEP[op], values)
    return latest, acc / len(values) if op == "avg" else acc


def config_doc(configs) -> dict:
    """engine -> user -> [records], in (engine, user, destination) order."""
    doc: dict = {}
    for cfg in sorted(configs, key=lambda c: c.key()):
        doc.setdefault(cfg.engine, {}).setdefault(cfg.user, []).append(cfg.to_doc())
    return doc


class _UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _kruskal(edges: list[tuple[float, str, str]]) -> list[tuple[float, str, str]]:
    uf = _UnionFind()
    return [e for e in sorted(edges) if uf.union(e[1], e[2])]


def kmb_steiner_tree(t, terminals):
    """Metric-closure approximation of the minimum Steiner tree.

    Deterministic throughout: shortest paths break ties lexicographically
    and both spanning-tree passes sort edges by (weight, endpoints).
    """
    from flip.errors import UnknownNodeError
    from flip.planner import SteinerTree
    from flip.topology import Link, natural_key

    terms = sorted(set(terminals), key=natural_key)
    if len(terms) < 2:
        raise ValueError("steiner_tree needs at least two terminals")
    for term in terms:
        if not t.has_node(term):
            raise UnknownNodeError(f"terminal {term!r} not in topology")

    closure: list[tuple[float, str, str]] = []
    paths: dict[tuple[str, str], list[str]] = {}
    for i, a in enumerate(terms):
        dist, path = t.shortest_paths_from(a)
        for b in terms[i + 1 :]:
            closure.append((dist[b], a, b))
            paths[(a, b)] = list(path[b])

    expanded: dict[tuple[str, str], float] = {}
    for _, a, b in _kruskal(closure):
        path = paths[(a, b)]
        for u, v in zip(path, path[1:]):
            key = (u, v) if u <= v else (v, u)
            expanded[key] = t.link_delay(u, v)

    mst = _kruskal([(w, a, b) for (a, b), w in expanded.items()])

    # prune non-terminal leaves until fixpoint
    adj: dict[str, set[str]] = {}
    weights: dict[tuple[str, str], float] = {}
    for w, a, b in mst:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
        weights[(a, b) if a <= b else (b, a)] = w
    term_set = set(terms)
    changed = True
    while changed:
        changed = False
        for node in sorted(adj):
            if node not in term_set and len(adj[node]) == 1:
                (peer,) = adj[node]
                adj[peer].discard(node)
                del adj[node]
                del weights[(node, peer) if node <= peer else (peer, node)]
                changed = True

    links = tuple(Link(a, b, weights[(a, b)]) for a, b in sorted(weights))
    return SteinerTree(
        edges=links, terminals=tuple(terms), weight=sum(l.delay_ms for l in links)
    )


def collapsed_kmb_steiner_tree(t, terminals):
    """`kmb_steiner_tree` over the hubs (each base-station terminal's switch
    in its place, every other terminal as itself) plus each base-station
    terminal's own link, keeping the original terminals."""
    from flip.planner import SteinerTree
    from flip.topology import Link, NodeKind, natural_key

    terms = sorted(set(terminals), key=natural_key)
    hubs = set()
    leaf_links = []
    for term in terms:
        if t.kind(term) is NodeKind.BASE_STATION:
            switch = t.connected_switch(term)
            hubs.add(switch)
            a, b = sorted((term, switch))
            leaf_links.append(Link(a, b, t.link_delay(a, b)))
        else:
            hubs.add(term)
    hub_links = kmb_steiner_tree(t, hubs).edges if len(hubs) > 1 else ()
    links = tuple(sorted((*hub_links, *leaf_links), key=Link.key))
    return SteinerTree(
        edges=links, terminals=tuple(terms), weight=sum(l.delay_ms for l in links)
    )


class RuleBook:
    """The planner's earlier rule book kept as it was: rules accumulated
    per (switch, final destination, action, target), one source at a
    time, each rule's sources sorted by `natural_key`."""

    def __init__(self):
        self._rules: dict[tuple, list] = {}

    def add(self, switch, fd, action, target, source):
        self._rules.setdefault((switch, fd, action, target), []).append(source)

    def rules(self):
        from flip.planner import FlowRule
        from flip.topology import natural_key

        return [
            FlowRule(switch, fd, tuple(sorted(set(sources), key=natural_key)), action, target)
            for (switch, fd, action, target), sources in self._rules.items()
        ]


def _route_along(book, tree, fd, source, start, end, t):
    """Forward rules for `source`'s traffic from switch `start` to switch `end`."""
    from flip.planner import ActionKind
    from flip.topology import NodeKind

    path = tree.path(start, end)
    for here, nxt in zip(path, path[1:]):
        if t.kind(here) is NodeKind.SWITCH:
            book.add(here, fd, ActionKind.FORWARD, nxt, source)


def _deliver_along(book, tree, source, start, destination, t):
    """Forward rules for `source`'s output from switch `start` to the
    destination host, delivering at the last switch."""
    from flip.planner import ActionKind
    from flip.topology import NodeKind

    path = tree.path(start, destination)
    for here, nxt in zip(path, path[1:]):
        if t.kind(nxt) is NodeKind.SWITCH:
            book.add(here, destination, ActionKind.FORWARD, nxt, source)
        else:
            book.add(here, destination, ActionKind.DELIVER, None, source)


def compile_manual(t, tg, placement, tree, destination, request):
    """One-op manual command: route sources to the chosen switch, redirect
    to its engine, and forward the output toward the destination.

    Raw sources stamp the command's destination on their packets; engine
    sources arrive stamped with this command's engine (their own upstream
    config's destination), mirroring chained multi-part requests. When the
    destination itself is an engine, the final redirect belongs to the
    command configuring that engine, so forwarding stops at its switch.
    """
    from flip.epb import EngineConfig
    from flip.planner import ActionKind
    from flip.topology import NodeKind

    book = RuleBook()
    ingress: dict[str, str] = {}
    own_engine = placement.engine
    match_fds: list[str] = []
    for source in tg.leaves():
        fd = own_engine if t.kind(source) is NodeKind.ENGINE else destination
        entry = t.connected_switch(source)
        if fd not in match_fds:
            match_fds.append(fd)
        ingress[source] = fd
        _route_along(book, tree, fd, source, entry, placement.switch, t)
        book.add(placement.switch, fd, ActionKind.REDIRECT, own_engine, source)

    cfg = EngineConfig(
        engine=own_engine,
        user=request.user,
        compute=tg.root.kind,
        sources=tuple(tg.leaves()),
        destination=destination,
        rate_ms=request.requirements.rate_ms,
        jitter_ms=request.requirements.jitter_ms,
        match_destinations=tuple(match_fds),
    )

    # output leg
    if t.kind(destination) is NodeKind.ENGINE:
        end_switch = t.connected_switch(destination)
        _route_along(book, tree, destination, own_engine, placement.switch, end_switch, t)
    else:
        _deliver_along(book, tree, own_engine, placement.switch, destination, t)

    return book.rules(), [cfg], ingress


def _leaf_rules_along(book, path, fd, source, t):
    """Rules for one source's traffic along `path`: at each switch, forward
    to the next switch, or deliver into the next node when it is not one."""
    from flip.planner import ActionKind
    from flip.topology import NodeKind

    for here, nxt in zip(path, path[1:]):
        if t.kind(here) is NodeKind.SWITCH:
            if t.kind(nxt) is NodeKind.SWITCH:
                book.add(here, fd, ActionKind.FORWARD, nxt, source)
            else:
                book.add(here, fd, ActionKind.DELIVER, None, source)


def compile_per_leaf(t, tg, placements, tree, destination, request):
    """The planner's compiler with one path walk per child of every
    operation: each child is routed along the tree to its operation's
    switch and redirected into the engine there, and the root's output
    goes on to the destination."""
    from flip.dsl import OpNode
    from flip.epb import EngineConfig
    from flip.errors import CompileError
    from flip.planner import ActionKind
    from flip.topology import NodeKind

    by_op = {p.op_node: p for p in placements}
    book = RuleBook()
    configs = []
    ingress: dict[str, str] = {}

    for op in tg.ops():
        placement = by_op[op.node_id]
        parent = tg.parent(op)
        cfg_sources: list[str] = []
        match_fds: list[str] = []
        for child in op.children:
            leaf = not isinstance(child, OpNode)
            if leaf:
                source, entry = child, t.connected_switch(child)
            else:
                source, entry = by_op[child.node_id].engine, by_op[child.node_id].switch
                if source in cfg_sources:
                    raise CompileError(
                        f"siblings {op.node_id} children share engine {source}; "
                        "co-located sibling operations are not representable"
                    )
            fd = placement.engine if t.kind(source) is NodeKind.ENGINE else destination
            cfg_sources.append(source)
            if fd not in match_fds:
                match_fds.append(fd)
            if leaf:
                ingress[source] = fd
            _leaf_rules_along(book, tree.path(entry, placement.switch), fd, source, t)
            book.add(placement.switch, fd, ActionKind.REDIRECT, placement.engine, source)
        configs.append(
            EngineConfig(
                engine=placement.engine,
                user=request.user,
                compute=op.kind,
                sources=tuple(cfg_sources),
                destination=by_op[parent.node_id].engine if parent else destination,
                rate_ms=request.requirements.rate_ms,
                jitter_ms=request.requirements.jitter_ms,
                match_destinations=tuple(match_fds),
            )
        )

    root = by_op[tg.root.node_id]
    to_engine = t.kind(destination) is NodeKind.ENGINE
    end = t.connected_switch(destination) if to_engine else destination
    _leaf_rules_along(book, tree.path(root.switch, end), destination, root.engine, t)

    return book.rules(), configs, ingress


def tree_walk_path(tree, a, b):
    """Unique a-b path inside the tree by a depth-first search from `a`."""
    from flip.errors import CompileError

    if a == b:
        return (a,)
    adj = tree.adjacency
    if a not in adj or b not in adj:
        raise CompileError(f"{a!r} or {b!r} not on the datapath tree")
    prev = {a: None}
    stack = [a]
    while stack:
        node = stack.pop()
        if node == b:
            break
        for nb in sorted(adj[node]):
            if nb not in prev:
                prev[nb] = node
                stack.append(nb)
    if b not in prev:
        raise CompileError(f"no tree path {a} -> {b}")
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return tuple(path[::-1])


def check_delay_search(t, tree, leaves, placements, destination, delay_ms):
    """Worst tree-path delay from any leaf to the destination, counting the
    in-and-out engine detour at every placed switch on the path, from one
    search of the tree rooted at the destination."""
    from flip.errors import CompileError

    placed = {p.switch: p.engine for p in placements}
    adj = tree.adjacency
    if destination not in adj:
        raise CompileError(f"destination {destination!r} not on the datapath tree")
    dist = {destination: 0.0}
    parent = {destination: None}
    stack = [destination]
    while stack:
        node = stack.pop()
        for nb, w in adj[node].items():
            if nb not in dist:
                dist[nb] = dist[node] + w
                parent[nb] = node
                stack.append(nb)
    worst = 0.0
    for leaf in leaves:
        if leaf not in dist:
            raise CompileError(f"leaf {leaf!r} not on the datapath tree")
        delay = dist[leaf]
        node = leaf
        while node is not None:
            if node in placed:
                delay += 2 * t.link_delay(node, placed[node])
            node = parent[node]
        worst = max(worst, delay)
    return (delay_ms is None or worst <= delay_ms), worst


_ARROW = "<-"


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NUMBER ARROW ( ) { } [ ] , : = EOF
    value: str
    col: int
    unit: str = ""


def tokenize(text: str) -> list[Token]:
    from flip.errors import DslSyntaxError

    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c == "<" and text[i : i + 2] == _ARROW:
            tokens.append(Token("ARROW", _ARROW, col))
            i += 2
        elif c in "(){}[],:=":
            tokens.append(Token(c, c, col))
            i += 1
        elif c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], col))
            i = j
        elif c.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            k = j
            while k < n and text[k].isalpha():
                k += 1
            tokens.append(Token("NUMBER", text[i:j], col, unit=text[j:k]))
            i = k
        else:
            raise DslSyntaxError(f"unexpected character {c!r}", col=col)
    tokens.append(Token("EOF", "", n + 1))
    return tokens
