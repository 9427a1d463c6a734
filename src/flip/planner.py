"""Map task graphs onto the switch fabric and compile datapaths.

Placement walks the task graph bottom-up: every operation whose children
are all leaves lands on the switch of its leftmost leaf, and each not yet
visited ancestor gets a deterministic adjacent switch, anchored at the
originating edge switch and excluding switches that earlier assignments
took. This is deliberately literal (an op sits with its leftmost
leaf even when other children attach elsewhere); the trade of optimality
for predictability is intentional.

The datapath tree is the classic metric-closure Steiner approximation of
Kou, Markowsky & Berman: complete graph over the terminals weighted by
shortest-path delay, minimum spanning tree, expansion back to real paths,
then pruning to the subtree that connects the terminals. Its weight is
within (2 - 2/t) of the optimal tree for t terminals. Base-station
terminals are collapsed onto their switches before the closure: a base
station has one link, which every Steiner tree must contain, so the
closure, the spanning tree and the prune run over only the "hubs" (the
leaves' switches plus the other terminals), and each leaf's link is
appended to the pruned hub tree. A leaf link is a bridge, which a spanning
tree over hubs and leaves together keeps too, so the tree is the same, and
the bound still holds because those links are forced. The complete
graph is never built: Prim's algorithm keeps one best closure edge per hub
outside the tree, so the spanning tree costs O(h^2) time and O(h) memory
beyond the shortest-path maps for h hubs (at most the switch count plus
the destination), only its h - 1 paths are expanded, and no shortest-path
map is computed from a base station. A base-station leaf costs the tree
O(1) beyond its sort: no union-find step, walk or climb. Each of those h
maps costs O(switches) to build and hold, not O(nodes):
`Topology.shortest_paths_from` runs its heap over the multi-link nodes
only and reads every one-link node (base stations, engines, usually the
destination) from its neighbour.

A tree is walked by one primitive, `SteinerTree.rooted`: one walk outward
from a root giving each node its parent, depth and delay to the root. The
prune keeps each hub's climb to the first hub; admission climbs the
destination's walk once per parent switch of the leaves, from its
farthest leaf (every leaf under one parent adds the same detours in the
same order, and float addition is monotonic, so that leaf's delay is the
group's worst), and `SteinerTree.path` climbs both ends of that same walk,
so a plan walks its final tree once. A leaf is one table read and a few
dict and set operations in each stage: its switch and its link come from
one entry of `Topology.attachments`.

Compilation turns the tree into first-match flow rules, along one path
for both request forms: a manual command is a one-operation task graph
whose operation the user placed on a switch, and it may take engines as
sources. Source traffic is matched by (final destination, source) and
redirected to the engine of its operation's switch; an engine's output
re-enters the fabric addressed to the parent operation's engine (or to the
request destination at the root), so inter-stage steering needs nothing
beyond the same match tuple. A destination that is an engine is reached
the same way: the output is routed to that engine's switch, where the
request configuring the engine redirects it in. Every rule, in both modes,
comes from one loop over a node path (`_rules_along`): each switch on it
forwards to the next switch or delivers into the next node. Children of
an operation that enter at the same switch with the same final
destination take the same path, so the loop runs once per (entry switch,
final destination) and adds the whole group's sources to each rule; the
rule keys come out in the order a walk per child would add them. Baseline
(send-everything) mode feeds that loop each switch's shortest path to the
destination, once for all the sources on the switch, so no shortest-path
map is computed from a base station.

Names are put in natural order (bs2 before bs10) by `Topology.rank`,
computed once per topology, not by a `natural_key` split per sort.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

from .dsl import CoverageMap, OpNode, Request, RequestMode, TaskGraph, expand_sources
from .epb import EngineConfig
from .errors import (
    CompileError,
    NotFoundError,
    PlacementError,
    RejectedByDelay,
    UnknownNodeError,
)
from .topology import Link, NodeKind, Topology, natural_key


@dataclass(frozen=True)
class OpPlacement:
    op_node: str
    switch: str
    engine: str

    def to_doc(self) -> dict:
        return {"op": self.op_node, "switch": self.switch, "engine": self.engine}


class Rooted(NamedTuple):
    """A tree walked outward from one root: parent, depth and delay to it."""

    parent: dict[str, str | None]
    depth: dict[str, int]
    delay: dict[str, float]


@dataclass(frozen=True)
class SteinerTree:
    edges: tuple[Link, ...]  # sorted by endpoint pair
    terminals: tuple[str, ...]
    weight: float

    @cached_property
    def adjacency(self) -> dict[str, dict[str, float]]:
        adj: dict[str, dict[str, float]] = {}
        for link in self.edges:
            adj.setdefault(link.a, {})[link.b] = link.delay_ms
            adj.setdefault(link.b, {})[link.a] = link.delay_ms
        return adj

    def nodes(self) -> set[str]:
        return set(self.adjacency)

    @cached_property
    def _walks(self) -> dict[str, Rooted]:
        return {}

    def rooted(self, root: str) -> Rooted:
        """The tree walked once outward from `root`: each node's parent,
        depth and delay to `root`, summed outward (memoised per root)."""
        walk = self._walks.get(root)
        if walk is None:
            adj = self.adjacency
            if root not in adj:
                raise CompileError(f"{root!r} not on the datapath tree")
            walk = self._walks[root] = Rooted({root: None}, {root: 0}, {root: 0.0})
            parent, depth, delay = walk
            stack = [root]
            while stack:
                node = stack.pop()
                below, here = depth[node] + 1, delay[node]
                for nb, w in adj[node].items():
                    if nb not in parent:
                        parent[nb] = node
                        depth[nb] = below
                        delay[nb] = here + w
                        # a node with one link (a leaf) has nothing beyond it
                        if len(adj[nb]) > 1:
                            stack.append(nb)
        return walk

    def path(self, a: str, b: str) -> tuple[str, ...]:
        """Unique a-b path inside the tree: both ends climb an existing walk
        until they meet, and every root gives the same path."""
        parent, depth, _ = next(iter(self._walks.values()), None) or self.rooted(a)
        if a not in parent or b not in parent:
            raise CompileError(f"{a!r} or {b!r} not on the datapath tree")
        up, down = [a], [b]
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                up.append(parent[up[-1]])
            else:
                down.append(parent[down[-1]])
        return tuple(up + down[-2::-1])

    def to_doc(self) -> dict:
        return {
            "edges": [[l.a, l.b, l.delay_ms] for l in self.edges],
            "terminals": list(self.terminals),
            "weight": self.weight,
        }


class ActionKind(Enum):
    FORWARD = "forward"
    REDIRECT = "redirect"
    DELIVER = "deliver"


@dataclass(frozen=True)
class FlowRule:
    switch: str
    final_destination: str
    sources: tuple[str, ...]
    action: ActionKind
    target: str | None = None  # next hop switch or engine; None for deliver

    def matches(self) -> zip[tuple[str, str]]:
        """The (final destination, source) keys the rule matches."""
        return zip(repeat(self.final_destination), self.sources)

    def to_doc(self) -> dict:
        return {
            "switch": self.switch,
            "match": {
                "final_destination": self.final_destination,
                "sources": list(self.sources),
            },
            "action": {"type": self.action.value, "target": self.target},
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FlowRule":
        try:
            match, action = doc["match"], doc["action"]
            sources, fd = match["sources"], match["final_destination"]
            target = action.get("target")
            if not isinstance(sources, list) or not all(isinstance(s, str) for s in sources):
                raise TypeError("'sources' must be a list of names")
            if not isinstance(fd, str):
                raise TypeError("'final_destination' must be a name")
            if target is not None and not isinstance(target, str):
                raise TypeError("'target' must be a name or null")
            kind = ActionKind(action["type"])
            if kind is ActionKind.DELIVER and target is not None:
                raise ValueError("a deliver action takes no 'target'")
            return cls(doc["switch"], fd, tuple(sources), kind, target)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CompileError(f"bad flow rule document: {exc}") from None


@dataclass
class DatapathPlan:
    mode: RequestMode
    destination: str
    placements: list[OpPlacement]
    tree: SteinerTree
    rules: list[FlowRule]
    engine_configs: list[EngineConfig]
    admitted: bool
    worst_path_delay_ms: float
    # final_destination each injectable source should stamp on its packets
    source_ingress: dict[str, str] = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "mode": self.mode.value,
            "destination": self.destination,
            "placements": [p.to_doc() for p in self.placements],
            "tree": self.tree.to_doc(),
            "rules": [r.to_doc() for r in self.rules],
            "engine_configs": [
                {"engine": c.engine, "user": c.user, **c.to_doc()} for c in self.engine_configs
            ],
            "admitted": self.admitted,
            "worst_path_delay_ms": self.worst_path_delay_ms,
            "source_ingress": dict(self.source_ingress),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))


def resolve_endpoint(t: Topology, token: str) -> str:
    """Resolve a destination token; "sw5[engine]" means sw5's engine. A
    switch only forwards, so it is not a destination."""
    if token.endswith("[engine]"):
        return t.engine_of(token[: -len("[engine]")])
    if not t.has_node(token):
        raise UnknownNodeError(f"unknown destination {token!r}")
    if t.kind(token) is NodeKind.SWITCH:
        raise UnknownNodeError(f"{token!r} is a switch, not a valid destination")
    return token


# -- placement ----------------------------------------------------------------


def place_operations(tg: TaskGraph, t: Topology) -> list[OpPlacement]:
    """Assign every operation node a switch (and that switch's engine).

    Edge operations (all children are leaves) are visited left to right;
    each takes the switch of its leftmost leaf. From each edge operation the
    ancestor chain is walked upward until an already-visited ancestor stops
    it; every newly visited ancestor receives an adjacent switch of the edge
    operation's switch, skipping switches that earlier assignments took.
    Placements come back in task-graph pre-order.

    `assigned` holds every fact the walk needs: its values are the switches
    taken, and an ancestor was visited exactly when it is a key, since an
    edge operation is never an ancestor.
    """
    assigned: dict[str, str] = {}  # op node id -> switch
    for op in tg.leafonly_parents():
        edge_switch = assigned[op.node_id] = t.connected_switch(op.children[0])
        parent = tg.parent(op)
        while parent is not None and parent.node_id not in assigned:
            try:
                switch = t.adjacent_switch(edge_switch, set(assigned.values()))
            except NotFoundError:
                raise PlacementError(
                    f"no unvisited switch adjacent to {edge_switch!r} for {parent.node_id}"
                ) from None
            assigned[parent.node_id] = switch
            parent = tg.parent(parent)

    placements = []
    for op in tg.ops():
        switch = assigned[op.node_id]
        placements.append(OpPlacement(op.node_id, switch, t.engine_of(switch)))
    return placements


# -- Steiner tree ---------------------------------------------------------------


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


def steiner_tree(t: Topology, terminals: set[str] | list[str]) -> SteinerTree:
    """Metric-closure approximation of the minimum Steiner tree.

    Deterministic throughout: shortest paths break ties lexicographically,
    and closure edges are ordered by (delay, a, b), with a the endpoint
    first in natural order and the delay read from a's own distance map (a
    float sum depends on the order of its terms, so b's map can differ in
    the last bit). No two closure edges are equal under that order, so the
    minimum spanning tree is unique: Prim's tree over the closure is the one
    a Kruskal pass over all sorted closure edges would pick. The expanded
    links then get a Kruskal pass sorted by (weight, endpoints).

    Base-station terminals are collapsed onto their switches first: the
    closure, the spanning tree and the prune run over hubs, which are those
    switches plus every other terminal, and each base station's one link is
    appended at the end. Every Steiner tree must contain those links, so
    the optimum is the hub optimum plus their fixed weight, t does not
    grow, and the (2 - 2/t) bound still holds. A leaf link is a bridge: it
    closes no cycle in the Kruskal pass and the prune keeps it, so the tree
    is the one a spanning tree over hubs and leaves together would give.
    The tree keeps the original terminals as `terminals`.
    """
    names = set(terminals)
    if len(names) < 2:
        raise ValueError("steiner_tree needs at least two terminals")
    unknown = names - t.rank.keys()
    if unknown:
        raise UnknownNodeError(f"terminal {min(unknown, key=natural_key)!r} not in topology")
    rank = t.rank.__getitem__
    terms = sorted(names, key=rank)

    # hubs: each base-station terminal's switch in its place; the forced
    # leaf links are appended to the pruned hub tree below
    attachments = t.attachments
    hub_set: set[str] = set()
    leaf_links: list[Link] = []
    for x in terms:
        attached = attachments.get(x)
        if attached is None or attached[2]:  # not a base station
            hub_set.add(x)
        else:
            hub_set.add(attached[0])
            leaf_links.append(attached[3])
    hubs = sorted(hub_set, key=rank)

    # Prim over the metric closure of the hubs: the closure edge between
    # hubs[i] and hubs[j], i < j, is (delay from hubs[i]'s own map, hubs[i],
    # hubs[j]), and `outside` holds the least such edge from the tree to
    # each hub not yet in it
    dists = [t.shortest_paths_from(a)[0] for a in hubs]
    outside = {k: (dists[0][b], hubs[0], b) for k, b in enumerate(hubs) if k}
    chosen: list[tuple[float, str, str]] = []
    while outside:
        j = min(outside, key=outside.__getitem__)
        chosen.append(outside.pop(j))
        here, here_dist = hubs[j], dists[j]
        for k, best in outside.items():
            there = hubs[k]
            delay = here_dist[there] if j < k else dists[k][here]
            if delay <= best[0]:
                edge = (delay, here, there) if j < k else (delay, there, here)
                if edge < best:
                    outside[k] = edge

    expanded: dict[tuple[str, str], float] = {}
    for _, a, b in chosen:
        path = t.shortest_paths_from(a)[1][b]
        for u, v in zip(path, path[1:]):
            key = (u, v) if u <= v else (v, u)
            expanded[key] = t.link_delay(u, v)

    # the hub spanning tree, pruned to every node on some hub's climb to
    # the first hub: the smallest subtree that connects the hubs
    mst = _kruskal([(w, a, b) for (a, b), w in expanded.items()])
    hub_links = [Link(a, b, w) for w, a, b in mst]
    kept = {hubs[0]}
    if hub_links:
        spanning = SteinerTree(tuple(hub_links), tuple(hubs), sum(w for w, _, _ in mst))
        parent = spanning.rooted(hubs[0]).parent
        for node in hubs:
            while node not in kept:
                kept.add(node)
                node = parent[node]

    # every link here has a <= b, so its endpoints are its `Link.key`
    links = [l for l in hub_links if l.a in kept and l.b in kept] + leaf_links
    links.sort(key=attrgetter("a", "b"))
    return SteinerTree(
        edges=tuple(links), terminals=tuple(terms), weight=sum(map(attrgetter("delay_ms"), links))
    )


# -- delay admission ------------------------------------------------------------


def check_delay(
    t: Topology,
    tree: SteinerTree,
    leaves: list[str],
    placements: list[OpPlacement],
    destination: str,
    delay_ms: float | None,
) -> tuple[bool, float]:
    """Worst tree-path delay from any leaf to the destination, counting the
    in-and-out engine detour at every placed switch on the path. Admission
    is vacuous when no delay bound was requested."""
    placed = {p.switch: p.engine for p in placements}
    parent, _, dist = tree.rooted(destination)

    def climb(node: str | None, delay: float) -> float:
        while node is not None:
            if node in placed:
                delay += 2 * t.link_delay(node, placed[node])
            node = parent[node]
        return delay

    # leaves under one parent add the same terms in the same order above
    # it, and float addition is monotonic, so the farthest one is the worst:
    # one climb per parent, from its farthest leaf's distance. A placed
    # leaf adds a term of its own and the root has no parent; they climb
    # alone.
    farthest: dict[str, float] = {}
    worst = 0.0
    for leaf in leaves:
        delay = dist.get(leaf)
        if delay is None:
            raise CompileError(f"leaf {leaf!r} not on the datapath tree")
        up = parent[leaf]
        if up is None or leaf in placed:
            worst = max(worst, climb(leaf, delay))
        elif delay > farthest.get(up, -1.0):
            farthest[up] = delay
    for up, delay in farthest.items():
        worst = max(worst, climb(up, delay))
    return (delay_ms is None or worst <= delay_ms), worst


# -- rule compilation -----------------------------------------------------------


class _RuleBook:
    """Accumulates rules, merging source sets per (switch, match, action);
    each rule's sources come out in the topology's natural order."""

    def __init__(self, t: Topology):
        self._rank = t.rank
        self._rules: dict[tuple, list[str]] = {}

    def add(
        self, switch: str, fd: str, action: ActionKind, target: str | None, sources: list[str]
    ) -> None:
        key = (switch, fd, action, target)
        self._rules.setdefault(key, []).extend(sources)

    def rules(self) -> list[FlowRule]:
        rank = self._rank.__getitem__
        return [
            FlowRule(switch, fd, tuple(sorted(set(sources), key=rank)), action, target)
            for (switch, fd, action, target), sources in self._rules.items()
        ]


def _rules_along(
    book: _RuleBook, path: tuple[str, ...], fd: str, sources: list[str], t: Topology
) -> None:
    """Rules for the traffic of `sources` along `path`: at each switch,
    forward to the next switch, or deliver into the next node when it is
    not one."""
    for here, nxt in zip(path, path[1:]):
        if t.kind(here) is NodeKind.SWITCH:
            if t.kind(nxt) is NodeKind.SWITCH:
                book.add(here, fd, ActionKind.FORWARD, nxt, sources)
            else:
                book.add(here, fd, ActionKind.DELIVER, None, sources)


def compile_rules(
    t: Topology,
    tg: TaskGraph,
    placements: list[OpPlacement],
    tree: SteinerTree,
    destination: str,
    request: Request,
) -> tuple[list[FlowRule], list[EngineConfig], dict[str, str]]:
    """Flow rules plus engine configs realizing the placed task graph.

    Every child of an operation is a source entering the fabric at a
    switch: a child operation's engine at that operation's switch, a leaf at
    its own switch. Its traffic is routed along the tree to the operation's
    switch and redirected into the engine there. An engine source is
    matched by the consuming engine, which is where its own config
    addresses its output; a raw source by the request destination, which it
    stamps on its packets (`source_ingress`). The root's output goes to the
    destination: delivered to a host, or routed to an engine's switch, where
    the redirect of the request configuring that engine takes it.

    Children that enter at the same switch with the same final destination
    take the same path, so each operation walks one path per (entry switch,
    final destination) group, in first-seen order, for the whole group. The
    rule keys then appear in the order a walk per child would add them.
    """
    by_op = {p.op_node: p for p in placements}
    book = _RuleBook(t)
    configs: list[EngineConfig] = []
    ingress: dict[str, str] = {}
    attachments = t.attachments

    for op in tg.ops():
        placement = by_op[op.node_id]
        parent = tg.parent(op)
        cfg_sources: list[str] = []
        groups: dict[tuple[str, str], list[str]] = {}
        for child in op.children:
            if isinstance(child, OpNode):
                source, entry = by_op[child.node_id].engine, by_op[child.node_id].switch
                if source in cfg_sources:
                    raise CompileError(
                        f"siblings {op.node_id} children share engine {source}; "
                        "co-located sibling operations are not representable"
                    )
                fd = placement.engine
            else:
                attached = attachments.get(child)
                if attached is None:
                    t.connected_switch(child)  # raises: not a base station or engine
                source = child
                entry, _, is_engine, _ = attached
                fd = placement.engine if is_engine else destination
                ingress[source] = fd
            cfg_sources.append(source)
            groups.setdefault((entry, fd), []).append(source)
        for (entry, fd), sources in groups.items():
            _rules_along(book, tree.path(entry, placement.switch), fd, sources, t)
            book.add(placement.switch, fd, ActionKind.REDIRECT, placement.engine, sources)
        configs.append(
            EngineConfig(
                engine=placement.engine,
                user=request.user,
                compute=op.kind,
                sources=tuple(cfg_sources),
                destination=by_op[parent.node_id].engine if parent else destination,
                rate_ms=request.requirements.rate_ms,
                jitter_ms=request.requirements.jitter_ms,
                match_destinations=tuple(dict.fromkeys(fd for _, fd in groups)),
            )
        )

    root = by_op[tg.root.node_id]
    to_engine = t.kind(destination) is NodeKind.ENGINE
    end = t.connected_switch(destination) if to_engine else destination
    _rules_along(book, tree.path(root.switch, end), destination, [root.engine], t)

    return book.rules(), configs, ingress


def compile_baseline(t: Topology, sources: list[str], destination: str) -> list[FlowRule]:
    """Shortest-path rules from every source straight to the destination;
    no engines involved, payloads pass through unmodified. A source has one
    link, to its switch, so its route is that link plus the switch's
    shortest path, which every source on the switch shares: one walk per
    switch, in the natural order of each switch's first source."""
    switch_of = {source: t.connected_switch(source) for source in set(sources)}
    by_switch: dict[str, list[str]] = {}
    for source in sorted(switch_of, key=t.rank.__getitem__):
        by_switch.setdefault(switch_of[source], []).append(source)
    book = _RuleBook(t)
    for switch, group in by_switch.items():
        path = t.shortest_paths_from(switch)[1][destination]
        _rules_along(book, path, destination, group, t)
    return book.rules()


# -- entry point -----------------------------------------------------------------


def plan(request: Request, t: Topology, cov: CoverageMap | None = None) -> DatapathPlan:
    """Expand, place, admit, and compile one request into a DatapathPlan.

    Automated requests run the placement heuristic; manual requests use the
    user-supplied switch. Both compile through `compile_rules`. Raises
    RejectedByDelay (and compiles nothing) when the worst leaf-to-destination
    path exceeds the delay requirement.
    """
    tg = expand_sources(request, t, cov)
    destination = resolve_endpoint(t, request.destination)

    if request.mode is RequestMode.AUTOMATED:
        placements = place_operations(tg, t)
    else:
        switch = request.switch
        if switch is None or not t.has_node(switch):
            raise UnknownNodeError(f"unknown switch {request.switch!r}")
        placements = [OpPlacement(tg.root.node_id, switch, t.engine_of(switch))]

    leaves = tg.leaves()
    tree = steiner_tree(t, set(leaves) | {p.switch for p in placements} | {destination})
    # admission walks the tree from the destination; compilation's paths
    # climb that same walk
    admitted, worst = check_delay(
        t, tree, leaves, placements, destination, request.requirements.delay_ms
    )
    if not admitted:
        raise RejectedByDelay(worst, request.requirements.delay_ms)

    rules, configs, ingress = compile_rules(t, tg, placements, tree, destination, request)

    return DatapathPlan(
        mode=request.mode,
        destination=destination,
        placements=placements,
        tree=tree,
        rules=rules,
        engine_configs=configs,
        admitted=True,
        worst_path_delay_ms=worst,
        source_ingress=ingress,
    )

