"""Map task graphs onto the switch fabric and compile datapaths.

Placement walks the task graph bottom-up: every operation whose children
are all leaves lands on the switch of its leftmost leaf, and each not yet
visited ancestor gets a deterministic adjacent switch, anchored at the
originating edge switch and excluding switches already claimed by earlier
assignments. This is deliberately literal (an op sits with its leftmost
leaf even when other children attach elsewhere); the trade of optimality
for predictability is intentional.

The datapath tree is the classic metric-closure Steiner approximation:
complete graph over the terminals weighted by shortest-path delay, minimum
spanning tree, expansion back to real paths, then pruning of non-terminal
leaves. Its weight is within (2 - 2/t) of the optimal tree for t terminals.

Compilation turns the tree into first-match flow rules. Source traffic is
matched by (final destination, source) and redirected to the engine of its
operation's switch; an engine's output re-enters the fabric addressed to
the parent operation's engine (or to the request destination at the root),
so inter-stage steering needs nothing beyond the same match tuple.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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


@dataclass(frozen=True)
class SteinerTree:
    edges: tuple[Link, ...]  # sorted by endpoint pair
    terminals: tuple[str, ...]
    weight: float

    @cached_property
    def _adjacency(self) -> dict[str, dict[str, float]]:
        adj: dict[str, dict[str, float]] = {}
        for link in self.edges:
            adj.setdefault(link.a, {})[link.b] = link.delay_ms
            adj.setdefault(link.b, {})[link.a] = link.delay_ms
        return adj

    def adjacency(self) -> dict[str, dict[str, float]]:
        return self._adjacency

    def nodes(self) -> set[str]:
        out = set()
        for link in self.edges:
            out.add(link.a)
            out.add(link.b)
        return out

    def path(self, a: str, b: str) -> list[str]:
        """Unique a-b path inside the tree."""
        if a == b:
            return [a]
        adj = self.adjacency()
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
        return path[::-1]

    def path_delay(self, a: str, b: str) -> float:
        adj = self.adjacency()
        path = self.path(a, b)
        return sum(adj[u][v] for u, v in zip(path, path[1:]))

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

    def matches(self, final_destination: str, source: str) -> bool:
        return final_destination == self.final_destination and source in self.sources

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
            return cls(
                switch=doc["switch"],
                final_destination=doc["match"]["final_destination"],
                sources=tuple(doc["match"]["sources"]),
                action=ActionKind(doc["action"]["type"]),
                target=doc["action"].get("target"),
            )
        except (KeyError, TypeError, ValueError) as exc:
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
            "source_ingress": dict(sorted(self.source_ingress.items(), key=lambda kv: kv[0])),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))


def resolve_endpoint(t: Topology, token: str) -> str:
    """Resolve a destination token; "sw5[engine]" means sw5's engine."""
    if token.endswith("[engine]"):
        return t.engine_of(token[: -len("[engine]")])
    if not t.has_node(token):
        raise UnknownNodeError(f"unknown destination {token!r}")
    return token


# -- placement ----------------------------------------------------------------


def place_operations(tg: TaskGraph, t: Topology) -> list[OpPlacement]:
    """Assign every operation node a switch (and that switch's engine).

    Edge operations (all children are leaves) are visited left to right;
    each takes the switch of its leftmost leaf. From each edge operation the
    ancestor chain is walked upward until an already-visited ancestor stops
    it; every newly visited ancestor receives an adjacent switch of the edge
    operation's switch, skipping switches claimed by earlier assignments.
    Placements come back in task-graph pre-order.
    """
    edge_ops = tg.leafonly_parents()
    assigned: dict[str, str] = {}  # op node id -> switch
    claimed: list[str] = []  # switches in assignment order, drives exclusion
    visited_ops: set[str] = set()

    def claim(op_id: str, switch: str) -> None:
        assigned[op_id] = switch
        if switch not in claimed:
            claimed.append(switch)

    for op in edge_ops:
        leftmost = op.children[0]
        if isinstance(leftmost, OpNode):  # leafonly parents never hit this
            raise PlacementError(f"{op.node_id} has a non-leaf leftmost child")
        edge_switch = t.connected_switch(leftmost)
        claim(op.node_id, edge_switch)
        parent = tg.parent(op)
        while parent is not None:
            if parent.node_id in visited_ops:
                break
            visited_ops.add(parent.node_id)
            try:
                switch = t.adjacent_switch(edge_switch, set(claimed))
            except NotFoundError as exc:
                raise PlacementError(
                    f"no unvisited switch adjacent to {edge_switch!r} for {parent.node_id}"
                ) from None
            claim(parent.node_id, switch)
            parent = tg.parent(parent)

    placements = []
    for op in tg.ops():
        if op.node_id not in assigned:
            raise PlacementError(f"operation {op.node_id} was never assigned a switch")
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

    Deterministic throughout: shortest paths break ties lexicographically
    and both spanning-tree passes sort edges by (weight, endpoints).
    """
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
    # one traversal rooted at the destination covers every leaf path
    adj = tree.adjacency()
    if destination not in adj:
        raise CompileError(f"destination {destination!r} not on the datapath tree")
    dist = {destination: 0.0}
    parent: dict[str, str | None] = {destination: None}
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
        node: str | None = leaf
        while node is not None:
            if node in placed:
                delay += 2 * t.link_delay(node, placed[node])
            node = parent[node]
        worst = max(worst, delay)
    return (delay_ms is None or worst <= delay_ms), worst


# -- rule compilation -----------------------------------------------------------


class _RuleBook:
    """Accumulates rules, merging source sets per (switch, match, action)."""

    def __init__(self):
        self._rules: dict[tuple, list] = {}

    def add(self, switch: str, fd: str, action: ActionKind, target: str | None, source: str):
        key = (switch, fd, action, target)
        self._rules.setdefault(key, []).append(source)

    def rules(self) -> list[FlowRule]:
        out = []
        for (switch, fd, action, target), sources in self._rules.items():
            ordered = tuple(sorted(set(sources), key=natural_key))
            out.append(FlowRule(switch, fd, ordered, action, target))
        return out


def _route_along(
    book: _RuleBook, tree: SteinerTree, fd: str, source: str, start: str, end: str, t: Topology
) -> None:
    """Forward rules for `source`'s traffic from switch `start` to switch `end`."""
    path = tree.path(start, end)
    for here, nxt in zip(path, path[1:]):
        if t.kind(here) is NodeKind.SWITCH:
            book.add(here, fd, ActionKind.FORWARD, nxt, source)


def _deliver_along(
    book: _RuleBook, tree: SteinerTree, source: str, start: str, destination: str, t: Topology
) -> None:
    """Forward rules for `source`'s output from switch `start` to the
    destination host, delivering at the last switch."""
    path = tree.path(start, destination)
    for here, nxt in zip(path, path[1:]):
        if t.kind(nxt) is NodeKind.SWITCH:
            book.add(here, destination, ActionKind.FORWARD, nxt, source)
        else:
            book.add(here, destination, ActionKind.DELIVER, None, source)


def compile_rules(
    t: Topology,
    tg: TaskGraph,
    placements: list[OpPlacement],
    tree: SteinerTree,
    destination: str,
    request: Request,
) -> tuple[list[FlowRule], list[EngineConfig], dict[str, str]]:
    """Flow rules plus engine configs realizing the placed task graph.

    Raw leaf packets carry the request destination; every engine output is
    addressed to the next engine up the chain (the request destination at
    the root), which is also what its packets' source field and the first
    matching rule steer by.
    """
    by_op = {p.op_node: p for p in placements}
    book = _RuleBook()
    configs: list[EngineConfig] = []
    ingress: dict[str, str] = {}

    for op in tg.ops():
        placement = by_op[op.node_id]
        parent = tg.parent(op)
        out_dest = by_op[parent.node_id].engine if parent else destination
        cfg_sources: list[str] = []
        match_fds: list[str] = []
        for child in op.children:
            if isinstance(child, OpNode):
                child_pl = by_op[child.node_id]
                if child_pl.engine in cfg_sources:
                    raise CompileError(
                        f"siblings {op.node_id} children share engine {child_pl.engine}; "
                        "co-located sibling operations are not representable"
                    )
                cfg_sources.append(child_pl.engine)
                if placement.engine not in match_fds:
                    match_fds.append(placement.engine)
                _route_along(
                    book,
                    tree,
                    placement.engine,
                    child_pl.engine,
                    child_pl.switch,
                    placement.switch,
                    t,
                )
                book.add(
                    placement.switch,
                    placement.engine,
                    ActionKind.REDIRECT,
                    placement.engine,
                    child_pl.engine,
                )
            else:
                cfg_sources.append(child)
                if destination not in match_fds:
                    match_fds.append(destination)
                ingress[child] = destination
                _route_along(
                    book, tree, destination, child, t.connected_switch(child), placement.switch, t
                )
                book.add(
                    placement.switch, destination, ActionKind.REDIRECT, placement.engine, child
                )
        configs.append(
            EngineConfig(
                engine=placement.engine,
                user=request.user,
                compute=op.kind,
                sources=tuple(cfg_sources),
                destination=out_dest,
                rate_ms=request.requirements.rate_ms,
                jitter_ms=request.requirements.jitter_ms,
                match_destinations=tuple(match_fds),
            )
        )

    # root output: engine -> destination host
    root_pl = by_op[tg.root.node_id]
    _deliver_along(book, tree, root_pl.engine, root_pl.switch, destination, t)

    return book.rules(), configs, ingress


def compile_baseline(t: Topology, sources: list[str], destination: str) -> list[FlowRule]:
    """Shortest-path rules from every source straight to the destination;
    no engines involved, payloads pass through unmodified."""
    book = _RuleBook()
    for source in sorted(set(sources), key=natural_key):
        path, _ = t.shortest_path(source, destination)
        for here, nxt in zip(path, path[1:]):
            if t.kind(here) is not NodeKind.SWITCH:
                continue
            if nxt == destination:
                book.add(here, destination, ActionKind.DELIVER, None, source)
            else:
                book.add(here, destination, ActionKind.FORWARD, nxt, source)
    return book.rules()


# -- entry point -----------------------------------------------------------------


def plan(request: Request, t: Topology, cov: CoverageMap | None = None) -> DatapathPlan:
    """Expand, place, admit, and compile one request into a DatapathPlan.

    Automated requests run the placement heuristic; manual requests use the
    user-supplied switch. Raises RejectedByDelay (and compiles nothing)
    when the worst leaf-to-destination path exceeds the delay requirement.
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

    terminals = set(tg.leaves()) | {p.switch for p in placements} | {destination}
    tree = steiner_tree(t, terminals)
    admitted, worst = check_delay(
        t, tree, tg.leaves(), placements, destination, request.requirements.delay_ms
    )
    if not admitted:
        raise RejectedByDelay(worst, request.requirements.delay_ms)

    if request.mode is RequestMode.AUTOMATED:
        rules, configs, ingress = compile_rules(t, tg, placements, tree, destination, request)
    else:
        rules, configs, ingress = _compile_manual(t, tg, placements[0], tree, destination, request)

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


def _compile_manual(
    t: Topology,
    tg: TaskGraph,
    placement: OpPlacement,
    tree: SteinerTree,
    destination: str,
    request: Request,
) -> tuple[list[FlowRule], list[EngineConfig], dict[str, str]]:
    """One-op manual command: route sources to the chosen switch, redirect
    to its engine, and forward the output toward the destination.

    Raw sources stamp the command's destination on their packets; engine
    sources arrive stamped with this command's engine (their own upstream
    config's destination), mirroring chained multi-part requests. When the
    destination itself is an engine, the final redirect belongs to the
    command configuring that engine, so forwarding stops at its switch.
    """
    book = _RuleBook()
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
