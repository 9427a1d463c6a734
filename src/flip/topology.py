"""Weighted network graph that planning and simulation run against.

Nodes are base stations, switches, per-switch engines, and endpoint hosts
(destination/cloud). Links are undirected with a delay weight in
milliseconds. A loaded topology is validated once and then treated as
immutable; every query below is a pure function of it.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import NotFoundError, ParseError, ValidationError

NODE_ID_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")

# Links default to 1 ms; a switch-to-engine hop defaults to 0 ms so that
# redirecting through an engine is free unless the file says otherwise.
DEFAULT_LINK_DELAY_MS = 1.0
DEFAULT_ENGINE_LINK_DELAY_MS = 0.0


class NodeKind(Enum):
    BASE_STATION = "basestation"
    SWITCH = "switch"
    ENGINE = "engine"
    DESTINATION = "destination"
    CLOUD = "cloud"


_KIND_NAMES = {
    "basestation": NodeKind.BASE_STATION,
    "base_station": NodeKind.BASE_STATION,
    "switch": NodeKind.SWITCH,
    "engine": NodeKind.ENGINE,
    "destination": NodeKind.DESTINATION,
    "cloud": NodeKind.CLOUD,
}

_HOST_KINDS = (NodeKind.DESTINATION, NodeKind.CLOUD)


def natural_key(name: str):
    """Sort key that puts bs2 before bs10."""
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name))


def expand_range(text: str) -> list[str]:
    """Expand "bs1:bs10" to [bs1, ..., bs10] inclusive.

    Raises ValueError when the endpoints do not share an alphabetic prefix
    or the range is empty (lo > hi).
    """
    lo, _, hi = text.partition(":")
    m_lo = re.fullmatch(r"([A-Za-z][A-Za-z_-]*)(\d+)", lo)
    m_hi = re.fullmatch(r"([A-Za-z][A-Za-z_-]*)(\d+)", hi)
    if not m_lo or not m_hi or m_lo.group(1) != m_hi.group(1):
        raise ValueError(f"malformed range {text!r}")
    prefix = m_lo.group(1)
    a, b = int(m_lo.group(2)), int(m_hi.group(2))
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return [f"{prefix}{i}" for i in range(a, b + 1)]


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    delay_ms: float

    def key(self) -> tuple[str, str]:
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


class Topology:
    """Validated graph. Build a new instance instead of mutating one."""

    def __init__(self, nodes: dict[str, NodeKind], links: list[Link]):
        self._kinds = dict(nodes)
        self._adj: dict[str, dict[str, float]] = {n: {} for n in self._kinds}
        self._links: dict[tuple[str, str], Link] = {}
        for link in links:
            self._add_link(link)
        self._validate()
        self._sp_cache: dict[str, tuple[dict, dict]] = {}

    # -- construction ------------------------------------------------------

    def _add_link(self, link: Link) -> None:
        if link.a == link.b:
            raise ValidationError(f"self-link on {link.a!r}")
        for end in (link.a, link.b):
            if end not in self._kinds:
                raise ValidationError(f"link references undeclared node {end!r}")
        if link.delay_ms < 0:
            raise ValidationError(f"negative delay on link {link.a}-{link.b}")
        if link.key() in self._links:
            raise ValidationError(f"duplicate link {link.a}-{link.b}")
        self._links[link.key()] = link
        self._adj[link.a][link.b] = link.delay_ms
        self._adj[link.b][link.a] = link.delay_ms

    def _validate(self) -> None:
        if not self._kinds:
            raise ValidationError("topology has no nodes")
        for name in self._kinds:
            if not NODE_ID_RE.match(name):
                raise ValidationError(f"invalid node id {name!r}")
        # connectivity
        start = next(iter(self._kinds))
        seen = {start}
        stack = [start]
        while stack:
            for nb in self._adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if len(seen) != len(self._kinds):
            missing = sorted(set(self._kinds) - seen, key=natural_key)[:5]
            raise ValidationError(f"topology is disconnected (e.g. {missing})")
        # per-kind attachment rules
        engines_per_switch: dict[str, list[str]] = {}
        for name, kind in self._kinds.items():
            if kind in (NodeKind.BASE_STATION, NodeKind.ENGINE):
                neighbors = self._adj[name]
                if len(neighbors) != 1:
                    raise ValidationError(
                        f"{kind.value} {name!r} must have exactly one link, has {len(neighbors)}"
                    )
                (peer,) = neighbors
                if self._kinds[peer] is not NodeKind.SWITCH:
                    raise ValidationError(f"{kind.value} {name!r} must attach to a switch")
                if kind is NodeKind.ENGINE:
                    engines_per_switch.setdefault(peer, []).append(name)
        for sw, engines in engines_per_switch.items():
            if len(engines) > 1:
                raise ValidationError(f"switch {sw!r} has multiple engines: {sorted(engines)}")

    # -- basic queries -----------------------------------------------------

    def has_node(self, name: str) -> bool:
        return name in self._kinds

    def kind(self, name: str) -> NodeKind:
        try:
            return self._kinds[name]
        except KeyError:
            raise NotFoundError(f"unknown node {name!r}") from None

    def nodes_of_kind(self, kind: NodeKind) -> list[str]:
        return sorted((n for n, k in self._kinds.items() if k is kind), key=natural_key)

    def switches(self) -> list[str]:
        return self.nodes_of_kind(NodeKind.SWITCH)

    def links(self) -> list[Link]:
        return [self._links[k] for k in sorted(self._links)]

    def node_count(self) -> int:
        return len(self._kinds)

    def neighbors(self, name: str) -> dict[str, float]:
        if name not in self._adj:
            raise NotFoundError(f"unknown node {name!r}")
        return self._adj[name]

    def link_delay(self, a: str, b: str) -> float:
        try:
            return self._adj[a][b]
        except KeyError:
            raise NotFoundError(f"no link {a}-{b}") from None

    # -- planning queries --------------------------------------------------

    def connected_switch(self, n: str) -> str:
        """The unique switch adjacent to a base station or engine."""
        kind = self.kind(n)
        if kind not in (NodeKind.BASE_STATION, NodeKind.ENGINE):
            raise NotFoundError(f"{n!r} is a {kind.value}, not a base station or engine")
        for peer in self._adj[n]:
            if self._kinds[peer] is NodeKind.SWITCH:
                return peer
        raise NotFoundError(f"{n!r} has no switch neighbor")

    def engine_of(self, switch: str) -> str:
        """The engine attached to a switch."""
        if self.kind(switch) is not NodeKind.SWITCH:
            raise NotFoundError(f"{switch!r} is not a switch")
        for peer in self._adj[switch]:
            if self._kinds[peer] is NodeKind.ENGINE:
                return peer
        raise NotFoundError(f"switch {switch!r} has no engine")

    def adjacent_switch(self, s: str, visited: set[str]) -> str:
        """A deterministic adjacent switch: min link delay, ties by smallest id.

        Members of `visited` are excluded from the candidates.
        """
        if self.kind(s) is not NodeKind.SWITCH:
            raise NotFoundError(f"{s!r} is not a switch")
        candidates = [
            (w, nb)
            for nb, w in self._adj[s].items()
            if self._kinds[nb] is NodeKind.SWITCH and nb not in visited
        ]
        if not candidates:
            raise NotFoundError(f"no unvisited switch adjacent to {s!r}")
        return min(candidates)[1]

    def shortest_paths_from(self, a: str) -> tuple[dict[str, float], dict[str, tuple[str, ...]]]:
        """Dijkstra from `a`: (delay map, path map).

        Equal-delay ties resolve to the lexicographically smallest node
        sequence, so results are reproducible across runs.
        """
        if a not in self._kinds:
            raise NotFoundError(f"unknown node {a!r}")
        if a in self._sp_cache:
            return self._sp_cache[a]
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
            for nb in sorted(self._adj[node]):
                if nb not in dist:
                    heapq.heappush(heap, (d + self._adj[node][nb], p + (nb,)))
        self._sp_cache[a] = (dist, path)
        return dist, path

    def shortest_path(self, a: str, b: str) -> tuple[list[str], float]:
        if a == b:
            self.kind(a)
            return [a], 0.0
        dist, path = self.shortest_paths_from(a)
        if b not in dist:
            raise NotFoundError(f"no path {a} -> {b}")
        return list(path[b]), dist[b]


# -- file format -------------------------------------------------------------


def load_topology(doc: dict) -> Topology:
    """Build a Topology from its document form.

    Expected shape::

        {"nodes": [{"id": "sw1", "kind": "switch"},
                   {"range": "bs1:bs10", "kind": "basestation", "switch": "sw1"}],
         "links": [{"a": "bs1", "b": "sw1", "delay_ms": 1}]}

    Range entries expand to one node per id plus a link to the named switch.
    Omitted delays default to 1 ms (0 ms for engine links).
    """
    if not isinstance(doc, dict):
        raise ParseError("topology document must be an object")
    raw_nodes = doc.get("nodes")
    raw_links = doc.get("links", [])
    if not isinstance(raw_nodes, list) or not isinstance(raw_links, list):
        raise ParseError("topology document needs 'nodes' and 'links' lists")

    nodes: dict[str, NodeKind] = {}
    links: list[Link] = []

    def add_node(name, kind):
        if not isinstance(name, str) or not NODE_ID_RE.match(name):
            raise ValidationError(f"invalid node id {name!r}")
        if name in nodes:
            raise ValidationError(f"duplicate node id {name!r}")
        nodes[name] = kind

    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise ParseError(f"node entry must be an object, got {entry!r}")
        kind_name = entry.get("kind")
        if kind_name not in _KIND_NAMES:
            raise ParseError(f"unknown node kind {kind_name!r}")
        kind = _KIND_NAMES[kind_name]
        if "range" in entry:
            if kind is not NodeKind.BASE_STATION:
                raise ParseError("range entries are only for base stations")
            switch = entry.get("switch")
            if not isinstance(switch, str):
                raise ParseError(f"range entry {entry.get('range')!r} needs a 'switch'")
            try:
                names = expand_range(entry["range"])
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            delay = float(entry.get("delay_ms", DEFAULT_LINK_DELAY_MS))
            for name in names:
                add_node(name, kind)
                links.append(Link(name, switch, delay))
        elif "id" in entry:
            add_node(entry["id"], kind)
        else:
            raise ParseError(f"node entry needs 'id' or 'range': {entry!r}")

    for entry in raw_links:
        if not isinstance(entry, dict) or "a" not in entry or "b" not in entry:
            raise ParseError(f"link entry needs 'a' and 'b': {entry!r}")
        a, b = entry["a"], entry["b"]
        if "delay_ms" in entry:
            delay = float(entry["delay_ms"])
        elif NodeKind.ENGINE in (nodes.get(a), nodes.get(b)):
            delay = DEFAULT_ENGINE_LINK_DELAY_MS
        else:
            delay = DEFAULT_LINK_DELAY_MS
        links.append(Link(a, b, delay))

    return Topology(nodes, links)


def load_topology_file(path: str | Path) -> Topology:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return load_topology(doc)
