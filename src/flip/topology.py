"""Weighted network graph that planning and simulation run against.

Nodes are base stations, switches, per-switch engines, and endpoint hosts
(destination/cloud). Links are undirected with a delay weight in
milliseconds: a finite, non-negative number. A loaded topology is validated
once and then treated as immutable; every query below is a pure function of
it.

Most nodes of a large fabric have one link: every base station and engine,
and usually the destination. Shortest paths treat such a node as a pendant
of its neighbour. From a source `a`, Dijkstra runs over the multi-link
nodes and `a` only, and a one-link node `v` is read from its neighbour `s`
as `(dist[s] + w, path[s] + (v,))`. This is exact: in a heap run over every
node, that tuple is the only entry `v` can ever get, and `v` relaxes no
other node, so leaving it out changes no other entry. A source's maps then
cost O(multi-link nodes), not O(nodes).
"""

from __future__ import annotations

import heapq
import json
import re
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

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


def natural_key(name: str):
    """Sort key that puts bs2 before bs10."""
    return tuple(int(p) if p.isdigit() else p for p in re.split(r"(\d+)", name))


# a name that is one run of letters, "-" or "_" and then one run of digits,
# the shape of nearly every node id ("bs12", "e-sw3")
_LETTERS_DIGITS = re.compile(r"([A-Za-z_-]+)([0-9]+)")


def _rank_key(name: str):
    """`Topology.rank`'s order: natural order, ties ("bs01", "bs1") by name.
    A letters-then-digits name gets `natural_key`'s tuple from one match;
    any other name is split by `natural_key` itself."""
    m = _LETTERS_DIGITS.fullmatch(name)
    if m is None:
        return natural_key(name), name
    return (m[1], int(m[2]), ""), name


def parse_range(text: str) -> tuple[str, int, int]:
    """The prefix and inclusive bounds of "bs1:bs10", ("bs", 1, 10), checked
    without building the names.

    Raises ValueError when the endpoints do not share an alphabetic prefix
    or the range is empty (lo > hi).
    """
    lo, _, hi = text.partition(":")
    m_lo = re.fullmatch(r"([A-Za-z][A-Za-z_-]*)(\d+)", lo)
    m_hi = re.fullmatch(r"([A-Za-z][A-Za-z_-]*)(\d+)", hi)
    if not m_lo or not m_hi or m_lo.group(1) != m_hi.group(1):
        raise ValueError(f"malformed range {text!r}")
    a, b = int(m_lo.group(2)), int(m_hi.group(2))
    if a > b:
        raise ValueError(f"empty range {text!r}")
    return m_lo.group(1), a, b


def expand_range(text: str) -> list[str]:
    """Expand "bs1:bs10" to [bs1, ..., bs10] inclusive; raises ValueError
    as `parse_range` does."""
    prefix, a, b = parse_range(text)
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
        self._sp_cache: dict[str, tuple[Mapping, Mapping]] = {}
        # kind -> its nodes in rank order, sorted on the kind's first query
        self._kind_order: dict[NodeKind, tuple[str, ...]] = {}

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
        """The nodes of one kind in `rank` order. Each kind is sorted once,
        on its first query, without building the rank of every node."""
        order = self._kind_order.get(kind)
        if order is None:
            nodes = [n for n, k in self._kinds.items() if k is kind]
            order = self._kind_order[kind] = tuple(sorted(nodes, key=_rank_key))
        return list(order)

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

    @cached_property
    def _one_link(self) -> dict[str, tuple[str, float]]:
        """Each node with exactly one link: (its neighbour, the link's delay)."""
        return {n: next(iter(nbs.items())) for n, nbs in self._adj.items() if len(nbs) == 1}

    @cached_property
    def _multi_link_neighbors(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """Each node's neighbours that have more than one link, with the
        link delays, sorted by neighbour."""
        return {
            n: tuple(sorted((nb, w) for nb, w in nbs.items() if len(self._adj[nb]) > 1))
            for n, nbs in self._adj.items()
        }

    @cached_property
    def attachments(self) -> Mapping[str, tuple[str, float, bool, Link]]:
        """Read-only table of each base station and engine: (its switch,
        the link's delay, whether it is an engine, its one link with the
        endpoints in string order, a <= b). Built on first use."""
        # validation gave each of them exactly one link, to a switch
        table = {}
        for n, kind in self._kinds.items():
            if kind in (NodeKind.BASE_STATION, NodeKind.ENGINE):
                switch, delay = next(iter(self._adj[n].items()))
                link = self._links[(n, switch) if n <= switch else (switch, n)]
                if link.a > link.b:
                    link = Link(link.b, link.a, delay)
                table[n] = (switch, delay, kind is NodeKind.ENGINE, link)
        return MappingProxyType(table)

    @cached_property
    def rank(self) -> Mapping[str, int]:
        """Read-only position of every node in `natural_key` order, so a
        sort of node names needs no regex split. Built on first use; names
        with equal keys ("bs01", "bs1") are ordered by the name itself."""
        ordered = sorted(self._kinds, key=_rank_key)
        return MappingProxyType({n: i for i, n in enumerate(ordered)})

    def connected_switch(self, n: str) -> str:
        """The unique switch adjacent to a base station or engine."""
        attached = self.attachments.get(n)
        if attached is None:
            raise NotFoundError(f"{n!r} is a {self.kind(n).value}, not a base station or engine")
        return attached[0]

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

    def shortest_paths_from(self, a: str) -> tuple[Mapping[str, float], Mapping[str, tuple[str, ...]]]:
        """Dijkstra from `a`: read-only (delay map, path map) over every node.

        Equal-delay ties resolve to the lexicographically smallest node
        sequence, so results are reproducible across runs.

        Only `a` and the multi-link nodes go through the heap. Each map
        answers a one-link node `v` from its neighbour `s`: delay
        `dist[s] + w` and path `path[s] + (v,)`, the only entry a heap run
        over every node could give `v`, so both maps hold the same floats
        and tuples as that run. The maps are cached per source.
        """
        if a not in self._kinds:
            raise NotFoundError(f"unknown node {a!r}")
        if a in self._sp_cache:
            return self._sp_cache[a]
        neighbors = self._multi_link_neighbors
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
            for nb, w in neighbors[node]:
                if nb not in dist:
                    heapq.heappush(heap, (d + w, p + (nb,)))
        size, one_link = len(self._kinds), self._one_link
        maps = (_DelayMap(dist, one_link, size), _PathMap(path, one_link, size))
        self._sp_cache[a] = maps
        return maps


class _FromOneSource(Mapping):
    """A read-only map over every node of a connected topology, from one
    source: `core` holds the nodes the heap reached, and a one-link node
    outside it is answered from its neighbour's entry by `_extend`."""

    __slots__ = ("_core", "_one_link", "_size")

    def __init__(self, core: dict, one_link: dict[str, tuple[str, float]], size: int):
        self._core = core
        self._one_link = one_link
        self._size = size

    def __getitem__(self, node):
        value = self._core.get(node)
        if value is None:
            peer, delay = self._one_link[node]
            value = self._extend(self._core[peer], node, delay)
        return value

    def __contains__(self, node) -> bool:
        return node in self._core or node in self._one_link

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        yield from self._core
        for node in self._one_link:
            if node not in self._core:
                yield node


class _DelayMap(_FromOneSource):
    __slots__ = ()

    @staticmethod
    def _extend(delay_to_peer: float, node: str, delay: float) -> float:
        return delay_to_peer + delay


class _PathMap(_FromOneSource):
    __slots__ = ()

    @staticmethod
    def _extend(path_to_peer: tuple[str, ...], node: str, delay: float) -> tuple[str, ...]:
        return path_to_peer + (node,)


# -- file format -------------------------------------------------------------


def load_topology(doc: dict) -> Topology:
    """Build a Topology from its document form.

    Expected shape::

        {"nodes": [{"id": "sw1", "kind": "switch"},
                   {"range": "bs1:bs10", "kind": "basestation", "switch": "sw1"}],
         "links": [{"a": "bs1", "b": "sw1", "delay_ms": 1}]}

    Range entries expand to one node per id plus a link to the named switch.
    Omitted delays default to 1 ms (0 ms for engine links). A given delay
    must be a finite, non-negative int or float (not a bool).
    """
    if not isinstance(doc, dict):
        raise ParseError("topology document must be an object")
    raw_nodes = doc.get("nodes")
    raw_links = doc.get("links", [])
    if not isinstance(raw_nodes, list) or not isinstance(raw_links, list):
        raise ParseError("topology document needs 'nodes' and 'links' lists")

    nodes: dict[str, NodeKind] = {}
    links: list[Link] = []

    def delay_of(value, a, b) -> float:
        # bool is excluded by type; the bound rejects NaN, infinities and
        # ints that do not fit a float
        if type(value) in (int, float) and 0 <= value <= sys.float_info.max:
            return float(value)
        raise ValidationError(
            f"delay_ms on link {a}-{b} must be a finite, non-negative number, got {value!r}"
        )

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
        try:
            kind = NodeKind(kind_name)
        except ValueError:
            raise ParseError(f"unknown node kind {kind_name!r}") from None
        if "range" in entry:
            if kind is not NodeKind.BASE_STATION:
                raise ParseError("range entries are only for base stations")
            switch = entry.get("switch")
            if not isinstance(switch, str):
                raise ParseError(f"range entry {entry.get('range')!r} needs a 'switch'")
            if not isinstance(entry["range"], str):
                raise ParseError(f"range must be a string like 'bs1:bs10': {entry!r}")
            try:
                names = expand_range(entry["range"])
            except ValueError as exc:
                raise ParseError(str(exc)) from None
            delay = delay_of(entry.get("delay_ms", DEFAULT_LINK_DELAY_MS), names[0], switch)
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
        if not isinstance(a, str) or not isinstance(b, str):
            raise ParseError(f"link endpoints must be node ids: {entry!r}")
        if "delay_ms" in entry:
            delay = delay_of(entry["delay_ms"], a, b)
        elif NodeKind.ENGINE in (nodes.get(a), nodes.get(b)):
            delay = DEFAULT_ENGINE_LINK_DELAY_MS
        else:
            delay = DEFAULT_LINK_DELAY_MS
        links.append(Link(a, b, delay))

    return Topology(nodes, links)


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text; text that is not UTF-8 is a ParseError naming
    the file. A file that cannot be read raises its OSError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_json(path: str | Path):
    """The document in a JSON file; a malformed file is a ParseError
    naming the file."""
    try:
        return json.loads(read_text(path))
    except ValueError as exc:  # not JSON, or an int of more digits than int() takes
        raise ParseError(f"{path}: {exc}") from None


def load_topology_file(path: str | Path) -> Topology:
    return load_topology(read_json(path))
