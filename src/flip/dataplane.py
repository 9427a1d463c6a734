"""Deterministic discrete-event switch fabric.

Events pop in (timestamp, insertion sequence) order, so a run is a pure
function of the installed rules, the configs, and the injected workload.
One loop drains them, `run()` until none is left and `step()` one at a
time, tracing on or off: it handles each event in place and schedules at
most one more, an engine's timer or the end of its output packet's walk,
numbered after every event made before it. It keeps the next event in
hand and passes the scheduled one to `heapq.heappushpop`, which returns it
untouched when it is the earliest and otherwise swaps it for the earliest
in one sift: one heap operation per event, not a push and a pop. `step()`
pushes what its one event scheduled, so between steps the queue holds
every pending event. An event is a flat tuple: a walk's end is (time,
sequence, kind, node, packet, walk, start), a timer (deadline, sequence,
`_TIMEOUT`, engine, token). No two events share a (time, sequence) key,
so both drains run the same events in the same order.

Switches have no queues and rules change only between commands, so where
and when a packet ends is fixed when it enters: a packet's walk through
the switches is one event, after ns-3's Nix-Vector routing (Riley, Ammar
& Fujimoto, MASCOTS 2000). Each (node the packet enters at, final
destination, source) is compiled into a walk on first use (see `Walks`):
its end (delivery at a host, arrival at an engine, or a drop), the link
delays in hop order, and per switch the rule it matched. `inject` and an
engine's output add the delays to the start time one at a time, in hop
order, so every time is the float a hop-by-hop run sums; count the packet
on its walk; and queue the walk's one end event. A loop is walked to the
hop limit, the topology's node count, when the walk is built. A packet
keeps the walk it entered with: a table edit changes only packets that
start after it.

Switch lookup is first-match-wins over (final destination, source), the
keys `FlowRule.matches` gives: one dict access into a per-table index,
built by `packets.first_match` on the first walk built after a change,
returns the rule and its position together. Installation checks each
target once: it must be a neighbour of the rule's switch, a deliver
rule's target being its final destination (a deliver names no target of
its own), and of the right kind, so a forward always reaches a switch and
a redirect an engine. It also refuses a rule that would shadow a redirect
or be shadowed by one. Where a base station or engine attaches (its
switch, the link's delay, whether it is an engine, the link) comes from
the topology's read-only attachment table. An engine returns None for an
arrival it buffered or discarded, which ends the event at once, else its
output packet or its new epoch's (deadline, token). Trace records are
built only when tracing is on; a walk's end event first appends its
`forward` and `redirect` entries, each at the time the packet reached
that switch, then its own. `inject` refuses a packet stamped inf or NaN,
before it numbers or queues anything.

A miss drops the packet and bumps a counter rather than erroring, since
misses usually mean a plan bug worth surfacing in stats. So is a packet
that has entered more switches than the topology has nodes, which only a
forwarding loop does: no packet stops the fabric. Every drop's trace event
names its reason (`no_rule` or `hop_limit`) and the packet's user and final
destination.

Counting model: a switch's packet count is the number of packets entering
it over network links. Re-entries from the switch's own engine are not
counted (they are engine-port traffic, visible in the port counters), which
keeps the per-switch numbers comparable between engine-assisted and
baseline runs. The report's total packet hops is the sum of these per-switch
counts under the same destination filter. Switch counters are written
back: a walk counts the packets started on it, and that count is folded
into its switches' rule, rx, ingress and tx counters when a counter is
read (`stats()`, `FlowTable.counters`) and before any table change, which
then drops every walk. So counters count a packet when its walk starts
and lead the queue between `step()`s; after a drain they are the same.

A redirect owns its match: no other rule on its switch shares a (final
destination, source) with it unless it redirects to the same engine.
Forwards and delivers may overlap and stay first-match. A packet that
matches no config at its engine is counted there as `no_config`.

Each count is read from the one structure that holds it: packets in
flight are the walk end events left on the queue, delivered packets the
delivery list, drops the per-switch drop counts, and engine output the
engines' own `emitted` counters. The fabric itself counts only injections.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from pathlib import Path

from .epb import SETTLED, ConfigStore, Engine
from .errors import ConflictError, FlipError, UnknownNodeError, UnknownSwitchError, ValidationError
from .packets import PacketRecord, first_match
from .planner import ActionKind, FlowRule
from .topology import NodeKind, Topology

_ARRIVE = "arrive"  # a walk's end at a host
_ENGINE = "engine"  # a walk's end in an engine
_DROP = "drop"  # a walk's end at a switch that drops it
_TIMEOUT = "timeout"
_DELIVER, _REDIRECT = ActionKind.DELIVER, ActionKind.REDIRECT


class FlowTable:
    """Ordered rule list with per-rule match counters; first match wins.

    The first matching rule for each (final destination, source) is read
    from an index built on the first match after a change and dropped by
    every change, so a lookup costs one dict access however many rules and
    sources the table holds. On a fabric, the table shares the fabric's
    walks: reading `counters` folds the packets started on them in first,
    and every change folds them and drops them all before it edits.
    """

    def __init__(self, switch: str, walks: Walks | None = None):
        self.switch = switch
        self.rules: list[FlowRule] = []
        self._counters: list[int] = []
        self._walks = walks
        self._installed: set[FlowRule] = set()
        self._first: dict[tuple[str, str], tuple[int, FlowRule]] | None = None

    @property
    def counters(self) -> list[int]:
        """Packets matched per rule, in rule order, every walk started folded in."""
        if self._walks is not None:
            self._walks.fold()
        return self._counters

    def _changing(self) -> None:
        """Fold the walks' counts in at today's positions, then drop every walk
        and the index: the rules are about to change."""
        if self._walks is not None:
            self._walks.drop()
        self._first = None

    def add(self, rule: FlowRule) -> bool:
        """Append unless an identical rule is already present."""
        if rule in self._installed:
            return False
        self._changing()
        self._installed.add(rule)
        self.rules.append(rule)
        self._counters.append(0)
        return True

    def match(self, packet: PacketRecord):
        """The first matching rule as (its position, the rule), or None."""
        first = self._first
        if first is None:
            first = self._index()
        return first.get((packet.final_destination, packet.source))

    def _index(self) -> dict[tuple[str, str], tuple[int, FlowRule]]:
        """(final destination, source) -> (position, rule) of its first matching rule."""
        first = self._first = first_match([(rule.matches(), (i, rule)) for i, rule in enumerate(self.rules)])
        return first

    def clash(self, rule: FlowRule, replacing: int | None = None) -> tuple[int, FlowRule] | None:
        """The first rule, other than the one at `replacing`, that shares a
        (final destination, source) with rule where either redirects and
        the two differ in action or target, as (its position, the rule);
        None for a rule already installed."""
        if not self.rules or rule in self._installed:
            return None
        redirect, sources = rule.action is ActionKind.REDIRECT, None
        for index, other in enumerate(self.rules):
            if (
                other.final_destination == rule.final_destination
                and (redirect or other.action is ActionKind.REDIRECT)
                and (other.action, other.target) != (rule.action, rule.target)
                and index != replacing
            ):
                sources = sources or set(rule.sources)
                if not sources.isdisjoint(other.sources):
                    return index, other
        return None

    def replace(self, index: int, rule: FlowRule) -> None:
        """Put rule at index in place of the rule there, with a zeroed
        counter. A rule installed at another index is refused."""
        old = self.rules[index]
        if rule != old and rule in self._installed:
            raise ValidationError(
                f"rule already installed on {self.switch} at index {self.rules.index(rule)}"
            )
        self._changing()
        self._installed.discard(old)
        self._installed.add(rule)
        self.rules[index] = rule
        self._counters[index] = 0

    def remove(self, index: int) -> FlowRule:
        self._changing()
        rule = self.rules.pop(index)
        self._counters.pop(index)
        self._installed.discard(rule)
        return rule

    def clear(self) -> int:
        self._changing()
        n = len(self.rules)
        self.rules.clear()
        self._counters.clear()
        self._installed.clear()
        return n


class Walks(dict):
    """A fabric's walks, keyed (node the packet enters at, final
    destination, source), and the switch counters they fold into.

    A walk is a list: [packets started on it since the last fold, its end
    event's kind, the end node, the link delays in hop order, its hops,
    the drop reason or None]. The hops are one flat tuple of five fields
    per switch entered: the switch, the node the packet came from, whether
    that was an engine, the matched rule's position and the rule's target;
    a switch where no rule matched has None for the last two. `counts`
    holds per switch its table's rule counters and its rx (by the port's
    neighbour), ingress (network-port arrivals, by final destination) and
    tx (by neighbour) counters. The cache holds no table and no fabric.
    """

    __slots__ = ("counts",)

    def fold(self) -> None:
        """Add each walk's started packets to the counters of every switch it
        enters, and zero its count."""
        counts = self.counts
        for (_, fd, _), walk in self.items():
            n = walk[0]
            if not n:
                continue
            walk[0] = 0
            hops = walk[4]
            for i in range(0, len(hops), 5):
                switch, via, from_engine, index, target = hops[i : i + 5]
                rules, rx, ingress, tx = counts[switch]
                rx[via] += n
                if not from_engine:
                    ingress[fd] += n
                if index is not None:
                    rules[index] += n
                    tx[target] += n

    def drop(self) -> None:
        """Fold, then forget every walk; packets on their way keep theirs."""
        self.fold()
        self.clear()


@dataclass
class StatsReport:
    filter_destination: str | None
    switch_counts: dict[str, int]
    total_packet_hops: int
    port_rx: dict[str, dict[str, int]]
    port_tx: dict[str, dict[str, int]]
    rule_counters: dict[str, list[int]]
    drops: dict[str, int]
    injected: int
    emitted: int
    delivered: int
    dropped: int
    engine_counters: dict[str, dict[str, int]]

    def to_doc(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))


class Fabric:
    """The simulated switch fabric plus its engines and event queue."""

    def __init__(
        self,
        topology: Topology,
        config_store: ConfigStore | None = None,
        trace: bool = False,
    ):
        self.topology = topology
        self.store = config_store if config_store is not None else ConfigStore()
        self.engines = {
            e: Engine(e, self.store) for e in topology.nodes_of_kind(NodeKind.ENGINE)
        }
        self._walks = walks = Walks()
        self.tables = {s: FlowTable(s, walks) for s in topology.switches()}
        walks.counts = {
            s: (t._counters, defaultdict(int), defaultdict(int), defaultdict(int)) for s, t in self.tables.items()
        }
        self._hop_limit = topology.node_count()
        self._heap: list[tuple] = []
        self._seq = 0
        self._uid = 0
        self.now = 0.0
        self.injected = 0
        self._drops: dict[str, int] = {s: 0 for s in self.tables}
        self.delivered: list[dict] = []
        self.trace: list[dict] | None = [] if trace else None

    # -- event plumbing --

    def _trace(self, time_ms: float, event: str, **detail) -> None:
        """Record one trace event. Callers check that tracing is on first,
        so a run without it builds no event details."""
        self.trace.append({"t": time_ms, "event": event, **detail})

    def pending_events(self) -> int:
        return len(self._heap)

    # -- commands --

    def check_rules(self, rules: list[FlowRule], replacing: int | None = None) -> None:
        """Raise for a rule on an unknown switch, with a target that is not
        adjacent to its switch, or with a target of the wrong kind: a
        forward goes to a switch and a redirect to an engine. A deliver
        rule's target is its final destination. Then raise a ConflictError
        for a rule that clashes with an installed rule other than the one
        it replaces at `replacing` (see `FlowTable.clash`). The rules are
        not checked against each other."""
        for rule in rules:
            if rule.switch not in self.tables:
                raise UnknownSwitchError(f"unknown switch {rule.switch!r}")
            action = rule.action
            target = rule.final_destination if action is ActionKind.DELIVER else rule.target
            if target not in self.topology.neighbors(rule.switch):
                raise UnknownSwitchError(f"rule target {target!r} is not adjacent to {rule.switch!r}")
            if action is ActionKind.FORWARD and target not in self.tables:
                raise ValidationError(f"forward target {target!r} on {rule.switch!r} is not a switch")
            if action is ActionKind.REDIRECT and target not in self.engines:
                raise ValidationError(f"redirect target {target!r} on {rule.switch!r} is not an engine")
            clash = self.tables[rule.switch].clash(rule, replacing)
            if clash is not None:
                index, other = clash
                shared = next(s for s in rule.sources if s in other.sources)
                raise ConflictError(
                    f"{action.value} on {rule.switch!r} for ({rule.final_destination!r}, {shared!r})"
                    f" clashes with the {other.action.value} at index {index}"
                )

    def install_rules(self, rules: list[FlowRule]) -> int:
        """Append rules, skipping exact duplicates. All-or-nothing on
        validation: one bad rule fails the whole batch."""
        self.check_rules(rules)
        added = 0
        for rule in rules:
            if self.tables[rule.switch].add(rule):
                added += 1
        return added

    def inject(self, p: PacketRecord, at: str) -> int:
        """Enqueue a packet published by a base station or engine output; it
        reaches the attached switch one link delay later. A packet stamped
        inf or NaN is refused before anything is numbered or queued."""
        if at not in self.topology.attachments:
            kind = self.topology.kind(at)  # NotFoundError for an unknown node
            raise UnknownNodeError(f"{at!r} is a {kind.value}; packets enter at base stations or engines")
        published = p.timestamp_ms
        if not math.isfinite(published):
            raise ValidationError(f"packet from {p.source!r} has a non-finite timestamp {published!r}")
        self._uid = p.uid = self._uid + 1
        self.injected += 1
        if self.trace is not None:
            self._trace(published, "inject", node=at, uid=p.uid, source=p.source)
        key = (at, p.final_destination, p.source)
        walk = self._walks.get(key)
        if walk is None:
            walk = self._walks[key] = self._walk(at, p)
        walk[0] += 1
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (reduce(add, walk[3], published), seq, walk[1], walk[2], p, walk, published))
        return seq

    def _emit(self, p: PacketRecord, at: str, start: float) -> tuple:
        """Number an engine's output packet, count it on its walk from the
        engine, built on first use, and return the walk's one end event: its
        time is start plus each link delay in hop order, the sums a
        hop-by-hop run makes."""
        self._uid = p.uid = self._uid + 1
        key = (at, p.final_destination, p.source)
        walk = self._walks.get(key)
        if walk is None:
            walk = self._walks[key] = self._walk(at, p)
        walk[0] += 1
        self._seq = seq = self._seq + 1
        return (reduce(add, walk[3], start), seq, walk[1], walk[2], p, walk, start)

    def _walk(self, at: str, p: PacketRecord) -> list:
        """p's walk from `at` through the switches' tables as they are now,
        in the form `Walks` describes: to a host (`_ARRIVE`), into an engine
        (`_ENGINE`), or to a drop (`_DROP`) at a switch with no matching rule
        or at the switch past the hop limit, which only a forwarding loop
        reaches."""
        switch, delay, from_engine, _ = self.topology.attachments[at]
        delays, hops, via = [delay], [], at
        for _ in range(self._hop_limit):
            hit = self.tables[switch].match(p)
            if hit is None:
                hops += (switch, via, from_engine, None, None)
                return [0, _DROP, switch, tuple(delays), tuple(hops), "no_rule"]
            index, rule = hit
            target = p.final_destination if rule.action is _DELIVER else rule.target
            hops += (switch, via, from_engine, index, target)
            delays.append(self.topology.neighbors(switch)[target])
            if rule.action is _REDIRECT:
                return [0, _ENGINE, target, tuple(delays), tuple(hops), None]
            if target not in self.tables:
                return [0, _ARRIVE, target, tuple(delays), tuple(hops), None]
            switch, via, from_engine = target, switch, False
        return [0, _DROP, switch, tuple(delays), tuple(hops), "hop_limit"]

    # -- event execution --

    def step(self) -> dict | None:
        """Process the earliest event and queue the event it schedules;
        returns the event's own trace entry, the last it appended, or None
        with tracing off or no event left."""
        if not self._drain(1):
            return None
        return None if self.trace is None else self.trace[-1]

    def run(self) -> int:
        """Process events until none is left; returns how many ran."""
        return self._drain(-1)

    def _drain(self, budget: int) -> int:
        """Run up to `budget` events (all of them for -1); returns how many
        ran. Each event is handled in place, most frequent kind first, and
        schedules at most one more. The next event to run is kept in hand and
        exchanged for the scheduled one in one heappushpop, so each event
        costs one heap operation; the scheduled event of the last one run
        within the budget is pushed."""
        heap = self._heap
        if not heap:
            return 0
        pop, pushpop = heapq.heappop, heapq.heappushpop
        engines, trace = self.engines, self.trace
        event = pop(heap)
        n = 0
        while True:
            now = event[0]
            kind = event[2]
            scheduled = None
            if kind is _ENGINE:
                _, _, _, node, p, walk, start = event
                if trace is not None:
                    self._trace_walk(p, walk, start)
                out = engines[node].process(p, now)
                if out is not None:
                    if type(out) is tuple:  # an epoch opened: (its deadline, its token)
                        self._seq = seq = self._seq + 1
                        scheduled = (out[0], seq, _TIMEOUT, node, out[1])
                        out = None
                    else:  # the epoch's output packet
                        scheduled = self._emit(out, node, now)
                if trace is not None:
                    emitted = [] if out is None else [out.uid]
                    self._trace(now, "engine", engine=node, uid=p.uid, emitted=emitted, epoch=p.epoch)
            elif kind is _TIMEOUT:
                _, _, _, node, token = event
                out = engines[node].on_timeout(token, now)
                if out is not None:
                    scheduled = self._emit(out, node, now)
                if trace is not None:
                    self._trace(now, "timeout", engine=node, emitted=[] if out is None else [out.uid])
            elif kind is _ARRIVE:
                _, _, _, node, p, walk, start = event
                self.delivered.append({
                    "time_ms": now,
                    "node": node,
                    "uid": p.uid,
                    "source": p.source,
                    "user": p.user,
                    "epoch": p.epoch,
                    "payload": p.payload.to_doc(),
                })
                if trace is not None:
                    self._trace_walk(p, walk, start)
                    self._trace(now, "deliver", node=node, uid=p.uid, epoch=p.epoch)
            else:  # _DROP
                _, _, _, node, p, walk, start = event
                self._drops[node] += 1
                if trace is not None:
                    self._trace_walk(p, walk, start)
                    self._trace(
                        now,
                        "drop",
                        node=node,
                        uid=p.uid,
                        source=p.source,
                        user=p.user,
                        final_destination=p.final_destination,
                        reason=walk[5],
                    )
            n += 1
            if n == budget:
                if scheduled is not None:
                    heapq.heappush(heap, scheduled)
                break
            if scheduled is not None:
                event = pushpop(heap, scheduled)
            elif heap:
                event = pop(heap)
            else:
                break
        self.now = now
        return n

    def _trace_walk(self, p: PacketRecord, walk: list, start: float) -> None:
        """Append a `forward` entry for each switch p's walk left through, a
        `redirect` for the one into an engine, each at the time p reached it."""
        _, kind, _, delays, hops, _ = walk
        last = len(hops) - 5
        times = accumulate(delays, initial=start)
        next(times)
        for i, now in zip(range(0, len(hops), 5), times):
            node, _, _, index, target = hops[i : i + 5]
            if index is None:  # the switch that had no rule
                break
            if kind is _ENGINE and i == last:
                self._trace(now, "redirect", node=node, uid=p.uid, engine=target)
            else:
                self._trace(now, "forward", node=node, uid=p.uid, to=target)

    # -- reporting --

    def stats(self, final_destination: str | None = None) -> StatsReport:
        """Every count so far, the packets started on each walk folded in."""
        self._walks.fold()
        switch_counts, port_rx, port_tx = {}, {}, {}
        for sw, (_, rx, by_fd, tx) in self._walks.counts.items():
            if final_destination is None:
                switch_counts[sw] = sum(by_fd.values())
            else:
                switch_counts[sw] = by_fd.get(final_destination, 0)
            port_rx[sw] = dict(rx)
            port_tx[sw] = dict(tx)
        return StatsReport(
            filter_destination=final_destination,
            switch_counts=switch_counts,
            total_packet_hops=sum(switch_counts.values()),
            port_rx=port_rx,
            port_tx=port_tx,
            rule_counters={s: list(t._counters) for s, t in self.tables.items()},
            drops=dict(self._drops),
            injected=self.injected,
            emitted=self._emitted(),
            delivered=len(self.delivered),
            dropped=sum(self._drops.values()),
            engine_counters={e: dict(en.counters) for e, en in self.engines.items()},
        )

    def _emitted(self) -> int:
        return sum(e.counters["emitted"] for e in self.engines.values())

    def delivered_at(self, node: str) -> list[dict]:
        return [d for d in self.delivered if d["node"] == node]

    def conservation(self) -> dict:
        """Packet accounting identity; `balanced` must always hold."""
        eng = {k: sum(e.counters[k] for e in self.engines.values()) for k in SETTLED}
        pending = sum(e.pending_arrivals() for e in self.engines.values())
        in_flight = sum(1 for event in self._heap if event[2] != _TIMEOUT)
        created = self.injected + self._emitted()
        settled = (
            len(self.delivered)
            + sum(self._drops.values())
            + sum(eng.values())
            + pending
            + in_flight
        )
        return {
            "created": created,
            "settled": settled,
            "pending_buffered": pending,
            "balanced": created == settled,
            **eng,
        }

    def export_trace(self, path: str | Path) -> int:
        if self.trace is None:
            raise FlipError("tracing is disabled for this fabric")
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.trace:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
        return len(self.trace)

    def state_doc(self) -> dict:
        """Rule tables and configs only; counters are traffic, not state."""
        return {
            "tables": {
                s: [r.to_doc() for r in t.rules] for s, t in sorted(self.tables.items())
            },
            "configs": self.store.to_doc(),
        }

