"""Deterministic discrete-event switch fabric.

Events pop in (timestamp, insertion sequence) order, so a run is a pure
function of the installed rules, the configs, and the injected workload.
`run()` is `step()` in a loop, so draining either way gives the same
result.

A hop costs table lookups, not topology calls. The switch's state is one
tuple, looked up once: its flow table, rule counters, port and ingress
counters and neighbour delays, each changed in place and never replaced.
Switch lookup is first-match-wins over (final destination, source): one
dict access into a per-table index, built on first use and dropped
whenever the table's rules change, returns the rule and its position
together, so installing rules builds no index. An arrival tells a switch
from a host by whether the node has that state, and the hop limit is held
on the fabric. Installation checks each target's kind, so a forward always
reaches a switch and a redirect an engine, and refuses a rule that would
shadow a redirect or be shadowed by one. Where a base station or engine
attaches (its switch, the link's delay, whether it is an engine)
comes from the topology's read-only attachment table, built on first
use; injection and engine output read it. An engine arrival that is
buffered or discarded returns nothing from the engine and ends the event
at once. Trace records are built only when tracing is on.

A miss drops the packet and bumps a counter rather than erroring, since
misses usually mean a plan bug worth surfacing in stats. So is a packet
that has entered more switches than the topology has nodes, which only a
forwarding loop does: no packet stops the fabric. Every drop's trace event
names its reason (`no_rule`, `hop_limit`, or `deliver_not_adjacent` for a
deliver rule whose destination is not a neighbour) and the packet's user
and final destination.

Counting model: a switch's packet count is the number of packets entering
it over network links. Re-entries from the switch's own engine are not
counted (they are engine-port traffic, visible in the port counters), which
keeps the per-switch numbers comparable between engine-assisted and
baseline runs. The report's total packet hops is the sum of these per-switch
counts under the same destination filter.

A redirect owns its match: no other rule on its switch shares a (final
destination, source) with it unless it redirects to the same engine.
Forwards and delivers may overlap and stay first-match. A packet that
matches no config at its engine is counted there as `no_config`.

Each count is read from the one structure that holds it: packets in
flight are the packet events left on the queue, delivered packets the
delivery list, drops the per-switch drop counts, and engine output the
engines' own `emitted` counters. The fabric itself counts only injections.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from .epb import SETTLED, ConfigStore, Engine
from .errors import ConflictError, FlipError, UnknownNodeError, UnknownSwitchError, ValidationError
from .packets import PacketRecord
from .planner import ActionKind, FlowRule
from .topology import NodeKind, Topology

_ARRIVE = "arrive"
_ENGINE = "engine"
_TIMEOUT = "timeout"


class FlowTable:
    """Ordered rule list with per-rule match counters; first match wins.

    The first matching rule for each (final destination, source) is read
    from an index built on the first match after a change and dropped by
    every change, so a lookup costs one dict access however many rules and
    sources the table holds.
    """

    def __init__(self, switch: str):
        self.switch = switch
        self.rules: list[FlowRule] = []
        self.counters: list[int] = []
        self._installed: set[FlowRule] = set()
        self._first: dict[tuple[str, str], tuple[int, FlowRule]] | None = None

    def add(self, rule: FlowRule) -> bool:
        """Append unless an identical rule is already present."""
        if rule in self._installed:
            return False
        self._installed.add(rule)
        self.rules.append(rule)
        self.counters.append(0)
        self._first = None
        return True

    def match(self, packet: PacketRecord):
        """The first matching rule as (its position, the rule), or None."""
        first = self._first
        if first is None:
            first = self._index()
        return first.get((packet.final_destination, packet.source))

    def _index(self) -> dict[tuple[str, str], tuple[int, FlowRule]]:
        """(final destination, source) -> (position, rule) of its first
        matching rule."""
        first: dict[tuple[str, str], tuple[int, FlowRule]] = {}
        for index, rule in enumerate(self.rules):
            hit = (index, rule)
            for source in rule.sources:
                first.setdefault((rule.final_destination, source), hit)
        self._first = first
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
        self._installed.discard(old)
        self._installed.add(rule)
        self.rules[index] = rule
        self.counters[index] = 0
        self._first = None

    def remove(self, index: int) -> FlowRule:
        rule = self.rules.pop(index)
        self.counters.pop(index)
        self._installed.discard(rule)
        self._first = None
        return rule

    def clear(self) -> int:
        n = len(self.rules)
        self.rules.clear()
        self.counters.clear()
        self._installed.clear()
        self._first = None
        return n


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
        self.tables = {s: FlowTable(s) for s in topology.switches()}
        self._hop_limit = topology.node_count()
        self._heap: list[tuple] = []
        self._seq = 0
        self._uid = 0
        self.now = 0.0
        self.injected = 0
        self._drops: dict[str, int] = {s: 0 for s in self.tables}
        # per switch: everything a hop reads or counts, in one tuple: its
        # table and the table's rule counters; its rx (packets in, by the
        # port's neighbour), ingress (packets in from network ports, by
        # final destination) and tx (packets out, by neighbour) counters,
        # which live only here and which stats() reads; and neighbour ->
        # link delay (the topology's own read-only map). Each member is
        # changed in place, never replaced.
        self._hop_state = {
            s: (t, t.counters, {}, {}, {}, topology.neighbors(s)) for s, t in self.tables.items()
        }
        self.delivered: list[dict] = []
        self.trace: list[dict] | None = [] if trace else None

    # -- event plumbing --

    def _push(self, time_ms: float, kind: str, data: tuple) -> int:
        self._seq += 1
        heapq.heappush(self._heap, (time_ms, self._seq, kind, data))
        return self._seq

    def _trace(self, time_ms: float, event: str, **detail) -> dict:
        """Record one trace event. Callers check that tracing is on first,
        so a run without it builds no event details."""
        entry = {"t": time_ms, "event": event, **detail}
        self.trace.append(entry)
        return entry

    def pending_events(self) -> int:
        return len(self._heap)

    # -- commands --

    def check_rules(self, rules: list[FlowRule], replacing: int | None = None) -> None:
        """Raise for a rule on an unknown switch, with a target that is not
        adjacent to its switch, or with a target of the wrong kind: a
        forward goes to a switch and a redirect to an engine. Then raise a
        ConflictError for a rule that clashes with an installed rule other
        than the one it replaces at `replacing` (see `FlowTable.clash`).
        The rules are not checked against each other."""
        for rule in rules:
            if rule.switch not in self.tables:
                raise UnknownSwitchError(f"unknown switch {rule.switch!r}")
            action = rule.action
            if action is not ActionKind.DELIVER:
                if rule.target not in self.topology.neighbors(rule.switch):
                    raise UnknownSwitchError(
                        f"rule target {rule.target!r} is not adjacent to {rule.switch!r}"
                    )
                if action is ActionKind.FORWARD and rule.target not in self.tables:
                    raise ValidationError(f"forward target {rule.target!r} on {rule.switch!r} is not a switch")
                if action is ActionKind.REDIRECT and rule.target not in self.engines:
                    raise ValidationError(f"redirect target {rule.target!r} on {rule.switch!r} is not an engine")
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
        reaches the attached switch one link delay later."""
        attached = self.topology.attachments.get(at)
        if attached is None:
            kind = self.topology.kind(at)  # NotFoundError for an unknown node
            raise UnknownNodeError(f"{at!r} is a {kind.value}; packets enter at base stations or engines")
        switch, delay, from_engine = attached
        self._uid += 1
        p.uid = self._uid
        self.injected += 1
        if self.trace is not None:
            self._trace(p.timestamp_ms, "inject", node=at, uid=p.uid, source=p.source)
        return self._push(p.timestamp_ms + delay, _ARRIVE, (switch, p, at, from_engine))

    # -- event execution --

    def step(self) -> dict | None:
        """Process the earliest event; returns a trace entry when tracing."""
        if not self._heap:
            return None
        time_ms, _, kind, data = heapq.heappop(self._heap)
        self.now = time_ms
        return _HANDLERS[kind](self, time_ms, *data)

    def run(self) -> int:
        """Process events until none is left; returns how many ran."""
        n = 0
        while self._heap:
            self.step()
            n += 1
        return n

    def _on_arrive(self, now, node, p: PacketRecord, via, from_engine):
        state = self._hop_state.get(node)
        if state is None:  # a host
            record = {
                "time_ms": now,
                "node": node,
                "uid": p.uid,
                "source": p.source,
                "user": p.user,
                "epoch": p.epoch,
                "payload": p.payload.to_doc(),
            }
            self.delivered.append(record)
            if self.trace is None:
                return None
            return self._trace(now, "deliver", node=node, uid=p.uid, epoch=p.epoch)

        table, counters, rx, ingress, tx, delays = state
        hops = p.hop_count = p.hop_count + 1
        if hops > self._hop_limit:  # a forwarding loop
            return self._drop(now, node, p, "hop_limit")
        rx[via] = rx.get(via, 0) + 1
        fd = p.final_destination
        if not from_engine:
            ingress[fd] = ingress.get(fd, 0) + 1

        hit = table.match(p)
        if hit is None:
            return self._drop(now, node, p, "no_rule")
        index, rule = hit
        counters[index] += 1

        action = rule.action
        if action is ActionKind.DELIVER:
            target = fd
            if target not in delays:
                return self._drop(now, node, p, "deliver_not_adjacent")
        else:
            target = rule.target
        tx[target] = tx.get(target, 0) + 1
        if action is ActionKind.REDIRECT:
            self._push(now + delays[target], _ENGINE, (target, p))
            if self.trace is None:
                return None
            return self._trace(now, "redirect", node=node, uid=p.uid, engine=target)
        self._push(now + delays[target], _ARRIVE, (target, p, node, False))
        if self.trace is None:
            return None
        return self._trace(now, "forward", node=node, uid=p.uid, to=target)

    def _drop(self, now, node, p: PacketRecord, reason: str):
        self._drops[node] += 1
        if self.trace is None:
            return None
        return self._trace(
            now,
            "drop",
            node=node,
            uid=p.uid,
            source=p.source,
            user=p.user,
            final_destination=p.final_destination,
            reason=reason,
        )

    def _on_engine(self, now, engine_id, p: PacketRecord):
        result = self.engines[engine_id].process(p, now)
        if result is None:  # buffered or discarded: nothing leaves, no timer
            if self.trace is None:
                return None
            return self._trace(now, "engine", engine=engine_id, uid=p.uid, emitted=[], epoch=p.epoch)
        if result.timeout_at is not None:
            self._push(result.timeout_at, _TIMEOUT, (engine_id, result.timeout_token))
        emitted = self._emit(now, engine_id, result.emission)
        if self.trace is None:
            return None
        return self._trace(
            now, "engine", engine=engine_id, uid=p.uid, emitted=emitted, epoch=p.epoch
        )

    def _on_timeout(self, now, engine_id, token):
        emitted = self._emit(now, engine_id, self.engines[engine_id].on_timeout(token, now))
        if self.trace is None:
            return None
        return self._trace(now, "timeout", engine=engine_id, emitted=emitted)

    def _emit(self, now, engine_id, emission: PacketRecord | None) -> list[int]:
        """Number an engine's output packet, if any, and send it back to
        its switch; returns the uids sent, as a trace entry lists them."""
        if emission is None:
            return []
        switch, delay, _ = self.topology.attachments[engine_id]
        self._uid += 1
        emission.uid = self._uid
        self._push(now + delay, _ARRIVE, (switch, emission, engine_id, True))
        return [self._uid]

    # -- reporting --

    def stats(self, final_destination: str | None = None) -> StatsReport:
        switch_counts, port_rx, port_tx = {}, {}, {}
        for sw, (_, _, rx, by_fd, tx, _) in self._hop_state.items():
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
            rule_counters={s: list(t.counters) for s, t in self.tables.items()},
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


# event kind -> its handler; module-level, so a fabric holds no reference
# to its own bound methods and is freed by reference counting alone
_HANDLERS = {_ARRIVE: Fabric._on_arrive, _ENGINE: Fabric._on_engine, _TIMEOUT: Fabric._on_timeout}
