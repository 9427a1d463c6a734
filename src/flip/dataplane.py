"""Deterministic discrete-event switch fabric.

Events pop in (timestamp, insertion sequence) order, so a run is a pure
function of the installed rules, the configs, and the injected workload.
Switch lookup is first-match-wins over (final destination, source); a miss
drops the packet and bumps a counter rather than erroring, since misses
usually mean a plan bug worth surfacing in stats.

Counting model: a switch's packet count is the number of packets entering
it over network links. Re-entries from the switch's own engine are not
counted (they are engine-port traffic, visible in the port counters), which
keeps the per-switch numbers comparable between engine-assisted and
baseline runs. The report's total packet hops is the sum of these per-switch
counts under the same destination filter.

Packets an engine could not match (no config) re-enter the switch flagged
to skip redirect rules, so a misconfigured flow falls through to plain
forwarding or a counted drop instead of looping through the engine forever.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path

from .epb import ConfigStore, Engine, TIMEOUT_PARTIAL
from .errors import FlipError, UnknownNodeError, UnknownSwitchError
from .packets import PacketRecord, payload_doc
from .planner import ActionKind, FlowRule
from .topology import NodeKind, Topology, natural_key

_ARRIVE = "arrive"
_ENGINE = "engine"
_TIMEOUT = "timeout"


class FlowTable:
    """Ordered rule list with per-rule match counters; first match wins."""

    def __init__(self, switch: str):
        self.switch = switch
        self.rules: list[FlowRule] = []
        self.counters: list[int] = []

    def add(self, rule: FlowRule) -> bool:
        """Append unless an identical rule is already present."""
        if rule in self.rules:
            return False
        self.rules.append(rule)
        self.counters.append(0)
        return True

    def match(self, packet: PacketRecord, skip_redirect: bool = False):
        for index, rule in enumerate(self.rules):
            if skip_redirect and rule.action is ActionKind.REDIRECT:
                continue
            if rule.matches(packet.final_destination, packet.source):
                return index, rule
        return None

    def remove(self, index: int) -> FlowRule:
        rule = self.rules.pop(index)
        self.counters.pop(index)
        return rule

    def clear(self) -> int:
        n = len(self.rules)
        self.rules.clear()
        self.counters.clear()
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
        return {
            "filter_destination": self.filter_destination,
            "switch_counts": dict(sorted(self.switch_counts.items(), key=lambda kv: natural_key(kv[0]))),
            "total_packet_hops": self.total_packet_hops,
            "port_rx": {s: dict(sorted(v.items())) for s, v in sorted(self.port_rx.items())},
            "port_tx": {s: dict(sorted(v.items())) for s, v in sorted(self.port_tx.items())},
            "rule_counters": {s: list(v) for s, v in sorted(self.rule_counters.items())},
            "drops": dict(sorted(self.drops.items())),
            "injected": self.injected,
            "emitted": self.emitted,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "engine_counters": {e: dict(sorted(c.items())) for e, c in sorted(self.engine_counters.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))

    def csv_rows(self) -> list[tuple[str, int, int]]:
        """(switch, dpid, count) rows in natural switch order."""
        ordered = sorted(self.switch_counts, key=natural_key)
        return [(sw, i + 1, self.switch_counts[sw]) for i, sw in enumerate(ordered)]


class Fabric:
    """The simulated switch fabric plus its engines and event queue."""

    def __init__(
        self,
        topology: Topology,
        config_store: ConfigStore | None = None,
        trace: bool = False,
        timeout_policy: str = TIMEOUT_PARTIAL,
    ):
        self.topology = topology
        self.store = config_store if config_store is not None else ConfigStore()
        self.engines = {
            e: Engine(e, self.store, timeout_policy)
            for e in topology.nodes_of_kind(NodeKind.ENGINE)
        }
        self.tables = {s: FlowTable(s) for s in topology.switches()}
        self._heap: list[tuple] = []
        self._seq = 0
        self._uid = 0
        self.now = 0.0
        self.counters = {
            "injected": 0,
            "emitted": 0,
            "delivered": 0,
            "dropped": 0,
            "in_flight": 0,
        }
        # per switch: packets in from network ports, keyed by final destination
        self._ingress: dict[str, dict[str, int]] = {s: {} for s in self.tables}
        self._drops: dict[str, int] = {s: 0 for s in self.tables}
        self._port_rx: dict[str, dict[str, int]] = {s: {} for s in self.tables}
        self._port_tx: dict[str, dict[str, int]] = {s: {} for s in self.tables}
        self.delivered: list[dict] = []
        self.trace: list[dict] | None = [] if trace else None

    # -- event plumbing --

    def _push(self, time_ms: float, kind: str, data: tuple, packet: bool) -> int:
        self._seq += 1
        heapq.heappush(self._heap, (time_ms, self._seq, kind, data))
        if packet:
            self.counters["in_flight"] += 1
        return self._seq

    def _trace(self, time_ms: float, event: str, **detail) -> dict | None:
        entry = None
        if self.trace is not None:
            entry = {"t": time_ms, "event": event, **detail}
            self.trace.append(entry)
        return entry

    def pending_events(self) -> int:
        return len(self._heap)

    # -- commands --

    def install_rules(self, rules: list[FlowRule]) -> int:
        """Append rules, skipping exact duplicates. All-or-nothing on
        validation: unknown switches fail the whole batch."""
        for rule in rules:
            if rule.switch not in self.tables:
                raise UnknownSwitchError(f"unknown switch {rule.switch!r}")
            if rule.action in (ActionKind.FORWARD, ActionKind.REDIRECT):
                if rule.target not in self.topology.neighbors(rule.switch):
                    raise UnknownSwitchError(
                        f"rule target {rule.target!r} is not adjacent to {rule.switch!r}"
                    )
        added = 0
        for rule in rules:
            if self.tables[rule.switch].add(rule):
                added += 1
        return added

    def inject(self, p: PacketRecord, at: str) -> int:
        """Enqueue a packet published by a base station or engine output; it
        reaches the attached switch one link delay later."""
        kind = self.topology.kind(at)
        if kind not in (NodeKind.BASE_STATION, NodeKind.ENGINE):
            raise UnknownNodeError(f"{at!r} is a {kind.value}; packets enter at base stations or engines")
        switch = self.topology.connected_switch(at)
        self._uid += 1
        p.uid = self._uid
        self.counters["injected"] += 1
        arrive_at = p.timestamp_ms + self.topology.link_delay(at, switch)
        from_engine = kind is NodeKind.ENGINE
        self._trace(p.timestamp_ms, "inject", node=at, uid=p.uid, source=p.source)
        return self._push(arrive_at, _ARRIVE, (switch, p, at, from_engine, False), packet=True)

    # -- event execution --

    def step(self) -> dict | None:
        """Process the earliest event; returns a trace entry when tracing."""
        if not self._heap:
            return None
        time_ms, _, kind, data = heapq.heappop(self._heap)
        self.now = time_ms
        if kind == _ARRIVE:
            self.counters["in_flight"] -= 1
            return self._on_arrive(time_ms, *data)
        if kind == _ENGINE:
            self.counters["in_flight"] -= 1
            return self._on_engine(time_ms, *data)
        return self._on_timeout(time_ms, *data)

    def run(self, max_events: int | None = None) -> int:
        n = 0
        while self._heap:
            self.step()
            n += 1
            if max_events is not None and n >= max_events:
                break
        return n

    def _on_arrive(self, now, node, p: PacketRecord, via, from_engine, skip_redirect):
        node_kind = self.topology.kind(node)
        if node_kind is not NodeKind.SWITCH:
            self.counters["delivered"] += 1
            record = {
                "time_ms": now,
                "node": node,
                "uid": p.uid,
                "source": p.source,
                "user": p.user,
                "epoch": p.epoch,
                "payload": payload_doc(p.payload),
            }
            self.delivered.append(record)
            return self._trace(now, "deliver", node=node, uid=p.uid, epoch=p.epoch)

        p.hop_count += 1
        if p.hop_count > self.topology.node_count():
            raise FlipError(f"forwarding loop: packet {p.uid} exceeded {self.topology.node_count()} hops")
        self._port_rx[node][via] = self._port_rx[node].get(via, 0) + 1
        if not from_engine:
            by_fd = self._ingress[node]
            by_fd[p.final_destination] = by_fd.get(p.final_destination, 0) + 1

        table = self.tables[node]
        m = table.match(p, skip_redirect=skip_redirect)
        if m is None:
            self.counters["dropped"] += 1
            self._drops[node] += 1
            return self._trace(now, "drop", node=node, uid=p.uid, source=p.source)
        index, rule = m
        table.counters[index] += 1

        if rule.action is ActionKind.FORWARD:
            target = rule.target
        elif rule.action is ActionKind.REDIRECT:
            target = rule.target
            self._port_tx[node][target] = self._port_tx[node].get(target, 0) + 1
            self._push(
                now + self.topology.link_delay(node, target), _ENGINE, (target, p), packet=True
            )
            return self._trace(now, "redirect", node=node, uid=p.uid, engine=target)
        else:  # DELIVER
            target = p.final_destination
            if target not in self.topology.neighbors(node):
                self.counters["dropped"] += 1
                self._drops[node] += 1
                return self._trace(now, "drop", node=node, uid=p.uid, reason="deliver_not_adjacent")
        self._port_tx[node][target] = self._port_tx[node].get(target, 0) + 1
        self._push(
            now + self.topology.link_delay(node, target),
            _ARRIVE,
            (target, p, node, False, False),
            packet=True,
        )
        return self._trace(now, "forward", node=node, uid=p.uid, to=target)

    def _on_engine(self, now, engine_id, p: PacketRecord):
        result = self.engines[engine_id].process(p, now)
        if result.timeout_at is not None:
            self._push(result.timeout_at, _TIMEOUT, (engine_id, result.timeout_token), packet=False)
        if result.passthrough:
            switch = self.topology.connected_switch(engine_id)
            self._push(
                now + self.topology.link_delay(engine_id, switch),
                _ARRIVE,
                (switch, p, engine_id, True, True),
                packet=True,
            )
            return self._trace(now, "passthrough", engine=engine_id, uid=p.uid)
        emitted = self._emit(now, engine_id, result.emissions)
        return self._trace(
            now, "engine", engine=engine_id, uid=p.uid, emitted=emitted, epoch=p.epoch
        )

    def _on_timeout(self, now, engine_id, token):
        emitted = self._emit(now, engine_id, self.engines[engine_id].on_timeout(token, now))
        if not emitted and self.trace is None:
            return None
        return self._trace(now, "timeout", engine=engine_id, emitted=emitted)

    def _emit(self, now, engine_id, emissions: list[PacketRecord]) -> list[int]:
        """Number an engine's output packets and send them back to its
        switch; returns their uids."""
        switch = self.topology.connected_switch(engine_id)
        back_delay = self.topology.link_delay(engine_id, switch)
        emitted = []
        for em in emissions:
            self._uid += 1
            em.uid = self._uid
            self.counters["emitted"] += 1
            emitted.append(em.uid)
            self._push(now + back_delay, _ARRIVE, (switch, em, engine_id, True, False), packet=True)
        return emitted

    # -- reporting --

    def stats(self, final_destination: str | None = None) -> StatsReport:
        switch_counts = {}
        for sw, by_fd in self._ingress.items():
            if final_destination is None:
                switch_counts[sw] = sum(by_fd.values())
            else:
                switch_counts[sw] = by_fd.get(final_destination, 0)
        return StatsReport(
            filter_destination=final_destination,
            switch_counts=switch_counts,
            total_packet_hops=sum(switch_counts.values()),
            port_rx={s: dict(v) for s, v in self._port_rx.items()},
            port_tx={s: dict(v) for s, v in self._port_tx.items()},
            rule_counters={s: list(t.counters) for s, t in self.tables.items()},
            drops=dict(self._drops),
            injected=self.counters["injected"],
            emitted=self.counters["emitted"],
            delivered=self.counters["delivered"],
            dropped=self.counters["dropped"],
            engine_counters={e: dict(en.counters) for e, en in self.engines.items()},
        )

    def delivered_at(self, node: str) -> list[dict]:
        return [d for d in self.delivered if d["node"] == node]

    def conservation(self) -> dict:
        """Packet accounting identity; `balanced` must always hold."""
        eng = {
            k: sum(e.counters[k] for e in self.engines.values())
            for k in (
                "rate_dropped",
                "jitter_discarded",
                "duplicate_discarded",
                "late_discarded",
                "consumed",
                "rejected",
            )
        }
        pending = sum(e.pending_arrivals() for e in self.engines.values())
        created = self.counters["injected"] + self.counters["emitted"]
        settled = (
            self.counters["delivered"]
            + self.counters["dropped"]
            + sum(eng.values())
            + pending
            + self.counters["in_flight"]
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
