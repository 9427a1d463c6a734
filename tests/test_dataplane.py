import gc
import hashlib
import heapq
import json
import math
import random
import sys
import weakref
from types import SimpleNamespace

import pytest

from _oracles import scan_rules
from test_topology import wide_fabric_doc
from flip import dataplane, dsl, planner
from flip.control import Session
from flip.dataplane import Fabric, FlowTable
from flip.dsl import parse_request
from flip.epb import ConfigStore
from flip.errors import NotFoundError, UnknownNodeError, UnknownSwitchError, ValidationError
from flip.harness import Workload, build_experiment_topology, demo_topology, publish, request_texts
from flip.packets import PacketRecord, Scalar
from flip.planner import ActionKind, FlowRule
from flip.topology import load_topology

EQ1 = (
    "datapath_a(max(avg(bs1:bs10),avg(bs11:bs100),"
    "max(min(bs101:bs200),min(bs201:bs300))),destination<-user)"
)


@pytest.fixture(scope="module")
def demo():
    return demo_topology()


@pytest.fixture(scope="module")
def eq1_plan(demo):
    return planner.plan(parse_request(EQ1), demo)


def make_packet(source, ts=0.0, fd="user", epoch=0, value=1.0, user="default"):
    return PacketRecord(
        source=source,
        final_destination=fd,
        user=user,
        epoch=epoch,
        timestamp_ms=ts,
        payload=Scalar(value),
    )


def flip_fabric(demo, plan, trace=False):
    fabric = Fabric(demo, ConfigStore(), trace=trace)
    fabric.install_rules(plan.rules)
    for cfg in plan.engine_configs:
        fabric.store.set_config(cfg)
    return fabric


# -- install --------------------------------------------------------------------


def test_install_covers_tree_switches(demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan)
    tree_switches = {n for n in eq1_plan.tree.nodes() if n.startswith("sw")}
    for sw in tree_switches:
        assert fabric.tables[sw].rules, f"{sw} has no rules"


def test_install_empty_is_noop(demo):
    fabric = Fabric(demo)
    assert fabric.install_rules([]) == 0


def test_install_unknown_switch(demo):
    fabric = Fabric(demo)
    rule = FlowRule("sw99", "user", ("bs1",), ActionKind.DELIVER, None)
    with pytest.raises(UnknownSwitchError):
        fabric.install_rules([rule])


@pytest.mark.parametrize(
    "rule",
    [
        FlowRule("sw1", "user", ("bs1",), ActionKind.REDIRECT, "sw3"),
        FlowRule("sw5", "user", ("bs1",), ActionKind.REDIRECT, "user"),
        FlowRule("sw1", "user", ("bs1",), ActionKind.FORWARD, "e-sw1"),
        FlowRule("sw1", "user", ("bs1",), ActionKind.FORWARD, "bs2"),
    ],
    ids=["redirect-to-switch", "redirect-to-host", "forward-to-engine", "forward-to-base-station"],
)
def test_install_refuses_a_target_of_the_wrong_kind(demo, rule):
    """An adjacent target of the wrong kind fails the whole batch."""
    fabric = Fabric(demo)
    fine = FlowRule("sw1", "user", ("bs2",), ActionKind.FORWARD, "sw3")
    with pytest.raises(ValidationError, match=r"is not an? (switch|engine)"):
        fabric.install_rules([fine, rule])
    assert not any(table.rules for table in fabric.tables.values())


def test_install_idempotent(demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan)
    before = {sw: len(t.rules) for sw, t in fabric.tables.items()}
    assert fabric.install_rules(eq1_plan.rules) == 0
    assert {sw: len(t.rules) for sw, t in fabric.tables.items()} == before


# -- flow table -----------------------------------------------------------------

TABLE_SWITCHES = ("sw1", "sw2")
TABLE_DESTINATIONS = ("user", "cloud", "e-sw1")
TABLE_SOURCES = ("bs1", "bs2", "bs3", "bs4", "bs5")


def random_rule(rng: random.Random, switch: str) -> FlowRule:
    action = rng.choice(list(ActionKind))
    target = {ActionKind.FORWARD: "sw3", ActionKind.REDIRECT: "e-" + switch}.get(action)
    sources = tuple(rng.sample(TABLE_SOURCES, rng.randint(1, 3)))
    if rng.random() < 0.1:
        sources += (sources[0],)  # a source listed twice
    return FlowRule(switch, rng.choice(TABLE_DESTINATIONS), sources, action, target)


def test_table_lookup_matches_the_old_scan_over_random_edits():
    """Add (duplicates included), remove at any position, clear and
    replace in place at random; after every step each (final
    destination, source) gets the same first rule as a scan of the list,
    and the counters follow their rules."""
    rng = random.Random(13)
    tables = {sw: FlowTable(sw) for sw in TABLE_SWITCHES}
    models: dict[str, list] = {sw: [] for sw in TABLE_SWITCHES}
    counts: dict[str, list] = {sw: [] for sw in TABLE_SWITCHES}
    keys = [(fd, src) for fd in TABLE_DESTINATIONS for src in TABLE_SOURCES]
    keys.append(("nowhere", "bs9"))

    def check(sw):
        table, model = tables[sw], models[sw]
        assert table.rules == model
        assert len(table.rules) == len(table.counters)
        for fd, src in keys:
            p = make_packet(src, fd=fd)
            got = table.match(p)
            assert got == scan_rules(model, p), (sw, fd, src)
            if got is not None and rng.random() < 0.3:
                table.counters[got[0]] += 1
                counts[sw][got[0]] += 1
        assert table.counters == counts[sw]

    def add(sw, rule):
        expected = rule not in models[sw]
        assert tables[sw].add(rule) is expected
        if expected:
            models[sw].append(rule)
            counts[sw].append(0)

    middle_removes = peak = 0

    def remove(sw, index):
        nonlocal middle_removes
        middle_removes += 0 < index < len(models[sw]) - 1
        assert tables[sw].remove(index) == models[sw].pop(index)
        counts[sw].pop(index)

    def replace(sw, index, rule):
        model = models[sw]
        if rule in model and model.index(rule) != index:
            # a rule installed at another index is refused, nothing changes
            with pytest.raises(ValidationError):
                tables[sw].replace(index, rule)
            return
        tables[sw].replace(index, rule)
        model[index] = rule
        counts[sw][index] = 0

    # a forward and a redirect for one key, in both orders
    forward = FlowRule("sw1", "user", ("bs1", "bs2"), ActionKind.FORWARD, "sw3")
    redirect = FlowRule("sw1", "user", ("bs2", "bs3"), ActionKind.REDIRECT, "e-sw1")
    for sw_rules in ((forward, redirect), (redirect, forward)):
        for rule in sw_rules:
            add("sw1", rule)
            check("sw1")
        p = make_packet("bs2")
        assert tables["sw1"].match(p)[1] == sw_rules[0]
        assert tables["sw1"].clear() == 2
        models["sw1"].clear()
        counts["sw1"].clear()
        check("sw1")

    for _ in range(600):
        sw = rng.choice(TABLE_SWITCHES)
        model = models[sw]
        roll = rng.random()
        if not model or roll < 0.45:
            add(sw, random_rule(rng, sw))
        elif roll < 0.55:
            add(sw, rng.choice(model))  # an identical rule is refused
        elif roll < 0.75:
            remove(sw, rng.randrange(len(model)))
        elif roll < 0.97:
            rule = rng.choice(model) if rng.random() < 0.3 else random_rule(rng, sw)
            replace(sw, rng.randrange(len(model)), rule)
        else:
            assert tables[sw].clear() == len(model)
            model.clear()
            counts[sw].clear()
        check(sw)
        peak = max(peak, len(model))
    assert peak >= 8 and middle_removes >= 50, (peak, middle_removes)


# -- inject ---------------------------------------------------------------------


def test_inject_arrival_delay(demo):
    fabric = Fabric(demo, trace=True)
    fabric.inject(make_packet("bs1", ts=0.0), at="bs1")
    fabric.step()  # the only event: arrival at sw1
    assert fabric.now == demo.link_delay("bs1", "sw1")


def test_inject_tie_break_is_injection_order(demo):
    fabric = Fabric(demo, trace=True)
    fabric.inject(make_packet("bs1", ts=0.0), at="bs1")
    fabric.inject(make_packet("bs2", ts=0.0), at="bs2")
    first = fabric.step()
    second = fabric.step()
    assert first["uid"] == 1 and second["uid"] == 2


def test_inject_from_destination_rejected(demo):
    """Packets enter only at base stations and engines: a host or a switch
    is an UnknownNodeError, a node the topology lacks a NotFoundError, and
    nothing is counted or queued."""
    fabric = Fabric(demo)
    for node in ("user", "sw1"):
        with pytest.raises(UnknownNodeError):
            fabric.inject(make_packet(node), at=node)
    with pytest.raises(NotFoundError):
        fabric.inject(make_packet("nope"), at="nope")
    assert fabric.injected == fabric.pending_events() == 0


@pytest.mark.parametrize("requirement", ["", ",requirement<-{rate=1s}"], ids=["no-rate", "rate"])
def test_inject_refuses_a_non_finite_timestamp(requirement):
    """A packet stamped inf, -inf or NaN is a ValidationError naming its
    source, raised before anything is numbered or queued: the count, the
    queue and the books stay as they were, and the finite traffic still
    runs. Let in, it would stop run() at a rated engine (math.floor of inf
    or NaN) or reach the user stamped NaN."""
    session = Session(build_experiment_topology())
    request = f"datapath_m(bs1,bs2,switch<-sw1,compute<-max,destination<-user{requirement})"
    result = session.execute("datapath_m", {"request": request})
    assert result.ok, result.message
    ingress = result.body["plan"]["source_ingress"]
    fabric = session.fabric
    for source in ("bs1", "bs2"):
        fabric.inject(make_packet(source, 100.0, ingress[source], 0, 1.0), at=source)
    queue, books = list(fabric._heap), fabric.conservation()
    for ts in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="'bs2'"):
            fabric.inject(make_packet("bs2", ts, ingress["bs2"], 1, 2.0), at="bs2")
        assert (fabric.injected, fabric._heap, fabric.conservation()) == (2, queue, books)
    fabric.run()
    assert [d["payload"] for d in fabric.delivered_at("user")] == [{"scalar": 1.0}]
    assert all(math.isfinite(d["time_ms"]) for d in fabric.delivered)
    assert fabric.conservation()["balanced"]


# -- step -----------------------------------------------------------------------


def test_forward_timing_and_delivery():
    doc = {
        "nodes": [
            {"id": "bs1", "kind": "basestation"},
            {"id": "sw1", "kind": "switch"},
            {"id": "sw2", "kind": "switch"},
            {"id": "sw3", "kind": "switch"},
            {"id": "user", "kind": "destination"},
        ],
        "links": [
            {"a": "bs1", "b": "sw1", "delay_ms": 1},
            {"a": "sw1", "b": "sw2", "delay_ms": 1},
            {"a": "sw2", "b": "sw3", "delay_ms": 1},
            {"a": "user", "b": "sw3", "delay_ms": 1},
        ],
    }
    from flip.topology import load_topology

    t = load_topology(doc)
    fabric = Fabric(t, trace=True)
    fabric.install_rules(planner.compile_baseline(t, ["bs1"], "user"))
    fabric.inject(make_packet("bs1", ts=0.0), at="bs1")
    fabric.run()
    assert fabric.stats().delivered == 1
    assert fabric.delivered[0]["time_ms"] == 4.0
    # one packet through three switches: three counts of one, three hops total
    stats = fabric.stats()
    assert stats.switch_counts == {"sw1": 1, "sw2": 1, "sw3": 1}
    assert stats.total_packet_hops == 3


def test_table_miss_drops_and_counts(demo):
    fabric = Fabric(demo)
    fabric.inject(make_packet("bs1"), at="bs1")
    fabric.run()
    assert fabric.stats().dropped == 1
    assert fabric.stats().drops["sw1"] == 1


def test_deliver_rule_off_the_destination_is_refused_at_install(demo):
    """A deliver rule's target is its final destination, checked for
    adjacency once, at install, like a forward or redirect target: one off
    the destination fails the whole batch and installs nothing."""
    fabric = Fabric(demo)
    forward = FlowRule("sw1", "user", ("bs2",), ActionKind.FORWARD, "sw3")
    with pytest.raises(UnknownSwitchError, match="rule target 'user' is not adjacent to 'sw1'"):
        fabric.install_rules([forward, FlowRule("sw1", "user", ("bs1",), ActionKind.DELIVER, None)])
    assert fabric.tables["sw1"].rules == []
    assert fabric.install_rules([FlowRule("sw5", "user", ("bs1",), ActionKind.DELIVER, None)]) == 1

    session = Session(demo)
    flow = {"dpid": "sw1", "match": {"final_destination": "user", "sources": ["bs1"]}, "action": {"type": "deliver"}}
    before = session.state_json()
    result = session.execute("addflow", flow)
    assert not result.ok and result.code == "unknown_switch"
    assert session.fabric.tables["sw1"].rules == []
    assert session.state_json() == before and session.command_log == []


def test_forwarding_loop_is_an_error_past_the_hop_limit(demo):
    """A packet caught in a forwarding loop is one counted `hop_limit` drop
    once it has entered more switches than the topology has nodes; the
    fabric drains, and the books balance."""
    fabric = Fabric(demo, trace=True)
    fabric.install_rules([
        FlowRule("sw1", "user", ("bs1",), ActionKind.FORWARD, "sw3"),
        FlowRule("sw3", "user", ("bs1",), ActionKind.FORWARD, "sw1"),
    ])
    fabric.inject(make_packet("bs1"), at="bs1")
    fabric.run()
    assert fabric.pending_events() == 0
    assert fabric.stats().total_packet_hops == demo.node_count()
    assert fabric.stats().dropped == 1
    [drop] = [e for e in fabric.trace if e["event"] == "drop"]
    assert (drop["reason"], drop["uid"], drop["source"]) == ("hop_limit", 1, "bs1")
    books = fabric.conservation()
    assert books["balanced"] and books["created"] == books["settled"] == 1


def test_full_run_traces_end_at_engine_or_destination(demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan, trace=True)
    w = Workload(seed=3, horizon_ms=200.0)
    tg = dsl.expand_sources(parse_request(EQ1), demo)
    publish(fabric, w.samples(tg.leaves()), eq1_plan.source_ingress, "default")
    fabric.run()
    last_event: dict[int, str] = {}
    for entry in fabric.trace:
        uid = entry.get("uid")
        if uid is not None:
            last_event[uid] = entry["event"]
    raw_uids = range(1, fabric.injected + 1)
    assert all(last_event[uid] in ("engine", "deliver") for uid in raw_uids)
    assert fabric.stats().dropped == 0


def test_determinism_identical_stats(demo, eq1_plan):
    def run_once():
        fabric = flip_fabric(demo, eq1_plan)
        w = Workload(seed=5, horizon_ms=300.0)
        tg = dsl.expand_sources(parse_request(EQ1), demo)
        publish(fabric, w.samples(tg.leaves()), eq1_plan.source_ingress, "default")
        fabric.run()
        return fabric.stats().to_json()

    assert run_once() == run_once()


def test_timer_rejects_an_epoch_its_replaced_config_no_longer_reads():
    """A config replaced while one of its epochs is open, by one that lists
    none of the buffered sources: the timer rejects the epoch and emits
    nothing, instead of raising out of the event loop."""
    session = Session(build_experiment_topology())

    def setconfig(sources):
        config = {"compute": "min", "source": sources, "destination": "user"}
        result = session.execute("setconfig/user", {"engine": "e-sw1", "user": "u", "config": config})
        assert result.ok, result.message

    setconfig(["bs1", "bs2"])
    redirect = session.execute(
        "addflow",
        {
            "dpid": "sw1",
            "match": {"final_destination": "user", "sources": ["bs1"]},
            "action": {"type": "redirect", "target": "e-sw1"},
        },
    )
    assert redirect.ok, redirect.message
    fabric = session.fabric
    fabric.inject(make_packet("bs1", user="u"), at="bs1")
    fabric.step()  # the packet's walk ends in e-sw1: one event
    assert fabric.engines["e-sw1"].pending_arrivals() == 1
    setconfig(["bs3", "bs4"])
    fabric.run()
    books = fabric.conservation()
    assert books["balanced"] and books["rejected"] == 1
    assert fabric.engines["e-sw1"].counters["emitted"] == 0
    assert fabric.delivered_at("user") == []


def test_conservation_every_step(demo, eq1_plan):
    """The books balance between any two steps, with tracing on and off."""
    for trace in (True, False):
        fabric = flip_fabric(demo, eq1_plan, trace=trace)
        w = Workload(seed=6, horizon_ms=100.0)
        tg = dsl.expand_sources(parse_request(EQ1), demo)
        publish(fabric, w.samples(tg.leaves()), eq1_plan.source_ingress, "default")
        # no config matches this user: the engine discards the packet
        intruder = make_packet("bs1", ts=50.0, user="intruder")
        fabric.inject(intruder, at="bs1")
        assert fabric.conservation()["balanced"]
        while fabric.pending_events():
            fabric.step()
            assert fabric.conservation()["balanced"]
        assert fabric.conservation()["no_config"] == 1 and fabric.stats().dropped == 0
        if trace:
            events = [e["event"] for e in fabric.trace if e.get("uid") == intruder.uid]
            assert events == ["inject", "redirect", "engine"]


def loaded_fabrics(demo, eq1_plan, trace: bool) -> list[Fabric]:
    """Fabrics whose drains together run every kind of event: one epoch of
    EQ1 from every leaf (forwards, redirects, buffered, opening and
    emitting engine arrivals, stale timers and deliveries), a lone leaf
    of EQ1 (timers that close an epoch and emit), and two packets that
    drop, one for each reason."""
    full = flip_fabric(demo, eq1_plan, trace)
    leaves = dsl.expand_sources(parse_request(EQ1), demo).leaves()
    publish(full, Workload(seed=3, horizon_ms=100.0).samples(leaves), eq1_plan.source_ingress, "default")
    lone = flip_fabric(demo, eq1_plan, trace)
    lone.inject(make_packet("bs1"), at="bs1")
    drops = Fabric(demo, trace=trace)
    drops.install_rules([
        FlowRule("sw1", "user", ("bs1",), ActionKind.FORWARD, "sw3"),
        FlowRule("sw3", "user", ("bs1",), ActionKind.FORWARD, "sw1"),
    ])
    for source in ("bs1", "bs3"):  # hop_limit, no_rule
        drops.inject(make_packet(source), at=source)
    return [full, lone, drops]


def test_step_returns_the_trace_entry_its_event_appended(demo, eq1_plan):
    """Each step() appends its packet's walk, a `forward` entry per switch
    it left through and a `redirect` into an engine, each at its own time
    and in order, then its own entry, and returns that entry; with tracing
    off it returns None. An event schedules at most one event. Every end
    of a walk, engine event and drop reason is covered, and run() on a
    fabric with nothing queued runs nothing."""
    assert Fabric(demo).run() == 0
    seen, hops = set(), set()
    for traced, untraced in zip(loaded_fabrics(demo, eq1_plan, True), loaded_fabrics(demo, eq1_plan, False)):
        while traced.pending_events():
            queued, logged = traced.pending_events(), len(traced.trace)
            entry = traced.step()
            appended = traced.trace[logged:]
            assert appended[-1] is entry
            assert all(e["uid"] == entry["uid"] for e in appended[:-1])
            times = [e["t"] for e in appended]
            assert times == sorted(times) and times[-1] == traced.now
            hops.update(e["event"] for e in appended[:-1])
            scheduled = traced.pending_events() - queued + 1
            assert scheduled in (0, 1)
            assert untraced.step() is None
            assert untraced.pending_events() == traced.pending_events()
            seen.add((entry["event"], entry.get("reason"), bool(entry.get("emitted")), scheduled))
        assert traced.step() is None and traced.run() == 0
        assert untraced.delivered == traced.delivered
    assert hops == {"forward", "redirect"}
    assert seen == {
        ("deliver", None, False, 0),
        ("engine", None, False, 0),  # buffered or discarded
        ("engine", None, False, 1),  # opened an epoch: its timer
        ("engine", None, True, 1),  # closed an epoch: its output
        ("timeout", None, False, 0),  # stale
        ("timeout", None, True, 1),
        ("drop", "no_rule", False, 0),
        ("drop", "hop_limit", False, 0),
    }


def test_counters_monotonic(demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan)
    tg = dsl.expand_sources(parse_request(EQ1), demo)
    w = Workload(seed=7, horizon_ms=100.0)
    publish(fabric, w.samples(tg.leaves()), eq1_plan.source_ingress, "default")
    last = 0
    while fabric.pending_events():
        fabric.step()
        stats = fabric.stats()
        assert stats.total_packet_hops >= last
        last = stats.total_packet_hops


def test_hop_counts_stay_bounded(demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan, trace=True)
    fabric.inject(make_packet("bs1", ts=0.0), at="bs1")
    fabric.run()
    # no loop error raised, and the engines absorbed the lone packet
    assert fabric.stats().dropped == 0


def test_an_unmatched_packet_is_a_no_config_discard(demo, eq1_plan):
    """A packet redirected into an engine whose configs do not cover it
    is counted once, as `no_config`, and goes no further."""
    fabric = flip_fabric(demo, eq1_plan, trace=True)
    fabric.inject(make_packet("bs1", user="intruder"), at="bs1")
    fabric.run()
    stats = fabric.stats()
    assert stats.dropped == 0 and stats.delivered == 0 and stats.emitted == 0
    assert stats.engine_counters["e-sw1"]["no_config"] == 1
    assert sum(c["no_config"] for c in stats.engine_counters.values()) == 1
    assert [e["event"] for e in fabric.trace] == ["inject", "redirect", "engine"]
    assert fabric.conservation()["balanced"]


def test_unconsumed_engine_destination_drops_with_a_reason(demo):
    """An automated request to an engine no command consumes: each epoch's
    value misses at that engine's switch, and the drop says why and whose."""
    p = planner.plan(parse_request("datapath_a(max(bs1:bs10),destination<-sw5[engine])"), demo)
    fabric = flip_fabric(demo, p, trace=True)
    w = Workload(seed=3, horizon_ms=500.0)
    publish(fabric, w.samples([f"bs{i}" for i in range(1, 11)]), p.source_ingress, "default")
    fabric.run()
    drops = [e for e in fabric.trace if e["event"] == "drop"]
    assert len(drops) == w.epochs() == fabric.stats().dropped
    assert all("reason" in e for e in drops)
    assert {(e["node"], e["reason"], e["user"], e["final_destination"]) for e in drops} == {
        ("sw5", "no_rule", "default", "e-sw5")
    }


def test_stats_fresh_fabric_zero(demo):
    stats = Fabric(demo).stats()
    assert sum(stats.switch_counts.values()) == 0
    assert stats.injected == stats.delivered == stats.dropped == 0


def test_stats_filter_by_destination(demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan)
    w = Workload(seed=8, horizon_ms=100.0)
    tg = dsl.expand_sources(parse_request(EQ1), demo)
    publish(fabric, w.samples(tg.leaves()), eq1_plan.source_ingress, "default")
    fabric.run()
    everything = fabric.stats()
    user_only = fabric.stats("user")
    assert user_only.total_packet_hops <= everything.total_packet_hops
    # one epoch of raw user-addressed traffic from bs1..bs10 at the edge switch
    assert user_only.switch_counts["sw1"] == 10
    # the inter-engine legs are only visible unfiltered
    assert everything.switch_counts["sw5"] > user_only.switch_counts["sw5"]


def test_trace_export(tmp_path, demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan, trace=True)
    fabric.inject(make_packet("bs1"), at="bs1")
    fabric.run()
    out = tmp_path / "trace.jsonl"
    n = fabric.export_trace(out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == n and n >= 2


# -- drain equivalence ----------------------------------------------------------


@pytest.fixture(scope="module")
def nine_users():
    """R1-R9 for nine users installed on one session's fabric: the
    topology, the session's store, its rules and each user's ingress."""
    t = build_experiment_topology()
    session = Session(t)
    flows = []
    for i, text in enumerate(request_texts(), 1):
        result = session.execute("datapath_a", {"request": f"{text[:-1]},user<-u{i})"})
        assert result.ok, result.message
        flows.append((f"u{i}", result.body["plan"]["source_ingress"]))
    rules = [rule for table in session.fabric.tables.values() for rule in table.rules]
    return t, session.store, rules, flows


def publish_nine_users(fabric, flows, jitter) -> None:
    """Five epochs of each user's traffic, from fixed seeds."""
    for seed, (user, ingress) in enumerate(flows):
        samples = Workload(seed=seed, horizon_ms=500.0, jitter_range_ms=jitter).samples(list(ingress))
        publish(fabric, samples, ingress, user)


DRAINS = ("run", "step", "step, then run")


def drained_nine_users(nine_users, trace: bool, drain: str, jitter=(0.0, 3.0)) -> Fabric:
    """A fresh fabric with the nine users' rules, published for five epochs
    from fixed seeds, then drained by run(), by a step() loop, or by a few
    step()s and then run()."""
    t, store, rules, flows = nine_users
    fabric = Fabric(t, store, trace=trace)
    fabric.install_rules(rules)
    publish_nine_users(fabric, flows, jitter)
    if drain == "step":
        while fabric.pending_events():
            fabric.step()
    elif drain == "step, then run":
        for _ in range(25):
            fabric.step()
        fabric.run()
    else:
        fabric.run()
    return fabric


def test_run_and_step_drains_agree_with_and_without_tracing(nine_users):
    """The nine users' traffic drained six ways: run(), a step() loop, or
    a few step()s and then run(), each with tracing on and off. Every
    way gives the same deliveries, stats and conservation books, and every
    traced way the same trace."""
    runs = [drained_nine_users(nine_users, trace, drain) for trace in (False, True) for drain in DRAINS]
    first = runs[0]
    assert first.delivered and first.conservation()["balanced"]
    for other in runs[1:]:
        assert other.delivered == first.delivered
        assert other.stats().to_json() == first.stats().to_json()
        assert other.conservation() == first.conservation()
    assert runs[3].trace == runs[4].trace == runs[5].trace


def outcome_digest(fabric: Fabric) -> str:
    """sha256 of the deliveries in order, the stats and the books."""
    doc = json.dumps([fabric.delivered, fabric.stats().to_json(), fabric.conservation()], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize(
    "jitter, digest",
    [
        ((0.0, 3.0), "95479ff59aaa321bd2ec277f5fc41b570da59dba262c4d33e4a255a80952f04d"),
        # every sample of an epoch is published at one time, so ties at equal
        # times decide the delivery order and each epoch's de-jitter leader
        ((0.0, 0.0), "5d3eb800fe071d3755f6022a674dbf84be7ef0d2358a02867cdef94bed80f071"),
    ],
    ids=["jittered", "tied"],
)
def test_event_order_is_pinned(nine_users, jitter, digest):
    """The nine users' outcome is fixed to the byte: events run in (time,
    insertion sequence) order, drained by run(), by step(), or by a few
    step()s and then run()."""
    for drain in DRAINS:
        assert outcome_digest(drained_nine_users(nine_users, False, drain, jitter)) == digest


def published_r9(epochs: int) -> Fabric:
    """A fresh experiment fabric with R9 admitted and `epochs` epochs of
    seed 0 injected, not yet run."""
    session = Session(build_experiment_topology())
    result = session.execute("datapath_a", {"request": request_texts()[8]})
    assert result.ok, result.message
    ingress = result.body["plan"]["source_ingress"]
    publish(session.fabric, Workload(seed=0, horizon_ms=100.0 * epochs).samples(list(ingress)), ingress, "default")
    return session.fabric


def test_r9_drain_builds_no_index_per_epoch_and_runs_the_pinned_events(monkeypatch):
    """Counts, not times: R9 published for 10 and for 100 epochs makes the
    same flow-table and engine-config index builds (install and run
    together), and run() handles the pinned 64 events per epoch, 7 of
    them timers. run() takes each event off the queue with one heap
    operation: a heappop, or a heappushpop that queues the event its
    predecessor scheduled, and never a heappush."""
    builds: dict[str, int] = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            builds[name] = builds.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((FlowTable, "_index"), (ConfigStore, "_build_index")):
        count(owner, name)
    heap_calls: dict[str, int] = {}
    ran: dict[str, int] = {}  # event kind -> events handed out by the heap

    def counted_heap(name):
        original = getattr(heapq, name)

        def call(*args):
            heap_calls[name] = heap_calls.get(name, 0) + 1
            event = original(*args)
            if name != "heappush":
                ran[event[2]] = ran.get(event[2], 0) + 1
            return event

        return call

    monkeypatch.setattr(
        dataplane, "heapq", SimpleNamespace(**{n: counted_heap(n) for n in ("heappush", "heappop", "heappushpop")})
    )
    seen = {}
    for epochs, events in ((10, 640), (100, 6400)):
        builds.clear()
        fabric = published_r9(epochs)
        heap_calls.clear()
        ran.clear()
        assert fabric.run() == events
        assert len(fabric.delivered) == epochs
        assert heap_calls.get("heappush", 0) == 0
        assert heap_calls["heappop"] + heap_calls["heappushpop"] == events == sum(ran.values())
        assert (heap_calls["heappop"], heap_calls["heappushpop"]) == (50 * epochs, 14 * epochs)
        assert ran[dataplane._TIMEOUT] == 7 * epochs
        seen[epochs] = dict(builds)
    assert seen[10] == seen[100]
    assert 0 < seen[10]["_index"] <= len(fabric.tables)
    assert 0 < seen[10]["_build_index"] <= len(fabric.engines)


def test_events_per_injected_sample_are_pinned(nine_users):
    """Counts, not times: the events run() handles and the samples injected,
    pinned as a pair on R9 at 10 and 100 epochs, the nine users' five
    jittered epochs, and three epochs of one flat 400-leaf sum on the
    wide_fanin fabric's shape. A change to the event structure moves them."""
    counts = {}
    for epochs in (10, 100):
        fabric = published_r9(epochs)
        counts[f"r9/{epochs}"] = (fabric.run(), fabric.injected)
    t, store, rules, flows = nine_users
    fabric = Fabric(t, store)
    fabric.install_rules(rules)
    publish_nine_users(fabric, flows, (0.0, 3.0))
    counts["nine users"] = (fabric.run(), fabric.injected)
    session = Session(load_topology(wide_fabric_doc(50)))
    text = "datapath_a(sum(" + ",".join(f"bs{i}" for i in range(1, 800, 2)) + "),destination<-user)"
    result = session.execute("datapath_a", {"request": text})
    assert result.ok, result.message
    ingress = result.body["plan"]["source_ingress"]
    publish(session.fabric, Workload(seed=0, horizon_ms=300.0).samples(list(ingress)), ingress, "default")
    counts["wide 400"] = (session.fabric.run(), session.fabric.injected)
    assert len(session.fabric.delivered) == 3
    assert counts == {"r9/10": (640, 500), "r9/100": (6400, 5000), "nine users": (1620, 1240), "wide 400": (1206, 1200)}


def test_index_key_counts_are_pinned():
    """Counts, not digests: the flow tables' indexes hold 67 keys and the
    engines' config indexes 56 after R9 alone, and 121 and 85 after R1-R9
    are installed together for user `default`. A change in how a rule or a
    config is expanded into match keys moves a count."""
    texts = request_texts()
    for requests, keys in ((texts[8:], (67, 56)), (texts, (121, 85))):
        session = Session(build_experiment_topology())
        for text in requests:
            result = session.execute("datapath_a", {"request": text})
            assert result.ok, result.message
        fabric = session.fabric
        table_keys = sum(len(table._index()) for table in fabric.tables.values())
        config_keys = sum(len(fabric.store._build_index(engine)) for engine in fabric.engines)
        assert (table_keys, config_keys) == keys, len(requests)


def test_r9_drain_enters_fewer_than_two_and_a_half_python_frames_per_injected_sample():
    """Counts, not times: run() over R9 enters fewer than 2.5 Python frames
    per injected sample, itself included, at 10 and at 100 epochs (3.71 and
    3.56 when each event kind had a handler, and 4.88 and 4.75 when every
    switch a packet crossed was an event). A packet's walk through the
    switches is one event, the drain handles every event kind in place, an
    engine arrival enters one frame, the engine's own, an epoch's check and
    fold run in C, and an output packet's walk starts in one helper. A
    bound, not a pin: list comprehensions stopped being frames in Python
    3.12."""
    for epochs, events in ((10, 640), (100, 6400)):
        fabric = published_r9(epochs)
        frames = 0

        def profile(frame, event, arg):
            nonlocal frames
            if event == "call":
                frames += 1

        sys.setprofile(profile)
        try:
            ran = fabric.run()
        finally:
            sys.setprofile(None)
        assert ran == events
        assert frames < 2.5 * fabric.injected, (epochs, frames / fabric.injected)


def test_an_epoch_its_opening_arrival_closes_arms_no_timer():
    """A one-source config closes each epoch on the arrival that opens it,
    so no timeout is scheduled to pop later as a no-op: 10 epochs of a
    one-station max on the experiment topology run 20 events (each sample's
    walk into e-sw1, then its output's walk to the user), not 30, and
    deliver every value."""
    session = Session(build_experiment_topology())
    result = session.execute("datapath_m", {"request": "datapath_m(bs1,switch<-sw1,compute<-max,destination<-user)"})
    assert result.ok, result.message
    ingress = result.body["plan"]["source_ingress"]
    for epoch in range(10):
        session.fabric.inject(make_packet("bs1", 100.0 * epoch, ingress["bs1"], epoch, float(epoch)), at="bs1")
    assert session.fabric.run() == 20
    assert [d["payload"] for d in session.fabric.delivered_at("user")] == [{"scalar": float(e)} for e in range(10)]
    assert session.fabric.conservation()["balanced"]


# -- walks: counters fold on read and before every edit ---------------------------


def assert_counts_agree(session: Session) -> dict:
    """getflows counts, getports and stats() say the same for every switch;
    returns the stats."""
    stats = session.fabric.stats()
    for sw in session.fabric.tables:
        flows = session.execute("getflows", {"dpid": sw}).body["flows"]
        assert [f["count"] for f in flows] == stats.rule_counters[sw], sw
        ports = session.execute("getports", {"dpid": sw}).body["ports"]
        assert {p["peer"]: p["rx_packets"] for p in ports if p["rx_packets"]} == stats.port_rx[sw], sw
        assert {p["peer"]: p["tx_packets"] for p in ports if p["tx_packets"]} == stats.port_tx[sw], sw
    return stats


def test_edits_between_steps_keep_flows_ports_and_stats_in_agreement():
    """R9 published for three epochs and drained one step() at a time, with
    a modflow, a delflow and a delflowall between steps: getflows counts,
    getports and stats() agree after every step and every edit, and the
    books balance throughout."""
    session = Session(build_experiment_topology())
    result = session.execute("datapath_a", {"request": request_texts()[8]})
    assert result.ok, result.message
    ingress = result.body["plan"]["source_ingress"]
    publish(session.fabric, Workload(seed=2, horizon_ms=300.0).samples(list(ingress)), ingress, "default")
    fabric = session.fabric
    edits = {
        40: ("modflow", {"dpid": "sw9", "index": 0, **{k: v for k, v in fabric.tables["sw9"].rules[0].to_doc().items() if k != "switch"}}),
        80: ("delflow", {"dpid": "sw11", "index": 0}),
        120: ("delflowall", {"dpid": "sw12"}),
    }
    steps = 0
    while fabric.pending_events():
        fabric.step()
        steps += 1
        assert_counts_agree(session)
        if steps in edits:
            verb, args = edits[steps]
            result = session.execute(verb, args)
            assert result.ok, result.message
            assert_counts_agree(session)
        assert fabric.conservation()["balanced"]
    assert steps > max(edits)


def test_a_packet_keeps_the_walk_it_entered_with():
    """Rules change only for packets that start after the change. A packet
    on its way when a rule on its path is deleted still arrives, and one
    injected after drops there as no_rule. Each edit folds the counts
    first: a delflow before it shifts the rules up, so no count lands on the
    rule that takes the freed index, and a modflow before it zeroes the
    replaced rule's counter."""
    session = Session(build_experiment_topology())

    def execute(verb, **args):
        result = session.execute(verb, args)
        assert result.ok, result.message
        return result.body

    def forward(sw, target, sources):
        execute("addflow", dpid=sw, match={"final_destination": "user", "sources": sources},
                action={"type": "forward", "target": target})

    forward("sw1", "sw9", ["bs1"])
    forward("sw1", "sw9", ["bs2"])
    forward("sw9", "sw11", ["bs1", "bs2"])
    forward("sw11", "sw12", ["bs1", "bs2"])
    execute("addflow", dpid="sw12", match={"final_destination": "user", "sources": ["bs1", "bs2"]},
            action={"type": "deliver"})
    fabric = session.fabric
    fabric.inject(make_packet("bs1", 0.0, value=1.0), at="bs1")  # on its way: arrives
    execute("delflow", dpid="sw9", index=0)
    fabric.inject(make_packet("bs1", 0.0, value=2.0), at="bs1")  # drops at sw9
    execute("delflow", dpid="sw1", index=0)
    assert [f["count"] for f in execute("getflows", dpid="sw1")["flows"]] == [0]
    fabric.inject(make_packet("bs2", 1.0, value=3.0), at="bs2")  # drops at sw9
    execute("modflow", dpid="sw1", index=0, match={"final_destination": "user", "sources": ["bs2", "bs3"]},
            action={"type": "forward", "target": "sw9"})
    assert [f["count"] for f in execute("getflows", dpid="sw1")["flows"]] == [0]
    fabric.run()
    assert [d["payload"] for d in fabric.delivered_at("user")] == [{"scalar": 1.0}]
    stats = assert_counts_agree(session)
    assert stats.drops["sw9"] == 2 and stats.dropped == 2
    assert stats.port_rx["sw9"] == {"sw1": 3} and stats.port_tx["sw1"] == {"sw9": 3}
    assert stats.port_rx["sw12"] == {"sw11": 1} and stats.rule_counters["sw12"] == [1]
    assert stats.switch_counts["sw1"] == 3 and fabric.conservation()["balanced"]


def test_a_session_and_its_fabric_are_freed_without_the_collector():
    """No reference cycle holds a fabric: with the garbage collector off,
    dropping the last reference to a session that ran traffic frees both."""
    gc.disable()
    try:
        session = Session(build_experiment_topology())
        result = session.execute("datapath_a", {"request": request_texts()[8]})
        assert result.ok, result.message
        ingress = result.body["plan"]["source_ingress"]
        publish(session.fabric, Workload(seed=4, horizon_ms=300.0).samples(list(ingress)), ingress, "default")
        session.fabric.run()
        assert len(session.fabric.delivered) == 3
        session_ref, fabric_ref = weakref.ref(session), weakref.ref(session.fabric)
        del session, result
        assert session_ref() is None and fabric_ref() is None
    finally:
        gc.enable()
