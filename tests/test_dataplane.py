import gc
import hashlib
import json
import random
import weakref

import pytest

from _oracles import scan_rules
from flip import dsl, planner
from flip.control import Session
from flip.dataplane import Fabric, FlowTable
from flip.dsl import parse_request
from flip.epb import ConfigStore
from flip.errors import NotFoundError, UnknownNodeError, UnknownSwitchError, ValidationError
from flip.harness import Workload, build_experiment_topology, demo_topology, request_texts
from flip.packets import PacketRecord, Scalar
from flip.planner import ActionKind, FlowRule

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


def test_deliver_rule_off_the_destination_drops_with_its_reason(demo):
    fabric = Fabric(demo, trace=True)
    fabric.install_rules([FlowRule("sw1", "user", ("bs1",), ActionKind.DELIVER, None)])
    fabric.inject(make_packet("bs1"), at="bs1")
    fabric.run()
    assert fabric.stats().dropped == fabric.stats().drops["sw1"] == 1
    [drop] = [e for e in fabric.trace if e["event"] == "drop"]
    assert (drop["node"], drop["reason"]) == ("sw1", "deliver_not_adjacent")
    assert fabric.conservation()["balanced"]


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
    for s in w.samples(tg.leaves()):
        fabric.inject(
            make_packet(s.source, ts=s.publish_ms, epoch=s.epoch, value=s.value),
            at=s.source,
        )
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
        for s in w.samples(tg.leaves()):
            fabric.inject(
                make_packet(s.source, ts=s.publish_ms, epoch=s.epoch, value=s.value),
                at=s.source,
            )
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
    fabric.step()
    fabric.step()
    assert fabric.engines["e-sw1"].pending_arrivals() == 1
    setconfig(["bs3", "bs4"])
    fabric.run()
    books = fabric.conservation()
    assert books["balanced"] and books["rejected"] == 1
    assert fabric.engines["e-sw1"].counters["emitted"] == 0
    assert fabric.delivered_at("user") == []


def test_conservation_every_step(demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan, trace=True)
    w = Workload(seed=6, horizon_ms=100.0)
    tg = dsl.expand_sources(parse_request(EQ1), demo)
    for s in w.samples(tg.leaves()):
        fabric.inject(
            make_packet(s.source, ts=s.publish_ms, epoch=s.epoch, value=s.value),
            at=s.source,
        )
    # no config matches this user: the engine discards the packet
    intruder = make_packet("bs1", ts=50.0, user="intruder")
    fabric.inject(intruder, at="bs1")
    assert fabric.conservation()["balanced"]
    while fabric.pending_events():
        fabric.step()
        assert fabric.conservation()["balanced"]
    assert fabric.conservation()["no_config"] == 1 and fabric.stats().dropped == 0
    events = [e["event"] for e in fabric.trace if e.get("uid") == intruder.uid]
    assert events == ["inject", "redirect", "engine"]


def test_counters_monotonic(demo, eq1_plan):
    fabric = flip_fabric(demo, eq1_plan)
    tg = dsl.expand_sources(parse_request(EQ1), demo)
    w = Workload(seed=7, horizon_ms=100.0)
    for s in w.samples(tg.leaves()):
        fabric.inject(
            make_packet(s.source, ts=s.publish_ms, epoch=s.epoch, value=s.value),
            at=s.source,
        )
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
    for s in w.samples([f"bs{i}" for i in range(1, 11)]):
        packet = make_packet(s.source, s.publish_ms, p.source_ingress[s.source], s.epoch, s.value)
        fabric.inject(packet, at=s.source)
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
    for s in w.samples(tg.leaves()):
        fabric.inject(
            make_packet(s.source, ts=s.publish_ms, epoch=s.epoch, value=s.value),
            at=s.source,
        )
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


def drained_nine_users(nine_users, trace: bool, stepwise: bool, jitter=(0.0, 3.0)) -> Fabric:
    """A fresh fabric with the nine users' rules, published for five epochs
    from fixed seeds, then drained by run() or by a step() loop."""
    t, store, rules, flows = nine_users
    fabric = Fabric(t, store, trace=trace)
    fabric.install_rules(rules)
    for seed, (user, ingress) in enumerate(flows):
        for s in Workload(seed=seed, horizon_ms=500.0, jitter_range_ms=jitter).samples(list(ingress)):
            fabric.inject(make_packet(s.source, s.publish_ms, ingress[s.source], s.epoch, s.value, user), at=s.source)
    if stepwise:
        while fabric.pending_events():
            fabric.step()
    else:
        fabric.run()
    return fabric


def test_run_and_step_drains_agree_with_and_without_tracing(nine_users):
    """The nine users' traffic drained four ways: run() or a step() loop,
    each with tracing on and off. Every way gives the same deliveries,
    stats and conservation books."""
    runs = [drained_nine_users(nine_users, trace, stepwise) for trace in (False, True) for stepwise in (False, True)]
    first = runs[0]
    assert first.delivered and first.conservation()["balanced"]
    for other in runs[1:]:
        assert other.delivered == first.delivered
        assert other.stats().to_json() == first.stats().to_json()
        assert other.conservation() == first.conservation()
    assert runs[2].trace == runs[3].trace


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
    insertion sequence) order, drained by run() or by step()."""
    for stepwise in (False, True):
        assert outcome_digest(drained_nine_users(nine_users, False, stepwise, jitter)) == digest


def test_r9_drain_builds_no_index_per_epoch_and_runs_the_pinned_events(monkeypatch):
    """Counts, not times: R9 published for 10 and for 100 epochs makes the
    same flow-table and engine-config index builds (install and run
    together), and run() handles the pinned 131 events per epoch."""
    builds: dict[str, int] = {}

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            builds[name] = builds.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)

    for owner, name in ((FlowTable, "_index"), (ConfigStore, "_build_index")):
        count(owner, name)
    seen = {}
    for epochs, events in ((10, 1310), (100, 13100)):
        builds.clear()
        session = Session(build_experiment_topology())
        result = session.execute("datapath_a", {"request": request_texts()[8]})
        assert result.ok, result.message
        ingress = result.body["plan"]["source_ingress"]
        for s in Workload(seed=0, horizon_ms=100.0 * epochs).samples(list(ingress)):
            session.fabric.inject(make_packet(s.source, s.publish_ms, ingress[s.source], s.epoch, s.value), at=s.source)
        assert session.fabric.run() == events
        assert len(session.fabric.delivered) == epochs
        seen[epochs] = dict(builds)
    assert seen[10] == seen[100]
    assert 0 < seen[10]["_index"] <= len(session.fabric.tables)
    assert 0 < seen[10]["_build_index"] <= len(session.fabric.engines)


def test_an_epoch_its_opening_arrival_closes_arms_no_timer():
    """A one-source config closes each epoch on the arrival that opens it,
    so no timeout is scheduled to pop later as a no-op: 10 epochs of a
    one-station max on the experiment topology run 70 events, not 80, and
    deliver every value."""
    session = Session(build_experiment_topology())
    result = session.execute("datapath_m", {"request": "datapath_m(bs1,switch<-sw1,compute<-max,destination<-user)"})
    assert result.ok, result.message
    ingress = result.body["plan"]["source_ingress"]
    for epoch in range(10):
        session.fabric.inject(make_packet("bs1", 100.0 * epoch, ingress["bs1"], epoch, float(epoch)), at="bs1")
    assert session.fabric.run() == 70
    assert [d["payload"] for d in session.fabric.delivered_at("user")] == [{"scalar": float(e)} for e in range(10)]
    assert session.fabric.conservation()["balanced"]


def test_a_session_and_its_fabric_are_freed_without_the_collector():
    """No reference cycle holds a fabric: with the garbage collector off,
    dropping the last reference to a session that ran traffic frees both."""
    gc.disable()
    try:
        session = Session(build_experiment_topology())
        result = session.execute("datapath_a", {"request": request_texts()[8]})
        assert result.ok, result.message
        ingress = result.body["plan"]["source_ingress"]
        for s in Workload(seed=4, horizon_ms=300.0).samples(list(ingress)):
            session.fabric.inject(make_packet(s.source, s.publish_ms, ingress[s.source], s.epoch, s.value), at=s.source)
        session.fabric.run()
        assert len(session.fabric.delivered) == 3
        session_ref, fabric_ref = weakref.ref(session), weakref.ref(session.fabric)
        del session, result
        assert session_ref() is None and fabric_ref() is None
    finally:
        gc.enable()
