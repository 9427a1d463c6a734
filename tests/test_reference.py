"""The fabric against its reference (`_oracles.ReferenceFabric`): the same
rules, configs and traffic drained by `Fabric.run()`, by a `step()` loop
with tracing on and by the reference give the same deliveries in the same
order, the same per-switch rx, ingress, tx and rule counters, the same
drops by switch (and, traced, by reason), the same engine counters and the
same books. Rules and configs are installed before the drain."""

import random
from collections import Counter

import pytest

from _oracles import ReferenceFabric
from flip import dsl, planner
from flip.control import Session
from flip.dataplane import Fabric
from flip.dsl import OpKind, parse_request
from flip.epb import ConfigStore, EngineConfig
from flip.errors import FlipError
from flip.harness import Workload, build_experiment_topology, demo_topology, publish, requests_r1_r9
from flip.packets import PacketRecord, Scalar
from flip.planner import ActionKind, FlowRule
from flip.topology import NodeKind
from test_dataplane import nine_users, publish_nine_users  # noqa: F401 (nine_users is a fixture)
from test_golden import EQ1, MANUAL_CHAIN, _wide_fabric, _wide_requests


def assert_agrees(fabric: Fabric, want: dict) -> None:
    stats = fabric.stats()
    assert fabric.delivered == want["delivered"]
    assert stats.port_rx == {s: dict(c) for s, c in want["rx"].items()}
    assert stats.port_tx == {s: dict(c) for s, c in want["tx"].items()}
    assert stats.rule_counters == want["hits"]
    assert stats.switch_counts == {s: sum(c.values()) for s, c in want["ingress"].items()}
    for fd in {fd for c in want["ingress"].values() for fd in c}:
        assert fabric.stats(fd).switch_counts == {s: c[fd] for s, c in want["ingress"].items()}
    by_switch = Counter()
    for (switch, _), n in want["drops"].items():
        by_switch[switch] += n
    assert stats.drops == {s: by_switch[s] for s in fabric.tables}
    if fabric.trace is not None:
        assert Counter((e["node"], e["reason"]) for e in fabric.trace if e["event"] == "drop") == want["drops"]
    assert stats.engine_counters == want["engines"]
    assert fabric.conservation() == want["books"]


def agree(t, rules, configs, traffic) -> dict:
    """Drain `traffic(target)`, which injects the same packets into whatever
    it is given, through the reference and two fabrics; returns the
    reference's outcome."""
    reference = ReferenceFabric(t, rules, configs)
    traffic(reference)
    want = reference.drain()
    assert want["books"]["balanced"]
    for stepwise in (False, True):
        store = ConfigStore()
        for cfg in configs:
            store.set_config(cfg)
        fabric = Fabric(t, store, trace=stepwise)
        fabric.install_rules(rules)
        traffic(fabric)
        if stepwise:
            while fabric.pending_events():
                fabric.step()
        else:
            fabric.run()
        assert_agrees(fabric, want)
    return want


def published(flows, epochs: int):
    """Traffic: each (ingress, user) published for `epochs` epochs, seeded by its position."""

    def traffic(target):
        for seed, (ingress, user) in enumerate(flows):
            publish(target, Workload(seed=seed, horizon_ms=100.0 * epochs).samples(list(ingress)), ingress, user)

    return traffic


def installed(session: Session):
    rules = [rule for table in session.fabric.tables.values() for rule in table.rules]
    return rules, [cfg for engine in session.fabric.engines for cfg in session.store.configs_for(engine)]


@pytest.mark.parametrize("baseline", [False, True], ids=["flip", "baseline"])
def test_r1_to_r9_agree_with_the_reference(baseline):
    t = build_experiment_topology()
    for request in requests_r1_r9():
        session = Session(t)
        result = session.execute("datapath_a", {"request": dsl.canonical(request), "baseline": baseline})
        assert result.ok, result.message
        body = result.body
        ingress = {s: body["destination"] for s in body["sources"]} if baseline else body["plan"]["source_ingress"]
        want = agree(t, *installed(session), published([(ingress, request.user)], 10))
        assert len(want["delivered"]) == (10 * len(ingress) if baseline else 10)


@pytest.mark.parametrize("jitter", [(0.0, 3.0), (0.0, 0.0)], ids=["jittered", "tied"])
def test_the_nine_user_fabric_agrees_with_the_reference(nine_users, jitter):
    t, store, rules, flows = nine_users
    configs = [cfg for engine in t.nodes_of_kind(NodeKind.ENGINE) for cfg in store.configs_for(engine)]
    want = agree(t, rules, configs, lambda target: publish_nine_users(target, flows, jitter))
    assert len(want["delivered"]) == 45


def test_every_golden_plans_fabric_agrees_with_the_reference():
    demo, experiment, wide = demo_topology(), build_experiment_topology(), _wide_fabric()
    cases = [(demo, EQ1), (experiment, dsl.canonical(requests_r1_r9()[8])), *((wide, text) for text in _wide_requests())]
    for t, text in cases:
        p = planner.plan(parse_request(text), t)
        want = agree(t, p.rules, p.engine_configs, published([(p.source_ingress, "default")], 3))
        assert len(want["delivered"]) == 3, text
    session = Session(demo)
    flows = []
    for command in MANUAL_CHAIN:
        result = session.execute("datapath_m", {"request": command})
        assert result.ok, result.message
        flows.append((result.body["plan"]["source_ingress"], "default"))
    want = agree(demo, *installed(session), published(flows, 3))
    assert [d["node"] for d in want["delivered"]] == ["user"] * 3


def test_random_rules_with_loops_and_misses_agree_with_the_reference():
    """Seeded random forwards (loops among them), delivers and redirects on
    the experiment topology ahead of the send-everything rules to the user,
    two configs, and packets from base stations and engines to four
    destinations at tied times."""
    t = build_experiment_topology()
    switches = t.switches()
    destinations = ("user", "cloud", "e-sw9", "e-sw11")
    sources = [f"bs{i}" for i in range(1, 21)] + ["e-sw3", "e-sw9"]
    configs = [
        EngineConfig("e-sw9", "default", OpKind.MAX, ("bs1", "bs2", "bs3"), "user"),
        EngineConfig("e-sw11", "default", OpKind.SUM, ("bs4", "e-sw3"), "cloud"),
    ]
    seen = Counter()
    for seed in range(8):
        rng = random.Random(seed)
        probe = Fabric(t)
        rules = []
        for _ in range(60):
            switch, action = rng.choice(switches), rng.choice(list(ActionKind))
            target = {
                ActionKind.FORWARD: rng.choice([n for n in t.neighbors(switch) if n in probe.tables]),
                ActionKind.REDIRECT: t.engine_of(switch),
            }.get(action)
            rules.append(FlowRule(switch, rng.choice(destinations), tuple(rng.sample(sources, 6)), action, target))
        for rule in rules + planner.compile_baseline(t, sources, "user"):
            try:
                probe.install_rules([rule])
            except FlipError:
                pass
        sent = [
            (rng.choice(sources), rng.choice(destinations), epoch, 100.0 * epoch + rng.choice((0.0, 0.5)))
            for epoch in range(3)
            for _ in range(30)
        ]

        def traffic(target):
            for source, fd, epoch, ts in sent:
                target.inject(PacketRecord(source, fd, "default", epoch, ts, Scalar(1.0)), at=source)

        rules = [rule for table in probe.tables.values() for rule in table.rules]
        want = agree(t, rules, configs, traffic)
        seen.update(reason for _, reason in want["drops"].elements())
        seen["delivered"] += len(want["delivered"])
        seen["emitted"] += sum(c["emitted"] for c in want["engines"].values())
    assert min(seen[k] for k in ("hop_limit", "no_rule", "delivered", "emitted")) > 0, seen
