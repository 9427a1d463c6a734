"""Golden pins: the R1-R9 report bytes and the plan serializations of
EQ1, R9, two wide requests, the six-command manual chain and 338 more
requests (320 wide ones and R1-R9 on both data/ topologies), and the
trace of a seeded traced run.

Refactors must leave these byte for byte unchanged; a change that moves
them on purpose updates the digests here and says why.
"""

import hashlib
import random

from flip import harness, planner
from flip.dataplane import Fabric
from flip.dsl import parse_request
from flip.epb import ConfigStore
from flip.errors import FlipError
from flip.packets import PacketRecord, Scalar
from flip.topology import load_topology

EQ1 = (
    "datapath_a(max(avg(bs1:bs10),avg(bs11:bs100),"
    "max(min(bs101:bs200),min(bs201:bs300))),destination<-user)"
)

# EQ1 decomposed into manual commands: engines feed engines up to the user
MANUAL_CHAIN = (
    "datapath_m({bs201:bs300},switch<-sw4,compute<-min,destination<-sw5[engine])",
    "datapath_m({bs101:bs200},switch<-sw3,compute<-min,destination<-sw5[engine])",
    "datapath_m(sw4[engine],sw3[engine],switch<-sw5,compute<-max,destination<-sw3[engine])",
    "datapath_m({bs11:bs100},switch<-sw2,compute<-avg,destination<-sw3[engine])",
    "datapath_m({bs1:bs10},switch<-sw1,compute<-avg,destination<-sw3[engine])",
    "datapath_m(sw1[engine],sw2[engine],sw5[engine],switch<-sw3,compute<-max,destination<-user)",
)

SUMMARY_SEED0_SHA256 = "af07ea63279c4e84605fe179b5152d29223162b4d3f4e97db74f4659ffc14287"
EQ1_DEMO_PLAN_SHA256 = "b8ae1d6f410ebba9ed27d249d31bcd953c6a51dac684290df5e67ecb4a2eab12"
R9_EXPERIMENT_PLAN_SHA256 = "76571f65e4efab077b802e8e8e01c28711a3b885cb065b0debcda1e0ae59b97a"
WIDE_FLAT_PLAN_SHA256 = "e8244f06825c3d6df6faa8deb29efa3a232567d005e0ccca197100e9fc4c33e6"
WIDE_GROUPED_PLAN_SHA256 = "e7921b599173cc72d61cd71e7f3489fb383df254112b8c4a537a7d0b48fd05cc"
MANUAL_CHAIN_PLANS_SHA256 = "04be01dee238f3aa8d5d84e159be8a3817410183844295588fb7ed5a47e47608"

EDGE_SWITCHES = 10
STATIONS_PER_EDGE = 40


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_summary_json_seed0_bytes(tmp_path):
    paths = harness.export_report(harness.run_suite(), tmp_path)
    assert _sha256(paths["summary"].read_bytes()) == SUMMARY_SEED0_SHA256


def test_eq1_demo_plan_bytes():
    plan = planner.plan(parse_request(EQ1), harness.demo_topology())
    assert _sha256(plan.to_json().encode()) == EQ1_DEMO_PLAN_SHA256


def test_r9_experiment_plan_bytes():
    r9 = harness.requests_r1_r9()[8]
    plan = planner.plan(r9, harness.build_experiment_topology())
    assert _sha256(plan.to_json().encode()) == R9_EXPERIMENT_PLAN_SHA256


def test_manual_chain_plan_bytes():
    t = harness.demo_topology()
    plans = "\n".join(planner.plan(parse_request(c), t).to_json() for c in MANUAL_CHAIN)
    assert _sha256(plans.encode()) == MANUAL_CHAIN_PLANS_SHA256


def _wide_fabric():
    """10 edge switches with 40 base stations each under 3 aggregation
    switches and one core. Delays come from a fixed seed and are drawn from
    a few fractional values, so equal-delay ties and sums whose float value
    depends on the order of addition are both common."""
    rng = random.Random("golden-wide-fabric")
    delays = (0.1, 0.2, 0.3, 0.7, 1, 1.5)
    switches = [f"sw{i}" for i in range(1, EDGE_SWITCHES + 5)]
    edge, agg, core = switches[:EDGE_SWITCHES], switches[EDGE_SWITCHES:-1], switches[-1]
    nodes = [{"id": s, "kind": "switch"} for s in switches]
    nodes += [{"id": f"e-{s}", "kind": "engine"} for s in switches]
    nodes.append({"id": "user", "kind": "destination"})
    links = [{"a": f"e-{s}", "b": s} for s in switches]
    links.append({"a": "user", "b": core, "delay_ms": 1})
    for k, s in enumerate(edge):
        lo = k * STATIONS_PER_EDGE + 1
        nodes.append(
            {"range": f"bs{lo}:bs{lo + STATIONS_PER_EDGE - 1}", "kind": "basestation", "switch": s}
        )
        links.append({"a": s, "b": agg[k % len(agg)], "delay_ms": rng.choice(delays)})
        if k:
            links.append({"a": edge[k - 1], "b": s, "delay_ms": rng.choice(delays)})
    for s in agg:
        links.append({"a": s, "b": core, "delay_ms": rng.choice(delays)})
    return load_topology({"nodes": nodes, "links": links})


def _wide_requests():
    """One flat 320-leaf request and one grouping 200 leaves by edge switch."""
    rng = random.Random("golden-wide-requests")
    stations = range(1, EDGE_SWITCHES * STATIONS_PER_EDGE + 1)
    flat = ",".join(f"bs{i}" for i in sorted(rng.sample(stations, 320)))
    groups: dict[int, list[str]] = {}
    for i in sorted(rng.sample(stations, 200)):
        groups.setdefault((i - 1) // STATIONS_PER_EDGE, []).append(f"bs{i}")
    ops = ("min", "max", "sum", "avg")
    grouped = ",".join(f"{rng.choice(ops)}({','.join(g)})" for _, g in sorted(groups.items()))
    return (
        f"datapath_a(sum({flat}),destination<-user)",
        f"datapath_a(max({grouped}),destination<-user)",
    )


def test_wide_request_plan_bytes():
    t = _wide_fabric()
    flat, grouped = _wide_requests()
    assert _sha256(planner.plan(parse_request(flat), t).to_json().encode()) == WIDE_FLAT_PLAN_SHA256
    assert (
        _sha256(planner.plan(parse_request(grouped), t).to_json().encode())
        == WIDE_GROUPED_PLAN_SHA256
    )


TRACE_R9_EXPERIMENT_SHA256 = "7209f8889bd9135fa1c320f18bcf268443917d103b1cf371b0245f6edb397188"
# the same lines sorted: they do not depend on where an event's entries
# fall in the trace, only on what each entry says, and held when a packet's
# hops stopped being events of their own and moved to its walk's end event
TRACE_R9_EXPERIMENT_SORTED_SHA256 = "f45af6c247c4035430a43bf06cf2ccacf6499937d829b0e52735b25752915af8"

# a second user's request with rate and jitter requirements, on sources R9
# does not read, so rate drops and jitter discards show in the trace too
RATED = "datapath_a(sum(bs61:bs65),destination<-cloud,user<-rated,requirement<-{rate=200ms,jitter=2ms})"


def _traced_r9_fabric():
    """R9 and RATED on one traced experiment-topology fabric, published for
    ten epochs from fixed seeds. One R9 sample is withheld (its epoch closes
    on the timeout), one packet comes from a user no config serves (e-sw1
    discards it as no_config: its redirect at sw1 is followed by one
    `engine` event that emits nothing) and one is addressed where no rule
    leads (dropped as no_rule)."""
    t = harness.build_experiment_topology()
    fabric = Fabric(t, ConfigStore(), trace=True)
    for text in (harness.request_texts()[8], RATED):
        request = parse_request(text)
        p = planner.plan(request, t)
        fabric.install_rules(p.rules)
        for cfg in p.engine_configs:
            fabric.store.set_config(cfg)
        w = harness.Workload(seed=len(text), horizon_ms=1000.0)
        samples = [s for s in w.samples(list(p.source_ingress)) if (s.source, s.epoch) != ("bs7", 3)]
        harness.publish(fabric, samples, p.source_ingress, request.user)
    fabric.inject(PacketRecord("bs2", "user", "intruder", 4, 400.5, Scalar(1.0)), at="bs2")
    fabric.inject(PacketRecord("bs3", "cloud", "default", 5, 500.5, Scalar(1.0)), at="bs3")
    fabric.run()
    return fabric


def test_traced_r9_run_trace_bytes(tmp_path):
    fabric = _traced_r9_fabric()
    events = {e["event"] for e in fabric.trace}
    assert events == {"inject", "forward", "redirect", "engine", "deliver", "timeout", "drop"}
    counters = {k: sum(e.counters[k] for e in fabric.engines.values()) for k in ("rate_dropped", "jitter_discarded")}
    assert all(counters.values()), counters
    books = fabric.conservation()
    assert books["balanced"] and books["no_config"] == 1
    out = tmp_path / "trace.jsonl"
    fabric.export_trace(out)
    assert _sha256(out.read_bytes()) == TRACE_R9_EXPERIMENT_SHA256
    assert _sha256(b"".join(sorted(out.read_bytes().splitlines(keepends=True)))) == TRACE_R9_EXPERIMENT_SORTED_SHA256


MANY_PLANS_SHA256 = "a69fa7d9dcc425e266c1ffdab46091fb7369418a5b446de37e07536b2e053513"


def _many_wide_requests(rng: random.Random, stations: int, switches: int) -> list[str]:
    """320 requests shaped like the wide_fanin benchmark's: 2-400 leaves,
    one flat operation or one operation per block of 200 stations under a
    root, sent to the user or to a random switch's engine."""
    ops = ("min", "max", "sum", "avg", "sub", "mul")
    texts = []
    for _ in range(320):
        ids = sorted(rng.sample(range(1, stations + 1), rng.randint(2, 400)))
        if rng.random() < 0.5:
            expr = f"{rng.choice(ops)}({','.join(f'bs{i}' for i in ids)})"
        else:
            groups: dict[int, list[str]] = {}
            for i in ids:
                groups.setdefault((i - 1) // 200, []).append(f"bs{i}")
            children = [f"{rng.choice(ops)}({','.join(g)})" for _, g in sorted(groups.items())]
            expr = f"{rng.choice(ops)}({','.join(children)})" if len(children) > 1 else children[0]
        destination = "user" if rng.random() < 0.6 else f"sw{rng.randint(1, switches)}[engine]"
        texts.append(f"datapath_a({expr},destination<-{destination})")
    return texts


def test_many_plan_bytes():
    """One digest over the plan, or the typed error, of 320 wide requests on
    the wide_fanin fabric's shape and of R1-R9 on both data/ topologies."""
    from test_topology import wide_fabric_doc

    wide = load_topology(wide_fabric_doc(50))
    cases = [(wide, text) for text in _many_wide_requests(random.Random("many-plans"), 800, 22)]
    for t in (harness.demo_topology(), harness.build_experiment_topology()):
        cases += [(t, text) for text in harness.request_texts()]
    digest = hashlib.sha256()
    errors = 0
    for t, text in cases:
        try:
            out = planner.plan(parse_request(text), t).to_json()
        except FlipError as exc:
            out = f"{type(exc).__name__}: {exc}"
            errors += 1
        digest.update(out.encode() + b"\n")
    assert 0 < errors < len(cases) // 4
    assert digest.hexdigest() == MANY_PLANS_SHA256
