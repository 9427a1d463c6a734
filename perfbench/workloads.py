"""The three workloads: inputs made from the seed, rounds of timed
operations, and the checks on every output.

An operation is one ``datapath_a`` admission or one (request, epoch) value
that must reach the destination. Every round of a workload attempts the
same operations, so the failed share does not depend on how many rounds a
run fits into its time.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from flip import planner
from flip.control import Session
from flip.dsl import DEFAULT_USER, parse_request
from flip.packets import PacketRecord, Scalar
from flip.topology import NodeKind, load_topology, load_topology_file

import check
from refclock import RefClock, Series

DESTINATION = "user"
PERIOD_MS = 100.0
JITTER_MS = (0.0, 3.0)
VALUES = (0.0, 100.0)

class Acc:
    """What the rounds of one run timed, counted and checked."""

    def __init__(self):
        self.clock = RefClock()
        self.request = Series()
        self.sim = Series()
        # the baseline's bare forwarding on r1r9
        self.forward = Series()
        self.forward_samples = 0
        self.samples = 0
        self.hops = 0
        self.delivery_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.staged_ok = True
        # rounds below the workload's minimum count are the same in every
        # run of a seed; packet_hops and delivery times come from them only
        self.fixed = True
        # called at the end of a round while the round's state is alive
        self.on_state = None

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def state_alive(self) -> None:
        if self.on_state is not None:
            self.on_state()


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def warm(t, pause=None) -> None:
    """Shortest paths from every node a request can name as a terminal;
    ``pause`` is called between nodes."""
    for node in t.nodes_of_kind(NodeKind.BASE_STATION) + t.switches() + [DESTINATION]:
        t.shortest_paths_from(node)
        if pause is not None:
            pause()


def link_delays(t) -> dict:
    out = {}
    for link in t.links():
        out[(link.a, link.b)] = out[(link.b, link.a)] = link.delay_ms
    return out


def admit(session: Session, text: str, acc: Acc, tracer) -> dict | None:
    """Submit one datapath_a request and wait until it is installed.

    Untraced, the call is timed for request_ms. Traced, each stage gets a
    span, and the plan composed from the stage outputs must equal
    planner.plan's and the one the session returned, byte for byte.
    """
    if tracer is None:
        with acc.clock.timing(acc.request):
            result = session.execute("datapath_a", {"request": text})
        return result.body if result.ok else None
    with tracer.instrument(), tracer.span("control.execute"):
        result = session.execute("datapath_a", {"request": text})
    tracer.captured["session"] = session
    if not result.ok:
        return None
    start = perf_counter()
    staged = tracer.staged_plan_json(session.topology)
    direct = planner.plan(parse_request(text), session.topology, session.coverage).to_json()
    returned = json.dumps(result.body["plan"], sort_keys=True, separators=(",", ":"))
    acc.staged_ok &= staged == direct == returned
    # the second planning pass is checking, not tracing overhead
    tracer.add("bench.check_s", perf_counter() - start)
    tree = tracer.captured["tree"]
    tracer.add("planner.terminals", len(tree.terminals))
    tracer.add("planner.rules", len(tracer.captured["compiled"][0]))
    tracer.add("planner.tree_weight_ms", tree.weight)
    return result.body


def plan_ok(body: dict, expr, delays: dict, bound_ms: float | None = None) -> bool:
    plan = body["plan"]
    leaf_ids = check.leaves(expr)
    terminals = set(leaf_ids) | {p["switch"] for p in plan["placements"]} | {DESTINATION}
    if not check.tree_ok(plan, terminals, delays):
        return False
    return bound_ms is None or check.worst_path_ms(plan, leaf_ids, DESTINATION, delays) <= bound_ms


def publish(fabric, flows, epochs: int, seed: str, clock: RefClock, series: Series, tracer=None):
    """Publish every flow's sensors one period at a time, draining the
    fabric after each period, so the fabric never holds more than one
    period of input.

    ``flows`` holds (user, expression, leaves). The time spent in
    Fabric.inject and Fabric.run goes to ``series``. Returns the expected
    value and the last publish time of each (user, epoch) and the number of
    samples.
    """
    rng = random.Random(seed)
    expected: dict[tuple, float] = {}
    last: dict[tuple, float] = {}
    samples = 0
    for epoch in range(epochs):
        packets = []
        for user, expr, leaf_ids in flows:
            values = {}
            latest = 0.0
            for leaf in leaf_ids:
                ts = epoch * PERIOD_MS + rng.uniform(*JITTER_MS)
                values[leaf] = rng.uniform(*VALUES)
                latest = max(latest, ts)
                packets.append(PacketRecord(leaf, DESTINATION, user, epoch, ts, Scalar(values[leaf])))
            expected[(user, epoch)] = check.evaluate(expr, values)
            last[(user, epoch)] = latest
        with clock.timing(series):
            if tracer is None:
                for p in packets:
                    fabric.inject(p, at=p.source)
                fabric.run()
            else:
                with tracer.span("dataplane.inject"):
                    for p in packets:
                        fabric.inject(p, at=p.source)
                tracer.drive(fabric)
        samples += len(packets)
    return expected, last, samples


def simulate_flip(fabric, flows, epochs: int, seed: str, acc: Acc, tracer) -> None:
    """Publish, then check every (request, epoch) value at the destination."""
    expected, last, samples = publish(fabric, flows, epochs, seed, acc.clock, acc.sim, tracer)
    acc.samples += samples
    failed = check.failed_values(expected, fabric.delivered, DESTINATION)
    acc.count(len(expected), len(expected) if not check.fabric_clean(fabric) else failed)
    if acc.fixed:
        acc.hops += fabric.stats().total_packet_hops
        for record in fabric.delivered:
            key = (record["user"], record["epoch"])
            if key in last:
                acc.delivery_ms.append(record["time_ms"] - last[key])
    if tracer is not None:
        tracer.record_fabric(fabric)


# -- r1r9 ------------------------------------------------------------------------


class R1R9:
    """R1-R9 on the experiment topology, flip mode and send-everything
    baseline, one request per fabric, as ``flip bench`` runs them. A round
    is one seed pass over a freshly loaded topology."""

    name = "r1r9"
    warmup_rounds = 0
    min_rounds = 12  # 108 timed requests
    # one build takes about a millisecond; 40 a round spread the set-up
    # samples over the run, since the machine's speed drifts within it
    setup_reps = 8
    setup_batch = 40
    setup_every = 1
    epochs = 100  # flip bench's 10 s horizon at a 100 ms period

    def __init__(self, root: Path, seed: int, run_dir: Path):
        self.seed = seed
        self.topology_path = root / "data" / "experiment_topology.json"
        script = (root / "data" / "requests_r1r9.flip").read_text(encoding="utf-8")
        self.requests = []
        for text, dest in check.parse_script(script):
            if dest != DESTINATION:
                raise ValueError(f"R1-R9 request for {dest!r}, expected {DESTINATION!r}")
            self.requests.append((f"datapath_a({text},destination<-{dest})", check.parse_expr(text)))

    def topology(self):
        return load_topology_file(self.topology_path)

    def setup(self, tracer=None, pause=None) -> Session:
        with _span(tracer, "topology.load"):
            t = self.topology()
        return Session(t)

    def round(self, state: Session, index: int, acc: Acc, tracer) -> None:
        with _span(tracer, "topology.load"):
            t = self.topology()
        delays = link_delays(t)
        for number, (text, expr) in enumerate(self.requests, 1):
            seed = f"r1r9/{self.seed}/{index}/R{number}"
            leaf_ids = check.leaves(expr)
            flows = [(DEFAULT_USER, expr, leaf_ids)]
            session = Session(t)
            body = admit(session, text, acc, tracer)
            if body is None:
                acc.count(1 + self.epochs, 1 + self.epochs)
                continue
            simulate_flip(session.fabric, flows, self.epochs, seed, acc, tracer)

            base = Session(t)
            ok = base.execute("datapath_a", {"request": text, "baseline": True}).ok
            _, _, samples = publish(base.fabric, flows, self.epochs, seed, acc.clock, acc.forward)
            acc.forward_samples += samples
            edge = {t.connected_switch(leaf) for leaf in leaf_ids}
            ok = (
                ok
                and len(base.fabric.delivered) == samples
                and check.fabric_clean(base.fabric)
                and check.flip_not_above_baseline(
                    session.fabric.stats(DESTINATION).switch_counts,
                    base.fabric.stats(DESTINATION).switch_counts,
                    edge,
                )
                and plan_ok(body, expr, delays)
            )
            acc.count(1, 0 if ok else 1)
        acc.state_alive()


# -- wide_fanin ------------------------------------------------------------------

EDGE_SWITCHES = 16
STATIONS_PER_EDGE = 50
EDGES_PER_AGG = 4


def wide_topology_doc() -> dict:
    """16 edge switches with 50 base stations each, 4 aggregation switches,
    2 core switches and the user host. Link delays come from a fixed seed,
    so every run plans over the same fabric; they are distinct, so which
    switches a tree joins does not hang on how ties between leaf names
    break."""
    rng = random.Random("wide-topology")

    def delay(low: float) -> float:
        return round(rng.uniform(low, low + 1), 2)

    n_agg = EDGE_SWITCHES // EDGES_PER_AGG
    switches = [f"sw{i}" for i in range(1, EDGE_SWITCHES + n_agg + 3)]
    edge, agg, core = switches[:EDGE_SWITCHES], switches[EDGE_SWITCHES:-2], switches[-2:]
    nodes = [{"id": s, "kind": "switch"} for s in switches]
    nodes += [{"id": f"e-{s}", "kind": "engine"} for s in switches]
    links = [{"a": f"e-{s}", "b": s} for s in switches]
    for k, s in enumerate(edge):
        lo = k * STATIONS_PER_EDGE + 1
        nodes.append({"range": f"bs{lo}:bs{lo + STATIONS_PER_EDGE - 1}", "kind": "basestation", "switch": s})
        links.append({"a": s, "b": agg[k // EDGES_PER_AGG], "delay_ms": delay(1)})
        if k % 2:
            links.append({"a": edge[k - 1], "b": s, "delay_ms": delay(3)})
    for k, s in enumerate(agg):
        links.append({"a": s, "b": core[k * 2 // n_agg], "delay_ms": delay(1)})
    links.append({"a": core[0], "b": core[1], "delay_ms": 1})
    nodes.append({"id": DESTINATION, "kind": "destination"})
    links.append({"a": DESTINATION, "b": core[1], "delay_ms": 1})
    return {"nodes": nodes, "links": links}


class WideFanin:
    """Requests of 50-400 leaves, each on its own Session over one shared
    topology whose shortest paths are already warm, as a long-lived
    controller keeps them. A round is ten requests, two of each size."""

    name = "wide_fanin"
    warmup_rounds = 0
    min_rounds = 10  # 100 timed requests
    # a set-up takes seconds: two before the rounds, then one every four
    setup_reps = 2
    setup_batch = 1
    setup_every = 4
    epochs = 3
    # log-spaced 50..400, two of each per round, so p50 falls inside the
    # 141-leaf class and p90 inside the 400-leaf class, not on a boundary;
    # requests of 238 leaves and more are flat (wide engine configs), the
    # rest grouped, so each class has one shape
    sizes = (50, 400, 84, 238, 141, 141, 238, 84, 400, 50)
    flat_from = 238

    def __init__(self, root: Path, seed: int, run_dir: Path):
        self.seed = seed
        self.doc = wide_topology_doc()
        self.stations = EDGE_SWITCHES * STATIONS_PER_EDGE

    def topology(self):
        return load_topology(self.doc)

    def setup(self, tracer=None, pause=None) -> Session:
        """``pause`` is called between the shortest-path computations,
        which take seconds in all."""
        with _span(tracer, "topology.load"):
            t = self.topology()
        with _span(tracer, "topology.warm"):
            warm(t, pause)
        return Session(t)

    def request(self, rng: random.Random, size: int, grouped: bool):
        """A flat operation over all leaves (one wide engine config), or one
        operation per aggregation block of edge switches under a root."""
        ids = sorted(rng.sample(range(1, self.stations + 1), size))
        ops = ("min", "max", "sum", "avg")
        if not grouped:
            return (rng.choice(ops), [f"bs{i}" for i in ids])
        block = STATIONS_PER_EDGE * EDGES_PER_AGG
        groups: dict[int, list[str]] = {}
        for i in ids:
            groups.setdefault((i - 1) // block, []).append(f"bs{i}")
        children = [(rng.choice(ops), g) for _, g in sorted(groups.items())]
        return (rng.choice(ops), children) if len(children) > 1 else children[0]

    def round(self, state: Session, index: int, acc: Acc, tracer) -> None:
        t = state.topology
        delays = link_delays(t)
        rng = random.Random(f"wide/{self.seed}/{index}")
        for j, size in enumerate(self.sizes):
            expr = self.request(rng, size, grouped=size < self.flat_from)
            text = f"datapath_a({check.render(expr)},destination<-{DESTINATION})"
            session = Session(t)
            body = admit(session, text, acc, tracer)
            if body is None:
                acc.count(1 + self.epochs, 1 + self.epochs)
                continue
            acc.count(1, 0 if plan_ok(body, expr, delays) else 1)
            flows = [(DEFAULT_USER, expr, check.leaves(expr))]
            simulate_flip(session.fabric, flows, self.epochs, f"wide/{self.seed}/{index}/{j}", acc, tracer)
        acc.state_alive()


# -- shared_fabric ---------------------------------------------------------------


class SharedFabric:
    """One fabric on the experiment topology with its engine configuration
    file on disk. Set-up replays the standing users' command log; then 100
    more users each admit one R1-R9-shaped request, and all users' sensors
    publish together. A round starts from a fresh set-up."""

    name = "shared_fabric"
    # the first round in a process runs a third slower than later ones,
    # growing the heap; it is checked but not timed
    warmup_rounds = 1
    min_rounds = 2
    # a round admits users, so the next needs a fresh set-up; six more
    # before the rounds, since a round takes seconds
    setup_reps = 6
    setup_batch = 1
    setup_every = 1
    standing = 20
    users = 100
    epochs = 4
    delay_ms = 10.0
    requirement = "requirement<-{delay=10ms,rate=100ms,jitter=5ms}"

    def __init__(self, root: Path, seed: int, run_dir: Path):
        self.seed = seed
        self.topology_path = root / "data" / "experiment_topology.json"
        script = (root / "data" / "requests_r1r9.flip").read_text(encoding="utf-8")
        shapes = [(text, check.parse_expr(text)) for text, _ in check.parse_script(script)]
        self.standing_users = [(f"s{i}", shapes[i % len(shapes)]) for i in range(self.standing)]
        self.new_users = [(f"u{i}", shapes[(i + 4) % len(shapes)]) for i in range(self.users)]
        self.log = [
            {"verb": "datapath_a", "args": {"request": self.text(user, text)}}
            for user, (text, _) in self.standing_users
        ]
        self.store_root = run_dir / "shared_fabric"
        self.setups = 0

    def text(self, user: str, expr_text: str) -> str:
        return f"datapath_a({expr_text},destination<-{DESTINATION},{self.requirement},user<-{user})"

    def topology(self):
        return load_topology_file(self.topology_path)

    def setup(self, tracer=None, pause=None) -> Session:
        self.setups += 1
        with _span(tracer, "topology.load"):
            t = self.topology()
        with _span(tracer, "control.replay"):
            return Session.replay(t, self.log, config_dir=self.store_root / str(self.setups))

    def round(self, state: Session, index: int, acc: Acc, tracer) -> None:
        delays = link_delays(state.topology)
        for user, (text, expr) in self.new_users:
            body = admit(state, self.text(user, text), acc, tracer)
            acc.count(1, 0 if body is not None and plan_ok(body, expr, delays, self.delay_ms) else 1)
        flows = [(user, expr, check.leaves(expr)) for user, (_, expr) in self.standing_users + self.new_users]
        simulate_flip(state.fabric, flows, self.epochs, f"shared/{self.seed}/{index}", acc, tracer)
        acc.state_alive()


WORKLOADS = {w.name: w for w in (R1R9, WideFanin, SharedFabric)}
