"""Benchmark harness: seeded sensor workloads and engine-assisted vs
send-everything comparisons on two authored topologies.

Both topologies and the R1-R9 request script are the files in the
checkout's `data/` directory (`demo_topology.json`,
`experiment_topology.json`, `requests_r1r9.flip`), resolved relative to
this source tree; they are the same files the README quickstart and
`perfbench/` read. flip is installed editable (`pip install -e .`) and
ships no package data, so the harness runs from a checkout. The
five-switch demo wires bs1..bs300 across four edge switches with the user
host on the fifth. The twelve-switch benchmark attaches bs1..bs78 in
decade blocks to sw1..sw8, aggregates through sw9/sw10 into a sw11/sw12
core (partial mesh: the backbone tree plus five higher-delay cross
links), with the user on sw12 and a cloud host on sw11. Absolute packet
counts depend on this wiring; the reproducible claims are the relative
ones (large reduction, edge switches exempt).

Each request is installed on a fresh `control.Session` by the command
`flip run` executes, in flip or baseline (send-everything) mode.
`publish` is the one path from a workload's samples to the fabric: each
sample becomes the user's packet to the final destination its source's
ingress names, injected at that source in list order. Every
delivered value is audited against a direct evaluation of the request
expression over the recorded per-epoch source values; an audit mismatch
fails the run rather than the report.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path

from . import dsl, planner
from .control import Session
from .dataplane import Fabric
from .dsl import OpKind, OpNode, Request, RequestMode, TaskGraph
from .errors import AuditFailure, FlipError, ValidationError
from .packets import PacketRecord, Scalar
from .topology import Topology, load_topology_file, natural_key, read_text


# -- authored topologies and requests ------------------------------------------

DATA_DIR = Path(__file__).resolve().parents[2] / "data"


def demo_topology() -> Topology:
    """Five switches, 300 base stations, one user host."""
    return load_topology_file(DATA_DIR / "demo_topology.json")


def build_experiment_topology() -> Topology:
    """Twelve switches, 78 base stations, user and cloud hosts."""
    return load_topology_file(DATA_DIR / "experiment_topology.json")


def request_texts() -> list[str]:
    """R1..R9 in order; `#` comments and blank lines are skipped."""
    return [line for _, line in dsl.script_lines(read_text(DATA_DIR / "requests_r1r9.flip"))]


def requests_r1_r9() -> list[Request]:
    return [dsl.parse_request(text) for text in request_texts()]


# -- workload --------------------------------------------------------------------

# the most epochs a workload may ask for: its samples are built as one list,
# so a period mistyped far too small would run without end
MAX_EPOCHS = 1_000_000


@dataclass(frozen=True)
class Sample:
    source: str
    epoch: int
    publish_ms: float
    value: float


@dataclass
class Workload:
    """Seeded publish schedule: every source emits one scalar per period,
    offset by a uniform per-packet jitter, over at least one finite period
    and at most MAX_EPOCHS."""

    seed: int = 0
    horizon_ms: float = 10_000.0
    period_ms: float = 100.0
    value_range: tuple[float, float] = (0.0, 100.0)
    jitter_range_ms: tuple[float, float] = (0.0, 3.0)

    def __post_init__(self):
        if not (math.isfinite(self.period_ms) and self.period_ms > 0):
            raise ValidationError(f"period_ms must be finite and above 0, got {self.period_ms!r}")
        if not (math.isfinite(self.horizon_ms) and self.horizon_ms >= self.period_ms):
            raise ValidationError(
                f"horizon_ms must be finite and at least one period ({self.period_ms!r} ms),"
                f" got {self.horizon_ms!r}"
            )
        if self.horizon_ms // self.period_ms > MAX_EPOCHS:
            raise ValidationError(
                f"horizon_ms / period_ms must give at most {MAX_EPOCHS} epochs,"
                f" got {self.horizon_ms // self.period_ms:g}"
            )

    def epochs(self) -> int:
        return int(self.horizon_ms // self.period_ms)

    def samples(self, sources: list[str]) -> list[Sample]:
        rng = random.Random(self.seed)
        ordered = sorted(sources, key=natural_key)
        out = []
        for epoch in range(self.epochs()):
            for source in ordered:
                offset = rng.uniform(*self.jitter_range_ms)
                value = rng.uniform(*self.value_range)
                out.append(Sample(source, epoch, epoch * self.period_ms + offset, value))
        return out

    def to_doc(self) -> dict:
        return asdict(self)


# -- reference evaluation ---------------------------------------------------------


def evaluate_expression(tg: TaskGraph, values: dict[str, float]) -> float:
    """Evaluate the request expression directly over one epoch's values.

    Independent of the engine pipeline on purpose: this is the audit oracle
    for everything the fabric delivers.
    """

    def rec(node: OpNode) -> float:
        operands = [
            rec(c) if isinstance(c, OpNode) else values[c] for c in node.children
        ]
        if node.kind is OpKind.MIN:
            return min(operands)
        if node.kind is OpKind.MAX:
            return max(operands)
        if node.kind is OpKind.SUM:
            return sum(operands)
        if node.kind is OpKind.AVG:
            return sum(operands) / len(operands)
        if node.kind is OpKind.SUB:
            acc = operands[0]
            for v in operands[1:]:
                acc -= v
            return acc
        acc = operands[0]
        for v in operands[1:]:
            acc *= v
        return acc

    return rec(tg.root)


def _values_close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-12)


# -- comparison runs ---------------------------------------------------------------


@dataclass
class ComparisonRow:
    request: str
    label: str
    flip_total_hops: int
    baseline_total_hops: int
    reduction_pct: float
    per_switch_flip: dict[str, int]
    per_switch_baseline: dict[str, int]
    edge_switches: list[str]
    delivered_epochs: int
    audit_ok: bool

    def to_doc(self) -> dict:
        return asdict(self)


def publish(fabric: Fabric, samples: list[Sample], ingress: dict[str, str], user: str) -> None:
    """Inject each sample in list order at its source, as `user`'s packet to
    the final destination `ingress` gives that source."""
    for s in samples:
        packet = PacketRecord(s.source, ingress[s.source], user, s.epoch, s.publish_ms, Scalar(s.value))
        fabric.inject(packet, at=s.source)


def simulate(
    t: Topology, request: Request, workload: Workload, baseline: bool = False
) -> tuple[Fabric, list[Sample]]:
    """Install one request on a fresh session, engine-assisted or (with
    `baseline`) send-everything, then publish the workload and run the
    fabric. A rejected request raises a FlipError with the command's code."""
    session = Session(t)
    verb = "datapath_a" if request.mode is RequestMode.AUTOMATED else "datapath_m"
    result = session.execute(verb, {"request": dsl.canonical(request), "baseline": baseline})
    if not result.ok:
        error = FlipError(result.message)
        error.code = result.code
        raise error
    body = result.body
    if baseline:
        ingress = {source: body["destination"] for source in body["sources"]}
    else:
        ingress = body["plan"]["source_ingress"]
    samples = workload.samples(list(ingress))
    publish(session.fabric, samples, ingress, request.user)
    session.fabric.run()
    return session.fabric, samples


def audit_delivered(
    tg: TaskGraph, fabric: Fabric, samples: list[Sample], destination: str, epochs: int
) -> int:
    """Compare every delivered value with the direct expression evaluation.

    Raises AuditFailure on the first mismatch; returns the epoch count.
    """
    by_epoch: dict[int, dict[str, float]] = {}
    for s in samples:
        by_epoch.setdefault(s.epoch, {})[s.source] = s.value
    delivered = fabric.delivered_at(destination)
    if len(delivered) != epochs:
        raise AuditFailure(f"expected {epochs} deliveries at {destination}, got {len(delivered)}")
    seen = set()
    for record in delivered:
        epoch = record["epoch"]
        if epoch in seen:
            raise AuditFailure(f"epoch {epoch} delivered more than once")
        seen.add(epoch)
        got = record["payload"]["scalar"]
        want = evaluate_expression(tg, by_epoch[epoch])
        if not _values_close(got, want):
            raise AuditFailure(f"epoch {epoch}: delivered {got!r}, expected {want!r}")
    return len(delivered)


def run_comparison(t: Topology, request: Request, workload: Workload, label: str = "") -> ComparisonRow:
    """One request, one workload, both modes; audited and summarized."""
    tg = dsl.expand_sources(request, t)
    destination = planner.resolve_endpoint(t, request.destination)
    flip_fabric, samples = simulate(t, request, workload)
    delivered = audit_delivered(tg, flip_fabric, samples, destination, workload.epochs())
    base_fabric, _ = simulate(t, request, workload, baseline=True)

    flip_hops = flip_fabric.stats().total_packet_hops
    base_hops = base_fabric.stats().total_packet_hops
    reduction = 100.0 * (1.0 - flip_hops / base_hops) if base_hops else 0.0
    edge = sorted({t.connected_switch(leaf) for leaf in tg.leaves()}, key=natural_key)
    return ComparisonRow(
        request=dsl.canonical(request),
        label=label or dsl.canonical(request),
        flip_total_hops=flip_hops,
        baseline_total_hops=base_hops,
        reduction_pct=reduction,
        per_switch_flip=flip_fabric.stats(destination).switch_counts,
        per_switch_baseline=base_fabric.stats(destination).switch_counts,
        edge_switches=edge,
        delivered_epochs=delivered,
        audit_ok=True,
    )


# -- the full suite -----------------------------------------------------------------


@dataclass
class ExperimentReport:
    suite: str
    seed: int
    workload: dict
    rows: list[ComparisonRow]
    switches: list[str]

    def per_switch_totals(self) -> list[tuple[str, int, int]]:
        totals = []
        for sw in self.switches:
            flip = sum(r.per_switch_flip.get(sw, 0) for r in self.rows)
            base = sum(r.per_switch_baseline.get(sw, 0) for r in self.rows)
            totals.append((sw, flip, base))
        return totals

    def to_doc(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "workload": self.workload,
            "rows": [r.to_doc() for r in self.rows],
            "per_switch": [
                {"switch": sw, "flip_count": f, "baseline_count": b}
                for sw, f, b in self.per_switch_totals()
            ],
            "audit_ok": all(r.audit_ok for r in self.rows),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), sort_keys=True, separators=(",", ":"))


def run_suite(
    workload: Workload | None = None,
    topology: Topology | None = None,
) -> ExperimentReport:
    """Run R1..R9 in both modes on the benchmark topology; the seed is the
    workload's."""
    t = topology or build_experiment_topology()
    w = workload or Workload()
    rows = []
    for i, request in enumerate(requests_r1_r9(), 1):
        rows.append(run_comparison(t, request, w, label=f"R{i}"))
    return ExperimentReport(
        suite="r1r9", seed=w.seed, workload=w.to_doc(), rows=rows, switches=t.switches()
    )


def export_report(report: ExperimentReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the two CSV panels plus a JSON summary. Floats are written with
    repr so the reduction column recomputes exactly from the totals."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    switch_csv = out / "switch_counts.csv"
    with open(switch_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["switch", "flip_count", "baseline_count"])
        for sw, flip, base in report.per_switch_totals():
            writer.writerow([sw, flip, base])
    totals_csv = out / "request_totals.csv"
    with open(totals_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["request", "flip_total_hops", "baseline_total_hops", "reduction_pct"])
        for row in report.rows:
            writer.writerow(
                [row.label, row.flip_total_hops, row.baseline_total_hops, repr(row.reduction_pct)]
            )
    summary = out / "summary.json"
    summary.write_text(
        json.dumps(report.to_doc(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return {"switch_counts": switch_csv, "request_totals": totals_csv, "summary": summary}
