"""flip benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload r1r9 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; flip is imported from ``src/`` of
that checkout and nowhere else. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from a traced run. Load comes from one process and one
thread; requests are a closed loop from one client.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

from refclock import REF_CAL_S, Series, calibrate

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
NAMES = ("r1r9", "wide_fanin", "shared_fabric")


def spec() -> dict:
    """BENCHMARK.json: the metrics' names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(kind: str) -> dict[str, str]:
    """Unit of each ``end_to_end`` or ``per_layer`` metric."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def import_flip() -> None:
    """Make ``src/`` of this checkout importable; refuse any other flip."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import flip
    except ImportError as exc:
        sys.exit(f"cannot import flip from {src}: {exc}")
    if Path(flip.__file__).resolve().parent != src / "flip":
        sys.exit(f"flip imported from {flip.__file__}, not from {src}")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    k = (len(s) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup(wl, acc, setups: Series):
    """Build the workload's state ``setup_batch`` times back to back, so
    that short set-ups are measurable; ``setups`` receives the seconds per
    set-up. Returns the last state built."""
    state = None
    gc.collect()
    with acc.clock.timing(setups, per=wl.setup_batch, tight=True):
        for _ in range(wl.setup_batch):
            state = wl.setup(pause=acc.clock.pause)
    return state


def rounds(wl, state, seconds: float, min_rounds: int, acc, tracer_for, setups: Series):
    """Run whole rounds until the next one would pass ``seconds``, and at
    least ``min_rounds``. Every ``setup_every`` rounds the state is built
    again, timed into ``setups``: a workload whose rounds change the state
    needs it, and the others spread their set-up samples over the run.
    Yields (index, wall seconds, traced)."""
    start = perf_counter()
    walls: list[float] = []
    index = 0
    while index < min_rounds or perf_counter() - start + statistics.median(walls) <= seconds:
        round_start = perf_counter()
        if index and index % wl.setup_every == 0:
            state = None  # freed before the next is built, so peaks do not add
            state = time_setup(wl, acc, setups)
        tracer = tracer_for(index)
        acc.fixed = index < wl.min_rounds
        gc.collect()
        began = perf_counter()
        wl.round(state, index, acc, tracer)
        yield index, perf_counter() - began, tracer is not None
        walls.append(perf_counter() - round_start)
        index += 1


def end_to_end(wl, seconds: float, acc) -> tuple[dict, dict]:
    """The end-to-end metrics, and the timed ones again in raw wall time,
    so that a gap between CPU and wall time shows."""
    base_mb = peak_rss_mb()
    setups = Series()
    for _ in range(wl.setup_reps - 1):
        time_setup(wl, acc, setups)
    # no name here keeps the first state alive once rounds replaces it
    for index, _, _ in rounds(wl, time_setup(wl, acc, setups), seconds, wl.min_rounds, acc, lambda index: None, setups):
        if index + 1 == wl.warmup_rounds:
            acc.clock.flush()
            acc.request.clear()
            acc.sim.clear()
            acc.samples = 0
        if index == wl.min_rounds - 1:
            # later rounds vary in number with the machine's speed
            peak_mb = peak_rss_mb()
    acc.clock.flush()

    def timed(kind):
        return {
            "setup_s": statistics.median(getattr(setups, kind)),
            "request_ms_p50": 1000 * percentile(getattr(acc.request, kind), 0.5),
            "request_ms_p90": 1000 * percentile(getattr(acc.request, kind), 0.9),
            "samples_per_s": acc.samples / sum(getattr(acc.sim, kind)),
        }

    return {
        **timed("ref"),
        "peak_mem_mb": peak_mb - base_mb,
        "packet_hops": acc.hops,
        "sim_delivery_ms_p50": percentile(acc.delivery_ms, 0.5),
        "sim_delivery_ms_p90": percentile(acc.delivery_ms, 0.9),
    }, timed("wall")


def per_layer(wl, seconds: float, acc) -> dict:
    """Untraced and traced rounds alternate for ``seconds``; the per-layer
    numbers come from the traced ones and the tracing overhead from the
    two kinds' median round times. A last round under tracemalloc gives
    memory by source file, at the end of the round while its state lives."""
    import flip
    from flip.control import Session
    from spans import Tracer
    from workloads import warm

    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    cals = [calibrate()]
    # the minimum round count serves end-to-end percentiles; here one
    # untraced and one traced round after the warm-up do
    checked = 0.0
    min_rounds = wl.warmup_rounds + 2
    for index, wall, traced in rounds(wl, wl.setup(tracer), seconds, min_rounds, acc, lambda i: tracer if i % 2 else None, Series()):
        if traced:
            wall -= tracer.counters["bench.check_s"] - checked
            checked = tracer.counters["bench.check_s"]
        if index >= wl.warmup_rounds:
            walls[traced].append(wall)
        cals.append(calibrate())
    traced_rounds = len(walls[True])
    acc.clock.flush()

    # measured on every workload, also where set-up does neither
    with tracer.span("topology.warm"):
        warm(wl.topology())
    if not any(span[0] == "control.replay" for span in tracer.spans):
        last = tracer.captured["session"]
        with tracer.span("control.replay"):
            Session.replay(last.topology, last.command_log, last.coverage)
    tracer.captured.clear()
    # span times are raw; one factor per run brings them to reference speed
    factor = REF_CAL_S / statistics.median(cals)

    snapshots = []
    gc.collect()
    tracemalloc.start()
    try:
        acc.on_state = lambda: snapshots.append(tracemalloc.take_snapshot())
        acc.fixed = False
        wl.round(wl.setup(), 0, acc, None)
        acc.on_state = None
    finally:
        tracemalloc.stop()
    flip_dir = Path(flip.__file__).resolve().parent
    mem_mb = {}
    for stat in snapshots[-1].statistics("filename"):
        path = Path(stat.traceback[0].filename)
        if path.parent == flip_dir:
            mem_mb[path.stem] = stat.size / 2**20
    snapshots.clear()

    total, count, self_ms = tracer.span_totals()
    c, peaks = tracer.counters, tracer.maxima
    executes = max(count["control.execute"], 1)

    def mean_span(name):
        return total[name] / count[name] if count[name] else 0.0

    def per_execute(name):
        return total[name] / executes

    busy_s = (c["epb.busy_ns"] + c["dataplane.busy_ns"]) / 1e9
    values = {
        "topology.load_ms": mean_span("topology.load"),
        "topology.warm_ms": mean_span("topology.warm"),
        "control.replay_ms": mean_span("control.replay"),
        "dsl.parse_ms": per_execute("dsl.parse"),
        "dsl.expand_ms": per_execute("dsl.expand"),
        "planner.place_ms": per_execute("planner.place"),
        "planner.steiner_ms": per_execute("planner.steiner"),
        "planner.admit_ms": per_execute("planner.admit"),
        "planner.compile_ms": per_execute("planner.compile"),
        "planner.terminals": c["planner.terminals"] / executes,
        "planner.rules": c["planner.rules"] / executes,
        "planner.tree_weight_ms": c["planner.tree_weight_ms"] / executes,
        "control.overhead_ms": self_ms["control.execute"] / executes,
        "dataplane.install_ms": per_execute("dataplane.install"),
        "epb.store_write_ms": per_execute("epb.store_write"),
        "epb.store_bytes": c["epb.store_bytes"] / executes,
        "epb.busy_ms": c["epb.busy_ns"] / 1e6 / traced_rounds,
        "epb.configs_per_engine_max": peaks["epb.configs_per_engine_max"],
        "epb.sources_per_config_max": peaks["epb.sources_per_config_max"],
        "epb.arrivals": c["epb.arrivals"] / traced_rounds,
        "epb.consumed": c["epb.consumed"] / traced_rounds,
        "epb.emitted": c["epb.emitted"] / traced_rounds,
        "epb.consumed_per_arrival": c["epb.consumed"] / max(c["epb.arrivals"], 1),
        "dataplane.busy_ms": c["dataplane.busy_ns"] / 1e6 / traced_rounds,
        "dataplane.inject_ms": total["dataplane.inject"] / traced_rounds,
        "dataplane.events": c["dataplane.events"] / traced_rounds,
        "dataplane.events_per_s": c["dataplane.events"] / busy_s if busy_s else 0.0,
        "dataplane.scan_depth": c["dataplane.rules_scanned"] / max(c["dataplane.matches"], 1),
        "dataplane.forward_samples_per_s": acc.forward_samples / sum(acc.forward.ref) if acc.forward.ref else 0.0,
        "topology.mem_mb": mem_mb.get("topology", 0.0),
        "dataplane.mem_mb": mem_mb.get("dataplane", 0.0),
        "epb.mem_mb": mem_mb.get("epb", 0.0),
        "bench.trace_overhead_pct": 100.0
        * (statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0),
    }
    # span times are wall time: those in ms come to reference speed by the
    # run's factor; planner.tree_weight_ms is link delay, not time
    for name, unit in units("per_layer").items():
        if unit == "ms":
            values[name] *= factor
    values["dataplane.events_per_s"] /= factor
    return values


def run_one(args) -> dict:
    import_flip()
    from workloads import WORKLOADS, Acc

    # sessions keep engine configs in memory unless a workload names a directory
    os.environ.pop("FLIP_CONFIG_DIR", None)
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    wl = WORKLOADS[args.workload](ROOT, args.seed, run_dir)
    acc = Acc()
    walls = {}
    try:
        if args.trace:
            values = per_layer(wl, args.seconds, acc)
        else:
            values, walls = end_to_end(wl, args.seconds, acc)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    unit = units("per_layer" if args.trace else "end_to_end")
    for name, value in values.items():
        print(f"{args.workload:14} {name:34} {value:16.6f} {unit[name]}")
    for name, value in walls.items():
        print(f"{args.workload:14} {name + ' (raw wall)':34} {value:16.6f} {unit[name]}")
    print(f"{args.workload:14} {'operations attempted / failed':34} {acc.attempted:>9} / {acc.failed}")
    if not args.trace:
        print(f"{args.workload:14} {'reference / raw CPU time':34} {acc.clock.ref_s / acc.clock.raw_s:16.6f}")
    if not acc.clock.alone:
        print(f"{args.workload:14} a timed span ended with a second thread or a child process")
    return {
        "correct": acc.failed == 0 and acc.staged_ok and acc.clock.alone,
        "attempted": acc.attempted,
        "failed": acc.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in values.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so no peak carries into the next."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"{name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
