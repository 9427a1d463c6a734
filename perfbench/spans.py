"""Spans and counters for the traced run.

Spans are recorded from the benchmark's side, around calls into flip's
public functions: while ``Tracer.instrument()`` is active, the planning
stages, rule installation and config-store writes are replaced by timing
wrappers, so each ``Session.execute`` call gets one child span per stage
and its self time is the control layer's own overhead. The event loop is
driven one ``Fabric.step()`` at a time, and each step's time goes to the
kind of the event it handled.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

from flip import dataplane, dsl, planner
from flip.dataplane import Fabric
from flip.epb import ConfigStore

# (module or class, attribute, span name, captured as)
_STAGES = (
    (dsl, "parse_request", "dsl.parse", "request"),
    (planner, "expand_sources", "dsl.expand", "tg"),
    (planner, "place_operations", "planner.place", "placements"),
    (planner, "steiner_tree", "planner.steiner", "tree"),
    (planner, "check_delay", "planner.admit", "admission"),
    (planner, "compile_rules", "planner.compile", "compiled"),
    (Fabric, "install_rules", "dataplane.install", None),
)


class Tracer:
    """In-memory spans (name, start ns, end ns, parent index) plus
    counters; both are summed into per-layer metrics at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.captured: dict[str, object] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def _wrap(self, fn, name: str, capture: str | None):
        def wrapped(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if capture:
                self.captured[capture] = out
            return out

        return wrapped

    def _wrap_store(self, fn):
        def set_config(store, cfg):
            with self.span("epb.store_write"):
                fn(store, cfg)
            if store.path is not None:
                self.add("epb.store_bytes", store.path.stat().st_size)

        return set_config

    @contextmanager
    def instrument(self):
        """Replace the stage functions with timing wrappers; restored on exit."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _STAGES]
        saved.append((ConfigStore, "set_config", ConfigStore.set_config))
        try:
            for owner, attr, name, capture in _STAGES:
                setattr(owner, attr, self._wrap(getattr(owner, attr), name, capture))
            ConfigStore.set_config = self._wrap_store(ConfigStore.set_config)
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def staged_plan_json(self, topology) -> str:
        """The plan composed from the captured stage outputs of the last
        execute call, serialized as planner.plan serializes it."""
        c = self.captured
        rules, configs, ingress = c["compiled"]
        admitted, worst = c["admission"]
        return planner.DatapathPlan(
            mode=c["request"].mode,
            destination=planner.resolve_endpoint(topology, c["request"].destination),
            placements=c["placements"],
            tree=c["tree"],
            rules=rules,
            engine_configs=configs,
            admitted=admitted,
            worst_path_delay_ms=worst,
            source_ingress=ingress,
        ).to_json()

    def drive(self, fabric: Fabric) -> None:
        """Run the fabric to empty one step at a time. Engine, timeout and
        passthrough events are engine work (epb); arrivals at switches and
        hosts are forwarding work (dataplane)."""
        heap = fabric._heap
        epb_ns = dp_ns = events = 0
        while heap:
            kind = heap[0][2]
            start = perf_counter_ns()
            fabric.step()
            took = perf_counter_ns() - start
            if kind == dataplane._ARRIVE:
                dp_ns += took
            else:
                epb_ns += took
            events += 1
        self.add("epb.busy_ns", epb_ns)
        self.add("dataplane.busy_ns", dp_ns)
        self.add("dataplane.events", events)

    def record_fabric(self, fabric: Fabric) -> None:
        """Engine counters, config widths and rule scan depth of one
        simulated flip-mode fabric."""
        for counters in fabric.stats().engine_counters.values():
            for key in ("arrivals", "consumed", "emitted"):
                self.add(f"epb.{key}", counters[key])
        for engine in fabric.engines:
            configs = fabric.store.configs_for(engine)
            self.peak("epb.configs_per_engine_max", len(configs))
            for cfg in configs:
                self.peak("epb.sources_per_config_max", len(cfg.sources))
        for table in fabric.tables.values():
            for index, count in enumerate(table.counters):
                self.add("dataplane.rules_scanned", (index + 1) * count)
                self.add("dataplane.matches", count)

    def span_totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Total ms, count and self ms (duration minus the time its child
        spans cover) per span name."""
        total_ms: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        child_ms: dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            ms = (end - start) / 1e6
            total_ms[name] += ms
            count[name] += 1
            if parent is not None:
                child_ms[parent] += ms
        self_ms: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_ms[name] += (end - start) / 1e6 - child_ms[index]
        return total_ms, count, self_ms
