"""Per-switch processing engines: config store and the packet pipeline.

Each engine applies, per matching config, the pipeline

    rate filter -> de-jitter -> epoch buffer -> aggregate -> emit

Rate filtering passes the first packet a source publishes in each
floor(timestamp / rate) window and drops the rest. De-jitter keeps
arrivals whose timestamp offset from the epoch leader (the first accepted
arrival) stays within the configured threshold, boundary inclusive. An
epoch buffers one (timestamp, value) pair of floats per source and closes
in one place, `Engine._close`: on the arrival that completes its config's
sources, or when its timer fires. `_close` takes the pairs of the config's
sources that arrived, in source order, splits them with `zip`, and folds
the values with the compute operation; one packet leaves the engine,
stamped with the config's destination and the latest timestamp. Only the
timer rejects an epoch: when its config was removed, is order-sensitive
(sub, mul), or was replaced by one that lists none of the sources that
arrived. An epoch that its opening arrival completes arms no timer.

The store is memory only: one dict per engine, keyed by
`EngineConfig.key()`, (engine, user, destination); within one engine's
dict that orders its configs by (user, destination). `set_config`,
`remove` and `get` take that key whole, the index entries and timer
tokens carry the same tuple, and an engine files each config's rate
windows and epochs under it.
`ConfigStore.to_doc()` shapes it engine -> user -> [records], each record
carrying compute, source list, destination, rate, and jitter; the control
layer writes that document to the engine configuration file, which
nothing reads back, and a store always starts empty.

An engine finds a packet's config through `ConfigStore.index`, one dict
per engine keyed (user, final destination, source): the keys
`EngineConfig.matches` gives, each match destination (or, for a config
without any, its destination and its engine) with each source.
`packets.first_match` builds it on the first packet after a change from
`configs_for`, the engine's configs in (user, destination) order, keeping
the first config for each key, so a packet gets the first config in that
order whose user, sources and matched destinations cover it. Each entry
holds the config and its key, so an arrival computes no key. A packet that
no config covers is counted as `no_config` and discarded.

`Engine.process` is the one implementation of every pipeline rule (rate,
epoch, late, de-jitter, duplicate, timeout), in one pass. It returns None
for most arrivals, buffered or discarded, else a plain value: the output
packet of an epoch it closes, or the (deadline, token) of one it opens.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import product

from .dsl import JITTER_MAX_MS, ORDER_SENSITIVE, OpKind
from .errors import ValidationError
from .packets import PacketRecord, Scalar, first_match

TIMEOUT_RATE_FACTOR = 2.0
NO_RATE_TIMEOUT_MS = 100.0

# an engine's counters of what became of its arrivals: with the arrivals
# still buffered in open epochs, they account for every arrival
SETTLED = ("no_config", "rate_dropped", "jitter_discarded", "duplicate_discarded",
           "late_discarded", "consumed", "rejected")


@dataclass(frozen=True)
class EngineConfig:
    """One user flow handled by one engine, mirroring the on-disk record."""

    engine: str
    user: str
    compute: OpKind
    sources: tuple[str, ...]
    destination: str
    rate_ms: float | None = None
    jitter_ms: float | None = None
    # the final destinations its inbound packets carry (see matches())
    match_destinations: tuple[str, ...] = ()

    def key(self) -> tuple[str, str, str]:
        return (self.engine, self.user, self.destination)

    def matches(self) -> product[tuple[str, str, str]]:
        """Its (user, final destination, source) keys, over its match
        destinations or else its destination and engine."""
        return product((self.user,), self.match_destinations or (self.destination, self.engine), self.sources)

    def validate(self) -> None:
        # destination may equal the engine itself: chained operations can
        # share one engine, the output then feeds the next config in place
        if not self.sources:
            raise ValidationError("config needs at least one source")
        if len(set(self.sources)) != len(self.sources):
            raise ValidationError(f"duplicate sources in config: {self.sources}")
        for name, value in (("rate", self.rate_ms), ("jitter", self.jitter_ms)):
            if value is not None and (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not _finite(value)
            ):
                raise ValidationError(f"{name} must be a finite number, got {value!r}")
        if self.rate_ms is not None and self.rate_ms <= 0:
            raise ValidationError(f"rate must be positive, got {self.rate_ms:g}")
        if self.jitter_ms is not None and not (0 <= self.jitter_ms <= JITTER_MAX_MS):
            raise ValidationError(
                f"jitter must be within 0..{JITTER_MAX_MS:g} ms, got {self.jitter_ms:g}"
            )

    def to_doc(self) -> dict:
        doc = {
            "compute": self.compute.value,
            "source": list(self.sources),
            "destination": self.destination,
        }
        if self.rate_ms is not None:
            doc["rate"] = self.rate_ms
        if self.jitter_ms is not None:
            doc["jitter"] = self.jitter_ms
        if self.match_destinations:
            doc["match"] = list(self.match_destinations)
        return doc

    @classmethod
    def from_doc(cls, engine: str, user: str, doc: dict) -> "EngineConfig":
        try:
            destination = doc["destination"]
            if not isinstance(destination, str):
                raise ValidationError("bad engine config record: 'destination' must be a name")
            return cls(
                engine=engine,
                user=user,
                compute=OpKind(doc["compute"]),
                sources=_names(doc["source"], "source"),
                destination=destination,
                rate_ms=doc.get("rate"),
                jitter_ms=doc.get("jitter"),
                match_destinations=_names(doc.get("match", []), "match"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ValidationError(f"bad engine config record: {exc}") from None


def _names(value, field: str) -> tuple[str, ...]:
    """A record's list of node names; a bare string is not split into letters."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValidationError(f"bad engine config record: {field!r} must be a list of names")
    return tuple(value)


class ConfigStore:
    """Engine configs in memory: one active config per (engine, user,
    destination). The store starts empty; `to_doc()` is the document the
    engine configuration file holds."""

    # a store writes no file (see `control.write_config_file`); the
    # benchmark's span wrapper still reads `path`, which stays None
    path = None

    def __init__(self):
        # engine -> its config key (engine, user, destination) -> config
        self._configs: dict[str, dict[tuple[str, str, str], EngineConfig]] = {}
        # engine -> the dict `index` returns, built on first use and dropped
        # when one of the engine's configs changes
        self._index: dict[str, dict[tuple[str, str, str], tuple[EngineConfig, tuple]]] = {}

    def set_config(self, cfg: EngineConfig) -> None:
        cfg.validate()
        self._configs.setdefault(cfg.engine, {})[cfg.key()] = cfg
        self._index.pop(cfg.engine, None)

    def remove(self, key: tuple[str, str, str]) -> bool:
        if self._configs.get(key[0], {}).pop(key, None) is None:
            return False
        self._index.pop(key[0], None)
        return True

    def configs_for(self, engine: str) -> list[EngineConfig]:
        """The engine's configs in (user, destination) order."""
        configs = self._configs.get(engine, {})
        return [configs[k] for k in sorted(configs)]

    def user_configs(self, engine: str, user: str) -> list[EngineConfig]:
        return [c for c in self.configs_for(engine) if c.user == user]

    def get(self, key: tuple[str, str, str]) -> EngineConfig | None:
        return self._configs.get(key[0], {}).get(key)

    def index(self, engine: str) -> dict[tuple[str, str, str], tuple[EngineConfig, tuple]]:
        """The engine's config index, (user, final destination, source) ->
        (the first config in configs_for(engine) order that covers the key,
        its key). Built from configs_for on first use after a change;
        `Engine.process` reads the same dict."""
        index = self._index.get(engine)
        if index is None:
            entries = [(cfg.matches(), (cfg, cfg.key())) for cfg in self.configs_for(engine)]
            index = self._index[engine] = first_match(entries)
        return index

    def to_doc(self) -> dict:
        """engine -> user -> [records], in configs_for order; an engine
        without configs is left out."""
        doc: dict[str, dict[str, list[dict]]] = {}
        for engine in sorted(self._configs):
            for cfg in self.configs_for(engine):
                doc.setdefault(engine, {}).setdefault(cfg.user, []).append(cfg.to_doc())
        return doc


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range, as json.loads gives for 401 digits
        return False


# -- payload arithmetic --------------------------------------------------------


def _fold(kind: OpKind, values: tuple[float, ...]) -> float:
    # sum, avg, sub and mul fold left one operation at a time; sum() would
    # compensate rounding from Python 3.12 on and change the last bits
    if kind is OpKind.MIN:
        return min(values)
    if kind is OpKind.MAX:
        return max(values)
    if kind is OpKind.SUB:
        return functools.reduce(operator.sub, values)
    if kind is OpKind.MUL:
        return functools.reduce(operator.mul, values)
    acc = functools.reduce(operator.add, values)
    return acc / len(values) if kind is OpKind.AVG else acc


class Engine:
    """One engine's runtime state: counters, and per config key one
    (rate windows, epochs) pair. The rate windows map a source to the last
    window it passed in. The epochs map an epoch number to its arrivals
    while open, source -> (timestamp, value), leader first, and to None
    once closed, which is how a later packet of it is known to be late. A
    rejected epoch is deleted, so a later packet reopens it. A timer's
    token is (config key, epoch)."""

    def __init__(self, engine_id: str, store: ConfigStore):
        self.engine_id = engine_id
        self.store = store
        # config key -> (source -> last rate window, epoch -> arrivals or None)
        self._state: dict[tuple, tuple[dict[str, int], dict[int, dict[str, tuple[float, float]] | None]]] = {}
        self.counters: dict[str, int] = {"arrivals": 0, **dict.fromkeys(SETTLED, 0), "emitted": 0}

    def process(self, p: PacketRecord, now: float) -> PacketRecord | tuple[float, tuple] | None:
        """Feed one redirected packet through the pipeline, rule by rule:
        - rate: with a rate, the epoch is the packet's rate window, and a
          source's first packet in a window passes; a later packet of that
          window or of an earlier one does not. Without one, the epoch is
          the packet's own;
        - late: an epoch already closed takes nothing more;
        - de-jitter and duplicate: a later arrival must be within the
          jitter threshold of the epoch's leader (boundary inclusive) and
          from a source the epoch has not heard;
        - close and timeout: the arrival that covers the config's sources
          closes the epoch; one that opens an epoch without closing it asks
          for a timer, TIMEOUT_RATE_FACTOR rate windows later, or
          NO_RATE_TIMEOUT_MS.

        Returns None when the packet was buffered or discarded with nothing
        to send or schedule, as most arrivals are, also when no config
        matched it; the output packet of the epoch it closed; or (deadline,
        token) for the timer of an epoch it opened. It reads the store's
        index dict in place, building it through `ConfigStore.index` only
        when a change dropped it, and its config's state with one lookup of
        the config key.
        """
        counters = self.counters
        counters["arrivals"] += 1
        source = p.source
        index = self.store._index.get(self.engine_id)
        if index is None:
            index = self.store.index(self.engine_id)
        hit = index.get((p.user, p.final_destination, source))
        if hit is None:
            counters["no_config"] += 1
            return None
        cfg, key = hit
        state = self._state.get(key)
        if state is None:
            state = self._state[key] = ({}, {})
        windows, epochs = state
        rate = cfg.rate_ms
        if rate is None:
            epoch = p.epoch
        else:
            epoch = math.floor(p.timestamp_ms / rate)
            last = windows.get(source)
            if last is not None and epoch <= last:
                counters["rate_dropped"] += 1
                return None
            windows[source] = epoch
        arrivals = epochs.get(epoch)
        opened = arrivals is None
        if opened:
            if epoch in epochs:
                counters["late_discarded"] += 1
                return None
            arrivals = epochs[epoch] = {}
        elif cfg.jitter_ms is not None and (
            abs(p.timestamp_ms - next(iter(arrivals.values()))[0]) > cfg.jitter_ms
        ):
            counters["jitter_discarded"] += 1
            return None
        elif source in arrivals:
            counters["duplicate_discarded"] += 1
            return None
        arrivals[source] = (p.timestamp_ms, p.payload.value)
        sources = cfg.sources
        # sources are distinct, so fewer arrivals cannot cover them all
        if len(arrivals) >= len(sources) and all(map(arrivals.__contains__, sources)):
            return self._close(epochs, epoch, cfg, arrivals, map(arrivals.__getitem__, sources))
        if not opened:
            return None
        return now + (NO_RATE_TIMEOUT_MS if rate is None else TIMEOUT_RATE_FACTOR * rate), (key, epoch)

    def on_timeout(self, token: tuple, now: float) -> PacketRecord | None:
        """Close an epoch whose timer fired; a stale timer, whose epoch is
        closed (None) or unknown, is ignored. This is the one place an epoch
        is rejected: its config is gone, needs every operand, or lists none
        of the sources that arrived."""
        key, epoch = token
        state = self._state.get(key)
        arrivals = None if state is None else state[1].get(epoch)
        if arrivals is None:
            return None
        epochs = state[1]
        cfg = self.store.get(key)
        rows = None
        if cfg is not None and cfg.compute not in ORDER_SENSITIVE:
            rows = [arrivals[s] for s in cfg.sources if s in arrivals]
        if not rows:
            del epochs[epoch]
            self.counters["rejected"] += len(arrivals)
            return None
        return self._close(epochs, epoch, cfg, arrivals, rows)

    def _close(self, epochs: dict, epoch: int, cfg: EngineConfig, arrivals: dict, rows: Iterable) -> PacketRecord:
        """The epoch's one packet: cfg.compute over rows, the arrivals of
        cfg.sources in that order, at the latest of their timestamps. Every
        arrival counts as consumed, also one from a source cfg dropped."""
        stamps, values = zip(*rows)
        self.counters["consumed"] += len(arrivals)
        self.counters["emitted"] += 1
        epochs[epoch] = None
        value = _fold(cfg.compute, values)
        return PacketRecord(cfg.engine, cfg.destination, cfg.user, epoch, max(stamps), Scalar(value))

    def pending_arrivals(self) -> int:
        return sum(len(arrivals) for _, epochs in self._state.values() for arrivals in epochs.values() if arrivals)
