"""Per-switch processing engines: config store and the packet pipeline.

Each engine applies, per matching config, the pipeline

    rate filter -> de-jitter -> epoch buffer -> aggregate -> emit

Rate filtering passes the first packet a source publishes in each
floor(timestamp / rate) window and drops the rest. De-jitter keeps arrivals
whose timestamp offset from the epoch leader (the first accepted arrival)
stays within the configured threshold, boundary inclusive. An epoch
closes in one place, `Engine._close`: on the arrival that completes its
config's sources, or when its timer fires. The compute operation folds the
scalar payloads of the config's sources that arrived, in source order, and
one packet leaves the engine, stamped with the config's destination and
the latest of their timestamps. Only the timer rejects an epoch: when its
config was removed, is order-sensitive (sub, mul), or was replaced by one
that lists none of the sources that arrived. An epoch that its opening
arrival completes arms no timer.

The store is memory only. `ConfigStore.to_doc()` shapes it engine ->
user -> [records], each record carrying compute, source list,
destination, rate, and jitter; the control layer writes that document to
the engine configuration file, which nothing reads back, and a store
always starts empty.

An engine finds a packet's config through the store's lookup index, one
dict per engine keyed (user, source, final destination). It is built on
the first packet after a change from the engine's configs in (user,
destination) order, keeping the first config for each key, so a packet
gets the first config in that order whose user, sources and matched
destinations cover it. Each entry holds the config and its key, so an
arrival computes no key. A packet that no config covers is counted as
`no_config` and discarded.

`Engine.process` is the one implementation of every pipeline rule (rate,
epoch, late, de-jitter, duplicate, timeout), in one pass. Most arrivals
are buffered into an open epoch, or discarded, without opening, closing
or passing anything; for them it returns None and allocates no result.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .dsl import JITTER_MAX_MS, ORDER_SENSITIVE, OpKind
from .errors import ValidationError
from .packets import PacketRecord, Scalar

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
    # final_destination values carried by this flow's inbound packets; the
    # compiler fills it, direct set_config defaults to destination + engine
    match_destinations: tuple[str, ...] = ()

    def key(self) -> tuple[str, str, str]:
        return (self.engine, self.user, self.destination)

    def effective_matches(self) -> tuple[str, ...]:
        return self.match_destinations or (self.destination, self.engine)

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
        # engine -> user -> destination -> config
        self._configs: dict[str, dict[str, dict[str, EngineConfig]]] = {}
        # engine -> (user, source, final destination) -> (config, its key),
        # built on first lookup and dropped when one of the engine's configs
        # changes
        self._index: dict[str, dict[tuple[str, str, str], tuple[EngineConfig, tuple]]] = {}

    def set_config(self, cfg: EngineConfig) -> None:
        cfg.validate()
        self._configs.setdefault(cfg.engine, {}).setdefault(cfg.user, {})[cfg.destination] = cfg
        self._index.pop(cfg.engine, None)

    def remove(self, key: tuple[str, str, str]) -> bool:
        engine, user, destination = key
        users = self._configs.get(engine, {})
        if users.get(user, {}).pop(destination, None) is None:
            return False
        if not users[user]:
            del users[user]
            if not users:
                del self._configs[engine]
        self._index.pop(engine, None)
        return True

    def configs_for(self, engine: str) -> list[EngineConfig]:
        """The engine's configs in (user, destination) order."""
        users = self._configs.get(engine, {})
        return [c for user in sorted(users) for c in self.user_configs(engine, user)]

    def user_configs(self, engine: str, user: str) -> list[EngineConfig]:
        configs = self._configs.get(engine, {}).get(user, {})
        return [configs[destination] for destination in sorted(configs)]

    def get(self, key: tuple[str, str, str]) -> EngineConfig | None:
        engine, user, destination = key
        return self._configs.get(engine, {}).get(user, {}).get(destination)

    def lookup(
        self, engine: str, user: str, source: str, final_destination: str
    ) -> tuple[EngineConfig, tuple] | None:
        """(config, its key) for the first config in configs_for(engine)
        order that belongs to the user, lists the source and matches the
        final destination, or None."""
        index = self._index.get(engine)
        if index is None:
            index = self._build_index(engine)
        return index.get((user, source, final_destination))

    def _build_index(self, engine: str) -> dict[tuple[str, str, str], tuple[EngineConfig, tuple]]:
        """The engine's lookup index: (user, source, final destination) ->
        (first config in configs_for order that covers it, its key)."""
        index = self._index[engine] = {}
        for cfg in self.configs_for(engine):
            hit = (cfg, cfg.key())
            for match in cfg.effective_matches():
                for src in cfg.sources:
                    index.setdefault((cfg.user, src, match), hit)
        return index

    def to_doc(self) -> dict:
        return {
            engine: {
                user: [c.to_doc() for c in self.user_configs(engine, user)]
                for user in sorted(users)
            }
            for engine, users in sorted(self._configs.items())
        }


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range, as json.loads gives for 401 digits
        return False


# -- payload arithmetic --------------------------------------------------------


# sum, avg, sub and mul fold left one operation at a time; sum() would
# compensate rounding from Python 3.12 on and change the last bits
_STEP = {OpKind.SUM: operator.add, OpKind.AVG: operator.add, OpKind.SUB: operator.sub, OpKind.MUL: operator.mul}


def _fold(kind: OpKind, values: list[float]) -> float:
    if kind is OpKind.MIN:
        return min(values)
    if kind is OpKind.MAX:
        return max(values)
    acc = functools.reduce(_STEP[kind], values)
    return acc / len(values) if kind is OpKind.AVG else acc


@dataclass
class EngineResult:
    emission: PacketRecord | None
    timeout_at: float | None = None
    timeout_token: tuple | None = None


class Engine:
    """One engine's runtime state: rate windows, counters and epochs, each
    keyed by its token (config key, epoch) in `_pending`. An open epoch
    maps to its arrivals, source -> (timestamp, payload), leader first; a
    closed one maps to None, which is how a later packet of it is known to
    be late. A rejected epoch's token is removed, so a later packet reopens
    it."""

    def __init__(self, engine_id: str, store: ConfigStore):
        self.engine_id = engine_id
        self.store = store
        self._rate_last: dict[tuple, int] = {}
        # token -> its arrivals while open, None once closed
        self._pending: dict[tuple, dict[str, tuple[float, Scalar]] | None] = {}
        self.counters: dict[str, int] = {"arrivals": 0, **dict.fromkeys(SETTLED, 0), "emitted": 0}

    def process(self, p: PacketRecord, now: float) -> EngineResult | None:
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
        matched it. Otherwise the result holds either the epoch's output
        packet or the timeout for a newly opened epoch.
        """
        counters = self.counters
        counters["arrivals"] += 1
        source = p.source
        hit = self.store.lookup(self.engine_id, p.user, source, p.final_destination)
        if hit is None:
            counters["no_config"] += 1
            return None
        cfg, key = hit
        rate = cfg.rate_ms
        if rate is None:
            epoch = p.epoch
        else:
            epoch = math.floor(p.timestamp_ms / rate)
            last = self._rate_last.get((key, source))
            if last is not None and epoch <= last:
                counters["rate_dropped"] += 1
                return None
            self._rate_last[(key, source)] = epoch
        token = (key, epoch)
        arrivals = self._pending.get(token)
        opened = arrivals is None
        if opened:
            if token in self._pending:
                counters["late_discarded"] += 1
                return None
            arrivals = self._pending[token] = {}
        elif cfg.jitter_ms is not None and (
            abs(p.timestamp_ms - next(iter(arrivals.values()))[0]) > cfg.jitter_ms
        ):
            counters["jitter_discarded"] += 1
            return None
        elif source in arrivals:
            counters["duplicate_discarded"] += 1
            return None
        arrivals[source] = (p.timestamp_ms, p.payload)
        sources = cfg.sources
        # sources are distinct, so fewer arrivals cannot cover them all
        if len(arrivals) >= len(sources) and all(s in arrivals for s in sources):
            return EngineResult(self._close(token, cfg, arrivals))
        if not opened:
            return None
        timeout_at = now + (NO_RATE_TIMEOUT_MS if rate is None else TIMEOUT_RATE_FACTOR * rate)
        return EngineResult(None, timeout_at, token)

    def on_timeout(self, token: tuple, now: float) -> PacketRecord | None:
        """Close an epoch whose timer fired; a stale timer, whose token is
        closed (None) or unknown, is ignored. This is the one place an epoch
        is rejected: its config is gone, needs every operand, or lists none
        of the sources that arrived."""
        arrivals = self._pending.get(token)
        if arrivals is None:
            return None
        cfg = self.store.get(token[0])
        if (
            cfg is None
            or cfg.compute in ORDER_SENSITIVE
            or not any(s in arrivals for s in cfg.sources)
        ):
            del self._pending[token]
            self.counters["rejected"] += len(arrivals)
            return None
        return self._close(token, cfg, arrivals)

    def _close(
        self, token: tuple, cfg: EngineConfig, arrivals: dict[str, tuple[float, Scalar]]
    ) -> PacketRecord:
        """The epoch's one packet: cfg.compute over the arrivals of
        cfg.sources in that order, at the latest of their timestamps. Every
        arrival counts as consumed, also one from a source cfg dropped."""
        present = [arrivals[s] for s in cfg.sources if s in arrivals]
        self.counters["consumed"] += len(arrivals)
        self.counters["emitted"] += 1
        self._pending[token] = None
        latest = max([ts for ts, _ in present])
        value = _fold(cfg.compute, [payload.value for _, payload in present])
        return PacketRecord(cfg.engine, cfg.destination, cfg.user, token[1], latest, Scalar(value))

    def pending_arrivals(self) -> int:
        return sum(len(arrivals) for arrivals in self._pending.values() if arrivals)
