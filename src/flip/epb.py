"""Per-switch processing engines: config store and the packet pipeline.

Each engine applies, per matching config, the pipeline

    rate filter -> de-jitter -> epoch buffer -> aggregate -> emit

Rate filtering passes the first packet a source publishes in each
floor(timestamp / rate) window and drops the rest. De-jitter keeps arrivals
whose timestamp offset from the epoch leader (the first accepted arrival)
stays within the configured threshold, boundary inclusive. Once every
configured source has contributed to an epoch, the compute operation runs
elementwise over the payloads and a single packet leaves the engine,
stamped with the config's destination. Epochs that never complete are
closed by a timeout: by default the aggregate runs over the sources that
did arrive, except for the order-sensitive ops (sub, mul) which reject the
epoch instead.

Configs persist to a JSON file shaped engine -> user -> [records], each
record carrying compute, source list, destination, rate, and jitter.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .dsl import JITTER_MAX_MS, ORDER_SENSITIVE, OpKind
from .errors import MissingSourceError, ShapeMismatchError, ValidationError
from .packets import Matrix, PacketRecord, Payload, Scalar, Vector

TIMEOUT_RATE_FACTOR = 2.0
NO_RATE_TIMEOUT_MS = 100.0

TIMEOUT_PARTIAL = "partial"
TIMEOUT_REJECT = "reject"


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
            return cls(
                engine=engine,
                user=user,
                compute=OpKind(doc["compute"]),
                sources=tuple(doc["source"]),
                destination=doc["destination"],
                rate_ms=doc.get("rate"),
                jitter_ms=doc.get("jitter"),
                match_destinations=tuple(doc.get("match", ())),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ValidationError(f"bad engine config record: {exc}") from None


class ConfigStore:
    """Engine configuration file: one active config per (engine, user,
    destination), hot-persisted on every change when given a path."""

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path else None
        self._configs: dict[tuple[str, str, str], EngineConfig] = {}
        if self.path and self.path.exists():
            self._load()

    def set_config(self, cfg: EngineConfig) -> None:
        cfg.validate()
        self._configs[cfg.key()] = cfg
        self._save()

    def remove(self, key: tuple[str, str, str]) -> bool:
        removed = self._configs.pop(key, None) is not None
        if removed:
            self._save()
        return removed

    def configs_for(self, engine: str) -> list[EngineConfig]:
        return sorted(
            (c for c in self._configs.values() if c.engine == engine),
            key=lambda c: (c.user, c.destination),
        )

    def user_configs(self, engine: str, user: str) -> list[EngineConfig]:
        return [c for c in self.configs_for(engine) if c.user == user]

    def get(self, key: tuple[str, str, str]) -> EngineConfig | None:
        return self._configs.get(key)

    def to_doc(self) -> dict:
        doc: dict = {}
        for cfg in sorted(self._configs.values(), key=lambda c: c.key()):
            doc.setdefault(cfg.engine, {}).setdefault(cfg.user, []).append(cfg.to_doc())
        return doc

    def _save(self) -> None:
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(
                json.dumps(self.to_doc(), indent=2, sort_keys=True), encoding="utf-8"
            )

    def _load(self) -> None:
        doc = json.loads(self.path.read_text(encoding="utf-8"))
        for engine, users in doc.items():
            for user, records in users.items():
                for record in records:
                    cfg = EngineConfig.from_doc(engine, user, record)
                    cfg.validate()
                    self._configs[cfg.key()] = cfg


# -- payload arithmetic --------------------------------------------------------


def _fold(kind: OpKind, values: list[float]) -> float:
    if kind is OpKind.MIN:
        return min(values)
    if kind is OpKind.MAX:
        return max(values)
    if kind in (OpKind.SUM, OpKind.AVG):
        acc = values[0]
        for v in values[1:]:
            acc += v
        return acc / len(values) if kind is OpKind.AVG else acc
    if kind is OpKind.SUB:
        acc = values[0]
        for v in values[1:]:
            acc -= v
        return acc
    acc = values[0]  # MUL
    for v in values[1:]:
        acc *= v
    return acc


def combine_payloads(kind: OpKind, payloads: list[Payload]) -> Payload:
    """Combine payloads elementwise. All operands must share one shape."""
    if not payloads:
        raise MissingSourceError("nothing to aggregate")
    first = payloads[0]
    if any(type(p) is not type(first) for p in payloads):
        raise ShapeMismatchError("mixed payload types in one epoch")
    if isinstance(first, Scalar):
        return Scalar(_fold(kind, [p.value for p in payloads]))
    if isinstance(first, Vector):
        lengths = {len(p.values) for p in payloads}
        if len(lengths) != 1:
            raise ShapeMismatchError(f"vector lengths differ: {sorted(lengths)}")
        cols = zip(*(p.values for p in payloads))
        return Vector(tuple(_fold(kind, list(col)) for col in cols))
    shapes = {(len(p.rows), len(p.rows[0])) for p in payloads}
    if len(shapes) != 1:
        raise ShapeMismatchError(f"matrix shapes differ: {sorted(shapes)}")
    rows = []
    for r in range(len(first.rows)):
        cols = zip(*(p.rows[r] for p in payloads))
        rows.append(tuple(_fold(kind, list(col)) for col in cols))
    return Matrix(tuple(rows))


# -- per-epoch buffering -------------------------------------------------------


@dataclass
class EpochBuffer:
    config_key: tuple[str, str, str]
    epoch: int
    leader_ts: float
    timeout_at: float
    arrivals: dict[str, tuple[float, Payload]] = field(default_factory=dict)


def aggregate_and_compute(
    buf: EpochBuffer, cfg: EngineConfig, allow_partial: bool = False
) -> PacketRecord:
    """Run cfg.compute over the buffered arrivals and build the output packet.

    Operands fold in cfg.sources order. With allow_partial, missing sources
    are skipped for the order-insensitive ops; sub/mul always need the full
    operand list and raise MissingSourceError otherwise.
    """
    present = [s for s in cfg.sources if s in buf.arrivals]
    missing = [s for s in cfg.sources if s not in buf.arrivals]
    if missing and (not allow_partial or cfg.compute in ORDER_SENSITIVE):
        raise MissingSourceError(
            f"epoch {buf.epoch} missing sources {missing} for {cfg.compute.value}"
        )
    payloads = [buf.arrivals[s][1] for s in present]
    result = combine_payloads(cfg.compute, payloads)
    ts = max(buf.arrivals[s][0] for s in present)
    return PacketRecord(
        source=cfg.engine,
        final_destination=cfg.destination,
        user=cfg.user,
        epoch=buf.epoch,
        timestamp_ms=ts,
        payload=result,
    )


@dataclass
class EngineResult:
    emissions: list[PacketRecord]
    timeout_at: float | None = None
    timeout_token: tuple | None = None
    passthrough: bool = False


class Engine:
    """One engine's runtime state: rate windows, epoch buffers, counters."""

    def __init__(
        self,
        engine_id: str,
        store: ConfigStore,
        timeout_policy: str = TIMEOUT_PARTIAL,
        no_rate_timeout_ms: float = NO_RATE_TIMEOUT_MS,
    ):
        if timeout_policy not in (TIMEOUT_PARTIAL, TIMEOUT_REJECT):
            raise ValidationError(f"unknown timeout policy {timeout_policy!r}")
        self.engine_id = engine_id
        self.store = store
        self.timeout_policy = timeout_policy
        self.no_rate_timeout_ms = no_rate_timeout_ms
        self._rate_last: dict[tuple, int] = {}
        self._pending: dict[tuple, EpochBuffer] = {}
        self._emitted_epochs: set[tuple] = set()
        self.counters: dict[str, int] = {
            "arrivals": 0,
            "no_config": 0,
            "rate_dropped": 0,
            "jitter_discarded": 0,
            "duplicate_discarded": 0,
            "late_discarded": 0,
            "consumed": 0,
            "rejected": 0,
            "emitted": 0,
        }

    # -- pipeline stages --

    def find_config(self, p: PacketRecord) -> EngineConfig | None:
        for cfg in self.store.configs_for(self.engine_id):
            if (
                cfg.user == p.user
                and p.source in cfg.sources
                and p.final_destination in cfg.effective_matches()
            ):
                return cfg
        return None

    def rate_filter(self, cfg: EngineConfig, p: PacketRecord) -> bool:
        """True when the packet is the first of its source's rate window."""
        if cfg.rate_ms is None:
            return True
        window = math.floor(p.timestamp_ms / cfg.rate_ms)
        key = (cfg.key(), p.source)
        last = self._rate_last.get(key)
        if last is not None and window <= last:
            return False
        self._rate_last[key] = window
        return True

    def dejitter(self, buf: EpochBuffer, cfg: EngineConfig, p: PacketRecord) -> bool:
        """True when the timestamp offset from the epoch leader is acceptable."""
        if cfg.jitter_ms is None:
            return True
        return abs(p.timestamp_ms - buf.leader_ts) <= cfg.jitter_ms

    def epoch_of(self, cfg: EngineConfig, p: PacketRecord) -> int:
        if cfg.rate_ms is not None:
            return math.floor(p.timestamp_ms / cfg.rate_ms)
        return p.epoch

    def _timeout_ms(self, cfg: EngineConfig) -> float:
        if cfg.rate_ms is not None:
            return TIMEOUT_RATE_FACTOR * cfg.rate_ms
        return self.no_rate_timeout_ms

    def process(self, p: PacketRecord, now: float) -> EngineResult:
        """Feed one redirected packet through the pipeline.

        Returns the emissions (0 or 1 packets), an optional timeout request
        for a newly opened epoch, and whether the packet passed through
        untouched because no config matched.
        """
        self.counters["arrivals"] += 1
        cfg = self.find_config(p)
        if cfg is None:
            self.counters["no_config"] += 1
            return EngineResult([], passthrough=True)
        if not self.rate_filter(cfg, p):
            self.counters["rate_dropped"] += 1
            return EngineResult([])
        epoch = self.epoch_of(cfg, p)
        token = (cfg.key(), epoch)
        if token in self._emitted_epochs:
            self.counters["late_discarded"] += 1
            return EngineResult([])
        buf = self._pending.get(token)
        timeout_at = None
        if buf is None:
            buf = EpochBuffer(
                config_key=cfg.key(),
                epoch=epoch,
                leader_ts=p.timestamp_ms,
                timeout_at=now + self._timeout_ms(cfg),
            )
            self._pending[token] = buf
            timeout_at = buf.timeout_at
        elif not self.dejitter(buf, cfg, p):
            self.counters["jitter_discarded"] += 1
            return EngineResult([], timeout_at, token if timeout_at else None)
        if p.source in buf.arrivals:
            self.counters["duplicate_discarded"] += 1
            return EngineResult([], timeout_at, token if timeout_at else None)
        buf.arrivals[p.source] = (p.timestamp_ms, p.payload)
        emissions: list[PacketRecord] = []
        if all(s in buf.arrivals for s in cfg.sources):
            emissions.append(self._close(token, cfg, buf, partial=False))
        return EngineResult(emissions, timeout_at, token if timeout_at else None)

    def on_timeout(self, token: tuple, now: float) -> list[PacketRecord]:
        """Close an epoch whose timer fired; stale timers are ignored."""
        buf = self._pending.get(token)
        if buf is None:
            return []
        cfg = self.store.get(buf.config_key)
        if cfg is None or self.timeout_policy == TIMEOUT_REJECT or cfg.compute in ORDER_SENSITIVE:
            del self._pending[token]
            self.counters["rejected"] += len(buf.arrivals)
            return []
        return [self._close(token, cfg, buf, partial=True)]

    def _close(
        self, token: tuple, cfg: EngineConfig, buf: EpochBuffer, partial: bool
    ) -> PacketRecord:
        packet = aggregate_and_compute(buf, cfg, allow_partial=partial)
        self.counters["consumed"] += len(buf.arrivals)
        self.counters["emitted"] += 1
        self._emitted_epochs.add(token)
        del self._pending[token]
        return packet

    def pending_arrivals(self) -> int:
        return sum(len(b.arrivals) for b in self._pending.values())
