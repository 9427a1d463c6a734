"""Per-switch processing engines: config store and the packet pipeline.

Each engine applies, per matching config, the pipeline

    rate filter -> de-jitter -> epoch buffer -> aggregate -> emit

Rate filtering passes the first packet a source publishes in each
floor(timestamp / rate) window and drops the rest. De-jitter keeps arrivals
whose timestamp offset from the epoch leader (the first accepted arrival)
stays within the configured threshold, boundary inclusive. Once every
configured source has contributed to an epoch, the compute operation folds
the scalar payloads and a single packet leaves the engine,
stamped with the config's destination. Epochs that never complete are
closed by a timeout: the aggregate runs over the sources that did arrive,
except for the order-sensitive ops (sub, mul), which reject the epoch. An
epoch whose config was removed, or replaced by one that lists none of the
sources that arrived, is rejected too.

Configs are written to a JSON file shaped engine -> user -> [records],
each record carrying compute, source list, destination, rate, and jitter.
The file is output only: nothing reads it back, and a store always starts
empty. It is written by `ConfigStore.flush()`, once per command, in place:
the new bytes overwrite the old ones and the file is cut to their length,
so an interrupted write can leave the new text followed by a tail of the
old. A change re-renders only the (engine, user) section it touched, and
each engine's block is kept as encoded bytes until one of its sections
changes.

An engine finds a packet's config through the store's lookup index, one
dict per engine keyed (user, source, final destination). It is built on
the first packet after a change from the engine's configs in (user,
destination) order, keeping the first config for each key, so a packet
gets the first config in that order whose user, sources and matched
destinations cover it. Each entry holds the config and its key, so an
arrival computes no key.

`Engine.process` is the one implementation of every pipeline rule (rate,
epoch, late, de-jitter, duplicate, timeout), in one pass. Most arrivals
are buffered into an open epoch, or discarded, without opening, closing
or passing anything; for them it returns None and allocates no result.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path

from .dsl import JITTER_MAX_MS, ORDER_SENSITIVE, OpKind
from .errors import FlipError, MissingSourceError, ValidationError
from .packets import PacketRecord, Scalar

TIMEOUT_RATE_FACTOR = 2.0
NO_RATE_TIMEOUT_MS = 100.0


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
    """Engine configs: one active config per (engine, user, destination).
    The store starts empty. With a path, `flush()` writes the configuration
    file, once per command; `set_config` and `remove` change only memory.
    The first flush writes even when no config changed, replacing whatever
    the file held, and nothing reads the file back.

    The file is `json.dumps(self.to_doc(), indent=2, sort_keys=True)`. Each
    (engine, user) section's text and each engine's block, as encoded
    bytes, are cached, so a change re-renders only the section it touched
    and a flush re-encodes only the blocks of the engines that changed. The
    flush overwrites the file in place and cuts it to the new length; it is
    not atomic, and an interrupted write can leave the new bytes followed by
    the old file's tail.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path else None
        # engine -> user -> destination -> config
        self._configs: dict[str, dict[str, dict[str, EngineConfig]]] = {}
        # engine -> user -> that section's key line and records, rendered at
        # file depth
        self._sections: dict[str, dict[str, str]] = {}
        # engine -> that engine's block of the file, joined from its sections
        # and encoded
        self._blocks: dict[str, bytes] = {}
        # engines whose sections changed since the last flush
        self._dirty: set[str] = set()
        # the file holds what some other store wrote, or nothing, until
        # this store's first write
        self._unwritten = self.path is not None
        # engine -> (user, source, final destination) -> (config, its key),
        # built on first lookup and dropped when one of the engine's configs
        # changes
        self._index: dict[str, dict[tuple[str, str, str], tuple[EngineConfig, tuple]]] = {}

    def set_config(self, cfg: EngineConfig) -> None:
        cfg.validate()
        self._configs.setdefault(cfg.engine, {}).setdefault(cfg.user, {})[cfg.destination] = cfg
        self._changed(cfg.engine, cfg.user)

    def remove(self, key: tuple[str, str, str]) -> bool:
        engine, user, destination = key
        users = self._configs.get(engine, {})
        if users.get(user, {}).pop(destination, None) is None:
            return False
        if not users[user]:
            del users[user]
            if not users:
                del self._configs[engine]
        self._changed(engine, user)
        return True

    def flush(self) -> None:
        """Write the file on the first flush and whenever anything changed
        since the last write. A failed write is a FlipError naming the file,
        and the store stays dirty, so the next flush writes the whole
        document again."""
        if not self._dirty and not self._unwritten:
            return
        for engine in self._dirty:
            self._render_block(engine)
        blocks = [self._blocks[engine] for engine in sorted(self._blocks)]
        data = b"{\n%s\n}" % b",\n".join(blocks) if blocks else b"{}"
        try:
            self._overwrite(data)
        except OSError as exc:
            raise FlipError(f"cannot write {self.path}: {exc.strerror or exc}") from None
        self._dirty.clear()
        self._unwritten = False

    def _overwrite(self, data: bytes) -> None:
        """Write data over the file's old bytes and cut it to their length.
        Truncating first would free every block of the file, and the write
        would then allocate them all again."""
        try:
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "wb") as fh:
            fh.write(data)
            fh.truncate()

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

    def _changed(self, engine: str, user: str) -> None:
        """Drop the engine's index and, for a store with a file, re-render
        the (engine, user) section and mark the engine for the next flush."""
        self._index.pop(engine, None)
        if not self.path:
            return
        sections = self._sections.setdefault(engine, {})
        records = [_render_record(c.to_doc()) for c in self.user_configs(engine, user)]
        if records:
            body = ",\n".join(records)
            sections[user] = f"    {_string(user)}: [\n{body}\n    ]"
        else:
            sections.pop(user, None)
            if not sections:
                del self._sections[engine]
        self._dirty.add(engine)

    def _render_block(self, engine: str) -> None:
        sections = self._sections.get(engine)
        if not sections:
            self._blocks.pop(engine, None)
            return
        body = ",\n".join([sections[user] for user in sorted(sections)])
        self._blocks[engine] = f"  {_string(engine)}: {{\n{body}\n  }}".encode("ascii")


def _render_record(doc: dict) -> str:
    """One record as `json.dumps(..., indent=2, sort_keys=True)` renders it
    at its depth in the file. A record is flat: its values are strings,
    finite numbers that are not bools (see `EngineConfig.validate`) and
    non-empty lists of strings, which `json` writes as these calls do."""
    fields = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, str):
            text = _string(value)
        elif isinstance(value, list):
            items = ",\n".join(["          " + _string(v) for v in value])
            text = f"[\n{items}\n        ]"
        elif isinstance(value, int):
            text = int.__repr__(value)
        else:
            text = float.__repr__(value)
        fields.append(f"        {_string(key)}: {text}")
    body = ",\n".join(fields)
    return f"      {{\n{body}\n      }}"


def _finite(value: int | float) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range, as json.loads gives for 401 digits
        return False


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


# -- per-epoch buffering -------------------------------------------------------


@dataclass
class EpochBuffer:
    config_key: tuple[str, str, str]
    epoch: int
    leader_ts: float
    arrivals: dict[str, tuple[float, Scalar]] = field(default_factory=dict)


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
    if not present:
        raise MissingSourceError("nothing to aggregate")
    result = Scalar(_fold(cfg.compute, [buf.arrivals[s][1].value for s in present]))
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

    def __init__(self, engine_id: str, store: ConfigStore):
        self.engine_id = engine_id
        self.store = store
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
        - timeout: the arrival that opens an epoch asks for a timer,
          TIMEOUT_RATE_FACTOR rate windows later, or NO_RATE_TIMEOUT_MS.

        Returns None when the packet was buffered or discarded with nothing
        to send or schedule, as most arrivals are. Otherwise the result
        holds the emissions (0 or 1 packets), the timeout for a newly
        opened epoch, or that the packet passes through untouched because
        no config matched.
        """
        counters = self.counters
        counters["arrivals"] += 1
        source = p.source
        hit = self.store.lookup(self.engine_id, p.user, source, p.final_destination)
        if hit is None:
            counters["no_config"] += 1
            return EngineResult([], passthrough=True)
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
        if token in self._emitted_epochs:
            counters["late_discarded"] += 1
            return None
        buf = self._pending.get(token)
        timeout_at = None
        if buf is None:
            buf = self._pending[token] = EpochBuffer(config_key=key, epoch=epoch, leader_ts=p.timestamp_ms)
            timeout_at = now + (NO_RATE_TIMEOUT_MS if rate is None else TIMEOUT_RATE_FACTOR * rate)
        elif cfg.jitter_ms is not None and abs(p.timestamp_ms - buf.leader_ts) > cfg.jitter_ms:
            counters["jitter_discarded"] += 1
            return None
        elif source in buf.arrivals:
            counters["duplicate_discarded"] += 1
            return None
        arrivals = buf.arrivals
        arrivals[source] = (p.timestamp_ms, p.payload)
        sources = cfg.sources
        # sources are distinct, so fewer arrivals cannot cover them all
        if len(arrivals) >= len(sources) and all(s in arrivals for s in sources):
            emission = self._close(token, cfg, buf, partial=False)
            return EngineResult([emission], timeout_at, None if timeout_at is None else token)
        if timeout_at is None:
            return None
        return EngineResult([], timeout_at, token)

    def on_timeout(self, token: tuple, now: float) -> list[PacketRecord]:
        """Close an epoch whose timer fired; stale timers are ignored. The
        epoch is rejected when its config is gone, needs every operand, or
        was replaced by one that lists none of the buffered sources."""
        buf = self._pending.get(token)
        if buf is None:
            return []
        cfg = self.store.get(buf.config_key)
        if (
            cfg is None
            or cfg.compute in ORDER_SENSITIVE
            or not any(s in buf.arrivals for s in cfg.sources)
        ):
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
