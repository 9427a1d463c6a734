"""Simulated packet records, their scalar payloads, and first-match indexes.

A packet carries a scalar payload (one real sample or aggregate), the
publishing source, the addressed final destination, the owning user name,
an epoch index, and the origination timestamp in milliseconds. A record
carries no forwarding state: the fabric walks a packet's whole path when
it enters, loops included.

A packet's match key is its header fields, destination before source: a
switch's flow table finds it by (final destination, source) and an
engine's configs by (user, final destination, source). `FlowRule.matches`
and `EngineConfig.matches` are the only places a rule or a config is
expanded into the keys it matches, and `first_match` is the one builder of
both indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Scalar:
    value: float

    def to_doc(self):
        return {"scalar": self.value}


@dataclass(slots=True)
class PacketRecord:
    source: str
    final_destination: str
    user: str
    epoch: int
    timestamp_ms: float
    payload: Scalar
    uid: int = field(default=-1, compare=False)


def first_match(entries: list[tuple]) -> dict:
    """key -> hit of the first of the ordered (keys, hit) entries that holds it."""
    index = {}
    for keys, hit in reversed(entries):
        index.update(dict.fromkeys(keys, hit))
    return index
