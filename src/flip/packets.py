"""Simulated packet records and typed payloads.

A packet carries a typed payload (scalar, vector, or matrix of reals), the
publishing source, the addressed final destination, the owning user name,
an epoch index, and the origination timestamp in milliseconds. Forwarding
state (hop count) lives on the record so loops can be detected cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError


@dataclass(frozen=True)
class Scalar:
    value: float

    def to_doc(self):
        return {"scalar": self.value}


@dataclass(frozen=True)
class Vector:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("vector payload must be nonempty")

    def to_doc(self):
        return {"vector": list(self.values)}


@dataclass(frozen=True)
class Matrix:
    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValidationError("matrix payload must be nonempty")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValidationError("matrix payload must be rectangular")

    def to_doc(self):
        return {"matrix": [list(r) for r in self.rows]}


Payload = Scalar | Vector | Matrix


@dataclass
class PacketRecord:
    source: str
    final_destination: str
    user: str
    epoch: int
    timestamp_ms: float
    payload: Payload
    hop_count: int = 0
    uid: int = field(default=-1, compare=False)

    def to_doc(self) -> dict:
        return {
            "uid": self.uid,
            "source": self.source,
            "final_destination": self.final_destination,
            "user": self.user,
            "epoch": self.epoch,
            "timestamp_ms": self.timestamp_ms,
            "payload": self.payload.to_doc(),
            "hop_count": self.hop_count,
        }
