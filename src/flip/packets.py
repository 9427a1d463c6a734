"""Simulated packet records and their scalar payloads.

A packet carries a scalar payload (one real sample or aggregate), the
publishing source, the addressed final destination, the owning user name,
an epoch index, and the origination timestamp in milliseconds. Forwarding
state (hop count) lives on the record so loops can be detected cheaply.
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
    hop_count: int = 0
    uid: int = field(default=-1, compare=False)
