"""Trace events: structured, timestamped execution records.

Counters answer "how much"; traces answer "when and in what shape".  A
:class:`TraceEvent` is one structured record — a frontier round with its
active-walk count, a construction retry round with its outstanding-link
count, a churn cohort with its size and duration — appended to the
active registry's bounded event buffer and, when a streaming sink is
attached (see :mod:`repro.telemetry.export`), written through as one
JSONL line.

:func:`emit` records one instantaneous event with arbitrary fields; a
duration travels as a field (``seconds=...``) measured by the caller.
It is a no-op when telemetry is disabled; hot loops should still guard
with :func:`repro.telemetry.enabled` when building the field dict
itself costs anything.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["TraceEvent", "emit"]


@dataclass
class TraceEvent:
    """One structured trace record.

    Attributes:
        name: dotted event name (``"routing.round"``).
        wall: wall-clock timestamp (``time.time``) of emission.
        fields: event payload (small scalars only, by convention).
    """

    name: str
    wall: float
    fields: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON-ready form (used by the JSONL sink)."""
        return {"event": self.name, "wall": self.wall, **self.fields}


def emit(name: str, **fields) -> None:
    """Record an instantaneous trace event (no-op when disabled)."""
    from repro import telemetry

    registry = telemetry.active_registry()
    if registry is None:
        return
    event = TraceEvent(name=name, wall=time.time(), fields=fields)
    if registry.sink is not None:
        registry.sink.emit(event)
    registry.record_event(event)
