"""Baseline overlays the paper compares against or references.

Every system named in the paper's Sections 1–2 is implemented behind the
:class:`BaselineOverlay` interface: Chord and Pastry (the canonical
logarithmic-style DHTs of Section 3.1), P-Grid (skew-adaptive trie,
extra state), Symphony (the constant-degree trade-off), Mercury (the
sampling heuristic Theorem 2 formalises), CAN (no hop guarantee under
arbitrary partitioning) and Watts–Strogatz (the non-navigable
small-world baseline).

All seven expose the CSR + metric frontier contract
(:meth:`BaselineOverlay.to_csr` / :attr:`BaselineOverlay.metric`), so
whole comparator workloads batch-route through the shared kernel via
:func:`route_many_overlay` / :func:`measure_overlay_batch`, and a single
:meth:`BaselineOverlay.route` is a batch of one.  The per-lookup loops
the kernel is held to hop for hop live in ``tests/route_oracle.py``.
"""

from repro.baselines.base import (
    BaselineOverlay,
    measure_overlay_batch,
    route_many_overlay,
    sample_overlay_lookups,
)
from repro.baselines.can import CANOverlay, Zone
from repro.baselines.chord import ChordOverlay
from repro.baselines.mercury import MercuryOverlay
from repro.baselines.pastry import PastryOverlay
from repro.baselines.pgrid import PGridOverlay
from repro.baselines.symphony import SymphonyOverlay
from repro.baselines.watts_strogatz import WattsStrogatzOverlay

__all__ = [
    "BaselineOverlay",
    "measure_overlay_batch",
    "route_many_overlay",
    "sample_overlay_lookups",
    "ChordOverlay",
    "PastryOverlay",
    "PGridOverlay",
    "SymphonyOverlay",
    "MercuryOverlay",
    "CANOverlay",
    "Zone",
    "WattsStrogatzOverlay",
]
