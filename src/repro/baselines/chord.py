"""Chord (Stoica et al., SIGCOMM 2001) on the unit ring.

Each peer keeps ``m = ⌈log2 N⌉`` *fingers* — the successor of
``id + 2^(−j)`` for ``j = 1..m`` — plus its immediate successor and
predecessor.  Lookup forwards to the closest *preceding* finger of the
key, halving the remaining clockwise distance per hop when identifiers
are uniform.

Section 3.1 of the paper treats Chord as the canonical logarithmic-style
overlay whose routing entries point at *every* doubling partition; the
reproduction runs it in two regimes:

* ``hashed=True`` — identifiers and keys pass through the uniformising
  hash (classic DHT deployment; skew is destroyed, and so is key order);
* ``hashed=False`` — raw identifiers (order-preserving).  Under skew the
  finger spans no longer halve the *rank* distance, and hop counts
  degrade — one of the effects experiment E6 quantifies.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import BaselineOverlay, hash_keys
from repro.core.adjacency import CSRAdjacency
from repro.core.metric_routing import ClockwiseMetric
from repro.keyspace import mix_hash, successor_indices

__all__ = ["ChordOverlay"]


class ChordOverlay(BaselineOverlay):
    """A built Chord ring.

    Args:
        ids: peer identifiers (raw; hashed internally when requested).
        hashed: route in hashed id space (classic deployment) instead of
            raw key space.

    Raises:
        ValueError: for fewer than 2 peers.
    """

    name = "chord"

    def __init__(self, ids, hashed: bool = False):
        ids = np.asarray(ids, dtype=float)
        if len(ids) < 2:
            raise ValueError("Chord needs at least 2 peers")
        self.hashed = hashed
        if hashed:
            ids = np.asarray([mix_hash(x) for x in ids])
        self.ids = np.sort(ids)
        self.m = max(1, math.ceil(math.log2(len(self.ids))))
        self._build_fingers()

    def _build_fingers(self) -> None:
        """Resolve all ``n·m`` fingers in one bulk successor pass.

        :func:`repro.keyspace.successor_indices` over the whole
        finger-point matrix — the same whole-population construction
        style as :mod:`repro.core.bulk_construction`.
        """
        n = len(self.ids)
        offsets = 2.0 ** (-np.arange(1, self.m + 1))  # 1/2, 1/4, ..., 2^-m
        points = (self.ids[:, None] + offsets[None, :]) % 1.0
        self.fingers = successor_indices(self.ids, points.ravel()).reshape(n, self.m)

    def _build_frontier(self):
        """CSR + clockwise metric: Chord's finger rule.

        Each row holds the ring successor first, then the fingers in
        table order — minimising the remaining clockwise distance over
        that row is exactly "closest preceding finger" (overshooting
        candidates can never improve), and the metric's terminal owner
        hop covers the one stuck state (key between a peer and its
        owning successor).  All hops count as long, as Chord counts
        them.
        """
        n, m = self.n, self.m
        row = np.empty((n, m + 1), dtype=np.int64)
        row[:, 0] = (np.arange(n, dtype=np.int64) + 1) % n
        row[:, 1:] = self.fingers
        indptr = np.arange(n + 1, dtype=np.int64) * (m + 1)
        csr = CSRAdjacency(
            indptr=indptr,
            indices=row.reshape(-1),
            is_long=np.ones(n * (m + 1), dtype=bool),
        )
        metric = ClockwiseMetric(
            self.ids,
            owner_rule="successor",
            transform=hash_keys if self.hashed else None,
            terminal_owner_hop=True,
        )
        return csr, metric

    @property
    def n(self) -> int:
        return len(self.ids)

    def table_sizes(self) -> np.ndarray:
        """Distinct finger targets plus successor and predecessor."""
        sizes = np.empty(self.n, dtype=np.int64)
        for u in range(self.n):
            entries = set(int(f) for f in self.fingers[u])
            entries.add((u + 1) % self.n)
            entries.add((u - 1) % self.n)
            entries.discard(u)
            sizes[u] = len(entries)
        return sizes
