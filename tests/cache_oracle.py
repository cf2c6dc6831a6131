"""Reference LRU route cache: one Python dict step per key.

This is the dict loop :class:`repro.serving.cache.RouteCache` used
before it moved to sorted arrays, kept verbatim as the oracle the
property tests (``test_cache_properties.py``) compare it against.  A
dict keeps insertion order, so deleting and re-inserting a key makes it
most recently used and ``next(iter(mapping))`` is the least recently
used entry.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry


class OracleRouteCache:
    """Bounded LRU map from lookup key to owner peer index (reference)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._map: dict[float, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._map)

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe a key batch; return ``(owners, hit_mask)``.

        ``owners[i]`` is the cached owner for hits and ``-1`` for
        misses.  Hits are touched most-recently-used in batch order.
        """
        owners = np.full(len(keys), -1, dtype=np.int64)
        hit = np.zeros(len(keys), dtype=bool)
        mapping = self._map
        for i, key in enumerate(np.asarray(keys, dtype=float).tolist()):
            owner = mapping.get(key)
            if owner is not None:
                del mapping[key]  # re-insert → most recently used
                mapping[key] = owner
                owners[i] = owner
                hit[i] = True
        n_hits = int(hit.sum())
        n_misses = len(keys) - n_hits
        self.hits += n_hits
        self.misses += n_misses
        if telemetry.enabled():
            telemetry.count("serving.cache.hits", n_hits)
            telemetry.count("serving.cache.misses", n_misses)
        return owners, hit

    def insert(self, keys: np.ndarray, owners: np.ndarray) -> None:
        """Insert resolved ``key → owner`` pairs, evicting LRU overflow."""
        mapping = self._map
        evicted = 0
        for key, owner in zip(
            np.asarray(keys, dtype=float).tolist(),
            np.asarray(owners, dtype=np.int64).tolist(),
        ):
            if key in mapping:
                del mapping[key]
            mapping[key] = owner
            if len(mapping) > self.capacity:
                mapping.pop(next(iter(mapping)))
                evicted += 1
        self.evictions += evicted
        if evicted and telemetry.enabled():
            telemetry.count("serving.cache.evictions", evicted)

    def stats(self) -> dict[str, int | float]:
        """Return the accounting snapshot (hits/misses/evictions/...)."""
        probes = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._map),
            "capacity": self.capacity,
            "hit_rate": self.hits / probes if probes else 0.0,
        }
