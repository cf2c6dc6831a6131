"""Hot-key route cache: LRU key→owner memoisation for the serving loop.

Under popularity-skewed demand a small set of keys absorbs most
lookups; once a key's owner is resolved there is no reason to walk the
overlay for it again while the population is stable.  The serving
engine consults and fills this cache *at admission time* — before any
routing happens — so hit/miss/eviction accounting depends only on the
admission order of the query stream, never on worker count or frontier
interleaving (the admission-determinism contract the tests pin).

The cache is an exact LRU held in three aligned arrays: the resident
keys in sorted order, their owners, and the stamp of each key's last
use off a per-cache clock that advances by one per probed or inserted
key.  A micro-batch therefore costs a fixed number of numpy calls, not
one Python step per key; ``tests/cache_oracle.py`` is the per-key dict
reference the property tests hold it to.

Accounting is plain attributes (``hits`` / ``misses`` / ``evictions``),
mirrored into :mod:`repro.telemetry` counters
(``serving.cache.{hits,misses,evictions}``) whenever telemetry is
enabled.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.keyspace import check_unit_keys

__all__ = ["RouteCache"]


def _checked_keys(keys) -> np.ndarray:
    keys = check_unit_keys(keys)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-d, got shape {keys.shape}")
    return keys


class RouteCache:
    """Bounded LRU map from lookup key to owner peer index.

    Keys are exact float identifiers (corpus keys repeat bit-for-bit
    under skewed demand, which is what makes caching them worthwhile);
    a hit refreshes the key's recency, an insert over capacity evicts
    the least-recently-used entry.  ``0.0`` and ``-0.0`` are one key.

    Args:
        capacity: maximum number of resident entries (>= 1).

    Raises:
        ValueError: on a non-positive capacity.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._keys = np.empty(0, dtype=float)
        self._owners = np.empty(0, dtype=np.int64)
        self._stamps = np.empty(0, dtype=np.int64)
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._keys)

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe a key batch; return ``(owners, hit_mask)``.

        ``owners[i]`` is the cached owner for hits and ``-1`` for
        misses.  Hits are touched most-recently-used in batch order.

        Raises:
            ValueError: when ``keys`` is not 1-d or holds a NaN or a key
                outside ``[0, 1)``; the cache is left untouched.
        """
        keys = _checked_keys(keys)
        n = len(keys)
        owners = np.full(n, -1, dtype=np.int64)
        hit = np.zeros(n, dtype=bool)
        n_hits = 0
        if n and len(self._keys):
            # Sorted needles search ~3x faster than needles in batch order.
            order = np.argsort(keys)
            needles = keys[order]
            pos = np.searchsorted(self._keys, needles)
            np.minimum(pos, len(self._keys) - 1, out=pos)
            found = self._keys[pos] == needles
            at, pos = order[found], pos[found]
            owners[at] = self._owners[pos]
            hit[at] = True
            # A key hit twice keeps its later use: stamps only grow.
            np.maximum.at(self._stamps, pos, self._clock + at)
            n_hits = len(at)
        self._clock += n
        n_misses = n - n_hits
        self.hits += n_hits
        self.misses += n_misses
        if telemetry.enabled():
            telemetry.count("serving.cache.hits", n_hits)
            telemetry.count("serving.cache.misses", n_misses)
        return owners, hit

    def insert(self, keys: np.ndarray, owners: np.ndarray) -> None:
        """Insert resolved ``key → owner`` pairs, evicting LRU overflow.

        Raises:
            ValueError: when ``keys`` and ``owners`` are not aligned 1-d
                arrays or a key is NaN or outside ``[0, 1)``; the cache
                is left untouched.
        """
        keys = _checked_keys(keys)
        owners = np.asarray(owners, dtype=np.int64)
        if owners.shape != keys.shape:
            raise ValueError(
                f"{len(keys)} keys but owners of shape {owners.shape}"
            )
        evicted = 0
        start = 0
        while start < len(keys):
            stop = min(start + self.capacity, len(keys))
            done, dropped = self._insert_run(keys[start:stop], owners[start:stop])
            start += done
            evicted += dropped
        self.evictions += evicted
        if evicted and telemetry.enabled():
            telemetry.count("serving.cache.evictions", evicted)

    def _insert_run(self, keys: np.ndarray, owners: np.ndarray) -> tuple[int, int]:
        """Insert a run of at most ``capacity`` keys, or a prefix of it, in one step.

        Inserting the run and then dropping its oldest overflow evicts
        what the one-key-at-a-time LRU evicts, and as many entries,
        provided no resident key the run touches has been dropped by the
        time the per-key order reaches it.  A run of at most ``capacity``
        keys makes every entry it touches or adds younger than every
        untouched one, and leaves at least as many untouched entries as
        there is overflow.  A resident key first touched after the run's
        first eviction may already be gone, though (the per-key order
        re-adds it and evicts once more), so the step stops before the
        earliest such key and the caller inserts the rest next.

        Returns:
            ``(keys consumed, entries evicted)``.
        """
        m = len(keys)
        # Group equal keys; the stable sort keeps each group in batch order.
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        head = np.empty(m, dtype=bool)
        head[0] = True
        np.not_equal(ranked[1:], ranked[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        first, last = order[starts], order[np.append(starts[1:], m) - 1]
        distinct = ranked[starts]
        size = len(self._keys)
        pos = np.searchsorted(self._keys, distinct)
        resident = np.zeros(len(distinct), dtype=bool)
        if size:
            resident = self._keys[np.minimum(pos, size - 1)] == distinct
        fresh = ~resident
        arrivals = first[fresh]
        room = self.capacity - size
        if len(arrivals) > room:
            first_eviction = np.partition(arrivals, room)[room]
            touched = first[resident]
            late = touched[touched > first_eviction]
            if late.size:
                cut = int(late.min())
                return self._insert_run(keys[:cut], owners[:cut])
        # A key's last occurrence sets its owner and its recency.
        stamps = self._clock + last
        self._clock += m
        at = pos[resident]
        self._owners[at] = owners[last[resident]]
        self._stamps[at] = stamps[resident]

        # ``slots``: each new key's insertion point among the surviving
        # entries, then its position in the merged arrays.
        slots = pos[fresh]
        added = len(slots)
        overflow = size + added - self.capacity
        if overflow > 0:
            # Stamps are unique and the touched entries' are the newest.
            victims = np.sort(np.argpartition(self._stamps, overflow - 1)[:overflow])
            slots -= np.searchsorted(victims, slots)
            keep = np.ones(size, dtype=bool)
            keep[victims] = False
            kept = np.flatnonzero(keep)
        else:
            kept = np.arange(size)
        slots += np.arange(added)
        # One gather per array from "old entries, then new ones".
        perm = np.empty(len(kept) + added, dtype=np.int64)
        perm[slots] = np.arange(size, size + added)
        from_old = np.ones(len(perm), dtype=bool)
        from_old[slots] = False
        perm[from_old] = kept
        self._keys = np.concatenate((self._keys, distinct[fresh]))[perm]
        self._owners = np.concatenate((self._owners, owners[last[fresh]]))[perm]
        self._stamps = np.concatenate((self._stamps, stamps[fresh]))[perm]
        return m, max(overflow, 0)

    def stats(self) -> dict[str, int | float]:
        """Return the accounting snapshot (hits/misses/evictions/...)."""
        probes = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._keys),
            "capacity": self.capacity,
            "hit_rate": self.hits / probes if probes else 0.0,
        }
