"""Owner-side arena cache: publish a graph's operand set once, not per call.

Without this cache, every pooled ``route_many(workers=N)`` call copies
the complete static operand set — CSR adjacency, coordinate vectors,
per-edge tags — into fresh shared-memory segments and unlinks them when
the call returns.
For a service routing many small batches over one big graph, that
republish dominates dispatch cost.

:func:`lease_arena` keys a small LRU of live :class:`SharedArena`
instances on the *identity* of the arrays being published.  The static
arrays of a graph or overlay are stable objects (graphs are immutable
snapshots; overlay frontiers are built once and cached), so repeated
dispatch calls over the same topology hit the cache and reuse the
published arena — workers keep their cached attachment too, making the
steady-state cost of a dispatch call independent of graph size.

Correctness of identity keying:

* **churn / damage invalidation** — mutating helpers always build *new*
  graph objects with new arrays, so a changed topology can never alias
  a cached key (new ids → cache miss → fresh arena);
* **buffer reuse** — every entry holds weak references to its arrays'
  buffer-owning roots; a key can only match while those referents are
  alive, and a live root's buffer range cannot be recycled by a
  different allocation.  Entries whose roots died are evicted on
  sight.

Leased handles are owned by the cache, not the caller: do **not**
release them through :meth:`ShardedExecutor.release`.  The cache
unlinks arenas on LRU eviction (capacity 4), on :func:`clear`, and
atexit.
"""

from __future__ import annotations

import atexit
import threading
import weakref
from collections import OrderedDict

import numpy as np

from repro import telemetry
from repro.parallel.shm import ArenaHandle, SharedArena, array_root

__all__ = [
    "ArenaCache",
    "lease_arena",
    "clear",
    "stats",
    "cache_stats",
    "reset_stats",
]


class ArenaCache:
    """An LRU of published arenas keyed on array-identity tuples.

    Args:
        capacity: maximum number of live arenas to keep published.

    Raises:
        ValueError: for a capacity below 1.
    """

    def __init__(self, capacity: int = 4):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple[SharedArena, list]] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(arrays: dict[str, np.ndarray]) -> tuple:
        # Identity of the *bytes*, not the wrapper: data pointer, shape,
        # strides and dtype pin the exact view contents, so the fresh
        # base-class views np.asarray makes around a stable buffer
        # (metric constructors do this every call) still hit.
        return tuple(
            (
                name,
                array.__array_interface__["data"][0],
                array.shape,
                array.strides,
                str(array.dtype),
            )
            for name, array in arrays.items()
        )

    def lease(self, arrays: dict[str, np.ndarray]) -> ArenaHandle:
        """Return a published handle for ``arrays``, reusing a live arena.

        The handle stays valid until the entry is evicted — keep the
        source arrays alive for the duration of the dispatch call (the
        caller always does: they belong to the graph being routed on).
        """
        key = self._key(arrays)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                arena, refs = entry
                if all(ref() is not None for ref in refs):
                    self._entries.move_to_end(key)
                    self.hits += 1
                    telemetry.count("arena_cache.hits")
                    return arena.handle
                # A buffer address in the key was recycled by the
                # allocator after its owning root died; the match is
                # coincidental, not a reuse of the same operand set.
                del self._entries[key]
                arena.close()
                self.evictions += 1
                telemetry.count("arena_cache.evictions")
            self.misses += 1
            telemetry.count("arena_cache.misses")
            arena = SharedArena(arrays)
            refs = [weakref.ref(array_root(array)) for array in arrays.values()]
            self._entries[key] = (arena, refs)
            while len(self._entries) > self.capacity:
                old_arena, _ = self._entries.popitem(last=False)[1]
                old_arena.close()
                self.evictions += 1
                telemetry.count("arena_cache.evictions")
            return arena.handle

    def clear(self) -> None:
        """Unlink every cached arena (handles become invalid)."""
        with self._lock:
            entries, self._entries = self._entries, OrderedDict()
        for arena, _ in entries.values():
            arena.close()

    def cache_stats(self) -> dict[str, int]:
        """Return this cache's lifetime counters and current size.

        Keys: ``hits``, ``misses``, ``evictions``, ``live_entries``.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "live_entries": len(self._entries),
            }

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (entries stay cached)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"ArenaCache(entries={len(self._entries)}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )


#: The process-wide cache used by the dispatch layer.
_CACHE = ArenaCache()


def lease_arena(arrays: dict[str, np.ndarray]) -> ArenaHandle:
    """Lease from the process-wide cache (see :class:`ArenaCache`)."""
    return _CACHE.lease(arrays)


def clear() -> None:
    """Unlink every arena in the process-wide cache."""
    _CACHE.clear()


def stats() -> tuple[int, int]:
    """Return the process-wide cache's ``(hits, misses)`` counters."""
    return _CACHE.hits, _CACHE.misses


def cache_stats() -> dict[str, int]:
    """Return the process-wide cache's stats (see :meth:`ArenaCache.cache_stats`)."""
    return _CACHE.cache_stats()


def reset_stats() -> None:
    """Zero the process-wide cache's hit/miss/eviction counters."""
    _CACHE.reset_stats()


atexit.register(clear)
