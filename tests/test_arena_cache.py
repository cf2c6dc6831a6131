"""Owner-side arena cache, file-backed specs, executor hygiene.

The guarantees pinned here:

* **lease reuse** — identical operand sets return the same published
  arena token across calls (even through fresh ``np.asarray`` views),
  and distinct operand sets never alias;
* **invalidation** — entries whose source buffers died are evicted on
  sight, LRU eviction and :func:`clear` unlink their arenas;
* **zero-copy serving** — arrays loaded from a :mod:`repro.store`
  snapshot publish as file-backed specs (no shared-memory copy) and
  pooled routing over a loaded graph is bit-identical to serial while
  hitting the cache on repeat dispatch;
* **hygiene** — the atexit sweep closes explicitly constructed
  executors that were never ``close()``d, unlinking their arenas.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.core import GraphConfig, build_uniform_model, route_many
from repro.parallel import (
    ArenaCache,
    SharedArena,
    attach_arena,
    get_executor,
    lease_arena,
)
from repro.parallel import arena_cache as cache_mod
from repro.parallel import autotune
from repro.parallel.executor import ShardedExecutor, shutdown_all
from repro.parallel.shm import _file_spec, array_root
from repro.store import load_graph, save_graph

N = 2048
N_ROUTES = 512


@pytest.fixture(scope="module")
def loaded_graph(tmp_path_factory):
    """A graph built once, snapshotted, and memmapped back."""
    rng = np.random.default_rng(7)
    graph = build_uniform_model(N, rng, GraphConfig(out_degree=4))
    path = tmp_path_factory.mktemp("cache-store") / "graph"
    save_graph(graph, path)
    return graph, load_graph(path)


def _operands(rng, n=256):
    return {
        "ids": np.sort(rng.random(n)),
        "indptr": np.arange(n + 1, dtype=np.int64),
    }


class TestArenaCache:
    def test_repeat_lease_reuses_arena(self, rng):
        cache = ArenaCache(capacity=2)
        arrays = _operands(rng)
        first = cache.lease(arrays)
        second = cache.lease(arrays)
        assert first.token == second.token
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()

    def test_fresh_views_of_same_buffer_hit(self, rng):
        # Metric constructors re-wrap graph vectors with np.asarray on
        # every dispatch; the resulting base-class views must still hit.
        cache = ArenaCache(capacity=2)
        arrays = _operands(rng)
        first = cache.lease(arrays)
        views = {name: a[:] for name, a in arrays.items()}
        assert all(views[k] is not arrays[k] for k in arrays)
        second = cache.lease(views)
        assert first.token == second.token
        assert cache.hits == 1
        cache.clear()

    def test_distinct_operands_miss(self, rng):
        cache = ArenaCache(capacity=2)
        first = cache.lease(_operands(rng))
        second = cache.lease(_operands(rng))
        assert first.token != second.token
        assert (cache.hits, cache.misses) == (0, 2)
        cache.clear()

    def test_dead_root_entry_is_evicted(self, rng):
        cache = ArenaCache(capacity=2)
        arrays = _operands(rng)
        key = cache._key(arrays)
        old = cache.lease(arrays)
        del arrays
        gc.collect()
        assert any(ref() is None for ref in cache._entries[key][1])
        # Simulate the allocator recycling the dead buffer's address:
        # file the stale entry under the key of a *new* operand set and
        # lease it.  The dead weakrefs must force a miss + fresh arena.
        fresh = _operands(rng)
        cache._entries[cache._key(fresh)] = cache._entries.pop(key)
        handle = cache.lease(fresh)
        assert handle.token != old.token
        assert cache.hits == 0 and cache.misses == 2
        assert all(
            ref() is not None
            for _, refs in cache._entries.values()
            for ref in refs
        )
        cache.clear()

    def test_lru_eviction_unlinks_arena(self, rng):
        cache = ArenaCache(capacity=1)
        first_arrays = _operands(rng)
        first = cache.lease(first_arrays)
        attach_arena(first)  # still mapped while published
        second = cache.lease(_operands(rng))
        assert len(cache) == 1
        assert second.token != first.token
        from repro.parallel.shm import detach_all

        detach_all()
        with pytest.raises(FileNotFoundError):
            attach_arena(first)
        cache.clear()

    def test_clear_unlinks_everything(self, rng):
        cache = ArenaCache(capacity=4)
        handle = cache.lease(_operands(rng))
        cache.clear()
        assert len(cache) == 0
        from repro.parallel.shm import detach_all

        detach_all()
        with pytest.raises(FileNotFoundError):
            attach_arena(handle)

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ArenaCache(capacity=0)

    def test_cache_stats_counts_hits_misses_evictions(self, rng):
        cache = ArenaCache(capacity=1)
        arrays = _operands(rng)
        cache.lease(arrays)          # miss
        cache.lease(arrays)          # hit
        cache.lease(_operands(rng))  # miss + LRU eviction of the first
        stats = cache.cache_stats()
        assert stats == {
            "hits": 1,
            "misses": 2,
            "evictions": 1,
            "live_entries": 1,
        }
        cache.clear()

    def test_reset_stats_keeps_entries(self, rng):
        cache = ArenaCache(capacity=2)
        arrays = _operands(rng)
        handle = cache.lease(arrays)
        cache.reset_stats()
        stats = cache.cache_stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (0, 0, 0)
        assert stats["live_entries"] == 1
        # The cached arena survived the counter reset.
        assert cache.lease(arrays).token == handle.token
        assert cache.cache_stats()["hits"] == 1
        cache.clear()

    def test_module_level_cache_stats(self, rng):
        cache_mod.reset_stats()
        before = cache_mod.cache_stats()
        arrays = _operands(rng)
        handle = lease_arena(arrays)
        assert lease_arena(arrays).token == handle.token
        after = cache_mod.cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"] + 1
        cache_mod.clear()


class TestFileBackedSpecs:
    def test_loaded_arrays_publish_without_copy(self, loaded_graph):
        _, loaded = loaded_graph
        csr = loaded.adjacency
        arrays = {
            "indptr": csr.indptr,
            "indices": csr.indices,
            "ids": loaded.ids,
        }
        specs = {k: _file_spec(k, a) for k, a in arrays.items()}
        assert all(spec is not None for spec in specs.values())
        assert all(spec.segment is None for spec in specs.values())
        assert all(spec.path for spec in specs.values())
        arena = SharedArena(arrays)
        assert not arena._segments  # nothing was copied to /dev/shm
        attached = attach_arena(arena.handle)
        for key, array in arrays.items():
            np.testing.assert_array_equal(attached[key], array)
        arena.close()

    def test_view_offsets_recomputed(self, loaded_graph):
        # A sliced view of a loaded memmap must map exactly its bytes —
        # the root offset plus the pointer delta, not the view's own
        # (unadjusted) offset attribute.
        _, loaded = loaded_graph
        indices = loaded.adjacency.indices
        view = np.asarray(indices)[10:200]
        spec = _file_spec("v", view)
        assert spec is not None
        mapped = np.memmap(
            spec.path,
            dtype=np.dtype(spec.dtype),
            mode="r",
            offset=spec.offset,
            shape=spec.shape,
        )
        np.testing.assert_array_equal(mapped, indices[10:200])

    def test_plain_arrays_still_copied(self, rng):
        array = rng.random(64)
        assert _file_spec("a", array) is None
        assert array_root(array) is array


class TestCachedDispatch:
    def test_repeat_route_many_hits_cache(self, loaded_graph, rng, monkeypatch):
        # A 512-route batch sits below the auto-parallel threshold —
        # force pooled dispatch so the lease path actually runs.
        monkeypatch.setattr(autotune, "DEFAULT_MIN_ITEMS", 1)
        monkeypatch.setattr(autotune, "MIN_CHUNK", 128)
        _, loaded = loaded_graph
        sources = rng.integers(0, N, N_ROUTES)
        keys = rng.random(N_ROUTES)
        serial = route_many(loaded, sources, keys)
        get_executor(2).warm()
        first = route_many(loaded, sources, keys, workers=2)
        hits_before, _ = cache_mod.stats()
        second = route_many(loaded, sources, keys, workers=2)
        hits_after, _ = cache_mod.stats()
        assert hits_after > hits_before
        for result in (first, second):
            np.testing.assert_array_equal(result.hops, serial.hops)
            np.testing.assert_array_equal(result.owners, serial.owners)
            np.testing.assert_array_equal(result.success, serial.success)

    def test_reuse_arena_false_matches(self, loaded_graph, rng):
        from repro.core.batch_routing import _graph_metric
        from repro.parallel import frontier_route_many_parallel

        _, loaded = loaded_graph
        sources = rng.integers(0, N, N_ROUTES)
        keys = rng.random(N_ROUTES)
        serial = route_many(loaded, sources, keys)
        csr = loaded.adjacency
        metric = _graph_metric(loaded, "key")
        pooled = frontier_route_many_parallel(
            csr,
            metric,
            sources,
            keys,
            workers=2,
            reuse_arena=False,
        )
        np.testing.assert_array_equal(pooled.hops, serial.hops)
        np.testing.assert_array_equal(pooled.owners, serial.owners)


class TestExecutorHygiene:
    def test_shutdown_all_sweeps_unclosed_executors(self, rng):
        executor = ShardedExecutor(2)
        handle = executor.publish({"x": rng.random(32)})
        assert not executor._closed
        shutdown_all()
        assert executor._closed
        from repro.parallel.shm import detach_all

        detach_all()
        with pytest.raises(FileNotFoundError):
            attach_arena(handle)

    def test_lease_arena_module_level(self, rng):
        arrays = _operands(rng)
        first = lease_arena(arrays)
        second = lease_arena(arrays)
        assert first.token == second.token
