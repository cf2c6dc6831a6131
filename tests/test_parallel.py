"""The sharded execution engine: arenas, executor, dispatch, autotune.

The load-bearing guarantees pinned here:

* **cross-worker determinism** — every dispatch front-end returns
  bit-identical results for workers ∈ {1, 2, 4} and matches its serial
  counterpart exactly, including hops, paths, reasons and owners, on
  uniform *and* skewed key populations;
* **shared-memory round trips** — arrays survive publish/attach intact
  and the arena lifecycle is safe to close twice;
* **heuristics** — shard boundaries never depend on the worker count,
  and the worker count resolves in the documented precedence.

Pooled tests share the process-wide executors (:func:`get_executor`), so
the spawn cost is paid once per worker count for the whole session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
)
from repro.baselines.base import route_many_overlay, sample_overlay_lookups
from repro.core import (
    build_skewed_model,
    build_uniform_model,
    route_many,
    sample_batch,
)
from repro.distributions import PowerLaw
from repro.overlay import Network, measure_network
from repro.parallel import (
    ShardedExecutor,
    SharedArena,
    attach_arena,
    frontier_route_many_parallel,
    get_executor,
    resolve_workers,
    route_many_parallel,
    set_default_workers,
    shard_bounds,
    should_parallelize,
)
from repro.parallel import autotune

WORKER_COUNTS = (1, 2, 4)

# Big enough to split into several shards (MIN_CHUNK = 2048).
N_ROUTES = 5000


def _results_equal(a, b) -> None:
    """Assert two BatchRouteResults are bit-identical, field by field."""
    assert np.array_equal(a.success, b.success)
    assert np.array_equal(a.hops, b.hops)
    assert np.array_equal(a.neighbor_hops, b.neighbor_hops)
    assert np.array_equal(a.long_hops, b.long_hops)
    assert np.array_equal(a.reason_codes, b.reason_codes)
    assert np.array_equal(a.sources, b.sources)
    assert np.array_equal(a.target_keys, b.target_keys)
    assert np.array_equal(a.owners, b.owners)
    assert a.paths == b.paths


@pytest.fixture(scope="module")
def graphs(session_rng):
    uniform = build_uniform_model(n=4096, rng=np.random.default_rng(11))
    skewed = build_skewed_model(
        PowerLaw(alpha=1.8, shift=1e-4), n=4096, rng=np.random.default_rng(12)
    )
    return {"uniform": uniform, "skewed": skewed}


# ----------------------------------------------------------------------
# shm
# ----------------------------------------------------------------------
class TestSharedArena:
    def test_publish_attach_round_trip(self):
        arrays = {
            "a": np.arange(1000, dtype=np.int64),
            "b": np.linspace(0, 1, 257),
            "c": np.zeros((5, 7), dtype=bool),
            "empty": np.empty(0, dtype=np.int64),
        }
        with SharedArena(arrays) as arena:
            attached = attach_arena(arena.handle)
            assert set(attached) == set(arrays)
            for key, original in arrays.items():
                assert attached[key].dtype == original.dtype
                assert attached[key].shape == original.shape
                assert np.array_equal(attached[key], original)

    def test_attach_is_cached_per_token(self):
        with SharedArena({"x": np.arange(10)}) as arena:
            first = attach_arena(arena.handle)
            second = attach_arena(arena.handle)
            assert first["x"] is second["x"]

    def test_close_is_idempotent(self):
        arena = SharedArena({"x": np.arange(4)})
        arena.close()
        arena.close()

    def test_handle_is_small_and_picklable(self):
        import pickle

        with SharedArena({"big": np.zeros(100_000)}) as arena:
            blob = pickle.dumps(arena.handle)
            assert len(blob) < 2000  # the point: handles, not payloads

    def test_repr_names_arrays(self):
        with SharedArena({"x": np.arange(4)}) as arena:
            assert "x" in repr(arena)


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
def _square(x):  # module-level: shard functions must be picklable
    return x * x


def _die(_):  # simulates a worker lost to OOM kill / crash
    import os

    os._exit(1)


class TestShardedExecutor:
    def test_serial_runs_inline(self):
        with ShardedExecutor(workers=1) as ex:
            assert ex.map_shards(len, [[1, 2], [3]]) == [2, 1]

    def test_pool_recovers_after_worker_death(self):
        with ShardedExecutor(workers=2) as ex:
            with pytest.raises(Exception):  # concurrent.futures BrokenProcessPool
                ex.map_shards(_die, [1, 2])
            # the broken pool must be rebuilt, not cached forever
            assert ex.map_shards(_square, [1, 2, 3]) == [1, 4, 9]

    def test_serial_publish_skips_shared_memory(self):
        with ShardedExecutor(workers=1) as ex:
            handle = ex.publish({"x": np.arange(3)})
            assert isinstance(handle, dict)
            assert np.array_equal(handle["x"], np.arange(3))
            ex.release(handle)  # no-op, must not raise

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ShardedExecutor(workers=0)

    def test_closed_executor_refuses_pool_work(self):
        ex = ShardedExecutor(workers=2)
        ex.close()
        with pytest.raises(RuntimeError):
            ex._ensure_pool()

    def test_get_executor_is_shared_per_count(self):
        assert get_executor(1) is get_executor(1)
        assert get_executor(1) is not get_executor(2)


# ----------------------------------------------------------------------
# autotune
# ----------------------------------------------------------------------
class TestAutotune:
    def test_shard_bounds_cover_exactly(self):
        for n in (0, 1, 2047, 2048, 2049, 50_000):
            bounds = shard_bounds(n)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == max(n, 0)
            for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                assert hi == lo2

    def test_shard_bounds_never_depend_on_workers(self):
        # The determinism contract: same workload, same shards, no
        # matter what the configured worker count is.
        try:
            set_default_workers(4)
            four = shard_bounds(100_000)
        finally:
            set_default_workers(None)
        assert four == shard_bounds(100_000)

    def test_explicit_chunk_override(self):
        assert shard_bounds(10, chunk=4) == [(0, 4), (4, 8), (8, 10)]
        with pytest.raises(ValueError):
            shard_bounds(10, chunk=0)
        with pytest.raises(ValueError):
            shard_bounds(-1)

    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv(autotune.ENV_WORKERS, raising=False)
        assert resolve_workers() == 1
        monkeypatch.setenv(autotune.ENV_WORKERS, "3")
        assert resolve_workers() == 3
        try:
            set_default_workers(2)
            assert resolve_workers() == 2  # config beats env
        finally:
            set_default_workers(None)
        assert resolve_workers(5) == 5  # explicit beats everything
        with pytest.raises(ValueError):
            resolve_workers(0)
        monkeypatch.setenv(autotune.ENV_WORKERS, "zero")
        with pytest.raises(ValueError):
            resolve_workers()

    def test_should_parallelize_gates_on_size(self):
        assert not should_parallelize(4, 10)
        assert should_parallelize(4, 100_000)
        assert not should_parallelize(1, 100_000)
        assert not should_parallelize(None, 100_000)


# ----------------------------------------------------------------------
# dispatch: routing determinism across worker counts
# ----------------------------------------------------------------------
class TestRoutingDeterminism:
    @pytest.mark.parametrize("model", ["uniform", "skewed"])
    def test_bit_identical_across_worker_counts(self, graphs, model):
        graph = graphs[model]
        rng = np.random.default_rng(21)
        sources = rng.integers(graph.n, size=N_ROUTES)
        keys = rng.random(N_ROUTES)
        serial = route_many(graph, sources, keys, record_paths=True)
        for workers in WORKER_COUNTS:
            parallel = route_many_parallel(
                graph, sources, keys, record_paths=True, workers=workers
            )
            _results_equal(parallel, serial)

    def test_normalized_metric_parity(self, graphs):
        graph = graphs["skewed"]
        rng = np.random.default_rng(22)
        sources = rng.integers(graph.n, size=3000)
        keys = rng.random(3000)
        serial = route_many(graph, sources, keys, metric="normalized")
        parallel = route_many_parallel(
            graph, sources, keys, metric="normalized", workers=2
        )
        _results_equal(parallel, serial)

    def test_alive_mask_parity(self, graphs):
        graph = graphs["uniform"]
        rng = np.random.default_rng(23)
        alive = rng.random(graph.n) > 0.1
        live = np.flatnonzero(alive)
        sources = rng.choice(live, size=3000)
        keys = rng.random(3000)
        serial = route_many(graph, sources, keys, alive=alive)
        parallel = route_many_parallel(graph, sources, keys, alive=alive, workers=2)
        _results_equal(parallel, serial)

    def test_max_hops_parity(self, graphs):
        graph = graphs["uniform"]
        rng = np.random.default_rng(24)
        sources = rng.integers(graph.n, size=3000)
        keys = rng.random(3000)
        serial = route_many(graph, sources, keys, max_hops=3)
        parallel = route_many_parallel(graph, sources, keys, max_hops=3, workers=2)
        _results_equal(parallel, serial)

    def test_dead_source_raises_from_parallel_path(self, graphs):
        graph = graphs["uniform"]
        alive = np.ones(graph.n, dtype=bool)
        alive[7] = False
        with pytest.raises(ValueError, match="not alive"):
            route_many_parallel(
                graph,
                np.full(3000, 7),
                np.random.default_rng(0).random(3000),
                alive=alive,
                workers=2,
            )

    def test_route_many_workers_kwarg_dispatches_identically(self, graphs):
        graph = graphs["uniform"]
        rng = np.random.default_rng(25)
        sources = rng.integers(graph.n, size=N_ROUTES)
        keys = rng.random(N_ROUTES)
        assert N_ROUTES >= autotune.min_parallel_items()
        _results_equal(
            route_many(graph, sources, keys, workers=2),
            route_many(graph, sources, keys),
        )

    def test_sample_batch_forwards_workers(self, graphs):
        graph = graphs["uniform"]
        serial = sample_batch(graph, N_ROUTES, np.random.default_rng(26))
        parallel = sample_batch(
            graph, N_ROUTES, np.random.default_rng(26), workers=2
        )
        _results_equal(parallel, serial)


# ----------------------------------------------------------------------
# dispatch: comparator overlays, one per metric family
# ----------------------------------------------------------------------
class TestOverlayDispatch:
    N = 512
    ROUTES = 2600  # > one chunk (MIN_CHUNK = 2048)

    def _overlays(self):
        ids = np.sort(np.random.default_rng(31).random(self.N))
        return {
            "chord": (ChordOverlay(ids), ids),  # clockwise metric
            "symphony": (SymphonyOverlay(ids, np.random.default_rng(32)), ids),
            "mercury": (
                MercuryOverlay(ids, np.random.default_rng(33), sample_size=32),
                ids,
            ),  # greedy metric with transform
            "pastry": (PastryOverlay(ids, np.random.default_rng(34)), ids),
            "pgrid": (PGridOverlay(ids, np.random.default_rng(35)), ids),
            "can": (CANOverlay(ids, dims=2), None),  # torus metric
        }

    def test_every_metric_family_routes_identically(self):
        for name, (overlay, target_ids) in self._overlays().items():
            rng = np.random.default_rng(41)
            sources, keys = sample_overlay_lookups(
                overlay, self.ROUTES, rng, target_ids=target_ids
            )
            serial = route_many_overlay(overlay, sources, keys, record_paths=True)
            csr, metric = overlay._frontier()
            parallel = frontier_route_many_parallel(
                csr, metric, sources, keys, record_paths=True, workers=2
            )
            _results_equal(parallel, serial)

    def test_unknown_metric_family_is_rejected(self, graphs):
        from repro.core.metric_routing import GreedyValueMetric
        from repro.parallel.dispatch import _encode_metric

        class Exotic(GreedyValueMetric):
            pass

        graph = graphs["uniform"]
        with pytest.raises(TypeError, match="Exotic"):
            _encode_metric(Exotic(graph.ids, graph.space))


# ----------------------------------------------------------------------
# live-overlay integration points
# ----------------------------------------------------------------------
class TestLiveIntegration:
    def test_measure_network_workers_matches_serial(self):
        graph = build_uniform_model(n=2048, rng=np.random.default_rng(81))
        network = Network.from_graph(graph)
        serial = measure_network(network, 4500, np.random.default_rng(82))
        parallel = measure_network(
            network, 4500, np.random.default_rng(82), workers=2
        )
        assert parallel == serial

    def test_run_churn_workers_matches_serial(self):
        from repro.distributions import Uniform
        from repro.overlay.churn import ChurnConfig, run_churn

        def history(workers):
            graph = build_uniform_model(n=512, rng=np.random.default_rng(83))
            network = Network.from_graph(graph)
            config = ChurnConfig(epochs=3, lookups_per_epoch=40)
            return run_churn(
                network, Uniform(), config, np.random.default_rng(84),
                workers=workers,
            )

        assert history(None) == history(2)
