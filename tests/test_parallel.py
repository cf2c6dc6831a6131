"""The sharded execution engine: thread pool, dispatch, autotune.

The load-bearing guarantees pinned here:

* **cross-worker determinism** — the sharded front end returns
  bit-identical results for workers ∈ {1, 2, 4} and matches its serial
  counterpart exactly, including hops, paths, reasons and owners, on
  uniform *and* skewed key populations and on a store-loaded snapshot;
* **real sharding** — every parity test narrows the shard width and
  checks, through a spy on the per-shard kernel call, that its batch
  ran as two or more shards, so a wider default width cannot turn it
  into a serial run that passes trivially;
* **the pool** — one shared thread pool per worker count; a shard that
  raises re-raises in the caller and leaves the pool usable;
* **heuristics** — shard boundaries never depend on the worker count,
  and the worker count resolves in the documented precedence.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import telemetry
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
from repro.core.metric_routing import GreedyValueMetric
from repro.distributions import PowerLaw
from repro.overlay import Network, measure_network
from repro.parallel import (
    autotune,
    dispatch,
    frontier_route_many_parallel,
    get_executor,
    resolve_workers,
    set_default_workers,
    shard_bounds,
    should_parallelize,
)
from repro.store import load_graph, save_graph

WORKER_COUNTS = (1, 2, 4)

N_ROUTES = 5000

#: The shard width the parity tests run at: each of their batches then
#: splits into several shards, whatever the production width is.
TEST_CHUNK = 16


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


@pytest.fixture
def shards(monkeypatch):
    """Narrow the shard width and record the thread of every shard routed.

    The spy wraps the kernel call the dispatch makes per shard (only
    shard calls pass ``prepared=``), so after a call ``len(shards)`` is
    how many shards it really ran.
    """
    monkeypatch.setattr(autotune, "MIN_CHUNK", TEST_CHUNK)
    seen: list[int] = []
    kernel = dispatch.frontier_route_many

    def spy(*args, **kwargs):
        if kwargs.get("prepared") is not None:
            seen.append(threading.get_ident())
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dispatch, "frontier_route_many", spy)
    return seen


def _sharded(shards: list, route):
    """Return ``route()``, asserting that it ran two or more shards."""
    shards.clear()
    result = route()
    assert len(shards) >= 2, f"expected a sharded run, got {len(shards)} shard(s)"
    return result


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class TestShardedExecutor:
    def test_serial_runs_inline(self, graphs, shards):
        # With telemetry on, one worker still routes the shard structure,
        # every shard on the caller's own thread.
        graph = graphs["uniform"]
        rng = np.random.default_rng(1)
        sources, keys = rng.integers(graph.n, size=300), rng.random(300)
        metric = GreedyValueMetric(graph.ids, graph.space)
        telemetry.enable()
        try:
            result = _sharded(
                shards,
                lambda: frontier_route_many_parallel(
                    graph.adjacency, metric, sources, keys, workers=1
                ),
            )
        finally:
            telemetry.disable()
        assert set(shards) == {threading.get_ident()}
        _results_equal(result, route_many(graph, sources, keys))

    def test_shard_error_reraises_and_pool_survives(self, graphs, shards, monkeypatch):
        graph = graphs["uniform"]
        rng = np.random.default_rng(2)
        sources, keys = rng.integers(graph.n, size=300), rng.random(300)
        second = keys[shard_bounds(len(keys))[1][0]]
        spy = dispatch.frontier_route_many

        def failing(csr, metric, shard_sources, shard_keys, **kwargs):
            if shard_keys[0] == second:
                raise RuntimeError("shard 1 failed")
            return spy(csr, metric, shard_sources, shard_keys, **kwargs)

        monkeypatch.setattr(dispatch, "frontier_route_many", failing)
        with pytest.raises(RuntimeError, match="shard 1 failed"):
            route_many(graph, sources, keys, workers=2)
        monkeypatch.setattr(dispatch, "frontier_route_many", spy)
        pool = get_executor(2)
        _results_equal(
            _sharded(shards, lambda: route_many(graph, sources, keys, workers=2)),
            route_many(graph, sources, keys),
        )
        assert get_executor(2) is pool

    def test_more_threads_than_cores_keep_parity_and_counts(self, graphs, shards):
        # Eight threads switching every microsecond: a shard touching
        # another's state, or a lost telemetry update, breaks the parity
        # or the folded counts.
        graph = graphs["skewed"]
        rng = np.random.default_rng(3)
        sources, keys = rng.integers(graph.n, size=N_ROUTES), rng.random(N_ROUTES)
        metric = GreedyValueMetric(graph.ids, graph.space)
        serial = route_many(graph, sources, keys, record_paths=True)
        interval = sys.getswitchinterval()
        registry = telemetry.enable()
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(3):
                result = _sharded(
                    shards,
                    lambda: frontier_route_many_parallel(
                        graph.adjacency, metric, sources, keys,
                        record_paths=True, workers=8,
                    ),
                )
                _results_equal(result, serial)
        finally:
            sys.setswitchinterval(interval)
            telemetry.disable()
        assert registry.counter("routing.walks").value == 3 * N_ROUTES
        assert registry.counter("parallel.shards").value == 3 * len(shard_bounds(N_ROUTES))
        assert registry.histogram("routing.hops").state() == tuple(
            (3 * np.bincount(serial.hops)).tolist()
        )

    def test_telemetry_through_route_many_across_worker_counts(self, graphs, shards):
        """What telemetry and the round counts promise for workers 1 and 2.

        ``route_many(workers=1)`` routes one serial batch and
        ``workers=2`` a sharded one.  Outcome columns, ``candidates_seen``,
        ``routing.walks``, every ``routing.reason.*`` and ``routing.hops``
        are equal; ``rounds`` and ``routing.rounds`` count each shard's
        rounds, so they sum over the shards and are not.
        """
        graph = graphs["uniform"]
        rng = np.random.default_rng(4)
        sources, keys = rng.integers(graph.n, size=N_ROUTES), rng.random(N_ROUTES)
        results, registries = {}, {}
        for workers in (1, 2):
            registries[workers] = telemetry.enable()
            try:
                shards.clear()
                results[workers] = route_many(graph, sources, keys, workers=workers)
            finally:
                telemetry.disable()
            assert len(shards) == (0 if workers == 1 else len(shard_bounds(N_ROUTES)))
        serial, sharded = results[1], results[2]
        _results_equal(sharded, serial)
        assert sharded.candidates_seen == serial.candidates_seen
        counters = {w: r.snapshot()["counters"] for w, r in registries.items()}
        equal = ["routing.walks"] + [
            name for name in counters[1] if name.startswith("routing.reason.")
        ]
        assert len(equal) == 4
        assert {name: counters[2][name] for name in equal} == {
            name: counters[1][name] for name in equal
        }
        assert (
            registries[2].histogram("routing.hops").state()
            == registries[1].histogram("routing.hops").state()
        )
        per_shard = [
            route_many(graph, sources[lo:hi], keys[lo:hi]).rounds
            for lo, hi in shard_bounds(N_ROUTES)
        ]
        assert serial.rounds < sharded.rounds == sum(per_shard)
        for workers, result in results.items():
            assert counters[workers]["routing.rounds"] == result.rounds

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            get_executor(0)

    def test_get_executor_is_shared_per_count(self):
        assert get_executor(1) is get_executor(1)
        assert get_executor(1) is not get_executor(2)


# ----------------------------------------------------------------------
# autotune
# ----------------------------------------------------------------------
class TestAutotune:
    def test_shard_bounds_cover_exactly(self):
        width = autotune.MIN_CHUNK
        for n in (0, 1, width - 1, width, width + 1, 50 * width):
            bounds = shard_bounds(n)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == max(n, 0)
            for (_, hi), (lo2, _) in zip(bounds, bounds[1:]):
                assert hi == lo2
        with pytest.raises(ValueError):
            shard_bounds(-1)

    def test_shard_bounds_never_depend_on_workers(self):
        # The determinism contract: same batch, same shards, no matter
        # what the configured worker count is.
        try:
            set_default_workers(4)
            four = shard_bounds(100_000)
        finally:
            set_default_workers(None)
        assert four == shard_bounds(100_000)

    def test_resolve_precedence(self):
        assert resolve_workers() == 1
        try:
            set_default_workers(2)
            assert resolve_workers() == 2
            assert resolve_workers(5) == 5  # explicit beats the default
        finally:
            set_default_workers(None)
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_should_parallelize_gates_on_size(self):
        # Dispatch exactly when the batch splits into two or more shards.
        width = autotune.MIN_CHUNK
        assert not should_parallelize(4, 10)
        assert not should_parallelize(4, width)
        assert len(shard_bounds(width)) == 1
        assert should_parallelize(4, width + 1)
        assert len(shard_bounds(width + 1)) == 2
        assert should_parallelize(4, 100_000)
        assert not should_parallelize(1, 100_000)
        assert not should_parallelize(None, 100_000)


# ----------------------------------------------------------------------
# dispatch: routing determinism across worker counts
# ----------------------------------------------------------------------
class TestRoutingDeterminism:
    @pytest.mark.parametrize("model", ["uniform", "skewed"])
    def test_bit_identical_across_worker_counts(self, graphs, model, shards):
        graph = graphs[model]
        rng = np.random.default_rng(21)
        sources = rng.integers(graph.n, size=N_ROUTES)
        keys = rng.random(N_ROUTES)
        serial = route_many(graph, sources, keys, record_paths=True)
        _results_equal(route_many(graph, sources, keys, record_paths=True, workers=1), serial)
        for workers in WORKER_COUNTS[1:]:
            parallel = _sharded(
                shards,
                lambda w=workers: route_many(
                    graph, sources, keys, record_paths=True, workers=w
                ),
            )
            _results_equal(parallel, serial)

    def test_normalized_metric_parity(self, graphs, shards):
        graph = graphs["skewed"]
        rng = np.random.default_rng(22)
        sources = rng.integers(graph.n, size=3000)
        keys = rng.random(3000)
        serial = route_many(graph, sources, keys, metric="normalized")
        parallel = _sharded(
            shards,
            lambda: route_many(graph, sources, keys, metric="normalized", workers=2),
        )
        _results_equal(parallel, serial)

    def test_alive_mask_parity(self, graphs, shards):
        graph = graphs["uniform"]
        rng = np.random.default_rng(23)
        alive = rng.random(graph.n) > 0.1
        live = np.flatnonzero(alive)
        sources = rng.choice(live, size=3000)
        keys = rng.random(3000)
        serial = route_many(graph, sources, keys, alive=alive)
        parallel = _sharded(
            shards, lambda: route_many(graph, sources, keys, alive=alive, workers=2)
        )
        _results_equal(parallel, serial)

    def test_max_hops_parity(self, graphs, shards):
        graph = graphs["uniform"]
        rng = np.random.default_rng(24)
        sources = rng.integers(graph.n, size=3000)
        keys = rng.random(3000)
        serial = route_many(graph, sources, keys, max_hops=3)
        parallel = _sharded(
            shards, lambda: route_many(graph, sources, keys, max_hops=3, workers=2)
        )
        _results_equal(parallel, serial)

    def test_store_loaded_snapshot_parity(self, graphs, shards, tmp_path):
        save_graph(graphs["skewed"], tmp_path / "graph")
        loaded = load_graph(tmp_path / "graph")
        rng = np.random.default_rng(27)
        sources = rng.integers(loaded.n, size=3000)
        keys = rng.random(3000)
        serial = route_many(loaded, sources, keys, record_paths=True)
        for workers in WORKER_COUNTS[1:]:
            parallel = _sharded(
                shards,
                lambda w=workers: route_many(
                    loaded, sources, keys, record_paths=True, workers=w
                ),
            )
            _results_equal(parallel, serial)

    def test_dead_source_raises_from_parallel_path(self, graphs, shards):
        graph = graphs["uniform"]
        alive = np.ones(graph.n, dtype=bool)
        alive[7] = False
        with pytest.raises(ValueError, match="not alive"):
            route_many(
                graph,
                np.full(3000, 7),
                np.random.default_rng(0).random(3000),
                alive=alive,
                workers=2,
            )
        assert not shards  # rejected before any shard ran

    def test_route_many_workers_kwarg_dispatches_identically(self, graphs, shards):
        graph = graphs["uniform"]
        rng = np.random.default_rng(25)
        sources = rng.integers(graph.n, size=N_ROUTES)
        keys = rng.random(N_ROUTES)
        _results_equal(
            _sharded(shards, lambda: route_many(graph, sources, keys, workers=2)),
            route_many(graph, sources, keys),
        )
        assert threading.get_ident() not in shards  # routed on pool threads

    def test_sample_batch_forwards_workers(self, graphs, shards):
        graph = graphs["uniform"]
        serial = sample_batch(graph, N_ROUTES, np.random.default_rng(26))
        parallel = _sharded(
            shards,
            lambda: sample_batch(
                graph, N_ROUTES, np.random.default_rng(26), workers=2
            ),
        )
        _results_equal(parallel, serial)


# ----------------------------------------------------------------------
# dispatch: comparator overlays, one per metric family
# ----------------------------------------------------------------------
class TestOverlayDispatch:
    N = 512
    ROUTES = 2600

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

    def test_every_metric_family_routes_identically(self, shards):
        overlays = self._overlays()
        assert len(overlays) == 6
        for name, (overlay, target_ids) in overlays.items():
            rng = np.random.default_rng(41)
            sources, keys = sample_overlay_lookups(
                overlay, self.ROUTES, rng, target_ids=target_ids
            )
            serial = route_many_overlay(overlay, sources, keys, record_paths=True)
            parallel = _sharded(
                shards,
                lambda: frontier_route_many_parallel(
                    overlay.csr, overlay.metric, sources, keys,
                    record_paths=True, workers=2,
                ),
            )
            _results_equal(parallel, serial)


# ----------------------------------------------------------------------
# live-overlay integration points
# ----------------------------------------------------------------------
class TestLiveIntegration:
    def test_measure_network_workers_matches_serial(self, shards):
        graph = build_uniform_model(n=2048, rng=np.random.default_rng(81))
        network = Network.from_graph(graph)
        serial = measure_network(network, 4500, np.random.default_rng(82))
        parallel = _sharded(
            shards,
            lambda: measure_network(
                network, 4500, np.random.default_rng(82), workers=2
            ),
        )
        assert parallel == serial

    def test_run_churn_workers_matches_serial(self, shards):
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

        assert history(None) == _sharded(shards, lambda: history(2))
