"""Tests for the streaming serving layer: frontier re-entry, demand,
cache, engine contracts (stream-vs-batch parity, admission determinism)."""

import numpy as np
import pytest

from repro import telemetry
from repro.core import build_uniform_model, route_many
from repro.core.batch_routing import _graph_metric
from repro.core.builder import GraphConfig
from repro.core.metric_routing import (
    REASON_ARRIVED,
    StreamFrontier,
    frontier_route_many,
)
from repro.serving import (
    DemandModel,
    RouteCache,
    ServeConfig,
    ServingEngine,
    pareto_weights,
    zipf_weights,
)


@pytest.fixture(scope="module")
def graph():
    return build_uniform_model(
        4096, np.random.default_rng(1234), GraphConfig(out_degree=6)
    )


@pytest.fixture(scope="module")
def demand(graph):
    return DemandModel(
        graph.ids, n_users=400, n_peers=graph.n, rng=np.random.default_rng(77)
    )


def _workload(graph, n, seed):
    rng = np.random.default_rng(seed)
    sources = rng.integers(0, graph.n, size=n)
    keys = rng.random(n)
    return sources, keys


RESULT_COLUMNS = (
    "owners", "hops", "neighbor_hops", "long_hops", "success", "reason_codes",
)


class TestDemandModel:
    def test_weight_helpers_validate(self, rng):
        with pytest.raises(ValueError):
            pareto_weights(0, rng)
        with pytest.raises(ValueError):
            pareto_weights(5, rng, alpha=0.0)
        with pytest.raises(ValueError):
            zipf_weights(0)
        with pytest.raises(ValueError):
            zipf_weights(5, exponent=-1.0)

    def test_draw_shapes_and_ranges(self, graph, demand):
        users, sources, keys = demand.draw(500, np.random.default_rng(0))
        assert len(users) == len(sources) == len(keys) == 500
        assert (users >= 0).all() and (users < demand.n_users).all()
        assert (sources >= 0).all() and (sources < graph.n).all()
        assert np.isin(keys, graph.ids).all()

    def test_draw_is_deterministic_per_seed(self, demand):
        a = demand.draw(300, np.random.default_rng(9))
        b = demand.draw(300, np.random.default_rng(9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_activity_is_heavy_tailed(self, demand):
        users, _, _ = demand.draw(20_000, np.random.default_rng(3))
        counts = np.bincount(users, minlength=demand.n_users)
        top = np.sort(counts)[::-1]
        top_decile = top[: demand.n_users // 10].sum() / counts.sum()
        assert top_decile > 0.3  # top 10% of users carry >30% of traffic

    def test_affinity_repeats_home_keys(self, graph):
        model = DemandModel(
            graph.ids, n_users=50, n_peers=graph.n,
            rng=np.random.default_rng(5), affinity=1.0,
        )
        users, _, keys = model.draw(200, np.random.default_rng(6))
        assert np.array_equal(keys, model.home_keys[users])

    def test_validation(self, graph, rng):
        with pytest.raises(ValueError):
            DemandModel(np.empty(0), 10, graph.n, rng)
        with pytest.raises(ValueError):
            DemandModel(graph.ids, 0, graph.n, rng)
        with pytest.raises(ValueError):
            DemandModel(graph.ids, 10, graph.n, rng, affinity=1.5)


class TestRouteCache:
    def test_lookup_insert_accounting(self):
        cache = RouteCache(8)
        keys = np.array([0.1, 0.2, 0.3])
        owners, hit = cache.lookup(keys)
        assert not hit.any() and (owners == -1).all()
        cache.insert(keys, np.array([1, 2, 3]))
        owners, hit = cache.lookup(np.array([0.2, 0.9, 0.1]))
        assert hit.tolist() == [True, False, True]
        assert owners.tolist() == [2, -1, 1]
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 4
        assert stats["evictions"] == 0 and stats["size"] == 3
        assert stats["hit_rate"] == pytest.approx(2 / 6)

    def test_lru_eviction_order(self):
        cache = RouteCache(2)
        cache.insert(np.array([0.1, 0.2]), np.array([1, 2]))
        cache.lookup(np.array([0.1]))  # touch 0.1 → 0.2 becomes LRU
        cache.insert(np.array([0.3]), np.array([3]))
        _, hit = cache.lookup(np.array([0.1, 0.2, 0.3]))
        assert hit.tolist() == [True, False, True]
        assert cache.evictions == 1

    def test_duplicate_inserts_update_in_place(self):
        cache = RouteCache(4)
        cache.insert(np.array([0.5, 0.5]), np.array([7, 9]))
        owners, hit = cache.lookup(np.array([0.5]))
        assert hit.all() and owners[0] == 9
        assert len(cache) == 1 and cache.evictions == 0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RouteCache(0)

    @staticmethod
    def _holding_three():
        cache = RouteCache(4)
        cache.insert(np.array([0.1, 0.2, 0.3]), np.array([1, 2, 3]))
        return cache

    @staticmethod
    def _unchanged(cache):
        assert len(cache) == 3 and cache.evictions == 0
        owners, hit = cache.lookup(np.array([0.1, 0.2, 0.3]))
        assert hit.all() and owners.tolist() == [1, 2, 3]

    def test_insert_rejects_nan_keys(self):
        cache = self._holding_three()
        with pytest.raises(ValueError, match="outside"):
            cache.insert(np.array([np.nan, np.nan]), np.array([4, 5]))
        self._unchanged(cache)

    def test_insert_rejects_misaligned_owners(self):
        cache = self._holding_three()
        with pytest.raises(ValueError, match="owners"):
            cache.insert(np.array([0.4, 0.5, 0.6]), np.array([4, 5]))
        with pytest.raises(ValueError, match="owners"):
            cache.insert(np.array([0.4]), np.array([4, 5]))
        self._unchanged(cache)

    @pytest.mark.parametrize("key", [1.5, -0.25, 1.0])
    def test_insert_rejects_keys_outside_unit_interval(self, key):
        cache = self._holding_three()
        with pytest.raises(ValueError, match="outside"):
            cache.insert(np.array([0.4, key]), np.array([4, 5]))
        self._unchanged(cache)

    @pytest.mark.parametrize("key", [np.nan, 1.5, -0.25])
    def test_lookup_rejects_bad_keys(self, key):
        cache = self._holding_three()
        with pytest.raises(ValueError, match="outside"):
            cache.lookup(np.array([0.1, key]))
        assert cache.hits == 0 and cache.misses == 0
        self._unchanged(cache)

    def test_rejects_keys_that_are_not_1d(self):
        cache = self._holding_three()
        keys = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(ValueError, match="1-d"):
            cache.lookup(keys)
        with pytest.raises(ValueError, match="1-d"):
            cache.insert(keys, np.array([[1, 2], [3, 4]]))
        with pytest.raises(ValueError, match="1-d"):
            cache.lookup(np.float64(0.1))
        self._unchanged(cache)


class TestStreamFrontier:
    def test_staggered_admission_matches_batch(self, graph):
        metric = _graph_metric(graph, "key")
        sources, keys = _workload(graph, 900, seed=8)
        batch = frontier_route_many(graph.adjacency, metric, sources, keys)
        frontier = StreamFrontier(graph.adjacency, metric, capacity=64)
        slots = []
        for chunk in np.array_split(np.arange(900), 7):
            # interleave admissions with live rounds
            slots.append(
                frontier.admit(sources[chunk], metric.prepare(keys[chunk]))
            )
            frontier.step()
        while frontier.active_count:
            frontier.step()
        slots = np.concatenate(slots)
        assert np.array_equal(frontier.success[slots], batch.success)
        assert np.array_equal(frontier.hops[slots], batch.hops)
        assert np.array_equal(frontier.owners[slots], batch.owners)
        assert np.array_equal(frontier.reason_codes[slots], batch.reason_codes)

    def test_source_owning_key_completes_on_admission(self, graph):
        metric = _graph_metric(graph, "key")
        sources = np.array([17], dtype=np.int64)
        keys = graph.ids[sources]
        frontier = StreamFrontier(graph.adjacency, metric)
        slots = frontier.admit(sources, metric.prepare(keys))
        assert frontier.active_count == 0
        assert frontier.success[slots].all()
        assert frontier.hops[slots[0]] == 0
        assert frontier.reason_codes[slots[0]] == REASON_ARRIVED

    def test_capacity_grows_and_slots_are_reusable(self, graph):
        metric = _graph_metric(graph, "key")
        frontier = StreamFrontier(graph.adjacency, metric, capacity=4)
        sources, keys = _workload(graph, 64, seed=2)
        slots = frontier.admit(sources, metric.prepare(keys))
        assert frontier.capacity >= 64
        while frontier.active_count:
            frontier.step()
        frontier.release(slots)
        again = frontier.admit(sources[:8], metric.prepare(keys[:8]))
        assert set(again.tolist()) <= set(slots.tolist())  # slots reused

    def test_release_guards(self, graph):
        metric = _graph_metric(graph, "key")
        frontier = StreamFrontier(graph.adjacency, metric, record_paths=True)
        sources, keys = _workload(graph, 4, seed=3)
        slots = frontier.admit(sources, metric.prepare(keys))
        while frontier.active_count:
            frontier.step()
        with pytest.raises(ValueError, match="recording paths"):
            frontier.release(slots)
        plain = StreamFrontier(graph.adjacency, metric)
        slots = plain.admit(sources, metric.prepare(keys))
        if plain.active[slots].any():
            with pytest.raises(ValueError, match="still active"):
                plain.release(slots)

    @staticmethod
    def _drained(graph, n=6):
        """A frontier whose first ``n`` walks (slots ``0..n-1``) retired."""
        metric = _graph_metric(graph, "key")
        frontier = StreamFrontier(graph.adjacency, metric, capacity=64)
        sources, keys = _workload(graph, n, seed=5)
        slots = frontier.admit(sources, metric.prepare(keys))
        while frontier.active_count:
            frontier.step()

        def admit(m):
            return frontier.admit(sources[:m], metric.prepare(keys[:m])).tolist()

        return frontier, slots, admit

    def test_release_reuses_slots_last_in_first_out(self, graph):
        frontier, slots, admit = self._drained(graph)
        frontier.release(slots[[1, 4, 2]])
        assert admit(4) == [2, 4, 1, 6]

    def test_release_rejects_a_slot_already_free(self, graph):
        frontier, slots, admit = self._drained(graph)
        frontier.release(slots[:1])
        with pytest.raises(ValueError, match="already free"):
            frontier.release(slots[:1])
        # Freed once, reused once: the second walk gets a fresh slot.
        assert admit(2) == [0, 6]

    def test_release_rejects_a_slot_never_allocated(self, graph):
        frontier, _, admit = self._drained(graph)
        for bad in (6, 63, -1):
            with pytest.raises(ValueError, match="never allocated"):
                frontier.release(np.array([bad]))
        assert admit(2) == [6, 7]

    def test_release_rejects_a_slot_repeated_in_one_call(self, graph):
        frontier, slots, admit = self._drained(graph)
        with pytest.raises(ValueError, match="released twice"):
            frontier.release(slots[[3, 1, 3]])
        assert admit(1) == [6]  # nothing was freed

    def test_tickets_travel_with_walks(self, graph):
        metric = _graph_metric(graph, "key")
        frontier = StreamFrontier(graph.adjacency, metric)
        sources, keys = _workload(graph, 16, seed=4)
        tickets = np.arange(100, 116, dtype=np.int64)
        slots = frontier.admit(sources, metric.prepare(keys), tickets=tickets)
        while frontier.active_count:
            frontier.step()
        assert np.array_equal(frontier.tickets[slots], tickets)


class TestServingEngine:
    def test_stream_replayed_as_batch_is_hop_identical(self, graph):
        sources, keys = _workload(graph, 3000, seed=11)
        engine = ServingEngine(
            graph, ServeConfig(admit_per_round=257, max_active=800)
        )
        engine.submit(sources, keys)
        engine.drain()
        stream = engine.results()
        batch = route_many(graph, sources, keys)
        assert stream.completed.all()
        for col in RESULT_COLUMNS:
            assert np.array_equal(getattr(stream, col), getattr(batch, col)), col

    def test_cache_hits_are_correct_under_skew(self, graph, demand):
        engine = ServingEngine(
            graph, ServeConfig(admit_per_round=512, cache_capacity=256)
        )
        report = engine.serve(demand, 12_000, np.random.default_rng(21))
        res = engine.results()
        assert res.cache_hit.any()
        assert report.cache["hits"] > 0 and report.cache["hit_rate"] > 0.2
        # every served owner — cached or routed — matches batch routing
        batch = route_many(graph, res.sources, res.keys)
        assert np.array_equal(res.owners, batch.owners)
        assert res.success.all()
        # cache hits are answered without walking the overlay
        assert (res.hops[res.cache_hit] == 0).all()
        # routed outcomes stay hop-identical to the batch replay
        routed = ~res.cache_hit
        assert np.array_equal(res.hops[routed], batch.hops[routed])

    @pytest.mark.parametrize("cache_capacity", [0, 64])
    def test_admission_takes_the_oldest_pending_tickets(self, graph, cache_capacity):
        """Chunks submitted across pumps, micro-batches narrower than a
        chunk: after every pump the admitted tickets (completed or in
        flight) are a prefix of the submitted ones, and ``pending``
        counts the rest."""
        rng = np.random.default_rng(13)
        n = 1500
        sources = rng.integers(0, graph.n, size=n)
        keys = rng.choice(rng.random(200), size=n)  # repeats, so the cache hits
        engine = ServingEngine(
            graph,
            ServeConfig(admit_per_round=70, max_active=150, cache_capacity=cache_capacity),
        )
        frontier = engine._frontier
        submitted = 0
        for chunk in (300, 0, 450, 1, 749):
            part = slice(submitted, submitted + chunk)
            engine.submit(sources[part], keys[part])
            submitted += chunk
            for _ in range(4):
                engine.pump()
                res = engine.results()
                in_flight = frontier.tickets[frontier.active]
                assert len(in_flight) == engine.in_flight
                admitted = np.union1d(np.flatnonzero(res.completed), in_flight)
                assert np.array_equal(admitted, np.arange(submitted - engine.pending))
        engine.drain()
        assert engine.pending == 0 and engine.results().completed.all()
        if cache_capacity:
            assert engine.results().cache_hit.any()
        routed = ~engine.results().cache_hit
        batch = route_many(graph, sources, keys)
        assert np.array_equal(engine.results().owners, batch.owners)
        assert np.array_equal(engine.results().hops[routed], batch.hops[routed])

    def test_report_is_exact_over_the_outcome_log(self, graph, demand):
        """Quantiles, mean hops, success rate and reasons are numpy over
        ``results()``: hops over routed tickets, the rest over all."""
        engine = ServingEngine(
            graph, ServeConfig(admit_per_round=512, cache_capacity=256, max_hops=3)
        )
        report = engine.serve(demand, 9000, np.random.default_rng(81))
        res = engine.results()
        assert len(res) == 9000 and res.completed.all()
        routed = ~res.cache_hit
        probs = (0.5, 0.99, 0.999)
        assert [report.hops_p50, report.hops_p99, report.hops_p999] == (
            np.quantile(res.hops[routed], probs).tolist()
        )
        assert [report.latency_p50_ms, report.latency_p99_ms, report.latency_p999_ms] == (
            (np.quantile(res.latency_seconds, probs) * 1e3).tolist()
        )
        assert report.mean_hops == int(res.hops[routed].sum()) / int(routed.sum())
        assert report.success_rate == res.success.mean()
        assert report.reasons == {
            label: int(np.count_nonzero(res.reason_codes == code))
            for code, label in enumerate(("arrived", "stuck", "max_hops"))
        }
        assert 0 < report.reasons["max_hops"] < 9000  # the budget bit

    def test_report_before_any_completion_reads_zero(self, graph):
        engine = ServingEngine(graph, ServeConfig(cache_capacity=16))
        engine.submit(np.array([1, 2]), np.array([0.25, 0.5]))
        report = engine.report()
        assert report.n_queries == 0 and report.success_rate == 0.0
        assert (report.hops_p99, report.latency_p99_ms, report.mean_hops) == (0.0, 0.0, 0.0)
        assert report.reasons == {"arrived": 0, "stuck": 0, "max_hops": 0}

    def test_backpressure_bounds_in_flight_walks(self, graph):
        sources, keys = _workload(graph, 2000, seed=41)
        engine = ServingEngine(
            graph, ServeConfig(admit_per_round=100, max_active=150)
        )
        engine.submit(sources, keys)
        peak = 0
        while engine.pending or engine.in_flight:
            engine.pump()
            peak = max(peak, engine.in_flight)
        assert peak <= 150
        assert engine.results().completed.all()

    def test_report_quantiles_are_ordered(self, graph, demand):
        engine = ServingEngine(graph, ServeConfig(admit_per_round=512))
        report = engine.serve(demand, 6000, np.random.default_rng(51))
        assert report.n_queries == 6000
        assert report.lookups_per_sec > 0
        assert report.hops_p50 <= report.hops_p99 <= report.hops_p999
        assert (
            report.latency_p50_ms <= report.latency_p99_ms <= report.latency_p999_ms
        )
        assert report.reasons == {"arrived": 6000, "stuck": 0, "max_hops": 0}
        text = report.render()
        assert "p999" in text and "throughput" in text

    def test_telemetry_counters_mirror_serving(self, graph, demand):
        telemetry.enable()
        try:
            engine = ServingEngine(
                graph, ServeConfig(admit_per_round=512, cache_capacity=64)
            )
            engine.serve(demand, 4000, np.random.default_rng(61))
            snap = telemetry.get_registry().snapshot()
            counters = snap["counters"]
            assert counters["serving.admitted"] == 4000
            assert counters["serving.completed"] == 4000
            assert (
                counters["serving.cache.hits"] + counters["serving.cache.misses"]
                == 4000
            )
            assert counters["serving.cache.hits"] == engine.cache.hits
            # report() computes the SLO quantiles from the outcome log;
            # the registry carries no estimator of its own for them.
            assert not any(name.startswith("serving.") for name in snap["quantiles"])
        finally:
            telemetry.disable()

    def test_from_store_serves_identically(self, graph, tmp_path):
        from repro.store import save_graph

        save_graph(graph, tmp_path / "snap")
        sources, keys = _workload(graph, 1500, seed=71)
        fresh = ServingEngine(graph, ServeConfig(admit_per_round=200))
        stored = ServingEngine.from_store(
            tmp_path / "snap", ServeConfig(admit_per_round=200)
        )
        for engine in (fresh, stored):
            engine.submit(sources, keys)
            engine.drain()
        for col in RESULT_COLUMNS:
            assert np.array_equal(
                getattr(fresh.results(), col), getattr(stored.results(), col)
            ), col

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(admit_per_round=0)
        with pytest.raises(ValueError):
            ServeConfig(max_active=0)
        with pytest.raises(ValueError):
            ServeConfig(cache_capacity=-1)
        with pytest.raises(ValueError, match="max_hops"):
            ServeConfig(max_hops=-3)
        assert ServeConfig(max_hops=0).max_hops == 0

    def test_submit_validates_alignment(self, graph):
        engine = ServingEngine(graph)
        with pytest.raises(ValueError):
            engine.submit(np.array([1, 2]), np.array([0.5]))
