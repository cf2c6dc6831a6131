"""Batch/scalar routing equivalence and batch-API behaviour tests.

The load-bearing guarantee of the batch engine is that it is *the same
router* as the per-lookup greedy loop in ``route_oracle.py``, only
vectorized — these tests assert field-for-field (and path-for-path)
agreement across spaces, metrics, liveness masks, hop budgets and
degenerate graphs, for whole batches and for :func:`repro.core.greedy_route`,
which is a batch of one.
"""

import numpy as np
import pytest
import route_oracle

from repro.core import (
    GraphConfig,
    build_skewed_model,
    build_uniform_model,
    greedy_route,
    route_many,
    sample_batch,
    sample_routes,
)
from repro.distributions import PowerLaw
from repro.keyspace import RingSpace
from repro.overlay import kill_peers, summarize_lookups


#: Routes per check that also go through the batch-of-one ``greedy_route``.
SINGLE_ROUTES = 30


def _assert_matches_scalar(graph, batch, sources, keys, metric="key", alive=None,
                           max_hops=None):
    """Every batch route must equal the oracle loop, field for field, and
    so must ``greedy_route`` on the first :data:`SINGLE_ROUTES`."""
    for i in range(len(batch)):
        args = (graph, int(sources[i]), float(keys[i]))
        options = {"metric": metric, "alive": alive, "max_hops": max_hops}
        ref = route_oracle.greedy_route(*args, **options)
        if i < SINGLE_ROUTES:
            assert greedy_route(*args, **options) == ref, i
        assert bool(batch.success[i]) == ref.success, i
        assert int(batch.hops[i]) == ref.hops, i
        assert int(batch.neighbor_hops[i]) == ref.neighbor_hops, i
        assert int(batch.long_hops[i]) == ref.long_hops, i
        assert str(batch.reasons[i]) == ref.reason, i
        assert int(batch.owners[i]) == ref.owner, i
        if batch.paths is not None:
            assert batch.paths[i] == ref.path, i


class TestScalarEquivalence:
    @pytest.mark.parametrize("metric", ["key", "normalized"])
    @pytest.mark.parametrize("space", ["interval", "ring"])
    def test_random_graphs_both_metrics(self, rng, metric, space):
        config = GraphConfig(space=RingSpace()) if space == "ring" else None
        graph = build_skewed_model(
            PowerLaw(alpha=1.8, shift=1e-4), n=300, rng=rng, config=config
        )
        sources = rng.integers(graph.n, size=120)
        keys = rng.random(120)
        batch = route_many(
            graph, sources, keys, metric=metric, record_paths=True
        )
        _assert_matches_scalar(graph, batch, sources, keys, metric=metric)

    @pytest.mark.parametrize("space", ["interval", "ring"])
    def test_with_alive_mask(self, rng, space):
        config = GraphConfig(space=RingSpace()) if space == "ring" else None
        graph = build_uniform_model(n=300, rng=rng, config=config)
        alive = kill_peers(graph, 0.25, rng)
        live = np.flatnonzero(alive)
        sources = rng.choice(live, size=100)
        keys = rng.random(100)
        batch = route_many(graph, sources, keys, alive=alive, record_paths=True)
        _assert_matches_scalar(graph, batch, sources, keys, alive=alive)

    def test_max_hops_budget(self, rng):
        graph = build_uniform_model(n=400, rng=rng)
        sources = rng.integers(graph.n, size=150)
        keys = rng.random(150)
        for budget in (0, 1, 3):
            batch = route_many(
                graph, sources, keys, max_hops=budget, record_paths=True
            )
            _assert_matches_scalar(
                graph, batch, sources, keys, max_hops=budget
            )
            assert (batch.hops <= budget).all()

    def test_negative_hop_budget_rejected(self, rng):
        graph = build_uniform_model(n=512, rng=rng)
        sources = rng.integers(graph.n, size=50)
        keys = rng.random(50)
        with pytest.raises(ValueError, match="max_hops"):
            route_many(graph, sources, keys, max_hops=-3)

    def test_degenerate_graphs(self, rng):
        for graph in (
            build_uniform_model(n=1, rng=rng),
            build_uniform_model(n=2, rng=rng),
            build_uniform_model(n=2, rng=rng, config=GraphConfig(space=RingSpace())),
            build_uniform_model(n=30, rng=rng, config=GraphConfig(out_degree=0)),
        ):
            sources = rng.integers(graph.n, size=40)
            keys = rng.random(40)
            batch = route_many(graph, sources, keys, record_paths=True)
            _assert_matches_scalar(graph, batch, sources, keys)

    def test_single_peer_owns_everything(self, rng):
        graph = build_uniform_model(n=1, rng=rng)
        batch = route_many(graph, np.zeros(5, dtype=int), rng.random(5))
        assert batch.success.all()
        assert (batch.hops == 0).all()
        assert (batch.owners == 0).all()


class TestRouteManyAPI:
    def test_empty_batch(self, uniform_graph):
        batch = route_many(uniform_graph, np.array([], dtype=int), np.array([]))
        assert len(batch) == 0
        assert batch.success_rate == 0.0
        assert batch.to_route_results() == []

    def test_mismatched_lengths_raise(self, uniform_graph):
        with pytest.raises(ValueError):
            route_many(uniform_graph, np.array([0, 1]), np.array([0.5]))

    def test_out_of_range_source_raises(self, uniform_graph):
        with pytest.raises(ValueError):
            route_many(
                uniform_graph, np.array([uniform_graph.n]), np.array([0.5])
            )

    def test_dead_source_raises(self, uniform_graph):
        alive = np.ones(uniform_graph.n, dtype=bool)
        alive[7] = False
        with pytest.raises(ValueError):
            route_many(
                uniform_graph, np.array([7]), np.array([0.5]), alive=alive
            )

    def test_unknown_metric_raises(self, uniform_graph):
        with pytest.raises(ValueError):
            route_many(
                uniform_graph, np.array([0]), np.array([0.5]), metric="euclid"
            )

    def test_reason_labels(self, uniform_graph, rng):
        batch = route_many(
            uniform_graph,
            rng.integers(uniform_graph.n, size=50),
            rng.random(50),
            max_hops=1,
        )
        assert set(batch.reasons.tolist()) <= {"arrived", "stuck", "max_hops"}

    def test_paths_none_unless_recorded(self, uniform_graph, rng):
        batch = route_many(
            uniform_graph, rng.integers(uniform_graph.n, size=5), rng.random(5)
        )
        assert batch.paths is None
        results = batch.to_route_results()
        assert all(r.path == [int(s)] for r, s in zip(results, batch.sources))


class TestSampleBatch:
    def test_summarize_matches_list_path(self, uniform_graph, rng):
        batch = sample_batch(uniform_graph, 80, rng)
        stats_batch = summarize_lookups(batch)
        stats_list = summarize_lookups(batch.to_route_results())
        assert stats_batch == stats_list

    def test_unknown_targets_raises(self, uniform_graph, rng):
        with pytest.raises(ValueError):
            sample_batch(uniform_graph, 5, rng, targets="martian")

    def test_no_live_peers_raises(self, uniform_graph, rng):
        alive = np.zeros(uniform_graph.n, dtype=bool)
        with pytest.raises(ValueError):
            sample_batch(uniform_graph, 5, rng, alive=alive)

    def test_alive_sources_stay_live(self, uniform_graph, rng):
        alive = kill_peers(uniform_graph, 0.3, rng)
        batch = sample_batch(uniform_graph, 60, rng, alive=alive)
        assert alive[batch.sources].all()
        assert alive[batch.owners].all()


class TestModelTargetsJitter:
    """The "model" mode must jitter inside the gap to the successor peer."""

    def test_keys_fall_between_peers(self, rng):
        graph = build_uniform_model(n=128, rng=rng)
        batch = sample_batch(graph, 200, rng, targets="model")
        keys = batch.target_keys
        assert ((keys >= 0.0) & (keys < 1.0)).all()
        # Jitter means keys are (almost surely) NOT existing identifiers.
        assert not np.isin(keys, graph.ids).any()
        # Every key lies inside some peer's gap: between its floor peer
        # and that peer's successor (interval: top gap runs to 1.0).
        pos = np.searchsorted(graph.ids, keys, side="right") - 1
        assert (pos >= 0).all()
        uppers = np.append(graph.ids[1:], 1.0)
        assert (keys >= graph.ids[pos]).all()
        assert (keys < uppers[pos]).all()

    def test_ring_wraps_top_gap(self, rng):
        graph = build_uniform_model(
            n=64, rng=rng, config=GraphConfig(space=RingSpace())
        )
        batch = sample_batch(graph, 300, rng, targets="model")
        keys = batch.target_keys
        assert ((keys >= 0.0) & (keys < 1.0)).all()
        assert batch.success.all()

    def test_routes_succeed(self, rng):
        graph = build_uniform_model(n=256, rng=rng)
        routes = sample_routes(graph, 100, rng, targets="model")
        assert all(r.success for r in routes)
