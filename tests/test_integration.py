"""Integration tests: end-to-end scenarios crossing module boundaries.

Each test tells one of the paper's stories at small scale, using the
public API the way an application would.
"""

import math

import numpy as np
import pytest

from repro.analysis import fit_log_slope, ks_two_sample
from repro.baselines import ChordOverlay, MercuryOverlay, PGridOverlay, measure_overlay_batch
from repro.core import (
    GraphConfig,
    build_naive_model,
    build_skewed_model,
    build_uniform_model,
    expected_hops_bound,
    sample_routes,
)
from repro.distributions import Empirical, PowerLaw, TruncatedNormal, zipf_distribution
from repro.loadbalance import gini, sampled_key_placement, storage_loads
from repro.overlay import (
    ChurnConfig,
    bootstrap_network,
    measure_network,
    run_churn,
    summarize_lookups,
)
from repro.workloads import zipf_corpus


class TestTheorem1Story:
    """Greedy routing scales as O(log N) with log N outdegree (uniform)."""

    def test_scaling_is_logarithmic(self):
        rng = np.random.default_rng(0)
        ns = [128, 256, 512, 1024, 2048]
        means = []
        for n in ns:
            graph = build_uniform_model(n=n, rng=rng)
            routes = sample_routes(graph, 250, rng)
            means.append(np.mean([r.hops for r in routes]))
            assert means[-1] < expected_hops_bound(n)
        fit = fit_log_slope(ns, means)
        assert 0.2 < fit.slope < 2.0
        assert fit.r_squared > 0.9

    def test_sublinear_growth(self):
        # Doubling N four times must far less than double the hops.
        rng = np.random.default_rng(1)
        small = build_uniform_model(n=128, rng=rng)
        large = build_uniform_model(n=2048, rng=rng)
        h_small = np.mean([r.hops for r in sample_routes(small, 250, rng)])
        h_large = np.mean([r.hops for r in sample_routes(large, 250, rng)])
        assert h_large < 2 * h_small


class TestTheorem2Story:
    """Skew-adapted construction is skew-independent; naive is not."""

    @pytest.mark.parametrize(
        "dist",
        [
            PowerLaw(alpha=2.0, shift=1e-5),
            TruncatedNormal(mu=0.5, sigma=0.01),
            zipf_distribution(128, 1.5),
        ],
        ids=["powerlaw", "narrow-normal", "zipf"],
    )
    def test_skewed_model_matches_uniform(self, dist):
        rng = np.random.default_rng(2)
        uniform = build_uniform_model(n=1024, rng=rng)
        skewed = build_skewed_model(dist, n=1024, rng=rng)
        h_uniform = np.mean([r.hops for r in sample_routes(uniform, 300, rng)])
        h_skewed = np.mean([r.hops for r in sample_routes(skewed, 300, rng)])
        assert h_skewed < 1.4 * h_uniform

    def test_naive_model_much_worse(self):
        rng = np.random.default_rng(3)
        dist = PowerLaw(alpha=2.0, shift=1e-5)
        ids = np.sort(dist.sample(1024, rng))
        skewed = build_skewed_model(dist, rng=rng, ids=ids)
        naive = build_naive_model(dist, rng=rng, ids=ids)
        h_skewed = np.mean([r.hops for r in sample_routes(skewed, 200, rng)])
        h_naive = np.mean([r.hops for r in sample_routes(naive, 200, rng)])
        assert h_naive > 5 * h_skewed


class TestFigure1Story:
    """Building in R with eq. (7) == building in R' = F(R) with distance."""

    def test_link_length_laws_indistinguishable(self):
        rng = np.random.default_rng(4)
        dist = PowerLaw(alpha=1.5, shift=1e-3)
        ids = np.sort(dist.sample(1024, rng))
        graph_r = build_skewed_model(dist, rng=rng, ids=ids)
        graph_rp = build_uniform_model(rng=rng, ids=np.asarray(dist.cdf(ids)))
        ks = ks_two_sample(
            graph_r.long_link_lengths(normalized=True),
            graph_rp.long_link_lengths(normalized=True),
        )
        assert ks.statistic < 0.05


class TestDataOrientedStory:
    """The intro scenario: ordered, skewed keys + balanced peers + fast lookups."""

    def test_zipf_store_end_to_end(self):
        rng = np.random.default_rng(5)
        keys = zipf_corpus(30_000, rng, n_items=512, exponent=1.2)
        # Peers place themselves by sampling stored keys (Sec. 4.1).
        peer_ids = sampled_key_placement(keys, 256, rng)
        # Load is balanced despite the skew...
        loads = storage_loads(peer_ids, keys)
        assert gini(loads) < 0.5
        # ...and the eq. (7) overlay over those peers routes in O(log N):
        estimate = Empirical(keys[rng.integers(0, len(keys), 2000)])
        graph = build_skewed_model(estimate, rng=rng, ids=peer_ids)
        routes = sample_routes(graph, 300, rng)
        assert all(r.success for r in routes)
        assert np.mean([r.hops for r in routes]) < 2 * math.log2(256)

    def test_skew_adapted_beats_unhashed_chord(self):
        rng = np.random.default_rng(6)
        dist = PowerLaw(alpha=1.8, shift=1e-4)
        ids = np.sort(dist.sample(512, rng))
        model = build_skewed_model(dist, rng=rng, ids=ids)
        chord = ChordOverlay(ids)
        model_hops = np.mean([r.hops for r in sample_routes(model, 200, rng)])
        chord_hops = measure_overlay_batch(chord, 200, rng, target_ids=ids).mean_hops
        assert model_hops * 3 < chord_hops

    def test_mercury_and_pgrid_also_survive_skew(self):
        rng = np.random.default_rng(7)
        dist = PowerLaw(alpha=1.8, shift=1e-4)
        ids = np.unique(dist.sample(512, rng))
        for overlay in (
            MercuryOverlay(ids, rng, sample_size=64),
            PGridOverlay(ids, rng),
        ):
            stats = measure_overlay_batch(overlay, 150, rng, target_ids=overlay.ids)
            assert stats.success_rate == 1.0
            assert stats.mean_hops < 3 * math.log2(len(ids))


class TestLiveSystemStory:
    """Section 4.2: grow a network by joins, churn it, keep it healthy."""

    def test_grow_churn_and_survive(self):
        rng = np.random.default_rng(8)
        dist = PowerLaw(alpha=1.5, shift=1e-3)
        net, _ = bootstrap_network(dist, 192, rng)
        baseline = measure_network(net, 150, rng)
        assert baseline.success_rate == 1.0
        history = run_churn(
            net,
            dist,
            ChurnConfig(epochs=5, leave_fraction=0.15, join_fraction=0.15,
                        maintenance_fraction=0.3, lookups_per_epoch=60),
            rng,
        )
        final = history[-1]
        assert final.success_rate == 1.0
        assert final.mean_hops < 3 * baseline.mean_hops

    def test_adaptive_network_comparable_to_offline(self):
        rng = np.random.default_rng(9)
        dist = PowerLaw(alpha=1.5, shift=1e-3)
        offline = build_skewed_model(dist, n=160, rng=rng)
        offline_hops = summarize_lookups(sample_routes(offline, 200, rng)).mean_hops
        net, _ = bootstrap_network(dist, 160, rng, protocol="adaptive", sample_size=64)
        live_hops = measure_network(net, 200, rng).mean_hops
        assert live_hops < 2.0 * offline_hops


class TestConfigurationAblations:
    """Design-choice ablations from DESIGN.md section 6."""

    def test_cutoff_prevents_wasted_short_links(self):
        # Without the 1/N cutoff a large share of long links lands below
        # 1/N — redundant with the ring edges.  (Hop counts barely move at
        # this scale because dedup-retry re-spreads the collisions; the
        # cutoff's job in the proof is the normaliser bound, and its
        # measurable construction-time effect is link placement.)
        rng = np.random.default_rng(10)
        ids = np.sort(rng.random(1024))
        with_cutoff = build_uniform_model(rng=rng, ids=ids)
        without = build_uniform_model(
            rng=rng, ids=ids, config=GraphConfig(cutoff_mass=1e-9)
        )
        wasted_with = np.mean(with_cutoff.long_link_lengths() < 1 / 1024)
        wasted_without = np.mean(without.long_link_lengths() < 1 / 1024)
        assert wasted_with == 0.0
        assert wasted_without > 0.05
        # And routing still succeeds in both (robustness of greedy).
        assert all(r.success for r in sample_routes(without, 100, rng))

    def test_ring_and_interval_comparable(self):
        from repro.keyspace import RingSpace

        rng = np.random.default_rng(11)
        interval = build_uniform_model(n=512, rng=rng)
        ring = build_uniform_model(
            n=512, rng=rng, config=GraphConfig(space=RingSpace())
        )
        h_interval = np.mean([r.hops for r in sample_routes(interval, 300, rng)])
        h_ring = np.mean([r.hops for r in sample_routes(ring, 300, rng)])
        assert abs(h_interval - h_ring) < 0.25 * max(h_interval, h_ring)

    def test_bidirectional_links_help(self):
        rng = np.random.default_rng(12)
        ids = np.sort(rng.random(512))
        directed = build_uniform_model(rng=rng, ids=ids)
        bidirectional = build_uniform_model(
            rng=rng, ids=ids, config=GraphConfig(bidirectional=True)
        )
        h_dir = np.mean([r.hops for r in sample_routes(directed, 300, rng)])
        h_bid = np.mean([r.hops for r in sample_routes(bidirectional, 300, rng)])
        assert h_bid <= h_dir
