"""Unit tests for the Section 4.2 join protocols."""

import numpy as np
import pytest

from repro.distributions import Empirical, PowerLaw, Uniform
from repro.overlay import (
    Network,
    bootstrap_network,
    join_adaptive,
    join_known_f,
    measure_network,
)


class TestKnownFJoin:
    def test_first_join_trivial(self, rng):
        net = Network()
        receipt = join_known_f(net, Uniform(), rng)
        assert net.n == 1
        assert receipt.long_links == []

    def test_join_installs_links(self, rng):
        net, _ = bootstrap_network(Uniform(), 64, rng)
        receipt = join_known_f(net, Uniform(), rng, peer_id=0.123456789)
        assert 0.123456789 in net
        assert len(receipt.long_links) >= 3
        assert receipt.n_lookups >= len(receipt.long_links)

    def test_links_respect_mass_cutoff(self, rng):
        dist = PowerLaw(alpha=1.5, shift=1e-3)
        net, _ = bootstrap_network(dist, 128, rng)
        peer_id = float(dist.sample(1, rng)[0])
        while peer_id in net:
            peer_id = float(dist.sample(1, rng)[0])
        receipt = join_known_f(net, dist, rng, peer_id=peer_id)
        p_norm = float(dist.cdf(peer_id))
        for target in receipt.long_links:
            mass = abs(float(dist.cdf(target)) - p_norm)
            assert mass >= 1.0 / net.n - 1e-12

    def test_no_self_links(self, rng):
        net, _ = bootstrap_network(Uniform(), 32, rng)
        receipt = join_known_f(net, Uniform(), rng, peer_id=0.5000001)
        assert 0.5000001 not in receipt.long_links

    def test_explicit_out_degree(self, rng):
        net, _ = bootstrap_network(Uniform(), 64, rng)
        receipt = join_known_f(net, Uniform(), rng, peer_id=0.987654, out_degree=2)
        assert len(receipt.long_links) <= 2


class TestAdaptiveJoin:
    def test_requires_nonempty_network(self, rng):
        with pytest.raises(ValueError):
            join_adaptive(Network(), rng)

    def test_join_with_default_estimator(self, rng):
        net, _ = bootstrap_network(Uniform(), 64, rng)
        receipt = join_adaptive(net, rng, sample_size=32)
        assert receipt.sample_size == 32
        assert receipt.peer_id in net

    def test_rejects_bad_sample_size(self, rng):
        net, _ = bootstrap_network(Uniform(), 8, rng)
        with pytest.raises(ValueError):
            join_adaptive(net, rng, sample_size=0)


class TestBootstrap:
    def test_known_network_quality(self, rng):
        dist = PowerLaw(alpha=1.5, shift=1e-3)
        net, receipts = bootstrap_network(dist, 256, rng)
        assert net.n == 256
        assert len(receipts) == 256
        stats = measure_network(net, 150, rng)
        assert stats.success_rate == 1.0
        assert stats.mean_hops < 10  # log2(256) = 8

    def test_adaptive_network_quality(self, rng):
        dist = PowerLaw(alpha=1.5, shift=1e-3)
        net, _ = bootstrap_network(dist, 128, rng, protocol="adaptive", sample_size=32)
        stats = measure_network(net, 100, rng)
        assert stats.success_rate == 1.0
        assert stats.mean_hops < 12

    def test_adaptive_close_to_known(self, rng):
        dist = PowerLaw(alpha=1.8, shift=1e-4)
        known, _ = bootstrap_network(dist, 128, rng, protocol="known")
        adaptive, _ = bootstrap_network(
            dist, 128, rng, protocol="adaptive", sample_size=64
        )
        known_hops = measure_network(known, 150, rng).mean_hops
        adaptive_hops = measure_network(adaptive, 150, rng).mean_hops
        assert adaptive_hops < 1.6 * known_hops

    def test_unknown_protocol_raises(self, rng):
        with pytest.raises(ValueError):
            bootstrap_network(Uniform(), 8, rng, protocol="psychic")

    def test_rejects_nonpositive_n(self, rng):
        with pytest.raises(ValueError):
            bootstrap_network(Uniform(), 0, rng)

    def test_join_costs_logarithmic(self, rng):
        net, receipts = bootstrap_network(Uniform(), 256, rng)
        late_costs = [r.lookup_hops / max(r.n_lookups, 1) for r in receipts[200:]]
        # Per-lookup join cost stays O(log N): ~8 hops at N=256.
        assert np.mean(late_costs) < 12
