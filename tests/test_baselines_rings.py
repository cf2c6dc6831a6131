"""Unit tests for Symphony, Mercury and Watts-Strogatz baselines."""

import math

import numpy as np
import pytest
from builder_oracle import OracleWattsStrogatz

from repro.baselines import (
    MercuryOverlay,
    SymphonyOverlay,
    WattsStrogatzOverlay,
    measure_overlay,
)
from repro.distributions import PowerLaw


@pytest.fixture(scope="module")
def uniform_ids():
    return np.sort(np.random.default_rng(41).random(512))


@pytest.fixture(scope="module")
def skewed_ids():
    rng = np.random.default_rng(42)
    return np.sort(PowerLaw(alpha=1.8, shift=1e-4).sample(512, rng))


class TestSymphony:
    def test_constant_degree(self, uniform_ids, rng):
        symphony = SymphonyOverlay(uniform_ids, rng, k=4)
        sizes = symphony.table_sizes()
        assert np.all(sizes <= 6)  # k + 2 ring links

    def test_routes_succeed(self, uniform_ids, rng):
        symphony = SymphonyOverlay(uniform_ids, rng, k=4)
        stats = measure_overlay(symphony, 200, rng, target_ids=symphony.ids)
        assert stats.success_rate == 1.0

    def test_hops_track_log_squared_over_k(self, uniform_ids, rng):
        n = len(uniform_ids)
        hops_k2 = measure_overlay(
            SymphonyOverlay(uniform_ids, rng, k=2), 250, rng, target_ids=uniform_ids
        ).mean_hops
        hops_k8 = measure_overlay(
            SymphonyOverlay(uniform_ids, rng, k=8), 250, rng, target_ids=uniform_ids
        ).mean_hops
        # More links, fewer hops; ratio should be material (not ~1).
        assert hops_k8 < hops_k2 * 0.7
        assert hops_k2 < SymphonyOverlay.expected_hops(n, 2) * 2

    def test_unidirectional_mode_still_succeeds(self, uniform_ids, rng):
        symphony = SymphonyOverlay(uniform_ids, rng, k=4, bidirectional=False)
        stats = measure_overlay(symphony, 150, rng, target_ids=symphony.ids)
        assert stats.success_rate == 1.0

    def test_expected_hops_validation(self):
        with pytest.raises(ValueError):
            SymphonyOverlay.expected_hops(1, 1)

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(ValueError):
            SymphonyOverlay([0.1, 0.2], rng)
        with pytest.raises(ValueError):
            SymphonyOverlay([0.1, 0.5, 0.9], rng, k=-1)


class TestMercury:
    def test_routes_succeed_on_skew(self, skewed_ids, rng):
        mercury = MercuryOverlay(skewed_ids, rng, sample_size=64)
        stats = measure_overlay(mercury, 200, rng, target_ids=mercury.ids)
        assert stats.success_rate == 1.0

    def test_log_hops_on_skew(self, skewed_ids, rng):
        mercury = MercuryOverlay(skewed_ids, rng, sample_size=64)
        stats = measure_overlay(mercury, 250, rng, target_ids=mercury.ids)
        # Far better than the naive / unhashed-chord regime (~100+ hops).
        assert stats.mean_hops < 2.5 * math.log2(len(skewed_ids))

    def test_larger_budget_not_worse(self, skewed_ids):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        tiny = MercuryOverlay(skewed_ids, rng_a, sample_size=4)
        big = MercuryOverlay(skewed_ids, rng_b, sample_size=256)
        tiny_hops = measure_overlay(
            tiny, 250, np.random.default_rng(8), target_ids=tiny.ids
        ).mean_hops
        big_hops = measure_overlay(
            big, 250, np.random.default_rng(8), target_ids=big.ids
        ).mean_hops
        assert big_hops <= tiny_hops * 1.25

    def test_default_budget_is_log(self, skewed_ids, rng):
        mercury = MercuryOverlay(skewed_ids, rng)
        assert mercury.k == round(math.log2(len(skewed_ids)))

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(ValueError):
            MercuryOverlay([0.1, 0.2], rng)
        with pytest.raises(ValueError):
            MercuryOverlay([0.1, 0.5, 0.9], rng, sample_size=0)


class TestWattsStrogatz:
    def test_degree_distribution(self, rng):
        ws = WattsStrogatzOverlay(100, k=4, p=0.0, rng=rng)
        sizes = ws.table_sizes()
        assert np.all(sizes == 4)  # unrewired ring lattice

    def test_unrewired_lattice_clustering(self, rng):
        ws = WattsStrogatzOverlay(100, k=4, p=0.0, rng=rng)
        # Ring lattice with k=4: clustering coefficient is 0.5.
        assert ws.clustering_coefficient() == pytest.approx(0.5, abs=0.01)

    def test_rewiring_lowers_clustering(self, rng):
        low = WattsStrogatzOverlay(200, k=6, p=0.0, rng=rng).clustering_coefficient()
        high = WattsStrogatzOverlay(200, k=6, p=1.0, rng=rng).clustering_coefficient()
        assert high < low * 0.5

    def test_unrewired_routes_deterministic(self, rng):
        ws = WattsStrogatzOverlay(64, k=2, p=0.0, rng=rng)
        result = ws.route(0, 32 / 64)
        assert result.success
        assert result.hops == 32

    def test_greedy_on_rewired_often_fails_or_slow(self, rng):
        # Kleinberg's lesson: uniform random shortcuts are not navigable.
        ws = WattsStrogatzOverlay(512, k=4, p=0.2, rng=rng)
        stats = measure_overlay(ws, 150, rng)
        model_hops = 0.7 * math.log2(512)
        assert stats.success_rate < 1.0 or stats.mean_hops > model_hops

    def test_owner_of_maps_key_to_node(self, rng):
        ws = WattsStrogatzOverlay(10, k=2, p=0.0, rng=rng)
        assert ws.owner_of(0.55) == 5
        with pytest.raises(ValueError):
            ws.owner_of(1.0)

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(ValueError):
            WattsStrogatzOverlay(3, k=2, p=0.1, rng=rng)
        with pytest.raises(ValueError):
            WattsStrogatzOverlay(10, k=3, p=0.1, rng=rng)  # odd k
        with pytest.raises(ValueError):
            WattsStrogatzOverlay(10, k=2, p=1.5, rng=rng)


class TestWattsStrogatzBulkBuilder:
    """The vectorized rewiring engine vs the per-edge loop in ``builder_oracle.py``.

    Equivalence is pinned on *structural* distributions (degrees,
    shortcut ring-distances).  Hop distributions are deliberately not
    KS-tested here: greedy routing over non-navigable uniform shortcuts
    is chaotic enough that two instances of the *same* builder fail a
    hop-level KS at n=2048 — the probe, not the builder, is unstable.
    """

    def test_unrewired_builders_identical(self):
        bulk = WattsStrogatzOverlay(200, k=6, p=0.0, rng=np.random.default_rng(0))
        scalar = OracleWattsStrogatz(200, k=6, p=0.0, rng=np.random.default_rng(1))
        assert all(
            np.array_equal(a, b) for a, b in zip(bulk.adjacency, scalar.adjacency)
        )

    def test_adjacency_invariants(self):
        ws = WattsStrogatzOverlay(512, k=4, p=0.3, rng=np.random.default_rng(2))
        for u, row in enumerate(ws.adjacency):
            assert np.all(np.diff(row) > 0)  # sorted, distinct
            assert u not in row  # no self loops
            for v in row:  # undirected symmetry
                assert u in ws.adjacency[int(v)]

    @staticmethod
    def _shortcut_distances(overlay, n):
        """Ring distances of the rewired (non-lattice) undirected edges."""
        out = []
        for u, row in enumerate(overlay.adjacency):
            for v in row[row > u]:  # one direction per undirected pair
                gap = (int(v) - u) % n
                d = min(gap, n - gap)
                if d > overlay.k // 2:
                    out.append(d)
        return np.asarray(out, dtype=float)

    @pytest.mark.parametrize("seed", [71, 72])
    def test_ks_structural_equivalence(self, seed):
        from repro.analysis.stats_tests import ks_two_sample

        n = 2048
        bulk = WattsStrogatzOverlay(n, k=4, p=0.2, rng=np.random.default_rng(seed))
        scalar = OracleWattsStrogatz(n, k=4, p=0.2, rng=np.random.default_rng(seed + 10))
        dks = ks_two_sample(bulk.table_sizes(), scalar.table_sizes())
        assert dks.p_value > 0.01, (dks.statistic, dks.p_value)
        sks = ks_two_sample(
            self._shortcut_distances(bulk, n), self._shortcut_distances(scalar, n)
        )
        assert sks.p_value > 0.01, (sks.statistic, sks.p_value)
        # Same rewiring volume (binomial n·k/2 draws at p): within 4 sigma.
        expected = n * 2 * 0.2
        sigma = (n * 2 * 0.2 * 0.8) ** 0.5
        for overlay in (bulk, scalar):
            count = len(self._shortcut_distances(overlay, n))
            assert abs(count - expected) < 4 * sigma, count

    def test_full_rewire_keeps_edge_budget(self):
        # Every edge rewires; the undirected edge count stays n·k/2 (a
        # clash only re-draws, never drops an edge).
        n, k = 256, 4
        ws = WattsStrogatzOverlay(n, k=k, p=1.0, rng=np.random.default_rng(3))
        assert sum(len(row) for row in ws.adjacency) == n * k
        mean_clustering = ws.clustering_coefficient()
        assert mean_clustering < 0.1  # fully random graph territory
