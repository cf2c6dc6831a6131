"""Unit tests for the Symphony and Mercury baselines."""

import math

import numpy as np
import pytest

from repro.baselines import (
    MercuryOverlay,
    SymphonyOverlay,
    measure_overlay_batch,
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
        stats = measure_overlay_batch(symphony, 200, rng, target_ids=symphony.ids)
        assert stats.success_rate == 1.0

    def test_hops_track_log_squared_over_k(self, uniform_ids, rng):
        n = len(uniform_ids)
        hops_k2 = measure_overlay_batch(
            SymphonyOverlay(uniform_ids, rng, k=2), 250, rng, target_ids=uniform_ids
        ).mean_hops
        hops_k8 = measure_overlay_batch(
            SymphonyOverlay(uniform_ids, rng, k=8), 250, rng, target_ids=uniform_ids
        ).mean_hops
        # More links, fewer hops; ratio should be material (not ~1).
        assert hops_k8 < hops_k2 * 0.7
        assert hops_k2 < SymphonyOverlay.expected_hops(n, 2) * 2

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
        stats = measure_overlay_batch(mercury, 200, rng, target_ids=mercury.ids)
        assert stats.success_rate == 1.0

    def test_log_hops_on_skew(self, skewed_ids, rng):
        mercury = MercuryOverlay(skewed_ids, rng, sample_size=64)
        stats = measure_overlay_batch(mercury, 250, rng, target_ids=mercury.ids)
        # Far better than the naive / unhashed-chord regime (~100+ hops).
        assert stats.mean_hops < 2.5 * math.log2(len(skewed_ids))

    def test_larger_budget_not_worse(self, skewed_ids):
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        tiny = MercuryOverlay(skewed_ids, rng_a, sample_size=4)
        big = MercuryOverlay(skewed_ids, rng_b, sample_size=256)
        tiny_hops = measure_overlay_batch(
            tiny, 250, np.random.default_rng(8), target_ids=tiny.ids
        ).mean_hops
        big_hops = measure_overlay_batch(
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
