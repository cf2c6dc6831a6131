"""Unit tests for the Chord and Pastry baselines."""

import math

import numpy as np
import pytest

from repro.baselines import ChordOverlay, PastryOverlay, measure_overlay_batch
from repro.distributions import PowerLaw


@pytest.fixture(scope="module")
def uniform_ids():
    return np.sort(np.random.default_rng(21).random(512))


@pytest.fixture(scope="module")
def skewed_ids():
    rng = np.random.default_rng(22)
    return np.sort(PowerLaw(alpha=1.8, shift=1e-4).sample(512, rng))


class TestChord:
    def test_owner_is_successor(self, uniform_ids):
        chord = ChordOverlay(uniform_ids)
        key = 0.42
        owner = chord.owner_of(key)
        assert chord.ids[owner] >= key
        assert chord.ids[(owner - 1) % chord.n] < key

    def test_owner_wraps_past_top(self, uniform_ids):
        chord = ChordOverlay(uniform_ids)
        key = float(chord.ids[-1]) + 0.5 * (1.0 - float(chord.ids[-1]))
        assert chord.owner_of(key) == 0

    def test_routes_succeed(self, uniform_ids, rng):
        chord = ChordOverlay(uniform_ids)
        stats = measure_overlay_batch(chord, 200, rng, target_ids=chord.ids)
        assert stats.success_rate == 1.0

    def test_log_hops_on_uniform(self, uniform_ids, rng):
        chord = ChordOverlay(uniform_ids)
        stats = measure_overlay_batch(chord, 300, rng, target_ids=chord.ids)
        assert stats.mean_hops < math.log2(len(uniform_ids)) * 1.2

    def test_table_size_logarithmic(self, uniform_ids):
        chord = ChordOverlay(uniform_ids)
        assert chord.mean_table_size() <= chord.m + 2

    def test_skew_degrades_unhashed(self, uniform_ids, skewed_ids, rng):
        uni_hops = measure_overlay_batch(
            ChordOverlay(uniform_ids), 150, rng, target_ids=uniform_ids
        ).mean_hops
        skew_hops = measure_overlay_batch(
            ChordOverlay(skewed_ids), 150, rng, target_ids=skewed_ids
        ).mean_hops
        assert skew_hops > 3 * uni_hops

    def test_hashing_restores_performance(self, skewed_ids, rng):
        hashed = ChordOverlay(skewed_ids, hashed=True)
        stats = measure_overlay_batch(hashed, 200, rng, target_ids=skewed_ids)
        assert stats.success_rate == 1.0
        assert stats.mean_hops < math.log2(len(skewed_ids)) * 1.2

    def test_route_from_invalid_source(self, uniform_ids):
        chord = ChordOverlay(uniform_ids)
        with pytest.raises(ValueError):
            chord.route(-1, 0.5)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            ChordOverlay([0.5])

    def test_clockwise_distance_halves(self, uniform_ids, rng):
        # The defining Chord property: each hop at least halves the
        # remaining clockwise distance (uniform ids, until the last hops).
        chord = ChordOverlay(uniform_ids)
        key = float(chord.ids[300])
        result = chord.route(5, key)
        assert result.success
        remaining = [
            (key - float(chord.ids[i])) % 1.0 for i in result.path[:-1]
        ]
        for a, b in zip(remaining, remaining[1:]):
            assert b <= a


class TestPastry:
    def test_routes_succeed(self, uniform_ids, rng):
        pastry = PastryOverlay(uniform_ids, rng)
        stats = measure_overlay_batch(pastry, 200, rng, target_ids=pastry.ids)
        assert stats.success_rate == 1.0

    def test_log16_hops_on_uniform(self, uniform_ids, rng):
        pastry = PastryOverlay(uniform_ids, rng)
        stats = measure_overlay_batch(pastry, 300, rng, target_ids=pastry.ids)
        # log_16(512) ~ 2.25; allow generous headroom.
        assert stats.mean_hops < 5.0

    def test_owner_is_numerically_closest(self, uniform_ids, rng):
        pastry = PastryOverlay(uniform_ids, rng)
        key = 0.3333
        owner = pastry.owner_of(key)
        dists = np.abs(pastry.ids - key)
        dists = np.minimum(dists, 1 - dists)
        assert dists[owner] == pytest.approx(dists.min())

    def test_digit_strings_distinct(self, uniform_ids, rng):
        pastry = PastryOverlay(uniform_ids, rng)
        assert len({tuple(d) for d in pastry._digit_matrix.tolist()}) == pastry.n

    def test_skew_grows_state(self, uniform_ids, skewed_ids, rng):
        uni = PastryOverlay(uniform_ids, rng)
        skew = PastryOverlay(skewed_ids, rng)
        assert skew.depth > uni.depth
        assert skew.mean_table_size() > uni.mean_table_size()

    def test_skew_routes_still_succeed(self, skewed_ids, rng):
        pastry = PastryOverlay(skewed_ids, rng)
        stats = measure_overlay_batch(pastry, 150, rng, target_ids=pastry.ids)
        assert stats.success_rate == 1.0

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(ValueError):
            PastryOverlay([0.5], rng)

    def test_rejects_identical_ids(self, rng):
        with pytest.raises(ValueError):
            PastryOverlay([0.5, 0.5], rng)
