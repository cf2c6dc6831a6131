"""Unit tests for placements, load metrics and online rebalancing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.distributions import PowerLaw, Uniform
from repro.keyspace import IntervalSpace, RingSpace, nearest_indices
from repro.loadbalance import (
    density_tracking_placement,
    gini,
    quantile_placement,
    rebalance_reorder,
    sampled_key_placement,
    storage_loads,
    summarize_loads,
    uniform_placement,
)
from repro.loadbalance.rebalance import _owned_ranges


class TestStorageLoads:
    def test_counts_sum_to_keys(self, rng):
        peers = np.sort(rng.random(16))
        keys = rng.random(1000)
        loads = storage_loads(peers, keys)
        assert loads.sum() == 1000

    def test_ownership_by_midpoints(self):
        peers = np.array([0.2, 0.8])
        keys = np.array([0.1, 0.45, 0.55, 0.9])
        loads = storage_loads(peers, keys)
        assert loads.tolist() == [2, 2]

    def test_single_peer_owns_all(self, rng):
        loads = storage_loads(np.array([0.5]), rng.random(100))
        assert loads.tolist() == [100]

    def test_ring_wraps_boundary_keys(self):
        peers = np.array([0.1, 0.5])
        keys = np.array([0.95])  # 0.15 from 0.1 across the wrap, 0.45 from 0.5
        loads = storage_loads(peers, keys, RingSpace())
        assert loads.tolist() == [1, 0]

    def test_empty_keys(self):
        assert storage_loads(np.array([0.3, 0.7]), np.array([])).tolist() == [0, 0]

    def test_rejects_empty_peers(self, rng):
        with pytest.raises(ValueError):
            storage_loads(np.array([]), rng.random(10))

    def test_rejects_unsorted_peers(self, rng):
        with pytest.raises(ValueError):
            storage_loads(np.array([0.7, 0.3]), rng.random(10))


def _edge_keys(peers):
    """Every midpoint between neighbouring peers (the ring's wrap
    midpoint included), 0 and the float just below 1."""
    mids = 0.5 * (peers[1:] + peers[:-1])
    wrap = (0.5 * (peers[-1] + peers[0] + 1.0)) % 1.0
    return np.concatenate([mids, [wrap, 0.0, np.nextafter(1.0, 0.0)]])


class TestStorageOwnerRule:
    """Storage loads count the owners every router resolves."""

    @staticmethod
    def _check(peers, keys):
        for space in (IntervalSpace(), RingSpace()):
            expected = np.bincount(nearest_indices(peers, keys, space), minlength=len(peers))
            np.testing.assert_array_equal(storage_loads(peers, keys, space), expected)
        # rebalance_reorder's owned ranges over sorted keys: the same owners.
        bounds = _owned_ranges(peers, np.sort(keys))
        np.testing.assert_array_equal(np.diff(bounds), storage_loads(peers, keys))

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_midpoints_and_ends(self, n):
        rng = np.random.default_rng(n)
        peers = np.sort(rng.random(n))
        self._check(peers, np.concatenate([_edge_keys(peers), rng.random(100)]))

    @given(
        st.lists(
            st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12, unique=True
        ),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
    )
    def test_equals_bincount_of_nearest_indices(self, peers, keys):
        peers = np.sort(np.asarray(peers))
        self._check(peers, np.concatenate([_edge_keys(peers), keys]))


class TestGini:
    def test_perfect_equality(self):
        assert gini(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-12)

    def test_total_concentration(self):
        values = np.zeros(100)
        values[0] = 1000
        assert gini(values) > 0.95

    def test_known_value(self):
        # Two peers holding 1 and 3: G = 0.25.
        assert gini(np.array([1.0, 3.0])) == pytest.approx(0.25)

    def test_scale_invariant(self, rng):
        v = rng.random(50)
        assert gini(v) == pytest.approx(gini(v * 100))

    def test_all_zero(self):
        assert gini(np.zeros(5)) == 0.0

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            gini(np.array([]))
        with pytest.raises(ValueError):
            gini(np.array([1.0, -1.0]))


class TestPlacements:
    def test_uniform_placement_sorted_in_range(self, rng):
        ids = uniform_placement(100, rng)
        assert np.all(np.diff(ids) >= 0)
        assert np.all((ids >= 0) & (ids < 1))

    def test_density_tracking_follows_distribution(self, rng):
        dist = PowerLaw(alpha=2.0, shift=1e-3)
        ids = density_tracking_placement(dist, 2000, rng)
        assert np.mean(ids < 0.05) > 0.4

    def test_sampled_key_placement_tracks_keys(self, rng):
        keys = PowerLaw(alpha=2.0, shift=1e-3).sample(5000, rng)
        ids = sampled_key_placement(keys, 500, rng)
        assert np.mean(ids < 0.05) > 0.3

    def test_quantile_placement_equal_mass(self, rng):
        dist = PowerLaw(alpha=1.5, shift=1e-2)
        ids = quantile_placement(dist, 64)
        masses = np.diff(np.concatenate([[0], np.asarray(dist.cdf(ids)), [1]]))
        assert masses.max() < 3.0 / 64

    def test_rejections(self, rng):
        with pytest.raises(ValueError):
            uniform_placement(0, rng)
        with pytest.raises(ValueError):
            density_tracking_placement(Uniform(), 0, rng)
        with pytest.raises(ValueError):
            sampled_key_placement(np.array([]), 5, rng)
        with pytest.raises(ValueError):
            quantile_placement(Uniform(), 0)

    def test_balance_ordering_under_skew(self, rng):
        """The E8 headline at unit-test scale: placements ranked by balance."""
        dist = PowerLaw(alpha=2.0, shift=1e-4)
        keys = dist.sample(20_000, rng)
        g_uniform = gini(storage_loads(uniform_placement(128, rng), keys))
        g_tracking = gini(storage_loads(density_tracking_placement(dist, 128, rng), keys))
        g_quantile = gini(storage_loads(quantile_placement(dist, 128), keys))
        assert g_quantile < g_tracking < g_uniform
        assert g_uniform > 0.8
        assert g_quantile < 0.15


class TestSummarizeLoads:
    def test_fields(self):
        summary = summarize_loads(np.array([0, 2, 4, 2]))
        assert summary.n_peers == 4
        assert summary.n_keys == 8
        assert summary.mean == pytest.approx(2.0)
        assert summary.max_mean_ratio == pytest.approx(2.0)
        assert summary.empty_fraction == pytest.approx(0.25)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_loads(np.array([]))


class TestRebalance:
    def test_converges_on_skewed_keys(self, rng):
        keys = PowerLaw(alpha=2.0, shift=1e-3).sample(5000, rng)
        peers = uniform_placement(32, rng)
        before = summarize_loads(storage_loads(peers, keys)).max_mean_ratio
        result = rebalance_reorder(peers, keys, threshold=4.0)
        after = summarize_loads(storage_loads(result.peer_ids, keys)).max_mean_ratio
        assert result.converged
        assert after < before
        assert result.final_ratio <= 4.0

    def test_already_balanced_no_moves(self, rng):
        keys = rng.random(2000)
        peers = quantile_placement(Uniform(), 16)
        result = rebalance_reorder(peers, keys, threshold=6.0)
        assert result.moves <= 2

    def test_peer_count_preserved(self, rng):
        keys = PowerLaw(alpha=1.5, shift=1e-2).sample(2000, rng)
        result = rebalance_reorder(uniform_placement(24, rng), keys)
        assert len(result.peer_ids) == 24

    def test_rejects_bad_inputs(self, rng):
        keys = rng.random(100)
        with pytest.raises(ValueError):
            rebalance_reorder(np.array([0.1, 0.9]), keys)
        with pytest.raises(ValueError):
            rebalance_reorder(np.array([0.1, 0.5, 0.9]), np.array([]))
        with pytest.raises(ValueError):
            rebalance_reorder(np.array([0.1, 0.5, 0.9]), keys, threshold=1.0)
