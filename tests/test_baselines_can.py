"""Unit tests for the CAN zone-routing baseline."""

import numpy as np
import pytest
from builder_oracle import OracleCAN
from route_oracle import scalar_twin

from repro.baselines import CANOverlay, measure_overlay_batch
from repro.core.metric_routing import torus_zone_lookup
from repro.distributions import PowerLaw


def _volumes(can):
    return np.prod(can.zone_hi - can.zone_lo, axis=1)


def _holders(can, point):
    """Zones whose box ``[lo, hi)`` holds ``point``."""
    inside = (can.zone_lo <= point) & (point < can.zone_hi)
    return np.flatnonzero(inside.all(axis=1))


class TestZone:
    def test_contains(self):
        """Zones are half-open boxes: a split line belongs to the upper zone."""
        can = CANOverlay([0.0, 0.5], dims=2)  # one split at x = 0.5
        np.testing.assert_array_equal(can.zone_hi[0], [0.5, 1.0])
        np.testing.assert_array_equal(can.zone_lo[1], [0.5, 0.0])
        assert _holders(can, np.array([0.25, 0.25])).tolist() == [0]
        assert _holders(can, np.array([0.75, 0.25])).tolist() == [1]
        assert _holders(can, np.array([0.5, 0.25])).tolist() == [1]  # hi is exclusive

    def test_split_halves_volume(self, rng):
        can = CANOverlay(rng.random(200), dims=2)
        np.testing.assert_array_equal(_volumes(can), 2.0 ** -can.zone_depth)
        two = CANOverlay([0.0, 0.5], dims=2)
        np.testing.assert_array_equal(_volumes(two), [0.5, 0.5])
        assert two.zone_depth.tolist() == [1, 1]

    def test_split_alternates_dimensions(self, rng):
        """Split ``t`` of a zone halves dimension ``t % dims``."""
        for dims in (2, 3):
            can = CANOverlay(rng.random(300), dims=dims)
            for k in range(dims):
                splits = (can.zone_depth - k + dims - 1) // dims
                np.testing.assert_array_equal(
                    can.zone_hi[:, k] - can.zone_lo[:, k], 2.0 ** -splits
                )


class TestConstruction:
    def test_one_zone_per_peer(self, rng):
        can = CANOverlay(rng.random(64), dims=2)
        assert can.n == 64

    def test_zones_partition_space(self, rng):
        can = CANOverlay(rng.random(128), dims=2)
        assert float(_volumes(can).sum()) == pytest.approx(1.0)

    def test_every_point_locatable(self, rng):
        can = CANOverlay(rng.random(64), dims=2)
        points = rng.random((50, 2))
        owners = torus_zone_lookup(points, can.metric.bsp, can.max_bsp_depth)
        for point, idx in zip(points, owners):
            assert _holders(can, point).tolist() == [idx]

    def test_neighbors_symmetric(self, rng):
        can = CANOverlay(rng.random(64), dims=2)
        for i in range(can.n):
            for j in can.csr.row(i):
                assert i in set(can.csr.row(int(j)).tolist())

    def test_neighbors_nonempty(self, rng):
        can = CANOverlay(rng.random(64), dims=2)
        assert can.csr.out_degrees().min() >= 1

    def test_skewed_keys_make_uneven_zones(self, rng):
        skewed = PowerLaw(alpha=2.0, shift=1e-4).sample(256, rng)
        can = CANOverlay(skewed, dims=2)
        volumes = _volumes(can)
        assert volumes.max() / volumes.min() > 16

    def test_one_dimensional_can(self, rng):
        can = CANOverlay(rng.random(32), dims=1)
        stats = measure_overlay_batch(can, 50, rng)
        assert stats.success_rate == 1.0

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(ValueError):
            CANOverlay([], dims=2)
        with pytest.raises(ValueError):
            CANOverlay([0.5], dims=0)


class TestRouting:
    def test_routes_succeed(self, rng):
        can = CANOverlay(rng.random(128), dims=2)
        stats = measure_overlay_batch(can, 150, rng)
        assert stats.success_rate == 1.0

    def test_hops_polynomial_not_logarithmic(self, rng):
        # CAN hop counts grow like N^(1/d): measurably super-logarithmic.
        small = CANOverlay(rng.random(64), dims=2)
        large = CANOverlay(rng.random(1024), dims=2)
        small_hops = measure_overlay_batch(small, 150, rng).mean_hops
        large_hops = measure_overlay_batch(large, 150, rng).mean_hops
        # 16x more peers: log2 would add ~4 hops; sqrt multiplies by ~4.
        assert large_hops > small_hops * 2.0

    def test_owner_zone_contains_key_point(self, rng):
        can = CANOverlay(rng.random(64), dims=2)
        from repro.keyspace import morton_spread

        for key in (0.1, 0.42, 0.9):
            owner = can.owner_of(key)
            assert _holders(can, np.asarray(morton_spread(key, 2))).tolist() == [owner]

    def test_invalid_source(self, rng):
        can = CANOverlay(rng.random(16), dims=2)
        with pytest.raises(ValueError):
            can.route(99, 0.5)

    def test_table_sizes_constant_scale(self, rng):
        # CAN state is O(d), independent of N: means stay in single digits.
        small = CANOverlay(rng.random(64), dims=2).mean_table_size()
        large = CANOverlay(rng.random(512), dims=2).mean_table_size()
        assert large < small * 2
        assert large < 10


class TestBSPDepthCap:
    """Adversarially clustered arrivals must fail loudly, not walk silently."""

    def test_adversarially_deep_split_tree_raises(self):
        # Arrival points packed 1e-40 apart: separating them needs ~130
        # split levels, far beyond the default cap of 96 — construction
        # must refuse with a clear diagnostic instead of degenerating
        # into zero-width zones.
        keys = np.arange(110.0) * 1e-40
        with pytest.raises(RuntimeError, match="max_bsp_depth"):
            CANOverlay(keys, dims=1)

    def test_cap_is_configurable(self):
        keys = np.asarray([0.0, 0.5, 0.25, 0.125])
        with pytest.raises(RuntimeError, match="max_bsp_depth"):
            CANOverlay(keys, dims=1, max_bsp_depth=1)
        # the same population builds fine with room to split
        assert CANOverlay(keys, dims=1, max_bsp_depth=8).n == 4
        with pytest.raises(ValueError):
            CANOverlay(keys, dims=1, max_bsp_depth=0)

    def test_normal_populations_stay_far_below_cap(self, rng):
        can = CANOverlay(rng.random(2048), dims=2)
        deepest = int(can.zone_depth.max())
        assert deepest < 40  # ~2·log2(n); nowhere near the 96 cap
        # and the vectorised owner descent still resolves everything
        owners = can.metric.prepare(rng.random(256)).owners
        assert owners.min() >= 0 and owners.max() < can.n


def _assert_same_tree(a, b):
    """Walk two flat BSP trees from the root: same splits, same leaves.

    The batch builder numbers nodes level by level and the insertion
    tree flattens depth-first, so node ids differ; the trees must not.
    """
    (dim_a, at_a, low_a, high_a, zone_a), (dim_b, at_b, low_b, high_b, zone_b) = a, b
    assert len(zone_a) == len(zone_b)
    stack = [(0, 0)]
    while stack:
        i, j = stack.pop()
        assert zone_a[i] == zone_b[j]
        if zone_a[i] < 0:
            assert dim_a[i] == dim_b[j] and at_a[i] == at_b[j]
            stack += [(low_a[i], low_b[j]), (high_a[i], high_b[j])]


class TestBulkBuilder:
    """The batch BSP builder must reproduce the scalar insertion tree exactly."""

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_bulk_matches_scalar_exactly(self, rng, dims):
        keys = rng.random(700)
        bulk = CANOverlay(keys, dims=dims)
        scalar = OracleCAN(keys, dims=dims)
        _assert_same_tree(bulk.metric.bsp, scalar.metric.bsp)
        np.testing.assert_array_equal(bulk.zone_lo, scalar.zone_lo)
        np.testing.assert_array_equal(bulk.zone_hi, scalar.zone_hi)
        np.testing.assert_array_equal(bulk.zone_depth, scalar.zone_depth)
        np.testing.assert_array_equal(bulk.csr.indptr, scalar.csr.indptr)
        np.testing.assert_array_equal(bulk.csr.indices, scalar.csr.indices)

    def test_bulk_routes_match_scalar(self, rng):
        """The bulk-built overlay's route() walks the per-insertion oracle
        build exactly as the per-lookup oracle loop does."""
        keys = rng.random(400)
        bulk = CANOverlay(keys, dims=2)
        scalar = scalar_twin(OracleCAN(keys, dims=2))
        lookups = rng.random(64)
        for key in lookups:
            rb = bulk.route(0, key)
            rs = scalar.route(0, key)
            assert list(rb.path) == list(rs.path)
            assert rb.success == rs.success

    def test_skewed_population_matches(self, rng):
        keys = PowerLaw(2.5).sample(300, rng)
        bulk = CANOverlay(keys, dims=2)
        scalar = OracleCAN(keys, dims=2)
        _assert_same_tree(bulk.metric.bsp, scalar.metric.bsp)
        np.testing.assert_array_equal(bulk.zone_lo, scalar.zone_lo)
        np.testing.assert_array_equal(bulk.zone_hi, scalar.zone_hi)

    def test_bulk_depth_cap_raises(self):
        keys = np.arange(110.0) * 1e-40
        for builder in (CANOverlay, OracleCAN):
            with pytest.raises(RuntimeError, match="max_bsp_depth"):
                builder(keys, dims=1)
