"""Unit tests for the P-Grid trie baseline."""

import math

import numpy as np
import pytest

from repro.baselines import PGridOverlay, measure_overlay_batch
from repro.distributions import PowerLaw


@pytest.fixture(scope="module")
def uniform_ids():
    return np.sort(np.random.default_rng(31).random(256))


@pytest.fixture(scope="module")
def skewed_ids():
    rng = np.random.default_rng(32)
    ids = np.unique(PowerLaw(alpha=1.8, shift=1e-4).sample(256, rng))
    return ids


class TestTrieConstruction:
    def test_paths_are_unique_cells(self, uniform_ids, rng):
        pgrid = PGridOverlay(uniform_ids, rng)
        # Leaf cells partition [0, 1): total width 1, disjoint.
        cells = sorted(pgrid.cells)
        total = sum(hi - lo for lo, hi in cells)
        assert total == pytest.approx(1.0)
        for (lo1, hi1), (lo2, __) in zip(cells, cells[1:]):
            assert hi1 == pytest.approx(lo2)

    def test_peer_inside_own_cell(self, uniform_ids, rng):
        pgrid = PGridOverlay(uniform_ids, rng)
        for i in range(pgrid.n):
            lo, hi = pgrid.cells[i]
            assert lo <= pgrid.ids[i] < hi

    def test_cell_contains_path_prefix_cell(self, uniform_ids, rng):
        from repro.keyspace import from_digits

        pgrid = PGridOverlay(uniform_ids, rng)
        for i in range(0, pgrid.n, 17):
            lo, hi = pgrid.cells[i]
            path = pgrid.paths[i]
            prefix_lo = from_digits(path, 2)
            prefix_hi = prefix_lo + 2.0 ** -len(path)
            # Coverage cells absorb empty siblings, so they contain the
            # dyadic prefix cell (equality when nothing was absorbed).
            assert lo <= prefix_lo + 1e-12
            assert prefix_hi <= hi + 1e-12

    def test_mean_path_log_on_uniform(self, uniform_ids, rng):
        pgrid = PGridOverlay(uniform_ids, rng)
        mean_depth = float(np.mean(pgrid.path_lengths()))
        assert mean_depth < math.log2(len(uniform_ids)) + 3

    def test_skew_deepens_trie(self, uniform_ids, skewed_ids, rng):
        uni = PGridOverlay(uniform_ids, rng)
        skew = PGridOverlay(skewed_ids, rng)
        assert float(np.mean(skew.path_lengths())) > float(
            np.mean(uni.path_lengths())
        )
        assert skew.mean_table_size() > uni.mean_table_size()

    def test_rejects_duplicates(self, rng):
        with pytest.raises(ValueError):
            PGridOverlay([0.5, 0.5, 0.7], rng)

    def test_rejects_tiny(self, rng):
        with pytest.raises(ValueError):
            PGridOverlay([0.5], rng)

    def test_refs_point_to_complement(self, uniform_ids, rng):
        pgrid = PGridOverlay(uniform_ids, rng)
        for i in range(0, pgrid.n, 13):
            path = pgrid.paths[i]
            for level, ref in enumerate(pgrid.refs[i]):
                if ref >= 0:
                    ref_path = pgrid.paths[int(ref)]
                    assert ref_path[:level] == path[:level]
                    assert ref_path[level] == 1 - path[level]


class TestOwnership:
    def test_owner_cell_contains_key(self, uniform_ids, rng):
        pgrid = PGridOverlay(uniform_ids, rng)
        for key in (0.01, 0.33, 0.66, 0.99):
            owner = pgrid.owner_of(key)
            lo, hi = pgrid.cells[owner]
            assert lo <= key < hi

    def test_owner_rejects_out_of_range(self, uniform_ids, rng):
        pgrid = PGridOverlay(uniform_ids, rng)
        with pytest.raises(ValueError):
            pgrid.owner_of(1.0)


class TestRouting:
    def test_routes_succeed_uniform(self, uniform_ids, rng):
        pgrid = PGridOverlay(uniform_ids, rng)
        stats = measure_overlay_batch(pgrid, 200, rng, target_ids=pgrid.ids)
        assert stats.success_rate == 1.0

    def test_routes_succeed_skewed(self, skewed_ids, rng):
        pgrid = PGridOverlay(skewed_ids, rng)
        stats = measure_overlay_batch(pgrid, 200, rng, target_ids=pgrid.ids)
        assert stats.success_rate == 1.0

    def test_hops_logarithmic_even_under_skew(self, skewed_ids, rng):
        pgrid = PGridOverlay(skewed_ids, rng)
        stats = measure_overlay_batch(pgrid, 200, rng, target_ids=pgrid.ids)
        assert stats.mean_hops < 2 * math.log2(len(skewed_ids))

    def test_invalid_source(self, uniform_ids, rng):
        pgrid = PGridOverlay(uniform_ids, rng)
        with pytest.raises(ValueError):
            pgrid.route(-5, 0.5)
