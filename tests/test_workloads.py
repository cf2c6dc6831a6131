"""Unit tests for key-corpus and query-workload generators."""

import numpy as np
import pytest

from repro.distributions import PowerLaw
from repro.workloads import (
    CumulativePicker,
    corpus_from_distribution,
    cumulative_picks,
    point_queries,
    range_queries,
    zipf_corpus,
    zipf_point_queries,
)


class TestCorpora:
    def test_corpus_from_distribution_sorted(self, rng):
        keys = corpus_from_distribution(PowerLaw(alpha=1.5, shift=1e-2), 500, rng)
        assert len(keys) == 500
        assert np.all(np.diff(keys) >= 0)
        assert np.all((keys >= 0) & (keys < 1))

    def test_zipf_corpus_head_heavy(self, rng):
        keys = zipf_corpus(5000, rng, n_items=100, exponent=1.2)
        # The first item's cell [0, 0.01) holds far more than 1/100 of keys.
        assert np.mean(keys < 0.01) > 0.05

    def test_zipf_corpus_exponent_zero_flat(self, rng):
        keys = zipf_corpus(5000, rng, n_items=100, exponent=0.0)
        assert np.mean(keys < 0.5) == pytest.approx(0.5, abs=0.05)

    def test_rejections(self, rng):
        with pytest.raises(ValueError):
            zipf_corpus(10, rng, n_items=0)


class TestQueries:
    def test_point_queries_from_corpus(self, rng):
        keys = rng.random(100)
        queries = point_queries(keys, 500, rng)
        assert len(queries) == 500
        assert set(np.round(queries, 9)) <= set(np.round(keys, 9))

    def test_point_queries_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            point_queries(np.array([]), 5, rng)

    def test_zipf_queries_skew_popularity(self, rng):
        keys = np.sort(rng.random(1000))
        queries = zipf_point_queries(keys, 5000, rng, exponent=1.5)
        # Low-rank (small) keys dominate the query stream.
        assert np.mean(queries <= keys[99]) > 0.5

    def test_zipf_queries_exponent_zero_uniform(self, rng):
        keys = np.sort(rng.random(1000))
        queries = zipf_point_queries(keys, 5000, rng, exponent=0.0)
        assert np.mean(queries <= np.median(keys)) == pytest.approx(0.5, abs=0.05)

    def test_zipf_queries_rejects_negative_exponent(self, rng):
        with pytest.raises(ValueError):
            zipf_point_queries(np.array([0.5]), 5, rng, exponent=-1)

    def test_range_queries_shape(self, rng):
        ranges = range_queries(200, rng, mean_width=0.02)
        assert ranges.shape == (200, 2)
        assert np.all(ranges[:, 0] < ranges[:, 1])
        assert np.all((ranges >= 0) & (ranges <= 1))

    def test_range_queries_centered_on_keys(self, rng):
        keys = np.array([0.5])
        ranges = range_queries(50, rng, mean_width=0.01, center_keys=keys)
        centers = 0.5 * (ranges[:, 0] + ranges[:, 1])
        assert np.all(np.abs(centers - 0.5) < 0.2)

    def test_range_queries_rejects_bad_width(self, rng):
        with pytest.raises(ValueError):
            range_queries(5, rng, mean_width=0.0)

    def test_range_queries_upper_boundary_never_degenerate(self, rng):
        # Regression: a tiny width around a center at exactly 1.0 used
        # to collapse to lo == hi == 1.0 (nextafter(1, 1) is a no-op).
        ranges = range_queries(
            64, rng, mean_width=1e-15, center_keys=np.array([1.0])
        )
        assert np.all(ranges[:, 0] < ranges[:, 1])
        assert np.all((ranges >= 0.0) & (ranges <= 1.0))

    def test_range_queries_lower_boundary_never_degenerate(self, rng):
        ranges = range_queries(
            64, rng, mean_width=1e-15, center_keys=np.array([0.0])
        )
        assert np.all(ranges[:, 0] < ranges[:, 1])
        assert np.all((ranges >= 0.0) & (ranges <= 1.0))


class TestCumulativePicker:
    def test_matches_scalar_bisect_reference(self):
        import bisect

        weights = np.array([0.5, 0.0, 2.0, 1.5, 0.25])
        picker = CumulativePicker(weights)
        vectorized = picker.pick(2000, np.random.default_rng(13))
        positions = np.random.default_rng(13).random(2000) * picker.total
        cdf = picker.cdf.tolist()
        reference = np.array([bisect.bisect_right(cdf, p) for p in positions])
        assert np.array_equal(vectorized, reference)

    def test_zero_weight_entries_never_picked(self, rng):
        picks = cumulative_picks(np.array([1.0, 0.0, 1.0]), 5000, rng)
        assert not (picks == 1).any()
        assert set(np.unique(picks)) <= {0, 2}

    def test_frequencies_track_weights(self, rng):
        weights = np.array([1.0, 3.0])
        picks = cumulative_picks(weights, 20_000, rng)
        share = (picks == 1).mean()
        assert share == pytest.approx(0.75, abs=0.02)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            CumulativePicker(np.empty(0))
        with pytest.raises(ValueError):
            CumulativePicker(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            CumulativePicker(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            CumulativePicker(np.array([np.inf, 1.0]))
        with pytest.raises(ValueError):
            CumulativePicker(np.array([1.0])).pick(-1, rng)
