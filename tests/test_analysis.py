"""Unit tests for the analysis package."""

import numpy as np
import pytest

from repro.analysis import (
    bootstrap_mean_ci,
    degree_summary,
    fit_log_slope,
    in_degrees,
    ks_two_sample,
    link_partition_histogram,
    partition_uniformity,
)
from repro.core import build_uniform_model


class TestLogFit:
    def test_recovers_exact_line(self):
        ns = [256, 512, 1024, 2048]
        hops = [2.0 * np.log2(n) + 1.0 for n in ns]
        fit = fit_log_slope(ns, hops)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_predict(self):
        fit = fit_log_slope([2, 4, 8], [1.0, 2.0, 3.0])
        assert fit.predict(16) == pytest.approx(4.0)

    def test_noisy_fit_r2_below_one(self, rng):
        ns = [256, 512, 1024, 2048, 4096]
        hops = [np.log2(n) + rng.normal(0, 0.3) for n in ns]
        fit = fit_log_slope(ns, hops)
        assert 0.5 < fit.r_squared <= 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_log_slope([256], [3.0])
        with pytest.raises(ValueError):
            fit_log_slope([256, 512], [3.0])


class TestDegrees:
    def test_in_degree_mass_conservation(self, uniform_graph):
        ins = in_degrees(uniform_graph)
        assert ins.sum() == uniform_graph.total_long_links()

    def test_summary_consistency(self, uniform_graph):
        summary = degree_summary(uniform_graph)
        assert summary.mean_in == pytest.approx(summary.mean_out)
        assert summary.min_out <= summary.mean_out <= summary.max_out
        assert summary.max_in >= summary.mean_in

    def test_in_degree_not_degenerate(self, uniform_graph):
        # Poisson-like in-degrees: CV should be modest, not heavy-tailed.
        summary = degree_summary(uniform_graph)
        assert summary.in_cv < 1.0


class TestPartitionStats:
    def test_histogram_counts_all_links(self, uniform_graph):
        hist = link_partition_histogram(uniform_graph)
        assert hist.sum() == uniform_graph.total_long_links()

    def test_no_links_below_cutoff(self, uniform_graph):
        hist = link_partition_histogram(uniform_graph)
        assert hist[0] == 0  # partition 0 = below the 1/N cutoff

    def test_uniformity_high_for_model(self, uniform_graph):
        # Sec 3.1: long links spread ~evenly over partitions.
        assert partition_uniformity(uniform_graph) > 0.9

    def test_uniformity_low_for_concentrated_links(self, rng):
        from repro.core import GraphConfig, build_uniform_model

        graph = build_uniform_model(
            n=256, rng=rng, config=GraphConfig(cutoff_mass=0.2)
        )
        # Cutoff 0.2 forces all links into the top partitions.
        assert partition_uniformity(graph) < 0.75


class TestKS:
    def test_identical_samples_zero(self):
        a = np.linspace(0, 1, 100)
        result = ks_two_sample(a, a)
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value > 0.99

    def test_same_distribution_small_stat(self, rng):
        a, b = rng.random(2000), rng.random(2000)
        result = ks_two_sample(a, b)
        assert result.statistic < 0.06

    def test_different_distributions_detected(self, rng):
        a = rng.random(1000)
        b = rng.random(1000) ** 3
        result = ks_two_sample(a, b)
        assert result.statistic > 0.2
        assert result.p_value < 0.001

    def test_matches_scipy(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        a, b = rng.random(500), rng.random(600) ** 1.5
        ours = ks_two_sample(a, b)
        theirs = scipy_stats.ks_2samp(a, b, method="asymp")
        assert ours.statistic == pytest.approx(theirs.statistic, abs=1e-9)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=0.03)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [0.5])


class TestBootstrapCI:
    def test_contains_true_mean(self, rng):
        values = rng.normal(5.0, 1.0, size=400)
        mean, lo, hi = bootstrap_mean_ci(values, rng)
        assert lo < 5.0 < hi
        assert mean == pytest.approx(values.mean())

    def test_interval_orders(self, rng):
        values = rng.random(50)
        mean, lo, hi = bootstrap_mean_ci(values, rng)
        assert lo <= mean <= hi

    def test_rejects_bad_input(self, rng):
        with pytest.raises(ValueError):
            bootstrap_mean_ci([], rng)
        with pytest.raises(ValueError):
            bootstrap_mean_ci([1.0], rng, confidence=1.5)
