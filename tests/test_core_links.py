"""Unit tests for the per-peer link samplers and the protocol draw."""

import numpy as np
import pytest
from builder_oracle import ExactSampler, FastSampler, make_sampler

from repro.core.links import harmonic_target_positions
from repro.keyspace import IntervalSpace, RingSpace


@pytest.fixture
def positions(rng):
    return np.sort(rng.random(256))


class TestExactSampler:
    def test_respects_cutoff(self, positions, rng):
        sampler = ExactSampler()
        cutoff = 1.0 / len(positions)
        for idx in (0, 100, 255):
            chosen = sampler.sample(positions, idx, 8, cutoff, IntervalSpace(), rng)
            for j in chosen:
                assert abs(positions[j] - positions[idx]) >= cutoff

    def test_never_self(self, positions, rng):
        sampler = ExactSampler()
        for idx in range(0, 256, 37):
            chosen = sampler.sample(positions, idx, 8, 1 / 256, IntervalSpace(), rng)
            assert idx not in set(chosen.tolist())

    def test_dedupe_produces_distinct(self, positions, rng):
        chosen = ExactSampler(dedupe=True).sample(
            positions, 10, 20, 1 / 256, IntervalSpace(), rng
        )
        assert len(chosen) == len(set(chosen.tolist()))

    def test_zero_k(self, positions, rng):
        assert len(ExactSampler().sample(positions, 0, 0, 0.1, IntervalSpace(), rng)) == 0

    def test_no_eligible_targets(self, rng):
        positions = np.array([0.5, 0.5001])
        chosen = ExactSampler().sample(positions, 0, 4, 0.4, IntervalSpace(), rng)
        assert len(chosen) == 0

    def test_favors_close_peers(self, rng):
        # With weights 1/d, near-but-beyond-cutoff peers are chosen more
        # often than far peers.
        positions = np.sort(rng.random(512))
        sampler = ExactSampler()
        close_picks = 0
        far_picks = 0
        idx = 256
        for _ in range(200):
            chosen = sampler.sample(positions, idx, 1, 1 / 512, IntervalSpace(), rng)
            if len(chosen):
                d = abs(positions[chosen[0]] - positions[idx])
                if d < 0.05:
                    close_picks += 1
                elif d > 0.3:
                    far_picks += 1
        assert close_picks > far_picks


class TestFastSampler:
    def test_respects_cutoff(self, positions, rng):
        sampler = FastSampler()
        cutoff = 1.0 / len(positions)
        for idx in (0, 128, 255):
            chosen = sampler.sample(positions, idx, 8, cutoff, IntervalSpace(), rng)
            for j in chosen:
                assert abs(positions[j] - positions[idx]) >= cutoff

    def test_ring_cutoff_uses_circular_distance(self, positions, rng):
        sampler = FastSampler()
        space = RingSpace()
        cutoff = 1.0 / len(positions)
        chosen = sampler.sample(positions, 0, 8, cutoff, space, rng)
        for j in chosen:
            assert space.distance(float(positions[0]), float(positions[j])) >= cutoff

    def test_requested_degree_met_on_healthy_population(self, positions, rng):
        chosen = FastSampler().sample(positions, 50, 8, 1 / 256, IntervalSpace(), rng)
        assert len(chosen) == 8

    def test_never_self_and_distinct(self, positions, rng):
        chosen = FastSampler().sample(positions, 77, 12, 1 / 256, IntervalSpace(), rng)
        assert 77 not in set(chosen.tolist())
        assert len(chosen) == len(set(chosen.tolist()))

    def test_tiny_population_graceful(self, rng):
        positions = np.array([0.1, 0.6, 0.9])
        chosen = FastSampler().sample(positions, 0, 2, 1 / 3, IntervalSpace(), rng)
        assert set(chosen.tolist()) <= {1, 2}

    def test_no_valid_side_returns_empty(self, rng):
        positions = np.array([0.5, 0.50001, 0.50002])
        chosen = FastSampler().sample(positions, 1, 3, 0.9, IntervalSpace(), rng)
        assert len(chosen) == 0

    def test_rejects_bad_retries(self):
        with pytest.raises(ValueError):
            FastSampler(max_retries=0)

    def test_matches_exact_sampler_distribution(self, rng):
        # The two samplers must produce statistically similar link-length
        # distributions (the E7 claim, here at coarse tolerance).
        positions = np.sort(rng.random(512))
        lengths_fast, lengths_exact = [], []
        fast, exact = FastSampler(), ExactSampler()
        for idx in range(0, 512, 2):
            for j in fast.sample(positions, idx, 4, 1 / 512, IntervalSpace(), rng):
                lengths_fast.append(abs(positions[j] - positions[idx]))
            for j in exact.sample(positions, idx, 4, 1 / 512, IntervalSpace(), rng):
                lengths_exact.append(abs(positions[j] - positions[idx]))
        # Compare medians of log-lengths: the 1/x law is log-uniform.
        med_fast = np.median(np.log(lengths_fast))
        med_exact = np.median(np.log(lengths_exact))
        assert abs(med_fast - med_exact) < 0.35


class TestMakeSampler:
    def test_fast(self):
        assert isinstance(make_sampler("fast"), FastSampler)

    def test_exact(self):
        assert isinstance(make_sampler("exact"), ExactSampler)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_sampler("quantum")


class TestHarmonicTargets:
    def test_within_space(self, rng):
        targets = harmonic_target_positions(0.5, 50, 0.01, IntervalSpace(), rng)
        assert np.all((targets >= 0.0) & (targets < 1.0))

    def test_respects_cutoff_distance(self, rng):
        targets = harmonic_target_positions(0.5, 100, 0.02, IntervalSpace(), rng)
        assert np.all(np.abs(targets - 0.5) >= 0.02 - 1e-12)

    def test_log_uniform_shape(self, rng):
        # Distances under the 1/x law are log-uniform on [cutoff, span]:
        # the median log-distance sits midway between the log endpoints.
        targets = harmonic_target_positions(0.5, 4000, 0.001, RingSpace(), rng)
        dists = np.abs(targets - 0.5)
        dists = np.minimum(dists, 1 - dists)
        med = np.median(np.log(dists))
        expected = 0.5 * (np.log(0.001) + np.log(0.5))
        assert abs(med - expected) < 0.15

    def test_edge_position_single_sided(self, rng):
        targets = harmonic_target_positions(0.0, 50, 0.01, IntervalSpace(), rng)
        assert np.all(targets >= 0.0)

    def test_no_mass_returns_empty(self, rng):
        assert len(harmonic_target_positions(0.5, 5, 0.6, IntervalSpace(), rng)) == 0

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            harmonic_target_positions(0.5, 5, 0.0, IntervalSpace(), rng)
        with pytest.raises(ValueError):
            harmonic_target_positions(0.5, -1, 0.1, IntervalSpace(), rng)
