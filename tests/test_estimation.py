"""Unit tests for the id sampling behind Section 4.2's estimated ``f``."""

import numpy as np
import pytest

from repro.overlay import uniform_id_sample


class TestSampling:
    def test_uniform_id_sample_from_population(self, rng):
        ids = np.linspace(0.0, 0.99, 100)
        samples = uniform_id_sample(ids, 500, rng)
        assert len(samples) == 500
        assert set(np.round(samples, 6)) <= set(np.round(ids, 6))

    def test_uniform_id_sample_empty_raises(self, rng):
        with pytest.raises(ValueError):
            uniform_id_sample(np.array([]), 10, rng)
