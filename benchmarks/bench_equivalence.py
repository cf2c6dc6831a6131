"""E7 — Figures 1/2: space-normalisation equivalence + sampler ablation."""

import pathlib
import sys

import numpy as np

from repro.experiments import run_experiment
from repro.keyspace import IntervalSpace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from builder_oracle import ExactSampler, FastSampler  # noqa: E402


def test_e7_table(benchmark, table_sink):
    """Regenerate the E7 equivalence table (KS distances, hop CIs)."""
    tables = benchmark.pedantic(
        lambda: run_experiment("E7", seed=0, quick=True), rounds=1, iterations=1
    )
    table_sink("E7", tables)
    for row in tables[0].rows:
        # Few-percent KS distances: statistically equivalent constructions.
        assert row["ks_stat"] < 0.08


def test_fast_sampler_kernel(benchmark, rng):
    """Kernel: draw 10 long links for one peer (fast inverse-CDF path)."""
    positions = np.sort(rng.random(4096))
    sampler = FastSampler()
    links = benchmark(
        lambda: sampler.sample(positions, 2048, 10, 1 / 4096, IntervalSpace(), rng)
    )
    assert len(links) == 10


def test_exact_sampler_kernel(benchmark, rng):
    """Kernel: the O(N) exact sampler at the same size (the ablation cost)."""
    positions = np.sort(rng.random(4096))
    sampler = ExactSampler()
    links = benchmark(
        lambda: sampler.sample(positions, 2048, 10, 1 / 4096, IntervalSpace(), rng)
    )
    assert len(links) == 10
