"""Scalar-oracle-vs-batch routing throughput — the batch engine's raison d'être.

Measures routes/sec of the per-lookup greedy loop
(``greedy_route`` in ``tests/route_oracle.py``) against the vectorized
batch engine (:func:`repro.core.route_many`) on the *same* source/key
workload over a 10k-peer uniform graph, checks the two agree
route-for-route, and gates on a >= 5x speedup.  Quick single-shot
timings (one round each) keep the file laptop-fast; run it alone via
``python -m pytest benchmarks/bench_routing_throughput.py`` for the smoke
used by ``ci.sh``.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

from repro.core import build_uniform_model, route_many

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from route_oracle import greedy_route  # noqa: E402

N_PEERS = 10_000
N_ROUTES = 2_000


def _workload(rng):
    graph = build_uniform_model(n=N_PEERS, rng=rng)
    _ = graph.adjacency  # build the CSR once, outside every timed region
    sources = rng.integers(N_PEERS, size=N_ROUTES)
    keys = rng.random(N_ROUTES)
    return graph, sources, keys


def test_batch_speedup_over_scalar(rng):
    """route_many must deliver >= 5x the scalar routes/sec at n=10k."""
    graph, sources, keys = _workload(rng)

    start = time.perf_counter()
    scalar = [
        greedy_route(graph, int(s), float(k)) for s, k in zip(sources, keys)
    ]
    scalar_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batch = route_many(graph, sources, keys)
    batch_seconds = time.perf_counter() - start

    scalar_rps = N_ROUTES / scalar_seconds
    batch_rps = N_ROUTES / batch_seconds
    speedup = batch_rps / scalar_rps
    print(
        f"\nrouting throughput, n={N_PEERS}, {N_ROUTES} routes: "
        f"scalar {scalar_rps:,.0f} routes/s, batch {batch_rps:,.0f} routes/s, "
        f"speedup {speedup:.1f}x"
    )

    # The engines must agree route-for-route before speed means anything.
    assert batch.success.all() and all(r.success for r in scalar)
    assert np.array_equal(batch.hops, [r.hops for r in scalar])
    assert np.array_equal(batch.long_hops, [r.long_hops for r in scalar])
    assert np.array_equal(batch.owners, [r.owner for r in scalar])
    assert speedup >= 5.0


def test_batch_routing_kernel(benchmark, rng):
    """Kernel: 2000 batched lookups on the 10k-peer graph."""
    graph, sources, keys = _workload(rng)
    result = benchmark.pedantic(
        lambda: route_many(graph, sources, keys), rounds=3, iterations=1
    )
    assert result.success.all()


def test_scalar_routing_kernel(benchmark, rng):
    """Kernel: the same workload through the per-lookup oracle loop."""
    graph, sources, keys = _workload(rng)
    subset = 200  # scalar is slow; keep the benchmark suite snappy
    results = benchmark.pedantic(
        lambda: [
            greedy_route(graph, int(s), float(k))
            for s, k in zip(sources[:subset], keys[:subset])
        ],
        rounds=1,
        iterations=1,
    )
    assert all(r.success for r in results)
