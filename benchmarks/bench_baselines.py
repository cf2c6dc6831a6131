"""Scalar-oracle-vs-batch comparator throughput — the baseline frontier's gate.

Every comparator overlay (Chord, Pastry, P-Grid, Symphony, Mercury, CAN)
routes whole lookup batches over the shared CSR + metric frontier
kernel (:func:`repro.baselines.route_many_overlay`).
This bench routes the *same* workload through each overlay's per-lookup
loop in ``tests/route_oracle.py`` (run over the overlay's own tables via
``scalar_twin``) and through the batch kernel, verifies the two agree
route-for-route on the overlapping subset, and gates on an aggregate
>= 5x comparator-throughput speedup (every single baseline must clear
1.5x — Pastry's loop is mostly O(1) table hops, so its margin is
structurally the smallest).  Results append to
``benchmarks/results/BENCH_baselines.json`` so comparator throughput is
tracked across PRs.

Run alone via ``python -m pytest benchmarks/bench_baselines.py -q -s -k
speedup`` for the smoke used by ``ci.sh``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
    measure_overlay_batch,
    route_many_overlay,
    sample_overlay_lookups,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from route_oracle import scalar_twin  # noqa: E402

N_PEERS = 4096
N_ROUTES = 1200
SCALAR_SUBSET = 300  # scalar loops are slow; rates extrapolate per route

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_baselines.json"


def _record_trajectory(entry: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def _overlays(rng):
    ids = np.sort(rng.random(N_PEERS))
    can_ids = np.sort(rng.random(1024))  # CAN walks are O(sqrt N); keep scalar sane
    return [
        ("chord", ChordOverlay(ids), ids),
        ("pastry", PastryOverlay(ids, rng), ids),
        ("pgrid", PGridOverlay(ids, rng), ids),
        ("symphony", SymphonyOverlay(ids, rng, k=4), ids),
        ("mercury", MercuryOverlay(ids, rng, sample_size=64), ids),
        ("can", CANOverlay(can_ids, dims=2), can_ids),
    ]


def test_batch_comparator_speedup_over_scalar(rng):
    """The frontier kernel must deliver >= 5x aggregate comparator routes/sec."""
    total_scalar_seconds = 0.0
    total_batch_seconds = 0.0
    per_baseline = {}
    for name, overlay, target_ids in _overlays(rng):
        targets = "peers" if target_ids is not None else "uniform"
        sources, keys = sample_overlay_lookups(
            overlay, N_ROUTES, np.random.default_rng(42),
            targets=targets, target_ids=target_ids,
        )
        oracle = scalar_twin(overlay)
        # Warm both engines (allocator, caches) before the timed passes;
        # best-of-3 keeps the tiny (few-ms) timed regions noise-resistant
        # on loaded runners — Pastry's structural ~2.5x margin over the
        # 1.5x floor is the thinnest in this file.
        oracle.route(int(sources[0]), float(keys[0]))
        route_many_overlay(overlay, sources[:8], keys[:8])

        scalar_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            scalar = [
                oracle.route(int(s), float(k))
                for s, k in zip(sources[:SCALAR_SUBSET], keys[:SCALAR_SUBSET])
            ]
            scalar_seconds = min(scalar_seconds, time.perf_counter() - start)

        batch_seconds = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            batch = route_many_overlay(overlay, sources, keys)
            batch_seconds = min(batch_seconds, time.perf_counter() - start)

        # The engines must agree route-for-route before speed counts.
        subset = slice(0, SCALAR_SUBSET)
        assert np.array_equal(batch.hops[subset], [r.hops for r in scalar])
        assert np.array_equal(batch.success[subset], [r.success for r in scalar])
        assert np.array_equal(batch.owners[subset], [r.owner for r in scalar])

        scalar_rps = SCALAR_SUBSET / scalar_seconds
        batch_rps = N_ROUTES / batch_seconds
        speedup = batch_rps / scalar_rps
        per_baseline[name] = round(speedup, 1)
        # Normalise to a common per-route cost before aggregating.
        total_scalar_seconds += scalar_seconds * (N_ROUTES / SCALAR_SUBSET)
        total_batch_seconds += batch_seconds
        print(
            f"{name:9s} scalar {scalar_rps:9,.0f} routes/s, "
            f"batch {batch_rps:10,.0f} routes/s, speedup {speedup:7.1f}x"
        )
        assert speedup >= 1.5, f"{name}: only {speedup:.1f}x"

    aggregate = total_scalar_seconds / total_batch_seconds
    print(f"aggregate comparator speedup: {aggregate:.1f}x (gate: >= 5x)")
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "batch_vs_scalar_baselines",
            "n": N_PEERS,
            "routes": N_ROUTES,
            "aggregate_speedup": round(aggregate, 1),
            "per_baseline": per_baseline,
        }
    )
    assert aggregate >= 5.0


def test_batch_comparator_kernels(benchmark, rng):
    """Kernel: 1200 batched lookups over each of the six baselines."""
    overlays = _overlays(rng)

    def run_all():
        out = []
        for _, overlay, target_ids in overlays:
            targets = "peers" if target_ids is not None else "uniform"
            out.append(
                measure_overlay_batch(
                    overlay, N_ROUTES, np.random.default_rng(7),
                    targets=targets, target_ids=target_ids,
                )
            )
        return out

    stats = benchmark.pedantic(run_all, rounds=1, iterations=1)
    # The five DHT-style overlays always arrive; CAN's greedy zone walk
    # may rarely hit a local minimum.
    assert all(s.success_rate == 1.0 for s in stats[:5])
    assert stats[5].success_rate > 0.99
