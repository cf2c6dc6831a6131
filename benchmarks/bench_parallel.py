"""The sharded execution engine: parity everywhere, speedup where cores exist.

Four layers, all over the same workload — route batches on a
100k-peer uniform graph, sharded over worker threads:

* **parity** (always runs, any machine): ``route_many(workers=N)`` for
  1, 2 and 4 worker threads must be bit-identical to serial
  :func:`repro.core.route_many` — hops, owners, reasons, the lot.
  Speed means nothing before this holds.
* **smoke gate** (``ci.sh`` runs ``-k smoke``): 2 workers must reach
  >= 1.2x serial throughput by the median of :data:`SMOKE_PAIRS`
  alternating serial/2-thread pairs (one untimed call per side first)
  — skipped with an explicit message when the host exposes fewer than
  2 usable CPUs (two threads cannot beat serial on one core; the parity
  layer still covers them).
* **full gate**: 4 workers must reach >= 2.5x aggregate route-batch
  throughput at n >= 1e5 — skipped below 4 usable CPUs.
* **size sweep** (ungated): serial against 2 workers at
  :data:`SWEEP_SIZES` routes, timed in :data:`SWEEP_PAIRS` alternating
  pairs per size with parity asserted at each, so the trajectory shows
  where sharding starts to pay on the host that runs it.

Every layer appends its measurements to
``benchmarks/results/BENCH_parallel.json`` (cpu count, worker count,
routes/sec, speedup, whether the gate ran; the smoke gate and the
sweep also every pair they timed), so the trajectory records what this
machine could actually demonstrate.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core import build_uniform_model, route_many
from repro.parallel import shard_bounds

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_parallel.json"

N_PEERS = 100_000
N_ROUTES = 150_000

SMOKE_WORKERS, SMOKE_GATE = 2, 1.2
SMOKE_PAIRS = 7
FULL_WORKERS, FULL_GATE = 4, 2.5

SWEEP_SIZES = (4_096, 16_384, 65_536, 150_000)
SWEEP_WORKERS = 2
SWEEP_PAIRS = 5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _record_trajectory(entry: dict) -> None:
    """Append one measurement to the parallel-throughput trajectory."""
    RESULTS_DIR.mkdir(exist_ok=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    graph = build_uniform_model(n=N_PEERS, rng=rng)
    _ = graph.adjacency  # CSR built once, outside every timed region
    sources = rng.integers(N_PEERS, size=N_ROUTES)
    keys = rng.random(N_ROUTES)
    return graph, sources, keys


@pytest.fixture(scope="module")
def serial_baseline(workload):
    graph, sources, keys = workload
    start = time.perf_counter()
    result = route_many(graph, sources, keys)
    seconds = time.perf_counter() - start
    return result, seconds


def _timed_parallel(workload, workers: int):
    """Time one batch sharded over ``workers`` threads."""
    graph, sources, keys = workload
    start = time.perf_counter()
    result = route_many(graph, sources, keys, workers=workers)
    seconds = time.perf_counter() - start
    return result, seconds


def _assert_identical(parallel, serial) -> None:
    assert np.array_equal(parallel.success, serial.success)
    assert np.array_equal(parallel.hops, serial.hops)
    assert np.array_equal(parallel.neighbor_hops, serial.neighbor_hops)
    assert np.array_equal(parallel.long_hops, serial.long_hops)
    assert np.array_equal(parallel.reason_codes, serial.reason_codes)
    assert np.array_equal(parallel.owners, serial.owners)


def _alternating_pairs(workload, serial, workers: int, pairs: int) -> list[dict]:
    """Time ``pairs`` serial/``workers``-thread pairs, alternating the order.

    The first side flips every pair.  Every result must equal ``serial``.
    """
    graph, sources, keys = workload
    timed = []
    for pair in range(pairs):
        seconds = {}
        for count in (1, workers) if pair % 2 == 0 else (workers, 1):
            start = time.perf_counter()
            result = route_many(graph, sources, keys, workers=count)
            seconds[count] = time.perf_counter() - start
            _assert_identical(result, serial)
        timed.append(
            {
                "serial_seconds": round(seconds[1], 5),
                "parallel_seconds": round(seconds[workers], 5),
            }
        )
    return timed


def _run_layer(workload, serial_baseline, workers: int, gate: float, kind: str):
    serial, serial_seconds = serial_baseline
    parallel, parallel_seconds = _timed_parallel(workload, workers)
    _assert_identical(parallel, serial)

    cpus = _usable_cpus()
    speedup = serial_seconds / parallel_seconds
    gated = cpus >= workers
    print(
        f"\nparallel routing, n={N_PEERS}, {N_ROUTES} routes, "
        f"{cpus} usable cpu(s): serial {N_ROUTES / serial_seconds:,.0f} routes/s, "
        f"{workers} workers {N_ROUTES / parallel_seconds:,.0f} routes/s, "
        f"speedup {speedup:.2f}x (gate >= {gate}x "
        f"{'enforced' if gated else 'skipped: too few cpus'})"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": kind,
            "n": N_PEERS,
            "routes": N_ROUTES,
            "cpus": cpus,
            "workers": workers,
            "serial_seconds": round(serial_seconds, 4),
            "parallel_seconds": round(parallel_seconds, 4),
            "serial_routes_per_sec": round(N_ROUTES / serial_seconds, 1),
            "parallel_routes_per_sec": round(N_ROUTES / parallel_seconds, 1),
            "speedup": round(speedup, 3),
            "gate": gate,
            "gate_enforced": gated,
            "identical_to_serial": True,
        }
    )
    if not gated:
        pytest.skip(
            f"{workers}-worker speedup gate needs >= {workers} usable CPUs, "
            f"host has {cpus}; parity was asserted and recorded"
        )
    assert speedup >= gate, (
        f"{workers} workers reached only {speedup:.2f}x (gate {gate}x)"
    )


def test_parallel_parity_all_worker_counts(workload, serial_baseline):
    """Sharded routing must be bit-identical to serial for 1/2/4 workers."""
    serial, _ = serial_baseline
    graph, sources, keys = workload
    for workers in (1, 2, 4):
        parallel = route_many(graph, sources, keys, workers=workers)
        _assert_identical(parallel, serial)


def test_parallel_smoke_2workers(workload, serial_baseline):
    """ci.sh smoke: 2 workers >= 1.2x serial by the median pair ratio.

    One untimed call per side, then :data:`SMOKE_PAIRS` alternating
    pairs; the gate reads the median of the per-pair serial/parallel
    ratios, so no single fast or slow run decides it (skipped below 2
    CPUs).
    """
    graph, sources, keys = workload
    serial, _ = serial_baseline
    for workers in (1, SMOKE_WORKERS):  # untimed warm-up, one per side
        _assert_identical(route_many(graph, sources, keys, workers=workers), serial)
    pairs = _alternating_pairs(workload, serial, SMOKE_WORKERS, SMOKE_PAIRS)
    ratios = sorted(p["serial_seconds"] / p["parallel_seconds"] for p in pairs)
    speedup = ratios[len(ratios) // 2]
    cpus = _usable_cpus()
    gated = cpus >= SMOKE_WORKERS
    print(
        f"\nparallel routing, n={N_PEERS}, {N_ROUTES} routes, {cpus} usable cpu(s): "
        f"{SMOKE_WORKERS} workers, median speedup {speedup:.2f}x over "
        f"{SMOKE_PAIRS} pairs ({ratios[0]:.2f}-{ratios[-1]:.2f}x; gate >= "
        f"{SMOKE_GATE}x {'enforced' if gated else 'skipped: too few cpus'})"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "smoke_2workers",
            "n": N_PEERS,
            "routes": N_ROUTES,
            "cpus": cpus,
            "workers": SMOKE_WORKERS,
            "statistic": "median pair ratio",
            "pairs": pairs,
            "speedup": round(speedup, 3),
            "gate": SMOKE_GATE,
            "gate_enforced": gated,
            "identical_to_serial": True,
        }
    )
    if not gated:
        pytest.skip(
            f"{SMOKE_WORKERS}-worker speedup gate needs >= {SMOKE_WORKERS} usable "
            f"CPUs, host has {cpus}; parity was asserted and recorded"
        )
    assert speedup >= SMOKE_GATE, (
        f"{SMOKE_WORKERS} workers reached a median {speedup:.2f}x over "
        f"{SMOKE_PAIRS} pairs (gate {SMOKE_GATE}x)"
    )


def test_parallel_speedup_4workers(workload, serial_baseline):
    """The PR gate: >= 2.5x aggregate at 4 workers, n >= 1e5."""
    assert N_PEERS >= 100_000
    _run_layer(workload, serial_baseline, FULL_WORKERS, FULL_GATE, "gate_4workers")


def test_parallel_size_sweep(workload):
    """Ungated: serial vs 2 workers at each sweep size, in alternating pairs."""
    graph, sources, keys = workload
    cpus = _usable_cpus()
    print(f"\nparallel size sweep, n={N_PEERS}, {cpus} usable cpu(s):")
    for routes in SWEEP_SIZES:
        batch = (graph, sources[:routes], keys[:routes])
        serial = route_many(*batch)
        pairs = _alternating_pairs(batch, serial, SWEEP_WORKERS, SWEEP_PAIRS)
        ratios = sorted(p["serial_seconds"] / p["parallel_seconds"] for p in pairs)
        shards = len(shard_bounds(routes))
        print(
            f"  {routes:>7} routes, {shards} shard(s): median speedup "
            f"{ratios[len(ratios) // 2]:.2f}x over {SWEEP_PAIRS} pairs "
            f"({ratios[0]:.2f}-{ratios[-1]:.2f}x)"
        )
        _record_trajectory(
            {
                "timestamp": time.time(),
                "kind": f"size_sweep_{routes}",
                "n": N_PEERS,
                "routes": routes,
                "shards": shards,
                "cpus": cpus,
                "workers": SWEEP_WORKERS,
                "pairs": pairs,
                "identical_to_serial": True,
            }
        )
