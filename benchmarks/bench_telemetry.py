"""The telemetry layer: near-zero overhead off and on, deterministic merges.

Two gates over the same 100k-peer workload the parallel gates use:

* **overhead gate**: serial route-batch time with telemetry *enabled*
  must stay within 5% of the disabled baseline — the instrumentation is
  a handful of counter increments, one ``bincount`` of the hop column
  into the exact ``routing.hops`` histogram, and a trace event per
  batch, all of which must stay invisible next to the routing kernel
  itself.  The two sides run in :data:`OVERHEAD_PAIRS` alternating
  pairs (which side goes first flips every pair, so drift on a shared
  host hits both), each timed in CPU seconds (``time.process_time``;
  the gated code runs in this one process), and the gate compares each
  side's best run.
* **merge-determinism gate**: the shard-merged metrics of
  :func:`repro.parallel.frontier_route_many_parallel` (each shard
  captured on its own thread, folded in shard order) must be
  *bit-identical* for workers {1, 2, 4} — same counters, same histogram
  counts — and
  the merged ``routing.hops`` must equal a serial ``route_many`` run's
  and ``np.bincount`` of the batch's hops.  Timers are wall-clock and
  deliberately outside the contract.

Each gate appends its measurement (with its own ``wall_seconds``; the
overhead gate also records every pair's timings) to
``benchmarks/results/BENCH_telemetry.json``.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import build_uniform_model, route_many
from repro.core.metric_routing import GreedyValueMetric
from repro.parallel import frontier_route_many_parallel

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_telemetry.json"

N_PEERS = 100_000
N_ROUTES = 150_000
OVERHEAD_GATE = 1.05  # enabled may cost at most 5% over disabled
OVERHEAD_PAIRS = 8  # alternating disabled/enabled pairs per gate run

#: Counter prefixes under the shard-merge bit-identity contract.
DETERMINISTIC_PREFIXES = ("routing.", "parallel.shards", "parallel.dispatches")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _record_trajectory(entry: dict) -> None:
    """Append one measurement to the telemetry trajectory."""
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


@pytest.fixture(autouse=True)
def _telemetry_off_after():
    yield
    telemetry.disable()


def _cpu_timed_batch(enabled: bool, graph, sources, keys):
    """Route the batch with telemetry on or off; return (CPU s, result)."""
    if enabled:
        telemetry.enable()
    start = time.process_time()
    result = route_many(graph, sources, keys)
    seconds = time.process_time() - start
    telemetry.disable()
    return seconds, result


def test_telemetry_overhead_gate(workload):
    """Enabled serial routing within 5% of disabled at n=1e5."""
    graph, sources, keys = workload
    wall_started = time.perf_counter()

    telemetry.disable()
    pairs = []
    for pair in range(OVERHEAD_PAIRS):
        order = (False, True) if pair % 2 == 0 else (True, False)
        timed = {on: _cpu_timed_batch(on, graph, sources, keys) for on in order}
        (off_s, off), (on_s, on) = timed[False], timed[True]
        assert np.array_equal(on.hops, off.hops)
        assert np.array_equal(on.reason_codes, off.reason_codes)
        pairs.append(
            {
                "first": "enabled" if order[0] else "disabled",
                "disabled_seconds": round(off_s, 4),
                "enabled_seconds": round(on_s, 4),
            }
        )
    off_seconds = min(p["disabled_seconds"] for p in pairs)
    on_seconds = min(p["enabled_seconds"] for p in pairs)
    overhead = on_seconds / off_seconds
    print(
        f"\ntelemetry overhead, n={N_PEERS}, {N_ROUTES} routes, "
        f"{OVERHEAD_PAIRS} alternating pairs (CPU s): best disabled "
        f"{off_seconds:.3f}s, best enabled {on_seconds:.3f}s, "
        f"ratio {overhead:.3f}x (gate <= {OVERHEAD_GATE}x)"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "overhead_serial",
            "n": N_PEERS,
            "routes": N_ROUTES,
            "cpus": _usable_cpus(),
            "timer": "process_time",
            "pairs": OVERHEAD_PAIRS,
            "pair_seconds": pairs,
            "disabled_seconds": off_seconds,
            "enabled_seconds": on_seconds,
            "overhead_ratio": round(overhead, 4),
            "gate": OVERHEAD_GATE,
            "wall_seconds": round(time.perf_counter() - wall_started, 4),
        }
    )
    assert overhead <= OVERHEAD_GATE, (
        f"telemetry-enabled routing cost {overhead:.3f}x the disabled "
        f"baseline (gate {OVERHEAD_GATE}x)"
    )


def _deterministic_view(registry) -> tuple[dict, dict]:
    """The merged metrics under the bit-identity contract."""
    counters = {
        name: counter.value
        for name, counter in registry.counters.items()
        if name.startswith(DETERMINISTIC_PREFIXES)
    }
    histograms = {
        name: histogram.state() for name, histogram in registry.histograms.items()
    }
    return counters, histograms


def test_telemetry_shard_merge_bit_identity(workload):
    """Merged counters and histograms identical for workers {1, 2, 4},
    and the merged hop histogram equal to a serial run's."""
    graph, sources, keys = workload
    # A slice keeps the three full dispatches quick; still >> shard size.
    sources, keys = sources[:30_000], keys[:30_000]
    wall_started = time.perf_counter()

    telemetry.enable()
    serial = route_many(graph, sources, keys, workers=None)
    serial_hops = telemetry.get_registry().histogram("routing.hops").state()
    telemetry.disable()
    assert serial_hops == tuple(np.bincount(serial.hops).tolist())

    # The sharded front end shards even at one worker while telemetry is
    # on, so every worker count folds the same shard structure.
    metric = GreedyValueMetric(graph.ids, graph.space)
    views = {}
    for workers in (1, 2, 4):
        telemetry.enable()
        batch = frontier_route_many_parallel(
            graph.adjacency, metric, sources, keys, workers=workers
        )
        views[workers] = _deterministic_view(telemetry.get_registry())
        telemetry.disable()
        assert np.array_equal(batch.hops, serial.hops)
        assert views[workers][1] == {"routing.hops": serial_hops}, (
            f"workers={workers} merged routing.hops differs from the serial run"
        )

    counters_1 = views[1][0]
    assert counters_1, "expected routing counters from the sharded dispatch"
    for workers in (2, 4):
        assert views[workers][0] == counters_1, (
            f"workers={workers} merged counters diverge from workers=1"
        )
    print(
        f"\ntelemetry shard merge, {len(sources)} routes: counters and "
        f"histograms bit-identical for workers {{1, 2, 4}}; routing.hops "
        f"equals the serial run's"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "shard_merge_identity",
            "n": N_PEERS,
            "routes": len(sources),
            "cpus": _usable_cpus(),
            "workers_compared": [1, 2, 4],
            "bit_identical": True,
            "counters_compared": len(counters_1),
            "wall_seconds": round(time.perf_counter() - wall_started, 4),
        }
    )
