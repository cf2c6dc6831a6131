"""The persistent store: zero-rebuild loads, zero-republish dispatch.

Three layers over :mod:`repro.store` and the owner-side arena cache:

* **parity** (always runs, any machine): a graph must route
  bit-identically after a save/load round trip — hops, owners, paths,
  the lot.  Snapshots that change routing are corruption, not
  persistence.
* **load-vs-build gate** (always enforced): memmapping a 1e6-peer
  snapshot back must beat rebuilding the same graph by >= 100x.  The
  load maps the arrays with ``np.load(mmap_mode="r")`` and reads the
  ids, the row pointers and every edge target once, for its checks.
* **repeat-dispatch gate** (``>= 2`` usable CPUs): with the arena cache
  leasing one published arena per graph, repeated pooled dispatch of
  small batches over a 1e5-peer graph must beat the per-call
  publish/unlink lifecycle (``reuse_arena=False``) by >= 2x.  The two
  lifecycles are timed in pairs, alternating which runs first, so host
  drift during the run falls on both sides.  Below 2 CPUs the parity of
  both paths is still asserted and recorded.

Every layer appends its measurements to
``benchmarks/results/BENCH_store.json`` so the trajectory records what
this machine could actually demonstrate.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np
import pytest

from repro.core import GraphConfig, build_uniform_model, route_many
from repro.core.batch_routing import _graph_metric
from repro.parallel import autotune, frontier_route_many_parallel, get_executor
from repro.store import load_graph, save_graph

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_store.json"

N_FULL = 1_000_000
N_DISPATCH = 100_000
N_PARITY = 4_096
N_ROUTES = 2_048
LOAD_GATE = 100.0
DISPATCH_GATE = 2.0
DISPATCH_REPEATS = 5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _record_trajectory(entry: dict) -> None:
    """Append one measurement to the persistent-store trajectory."""
    RESULTS_DIR.mkdir(exist_ok=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def test_store_parity_graph(tmp_path):
    """A save/load round trip must route bit-identically (always runs)."""
    rng = np.random.default_rng(11)
    graph = build_uniform_model(N_PARITY, rng, GraphConfig(out_degree=4))
    save_graph(graph, tmp_path / "graph")
    loaded = load_graph(tmp_path / "graph")
    sources = rng.integers(0, N_PARITY, N_ROUTES)
    keys = rng.random(N_ROUTES)
    a = route_many(graph, sources, keys, record_paths=True)
    b = route_many(loaded, sources, keys, record_paths=True)
    assert np.array_equal(a.hops, b.hops)
    assert np.array_equal(a.owners, b.owners)
    assert a.paths == b.paths
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "parity",
            "n": N_PARITY,
            "routes": N_ROUTES,
            "identical_after_round_trip": True,
        }
    )


def test_store_load_vs_build_1e6(tmp_path):
    """The PR gate: memmap load >= 100x faster than a 1e6-peer rebuild."""
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    graph = build_uniform_model(N_FULL, rng, GraphConfig(out_degree=8))
    _ = graph.adjacency  # CSR built inside the timed region: load gets it free
    build_seconds = time.perf_counter() - start

    path = tmp_path / "snapshot"
    save_graph(graph, path)

    start = time.perf_counter()
    loaded = load_graph(path)
    _ = loaded.adjacency
    load_seconds = time.perf_counter() - start

    # The loaded twin must actually route (parity spot check, untimed).
    sources = rng.integers(0, N_FULL, 256)
    keys = rng.random(256)
    a = route_many(graph, sources, keys)
    b = route_many(loaded, sources, keys)
    assert np.array_equal(a.hops, b.hops)
    assert np.array_equal(a.owners, b.owners)

    speedup = build_seconds / load_seconds
    print(
        f"\nstore load-vs-build, n={N_FULL}: build {build_seconds:.2f}s, "
        f"load {load_seconds * 1e3:.1f}ms, speedup {speedup:,.0f}x "
        f"(gate >= {LOAD_GATE:.0f}x)"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "load_vs_build_1e6",
            "n": N_FULL,
            "build_seconds": round(build_seconds, 4),
            "load_seconds": round(load_seconds, 6),
            "speedup": round(speedup, 1),
            "gate": LOAD_GATE,
            "gate_enforced": True,
            "identical_to_built": True,
        }
    )
    assert speedup >= LOAD_GATE, (
        f"load reached only {speedup:.1f}x over build (gate {LOAD_GATE}x)"
    )


def test_store_repeat_dispatch_arena_cache(monkeypatch):
    """Cached arena leasing >= 2x over per-call republish (needs 2 CPUs)."""
    # Small batches over a big graph: the operand publish is the cost
    # being amortised, so keep the per-call compute slice thin — two
    # 1024-route shards per call.
    monkeypatch.setattr(autotune, "DEFAULT_MIN_ITEMS", 1)
    monkeypatch.setattr(autotune, "MIN_CHUNK", 1024)
    rng = np.random.default_rng(5)
    # An in-memory graph, deliberately NOT store-loaded: republishing it
    # copies the CSR into fresh shm segments every call, which is the
    # cost the cache amortises.  (A store-loaded graph publishes as
    # file-backed specs, so even ``reuse_arena=False`` is near-free —
    # that zero-copy path is covered by the load-vs-build layer.)
    graph = build_uniform_model(N_DISPATCH, rng, GraphConfig(out_degree=8))
    csr = graph.adjacency
    metric = _graph_metric(graph, "key")
    sources = rng.integers(0, N_DISPATCH, N_ROUTES)
    keys = rng.random(N_ROUTES)
    executor = get_executor(2).warm()

    def run(reuse: bool):
        return frontier_route_many_parallel(
            csr, metric, sources, keys, executor=executor, reuse_arena=reuse
        )

    serial = route_many(graph, sources, keys)
    cached_result = run(True)  # warm-up: leases + workers attach once
    assert np.array_equal(cached_result.hops, serial.hops)
    assert np.array_equal(cached_result.owners, serial.owners)

    # One cached and one republishing call per pair, the order
    # alternating, so drift between pairs lands on both lifecycles.
    pairs = []
    for i in range(DISPATCH_REPEATS):
        timings = {}
        for reuse in (True, False) if i % 2 == 0 else (False, True):
            start = time.perf_counter()
            result = run(reuse)
            timings[reuse] = time.perf_counter() - start
            assert np.array_equal(result.hops, serial.hops)
        pairs.append((timings[True], timings[False]))
    cached_seconds = sum(cached for cached, _ in pairs)
    uncached_seconds = sum(republish for _, republish in pairs)

    cpus = _usable_cpus()
    speedup = uncached_seconds / cached_seconds
    gated = cpus >= 2
    print(
        f"\nstore repeat-dispatch, n={N_DISPATCH}, {DISPATCH_REPEATS}x"
        f"{N_ROUTES} routes, {cpus} usable cpu(s): cached "
        f"{cached_seconds:.3f}s, republish {uncached_seconds:.3f}s, "
        f"speedup {speedup:.2f}x (gate >= {DISPATCH_GATE}x "
        f"{'enforced' if gated else 'skipped: too few cpus'})"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "repeat_dispatch_cache",
            "n": N_DISPATCH,
            "routes": N_ROUTES,
            "repeats": DISPATCH_REPEATS,
            "cpus": cpus,
            "cached_seconds": round(cached_seconds, 4),
            "republish_seconds": round(uncached_seconds, 4),
            "pairs": [
                {"cached": round(cached, 5), "republish": round(republish, 5)}
                for cached, republish in pairs
            ],
            "speedup": round(speedup, 3),
            "gate": DISPATCH_GATE,
            "gate_enforced": gated,
            "identical_to_serial": True,
        }
    )
    if not gated:
        pytest.skip(
            f"repeat-dispatch gate needs >= 2 usable CPUs, host has {cpus}; "
            "parity of both lifecycles was asserted and recorded"
        )
    assert speedup >= DISPATCH_GATE, (
        f"cached dispatch reached only {speedup:.2f}x (gate {DISPATCH_GATE}x)"
    )
