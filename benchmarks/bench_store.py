"""The persistent store: zero-rebuild loads that route bit-identically.

Two layers over :mod:`repro.store`:

* **parity** (always runs, any machine): a graph must route
  bit-identically after a save/load round trip — hops, the
  neighbour/long hop split (which the load derives, not reads),
  termination reasons, owners and paths.  Snapshots that change
  routing are corruption, not persistence.
* **load-vs-build gate** (always enforced): memmapping a 1e6-peer
  snapshot back must beat rebuilding the same graph by >= 100x.  The
  load maps the arrays with ``np.load(mmap_mode="r")`` and reads the
  ids, the row pointers and every edge target once, for its checks.
  The entry records the snapshot's bytes per array file, so the
  format's size has a trajectory too.

Every layer appends its measurements to
``benchmarks/results/BENCH_store.json`` so the trajectory records what
this machine could actually demonstrate.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.core import GraphConfig, build_uniform_model, route_many
from repro.store import load_graph, save_graph

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_store.json"

N_FULL = 1_000_000
N_PARITY = 4_096
N_ROUTES = 2_048
LOAD_GATE = 100.0


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
    for column in ("hops", "neighbor_hops", "long_hops", "reason_codes", "owners"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column
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
    array_bytes = {
        file.stem: file.stat().st_size for file in sorted((path / "arrays").glob("*.npy"))
    }

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
            "snapshot_array_bytes": array_bytes,
            "snapshot_bytes": sum(array_bytes.values()),
        }
    )
    assert speedup >= LOAD_GATE, (
        f"load reached only {speedup:.1f}x over build (gate {LOAD_GATE}x)"
    )
