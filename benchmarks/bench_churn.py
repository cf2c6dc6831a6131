"""E9 — Sec. 3.1 robustness: link loss, peer failure, live churn (+ gates).

Three parts:

* the E9 robustness tables and damage kernels (as before, now including
  the E9c live-churn table);
* the bulk live-overlay engine's churn-throughput gate — one 10%%
  leave/join/repair round at n=1e5 on the array engine, against a
  scaled scalar-engine workload on the *same* population (the scalar
  reference cannot finish a full round in bench time) — must be >= 5x
  the scalar events/sec;
* a full-size sustain run: several 10%% churn rounds at n=1e5 with
  batch-routed lookup checks; each round also times
  ``Network.snapshot()`` separately (``events_per_sec`` still counts
  leave/join/repair only), and the last snapshot must equal the
  search-only oracle in ``tests/snapshot_oracle.py``.

Each gated run appends a trajectory entry to
``benchmarks/results/BENCH_churn.json`` so churn throughput is tracked
across PRs.  ``ci.sh`` runs the gates as a smoke via ``-k bulk``.
"""

import json
import pathlib
import sys
import time

import numpy as np

from repro.core import build_uniform_model, sample_batch
from repro.distributions import Uniform
from repro.experiments import run_experiment
from repro.overlay import (
    Network,
    bulk_join,
    bulk_leave,
    bulk_repair,
    drop_long_links,
    join_known_f,
    measure_network,
    refresh_peer,
    sample_cohort_ids,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from snapshot_oracle import assert_snapshot_matches  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_churn.json"

N_SUSTAIN = 100_000
CHURN_FRACTION = 0.10
SCALAR_EVENTS = 100  # scalar reference workload at n=1e5 (it cannot do 10%)


def _record_trajectory(entry: dict) -> None:
    """Append one measurement to the churn-throughput trajectory."""
    RESULTS_DIR.mkdir(exist_ok=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def _scalar_churn_events(net: Network, dist, n_events: int, rng) -> None:
    """Run ``n_events`` churn events (half leaves, half joins + refresh)
    through the per-peer reference protocols."""
    half = n_events // 2
    ids = net.ids_array()
    for idx in rng.choice(len(ids), size=half, replace=False):
        net.remove_peer(float(ids[idx]))
    for _ in range(half):
        peer_id = float(dist.sample(1, rng)[0])
        while peer_id in net:
            peer_id = float(dist.sample(1, rng)[0])
        join_known_f(net, dist, rng, peer_id=peer_id)
        refresh_peer(net, net.random_peer(rng), rng, distribution=dist)


def _bulk_churn_round(net: Network, dist, fraction: float, rng) -> int:
    """One bulk churn round: ``fraction`` leaves + joins, then repair."""
    ids = net.ids_array()
    n_churn = int(round(fraction * len(ids)))
    bulk_leave(net, rng.choice(ids, size=n_churn, replace=False))
    cohort = sample_cohort_ids(net, dist, n_churn, rng)
    bulk_join(net, cohort, dist, rng)
    bulk_repair(net, rng, distribution=dist, fraction=fraction, refresh=True)
    return 2 * n_churn


def test_bulk_churn_speedup_over_scalar():
    """The bulk engine must churn >= 5x the scalar events/sec at n=1e5."""
    dist = Uniform()
    graph = build_uniform_model(n=N_SUSTAIN, rng=np.random.default_rng(1))

    scalar_net = Network.from_graph(graph, engine="scalar")
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    _scalar_churn_events(scalar_net, dist, SCALAR_EVENTS, rng)
    scalar_seconds = time.perf_counter() - start
    scalar_eps = SCALAR_EVENTS / scalar_seconds

    bulk_net = Network.from_graph(graph, engine="array")
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    bulk_events = _bulk_churn_round(bulk_net, dist, CHURN_FRACTION, rng)
    bulk_seconds = time.perf_counter() - start
    bulk_eps = bulk_events / bulk_seconds

    speedup = bulk_eps / scalar_eps
    print(
        f"\nchurn throughput, n={N_SUSTAIN}: scalar {scalar_eps:,.0f} events/s "
        f"({SCALAR_EVENTS} events in {scalar_seconds:.2f}s), bulk "
        f"{bulk_eps:,.0f} events/s ({bulk_events} events in {bulk_seconds:.2f}s), "
        f"speedup {speedup:.1f}x"
    )

    # Both engines must leave a healthy population before speed counts.
    assert scalar_net.n == N_SUSTAIN
    assert bulk_net.n == N_SUSTAIN
    # Dangling links stay bounded by one round's orphans (each departure
    # leaves ~log2(N) in-links dangling); they do not accumulate beyond it.
    orphan_budget = bulk_events * (np.log2(N_SUSTAIN) + 1)
    assert bulk_net.dangling_link_count() < orphan_budget
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "bulk_vs_scalar_churn",
            "n": N_SUSTAIN,
            "scalar_events": SCALAR_EVENTS,
            "scalar_seconds": round(scalar_seconds, 4),
            "bulk_events": bulk_events,
            "bulk_seconds": round(bulk_seconds, 4),
            "speedup": round(speedup, 2),
        }
    )
    assert speedup >= 5.0


def test_bulk_churn_sustains_hundred_k():
    """Sustain n=1e5 with 10% churn per round; lookups must stay perfect."""
    dist = Uniform()
    rng = np.random.default_rng(7)
    net = Network.from_graph(build_uniform_model(n=N_SUSTAIN, rng=rng))

    rounds = 3
    events = 0
    seconds = 0.0
    snapshot_seconds = []
    for _ in range(rounds):
        start = time.perf_counter()
        events += _bulk_churn_round(net, dist, CHURN_FRACTION, rng)
        seconds += time.perf_counter() - start
        start = time.perf_counter()
        snap = net.snapshot()
        snapshot_seconds.append(time.perf_counter() - start)
    assert_snapshot_matches(net, snap)

    stats = measure_network(net, 2000, rng)
    final_repair = bulk_repair(net, rng, distribution=dist)
    print(
        f"\nhundred-k sustain: {rounds} rounds of {CHURN_FRACTION:.0%} churn "
        f"({events} events) in {seconds:.1f}s ({events / seconds:,.0f} events/s), "
        f"snapshot {sum(snapshot_seconds) / rounds:.3f}s/round, "
        f"lookup success {stats.success_rate:.3f}, mean hops {stats.mean_hops:.2f}"
    )
    assert net.n == N_SUSTAIN
    assert stats.success_rate == 1.0
    assert stats.mean_hops < np.log2(N_SUSTAIN) ** 2
    assert net.dangling_link_count() == 0  # full repair round cleans up
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "hundred_k_sustain",
            "n": N_SUSTAIN,
            "rounds": rounds,
            "events": events,
            "seconds": round(seconds, 2),
            "events_per_sec": round(events / seconds, 1),
            "snapshot_seconds": [round(t, 4) for t in snapshot_seconds],
            "mean_hops": round(stats.mean_hops, 2),
            "stale_purged": final_repair.stale_purged,
        }
    )


def test_e9_tables(benchmark, table_sink):
    """Regenerate the E9 robustness tables (incl. the E9c churn table)."""
    tables = benchmark.pedantic(
        lambda: run_experiment("E9", seed=0, quick=True), rounds=1, iterations=1
    )
    table_sink("E9", tables)
    loss_rows = tables[0].rows
    # Neighbour edges intact => lookups always deliver.
    assert all(row["success"] == 1.0 for row in loss_rows)
    # Graceful degradation: hops grow with loss but stay under polylog
    # until the extreme end of the sweep.
    assert loss_rows[-1]["hops"] > loss_rows[0]["hops"]
    assert loss_rows[1]["hops"] < loss_rows[1]["polylog"]
    # Live churn: the splice keeps delivery perfect every epoch.
    churn_rows = tables[2].rows
    assert all(row["success"] == 1.0 for row in churn_rows)
    assert all(row["hops"] < row["polylog"] for row in churn_rows)


def test_drop_links_kernel(benchmark, rng):
    """Kernel: copy-and-damage a 2048-peer graph (50% link loss)."""
    graph = build_uniform_model(n=2048, rng=rng)
    damaged = benchmark(lambda: drop_long_links(graph, 0.5, rng))
    assert damaged.total_long_links() < graph.total_long_links()


def test_route_on_damaged_graph(benchmark, rng):
    """Kernel: 200 batched lookups at 80% long-link loss (the degraded regime)."""
    graph = drop_long_links(build_uniform_model(n=1024, rng=rng), 0.8, rng)
    _ = graph.adjacency  # build the CSR outside the timed region
    result = benchmark.pedantic(
        lambda: sample_batch(graph, 200, rng), rounds=1, iterations=1
    )
    assert result.success.all()


def test_bulk_churn_round_kernel(benchmark, rng):
    """Kernel: one 10% bulk churn round on a 16k-peer overlay."""
    net = Network.from_graph(build_uniform_model(n=16_384, rng=rng))
    events = benchmark.pedantic(
        lambda: _bulk_churn_round(net, Uniform(), CHURN_FRACTION, rng),
        rounds=3,
        iterations=1,
    )
    assert events > 0
    assert net.n == 16_384