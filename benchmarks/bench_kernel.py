"""Frontier kernel cost: linear rounds on three graphs, search vs linear rounds.

A round has two kinds.  The linear round gathers the frontier's
adjacency rows into one flat segmented candidate vector, so it costs in
proportion to the frontier's *total* degree.  A dense ``(walks,
max_degree)`` lane matrix instead makes every walk pay hub-width scoring
whenever one hub row is in the frontier; ``test_hub_rows_do_not_tax_every_walk``
gates that such a cost never comes back, without comparing hosts: on a
ring whose long-link out-degree is heavy-tailed (median ~6, a 1% tier
at 64 links, a 0.1% tier of 256-link hubs), the seconds per gathered
candidate must stay within ``CANDIDATE_COST_GATE`` times those of a
degree-uniform ring, measured in the same process.  These rings draw
their long links with ``rng.integers``, so their rows are unsorted and
every round is linear.  Three graphs, 16,384 routes each:

* ``uniform`` — 25,000 peers, exactly 8 long links each (fill 1.0);
* ``pastry`` — a 2*10^4-peer Pastry overlay (near-uniform degrees);
* ``skewed`` — the 10^5-peer heavy-tailed ring (fill ~0.034).

The search round binary-searches rows whose long links are sorted
(:meth:`repro.core.metric_routing.StreamFrontier._search`).
``test_search_round_pays_on_sorted_rows`` times it against the linear
round, one process, best of 5, the runs alternating:

* ``uniform_sorted`` / ``skewed_sorted`` — the two rings again with each
  row sorted and deduplicated.  On the skewed ring the search round must
  beat the linear round, and its seconds per walk-round must stay within
  ``WALK_ROUND_COST_GATE`` times the uniform ring's: a hub row costs the
  log of its degree, and only to the walks standing on it;
* ``churn_shaped`` — the ``churn`` workload's routing: a 2*10^5-peer
  unidirectional eq. (7) graph (degree 20), routed in 1000-walk
  batches.  The rounds the kernel picks there must be no slower than
  linear rounds throughout.

Correctness comes before any timing: on a 512-route sample of each
graph the kernel's outcomes must equal a scalar reference — the
per-walk oracle in ``tests/frontier_oracle.py`` for the rings (search
rounds forced on the sorted ones) and the churn graph, and Pastry's
per-lookup loop in ``tests/route_oracle.py`` for Pastry.  Every measured row appends to
``benchmarks/results/BENCH_kernel.json``.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import sys
import time
from unittest import mock

import numpy as np

from repro.baselines import PastryOverlay, route_many_overlay, sample_overlay_lookups
from repro.core import builder, metric_routing
from repro.core.adjacency import csr_from_flat_links
from repro.core.bulk_construction import split_rows
from repro.core.metric_routing import (
    REASON_STUCK,
    GreedyValueMetric,
    frontier_route_many,
)
from repro.distributions import PowerLaw
from repro.keyspace import RingSpace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from frontier_oracle import assert_batch_matches, oracle_batch  # noqa: E402
from route_oracle import scalar_twin  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
TRAJECTORY = RESULTS_DIR / "BENCH_kernel.json"

N_SKEWED = 100_000
N_UNIFORM = 25_000
N_PASTRY = 20_000
N_ROUTES = 16_384
N_CHECKED = 512
#: Skewed-graph seconds per candidate over the uniform graph's.
CANDIDATE_COST_GATE = 2.0
#: Sorted skewed ring's search-round seconds per walk-round over the
#: sorted uniform ring's.
WALK_ROUND_COST_GATE = 2.0
N_CHURN = 200_000
CHURN_BATCH = 1000  # lookups per route_many call in the churn workload
CHURN_ROUTES = 20_000
REPEATS = 5  # best-of to shrug off container noise


def _record_trajectory(entry: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")


def _ring(long_counts, rng, sort_rows=False):
    n = len(long_counts)
    long_flat = rng.integers(0, n, size=int(long_counts.sum()))
    if sort_rows:
        # The bulk builders' row form: each row sorted and distinct.
        sources = np.repeat(np.arange(n, dtype=np.int64), long_counts)
        indptr, long_flat = split_rows(np.unique(sources * n + long_flat), n)
        long_counts = np.diff(indptr)
    csr = csr_from_flat_links(n, True, long_counts, long_flat)
    return csr, GreedyValueMetric(np.sort(rng.random(n)), RingSpace())


@contextlib.contextmanager
def _rounds(kind: str):
    """Route with every exact round searched, every round linear, or as
    the kernel picks (``"search"``, ``"linear"``, ``"picked"``)."""
    bound = {
        "search": -(1 << 62),
        "linear": 1 << 62,
        "picked": metric_routing._SEARCH_MIN_CANDIDATES,
    }[kind]
    with mock.patch.object(metric_routing, "_SEARCH_MIN_CANDIDATES", bound):
        yield


def _ring_workload(long_counts, rng, sort_rows=False):
    csr, metric = _ring(long_counts, rng, sort_rows)
    sources = rng.integers(0, csr.n, size=N_ROUTES)
    keys = rng.random(N_ROUTES)

    def check():
        s, k = sources[:N_CHECKED], keys[:N_CHECKED]
        with _rounds("search"):
            batch = frontier_route_many(csr, metric, s, k, record_paths=True)
        assert_batch_matches(batch, oracle_batch(csr, metric, s, k))

    return csr, metric, sources, keys, check


def _uniform_workload(rng, sort_rows=False):
    return _ring_workload(np.full(N_UNIFORM, 8), rng, sort_rows)


def _skewed_workload(rng, sort_rows=False):
    long_counts = rng.integers(4, 9, size=N_SKEWED)  # median ~6
    tier = rng.random(N_SKEWED)
    long_counts[tier < 0.01] = 64
    long_counts[tier < 0.001] = 256
    return _ring_workload(long_counts, rng, sort_rows)


def _pastry_workload(rng):
    overlay = PastryOverlay(np.sort(rng.random(N_PASTRY)), rng)
    csr, metric = overlay._frontier()
    sources, keys = sample_overlay_lookups(overlay, N_ROUTES, rng, targets="uniform")

    def check():
        s, k = sources[:N_CHECKED], keys[:N_CHECKED]
        batch = route_many_overlay(overlay, s, k, record_paths=True)
        oracle = scalar_twin(overlay)
        scalar = [oracle.route(int(a), float(b)) for a, b in zip(s, k)]
        assert batch.paths == [r.path for r in scalar]
        for col, attr in (
            ("success", "success"), ("hops", "hops"),
            ("neighbor_hops", "neighbor_hops"), ("long_hops", "long_hops"),
            ("reasons", "reason"), ("owners", "owner"),
        ):
            assert list(getattr(batch, col)) == [getattr(r, attr) for r in scalar], col

    return csr, metric, sources, keys, check


def _measure(graphs: dict) -> dict:
    """Best-of-``REPEATS`` timing per graph, the graphs taking turns.

    Alternating the graphs inside each repeat exposes them to the same
    host drift, which the skewed/uniform ratio would otherwise absorb.
    """
    runs = {}
    for name, (csr, metric, sources, keys, check) in graphs.items():
        check()  # speed on a wrong answer is worthless
        runs[name] = (csr, metric, sources, keys, metric.prepare(keys))
    best = dict.fromkeys(runs, float("inf"))
    batches = {}
    for _ in range(REPEATS):
        for name, (csr, metric, sources, keys, state) in runs.items():
            start = time.perf_counter()
            batches[name] = frontier_route_many(csr, metric, sources, keys, prepared=state)
            best[name] = min(best[name], time.perf_counter() - start)
    rows = {}
    for name, batch in batches.items():
        candidates = batch.candidates_seen
        rows[name] = {
            "graph": name,
            "n": runs[name][0].n,
            "routes": len(batch),
            "routes_per_sec": len(batch) / best[name],
            "fill_ratio": candidates / batch.padded_slots_seen,
            "candidates": candidates,
            "ns_per_candidate": best[name] / candidates * 1e9,
            "success_rate": batch.success_rate,
        }
    return rows


def test_hub_rows_do_not_tax_every_walk(rng):
    """The gate: skewed seconds per candidate <= 2x the uniform graph's."""
    graphs = {
        "uniform": _uniform_workload(rng),
        "pastry": _pastry_workload(rng),
        "skewed": _skewed_workload(rng),
    }
    rows = _measure(graphs)
    for row in rows.values():
        print(
            f"\n{row['graph']:>8}: n={row['n']}, {row['routes']} routes, "
            f"{row['routes_per_sec']:,.0f} routes/s, fill {row['fill_ratio']:.3f}, "
            f"{row['ns_per_candidate']:.1f} ns/candidate",
            end="",
        )
    ratio = rows["skewed"]["ns_per_candidate"] / rows["uniform"]["ns_per_candidate"]
    print(f"\nskewed/uniform cost per candidate {ratio:.2f}x (gate <= {CANDIDATE_COST_GATE}x)")
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "cost_per_candidate",
            "graphs": list(rows.values()),
            "skewed_over_uniform": ratio,
            "identical": True,
            "gate": CANDIDATE_COST_GATE,
        }
    )
    assert rows["uniform"]["fill_ratio"] == 1.0
    assert rows["skewed"]["success_rate"] == 1.0
    assert ratio <= CANDIDATE_COST_GATE, (
        f"skewed-degree rounds cost {ratio:.2f}x the uniform graph per candidate, "
        f"above the {CANDIDATE_COST_GATE}x gate"
    )


def _walk_rounds(batch) -> int:
    """Walk-rounds a batch scored: one per hop, plus each stuck walk's last."""
    return int(batch.hops.sum() + np.count_nonzero(batch.reason_codes == REASON_STUCK))


def _time_kinds(route, kinds) -> dict:
    """Best-of-``REPEATS`` seconds of ``route()`` per round kind, alternating."""
    best = dict.fromkeys(kinds, float("inf"))
    for _ in range(REPEATS):
        for kind in kinds:
            with _rounds(kind):
                start = time.perf_counter()
                route()
                best[kind] = min(best[kind], time.perf_counter() - start)
    return best


def _churn_workload(rng):
    graph = builder.build_skewed_model(PowerLaw(alpha=1.5), n=N_CHURN, rng=rng)
    csr = graph.adjacency
    metric = GreedyValueMetric(graph.ids, graph.space)
    sources = rng.integers(0, csr.n, size=CHURN_ROUTES)
    keys = PowerLaw(alpha=1.5).sample(CHURN_ROUTES, rng)
    s, k = sources[:N_CHECKED], keys[:N_CHECKED]
    with _rounds("picked"):
        batch = frontier_route_many(csr, metric, s, k, record_paths=True)
    assert_batch_matches(batch, oracle_batch(csr, metric, s, k))

    def route():
        for lo in range(0, CHURN_ROUTES, CHURN_BATCH):
            hi = lo + CHURN_BATCH
            frontier_route_many(csr, metric, sources[lo:hi], keys[lo:hi])

    return csr, route


def test_search_round_pays_on_sorted_rows(rng):
    """The gates: on sorted rows the search round beats the linear round on
    the skewed ring, prices hub rows by log-degree (skewed seconds per
    walk-round <= 2x the uniform ring's), and the kernel's own choice on
    churn-shaped batches is no slower than linear rounds."""
    rows = {}
    for name, (csr, metric, sources, keys, check) in (
        ("uniform_sorted", _uniform_workload(rng, sort_rows=True)),
        ("skewed_sorted", _skewed_workload(rng, sort_rows=True)),
    ):
        assert csr.tails_sorted
        check()  # speed on a wrong answer is worthless
        state = metric.prepare(keys)
        batch = frontier_route_many(csr, metric, sources, keys, prepared=state)
        best = _time_kinds(
            lambda: frontier_route_many(csr, metric, sources, keys, prepared=state),
            ("search", "linear"),
        )
        walk_rounds = _walk_rounds(batch)
        rows[name] = {
            "graph": name,
            "n": csr.n,
            "routes": len(batch),
            "walk_rounds": walk_rounds,
            "search_routes_per_sec": len(batch) / best["search"],
            "linear_routes_per_sec": len(batch) / best["linear"],
            "search_ns_per_walk_round": best["search"] / walk_rounds * 1e9,
            "linear_ns_per_walk_round": best["linear"] / walk_rounds * 1e9,
            "search_over_linear_speedup": best["linear"] / best["search"],
            "success_rate": batch.success_rate,
        }
    csr, route = _churn_workload(rng)
    best = _time_kinds(route, ("picked", "linear"))
    rows["churn_shaped"] = {
        "graph": "churn_shaped",
        "n": csr.n,
        "routes": CHURN_ROUTES,
        "batch": CHURN_BATCH,
        "mean_degree": csr.n_edges / csr.n,
        "picked_routes_per_sec": CHURN_ROUTES / best["picked"],
        "linear_routes_per_sec": CHURN_ROUTES / best["linear"],
        "picked_over_linear_speedup": best["linear"] / best["picked"],
    }
    for row in rows.values():
        print(f"\n{row['graph']:>15}: " + ", ".join(
            f"{key} {value:,.2f}" if isinstance(value, float) else f"{key} {value}"
            for key, value in row.items() if key != "graph"
        ), end="")
    skewed, uniform = rows["skewed_sorted"], rows["uniform_sorted"]
    walk_round_ratio = (
        skewed["search_ns_per_walk_round"] / uniform["search_ns_per_walk_round"]
    )
    print(
        f"\nskewed search/linear speedup {skewed['search_over_linear_speedup']:.2f}x, "
        f"skewed/uniform search cost per walk-round {walk_round_ratio:.2f}x "
        f"(gate <= {WALK_ROUND_COST_GATE}x), churn-shaped picked/linear speedup "
        f"{rows['churn_shaped']['picked_over_linear_speedup']:.2f}x"
    )
    _record_trajectory(
        {
            "timestamp": time.time(),
            "kind": "search_vs_linear",
            "graphs": list(rows.values()),
            "skewed_over_uniform_per_walk_round": walk_round_ratio,
            "identical": True,
            "gate": WALK_ROUND_COST_GATE,
        }
    )
    assert skewed["success_rate"] == 1.0
    assert skewed["search_over_linear_speedup"] > 1.0, (
        "search rounds lost to linear rounds on the sorted skewed ring"
    )
    assert walk_round_ratio <= WALK_ROUND_COST_GATE, (
        f"skewed-ring search rounds cost {walk_round_ratio:.2f}x the uniform "
        f"ring per walk-round, above the {WALK_ROUND_COST_GATE}x gate"
    )
    assert rows["churn_shaped"]["picked_over_linear_speedup"] >= 1.0, (
        "the kernel's rounds on churn-shaped batches were slower than linear rounds"
    )
