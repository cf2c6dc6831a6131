#!/usr/bin/env python
"""Data-oriented scenario: an order-preserving key-value store with range queries.

This is the application from the paper's introduction: semantic data
processing needs *order-preserving* keys (no hashing!), which makes the
key space skewed — here a Zipf-distributed dictionary of terms.  The
script shows the full pipeline a deployment would run:

1. generate a skewed, ordered key corpus (Zipf terms);
2. place peers by *sampling stored keys* (the Section 4.1 load-balancing
   mechanism — no knowledge of the distribution needed);
3. check that storage load is balanced despite the skew;
4. build the eq. (7) small-world overlay over those peers, using a CDF
   *estimated from the stored keys* (not the analytic truth);
5. serve point lookups and range scans, counting overlay hops.

Run:  python examples/semantic_range_store.py
"""

import numpy as np

from repro import Empirical, build_skewed_model, route_many
from repro.loadbalance import sampled_key_placement, storage_loads, summarize_loads
from repro.workloads import range_queries, zipf_corpus, zipf_point_queries

N_KEYS = 50_000
N_PEERS = 512
N_POINT_QUERIES = 500
N_RANGE_QUERIES = 100
SEED = 13


def serve_point_queries(graph, queries, rng):
    """Route every query from a random peer, in one batch; return mean hops."""
    sources = rng.integers(graph.n, size=len(queries))
    batch = route_many(graph, sources, np.asarray(queries, dtype=float))
    assert batch.success.all()
    return float(np.mean(batch.hops))


def serve_range_queries(graph, ranges, rng):
    """Route to every range's start in one batch, then walk successors.

    Order preservation makes ranges cheap: one lookup plus a sequential
    walk over exactly the peers whose intervals intersect the range.
    """
    sources = rng.integers(graph.n, size=len(ranges))
    batch = route_many(graph, sources, ranges[:, 0])
    assert batch.success.all()
    scan_hops = []
    for owner, hi in zip(batch.owners, ranges[:, 1]):
        peer = int(owner)
        walked = 0
        while peer + 1 < graph.n and graph.ids[peer + 1] <= hi:
            peer += 1
            walked += 1
        scan_hops.append(walked)
    return float(np.mean(batch.hops)), float(np.mean(scan_hops))


def main() -> None:
    rng = np.random.default_rng(SEED)

    print("== 1. skewed ordered corpus (Zipf terms) ==")
    keys = zipf_corpus(N_KEYS, rng, n_items=1024, exponent=1.1)
    top_cell = float(np.mean(keys < 1.0 / 1024))
    print(f"{N_KEYS} keys over 1024 ordered terms; hottest term holds "
          f"{100 * top_cell:.1f}% of all keys\n")

    print("== 2./3. data-driven peer placement and storage balance ==")
    peer_ids = sampled_key_placement(keys, N_PEERS, rng)
    balance = summarize_loads(storage_loads(peer_ids, keys))
    print(f"{N_PEERS} peers placed by sampling stored keys:")
    print(f"  keys/peer: mean {balance.mean:.1f}, max/mean "
          f"{balance.max_mean_ratio:.1f}, gini {balance.gini:.3f}, "
          f"empty peers {100 * balance.empty_fraction:.1f}%\n")

    print("== 4. eq. (7) overlay with an *estimated* CDF ==")
    # Peers don't know the Zipf law; they estimate F from sampled keys.
    estimate = Empirical(keys[rng.integers(0, len(keys), size=2000)])
    graph = build_skewed_model(estimate, rng=rng, ids=peer_ids)
    print(f"overlay built: {graph.n} peers, "
          f"{graph.total_long_links()} long links "
          f"(~{graph.total_long_links() / graph.n:.1f} per peer)\n")

    print("== 5. serving the workload ==")
    point_qs = zipf_point_queries(keys, N_POINT_QUERIES, rng, exponent=1.0)
    mean_point = serve_point_queries(graph, point_qs, rng)
    print(f"point lookups (popularity-skewed): {mean_point:.2f} overlay hops "
          f"(log2 N = {np.log2(N_PEERS):.0f})")

    ranges = range_queries(N_RANGE_QUERIES, rng, mean_width=0.01, center_keys=keys)
    mean_lookup, mean_scan = serve_range_queries(graph, ranges, rng)
    print(f"range scans: {mean_lookup:.2f} hops to the range start, then "
          f"{mean_scan:.1f} sequential peers per scan")
    print("\norder preservation + skew-adapted links: both query kinds are "
          "cheap, with balanced storage — the paper's motivating trifecta.")


if __name__ == "__main__":
    main()
