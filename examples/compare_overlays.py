#!/usr/bin/env python
"""Cross-DHT shoot-out on one skewed peer population.

Builds every overlay in the repository over the *same* skewed identifier
set and prints a side-by-side table of hop counts, routing-state sizes
and success rates — the paper's Section 1 survey, measured.  Every
comparator routes its whole workload over the shared batch frontier
kernel (measure_overlay_batch).

Run:  python examples/compare_overlays.py [skew]
      skew in [0, 1], default 0.8
"""

import sys

import numpy as np

from repro import build_naive_model, build_skewed_model, make_skewed
from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
    measure_overlay_batch,
)
from repro.core import sample_batch
from repro.overlay import summarize_lookups

N_PEERS = 1024
N_LOOKUPS = 500
SEED = 3


def main() -> None:
    strength = float(sys.argv[1]) if len(sys.argv) > 1 else 0.8
    rng = np.random.default_rng(SEED)
    dist = make_skewed("powerlaw", strength)
    ids = np.unique(dist.sample(N_PEERS, rng))
    while len(ids) < N_PEERS:
        ids = np.unique(np.concatenate([ids, dist.sample(N_PEERS - len(ids), rng)]))
    print(f"== {N_PEERS} peers, power-law skew strength {strength} ==\n")

    rows = []

    model = build_skewed_model(dist, rng=rng, ids=ids)
    stats = summarize_lookups(sample_batch(model, N_LOOKUPS, rng))
    rows.append(("small-world eq.(7)  [this paper]", stats,
                 float(np.mean(model.out_degrees()))))

    naive = build_naive_model(dist, rng=rng, ids=ids)
    stats = summarize_lookups(sample_batch(naive, N_LOOKUPS, rng))
    rows.append(("naive small-world   [no skew fix]", stats,
                 float(np.mean(naive.out_degrees()))))

    for name, overlay in [
        ("chord (raw ids)", ChordOverlay(ids)),
        ("chord (hashed)", ChordOverlay(ids, hashed=True)),
        ("pastry (raw ids)", PastryOverlay(ids, rng)),
        ("p-grid", PGridOverlay(ids, rng)),
        ("symphony k=4 (raw ids)", SymphonyOverlay(ids, rng, k=4)),
        ("mercury (sampled)", MercuryOverlay(ids, rng, sample_size=64)),
        ("can 2-d", CANOverlay(ids, dims=2)),
    ]:
        stats = measure_overlay_batch(
            overlay, N_LOOKUPS, rng,
            target_ids=getattr(overlay, "ids", None),
        )
        rows.append((name, stats, overlay.mean_table_size()))

    print(f"{'overlay':36s} {'hops':>7s} {'p95':>6s} {'state':>7s} {'success':>8s}")
    print("-" * 70)
    for name, stats, table in rows:
        print(
            f"{name:36s} {stats.mean_hops:7.2f} {stats.p95_hops:6.1f} "
            f"{table:7.1f} {stats.success_rate:8.2f}"
        )
    print(
        "\nreading guide: the eq. (7) model keeps O(log N) hops *and* "
        "O(log N) state at any skew;\nhash-based designs pay with lost key "
        "order, P-Grid with extra state, CAN with polynomial hops."
    )


if __name__ == "__main__":
    main()
