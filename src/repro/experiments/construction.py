"""E10 — the Section 4.2 network-construction protocols.

Three ways to arrive at "the same" overlay over a skewed population:

1. *offline* — the idealised builder of Theorem 2 (ground truth);
2. *known-f joins* — peers join one by one, each knowing ``f`` exactly
   (the paper's straightforward protocol);
3. *bulk cohort joins* — the same known-``f`` protocol run by the bulk
   overlay engine (:func:`repro.overlay.bulk_bootstrap`): whole cohorts
   join per vectorized round, reproducing the per-join degree profile;
4. *adaptive joins* — peers estimate ``f`` from sampled identifiers; the
   estimate quality is controlled by the per-join sample budget, and
   maintenance rounds let early joiners re-learn as the network grows.

The experiment prices each protocol (join hops) and scores the resulting
networks (lookup hops), sweeping the adaptive sample budget.  Live
networks are measured over the batch frontier
(:func:`repro.overlay.measure_network` routes a snapshot through
:func:`repro.core.route_many`).

Join/repair costs come in two conventions — the scalar protocols price
every link in *routed lookup hops* while the bulk engine resolves by
*ownership search* (no routed hops); each row's convention is recorded
in the table notes, and one bulk repair round is re-priced in the routed
convention (``cost_model="routed"``) for a like-for-like comparison.
"""

from __future__ import annotations

import numpy as np

from repro.core import build_skewed_model, sample_batch
from repro.distributions import PowerLaw
from repro.experiments.report import Column, ResultTable
from repro.overlay import (
    bootstrap_network,
    bulk_bootstrap,
    maintenance_round,
    measure_network,
    summarize_lookups,
)

__all__ = ["run_e10"]


def run_e10(seed: int = 0, quick: bool = False) -> ResultTable:
    """E10: offline vs known-f vs adaptive construction quality and cost."""
    rng = np.random.default_rng(seed)
    n = 128 if quick else 512
    n_lookups = 200 if quick else 1000
    dist = PowerLaw(alpha=1.5, shift=1e-3)

    table = ResultTable(
        title=f"E10 (Sec. 4.2): construction protocols, powerlaw, N={n}",
        columns=[
            Column("protocol", "protocol"),
            Column("hops", "lookup hops", ".2f"),
            Column("p95", "p95", ".1f"),
            Column("success", "success", ".3f"),
            Column("join_hops", "mean join hops", ".1f"),
            Column("links", "mean long links", ".1f"),
        ],
    )

    offline = build_skewed_model(dist, n=n, rng=rng)
    offline_stats = summarize_lookups(sample_batch(offline, n_lookups, rng))
    table.add_row(
        protocol="offline (Theorem 2)",
        hops=offline_stats.mean_hops,
        p95=offline_stats.p95_hops,
        success=offline_stats.success_rate,
        join_hops=float("nan"),
        links=float(np.mean([len(l) for l in offline.long_links])),
    )

    known_net, known_receipts = bootstrap_network(dist, n, rng, protocol="known")
    known_stats = measure_network(known_net, n_lookups, rng)
    table.add_row(
        protocol="known-f joins",
        hops=known_stats.mean_hops,
        p95=known_stats.p95_hops,
        success=known_stats.success_rate,
        join_hops=float(np.mean([r.lookup_hops for r in known_receipts[8:]])),
        links=known_net.mean_long_degree(),
    )

    bulk_net = bulk_bootstrap(dist, n, rng)
    bulk_stats = measure_network(bulk_net, n_lookups, rng)
    table.add_row(
        protocol="bulk cohort joins",
        hops=bulk_stats.mean_hops,
        p95=bulk_stats.p95_hops,
        success=bulk_stats.success_rate,
        join_hops=float("nan"),  # targets resolve by ownership, not lookups
        links=bulk_net.mean_long_degree(),
    )

    # One full bulk repair round priced in the scalar routed-hop
    # convention — what the ownership-resolved rows above would have
    # cost if every installed link were a routed lookup.
    repair = maintenance_round(
        bulk_net, rng, distribution=dist, cost_model="routed"
    )
    repaired_stats = measure_network(bulk_net, n_lookups, rng)
    table.add_row(
        protocol="bulk + repair round (routed cost)",
        hops=repaired_stats.mean_hops,
        p95=repaired_stats.p95_hops,
        success=repaired_stats.success_rate,
        join_hops=repair.lookup_hops / max(1, repair.peers_refreshed),
        links=bulk_net.mean_long_degree(),
    )

    budgets = [16, 64] if quick else [16, 64, 256]
    for budget in budgets:
        net, receipts = bootstrap_network(
            dist, n, rng, protocol="adaptive", sample_size=budget
        )
        stats = measure_network(net, n_lookups, rng)
        table.add_row(
            protocol=f"adaptive joins (s={budget})",
            hops=stats.mean_hops,
            p95=stats.p95_hops,
            success=stats.success_rate,
            join_hops=float(np.mean([r.lookup_hops for r in receipts[8:]])),
            links=net.mean_long_degree(),
        )
        if budget == budgets[-1]:
            # One estimate-driven maintenance round: early joiners re-learn
            # f from today's (larger) population.
            maintenance_round(net, rng, distribution=None, sample_size=budget)
            refreshed = measure_network(net, n_lookups, rng)
            table.add_row(
                protocol=f"adaptive (s={budget}) + 1 maintenance round",
                hops=refreshed.mean_hops,
                p95=refreshed.p95_hops,
                success=refreshed.success_rate,
                join_hops=float("nan"),
                links=net.mean_long_degree(),
            )
    table.add_note(
        "expectation: known-f joins match the offline build, and the bulk "
        "cohort engine matches known-f joins (same protocol, vectorized); "
        "adaptive joins converge as the sample budget grows; a maintenance "
        "round closes most of the remaining gap (early joiners re-estimate f)"
    )
    table.add_note(
        "cost conventions: known-f/adaptive join_hops are routed lookup hops "
        "(the scalar protocol pays per link); bulk cohort rows resolve links "
        "by ownership search (no routed hops, join_hops = nan); the 'routed "
        "cost' repair row re-prices one full bulk round per-peer in the "
        "scalar convention (repro.overlay.bulk_repair cost_model='routed')"
    )
    return table
