"""E13 — design-choice ablations (DESIGN.md §6).

One table isolating every engineering decision the reproduction made on
top of the paper's mathematics, so each can be priced:

* **sampler** — fast inverse-CDF draw vs exact ``1/d'`` weight vector;
* **dedupe** — distinct long-link targets vs the literal i.i.d. model;
* **cutoff** — the paper's ``1/N`` mass cutoff vs (almost) none;
* **bidirectional** — installing reverse long links (an engineering
  variant used by deployed DHTs) vs the paper's directed graph;
* **routing** — plain greedy vs neighbour-of-neighbour lookahead
  (Manku et al., the paper's ref. [10]);
* **metric** — greedy on raw key distance vs CDF-normalised distance.

All variants are built over the *same* skewed peer population so the
differences are attributable to the knob alone.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    GraphConfig,
    build_skewed_model,
    lookahead_route,
    sample_batch,
)
from repro.distributions import PowerLaw
from repro.experiments.report import Column, ResultTable
from repro.overlay import summarize_lookups

__all__ = ["run_e13"]


def _measure(graph, n_routes, rng, metric="key"):
    stats = summarize_lookups(sample_batch(graph, n_routes, rng, metric=metric))
    return stats


def run_e13(seed: int = 0, quick: bool = False) -> ResultTable:
    """E13: price every construction/routing knob on one skewed population."""
    rng = np.random.default_rng(seed)
    n = 512 if quick else 2048
    n_routes = 250 if quick else 1200
    dist = PowerLaw(alpha=1.8, shift=1e-4)
    ids = np.sort(dist.sample(n, rng))

    table = ResultTable(
        title=f"E13 (DESIGN §6): design-choice ablations, powerlaw, N={n}",
        columns=[
            Column("variant", "variant"),
            Column("hops", "mean hops", ".2f"),
            Column("p95", "p95", ".1f"),
            Column("links", "long links/peer", ".1f"),
            Column("success", "success", ".3f"),
        ],
    )

    def add(name, graph, metric="key"):
        stats = _measure(graph, n_routes, rng, metric=metric)
        table.add_row(
            variant=name,
            hops=stats.mean_hops,
            p95=stats.p95_hops,
            links=float(np.mean([len(l) for l in graph.long_links])),
            success=stats.success_rate,
        )
        return stats

    baseline_graph = build_skewed_model(dist, rng=rng, ids=ids)
    add("baseline (fast, dedupe, cutoff 1/N)", baseline_graph)
    add(
        "exact sampler",
        build_skewed_model(dist, rng=rng, ids=ids, config=GraphConfig(sampler="exact")),
    )
    add(
        "no dedupe (literal i.i.d. draws)",
        build_skewed_model(
            dist, rng=rng, ids=ids, config=GraphConfig(sampler="exact", dedupe=False)
        ),
    )
    add(
        "no cutoff (cutoff 1e-9)",
        build_skewed_model(
            dist, rng=rng, ids=ids, config=GraphConfig(cutoff_mass=1e-9)
        ),
    )
    add(
        "bidirectional long links",
        build_skewed_model(
            dist, rng=rng, ids=ids, config=GraphConfig(bidirectional=True)
        ),
    )
    add("normalised-metric greedy", baseline_graph, metric="normalized")

    # Lookahead routing on the baseline graph (same topology, smarter walk).
    hops = []
    for _ in range(max(100, n_routes // 3)):
        source = int(rng.integers(n))
        key = float(ids[int(rng.integers(n))])
        result = lookahead_route(baseline_graph, source, key)
        hops.append(result.hops)
    table.add_row(
        variant="NoN lookahead routing [ref 10]",
        hops=float(np.mean(hops)),
        p95=float(np.percentile(hops, 95)),
        links=float(np.mean([len(l) for l in baseline_graph.long_links])),
        success=1.0,
    )

    table.add_note(
        "expectation: fast==exact within noise (E7); no-dedupe loses a few "
        "effective links (duplicates collapse); the cutoff's effect is in "
        "link placement, not hops, at this scale; bidirectional links and "
        "NoN lookahead each buy a constant-factor improvement"
    )
    return table
