"""E7 — the Figure 1/2 space-normalisation equivalence, empirically.

Theorem 2's proof is a graph isomorphism argument: building with the
eq. (7) integral criterion in the skewed space ``R`` is *the same
construction* as building with the plain distance criterion in the
normalised space ``R' = F(R)``.  The experiment verifies the testable
consequences:

* the normalised link-length samples of graph ``G`` (built in ``R``)
  and graph ``G'`` (built on the CDF-mapped uniform population) are
  statistically indistinguishable (two-sample KS test);
* hop-count distributions agree within confidence intervals;
* (ablation) the default bulk inverse-CDF sampler and the exact
  weight-vector sampler (evaluated in blocked rows of the weight
  matrix) generate indistinguishable graphs.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import bootstrap_mean_ci, ks_two_sample
from repro.core import (
    GraphConfig,
    build_skewed_model,
    build_uniform_model,
    sample_batch,
)
from repro.distributions import PowerLaw
from repro.experiments.report import Column, ResultTable

__all__ = ["run_e7"]


def run_e7(seed: int = 0, quick: bool = False) -> ResultTable:
    """E7: equivalence of skew-space and normalised-space constructions."""
    rng = np.random.default_rng(seed)
    # Full mode runs at 16k peers: bulk construction makes the paired
    # builds cheap, and the blocked-row exact sampler keeps the
    # ground-truth ablation tractable at this size.
    n = 512 if quick else 16384
    n_routes = 300 if quick else 1500
    dist = PowerLaw(alpha=1.5, shift=1e-3)

    # G: built in the skewed space R with the eq. (7) criterion.
    ids = np.sort(dist.sample(n, rng))
    graph_g = build_skewed_model(dist, rng=rng, ids=ids)
    # G': built in the normalised space R' over the *same* peers, using
    # the plain distance criterion on their normalised positions.
    normalized_ids = np.asarray(dist.cdf(ids), dtype=float)
    graph_gp = build_uniform_model(rng=rng, ids=normalized_ids)

    lengths_g = graph_g.long_link_lengths(normalized=True)
    lengths_gp = graph_gp.long_link_lengths(normalized=True)
    ks_links = ks_two_sample(lengths_g, lengths_gp)

    hops_g = sample_batch(graph_g, n_routes, rng).hops
    hops_gp = sample_batch(graph_gp, n_routes, rng).hops
    mean_g, lo_g, hi_g = bootstrap_mean_ci(hops_g, rng)
    mean_gp, lo_gp, hi_gp = bootstrap_mean_ci(hops_gp, rng)

    # Ablation: default (bulk) vs exact sampler on the same skewed
    # population.
    exact_cfg = GraphConfig(sampler="exact")
    graph_exact = build_skewed_model(dist, rng=rng, ids=ids, config=exact_cfg)
    ks_samplers = ks_two_sample(
        lengths_g, graph_exact.long_link_lengths(normalized=True)
    )
    hops_exact = sample_batch(graph_exact, n_routes, rng).hops
    mean_ex, lo_ex, hi_ex = bootstrap_mean_ci(hops_exact, rng)

    table = ResultTable(
        title=f"E7 (Figures 1-2): normalisation equivalence, powerlaw, N={n}",
        columns=[
            Column("comparison", "comparison"),
            Column("ks_stat", "KS statistic", ".4f"),
            Column("p_value", "KS p-value", ".3f"),
            Column("mean_a", "mean hops A", ".2f"),
            Column("ci_a", "95% CI A"),
            Column("mean_b", "mean hops B", ".2f"),
            Column("ci_b", "95% CI B"),
        ],
    )
    table.add_row(
        comparison="G (skew space) vs G' (normalised)",
        ks_stat=ks_links.statistic,
        p_value=ks_links.p_value,
        mean_a=mean_g,
        ci_a=f"[{lo_g:.2f},{hi_g:.2f}]",
        mean_b=mean_gp,
        ci_b=f"[{lo_gp:.2f},{hi_gp:.2f}]",
    )
    table.add_row(
        comparison="bulk sampler vs exact sampler",
        ks_stat=ks_samplers.statistic,
        p_value=ks_samplers.p_value,
        mean_a=mean_g,
        ci_a=f"[{lo_g:.2f},{hi_g:.2f}]",
        mean_b=mean_ex,
        ci_b=f"[{lo_ex:.2f},{hi_ex:.2f}]",
    )
    table.add_note(
        "expectation: KS distances at the few-percent level (sampling noise "
        "for row 1; a tiny discretisation bias is admissible for row 2 — the "
        "fast path is itself the paper's Sec. 4.2 construction) and "
        "overlapping hop CIs: the Figure 1 equivalence holds in every metric "
        "that matters for routing"
    )
    return table
