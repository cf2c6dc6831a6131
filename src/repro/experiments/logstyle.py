"""E3 — the Section 3.1 comparison with logarithmic-style overlays.

Two claims are measured:

1. *Link placement*: in the paper's model, long links fall "with almost
   equal probabilities" into each of the ``log2 N`` doubling partitions
   — i.e. the model is the randomised relaxation of Chord/Pastry/P-Grid
   tables, which pick exactly one entry per partition.  We report the
   link-partition histogram and its entropy-uniformity.

2. *Routing equivalence*: hop counts and table sizes of the model are
   comparable to Chord, Pastry and P-Grid on the same uniform peer
   population.

3. *Comparator scaling* (E3c): the same four overlays swept to
   ``N >= 1e5`` — every comparator routes whole lookup batches over the
   shared CSR frontier kernel
   (:func:`repro.baselines.measure_overlay_batch`), so the Section 3.1
   comparison is measured at the scale the model itself reaches.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis import link_partition_histogram, partition_uniformity
from repro.baselines import (
    ChordOverlay,
    PastryOverlay,
    PGridOverlay,
    measure_overlay_batch,
)
from repro.core import build_uniform_model, sample_batch
from repro.experiments.report import Column, ResultTable
from repro.overlay import summarize_lookups

__all__ = ["run_e3"]


def run_e3(seed: int = 0, quick: bool = False) -> list[ResultTable]:
    """E3: model vs logarithmic-style DHTs on uniform identifiers."""
    rng = np.random.default_rng(seed)
    n = 512 if quick else 2048
    n_routes = 300 if quick else 2000
    ids = np.sort(rng.random(n))

    graph = build_uniform_model(rng=rng, ids=ids)
    model_stats = summarize_lookups(sample_batch(graph, n_routes, rng))
    model_table = float(np.mean(graph.out_degrees()))

    comparison = ResultTable(
        title=f"E3 (Sec. 3.1): small-world model vs logarithmic-style DHTs, N={n}",
        columns=[
            Column("overlay", "overlay"),
            Column("hops", "mean hops", ".2f"),
            Column("p95", "p95 hops", ".1f"),
            Column("table", "mean table size", ".1f"),
            Column("success", "success", ".3f"),
        ],
    )
    comparison.add_row(
        overlay="small-world model",
        hops=model_stats.mean_hops,
        p95=model_stats.p95_hops,
        table=model_table,
        success=model_stats.success_rate,
    )
    for name, overlay in (
        ("chord", ChordOverlay(ids)),
        ("pastry", PastryOverlay(ids, rng)),
        ("p-grid", PGridOverlay(ids, rng)),
    ):
        stats = measure_overlay_batch(overlay, n_routes, rng, target_ids=overlay.ids)
        comparison.add_row(
            overlay=name,
            hops=stats.mean_hops,
            p95=stats.p95_hops,
            table=overlay.mean_table_size(),
            success=stats.success_rate,
        )
    comparison.add_note(
        "expectation: all four overlays land in the same O(log N) hop range "
        "with O(log N) state — the model is their randomised relaxation"
    )

    hist = link_partition_histogram(graph)
    placement = ResultTable(
        title="E3b: long-link placement across doubling partitions (model)",
        columns=[
            Column("partition", "partition j"),
            Column("links", "links"),
            Column("fraction", "fraction", ".3f"),
        ],
    )
    total = int(hist.sum())
    for j, count in enumerate(hist):
        if j == 0 and count == 0:
            continue
        placement.add_row(
            partition=j, links=int(count), fraction=count / total if total else 0.0
        )
    placement.add_note(
        f"entropy uniformity = {partition_uniformity(graph):.3f} "
        "(1.0 = perfectly even; Sec. 3.1 predicts 'almost equal probabilities'; "
        "Chord-style tables are exactly 1 link per partition by construction)"
    )

    scaling = ResultTable(
        title="E3c: comparator hop scaling on the batch frontier (uniform ids)",
        columns=[
            Column("n", "N"),
            Column("log2n", "log2 N", ".1f"),
            Column("model", "model hops", ".2f"),
            Column("chord", "chord hops", ".2f"),
            Column("pastry", "pastry hops", ".2f"),
            Column("pgrid", "p-grid hops", ".2f"),
        ],
    )
    sweep_sizes = [256, 1024] if quick else [4096, 16384, 65536, 131072]
    sweep_routes = 300 if quick else 2000
    for size in sweep_sizes:
        sweep_ids = np.sort(rng.random(size))
        sweep_graph = build_uniform_model(rng=rng, ids=sweep_ids)
        model_hops = summarize_lookups(
            sample_batch(sweep_graph, sweep_routes, rng)
        ).mean_hops
        chord = ChordOverlay(sweep_ids)
        pastry = PastryOverlay(sweep_ids, rng)
        pgrid = PGridOverlay(sweep_ids, rng)
        scaling.add_row(
            n=size,
            log2n=math.log2(size),
            model=model_hops,
            chord=measure_overlay_batch(
                chord, sweep_routes, rng, target_ids=chord.ids
            ).mean_hops,
            pastry=measure_overlay_batch(
                pastry, sweep_routes, rng, target_ids=pastry.ids
            ).mean_hops,
            pgrid=measure_overlay_batch(
                pgrid, sweep_routes, rng, target_ids=pgrid.ids
            ).mean_hops,
        )
    scaling.add_note(
        "every comparator routes through the shared batch frontier kernel "
        "(route_many_overlay); full mode sweeps all four overlays to N = 131072"
    )
    return [comparison, placement, scaling]
