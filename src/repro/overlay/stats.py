"""Lookup-quality measurement helpers shared by experiments and benches."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.batch_routing import route_many
from repro.overlay.network import Network

__all__ = ["LookupStats", "summarize_lookups", "measure_network"]


@dataclass
class LookupStats:
    """Summary statistics over a batch of lookups.

    Attributes:
        n: number of lookups.
        mean_hops: mean hop count (successful and failed alike).
        p95_hops: 95th-percentile hop count.
        max_hops: worst observed hop count.
        success_rate: fraction of lookups that reached the owner.
        mean_long_hops: mean hops taken over long-range links.
        mean_neighbor_hops: mean hops taken over ring/interval links.
        reasons: termination-reason histogram.  Always carries the full
            schema — every label in ``("arrived", "stuck", "max_hops")``
            is present, zero counts included — so downstream consumers
            (JSON reports, experiment tables) see a stable shape no
            matter which terminations a batch happened to produce.
    """

    n: int
    mean_hops: float
    p95_hops: float
    max_hops: int
    success_rate: float
    mean_long_hops: float
    mean_neighbor_hops: float
    reasons: dict[str, int] | None = None


def summarize_lookups(results) -> LookupStats:
    """Aggregate route/lookup results into :class:`LookupStats`.

    Accepts a list of :class:`repro.core.RouteResult` (snapshot graphs)
    or :class:`repro.overlay.LookupResult` (live networks) — the fields
    relied upon are shared — as well as a
    :class:`repro.core.BatchRouteResult`, whose column arrays are
    aggregated directly without materialising per-route objects.

    Raises:
        ValueError: on an empty result list/batch.
    """
    from repro.core.metric_routing import _REASON_LABELS

    if len(results) == 0:
        raise ValueError("no results to summarise")
    # Seed the histogram with every label so the schema is stable even
    # when a batch never produced that termination (all zeros counted).
    reasons = {str(label): 0 for label in _REASON_LABELS}
    if isinstance(getattr(results, "hops", None), np.ndarray):
        # Batch result: columns are already arrays.
        hops = results.hops.astype(float)
        success = results.success.astype(float)
        long_hops = results.long_hops.astype(float)
        neighbor_hops = results.neighbor_hops.astype(float)
        tally = np.bincount(results.reason_codes, minlength=len(_REASON_LABELS))
        for code, label in enumerate(_REASON_LABELS):
            reasons[str(label)] = int(tally[code])
    else:
        hops = np.asarray([r.hops for r in results], dtype=float)
        success = np.asarray([r.success for r in results], dtype=float)
        long_hops = np.asarray([r.long_hops for r in results], dtype=float)
        neighbor_hops = np.asarray([r.neighbor_hops for r in results], dtype=float)
        for r in results:
            # RouteResult and LookupResult both carry a reason label.
            label = str(getattr(r, "reason", "arrived" if r.success else "stuck"))
            if label not in reasons:
                # Growing the histogram here would silently break the
                # stable-full-schema contract the batch path enforces.
                raise ValueError(
                    f"unknown termination reason {label!r}; expected one "
                    f"of {sorted(reasons)}"
                )
            reasons[label] += 1
    return LookupStats(
        n=len(results),
        mean_hops=float(hops.mean()),
        p95_hops=float(np.percentile(hops, 95)),
        max_hops=int(hops.max()),
        success_rate=float(success.mean()),
        mean_long_hops=float(long_hops.mean()),
        mean_neighbor_hops=float(neighbor_hops.mean()),
        reasons=reasons,
    )


def measure_network(
    network: Network,
    n_lookups: int,
    rng: np.random.Generator,
    targets: str = "peers",
    workers: int | None = None,
) -> LookupStats:
    """Run random lookups over a live network and summarise them.

    The lookups are batch-routed over a :meth:`Network.snapshot` through
    :func:`repro.core.route_many` (hop-for-hop identical to
    :meth:`Network.route`), so measurement scales with the batch router
    rather than the Python-loop walk.

    Args:
        network: the overlay to measure.
        n_lookups: how many lookups to route.
        rng: random source.
        targets: ``"peers"`` looks up existing peer identifiers;
            ``"uniform"`` looks up fresh uniform keys.
        workers: shard the batch-routed lookup phase over worker
            threads (bit-identical results — see
            :func:`repro.core.route_many`).

    Raises:
        ValueError: for an unknown target mode or an empty network.
    """
    if targets not in ("peers", "uniform"):
        raise ValueError(f"unknown targets mode {targets!r}")
    if network.n == 0:
        raise ValueError("cannot measure an empty network")
    # All sources first, then all keys: the per-lookup reference loop in
    # the tests draws the same stream, so a seed names one workload.
    ids = network.ids_array()
    sources = rng.integers(len(ids), size=n_lookups)
    if targets == "peers":
        keys = ids[rng.integers(len(ids), size=n_lookups)]
    else:
        keys = rng.random(n_lookups)
    return summarize_lookups(
        route_many(network.snapshot(), sources, keys, workers=workers)
    )
