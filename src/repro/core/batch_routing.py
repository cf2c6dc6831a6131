"""Vectorized batch greedy routing: all lookups advance one hop per step.

Kleinberg-style greedy search is embarrassingly parallel across lookups —
each walk only ever consults its own current node's out-edges.  This
module is the one greedy router: every experiment and benchmark routes
through it, and :func:`repro.core.routing.greedy_route` is a batch of one.

The frontier scheme itself lives in the metric-parameterized kernel
(:mod:`repro.core.metric_routing`), which routes whole lookup batches
over *any* CSR adjacency under a declarative routing rule — the same
engine the baseline comparators (Chord, Pastry, Symphony, Mercury, CAN,
P-Grid, Watts–Strogatz) ride through
:func:`repro.baselines.route_many_overlay`.  :func:`route_many` binds
that kernel to a :class:`~repro.core.graph.SmallWorldGraph`'s cached CSR
with the paper's symmetric greedy key/normalized metric:

1. gather every active walk's out-edges from the graph's cached CSR
   adjacency (:mod:`repro.core.adjacency`) into one flat candidate
   vector, segmented per walk;
2. drop dead peers (liveness) from that vector;
3. a segmented minimum picks each walk's best candidate — first
   occurrence on ties, which together with the CSR row-order contract
   (neighbours before long links, scan order preserved) is the rule's
   first-strict-improvement candidate scan;
4. walks whose best candidate is not strictly closer stop as
   ``"stuck"``; walks that land on their owner stop as ``"arrived"``;
   the rest carry on until ``max_hops``.

Results match :class:`repro.core.routing.RouteResult` semantics
field-for-field (success, hops, neighbour/long hop split, reason, owner)
— the tests assert hop-for-hop equivalence against the per-lookup loop
in ``tests/route_oracle.py`` across spaces, metrics and liveness masks.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import SmallWorldGraph
from repro.core.metric_routing import (
    REASON_ARRIVED,
    REASON_MAX_HOPS,
    REASON_STUCK,
    BatchRouteResult,
    GreedyValueMetric,
    frontier_route_many,
)

__all__ = [
    "BatchRouteResult",
    "route_many",
    "sample_batch",
    "REASON_ARRIVED",
    "REASON_STUCK",
    "REASON_MAX_HOPS",
]


def _positions_and_targets(
    graph: SmallWorldGraph, target_keys: np.ndarray, metric: str
) -> tuple[np.ndarray, np.ndarray]:
    """Return the coordinate array and per-route target positions."""
    if metric == "key":
        return graph.ids, target_keys
    if metric == "normalized":
        # Scalar normalize calls per key guarantee bit-identical positions
        # to the reference router (graph.normalize may not be a ufunc).
        tpos = np.fromiter(
            (graph.normalized_key(float(k)) for k in target_keys),
            dtype=float,
            count=len(target_keys),
        )
        return graph.normalized_ids, tpos
    raise ValueError(f"unknown metric {metric!r}; choose 'key' or 'normalized'")


def _graph_metric(graph: SmallWorldGraph, metric: str) -> GreedyValueMetric:
    """Bind the paper's greedy rule for ``graph`` under a metric name.

    The rule's :attr:`~GreedyValueMetric.searchable` check depends on the
    graph alone, so it runs once per graph and metric name and is
    remembered on the graph, not once per batch.
    """
    if metric == "key":
        bound = GreedyValueMetric(graph.ids, graph.space)
    elif metric == "normalized":
        bound = GreedyValueMetric(
            graph.normalized_ids,
            graph.space,
            transform=lambda keys: _positions_and_targets(graph, keys, "normalized")[1],
        )
    else:
        raise ValueError(f"unknown metric {metric!r}; choose 'key' or 'normalized'")
    checked = graph.__dict__.setdefault("_searchable", {})
    if metric not in checked:
        checked[metric] = bound.searchable
    bound.__dict__["searchable"] = checked[metric]
    return bound


def route_many(
    graph: SmallWorldGraph,
    sources: np.ndarray,
    target_keys: np.ndarray,
    metric: str = "key",
    alive: np.ndarray | None = None,
    max_hops: int | None = None,
    record_paths: bool = False,
    workers: int | None = None,
) -> BatchRouteResult:
    """Route every ``(source, target_key)`` pair greedily, in lock-step.

    Hop for hop the per-lookup greedy loop that ``tests/route_oracle.py``
    keeps as the reference, but advancing all walks together one hop per
    numpy step through :func:`repro.core.metric_routing.frontier_route_many`
    (see module docstring for the frontier scheme).

    Args:
        graph: the overlay to route on.
        sources: int array of originating peers (must all be live).
        target_keys: float array of lookup keys, aligned with ``sources``.
        metric: ``"key"`` or ``"normalized"``.
        alive: optional boolean liveness mask; dead peers are invisible.
        max_hops: per-route hop budget; defaults to ``n``.
        record_paths: also record every walk's visited-node list (costs
            memory proportional to total hops; off by default).
        workers: shard the batch over this many worker processes via
            :mod:`repro.parallel` (bit-identical to the serial result);
            ``None`` defers to the configured default
            (:func:`repro.parallel.autotune.resolve_workers` — the CLI's
            ``--workers`` flag / ``REPRO_WORKERS``), which is serial
            unless explicitly raised.  Small batches stay serial even
            with workers configured (dispatch overhead would dominate).

    Raises:
        ValueError: on mismatched inputs, an invalid metric, an
            out-of-range or dead source peer, a negative ``max_hops``, or
            no live peers.
    """
    sources = np.asarray(sources, dtype=np.int64)
    from repro.parallel.autotune import should_parallelize

    if should_parallelize(workers, len(sources)):
        from repro.parallel.dispatch import route_many_parallel

        return route_many_parallel(
            graph,
            sources,
            target_keys,
            metric=metric,
            alive=alive,
            max_hops=max_hops,
            record_paths=record_paths,
            workers=workers,
        )
    return frontier_route_many(
        graph.adjacency,
        _graph_metric(graph, metric),
        sources,
        target_keys,
        alive=alive,
        max_hops=max_hops,
        record_paths=record_paths,
    )


def sample_batch(
    graph: SmallWorldGraph,
    n_routes: int,
    rng: np.random.Generator,
    metric: str = "key",
    targets: str = "peers",
    alive: np.ndarray | None = None,
    max_hops: int | None = None,
    record_paths: bool = False,
    workers: int | None = None,
) -> BatchRouteResult:
    """Draw ``n_routes`` random live source/target pairs and batch-route them.

    The batch counterpart of :func:`repro.core.routing.sample_routes`
    (which delegates here); experiments that only need aggregate columns
    should call this directly and skip materialising ``RouteResult``
    objects.

    Args:
        graph: the overlay to measure.
        n_routes: number of lookups.
        rng: random source.
        metric: routing metric, as in :func:`route_many`.
        targets: ``"peers"`` draws an existing live peer's identifier as
            the key (the proofs' setting); ``"uniform"`` draws fresh
            uniform keys; ``"model"`` resamples an existing identifier
            with replacement and jitters it uniformly inside the gap to
            the successor peer (so keys follow the id distribution but
            rarely hit a peer exactly; nearest-peer ownership may
            resolve the upper half of a gap to the successor).
        alive: optional liveness mask applied to sources and routing.
        max_hops: per-route hop budget.
        record_paths: record visited-node lists (see :func:`route_many`).
        workers: worker-process sharding, as in :func:`route_many` (the
            workload draw itself always happens here, in one rng state).

    Raises:
        ValueError: for an unknown ``targets`` mode or no live peers.
    """
    if targets not in ("peers", "uniform", "model"):
        raise ValueError(f"unknown targets mode {targets!r}")
    n = graph.n
    live = np.flatnonzero(alive) if alive is not None else np.arange(n)
    if len(live) == 0:
        raise ValueError("cannot sample routes with no live peers")
    sources = rng.choice(live, size=n_routes)
    if targets == "peers":
        keys = graph.ids[rng.choice(live, size=n_routes)]
    elif targets == "uniform":
        keys = rng.random(n_routes)
    else:  # "model": resample an id, jitter uniformly within its cell
        picked = rng.integers(n, size=n_routes)
        base = graph.ids[picked]
        if n == 1:
            gaps = np.ones(n_routes)
        elif graph.space.is_ring:
            gaps = (graph.ids[(picked + 1) % n] - base) % 1.0
        else:
            uppers = np.append(graph.ids[1:], 1.0)
            gaps = uppers[picked] - base
        keys = base + rng.random(n_routes) * gaps
        if graph.space.is_ring:
            keys %= 1.0
    return route_many(
        graph,
        sources,
        keys,
        metric=metric,
        alive=alive,
        max_hops=max_hops,
        record_paths=record_paths,
        workers=workers,
    )
