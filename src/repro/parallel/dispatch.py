"""The sharded front-end: one route batch split over a thread pool.

1. **prepare in the caller** — the batch is validated and
   :meth:`RoutingMetric.prepare` resolves every key's owner and target
   once; the one-time checks the search round needs (the metric's
   positions check, the CSR's row scan) run here too, so no shard
   repeats them;
2. **shard deterministically** — contiguous ranges from
   :func:`repro.parallel.autotune.shard_bounds`, never a function of the
   worker count;
3. **route each shard on a pool thread** — every shard is a
   :func:`~repro.core.metric_routing.frontier_route_many` call over its
   slice of the prepared targets, reading the caller's CSR, metric and
   liveness mask (greedy walks only read the immutable graph, and numpy
   releases the GIL in the kernel's large gathers, sorts and
   reductions);
4. **merge in shard order** — so outcome columns are bit-identical for
   any worker count including 1, and to the serial kernel: a sharded
   batch is the serial batch computed in pieces.  ``rounds`` and the
   ``routing.rounds`` counter are sums over the pieces, so they exceed
   a serial batch's.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext

import numpy as np

from repro import telemetry
from repro.core.adjacency import CSRAdjacency
from repro.core.metric_routing import (
    BatchRouteResult,
    GreedyValueMetric,
    PreparedTargets,
    RoutingMetric,
    _check_sources,
    frontier_route_many,
)
from repro.parallel.autotune import resolve_workers, shard_bounds

__all__ = ["frontier_route_many_parallel", "get_executor"]

_POOLS: dict[int, ThreadPoolExecutor] = {}


def get_executor(workers: int | None = None) -> ThreadPoolExecutor:
    """Return the process-wide thread pool for a worker count.

    One pool per distinct count, created on first use and shared by
    every later dispatch; its threads start on the first shard and idle
    between calls.

    Raises:
        ValueError: for a worker count below 1.
    """
    count = resolve_workers(workers)
    pool = _POOLS.get(count)
    if pool is None:
        # Two first callers racing here both build a pool; setdefault is
        # atomic, so both get the first one, and the other never started
        # a thread.
        pool = _POOLS.setdefault(
            count, ThreadPoolExecutor(count, thread_name_prefix="repro-shard")
        )
    return pool


def _fold_shard_registries(scopes: list, walls: list[float]) -> None:
    """Fold each shard's captured registry into the caller's, in shard order.

    Shard order is worker-count independent, so the folded counters and
    histogram counts are bit-identical for any worker count that shards,
    and a histogram such as ``routing.hops`` equals the serial batch's
    (counts add); ``routing.rounds`` is the shards' sum, more than one
    serial batch counts.  Each shard's wall time is kept as one ``parallel.shard_wall``
    observation and one ``parallel.shard`` trace event (straggler
    analysis).  No-op when telemetry was disabled mid-flight.
    """
    registry = telemetry.active_registry()
    if registry is None:
        return
    for scoped in scopes:
        registry.merge(scoped)
    wall_timer = registry.timer("parallel.shard_wall")
    for index, wall in enumerate(walls):
        wall_timer.observe(wall)
        telemetry.trace("parallel.shard", shard=index, seconds=wall)
    telemetry.count("parallel.dispatches")
    telemetry.count("parallel.shards", len(scopes))


def _merge_route_results(
    parts: list[BatchRouteResult],
    sources: np.ndarray,
    target_keys: np.ndarray,
) -> BatchRouteResult:
    """Concatenate per-shard results back into one batch, in shard order."""
    paths = None
    if parts[0].paths is not None:
        paths = [path for part in parts for path in part.paths]
    return BatchRouteResult(
        success=np.concatenate([part.success for part in parts]),
        hops=np.concatenate([part.hops for part in parts]),
        neighbor_hops=np.concatenate([part.neighbor_hops for part in parts]),
        long_hops=np.concatenate([part.long_hops for part in parts]),
        reason_codes=np.concatenate([part.reason_codes for part in parts]),
        sources=sources,
        target_keys=target_keys,
        owners=np.concatenate([part.owners for part in parts]),
        paths=paths,
        # Sums over the shards: the same for any worker count that
        # shards, because shard boundaries are; ``rounds`` exceeds a
        # serial batch's.
        rounds=sum(part.rounds for part in parts),
        candidates_seen=sum(part.candidates_seen for part in parts),
        padded_slots_seen=sum(part.padded_slots_seen for part in parts),
    )


def frontier_route_many_parallel(
    csr: CSRAdjacency,
    metric: RoutingMetric,
    sources: np.ndarray,
    target_keys: np.ndarray,
    alive: np.ndarray | None = None,
    max_hops: int | None = None,
    record_paths: bool = False,
    workers: int | None = None,
) -> BatchRouteResult:
    """Sharded :func:`repro.core.metric_routing.frontier_route_many`.

    Outcome columns are bit-identical to the serial kernel for every
    worker count: routes are independent walks, shards are contiguous
    slices, and the merge preserves slice order.  ``rounds`` is the sum
    of the shards' rounds.  A batch that fits one shard, or a serial
    worker count, routes through the serial kernel directly — unless
    telemetry is on, in which case the shards run inline on the
    caller's thread, so this function's folded metrics have the same
    shard structure for every worker count.  ``route_many(...,
    workers=N)`` calls this only for batches of two or more shards at
    ``N >= 2``, so its ``workers=1`` runs one serial batch and counts
    fewer rounds.

    Args:
        csr: the overlay's flattened edge set.
        metric: the overlay's routing rule.
        sources: int array of originating peers.
        target_keys: float array of lookup keys, aligned with ``sources``.
        alive: optional boolean liveness mask.
        max_hops: per-route hop budget; defaults to ``csr.n``.
        record_paths: also record every walk's visited-node list.
        workers: thread count; ``None`` resolves via
            :func:`repro.parallel.autotune.resolve_workers`.

    Raises:
        ValueError: on mismatched inputs, an out-of-range or dead
            source, or a worker count below 1.  An exception raised in
            a shard re-raises here.
    """
    sources = np.asarray(sources, dtype=np.int64)
    target_keys = np.asarray(target_keys, dtype=float)
    workers = resolve_workers(workers)
    bounds = shard_bounds(len(sources))
    tel_on = telemetry.enabled()
    if (workers <= 1 or len(bounds) <= 1) and not tel_on:
        return frontier_route_many(
            csr, metric, sources, target_keys,
            alive=alive, max_hops=max_hops, record_paths=record_paths,
        )
    if sources.ndim != 1 or target_keys.ndim != 1:
        raise ValueError("sources and target_keys must be one-dimensional")
    if len(sources) != len(target_keys):
        raise ValueError(
            f"got {len(sources)} sources but {len(target_keys)} target keys"
        )
    _check_sources(sources, csr.n)
    if alive is not None:
        alive = np.asarray(alive, dtype=bool)
        if not alive[sources].all():
            bad = sources[~alive[sources]][0]
            raise ValueError(f"source peer {bad} is not alive")

    state = metric.prepare(target_keys, alive)
    # Both search-round checks are cached on their objects: run them
    # once here rather than racing on them from every shard.
    if alive is None and type(metric) is GreedyValueMetric and metric.searchable:
        _ = csr.tails_sorted
    owners = np.asarray(state.owners)
    targets = np.asarray(state.targets)
    extra = None if state.extra is None else np.asarray(state.extra)

    def route_shard(bound: tuple[int, int]):
        lo, hi = bound
        prepared = PreparedTargets(
            owners=owners[lo:hi],
            targets=targets[lo:hi],
            extra=None if extra is None else extra[lo:hi],
        )
        started = time.perf_counter()
        with telemetry.capture() if tel_on else nullcontext() as scoped:
            result = frontier_route_many(
                csr, metric, sources[lo:hi], target_keys[lo:hi],
                alive=alive, max_hops=max_hops, record_paths=record_paths,
                prepared=prepared,
            )
        return result, scoped, time.perf_counter() - started

    if workers <= 1 or len(bounds) <= 1:
        parts = [route_shard(bound) for bound in bounds]
    else:
        parts = list(get_executor(workers).map(route_shard, bounds))
    if tel_on:
        _fold_shard_registries(
            [scoped for _, scoped, _ in parts], [wall for _, _, wall in parts]
        )
    return _merge_route_results(
        [result for result, _, _ in parts], sources, target_keys
    )
