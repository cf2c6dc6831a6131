"""Sharded front-ends: batch workloads split over the worker pool.

Every front-end follows the same shape:

1. **prepare in the parent** — anything that needs unpicklable state
   (key transforms, torus embeddings, owner resolution closures) runs
   once in the owning process via :meth:`RoutingMetric.prepare`;
2. **publish the operands** — CSR adjacency, coordinate vectors and
   per-edge tag arrays go into a :class:`~repro.parallel.shm.SharedArena`
   so workers attach zero-copy instead of unpickling graphs;
3. **shard deterministically** — contiguous ranges from
   :func:`repro.parallel.autotune.shard_bounds`, never a function of the
   worker count;
4. **merge in shard order** — so results are bit-identical for any
   worker count including 1.

Both front-ends (:func:`frontier_route_many_parallel`,
:func:`route_many_parallel`) are additionally bit-identical to their
*serial* counterparts: greedy walks are independent per route, so a
sharded batch is just the serial batch computed in pieces.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core.adjacency import CSRAdjacency
from repro.core.metric_routing import (
    BatchRouteResult,
    ClockwiseMetric,
    GreedyValueMetric,
    PrefixDigitMetric,
    PreparedTargets,
    RoutingMetric,
    TorusZoneMetric,
    TrieMetric,
    _check_sources,
    frontier_route_many,
)
from repro.parallel.arena_cache import lease_arena
from repro.parallel.autotune import shard_bounds
from repro.parallel.executor import ShardedExecutor, get_executor
from repro.parallel.shm import ArenaHandle, attach_arena

__all__ = [
    "frontier_route_many_parallel",
    "route_many_parallel",
    "arena_arrays",
]


def arena_arrays(arena) -> dict[str, np.ndarray]:
    """Resolve a published operand set inside a shard function.

    Accepts either an :class:`~repro.parallel.shm.ArenaHandle` (pooled
    execution — attach via shared memory, cached per process) or the
    plain dict a serial executor's :meth:`publish` hands back.
    """
    if isinstance(arena, ArenaHandle):
        return attach_arena(arena)
    return arena


# ----------------------------------------------------------------------
# metric codec: rebuild routing rules worker-side without their closures
# ----------------------------------------------------------------------

def _encode_metric(
    metric: RoutingMetric,
) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Split a metric into (kind, small picklable params, big arrays).

    Only the scoring state is shipped: ``prepare`` already ran in the
    parent, so key transforms / embedding callables are deliberately
    dropped.  Exact-type matching — an unknown subclass may score
    differently and must not silently degrade to its base class.

    Raises:
        TypeError: for a metric family the codec does not know.
    """
    kind = type(metric)
    if kind is GreedyValueMetric:
        # The search-round check runs here, once per metric, and travels
        # with the job: workers rebuild the metric on every call.
        params = {"space": metric.space, "searchable": metric.searchable}
        return "greedy", params, {"m:positions": metric.positions}
    if kind is ClockwiseMetric:
        params = {
            "owner_rule": metric.owner_rule,
            "terminal_owner_hop": metric.terminal_owner_hop,
        }
        return "clockwise", params, {"m:positions": metric.positions}
    if kind is PrefixDigitMetric:
        arrays = {
            "m:positions": metric.positions,
            "m:digits": metric.digits,
            "m:tag_level": metric.tag_level,
            "m:tag_digit": metric.tag_digit,
        }
        return "prefix", {"base": metric.base}, arrays
    if kind is TrieMetric:
        arrays = {
            "m:positions": metric.positions,
            "m:bits": metric.bits,
            "m:tag_level": metric.tag_level,
            "m:tag_rank": metric.tag_rank,
            "m:cell_lefts": metric.cell_lefts,
            "m:cell_order": metric.cell_order,
        }
        return "trie", {}, arrays
    if kind is TorusZoneMetric:
        return "torus", {}, {"m:lo": metric.lo, "m:hi": metric.hi}
    raise TypeError(
        f"cannot dispatch {kind.__name__} to worker processes; the parallel "
        "codec supports the five shipped RoutingMetric families"
    )


def _rebuild_metric(kind: str, params: dict, arrays: dict) -> RoutingMetric:
    """Worker-side inverse of :func:`_encode_metric`.

    The rebuilt metric only ever scores candidates (``prepare`` happened
    in the parent), so transform/embedding slots are left empty.
    """
    if kind == "greedy":
        metric = GreedyValueMetric(arrays["m:positions"], params["space"])
        metric.__dict__["searchable"] = params["searchable"]
        return metric
    if kind == "clockwise":
        return ClockwiseMetric(
            arrays["m:positions"],
            owner_rule=params["owner_rule"],
            terminal_owner_hop=params["terminal_owner_hop"],
        )
    if kind == "prefix":
        return PrefixDigitMetric(
            arrays["m:positions"],
            arrays["m:digits"],
            arrays["m:tag_level"],
            arrays["m:tag_digit"],
            params["base"],
        )
    if kind == "trie":
        return TrieMetric(
            arrays["m:positions"],
            arrays["m:bits"],
            arrays["m:tag_level"],
            arrays["m:tag_rank"],
            arrays["m:cell_lefts"],
            arrays["m:cell_order"],
        )
    if kind == "torus":
        return TorusZoneMetric(arrays["m:lo"], arrays["m:hi"])
    raise ValueError(f"unknown metric kind {kind!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------

def _route_shard(job) -> tuple[BatchRouteResult, "telemetry.MetricsDelta | None"]:
    """Worker body: one shard of routes over the published frontier.

    The static operands (CSR + metric arrays) and the per-call liveness
    mask arrive as *separate* arenas: the static arena is long-lived
    (leased from the owner-side cache and reused across calls), while
    the alive arena changes every call and must not invalidate the
    worker's cached attachment of the static one.

    ``tails_sorted`` is the owner's :attr:`CSRAdjacency.tails_sorted`
    when a search round could use it (``None`` otherwise), seeded into
    the rebuilt CSR so no worker rescans the edges.

    Returns ``(result, delta)``: when the owner had telemetry enabled,
    the shard runs under :func:`repro.telemetry.capture` (worker
    processes never inherit the owner's enabled state across spawn) and
    ships its accumulated metrics back for the owner-side merge;
    otherwise ``delta`` is ``None``.
    """
    (
        arena, alive_arena, kind, params, tails_sorted, sources, keys,
        owners, targets, extra, max_hops, record_paths, tel_on,
    ) = job

    def run() -> BatchRouteResult:
        arrays = arena_arrays(arena)
        csr = CSRAdjacency(
            indptr=arrays["csr:indptr"],
            indices=arrays["csr:indices"],
            is_long=arrays["csr:is_long"],
        )
        if tails_sorted is not None:
            csr.__dict__["tails_sorted"] = tails_sorted
        metric = _rebuild_metric(kind, params, arrays)
        prepared = PreparedTargets(owners=owners, targets=targets, extra=extra)
        alive = (
            arena_arrays(alive_arena)["alive"] if alive_arena is not None else None
        )
        # Each shard's StreamFrontier owns its flat gather scratch, so
        # the kernel's buffers are per-worker by construction.
        return frontier_route_many(
            csr, metric, sources, keys,
            alive=alive, max_hops=max_hops, record_paths=record_paths,
            prepared=prepared,
        )

    if not tel_on:
        return run(), None
    with telemetry.capture() as box:
        result = run()
    return result, box.delta


def _fold_shard_deltas(deltas: list) -> None:
    """Merge per-shard metric deltas into the owner's registry.

    Deltas fold in shard order (worker-count independent), so the merged
    counters and histogram counts are bit-identical for any worker
    count, and a histogram such as ``routing.hops`` equals the serial
    batch's (counts add); each shard's wall time is retained
    individually for straggler analysis.  No-op when telemetry was
    disabled mid-flight.
    """
    deltas = [delta for delta in deltas if delta is not None]
    registry = telemetry.active_registry()
    if registry is None or not deltas:
        return
    merged = telemetry.merge_deltas(deltas)
    telemetry.apply_delta(
        merged,
        registry,
        shard_walls=[delta.wall_seconds for delta in deltas],
    )
    telemetry.count("parallel.dispatches")
    telemetry.count("parallel.shards", len(deltas))


def _merge_route_results(
    parts: list[BatchRouteResult],
    sources: np.ndarray,
    target_keys: np.ndarray,
) -> BatchRouteResult:
    """Concatenate per-shard results back into one batch, in shard order.

    ``target_keys`` is restored from the parent's originals — workers
    route in transformed coordinates and must not leak them into the
    result.
    """
    paths = None
    if parts and parts[0].paths is not None:
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
        # Order-independent totals: the sum over shards is the same for
        # any worker count because shard boundaries are too.
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
    executor: ShardedExecutor | None = None,
    reuse_arena: bool = True,
) -> BatchRouteResult:
    """Sharded :func:`repro.core.metric_routing.frontier_route_many`.

    Bit-identical to the serial kernel for every worker count: routes
    are independent walks, shards are contiguous slices, and the merge
    preserves slice order.

    Args:
        csr: the overlay's flattened edge set.
        metric: the overlay's routing rule (one of the five shipped
            families; see :func:`_encode_metric`).
        sources: int array of originating peers.
        target_keys: float array of lookup keys, aligned with ``sources``.
        alive: optional boolean liveness mask.
        max_hops: per-route hop budget; defaults to ``csr.n``.
        record_paths: also record every walk's visited-node list.
        workers: worker count; ``None`` resolves via
            :func:`repro.parallel.autotune.resolve_workers`.
        executor: reuse an existing executor instead of the shared one.
        reuse_arena: lease the static operand arena from the owner-side
            cache (:mod:`repro.parallel.arena_cache`) so repeated calls
            over the same graph skip the republish; ``False`` restores
            the publish-per-call lifecycle (each call creates and
            unlinks its own arena).

    Raises:
        ValueError: on mismatched inputs or an out-of-range/dead source.
        TypeError: for an unsupported metric family (pooled path only).
    """
    sources = np.ascontiguousarray(np.asarray(sources, dtype=np.int64))
    target_keys = np.ascontiguousarray(np.asarray(target_keys, dtype=float))
    ex = executor if executor is not None else get_executor(workers)
    bounds = shard_bounds(len(sources))
    tel_on = telemetry.enabled()
    if (ex.workers <= 1 or len(bounds) <= 1) and not tel_on:
        # Serial executors — and batches too small to split — skip the
        # arena machinery outright: byte-for-byte the same computation,
        # minus publish/slice/merge overhead.  With telemetry enabled
        # the serial executor runs the sharded path inline instead
        # (identical results — shards are independent slices), so the
        # per-shard metric deltas have the same worker-count-independent
        # shard structure for every worker count, including 1.
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
    kind, params, metric_arrays = _encode_metric(metric)
    # The row-order check reads every edge: run it once per CSR, here.
    searchable = kind == "greedy" and alive is None and params["searchable"]
    tails_sorted = csr.tails_sorted if searchable else None
    owners = np.asarray(state.owners)
    targets = np.asarray(state.targets)
    extra = state.extra
    if extra is not None:
        extra = np.asarray(extra)

    arrays = {
        "csr:indptr": csr.indptr,
        "csr:indices": csr.indices,
        "csr:is_long": csr.is_long,
        **metric_arrays,
    }
    # The static operands are stable per graph/overlay; the liveness
    # mask changes per call.  They travel in separate arenas so the
    # static one can be cached (owner side *and* worker side) while the
    # alive arena keeps the publish-per-call lifecycle.  Serial
    # executors hand plain dicts back from publish, so the telemetry-
    # enabled inline path never touches shared memory.
    leased = reuse_arena and ex.workers > 1
    with telemetry.time_block("parallel.publish"):
        if leased:
            handle = lease_arena(arrays)  # cache-owned; never released here
        else:
            handle = ex.publish(arrays)
        alive_handle = ex.publish({"alive": alive}) if alive is not None else None
    try:
        jobs = [
            (
                handle, alive_handle, kind, params, tails_sorted,
                sources[lo:hi], target_keys[lo:hi],
                owners[lo:hi], targets[lo:hi],
                None if extra is None else extra[lo:hi],
                max_hops, record_paths, tel_on,
            )
            for lo, hi in bounds
        ]
        parts = ex.map_shards(_route_shard, jobs)
    finally:
        if not leased:
            ex.release(handle)
        if alive_handle is not None:
            ex.release(alive_handle)
    results = [result for result, _ in parts]
    if tel_on:
        _fold_shard_deltas([delta for _, delta in parts])
    return _merge_route_results(results, sources, target_keys)


def route_many_parallel(
    graph,
    sources: np.ndarray,
    target_keys: np.ndarray,
    metric: str = "key",
    alive: np.ndarray | None = None,
    max_hops: int | None = None,
    record_paths: bool = False,
    workers: int | None = None,
    executor: ShardedExecutor | None = None,
    reuse_arena: bool = True,
) -> BatchRouteResult:
    """Sharded :func:`repro.core.route_many` over a small-world graph.

    The integrated entry point is ``route_many(..., workers=N)`` (or the
    ``REPRO_WORKERS`` / CLI ``--workers`` defaults); call this directly
    to pin an executor or to bypass the batch-size heuristic.

    Args and raises as :func:`repro.core.route_many`, plus
    ``reuse_arena`` as in :func:`frontier_route_many_parallel`.
    """
    from repro.core.batch_routing import _graph_metric

    return frontier_route_many_parallel(
        graph.adjacency,
        _graph_metric(graph, metric),
        sources,
        target_keys,
        alive=alive,
        max_hops=max_hops,
        record_paths=record_paths,
        workers=workers,
        executor=executor,
        reuse_arena=reuse_arena,
    )
