"""Vectorized batch greedy routing: all lookups advance one hop per step.

Kleinberg-style greedy search is embarrassingly parallel across lookups —
each walk only ever consults its own current node's out-edges.  The scalar
:func:`repro.core.routing.greedy_route` is kept as the readable reference
implementation; this module is the throughput engine every experiment and
benchmark routes through.

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
   (neighbours before long links, scan order preserved) reproduces the
   scalar router's candidate scan exactly;
4. walks whose best candidate is not strictly closer stop as
   ``"stuck"``; walks that land on their owner stop as ``"arrived"``;
   the rest carry on until ``max_hops``.

Results match :class:`repro.core.routing.RouteResult` semantics
field-for-field (success, hops, neighbour/long hop split, reason, owner)
— a property test asserts hop-for-hop equivalence against the scalar
router across spaces, metrics and liveness masks.
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
    _assemble_paths,
    frontier_route_many,
)
from repro.keyspace import nearest_indices

__all__ = [
    "BatchRouteResult",
    "route_many",
    "lookahead_route_many",
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


def _owners_under_metric(
    graph: SmallWorldGraph,
    positions: np.ndarray,
    target_pos: np.ndarray,
    alive: np.ndarray | None,
) -> np.ndarray:
    """Vectorised owner resolution, restricted to live peers when masked."""
    if alive is None:
        return nearest_indices(positions, target_pos, graph.space)
    live = np.flatnonzero(alive)
    if len(live) == 0:
        raise ValueError("cannot route in a network with no live peers")
    local = nearest_indices(positions[live], target_pos, graph.space)
    return live[local].astype(np.int64)


def _graph_metric(graph: SmallWorldGraph, metric: str) -> GreedyValueMetric:
    """Bind the paper's greedy rule for ``graph`` under a metric name."""
    if metric == "key":
        return GreedyValueMetric(graph.ids, graph.space)
    if metric == "normalized":
        return GreedyValueMetric(
            graph.normalized_ids,
            graph.space,
            transform=lambda keys: _positions_and_targets(graph, keys, "normalized")[1],
        )
    raise ValueError(f"unknown metric {metric!r}; choose 'key' or 'normalized'")


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

    Semantically equivalent to calling :func:`repro.core.routing.greedy_route`
    once per pair, but advancing all walks together one hop per numpy
    step through :func:`repro.core.metric_routing.frontier_route_many`
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
            out-of-range or dead source peer, or no live peers.
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


def lookahead_route_many(
    graph: SmallWorldGraph,
    sources: np.ndarray,
    target_keys: np.ndarray,
    metric: str = "key",
    max_hops: int | None = None,
    record_paths: bool = False,
) -> BatchRouteResult:
    """Batch neighbour-of-neighbour routing, hop-for-hop equal to the scalar.

    The frontier scheme of :func:`route_many` extended one level: each
    step gathers every active walk's candidates *and* each candidate's
    own out-row into a dense ``(walks, degree, degree)`` block, scores
    every candidate by ``(min(d_j, best two-step), d_j)`` exactly as
    :func:`repro.core.routing.lookahead_route` does, and picks the first
    lexicographic minimum in CSR row order — reproducing the scalar
    router's candidate scan (neighbours before long links, first strict
    improvement wins).  Walks with no candidate strictly improving the
    two-step prospect stop as ``"stuck"``.

    Args:
        graph: the overlay to route on.
        sources: int array of originating peers.
        target_keys: float array of lookup keys, aligned with ``sources``.
        metric: ``"key"`` or ``"normalized"``.
        max_hops: per-route hop budget; defaults to ``n``.
        record_paths: also record every walk's visited-node list.

    Raises:
        ValueError: on mismatched inputs, an invalid metric, or an
            out-of-range source peer.
    """
    n = graph.n
    sources = np.asarray(sources, dtype=np.int64)
    target_keys = np.asarray(target_keys, dtype=float)
    if sources.ndim != 1 or target_keys.ndim != 1:
        raise ValueError("sources and target_keys must be one-dimensional")
    if len(sources) != len(target_keys):
        raise ValueError(
            f"got {len(sources)} sources but {len(target_keys)} target keys"
        )
    if len(sources) and (sources.min() < 0 or sources.max() >= n):
        bad = sources[(sources < 0) | (sources >= n)][0]
        raise ValueError(f"source index {bad} out of range for {n} peers")
    if max_hops is None:
        max_hops = n

    n_routes = len(sources)
    positions, target_pos = _positions_and_targets(graph, target_keys, metric)
    owners = _owners_under_metric(graph, positions, target_pos, alive=None)

    csr = graph.adjacency
    indptr, indices, is_long = csr.indptr, csr.indices, csr.is_long
    space = graph.space

    current = sources.copy()
    current_dist = space.pairwise_distances(positions[current], target_pos)
    hops = np.zeros(n_routes, dtype=np.int64)
    neighbor_hops = np.zeros(n_routes, dtype=np.int64)
    long_hops = np.zeros(n_routes, dtype=np.int64)
    reason_codes = np.full(n_routes, REASON_ARRIVED, dtype=np.int8)
    success = current == owners
    active = ~success
    step_walks: list[np.ndarray] = []
    step_nodes: list[np.ndarray] = []

    while True:
        frontier = np.flatnonzero(active)
        if frontier.size == 0:
            break
        exhausted = hops[frontier] >= max_hops
        if exhausted.any():
            spent = frontier[exhausted]
            reason_codes[spent] = REASON_MAX_HOPS
            active[spent] = False
            frontier = frontier[~exhausted]
            if frontier.size == 0:
                break

        cur = current[frontier]
        cur_dist = current_dist[frontier]
        starts = indptr[cur]
        degrees = indptr[cur + 1] - starts
        max_degree = int(degrees.max())
        if max_degree == 0:
            reason_codes[frontier] = REASON_STUCK
            active[frontier] = False
            break
        lanes = np.arange(max_degree, dtype=np.int64)
        valid = lanes[None, :] < degrees[:, None]
        slots = np.where(valid, starts[:, None] + lanes[None, :], 0)
        candidates = indices[slots]
        cand_dist = space.pairwise_distances(
            positions[candidates], target_pos[frontier][:, None]
        )
        # "Never step away from the target" — unless the candidate IS
        # the owner (the scalar router's explicit exception).
        eligible = valid & (
            (cand_dist < cur_dist[:, None]) | (candidates == owners[frontier][:, None])
        )

        # Second level: each *eligible* candidate's own out-row, scored
        # by the best distance any of its links reaches.  Only a handful
        # of lanes survive the eligibility cut, so the gather runs over
        # the compressed (pair, degree) block, not (walk, degree, degree).
        two_step = cand_dist.copy()  # ineligible lanes keep the d_j default
        el_rows, el_lanes = np.nonzero(eligible)
        if el_rows.size:
            cand_el = candidates[el_rows, el_lanes]
            starts2 = indptr[cand_el]
            deg2 = indptr[cand_el + 1] - starts2
            max_deg2 = int(deg2.max())
            if max_deg2 > 0:
                lanes2 = np.arange(max_deg2, dtype=np.int64)
                valid2 = lanes2[None, :] < deg2[:, None]
                slots2 = np.where(valid2, starts2[:, None] + lanes2[None, :], 0)
                two_dist = space.pairwise_distances(
                    positions[indices[slots2]],
                    target_pos[frontier][el_rows][:, None],
                )
                best_two = np.where(valid2, two_dist, np.inf).min(axis=1)
                two_step[el_rows, el_lanes] = np.where(
                    deg2 > 0, best_two, cand_dist[el_rows, el_lanes]  # default=d_j
                )

        d_e = np.where(eligible, cand_dist, np.inf)
        score_m = np.where(eligible, np.minimum(cand_dist, two_step), np.inf)
        best_m = score_m.min(axis=1)
        tie = np.where(score_m == best_m[:, None], d_e, np.inf)
        rows = np.arange(frontier.size)
        best_lane = np.argmin(tie, axis=1)
        improves = best_m < cur_dist

        stuck = frontier[~improves]
        if stuck.size:
            reason_codes[stuck] = REASON_STUCK
            active[stuck] = False

        movers = frontier[improves]
        if movers.size:
            move_rows = rows[improves]
            chosen = candidates[move_rows, best_lane[improves]]
            chosen_long = is_long[slots[move_rows, best_lane[improves]]]
            current[movers] = chosen
            current_dist[movers] = cand_dist[move_rows, best_lane[improves]]
            hops[movers] += 1
            neighbor_hops[movers] += ~chosen_long
            long_hops[movers] += chosen_long
            if record_paths:
                step_walks.append(movers)
                step_nodes.append(chosen)
            arrived = chosen == owners[movers]
            success[movers[arrived]] = True
            active[movers[arrived]] = False

    paths = _assemble_paths(sources, step_walks, step_nodes) if record_paths else None
    return BatchRouteResult(
        success=success,
        hops=hops,
        neighbor_hops=neighbor_hops,
        long_hops=long_hops,
        reason_codes=reason_codes,
        sources=sources,
        target_keys=target_keys,
        owners=owners,
        paths=paths,
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
