"""Greedy distance-minimising routing over small-world graphs.

"In each step a node u forwards a search request for a target key t to
the node with the minimal distance to the target node t among all nodes
reachable through an edge from u" (Section 3).  Because the move is only
taken when it strictly decreases the distance, the walk can never revisit
a node and always terminates within ``n`` hops.

Two metrics are supported:

* ``"key"`` — greedy on raw key distance (what a deployed peer would
  compute locally from identifiers alone);
* ``"normalized"`` — greedy on CDF-normalised distance, the metric of
  Theorem 2's proof.

``F`` is monotone, so the two only differ when the target lies between
two peers on opposite sides; both yield the theorem's ``O(log N)``
behaviour (ablation in experiment E5).

A failure-aware mode (``alive`` mask) supports the churn experiments:
dead peers are invisible, and success means reaching the key's owner
*among the surviving peers*.

The rule has one implementation, the frontier kernel behind
:func:`repro.core.route_many`; :func:`greedy_route` routes one lookup as a
batch of one through it, and :func:`sample_routes` a sampled batch.  The
per-lookup loop they are held to lives in ``tests/route_oracle.py``.
:func:`lookahead_route` (experiment E13's neighbour-of-neighbour router)
is a different rule and stays a per-lookup loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.graph import SmallWorldGraph
from repro.keyspace import check_unit_keys, nearest_index

__all__ = ["RouteResult", "greedy_route", "lookahead_route", "sample_routes"]


@dataclass
class RouteResult:
    """Outcome of one greedy lookup.

    Attributes:
        success: the walk arrived at the target key's owner.
        hops: total edges traversed.
        neighbor_hops: hops over ring/interval neighbour edges.
        long_hops: hops over long-range edges.
        path: node indices visited, starting at the source.
        reason: ``"arrived"``, ``"stuck"`` (no strictly-closer live
            neighbour) or ``"max_hops"``.
        target_key: the key that was looked up.
        owner: index of the peer that owns the key.
    """

    success: bool
    hops: int
    neighbor_hops: int
    long_hops: int
    path: list[int] = field(default_factory=list)
    reason: str = "arrived"
    target_key: float = 0.0
    owner: int = -1


def _positions_and_target(
    graph: SmallWorldGraph, target_key: float, metric: str
) -> tuple[np.ndarray, float]:
    """Return the coordinate array and target position for the chosen metric."""
    if metric == "key":
        return graph.ids, float(target_key)
    if metric == "normalized":
        return graph.normalized_ids, graph.normalized_key(target_key)
    raise ValueError(f"unknown metric {metric!r}; choose 'key' or 'normalized'")


def greedy_route(
    graph: SmallWorldGraph,
    source: int,
    target_key: float,
    metric: str = "key",
    max_hops: int | None = None,
    alive: np.ndarray | None = None,
) -> RouteResult:
    """Route greedily from peer ``source`` toward ``target_key``.

    A batch of one through :func:`repro.core.route_many`, with its path
    recorded.

    Args:
        graph: the overlay to route on.
        source: index of the originating peer (must be live).
        target_key: lookup key in ``[0, 1)``.
        metric: ``"key"`` or ``"normalized"`` (see module docstring).
        max_hops: hop budget; defaults to ``n`` (greedy cannot exceed it).
        alive: optional boolean liveness mask; dead peers are skipped.

    Raises:
        ValueError: on an invalid or dead source, an unknown metric, a
            key that is NaN or outside ``[0, 1)``, or a negative
            ``max_hops``.
    """
    from repro.core.batch_routing import route_many

    batch = route_many(
        graph,
        np.asarray([source], dtype=np.int64),
        np.asarray([target_key], dtype=float),
        metric=metric,
        alive=alive,
        max_hops=max_hops,
        record_paths=True,
    )
    return batch.to_route_results()[0]


def lookahead_route(
    graph: SmallWorldGraph,
    source: int,
    target_key: float,
    metric: str = "key",
    max_hops: int | None = None,
) -> RouteResult:
    """Neighbour-of-neighbour greedy routing (Manku et al., paper ref. [10]).

    Each step evaluates, for every out-neighbour ``x``, the best distance
    achievable by ``x``'s own out-links, and moves to the ``x`` with the
    best two-step prospect (breaking ties by ``x``'s own distance, then
    by scan order: ring/interval neighbours before long links, exactly
    the CSR row-order contract of :mod:`repro.core.adjacency`).  One
    step still traverses a single edge, so hop counts are comparable with
    :func:`greedy_route`; the experiments use this as the "extension"
    ablation showing the constant-factor improvement lookahead buys.

    Raises:
        ValueError: on an out-of-range source, an unknown metric or a
            key that is NaN or outside ``[0, 1)``.
    """
    check_unit_keys(target_key)
    n = graph.n
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for {n} peers")
    if max_hops is None:
        max_hops = n
    positions, target_pos = _positions_and_target(graph, target_key, metric)
    owner = nearest_index(positions, target_pos, graph.space)

    def dist_of(i: int) -> float:
        return graph.space.distance(float(positions[i]), target_pos)

    current = source
    path = [current]
    neighbor_hops = 0
    long_hops = 0
    while current != owner:
        if len(path) - 1 >= max_hops:
            return RouteResult(
                False, len(path) - 1, neighbor_hops, long_hops, path,
                "max_hops", target_key, owner,
            )
        current_dist = dist_of(current)
        ring_neighbors = graph.neighbor_indices(current)
        candidates = list(ring_neighbors) + [int(j) for j in graph.long_links[current]]
        best_idx = -1
        best_score = (current_dist, current_dist)
        for j in candidates:
            d_j = dist_of(j)
            if d_j >= current_dist and j != owner:
                continue  # never step away from the target
            two_step = min((dist_of(int(x)) for x in graph.out_links(j)), default=d_j)
            score = (min(d_j, two_step), d_j)
            if score < best_score:
                best_score = score
                best_idx = j
        if best_idx < 0:
            return RouteResult(
                False, len(path) - 1, neighbor_hops, long_hops, path,
                "stuck", target_key, owner,
            )
        if best_idx in ring_neighbors:
            neighbor_hops += 1
        else:
            long_hops += 1
        current = best_idx
        path.append(current)

    return RouteResult(
        True, len(path) - 1, neighbor_hops, long_hops, path,
        "arrived", target_key, owner,
    )


def sample_routes(
    graph: SmallWorldGraph,
    n_routes: int,
    rng: np.random.Generator,
    metric: str = "key",
    targets: str = "peers",
    alive: np.ndarray | None = None,
    max_hops: int | None = None,
) -> list[RouteResult]:
    """Run ``n_routes`` lookups between random live source/target pairs.

    Delegates to the vectorized batch engine
    (:func:`repro.core.batch_routing.sample_batch`) and materialises
    per-route :class:`RouteResult` objects with full paths.  Callers that
    only need aggregate columns should use :func:`sample_batch` directly.

    Args:
        graph: the overlay to measure.
        n_routes: number of lookups.
        rng: random source.
        metric: routing metric, as in :func:`greedy_route`.
        targets: ``"peers"`` draws an existing live peer's identifier as
            the key (the proofs' setting); ``"uniform"`` draws fresh
            uniform keys; ``"model"`` resamples an existing identifier
            with replacement and jitters it uniformly inside the gap to
            the successor peer (so keys follow the id distribution but
            rarely hit a peer exactly; nearest-peer ownership may
            resolve the upper half of a gap to the successor).
        alive: optional liveness mask applied to sources and routing.
        max_hops: per-route hop budget.

    Raises:
        ValueError: for an unknown ``targets`` mode or no live peers.
    """
    from repro.core.batch_routing import sample_batch

    batch = sample_batch(
        graph,
        n_routes,
        rng,
        metric=metric,
        targets=targets,
        alive=alive,
        max_hops=max_hops,
        record_paths=True,
    )
    return batch.to_route_results()
