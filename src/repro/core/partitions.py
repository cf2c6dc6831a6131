"""Doubling-partition bookkeeping for the Theorem 1 proof internals.

The proof views the key space from the target ``t`` as ``log2 N``
partitions ``A_1 … A_{log2 N}``, where ``A_j`` contains the peers at
normalised distance ``[2^(−m+j−1), 2^(−m+j))`` from ``t`` (``m = log2 N``)
— each partition twice as wide as the one before.  Two quantities drive
the bound:

* ``Pnext`` (eq. (5)): the probability that a hop advances the message at
  least one partition toward the target — at least
  ``c = 1 − e^(−1/(3 ln 2))``;
* ``E[X_j]`` (eq. (6)): the expected hops spent inside partition ``A_j``
  before advancing — at most ``(1 − c)/c``.

This module measures both from actual routed paths so experiment E2 can
compare them against the analytic constants: one pass assigns every
visited node its partition, and segmented differences over the
concatenated paths give the advances and the runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.graph import SmallWorldGraph
from repro.core.metric_routing import BatchRouteResult
from repro.core.routing import RouteResult
from repro.core.theory import n_partitions

__all__ = [
    "partition_index",
    "partition_indices",
    "AdvanceStats",
    "advance_stats",
]


def partition_indices(distances, n: int) -> np.ndarray:
    """Return the doubling-partition index of every normalised distance.

    Partition ``j ∈ {1, …, m}`` (``m = ⌈log2 n⌉``) covers distances in
    ``[2^(j−1−m), 2^(j−m))``; index 0 means "inside the target's own
    ``1/N`` cell" (distance below ``2^(−m)``), and distances of 1/2 and
    more clamp to ``m``.  ``⌊log2 d⌋`` is read exactly from the binary
    exponent (``np.frexp``), so a float just below a power of two stays
    in the lower partition, where rounding ``log2`` would lift it.

    Raises:
        ValueError: for a negative or NaN distance, or ``n < 2``.
    """
    distances = np.asarray(distances, dtype=float)
    if not (distances >= 0.0).all():
        raise ValueError("distances must be >= 0")
    m = n_partitions(n)
    _, exponent = np.frexp(distances)  # d = f * 2**exponent, 1/2 <= f < 1
    return np.where(
        distances > 0.0, np.clip(exponent.astype(np.int64) + m, 0, m), 0
    )


def partition_index(distance: float, n: int) -> int:
    """The :func:`partition_indices` rule applied to one distance."""
    return int(partition_indices(distance, n))


def _path_partitions(
    graph: SmallWorldGraph, paths: list[list[int]], target_keys
) -> tuple[np.ndarray, np.ndarray]:
    """Partition index of every visited node, paths concatenated, and
    each path's node count.

    Distances are measured in normalised space (where the proof lives),
    from each visited peer to its target key's normalised position.
    """
    lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
    nodes = np.fromiter(
        itertools.chain.from_iterable(paths), dtype=np.int64, count=int(lengths.sum())
    )
    targets = np.array(
        [graph.normalized_key(float(key)) for key in target_keys], dtype=float
    )
    distances = graph.space.pairwise_distances(
        graph.normalized_ids[nodes], np.repeat(targets, lengths)
    )
    return partition_indices(distances, graph.n), lengths


@dataclass
class AdvanceStats:
    """Aggregated proof-internal statistics over many routed paths.

    Attributes:
        p_advance: fraction of hops (taken from partitions ``j >= 1``)
            that land in a strictly lower partition — the empirical
            ``Pnext`` of eq. (5).
        mean_hops_per_partition: mean length of a maximal run of hops
            spent inside a single partition — the empirical ``E[X_j]``
            of eq. (6).
        per_partition_hops: mapping ``j -> mean run length`` within
            partition ``j``.
        n_hops: total hops analysed.
        per_partition_steps: mapping ``j -> hops taken from inside
            partition j`` (partitions with at least one).
        per_partition_advance: mapping ``j ->`` fraction of those hops
            that advance — ``Pnext`` per partition.
    """

    p_advance: float
    mean_hops_per_partition: float
    per_partition_hops: dict[int, float]
    n_hops: int
    per_partition_steps: dict[int, int]
    per_partition_advance: dict[int, float]


def advance_stats(
    graph: SmallWorldGraph, routes: BatchRouteResult | list[RouteResult]
) -> AdvanceStats:
    """Measure eq. (5)/(6) quantities from routed paths.

    ``routes`` is a batch routed with ``record_paths=True`` or a list of
    :class:`RouteResult`.  Hops that start inside the target's own cell
    (partition 0) are excluded, matching the proof (the final approach
    over neighbour edges is accounted separately there).  A run is a
    maximal stretch of one path inside one partition; its length is the
    hops taken from its nodes.
    """
    if isinstance(routes, BatchRouteResult):
        if routes.paths is None:
            raise ValueError("advance_stats needs a batch routed with record_paths=True")
        paths, target_keys = routes.paths, routes.target_keys
    else:
        paths = [result.path for result in routes]
        target_keys = [result.target_key for result in routes]
    partitions, lengths = _path_partitions(graph, paths, target_keys)
    bins = n_partitions(graph.n) + 1

    starts = np.cumsum(lengths) - lengths
    has_hop = np.ones(len(partitions), dtype=bool)
    has_hop[starts + lengths - 1] = False  # a path's last node takes no hop
    hop_at = np.flatnonzero(has_hop)
    before, after = partitions[hop_at], partitions[hop_at + 1]
    taken = before >= 1
    steps = np.bincount(before[taken], minlength=bins)
    advances = np.bincount(before[taken & (after < before)], minlength=bins)

    run_start = np.ones(len(partitions), dtype=bool)
    run_start[1:] = partitions[1:] != partitions[:-1]
    run_start[starts] = True
    run_partition = partitions[run_start]
    run_hops = np.bincount(
        (np.cumsum(run_start) - 1)[has_hop], minlength=len(run_partition)
    )
    counted = (run_partition >= 1) & (run_hops > 0)
    runs = np.bincount(run_partition[counted], minlength=bins)
    run_totals = np.bincount(
        run_partition[counted], weights=run_hops[counted], minlength=bins
    )

    considered = int(steps.sum())
    n_runs = int(runs.sum())
    return AdvanceStats(
        p_advance=int(advances.sum()) / considered if considered else float("nan"),
        mean_hops_per_partition=(
            float(run_totals.sum() / n_runs) if n_runs else float("nan")
        ),
        per_partition_hops={
            int(j): float(run_totals[j] / runs[j]) for j in np.flatnonzero(runs)
        },
        n_hops=considered,
        per_partition_steps={int(j): int(steps[j]) for j in np.flatnonzero(steps)},
        per_partition_advance={
            int(j): int(advances[j]) / int(steps[j]) for j in np.flatnonzero(steps)
        },
    )
