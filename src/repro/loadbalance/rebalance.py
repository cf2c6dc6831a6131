"""Online load rebalancing (Ganesan, Bawa & Garcia-Molina, VLDB 2004 — paper ref. [12]).

The paper cites online balancing of range-partitioned data as one of the
mechanisms that produce the skew-tracking peer placement its model
assumes.  This module implements the *reorder* primitive of that work:
when a peer's load exceeds a threshold multiple of the lightest peer's,
the lightest peer hands its range to a neighbour and re-joins by
splitting the heaviest peer's range in half (by key count).  Iterating
drives the max/min load ratio below the threshold.

It serves two purposes in the reproduction: (a) it closes the loop from
"keys are skewed" to "peer ids follow the key density" without assuming
knowledge of ``f``; (b) the E8 ablation uses it to show the paper's
placement assumption is *achievable*, not hypothetical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.keyspace import IntervalSpace, nearest_indices

__all__ = ["RebalanceResult", "rebalance_reorder"]

_SPACE = IntervalSpace()


@dataclass
class RebalanceResult:
    """Outcome of an iterative rebalancing run.

    Attributes:
        peer_ids: final sorted peer identifiers.
        moves: number of reorder operations performed.
        final_ratio: final max/min(+1) load ratio.
        converged: whether the target threshold was met.
    """

    peer_ids: np.ndarray
    moves: int
    final_ratio: float
    converged: bool


def _owned_ranges(peer_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``bounds`` such that peer ``i`` owns ``keys[bounds[i]:bounds[i + 1]]``.

    Owners (:func:`~repro.keyspace.nearest_indices` on the interval)
    never decrease along the sorted ``keys``, so every peer's first key
    is found by one bisection; the peers bisect together, one
    ``nearest_indices`` call over ``n`` probe keys per step.
    """
    n, m = len(peer_ids), len(keys)
    peers = np.arange(n)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, m, dtype=np.int64)
    while np.any(lo < hi):
        active = lo < hi
        mid = (lo + hi) // 2
        below = nearest_indices(peer_ids, keys[np.minimum(mid, m - 1)], _SPACE) < peers
        lo = np.where(active & below, mid + 1, lo)
        hi = np.where(active & ~below, mid, hi)
    return np.append(lo, m)


def _ratio(loads: np.ndarray) -> float:
    """Max over min load ratio, with +1 smoothing against empty peers."""
    return float((loads.max() + 1.0) / (loads.min() + 1.0))


def rebalance_reorder(
    peer_ids: np.ndarray,
    keys: np.ndarray,
    threshold: float = 4.0,
    max_moves: int | None = None,
) -> RebalanceResult:
    """Iteratively reorder peers until the load ratio drops below ``threshold``.

    One move: the globally lightest peer leaves (its keys merge into a
    neighbour's range) and re-inserts at the median key of the heaviest
    peer's keys, halving that peer's load.  Keys are owned as
    :func:`~repro.loadbalance.storage_loads` counts them (the routers'
    :func:`~repro.keyspace.nearest_indices` rule, on the interval).
    This is the deterministic core of Ganesan et al.'s *reorder*
    operation; with a constant threshold it needs O(n log n) moves from
    any initial placement.

    Args:
        peer_ids: initial sorted peer identifiers.
        keys: stored keys.
        threshold: target max/min(+1) load ratio (> 1).
        max_moves: safety cap; default ``8 * n``.

    Raises:
        ValueError: for fewer than 3 peers, no keys, or ``threshold <= 1``.
    """
    peer_ids = np.sort(np.asarray(peer_ids, dtype=float))
    keys = np.sort(np.asarray(keys, dtype=float))
    n = len(peer_ids)
    if n < 3:
        raise ValueError("rebalancing needs at least 3 peers")
    if len(keys) == 0:
        raise ValueError("rebalancing needs at least one key")
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1, got {threshold}")
    if max_moves is None:
        max_moves = 8 * n
    moves = 0
    bounds = _owned_ranges(peer_ids, keys)
    loads = np.diff(bounds)
    while _ratio(loads) > threshold and moves < max_moves:
        lightest = int(np.argmin(loads))
        heaviest = int(np.argmax(loads))
        owned = keys[bounds[heaviest] : bounds[heaviest + 1]]
        if len(owned) < 2:
            break  # cannot split a near-empty range further
        split_at = float(np.median(owned))
        # Nudge off the peer's own position to keep identifiers distinct.
        if np.any(np.isclose(peer_ids, split_at)):
            split_at = np.nextafter(split_at, 1.0)
        new_ids = np.delete(peer_ids, lightest)
        peer_ids = np.sort(np.append(new_ids, split_at))
        bounds = _owned_ranges(peer_ids, keys)
        loads = np.diff(bounds)
        moves += 1
    final = _ratio(loads)
    return RebalanceResult(
        peer_ids=peer_ids,
        moves=moves,
        final_ratio=final,
        converged=final <= threshold,
    )
