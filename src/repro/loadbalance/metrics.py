"""Storage-load metrics: how evenly do keys spread across peers?

The paper's load-balancing goal (Section 4.1) is a *balanced number of
data objects per peer irrespective of the key distribution*.  These
metrics quantify a key→peer assignment: per-peer key counts, the Gini
coefficient, the max/mean ratio and the coefficient of variation.  A
key's owner is the one every router and the route cache resolve:
:func:`repro.keyspace.nearest_indices` (closest identifier, ties to the
lower one, wrapping on the ring).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.keyspace import IntervalSpace, KeySpace, nearest_indices

__all__ = ["storage_loads", "gini", "LoadSummary", "summarize_loads"]


def storage_loads(
    peer_ids: np.ndarray, keys: np.ndarray, space: KeySpace | None = None
) -> np.ndarray:
    """Count the keys owned by each peer (closest-identifier ownership).

    ``np.bincount`` of :func:`repro.keyspace.nearest_indices`, the owner
    rule routing uses, so a key on a midpoint between two peers counts
    for the lower one.

    Args:
        peer_ids: sorted peer identifiers.
        keys: stored keys in ``[0, 1)``.
        space: geometry deciding ownership (default interval).

    Returns:
        Integer array of per-peer key counts, aligned with ``peer_ids``.

    Raises:
        ValueError: for an empty peer population.
    """
    space = space or IntervalSpace()
    peer_ids = np.asarray(peer_ids, dtype=float)
    keys = np.asarray(keys, dtype=float)
    n = len(peer_ids)
    if n == 0:
        raise ValueError("need at least one peer")
    if np.any(np.diff(peer_ids) < 0):
        raise ValueError("peer_ids must be sorted")
    owners = nearest_indices(peer_ids, keys, space)
    return np.bincount(owners, minlength=n).astype(np.int64)


def gini(values: np.ndarray) -> float:
    """Return the Gini coefficient of a non-negative value vector.

    0 means perfect equality; values approach 1 as a single peer holds
    everything.

    Raises:
        ValueError: on an empty vector or negative entries.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        raise ValueError("need at least one value")
    if np.any(values < 0):
        raise ValueError("values must be non-negative")
    total = values.sum()
    if total == 0:
        return 0.0
    sorted_vals = np.sort(values)
    n = len(values)
    cum = np.cumsum(sorted_vals)
    # Standard formula: G = (n + 1 - 2 * sum_i cum_i / total) / n
    return float((n + 1 - 2.0 * (cum / total).sum()) / n)


@dataclass
class LoadSummary:
    """Summary of a storage-load vector.

    Attributes:
        n_peers: number of peers.
        n_keys: total keys assigned.
        mean: mean keys per peer.
        max_mean_ratio: heaviest peer relative to the mean.
        cv: coefficient of variation (std / mean).
        gini: Gini coefficient.
        empty_fraction: fraction of peers storing nothing.
    """

    n_peers: int
    n_keys: int
    mean: float
    max_mean_ratio: float
    cv: float
    gini: float
    empty_fraction: float


def summarize_loads(loads: np.ndarray) -> LoadSummary:
    """Aggregate a per-peer key-count vector into a :class:`LoadSummary`.

    Raises:
        ValueError: on an empty vector.
    """
    loads = np.asarray(loads, dtype=float)
    if len(loads) == 0:
        raise ValueError("need at least one peer")
    mean = float(loads.mean())
    return LoadSummary(
        n_peers=len(loads),
        n_keys=int(loads.sum()),
        mean=mean,
        max_mean_ratio=float(loads.max() / mean) if mean > 0 else 0.0,
        cv=float(loads.std() / mean) if mean > 0 else 0.0,
        gini=gini(loads),
        empty_fraction=float(np.mean(loads == 0)),
    )
