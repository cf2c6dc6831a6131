"""Nearest-identifier search over sorted peer populations.

Every overlay in this repository stores its peers as a sorted numpy array
of identifiers.  Resolving which peer *owns* a key (the peer with minimal
key-space distance) is therefore a bisection plus a constant number of
comparisons; this module centralises that logic for both topologies so
that routing code, join protocols and test oracles all agree on
ownership.

The bisection is :func:`lower_bounds`: ``np.searchsorted(ids, keys,
side="left")``, or the same answer through a :class:`BucketIndex`.  The
index splits ``[0, 1)`` into ``len(ids)`` equal buckets and stores where
each bucket's ids start, so a key's lower bound is its bucket's offset
plus a short forward scan.  That pays when the ids are spread evenly,
as the paper's F-normalised positions are (Section 4.2: uniform order
statistics, about one id per bucket; at ``n = 1e6`` the fullest bucket
holds 8 or 9).  :func:`bucket_index` builds the table and keeps it only
where its occupancy says the scan wins.  Construction builds one per
sorted position array and passes it as ``index=``; callers without one
(serving, routing, churn) keep plain ``searchsorted``.
"""

from __future__ import annotations

import numpy as np

from repro.keyspace.base import KeySpace

__all__ = [
    "BucketIndex",
    "bucket_index",
    "lower_bounds",
    "nearest_index",
    "nearest_indices",
    "successor_index",
    "successor_indices",
    "predecessor_index",
    "membership_mask",
]

#: Forward steps a key scans inside its bucket; the keys still short of
#: their bound after that take ``np.searchsorted``.  Under uniform
#: positions a bucket holds more than 8 ids with probability ~1e-6, so
#: the fallback only costs where ids cluster.
_SCAN_STEPS = 8

#: Keys handled per pass of a large search, so its temporaries stay in
#: a core's L2 cache (512 KB per float64 array).  On 20M keys over 1e6
#: ids, :func:`nearest_indices` took 1.5 s in slices of 2^16 keys, 3.0 s
#: in slices of 2^18 and 3.3 s in one pass.
_CHUNK = 1 << 16

#: :func:`bucket_index` keeps the table only while fewer than this share
#: of the ids sit in buckets holding more than ``_SCAN_STEPS`` ids (the
#: keys landing there scan the full 8 steps and then pay a
#: ``searchsorted`` as well).  Measured crossover, 4M keys drawn by the
#: build's harmonic kernel (2-CPU Xeon, numpy 2.4), scan time over
#: ``searchsorted`` time: 0.14–0.28 at share 0 (uniform and F-normalised
#: ids), 0.32–0.66 at 0.32, 0.63–0.95 at 0.56–0.66, 0.81–0.95 at 0.78
#: (the naive model's raw PowerLaw(1.5) ids) and 1.34–1.45 at 1.0 (every
#: id in one bucket).  At 0.5 the table is kept only where it won by
#: at least ~1.3×.
_MAX_OVERFULL_SHARE = 0.5


class BucketIndex:
    """Where each of ``len(ids)`` equal buckets of ``[0, 1)`` starts in ``ids``.

    Bucket ``b`` holds the ids ``x`` with ``floor(x · n) == b``, clipped
    into ``[0, n)`` (ids and keys outside ``[0, 1)`` land in the end
    buckets).  That map is monotone, so every id in a lower bucket is
    below a key and every id in a higher one above it: the key's lower
    bound lies inside its own bucket.  :meth:`lower_bounds` finds it by a
    forward scan from the bucket's offset, at most :data:`_SCAN_STEPS`
    steps, with ``searchsorted`` for keys still short after that, and so
    returns exactly what ``np.searchsorted(ids, keys, side="left")``
    returns.

    Build one per sorted id array and reuse it for every search over
    that array: the table costs a ``bincount`` and a ``cumsum`` over the
    ids (~10–20 ms at ``n = 1e6``).

    Args:
        sorted_ids: one-dimensional, non-empty, *sorted* float ids.

    Attributes:
        ids: the indexed array (searches check they get this object).
        offsets: ``n + 1`` bucket starts; bucket ``b`` is
            ``ids[offsets[b]:offsets[b + 1]]``.
        overfull_share: share of the ids in buckets holding more than
            :data:`_SCAN_STEPS` ids.
    """

    def __init__(self, sorted_ids: np.ndarray):
        n = len(sorted_ids)
        if n == 0:
            raise ValueError("cannot index an empty identifier set")
        self.ids = sorted_ids
        self._scale = float(n)
        counts = np.bincount(self._buckets(sorted_ids), minlength=n)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        self.overfull_share = float(counts[counts > _SCAN_STEPS].sum()) / n
        # A key's scan stops at the first id not below it; the ids of the
        # next bucket are all above it, and +inf ends the last bucket.
        self._ext = np.append(np.asarray(sorted_ids, dtype=float), np.inf)

    def _buckets(self, x: np.ndarray) -> np.ndarray:
        b = (x * self._scale).astype(np.int64)
        np.clip(b, 0, len(self.ids) - 1, out=b)
        return b

    def lower_bounds(self, keys: np.ndarray) -> np.ndarray:
        """``np.searchsorted(self.ids, keys, side="left")`` through the table.

        ``keys`` may take any shape; NaN keys are not supported.
        """
        return _by_chunks(np.asarray(keys, dtype=float), self._scan)

    def _scan(self, x: np.ndarray) -> np.ndarray:
        pos = np.take(self.offsets, self._buckets(x))
        step = np.take(self._ext, pos) < x
        pos += step
        moving = np.flatnonzero(step)
        for _ in range(_SCAN_STEPS - 1):
            if not len(moving):
                break
            at = pos[moving]
            step = np.take(self._ext, at) < x[moving]
            moving = moving[step]
            pos[moving] = at[step] + 1
        if len(moving):
            pos[moving] = np.searchsorted(self.ids, x[moving])
        return pos


def _by_chunks(keys: np.ndarray, search) -> np.ndarray:
    """``search`` over :data:`_CHUNK`-key slices of ``keys``, as one int64 array."""
    flat = keys.reshape(-1)
    if len(flat) <= _CHUNK:
        return np.asarray(search(flat), dtype=np.int64).reshape(keys.shape)
    out = np.empty(len(flat), dtype=np.int64)
    for lo in range(0, len(flat), _CHUNK):
        out[lo : lo + _CHUNK] = search(flat[lo : lo + _CHUNK])
    return out.reshape(keys.shape)


def bucket_index(sorted_ids: np.ndarray) -> BucketIndex | None:
    """A :class:`BucketIndex` over ``sorted_ids`` where its scan wins, else None.

    None means "search with plain ``np.searchsorted``"; every search
    function here takes it as ``index=``.  The rule is the table's own
    occupancy (see :data:`_MAX_OVERFULL_SHARE`): uniform and
    F-normalised positions keep it, clustered raw ids do not.
    """
    if len(sorted_ids) == 0:
        return None
    index = BucketIndex(sorted_ids)
    return index if index.overfull_share < _MAX_OVERFULL_SHARE else None


def lower_bounds(
    sorted_ids: np.ndarray, keys: np.ndarray, index: BucketIndex | None = None
) -> np.ndarray:
    """``np.searchsorted(sorted_ids, keys, side="left")``, through ``index`` if given.

    Raises:
        ValueError: if ``index`` was built over another array.
    """
    if index is None:
        return np.searchsorted(sorted_ids, keys)
    if index.ids is not sorted_ids:
        raise ValueError("the bucket index was built over a different id array")
    return index.lower_bounds(keys)


def nearest_index(sorted_ids: np.ndarray, key: float, space: KeySpace) -> int:
    """Return the index of the identifier closest to ``key``.

    Ties (a key exactly halfway between two peers) resolve to the
    lower-identifier peer, matching the deterministic tie-break used by
    greedy routing.

    Args:
        sorted_ids: one-dimensional *sorted* array of identifiers.
        key: the lookup key in ``[0, 1)``.
        space: the key-space geometry deciding the metric.

    Raises:
        ValueError: if ``sorted_ids`` is empty.
    """
    n = len(sorted_ids)
    if n == 0:
        raise ValueError("cannot search an empty identifier set")
    pos = int(np.searchsorted(sorted_ids, key))
    if space.is_ring:
        candidates = ((pos - 1) % n, pos % n)
    else:
        candidates = tuple(i for i in (pos - 1, pos) if 0 <= i < n)
    best = candidates[0]
    best_dist = space.distance(float(sorted_ids[best]), key)
    for idx in candidates[1:]:
        dist = space.distance(float(sorted_ids[idx]), key)
        if dist < best_dist or (dist == best_dist and sorted_ids[idx] < sorted_ids[best]):
            best = idx
            best_dist = dist
    return int(best)


def nearest_indices(
    sorted_ids: np.ndarray,
    keys: np.ndarray,
    space: KeySpace,
    index: BucketIndex | None = None,
) -> np.ndarray:
    """Vectorised :func:`nearest_index` over an array of lookup keys.

    Produces, for every key, exactly the index the scalar function would
    return — including the lower-identifier tie-break — so batch routing
    and scalar routing agree on ownership.

    Args:
        sorted_ids: one-dimensional *sorted* array of identifiers.
        keys: lookup keys in ``[0, 1)``.
        space: the key-space geometry deciding the metric.
        index: a :func:`bucket_index` over ``sorted_ids`` (the same
            object), or None for plain ``searchsorted``; either gives the
            same answer.

    Raises:
        ValueError: if ``sorted_ids`` is empty.
    """
    n = len(sorted_ids)
    if n == 0:
        raise ValueError("cannot search an empty identifier set")

    def nearest(x: np.ndarray) -> np.ndarray:
        pos = lower_bounds(sorted_ids, x, index)
        if space.is_ring:
            first = (pos - 1) % n
            second = pos % n
        else:
            first = np.clip(pos - 1, 0, n - 1)
            second = np.clip(pos, 0, n - 1)
        id_first = np.take(sorted_ids, first)
        id_second = np.take(sorted_ids, second)
        dist_first = space.pairwise_distances(id_first, x)
        dist_second = space.pairwise_distances(id_second, x)
        take_second = (dist_second < dist_first) | (
            (dist_second == dist_first) & (id_second < id_first)
        )
        return np.where(take_second, second, first)

    return _by_chunks(np.asarray(keys, dtype=float), nearest)


def successor_index(sorted_ids: np.ndarray, key: float) -> int:
    """Return the index of the first identifier ``>= key`` (ring wrap at the top).

    This is Chord's ``successor`` function on the unit ring: keys beyond
    the largest identifier wrap to index 0.
    """
    n = len(sorted_ids)
    if n == 0:
        raise ValueError("cannot search an empty identifier set")
    pos = int(np.searchsorted(sorted_ids, key, side="left"))
    return pos % n


def successor_indices(
    sorted_ids: np.ndarray, keys: np.ndarray, index: BucketIndex | None = None
) -> np.ndarray:
    """Vectorised :func:`successor_index` over an array of lookup keys.

    Returns, for every key, exactly the index the scalar function would
    — the bulk builders (Chord fingers, Symphony links) rely on this so
    whole-population construction agrees with scalar ownership.
    ``index`` is as for :func:`nearest_indices`.

    Raises:
        ValueError: if ``sorted_ids`` is empty.
    """
    n = len(sorted_ids)
    if n == 0:
        raise ValueError("cannot search an empty identifier set")
    keys = np.asarray(keys, dtype=float)
    return (lower_bounds(sorted_ids, keys, index) % n).astype(np.int64)


def membership_mask(sorted_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Return a boolean mask marking which ``keys`` occur in ``sorted_ids``.

    One ``searchsorted`` pass — the vectorized form of ``key in
    population`` that the live overlay's dangling-link detection runs
    over every stored long-link target per repair round.  Identifiers
    compare by exact float equality, matching the scalar overlay's
    dict-membership semantics.

    Args:
        sorted_ids: one-dimensional *sorted* array of identifiers (may be
            empty, in which case nothing is a member).
        keys: identifiers to test, any shape.
    """
    keys = np.asarray(keys, dtype=float)
    if len(sorted_ids) == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_ids, keys)
    in_bounds = pos < len(sorted_ids)
    hit = np.zeros(keys.shape, dtype=bool)
    hit[in_bounds] = sorted_ids[pos[in_bounds]] == keys[in_bounds]
    return hit


def predecessor_index(sorted_ids: np.ndarray, key: float) -> int:
    """Return the index of the last identifier ``< key`` (ring wrap at 0)."""
    n = len(sorted_ids)
    if n == 0:
        raise ValueError("cannot search an empty identifier set")
    pos = int(np.searchsorted(sorted_ids, key, side="left")) - 1
    return pos % n
