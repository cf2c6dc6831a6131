"""Search-only reference for the live overlay's snapshot and dangling count.

:meth:`repro.overlay.Network.snapshot` resolves stored links through
slab-row hints and searches only where a hint misses.  This module keeps
the algorithm it replaced: copy every live slab row out, test each
stored target's membership with a binary search, binary-search the
survivors' positions again, and place long links in the CSR through
explicit index arrays.  It reads the slab directly and trusts no hint,
so the property suite and ``benchmarks/bench_churn.py`` can hold the
fast path bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.core.adjacency import _neighbor_blocks, segment_offsets
from repro.keyspace import membership_mask


def _live_rows(net):
    """``(targets, sources)`` over every live peer's stored links, flat."""
    counts = net._link_cnt[net._slot_at]
    lane = np.arange(net._link_tg.shape[1])[None, :] < counts[:, None]
    targets = net._link_tg[net._slot_at][lane]
    sources = np.repeat(np.arange(net.n, dtype=np.int64), counts)
    return targets, sources


def dangling_count(net) -> int:
    """Stored links of live peers whose target id is not live."""
    targets, _ = _live_rows(net)
    return int((~membership_mask(net.ids_array(), targets)).sum())


def snapshot_arrays(net) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ids, indptr, indices, long_start)`` of ``net``'s snapshot, by search only."""
    ids = net.ids_array().copy()
    n = len(ids)
    targets, sources = _live_rows(net)
    live = membership_mask(ids, targets)
    long_counts = np.bincount(sources[live], minlength=n)
    long_flat = np.searchsorted(ids, targets[live]).astype(np.int64)

    nbr_flat, nbr_counts = _neighbor_blocks(n, net.space.is_ring)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nbr_counts + long_counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    long_start = indptr[:-1] + nbr_counts
    nbr_slots = np.repeat(indptr[:-1], nbr_counts) + segment_offsets(nbr_counts)
    long_slots = np.repeat(long_start, long_counts) + segment_offsets(long_counts)
    indices[nbr_slots] = nbr_flat
    indices[long_slots] = long_flat
    return ids, indptr, indices, long_start


def assert_snapshot_matches(net, snap=None) -> None:
    """Fail unless ``snap`` (default: a fresh ``net.snapshot()``) and
    ``net.dangling_link_count()`` match the oracle on ``net``'s state."""
    snap = net.snapshot() if snap is None else snap
    csr = snap.adjacency
    expected = snapshot_arrays(net)
    for got, want in zip((snap.ids, csr.indptr, csr.indices, csr.long_start), expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    assert net.dangling_link_count() == dangling_count(net)
