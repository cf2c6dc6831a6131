"""Flat CSR adjacency over a small-world graph.

:class:`SmallWorldGraph` stores its edges in the form the paper describes
them: implicit ring/interval neighbour links plus a ragged per-peer list
of long-range links.  That shape is convenient for construction but slow
to traverse — every hop of a per-lookup loop re-materialises neighbour
tuples and iterates Python loops over numpy scraps.

This module flattens the whole edge set once into CSR (compressed sparse
row) arrays:

* ``indptr`` — ``(n + 1,)`` int64; peer ``i``'s out-edges live in the
  half-open slice ``indices[indptr[i]:indptr[i + 1]]``;
* ``indices`` — ``(E,)`` int64 edge targets;
* ``is_long`` — ``(E,)`` bool, ``True`` for long-range edges.

**Row order contract:** within each row the ring/interval neighbours come
first, in :meth:`SmallWorldGraph.neighbor_indices` order, followed by the
long links in their stored order.  The greedy rule depends on this — it
scans candidates in exactly that order and keeps the *first* strict
improvement, which is ``np.argmin``'s first-occurrence tie-break over a
CSR row (the per-lookup loop in ``tests/route_oracle.py`` scans the same
order).

Long links are stored ascending and distinct: the producers write
them that way.  :func:`repro.core.bulk_construction.split_rows` splits
sorted ``row * n + col`` keys (so :func:`~repro.core.bulk_construction.symmetrize_flat`
rows are sorted too), the per-peer samplers in ``tests/builder_oracle.py``
return ``np.sort``-ed sets, and the live overlay's
``bulk_dynamics._write_member_rows`` fills rows in target-id order.  So
from its third slot on (its *tail*: past the at most two neighbours)
each row is strictly increasing, and the frontier kernel's greedy
search round (:mod:`repro.core.metric_routing`) binary-searches it.
Nothing relies on that blindly: :attr:`CSRAdjacency.tails_sorted` reads
the order off the arrays, and a CSR without it — a hand-edited snapshot,
a live peer whose links were appended one at a time through its
``long_links`` view, a baseline's own row layout — is routed exactly, by
the linear round that scores every candidate.

Graphs are immutable snapshots (damage/churn helpers always build new
instances), so the CSR is built lazily once per graph and cached with no
invalidation protocol; see :attr:`SmallWorldGraph.adjacency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.graph import SmallWorldGraph

__all__ = [
    "CSRAdjacency",
    "build_csr",
    "csr_from_flat_links",
    "neighbor_counts",
    "segment_offsets",
    "tails_ascending",
]

#: Edges per block of :func:`tails_ascending`'s scan, which bounds its
#: temporary memory at ~1 MB whatever the edge count.
_SCAN_BLOCK = 1 << 20


@dataclass(frozen=True)
class CSRAdjacency:
    """The flattened edge set of one graph (see module docstring).

    Attributes:
        indptr: ``(n + 1,)`` int64 row pointers.
        indices: ``(E,)`` int64 edge targets, neighbours before long links
            within each row.
        is_long: ``(E,)`` bool flags marking long-range edges.
    """

    indptr: np.ndarray
    indices: np.ndarray
    is_long: np.ndarray

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or len(self.indptr) == 0:
            raise ValueError("indptr must be a non-empty 1-d array")
        if int(self.indptr[-1]) != len(self.indices):
            raise ValueError("indptr[-1] must equal the number of edges")
        if len(self.indices) != len(self.is_long):
            raise ValueError("indices and is_long must have equal length")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.n
        ):
            raise ValueError("edge targets out of range")

    @property
    def n(self) -> int:
        """Number of peers (rows)."""
        return len(self.indptr) - 1

    @property
    def n_edges(self) -> int:
        """Total number of directed edges."""
        return len(self.indices)

    def out_degrees(self) -> np.ndarray:
        """Per-peer total outdegree, as an int64 array."""
        return np.diff(self.indptr)

    def edge_sources(self) -> np.ndarray:
        """Source peer of every edge, aligned with :attr:`indices`."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.out_degrees())

    def row(self, i: int) -> np.ndarray:
        """Out-edge targets of peer ``i`` (neighbours first, then long)."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def row_is_long(self, i: int) -> np.ndarray:
        """Long-link flags aligned with :meth:`row`."""
        return self.is_long[self.indptr[i] : self.indptr[i + 1]]

    @cached_property
    def tails_sorted(self) -> bool:
        """Whether every row strictly increases from its third slot on.

        One blocked pass over the arrays (:func:`tails_ascending`), run
        the first time the frontier kernel asks and cached with the CSR.
        """
        return tails_ascending(self.indptr, self.indices)

    def __repr__(self) -> str:
        return f"CSRAdjacency(n={self.n}, edges={self.n_edges})"


def segment_offsets(counts: np.ndarray) -> np.ndarray:
    """Return ``[0..c0), [0..c1), ...`` concatenated for segment fills.

    The shared CSR-row fill helper: every per-row scatter in this module
    and in the baseline frontier assembly
    (:func:`repro.baselines.base.assemble_rows`) goes through it.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


def tails_ascending(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """Whether every CSR row strictly increases from its third slot on.

    A *drop* — a slot whose target is not above its predecessor's — is
    allowed only in a row's first three slots, where it compares across
    rows, between the two neighbours, or between the last neighbour and
    the first long link.  The scan runs in blocks of :data:`_SCAN_BLOCK`
    edges, so it never allocates an edge-length temporary.
    """
    n_edges = len(indices)
    for lo in range(1, n_edges, _SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK, n_edges)
        drops = np.flatnonzero(indices[lo:hi] <= indices[lo - 1 : hi - 1]) + lo
        if len(drops):
            rows = np.searchsorted(indptr, drops, side="right") - 1
            if np.any(drops - indptr[rows] > 2):
                return False
    return True


def _neighbor_blocks(n: int, is_ring: bool) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(flat neighbour targets, per-peer neighbour counts)``.

    Reproduces :meth:`SmallWorldGraph.neighbor_indices` for every peer at
    once, preserving its (left, right) emission order.
    """
    counts = neighbor_counts(n, is_ring)
    if n <= 1:
        return np.empty(0, dtype=np.int64), counts
    ar = np.arange(n, dtype=np.int64)
    if is_ring:
        if n == 2:
            # left == right collapses to a single neighbour.
            return np.array([1, 0], dtype=np.int64), counts
        flat = np.stack([(ar - 1) % n, (ar + 1) % n], axis=1).reshape(-1)
        return flat, counts
    middle = np.stack([ar[1:-1] - 1, ar[1:-1] + 1], axis=1).reshape(-1)
    flat = np.concatenate([[1], middle, [n - 2]]).astype(np.int64)
    return flat, counts


def neighbor_counts(n: int, is_ring: bool) -> np.ndarray:
    """Return each peer's ring/interval neighbour count (the CSR row prefix)."""
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    if is_ring:
        return np.full(n, 1 if n == 2 else 2, dtype=np.int64)
    counts = np.full(n, 2, dtype=np.int64)
    counts[0] = counts[-1] = 1
    return counts


def build_csr(graph: "SmallWorldGraph") -> CSRAdjacency:
    """Flatten ``graph``'s implicit neighbours + long links into CSR form.

    Pure function of the graph snapshot; callers normally go through the
    cached :attr:`SmallWorldGraph.adjacency` property instead.
    """
    n = graph.n
    long_counts = graph.long_degrees()
    if long_counts.sum():
        long_flat = np.concatenate(
            [np.asarray(links, dtype=np.int64) for links in graph.long_links]
        )
    else:
        long_flat = np.empty(0, dtype=np.int64)
    return csr_from_flat_links(n, graph.space.is_ring, long_counts, long_flat)


def csr_from_flat_links(
    n: int, is_ring: bool, long_counts: np.ndarray, long_flat: np.ndarray
) -> CSRAdjacency:
    """Assemble the full CSR directly from flat per-peer long-link rows.

    This is the direct path used by the bulk construction engine
    (:mod:`repro.core.bulk_construction`): peer ``i``'s long links are
    ``long_flat[cum(long_counts)[i] : cum(long_counts)[i+1]]``, and the
    implicit ring/interval neighbours are synthesised in place — no
    ragged per-node arrays are ever materialised.  Long links are placed
    through the ``is_long`` mask itself (every slot not holding a
    neighbour), so the only edge-length arrays are the outputs.

    Args:
        n: number of peers.
        is_ring: key-space topology (decides the implicit neighbours).
        long_counts: ``(n,)`` per-peer long-link counts.
        long_flat: ``(E_long,)`` concatenated long-link targets.
    """
    nbr_flat, nbr_counts = _neighbor_blocks(n, is_ring)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nbr_counts + np.asarray(long_counts, dtype=np.int64), out=indptr[1:])
    is_long = np.ones(int(indptr[-1]), dtype=bool)
    nbr_slots = np.repeat(indptr[:-1], nbr_counts) + segment_offsets(nbr_counts)
    is_long[nbr_slots] = False
    indices = np.empty(len(is_long), dtype=np.int64)
    indices[nbr_slots] = nbr_flat
    indices[is_long] = long_flat
    return CSRAdjacency(indptr=indptr, indices=indices, is_long=is_long)
