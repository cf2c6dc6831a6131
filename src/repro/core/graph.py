"""The small-world overlay graph data structure.

A :class:`SmallWorldGraph` is the directed graph ``G = (P, E)`` of
Section 3: peers sorted by identifier, the implicit *neighbouring edges*
(each peer links to its immediate left/right peer; on a ring the ends
wrap), and explicit per-peer *long-range edges*.  Both kinds live in one
:class:`~repro.core.adjacency.CSRAdjacency`: each row holds a peer's
neighbours, then its long links, split at ``long_start``, and every
per-peer view (:meth:`SmallWorldGraph.neighbor_indices`,
:attr:`SmallWorldGraph.long_links`) is a slice of it.

The graph also carries the *normalised* identifiers ``F(id)`` of
Theorem 2's space transformation, because every analytic statement in the
paper (the ``1/N`` cutoff, the doubling partitions, the link-length
distribution) lives in normalised space.  For the uniform model the
normalised identifiers coincide with the raw ones.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.keyspace import (
    IntervalSpace,
    KeySpace,
    check_peer_ids,
    check_unit_keys,
    nearest_index,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.adjacency import CSRAdjacency

__all__ = ["LongLinkRows", "SmallWorldGraph"]


class LongLinkRows:
    """Per-peer long-link rows as read-only views into one flat array.

    Row ``i`` is ``values[starts[i]:ends[i]]``, sliced on demand, so a
    graph of ``n`` peers never holds ``n`` row arrays (at 10^6 peers
    those alone cost seconds and hundreds of megabytes).  Supports
    ``len``, int and negative indexing, slicing (which returns a list of
    rows), iteration and pickling.  Rows are read-only: the graph they
    belong to is an immutable snapshot.
    """

    def __init__(self, values: np.ndarray, starts: np.ndarray, ends: np.ndarray):
        values = values.view()
        values.flags.writeable = False
        self._values = values
        self._starts = np.asarray(starts, dtype=np.int64)
        self._ends = np.asarray(ends, dtype=np.int64)

    def lengths(self) -> np.ndarray:
        """Per-row link counts, as an int64 array."""
        return self._ends - self._starts

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"row {i} out of range for {n} peers")
        return self._values[self._starts[i] : self._ends[i]]

    def __iter__(self):
        values = self._values
        for start, end in zip(self._starts.tolist(), self._ends.tolist()):
            yield values[start:end]

    def __reduce__(self):
        # Rebuild through __init__ so unpickled rows stay read-only.
        return type(self), (self._values, self._starts, self._ends)

    def __repr__(self) -> str:
        return f"LongLinkRows(n={len(self)}, links={int(self.lengths().sum())})"


@dataclass
class SmallWorldGraph:
    """A built overlay: sorted peers, ring/interval edges, long-range edges.

    The constructor holds ``ids`` to the peer-id rule
    (:func:`repro.keyspace.check_peer_ids`: strictly increasing inside
    ``[0, 1)``) and raises ``ValueError`` otherwise, so every graph —
    built, snapshotted from a live overlay or loaded — obeys it.

    Attributes:
        ids: strictly increasing peer identifiers in ``[0, 1)``.
        normalized_ids: ``F(ids)`` under the model's distribution — equal
            to ``ids`` for the uniform model and for the *naive* baseline
            (which deliberately ignores the skew).
        adjacency: the graph's edge set, one CSR row per peer: its
            ring/interval neighbours, then its long links (see
            :mod:`repro.core.adjacency`).
        space: key-space geometry (interval or ring).
        normalize: the CDF used to map raw keys into normalised space;
            identity for the uniform/naive models.
        model: short model name for reports ("uniform", "skewed", "naive").
        cutoff_mass: the eq. (7) minimum normalised distance for long
            links (``1/N`` by default).
    """

    ids: np.ndarray
    normalized_ids: np.ndarray
    adjacency: "CSRAdjacency"
    space: KeySpace = field(default_factory=IntervalSpace)
    normalize: Callable[[float], float] = float
    model: str = "uniform"
    cutoff_mass: float = 0.0

    def __post_init__(self) -> None:
        self.ids = np.asarray(self.ids, dtype=float)
        self.normalized_ids = np.asarray(self.normalized_ids, dtype=float)
        if self.ids.ndim != 1:
            raise ValueError("ids must be one-dimensional")
        if len(self.ids) != len(self.normalized_ids):
            raise ValueError("ids and normalized_ids must have equal length")
        if self.adjacency.n != len(self.ids):
            raise ValueError("adjacency must have one row per peer")
        check_peer_ids(self.ids)

    @classmethod
    def from_flat_links(
        cls,
        ids: np.ndarray,
        normalized_ids: np.ndarray,
        long_indptr: np.ndarray,
        long_flat: np.ndarray,
        space: KeySpace | None = None,
        normalize: Callable[[float], float] = float,
        model: str = "custom",
        cutoff_mass: float = 0.0,
    ) -> "SmallWorldGraph":
        """Build a graph from CSR-style flat long-link rows.

        Every builder's entry point (:mod:`repro.core.bulk_construction`,
        the live overlay's snapshot, the damage helpers): peer ``i``'s
        long links are ``long_flat[long_indptr[i]:long_indptr[i+1]]``.
        The CSR is assembled directly from the flat rows
        (:func:`~repro.core.adjacency.csr_from_flat_links`) with the
        ring/interval neighbours synthesised in front of each row;
        ``long_flat`` is not retained.
        """
        from repro.core.adjacency import csr_from_flat_links

        space = space or IntervalSpace()
        csr = csr_from_flat_links(
            len(ids), space.is_ring, np.diff(long_indptr), long_flat
        )
        return cls(
            ids=ids,
            normalized_ids=normalized_ids,
            adjacency=csr,
            space=space,
            normalize=normalize,
            model=model,
            cutoff_mass=cutoff_mass,
        )

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of peers."""
        return len(self.ids)

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    @cached_property
    def long_links(self) -> LongLinkRows:
        """``long_links[i]``: peer ``i``'s long-range neighbours, a view of its CSR row."""
        csr = self.adjacency
        return LongLinkRows(csr.indices, csr.long_start, csr.indptr[1:])

    def neighbor_indices(self, idx: int) -> tuple[int, ...]:
        """Return the ring/interval neighbour indices of peer ``idx``.

        The slots of its CSR row before ``long_start``: on the interval
        the two endpoint peers have a single neighbour; on the ring
        everyone has exactly two (for ``n >= 3``).
        """
        csr = self.adjacency
        return tuple(csr.indices[csr.indptr[idx] : csr.long_start[idx]].tolist())

    def out_links(self, idx: int) -> np.ndarray:
        """Return all outgoing edges of peer ``idx`` (neighbours + long links)."""
        return self.adjacency.row(idx)

    def out_degrees(self) -> np.ndarray:
        """Return the per-peer total outdegree (neighbour + long links)."""
        return self.adjacency.out_degrees()

    def long_degrees(self) -> np.ndarray:
        """Return the per-peer number of long links, as an int64 array."""
        return self.adjacency.long_degrees()

    # ------------------------------------------------------------------
    # key handling
    # ------------------------------------------------------------------
    def owner_of(self, key: float) -> int:
        """Return the index of the peer responsible for ``key``.

        Ownership is "closest identifier" under the graph's key-space
        metric, with ties resolved toward the lower identifier.

        Raises:
            ValueError: for a key that is NaN or outside ``[0, 1)``.
        """
        check_unit_keys(key)
        return nearest_index(self.ids, key, self.space)

    def normalized_key(self, key: float) -> float:
        """Return ``F(key)``: the key's position in normalised space."""
        return float(self.normalize(key))

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def long_link_lengths(self, normalized: bool = True) -> np.ndarray:
        """Return the lengths of all long-range links.

        Args:
            normalized: measure in normalised space (the space of the
                proofs) rather than raw key space.
        """
        positions = self.normalized_ids if normalized else self.ids
        csr = self.adjacency
        mask = csr.long_mask()
        sources = csr.edge_sources()[mask]
        targets = csr.indices[mask]
        return np.asarray(
            self.space.pairwise_distances(positions[sources], positions[targets]),
            dtype=float,
        )

    def total_long_links(self) -> int:
        """Return the total number of long-range edges in the graph."""
        return int(self.long_degrees().sum())

    def __repr__(self) -> str:
        return (
            f"SmallWorldGraph(model={self.model!r}, n={self.n}, "
            f"space={self.space.name!r}, long_links={self.total_long_links()})"
        )
