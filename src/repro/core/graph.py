"""The small-world overlay graph data structure.

A :class:`SmallWorldGraph` is the directed graph ``G = (P, E)`` of
Section 3: peers sorted by identifier, the implicit *neighbouring edges*
(each peer links to its immediate left/right peer; on a ring the ends
wrap), and explicit per-peer *long-range edges*.

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
from typing import TYPE_CHECKING

import numpy as np

from repro.keyspace import IntervalSpace, KeySpace, check_unit_keys, nearest_index

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

    @classmethod
    def from_indptr(cls, indptr: np.ndarray, flat: np.ndarray) -> "LongLinkRows":
        """Rows ``flat[indptr[i]:indptr[i + 1]]``."""
        indptr = np.asarray(indptr, dtype=np.int64)
        return cls(flat, indptr[:-1], indptr[1:])

    @classmethod
    def from_csr(cls, csr: "CSRAdjacency", is_ring: bool) -> "LongLinkRows":
        """The long links of ``csr``: each row minus its leading neighbours."""
        from repro.core.adjacency import neighbor_counts

        starts = csr.indptr[:-1] + neighbor_counts(csr.n, is_ring)
        return cls(csr.indices, starts, csr.indptr[1:])

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

    Attributes:
        ids: sorted peer identifiers in ``[0, 1)``.
        normalized_ids: ``F(ids)`` under the model's distribution — equal
            to ``ids`` for the uniform model and for the *naive* baseline
            (which deliberately ignores the skew).
        long_links: ``long_links[i]`` holds the indices of peer ``i``'s
            long-range neighbours — a list of arrays, or
            :class:`LongLinkRows` views for graphs built from flat rows
            or loaded from a snapshot.
        space: key-space geometry (interval or ring).
        normalize: the CDF used to map raw keys into normalised space;
            identity for the uniform/naive models.
        model: short model name for reports ("uniform", "skewed", "naive").
        cutoff_mass: the eq. (7) minimum normalised distance for long
            links (``1/N`` by default).
    """

    ids: np.ndarray
    normalized_ids: np.ndarray
    long_links: list[np.ndarray] | LongLinkRows
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
        if len(self.long_links) != len(self.ids):
            raise ValueError("long_links must have one entry per peer")
        if np.any(np.diff(self.ids) < 0):
            raise ValueError("ids must be sorted")

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

        This is the bulk construction engine's entry point
        (:mod:`repro.core.bulk_construction`): peer ``i``'s long links
        are ``long_flat[long_indptr[i]:long_indptr[i+1]]``.  The CSR
        adjacency cache is populated directly from the flat rows, so the
        graph is born with its edge arrays ready, and ``long_links`` is a
        :class:`LongLinkRows` view of the CSR's long edges — no per-peer
        arrays, and ``long_flat`` is not retained.
        """
        from repro.core.adjacency import csr_from_flat_links

        space = space or IntervalSpace()
        csr = csr_from_flat_links(
            len(ids), space.is_ring, np.diff(long_indptr), long_flat
        )
        graph = cls(
            ids=ids,
            normalized_ids=normalized_ids,
            long_links=LongLinkRows.from_csr(csr, space.is_ring),
            space=space,
            normalize=normalize,
            model=model,
            cutoff_mass=cutoff_mass,
        )
        graph.__dict__["_adjacency"] = csr
        return graph

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
    def neighbor_indices(self, idx: int) -> tuple[int, ...]:
        """Return the ring/interval neighbour indices of peer ``idx``.

        On the interval the two endpoint peers have a single neighbour;
        on the ring everyone has exactly two (for ``n >= 3``).
        """
        n = self.n
        if n <= 1:
            return ()
        if self.space.is_ring:
            left = (idx - 1) % n
            right = (idx + 1) % n
            return (left, right) if left != right else (left,)
        out = []
        if idx > 0:
            out.append(idx - 1)
        if idx < n - 1:
            out.append(idx + 1)
        return tuple(out)

    def out_links(self, idx: int) -> np.ndarray:
        """Return all outgoing edges of peer ``idx`` (neighbours + long links)."""
        return np.concatenate(
            [np.asarray(self.neighbor_indices(idx), dtype=np.int64), self.long_links[idx]]
        )

    @property
    def adjacency(self) -> "CSRAdjacency":
        """The graph's flat CSR edge set (built lazily, cached forever).

        Graphs are immutable snapshots — every damage/churn helper builds
        a new instance — so the cache never needs invalidation.
        """
        csr = self.__dict__.get("_adjacency")
        if csr is None:
            from repro.core.adjacency import build_csr

            csr = build_csr(self)
            self.__dict__["_adjacency"] = csr
        return csr

    def out_degrees(self) -> np.ndarray:
        """Return the per-peer total outdegree (neighbour + long links)."""
        return self.adjacency.out_degrees()

    def long_degrees(self) -> np.ndarray:
        """Return the per-peer number of long links, as an int64 array."""
        rows = self.long_links
        if isinstance(rows, LongLinkRows):
            return rows.lengths()
        return np.fromiter((len(links) for links in rows), dtype=np.int64, count=self.n)

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
        mask = csr.is_long
        sources = csr.edge_sources()[mask]
        targets = csr.indices[mask]
        return np.asarray(
            self.space.pairwise_distances(positions[sources], positions[targets]),
            dtype=float,
        )

    def total_long_links(self) -> int:
        """Return the total number of long-range edges in the graph."""
        return int(self.long_degrees().sum())

    def to_networkx(self):
        """Export to a :class:`networkx.DiGraph` (requires networkx).

        Node attributes carry the raw and normalised identifiers; edge
        attribute ``kind`` distinguishes ``"neighbor"`` from ``"long"``
        edges.
        """
        import networkx as nx

        g = nx.DiGraph()
        for i in range(self.n):
            g.add_node(i, id=float(self.ids[i]), normalized=float(self.normalized_ids[i]))
        for i in range(self.n):
            for j in self.neighbor_indices(i):
                g.add_edge(i, j, kind="neighbor")
            for j in self.long_links[i]:
                g.add_edge(i, int(j), kind="long")
        return g

    def __repr__(self) -> str:
        return (
            f"SmallWorldGraph(model={self.model!r}, n={self.n}, "
            f"space={self.space.name!r}, long_links={self.total_long_links()})"
        )
