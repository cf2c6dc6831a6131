"""CAN (Ratnasamy et al., SIGCOMM 2001): d-dimensional zone routing.

CAN partitions a ``d``-dimensional torus into zones, one per peer; a
joining peer splits the zone containing its arrival point.  Peers keep
links only to zones sharing a ``(d−1)``-dimensional face, and lookups
walk greedily zone-to-zone — ``O(d · N^(1/d))`` hops, *polynomial* in
``N``.

The paper's Section 1 claim reproduced here: "Search efficiency in terms
of the number of overlay hops can't be guaranteed in CAN for arbitrary
partitioning of the key-space (zones)."  When arrival points track a
skewed key distribution the zones adapt (good load balance) but the hop
count has no logarithmic guarantee — experiment E6 shows CAN orders of
magnitude above every small-world competitor.

The 1-d key space embeds into the torus via bit de-interleaving
(:func:`repro.keyspace.morton_spread`), which preserves locality so the
zone partition genuinely adapts to key skew.

Construction splits every populated zone of a BSP level in one numpy
round and keeps the split tree as five flat arrays, the form owner
resolution and :mod:`repro.store` read; it reproduces the literal
one-insert-at-a-time loop exactly, which ``tests/builder_oracle.py``
keeps as its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import BaselineOverlay, assemble_rows
from repro.core.adjacency import CSRAdjacency
from repro.core.metric_routing import TorusZoneMetric, torus_points

__all__ = ["Zone", "CANOverlay"]


@dataclass
class Zone:
    """An axis-aligned hyper-rectangular zone of the CAN torus.

    Attributes:
        lo: inclusive lower corner per dimension.
        hi: exclusive upper corner per dimension.
        depth: number of splits that produced this zone (drives the
            round-robin split dimension).
    """

    lo: np.ndarray
    hi: np.ndarray
    depth: int = 0

    def contains(self, point: np.ndarray) -> bool:
        """Return True when ``point`` lies inside the zone."""
        return bool(np.all(point >= self.lo) and np.all(point < self.hi))

    def center(self) -> np.ndarray:
        """Return the zone's midpoint."""
        return 0.5 * (self.lo + self.hi)

    def volume(self) -> float:
        """Return the zone's volume (its share of the key-space measure)."""
        return float(np.prod(self.hi - self.lo))

    def split(self) -> tuple["Zone", "Zone"]:
        """Halve along the round-robin dimension; return (kept, new)."""
        dim = self.depth % len(self.lo)
        mid = 0.5 * (self.lo[dim] + self.hi[dim])
        left_hi = self.hi.copy()
        left_hi[dim] = mid
        right_lo = self.lo.copy()
        right_lo[dim] = mid
        left = Zone(self.lo.copy(), left_hi, self.depth + 1)
        right = Zone(right_lo, self.hi.copy(), self.depth + 1)
        return left, right


class CANOverlay(BaselineOverlay):
    """A built CAN overlay: one zone per peer.

    Args:
        keys: arrival points in the 1-d key space ``[0, 1)``, one per
            peer; mapped into the torus with the locality-preserving
            Morton spread so a skewed key population produces a skewed
            zone partition.
        dims: torus dimensionality ``d`` (1 or 2 cover the experiments;
            any ``d >= 1`` with ``d * 16`` bits of precision works).
        max_bsp_depth: refuse to split a zone deeper than this many
            levels.  Random arrival points keep the split tree near
            ``2·log2 N`` deep, but an adversarially clustered population
            (points packed tighter than ``2^-depth``) would otherwise
            drive the tree toward float-precision degeneracy — zero-width
            zones and descent loops that silently walk hundreds of
            levels per lookup.  The default comfortably covers every
            realistic population while staying well inside the 52-bit
            mantissa of the midpoint computation.

    Raises:
        ValueError: for an empty population, invalid ``dims`` or a
            non-positive ``max_bsp_depth``.
        RuntimeError: when construction would exceed ``max_bsp_depth``.
    """

    name = "can"

    def __init__(
        self,
        keys,
        dims: int = 2,
        max_bsp_depth: int = 96,
    ):
        keys = np.asarray(keys, dtype=float)
        if len(keys) == 0:
            raise ValueError("CAN needs at least one peer")
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        if max_bsp_depth < 1:
            raise ValueError(f"max_bsp_depth must be >= 1, got {max_bsp_depth}")
        self.dims = dims
        self.max_bsp_depth = max_bsp_depth
        self.keys = np.sort(keys)
        self.zones, self._bsp = self._build_zones()
        self._compute_neighbors()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_zones(self) -> tuple[list[Zone], tuple]:
        """Whole-population batch BSP construction.

        Returns the zone list and the flat ``(split_dim, split_at, low,
        high, zone)`` BSP arrays (node 0 is the root; see
        :func:`repro.core.metric_routing.torus_zone_lookup`).

        Reproduces the sequential insertion loop *exactly*, not just
        statistically, because CAN's split rule makes insertions in
        disjoint subtrees independent:

        * at any moment, the peer that splits a leaf is the
          earliest-inserted peer whose arrival point lies in it (any
          earlier arrival would already have split it);
        * the zone created by inserting peer ``i`` always gets index
          ``i`` (the zone list grows by exactly one per insertion);
        * every other pending arrival just descends by coordinate.

        So one round per tree level suffices: lexsort the pending
        arrivals by ``(leaf, insertion order)``, let the first arrival
        in each leaf perform that leaf's split, and descend the rest one
        level.  All of it is numpy over flat arrays.

        Raises:
            RuntimeError: when a split would exceed ``max_bsp_depth``
                (same condition and diagnostic as the sequential loop).
        """
        n = len(self.keys)
        dims = self.dims
        points = self._points_of(self.keys)
        zone_lo = np.empty((n, dims))
        zone_hi = np.empty((n, dims))
        zone_depth = np.zeros(n, dtype=np.int64)
        zone_lo[0] = 0.0
        zone_hi[0] = 1.0
        n_nodes = 2 * n - 1
        node_split_dim = np.full(n_nodes, -1, dtype=np.int64)
        node_split_at = np.zeros(n_nodes, dtype=float)
        node_low = np.full(n_nodes, -1, dtype=np.int64)
        node_high = np.full(n_nodes, -1, dtype=np.int64)
        node_zone = np.full(n_nodes, -1, dtype=np.int64)
        node_zone[0] = 0
        nodes_used = 1
        pend_idx = np.arange(1, n, dtype=np.int64)
        pend_node = np.zeros(n - 1, dtype=np.int64)
        # Every pending arrival's leaf deepens by one per round, so the
        # depth guard below trips before this bound can be exhausted.
        for _ in range(self.max_bsp_depth + 2):
            if pend_idx.size == 0:
                break
            order = np.lexsort((pend_idx, pend_node))
            sorted_nodes = pend_node[order]
            lead = np.ones(len(order), dtype=bool)
            lead[1:] = sorted_nodes[1:] != sorted_nodes[:-1]
            splitters = pend_idx[order[lead]]
            leaves = sorted_nodes[lead]
            kept = node_zone[leaves]
            depth = zone_depth[kept]
            if np.any(depth >= self.max_bsp_depth):
                worst = int(depth.max())
                raise RuntimeError(
                    f"CAN BSP split depth {worst} reached max_bsp_depth="
                    f"{self.max_bsp_depth}: arrival points are clustered "
                    f"tighter than 2^-{self.max_bsp_depth}; spread the key "
                    "population or raise max_bsp_depth"
                )
            dim = depth % dims
            mid = 0.5 * (zone_lo[kept, dim] + zone_hi[kept, dim])
            zone_lo[splitters] = zone_lo[kept]
            zone_hi[splitters] = zone_hi[kept]
            zone_lo[splitters, dim] = mid
            zone_hi[kept, dim] = mid
            zone_depth[splitters] = depth + 1
            zone_depth[kept] = depth + 1
            low_children = nodes_used + 2 * np.arange(
                len(splitters), dtype=np.int64
            )
            high_children = low_children + 1
            nodes_used += 2 * len(splitters)
            node_split_dim[leaves] = dim
            node_split_at[leaves] = mid
            node_low[leaves] = low_children
            node_high[leaves] = high_children
            node_zone[low_children] = kept
            node_zone[high_children] = splitters
            node_zone[leaves] = -1
            rest = order[~lead]
            at = pend_node[rest]
            go_high = (
                points[pend_idx[rest], node_split_dim[at]] >= node_split_at[at]
            )
            pend_node = np.where(go_high, node_high[at], node_low[at])
            pend_idx = pend_idx[rest]
        else:  # pragma: no cover - unreachable behind the depth guard
            raise RuntimeError(
                "CAN batch BSP construction failed to converge within "
                f"max_bsp_depth={self.max_bsp_depth} rounds"
            )
        zones = [Zone(zone_lo[i], zone_hi[i], int(zone_depth[i])) for i in range(n)]
        bsp = (
            node_split_dim[:nodes_used],
            node_split_at[:nodes_used],
            node_low[:nodes_used],
            node_high[:nodes_used],
            node_zone[:nodes_used],
        )
        return zones, bsp

    def _compute_neighbors(self) -> None:
        """Vectorised face-adjacency over all zone pairs (torus wrap included)."""
        z = len(self.zones)
        lo = np.asarray([zone.lo for zone in self.zones])  # (z, d)
        hi = np.asarray([zone.hi for zone in self.zones])
        neighbors: list[np.ndarray] = []
        for i in range(z):
            # Per-dimension: faces touch (directly or across the wrap)?
            touch = (
                np.isclose(hi[i][None, :], lo)
                | np.isclose(hi, lo[i][None, :])
                | (np.isclose(hi[i][None, :], 1.0) & np.isclose(lo, 0.0))
                | (np.isclose(hi, 1.0) & np.isclose(lo[i][None, :], 0.0))
            )
            # Per-dimension: positive-measure overlap?
            overlap = (lo[i][None, :] < hi) & (lo < hi[i][None, :])
            # Adjacent: touching in exactly one dim, overlapping in the rest.
            adjacent = np.zeros(z, dtype=bool)
            for k in range(self.dims):
                others = np.ones(z, dtype=bool)
                for j in range(self.dims):
                    if j != k:
                        others &= overlap[:, j]
                adjacent |= touch[:, k] & others
            adjacent[i] = False
            neighbors.append(np.flatnonzero(adjacent).astype(np.int64))
        self.neighbors = neighbors

    def _points_of(self, keys: np.ndarray) -> np.ndarray:
        """Embed keys as ``(w, d)`` torus points.

        Delegates to :func:`repro.core.metric_routing.torus_points`
        (identity embedding at ``dims == 1``, Morton spread otherwise —
        bit-for-bit :func:`repro.keyspace.morton_spread`).
        """
        return torus_points(keys, self.dims)

    def _build_frontier(self):
        """CSR of face neighbours + the torus-L1 zone-distance metric.

        Rows keep the stored (ascending) neighbour order as the scan
        order; all hops count as neighbour hops, as CAN counts them.
        """
        n = self.n
        counts = np.fromiter(
            (len(nb) for nb in self.neighbors), dtype=np.int64, count=n
        )
        flat = (
            np.concatenate(self.neighbors) if counts.sum()
            else np.empty(0, dtype=np.int64)
        )
        indptr, indices, _ = assemble_rows(n, [(counts, flat)])
        csr = CSRAdjacency(
            indptr=indptr,
            indices=indices,
            is_long=np.zeros(len(indices), dtype=bool),
        )
        lo = np.asarray([zone.lo for zone in self.zones])
        hi = np.asarray([zone.hi for zone in self.zones])
        metric = TorusZoneMetric(
            lo, hi, bsp=self._bsp, max_depth=self.max_bsp_depth
        )
        return csr, metric

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.zones)

    def table_sizes(self) -> np.ndarray:
        """Per-peer neighbour counts (CAN's entire routing state)."""
        return np.asarray([len(nb) for nb in self.neighbors], dtype=np.int64)

    def zone_volumes(self) -> np.ndarray:
        """Per-zone volumes — the load-balance signal of the partition."""
        return np.asarray([zone.volume() for zone in self.zones])
