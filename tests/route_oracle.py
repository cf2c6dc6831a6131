"""Per-lookup greedy loops: the reference every frontier route is held to.

Production routing has one path, the frontier kernel
(:func:`repro.core.metric_routing.frontier_route_many`):
:func:`repro.core.greedy_route`, :meth:`BaselineOverlay.route` and
:meth:`BaselineOverlay.owner_of` are a batch of one and the metric's owner
rule.  This module keeps the scalar loops they replaced, moved here with
their bodies unchanged:

* :func:`greedy_route` — Section 3's rule ("forward ... to the node with
  the minimal distance to the target") over a :class:`SmallWorldGraph`,
  on the key or normalised metric, with an optional alive mask;
* :func:`greedy_value_route` — ring neighbours plus long links, the rule
  Symphony and Mercury share;
* one subclass per comparator whose ``route`` and ``owner_of`` are the
  per-lookup loop and owner rule: :class:`ScalarChord`,
  :class:`ScalarPastry`, :class:`ScalarPGrid`, :class:`ScalarSymphony`,
  :class:`ScalarMercury` and :class:`ScalarCAN`.  What only these loops
  read came along: Pastry's per-peer digit tuples and ring geometry,
  CAN's one-key torus embedding ``_point_of`` (``builder_oracle.OracleCAN``
  borrows it) and its per-point BSP descent ``zone_of_point``.  They
  read each overlay's tables where it keeps them: Symphony's and
  Mercury's long links and Pastry's leaf sets from the overlay's CSR
  rows, P-Grid's references from ``refs``, and CAN's zones from its
  corner arrays and its split tree from ``metric.bsp``.

:func:`scalar_twin` re-classes a built overlay as its oracle subclass over
the same arrays, so both sides route over one set of tables.  The loops
differ from production in two ways the parity tests avoid: they do not
check keys (a NaN or out-of-range key walks instead of raising
``ValueError``), and hashed Chord reports the hashed key as
``target_key`` where production reports the key looked up.  Nothing
under ``src/`` imports this file.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.baselines import (
    BaselineOverlay,
    CANOverlay,
    ChordOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
)
from repro.core.adjacency import CSRAdjacency
from repro.core.graph import LongLinkRows, SmallWorldGraph
from repro.core.routing import RouteResult, _positions_and_target
from repro.keyspace import (
    RingSpace,
    binary_digits,
    digits,
    mix_hash,
    morton_spread,
    nearest_index,
    successor_index,
)

# ----------------------------------------------------------------------
# small-world graphs
# ----------------------------------------------------------------------


def _owner_under_metric(
    graph: SmallWorldGraph,
    positions: np.ndarray,
    target_pos: float,
    alive: np.ndarray | None,
) -> int:
    """Return the owner index, restricted to live peers when a mask is given."""
    if alive is None:
        return nearest_index(positions, target_pos, graph.space)
    live = np.flatnonzero(alive)
    if len(live) == 0:
        raise ValueError("cannot route in a network with no live peers")
    local = nearest_index(positions[live], target_pos, graph.space)
    return int(live[local])


def greedy_route(
    graph: SmallWorldGraph,
    source: int,
    target_key: float,
    metric: str = "key",
    max_hops: int | None = None,
    alive: np.ndarray | None = None,
) -> RouteResult:
    """Route greedily from peer ``source`` toward ``target_key``.

    Args:
        graph: the overlay to route on.
        source: index of the originating peer (must be live).
        target_key: lookup key in ``[0, 1)``.
        metric: ``"key"`` or ``"normalized"`` (see module docstring).
        max_hops: hop budget; defaults to ``n`` (greedy cannot exceed it).
        alive: optional boolean liveness mask; dead peers are skipped.

    Raises:
        ValueError: on an invalid source, metric, or a dead source peer.
    """
    n = graph.n
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for {n} peers")
    if alive is not None and not alive[source]:
        raise ValueError(f"source peer {source} is not alive")
    if max_hops is None:
        max_hops = n
    positions, target_pos = _positions_and_target(graph, target_key, metric)
    owner = _owner_under_metric(graph, positions, target_pos, alive)

    current = source
    current_dist = graph.space.distance(float(positions[current]), target_pos)
    path = [current]
    neighbor_hops = 0
    long_hops = 0

    while current != owner:
        if len(path) - 1 >= max_hops:
            return RouteResult(
                False, len(path) - 1, neighbor_hops, long_hops, path,
                "max_hops", target_key, owner,
            )
        ring_neighbors = graph.neighbor_indices(current)
        best_idx = -1
        best_dist = current_dist
        best_is_long = False
        for j in ring_neighbors:
            if alive is not None and not alive[j]:
                continue
            dist = graph.space.distance(float(positions[j]), target_pos)
            if dist < best_dist:
                best_dist = dist
                best_idx = j
                best_is_long = False
        for j in graph.long_links[current]:
            j = int(j)
            if alive is not None and not alive[j]:
                continue
            dist = graph.space.distance(float(positions[j]), target_pos)
            if dist < best_dist:
                best_dist = dist
                best_idx = j
                best_is_long = True
        if best_idx < 0:
            return RouteResult(
                False, len(path) - 1, neighbor_hops, long_hops, path,
                "stuck", target_key, owner,
            )
        current = best_idx
        current_dist = best_dist
        path.append(current)
        if best_is_long:
            long_hops += 1
        else:
            neighbor_hops += 1

    return RouteResult(
        True, len(path) - 1, neighbor_hops, long_hops, path,
        "arrived", target_key, owner,
    )


# ----------------------------------------------------------------------
# comparators
# ----------------------------------------------------------------------


def long_link_rows(csr: CSRAdjacency) -> LongLinkRows:
    """Each row's long links: the slots of its CSR row from ``long_start`` on."""
    return LongLinkRows(csr.indices, csr.long_start, csr.indptr[1:])


def greedy_value_route(
    ids: np.ndarray,
    long_links: list[np.ndarray],
    space,
    source: int,
    key: float,
    owner: int,
    max_hops: int | None = None,
) -> RouteResult:
    """Greedy value-space routing over ring neighbours plus long links.

    The common routing rule shared by Symphony and Mercury: among the two
    ring neighbours and the peer's long links, move to the peer that most
    reduces the circular distance to ``key``.

    Args:
        ids: sorted peer identifiers.
        long_links: per-peer arrays of long-link target indices.
        space: ring geometry providing ``distance``.
        source: index of the originating peer.
        key: lookup key.
        owner: index of the peer that owns ``key`` (the stop condition).
        max_hops: hop budget; defaults to the population size.
    """
    n = len(ids)
    if not 0 <= source < n:
        raise ValueError(f"source index {source} out of range for {n} peers")
    if max_hops is None:
        max_hops = n

    def metric(peer: int) -> float:
        return space.distance(float(ids[peer]), key)

    current = source
    current_dist = metric(current)
    path = [current]
    neighbor_hops = 0
    long_hops = 0
    while current != owner:
        if len(path) - 1 >= max_hops:
            return RouteResult(
                False, len(path) - 1, neighbor_hops, long_hops, path,
                "max_hops", key, owner,
            )
        best = None
        best_dist = current_dist
        best_is_long = False
        for cand in ((current - 1) % n, (current + 1) % n):
            dist = metric(cand)
            if dist < best_dist:
                best, best_dist, best_is_long = cand, dist, False
        for cand in long_links[current]:
            cand = int(cand)
            dist = metric(cand)
            if dist < best_dist:
                best, best_dist, best_is_long = cand, dist, True
        if best is None:
            return RouteResult(
                False, len(path) - 1, neighbor_hops, long_hops, path,
                "stuck", key, owner,
            )
        current, current_dist = best, best_dist
        path.append(current)
        if best_is_long:
            long_hops += 1
        else:
            neighbor_hops += 1
    return RouteResult(
        True, len(path) - 1, neighbor_hops, long_hops, path,
        "arrived", key, owner,
    )


class ScalarChord(ChordOverlay):
    """Chord's closest-preceding-finger walk, one lookup at a time."""

    def _key(self, key: float) -> float:
        return mix_hash(key) if self.hashed else key

    def owner_of(self, key: float) -> int:
        """Return the index of ``successor(key)`` — Chord's owner rule."""
        return successor_index(self.ids, self._key(key))

    @staticmethod
    def _cw(a: float, b: float) -> float:
        return (b - a) % 1.0

    def route(self, source: int, key: float, max_hops: int | None = None) -> RouteResult:
        """Clockwise greedy lookup via closest-preceding fingers."""
        n = self.n
        if not 0 <= source < n:
            raise ValueError(f"source index {source} out of range for {n} peers")
        if max_hops is None:
            max_hops = n
        key = self._key(key)
        owner = successor_index(self.ids, key)
        current = source
        path = [current]
        while current != owner:
            if len(path) - 1 >= max_hops:
                return RouteResult(
                    False, len(path) - 1, 0, len(path) - 1, path,
                    "max_hops", key, owner,
                )
            remaining = self._cw(float(self.ids[current]), key)
            successor = (current + 1) % n
            # If the key lies between us and our successor, the successor owns it.
            if self._cw(float(self.ids[current]), float(self.ids[successor])) >= remaining:
                current = successor
                path.append(current)
                continue
            best = successor
            best_advance = self._cw(float(self.ids[current]), float(self.ids[successor]))
            for cand in self.fingers[current]:
                cand = int(cand)
                if cand == current:
                    continue
                advance = self._cw(float(self.ids[current]), float(self.ids[cand]))
                if best_advance < advance <= remaining:
                    best = cand
                    best_advance = advance
            current = best
            path.append(current)
        return RouteResult(
            True, len(path) - 1, 0, len(path) - 1, path, "arrived", key, owner
        )


class ScalarPastry(PastryOverlay):
    """Pastry's prefix-then-closer-leaf walk, one lookup at a time."""

    space = RingSpace()

    @cached_property
    def _digits(self) -> list[tuple[int, ...]]:
        """Each peer's digit string as a tuple, as the scalar loop reads it."""
        return [tuple(row) for row in self._digit_matrix.tolist()]

    def owner_of(self, key: float) -> int:
        """Pastry's owner: numerically closest peer (ring metric)."""
        return nearest_index(self.ids, key, self.space)

    def _cpl(self, u: int, key_digits: tuple[int, ...]) -> int:
        own = self._digits[u]
        l = 0
        for a, b in zip(own, key_digits):
            if a != b:
                break
            l += 1
        return l

    def route(self, source: int, key: float, max_hops: int | None = None) -> RouteResult:
        """Pastry lookup: prefix hop when possible, else closer leaf/entry."""
        n = self.n
        if not 0 <= source < n:
            raise ValueError(f"source index {source} out of range for {n} peers")
        if max_hops is None:
            max_hops = n
        key_digits = digits(key, self.base, self.depth)
        owner = nearest_index(self.ids, key, self.space)
        current = source
        path = [current]
        while current != owner:
            if len(path) - 1 >= max_hops:
                return RouteResult(
                    False, len(path) - 1, 0, len(path) - 1, path,
                    "max_hops", key, owner,
                )
            nxt = self._next_hop(current, key, key_digits)
            if nxt is None:
                return RouteResult(
                    False, len(path) - 1, 0, len(path) - 1, path,
                    "stuck", key, owner,
                )
            current = nxt
            path.append(current)
        return RouteResult(
            True, len(path) - 1, 0, len(path) - 1, path, "arrived", key, owner
        )

    def _next_hop(self, current: int, key: float, key_digits: tuple[int, ...]) -> int | None:
        l = self._cpl(current, key_digits)
        if l < self.depth:
            entry = int(self.table[current, l, key_digits[l]])
            if entry >= 0:
                return entry
        # Fallback: anyone known who is strictly better — longer shared
        # prefix, or same prefix but numerically closer (Pastry's rule).
        current_dist = self.space.distance(float(self.ids[current]), key)
        best = None
        best_rank = (l, -current_dist)
        # The CSR row is the leaf set, then the filled table entries.
        table_entries = [int(x) for x in self.table[current].ravel() if x >= 0]
        row = self.csr.row(current)
        known = row[: len(row) - len(table_entries)].tolist() + table_entries
        for cand in known:
            cand_l = self._cpl(cand, key_digits)
            cand_dist = self.space.distance(float(self.ids[cand]), key)
            rank = (cand_l, -cand_dist)
            if cand_dist < current_dist and rank > best_rank:
                best = cand
                best_rank = rank
        return best


class ScalarPGrid(PGridOverlay):
    """P-Grid's resolve-one-bit walk, one lookup at a time."""

    def owner_of(self, key: float) -> int:
        """Return the peer whose leaf cell contains ``key``."""
        if not 0.0 <= key < 1.0:
            raise ValueError(f"key {key!r} outside [0, 1)")
        pos = int(np.searchsorted(self._cell_lefts, key, side="right")) - 1
        return int(self._cell_order[max(pos, 0)])

    def _cpl(self, path: tuple[int, ...], key_bits: tuple[int, ...]) -> int:
        l = 0
        for a, b in zip(path, key_bits):
            if a != b:
                break
            l += 1
        return l

    def route(self, source: int, key: float, max_hops: int | None = None) -> RouteResult:
        """Resolve one differing bit per hop; value-order fallback on gaps."""
        n = self.n
        if not 0 <= source < n:
            raise ValueError(f"source index {source} out of range for {n} peers")
        if max_hops is None:
            max_hops = n
        owner = self.owner_of(key)
        max_depth = max(len(p) for p in self.paths)
        key_bits = binary_digits(key, max_depth)
        current = source
        path_taken = [current]
        while current != owner:
            if len(path_taken) - 1 >= max_hops:
                return RouteResult(
                    False, len(path_taken) - 1, 0, len(path_taken) - 1,
                    path_taken, "max_hops", key, owner,
                )
            peer_path = self.paths[current]
            l = self._cpl(peer_path, key_bits)
            nxt = None
            if l < len(peer_path) and self.refs[current, l] >= 0:
                nxt = int(self.refs[current, l])
            else:
                # Gap in the trie (empty complement) or key inside our own
                # prefix cell: step toward the owner in value order.
                nxt = current + 1 if key > float(self.ids[current]) else current - 1
                if not 0 <= nxt < n:
                    return RouteResult(
                        False, len(path_taken) - 1, 0, len(path_taken) - 1,
                        path_taken, "stuck", key, owner,
                    )
            current = nxt
            path_taken.append(current)
        return RouteResult(
            True, len(path_taken) - 1, 0, len(path_taken) - 1,
            path_taken, "arrived", key, owner,
        )


class ScalarSymphony(SymphonyOverlay):
    """Symphony's greedy ring walk, one lookup at a time."""

    def owner_of(self, key: float) -> int:
        """Symphony manages keys by the numerically closest peer."""
        return nearest_index(self.ids, key, self.space)

    def route(self, source: int, key: float, max_hops: int | None = None) -> RouteResult:
        """Greedy ring routing over neighbours and harmonic links."""
        return greedy_value_route(
            self.ids,
            long_link_rows(self.csr),
            self.space,
            source,
            key,
            self.owner_of(key),
            max_hops=max_hops,
        )


class ScalarMercury(MercuryOverlay):
    """Mercury's greedy value-space walk, one lookup at a time."""

    def owner_of(self, key: float) -> int:
        """Mercury manages values by the numerically closest peer."""
        return nearest_index(self.ids, key, self.space)

    def route(self, source: int, key: float, max_hops: int | None = None) -> RouteResult:
        """Greedy value-space routing (identical rule to Symphony's)."""
        return greedy_value_route(
            self.ids,
            long_link_rows(self.csr),
            self.space,
            source,
            key,
            self.owner_of(key),
            max_hops=max_hops,
        )


class ScalarCAN(CANOverlay):
    """CAN's greedy zone-to-zone walk, one lookup at a time."""

    def _point_of(self, key: float) -> np.ndarray:
        if self.dims == 1:
            return np.asarray([key])
        return np.asarray(morton_spread(key, self.dims))

    def zone_of_point(self, point: np.ndarray) -> int:
        """Return the index of the zone containing a torus point.

        Walks the flat BSP arrays one level at a time.

        Raises:
            RuntimeError: when the descent exceeds ``max_bsp_depth``
                levels (corrupt split tree; construction caps the depth).
        """
        split_dim, split_at, low, high, zone = self.metric.bsp
        point = np.asarray(point, dtype=float)
        node = 0
        for _ in range(self.max_bsp_depth + 1):
            if zone[node] >= 0:
                return int(zone[node])
            node = (
                int(low[node])
                if point[split_dim[node]] < split_at[node]
                else int(high[node])
            )
        raise RuntimeError(
            f"CAN BSP descent exceeded max_bsp_depth={self.max_bsp_depth} "
            "levels without reaching a leaf; the split tree is corrupt"
        )

    def owner_of(self, key: float) -> int:
        """Return the peer (zone) responsible for a 1-d key."""
        return self.zone_of_point(self._point_of(key))

    @staticmethod
    def _axis_distance(x: float, lo: float, hi: float) -> float:
        """Torus distance from coordinate ``x`` to the interval [lo, hi)."""
        if lo <= x < hi:
            return 0.0
        direct = min(abs(x - lo), abs(x - hi))
        wrapped = min(
            abs(x - lo + 1.0), abs(x - lo - 1.0), abs(x - hi + 1.0), abs(x - hi - 1.0)
        )
        return min(direct, wrapped)

    def _zone_distance(self, point: np.ndarray, zone: int) -> float:
        lo, hi = self.zone_lo[zone], self.zone_hi[zone]
        return float(
            sum(
                self._axis_distance(float(point[k]), float(lo[k]), float(hi[k]))
                for k in range(self.dims)
            )
        )

    def route(self, source: int, key: float, max_hops: int | None = None) -> RouteResult:
        """Greedy zone-to-zone walk toward the key's torus point."""
        n = self.n
        if not 0 <= source < n:
            raise ValueError(f"source index {source} out of range for {n} zones")
        if max_hops is None:
            max_hops = n
        point = self._point_of(key)
        owner = self.zone_of_point(point)
        current = source
        current_dist = self._zone_distance(point, current)
        path = [current]
        while current != owner:
            if len(path) - 1 >= max_hops:
                return RouteResult(
                    False, len(path) - 1, len(path) - 1, 0, path,
                    "max_hops", key, owner,
                )
            best = None
            best_dist = current_dist
            for cand in self.csr.row(current):
                cand = int(cand)
                dist = self._zone_distance(point, cand)
                if dist < best_dist:
                    best, best_dist = cand, dist
            if best is None:
                return RouteResult(
                    False, len(path) - 1, len(path) - 1, 0, path,
                    "stuck", key, owner,
                )
            current, current_dist = best, best_dist
            path.append(current)
        return RouteResult(
            True, len(path) - 1, len(path) - 1, 0, path, "arrived", key, owner
        )


_TWINS: dict[type, type] = {
    ChordOverlay: ScalarChord,
    PastryOverlay: ScalarPastry,
    PGridOverlay: ScalarPGrid,
    SymphonyOverlay: ScalarSymphony,
    MercuryOverlay: ScalarMercury,
    CANOverlay: ScalarCAN,
}


def scalar_twin(overlay: BaselineOverlay) -> BaselineOverlay:
    """Return ``overlay`` re-classed as its scalar oracle, sharing its arrays.

    The twin is a shallow copy of the overlay's attributes under the
    oracle subclass of its family, found along the overlay's MRO (so the
    per-peer builders of ``builder_oracle.py`` resolve too).  Its
    ``route`` and ``owner_of`` are the loops above, run over the very
    tables the frontier routes; the overlay itself is left untouched.

    Raises:
        TypeError: for an overlay with no scalar loop.
    """
    for cls in type(overlay).__mro__:
        oracle = _TWINS.get(cls)
        if oracle is not None:
            twin = object.__new__(oracle)
            twin.__dict__.update(overlay.__dict__)
            return twin
    raise TypeError(f"no scalar route oracle for {type(overlay).__name__}")
