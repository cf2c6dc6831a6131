"""A live, mutable overlay network.

Where :class:`~repro.core.SmallWorldGraph` is a *snapshot* built offline,
:class:`Network` models the deployed system of Section 4.2: peers join
and leave over time, immediate-neighbour links are always kept correct
("both u and v correct their routing tables of the immediate neighboring
links"), and each peer owns an explicit set of long-range links that may
*dangle* after churn until maintenance repairs them.

Peers are addressed by identifier (a float in ``[0, 1)``), not by index:
indices are meaningless in a population that changes.

Two storage engines back the same API:

``engine="array"`` (the default)
    the sorted identifier vector is a numpy array and every peer's long
    links live in one row of a shared *slab* — a 2-d float array of link
    targets plus a per-row count, with departed peers' rows recycled
    through a free-list (the mutable sibling of the CSR layout in
    :mod:`repro.core.adjacency`).  This is the layout the bulk engine
    (:mod:`repro.overlay.bulk_dynamics`) operates on with whole-cohort
    numpy passes, and it makes population-wide queries
    (:meth:`dangling_link_count`, :meth:`mean_long_degree`,
    :meth:`snapshot`) single vectorized sweeps.

``engine="scalar"``
    the original dict-of-:class:`PeerState` interior, kept verbatim as
    the readable reference implementation.  Both engines expose peers
    through :meth:`peer`, so every scalar protocol (joins, refresh,
    scalar routing) runs unchanged on either; equivalence tests drive
    the same operation sequence through both and compare states.

A freed slab row deliberately keeps the departed peer's stale link
targets until the next repair round
(:func:`repro.overlay.bulk_dynamics.bulk_repair`) purges the free-list —
departure is an O(1) splice, cleanup is batched — or until the row is
recycled for a joiner, which clears it first.

**Slab-row hints.**  Next to each link's target id the array slab keeps
an ``int32`` *hint*: the slab row the target occupied when the link was
written (:meth:`Network.from_graph` and the bulk engine's row writes
know it; writes through :class:`PeerView`/:class:`LinkRowView` store
``-1``).  It costs 4 bytes per lane beside the 8-byte id.  The hint is a
verified cache, never a second source of truth: one private resolver
(used by :meth:`snapshot`, :meth:`dangling_link_count` and
``bulk_repair``'s dangling sweep) maps each hint to a sorted position
through the inverse of the position→row map, accepts it only if the id
there equals the stored target exactly, and binary-searches the links
whose hint misses — a departed target, a recycled row, an id that left
and came back, or a write without a hint.  A wrong hint therefore costs
one search and never changes an answer: a link to an id that departs and
later rejoins is live again, and :class:`PeerView` still reports a
dangling link by its id.

Measured on a 2-CPU x86 host with the traced ``perfbench`` churn run
(2*10^5 peers, 10 epochs of 5% leave + 5% join + 10% refresh, 10^5
routed lookups each, seed 7): :meth:`snapshot` took 1.39 s per epoch
with two binary searches per stored link and 0.26 s with hints — 51% →
16% of the epoch — of which the fallback search over the ~1/6 of links
left dangling is ~0.08 s.  Leave, join, repair and routing did not
change.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.keyspace import IntervalSpace, KeySpace, membership_mask, nearest_index

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.graph import SmallWorldGraph

__all__ = ["PeerState", "PeerView", "LinkRowView", "LookupResult", "Network"]

#: Initial slab geometry: rows (peers) and columns (links per peer) both
#: grow by doubling, so repeated joins are amortised O(1) per peer.
_MIN_SLOTS = 16
_MIN_WIDTH = 4


@dataclass
class PeerState:
    """Mutable routing state of one live peer (scalar engine).

    Attributes:
        peer_id: the peer's identifier.
        long_links: identifiers of long-range neighbours.  A link whose
            target has departed is *dangling*: routing skips it and
            maintenance replaces it.
    """

    peer_id: float
    long_links: list[float] = field(default_factory=list)


class LinkRowView:
    """Mutable sequence view of one peer's long links in the array slab.

    Supports the list operations the join/maintenance protocols use
    (``append``, ``extend``, ``clear``, iteration, ``len``, ``in``,
    indexing) and writes through to the owning network's slab row, so
    scalar protocols are oblivious to the storage engine.
    """

    __slots__ = ("_net", "_slot")

    def __init__(self, net: "Network", slot: int):
        self._net = net
        self._slot = slot

    def _values(self) -> np.ndarray:
        net = self._net
        return net._link_tg[self._slot, : net._link_cnt[self._slot]]

    def __len__(self) -> int:
        return int(self._net._link_cnt[self._slot])

    def __iter__(self):
        return iter(self._values().tolist())

    def __getitem__(self, index):
        return self._values().tolist()[index]

    def __contains__(self, target) -> bool:
        return bool(np.any(self._values() == float(target)))

    def __eq__(self, other) -> bool:
        try:
            return list(self) == list(other)
        except TypeError:
            return NotImplemented

    __hash__ = None  # mutable view; defining __eq__ disables hashing

    def append(self, target: float) -> None:
        self._net._append_link(self._slot, float(target))

    def extend(self, targets) -> None:
        for target in targets:
            self.append(target)

    def clear(self) -> None:
        self._net._set_slot_links(self._slot, ())

    def tolist(self) -> list[float]:
        return self._values().tolist()

    def __repr__(self) -> str:
        return f"LinkRowView({self.tolist()!r})"


class PeerView:
    """Peer handle over the array engine, API-compatible with :class:`PeerState`.

    ``long_links`` reads and writes the peer's slab row; assigning a list
    to it replaces the whole row, exactly like rebinding
    ``PeerState.long_links``.
    """

    __slots__ = ("_net", "_slot")

    def __init__(self, net: "Network", slot: int):
        self._net = net
        self._slot = slot

    @property
    def peer_id(self) -> float:
        return float(self._net._slot_id[self._slot])

    @property
    def long_links(self) -> LinkRowView:
        return LinkRowView(self._net, self._slot)

    @long_links.setter
    def long_links(self, targets) -> None:
        self._net._set_slot_links(self._slot, targets)

    def __repr__(self) -> str:
        return f"PeerView(peer_id={self.peer_id!r}, long_links={self.long_links.tolist()!r})"


@dataclass
class LookupResult:
    """Outcome of one lookup routed over the live network.

    Mirrors :class:`repro.core.RouteResult` but identifies peers by id.
    """

    success: bool
    hops: int
    neighbor_hops: int
    long_hops: int
    path: list[float] = field(default_factory=list)
    reason: str = "arrived"
    target_key: float = 0.0
    owner_id: float = -1.0
    dangling_links_seen: int = 0


class Network:
    """A dynamic overlay with implicit ring links and explicit long links.

    Args:
        space: key-space geometry; the interval matches the paper's
            proofs, the ring matches deployed DHT practice.
        engine: ``"array"`` (default, slab-backed, bulk-operable) or
            ``"scalar"`` (dict-of-PeerState reference implementation).

    The sorted peer list gives every peer its immediate neighbours "for
    free" (they are maintained by the join/leave splice, exactly as the
    paper's join protocol prescribes), so only long links carry state.

    Raises:
        ValueError: for an unknown engine.
    """

    def __init__(self, space: KeySpace | None = None, engine: str = "array"):
        if engine not in ("array", "scalar"):
            raise ValueError(f"unknown engine {engine!r}; choose 'array' or 'scalar'")
        self.space = space or IntervalSpace()
        self.engine = engine
        if engine == "scalar":
            self._sorted_ids: list[float] = []
            self._peers: dict[float, PeerState] = {}
        else:
            self._ids = np.empty(0, dtype=float)
            self._slot_at = np.empty(0, dtype=np.int64)  # sorted pos -> slab row
            self._slot_of: dict[float, int] = {}  # id -> slab row
            self._slot_id = np.empty(0, dtype=float)  # slab row -> occupying id
            self._link_tg = np.empty((0, 0), dtype=float)  # slab link targets
            self._link_hint = np.empty((0, 0), dtype=np.int32)  # targets' rows
            self._link_cnt = np.empty(0, dtype=np.int64)  # slab per-row counts
            self._free_slots: list[int] = []
            self._slots_used = 0

    # ------------------------------------------------------------------
    # construction from snapshots
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "SmallWorldGraph", engine: str = "array") -> "Network":
        """Build a live network from a static snapshot in one vectorized load.

        Peer identifiers become the live population; every index-valued
        long link, read off the graph's CSR, becomes an identifier-valued
        live link whose hint is its target's slab row.  This is how
        churn experiments start from a Theorem-2 construction without
        paying per-peer joins.

        Raises:
            ValueError: for duplicate identifiers in the snapshot.
        """
        ids = np.asarray(graph.ids, dtype=float)
        if len(ids) and (
            not np.all(np.isfinite(ids)) or ids[0] < 0.0 or ids[-1] >= 1.0
        ):
            raise ValueError("snapshot identifiers must lie in [0, 1)")
        if np.any(np.diff(ids) <= 0):
            raise ValueError("snapshot identifiers must be sorted and distinct")
        net = cls(space=graph.space, engine=engine)
        if engine == "scalar":
            for peer_id in ids.tolist():
                net.add_peer(peer_id)
            for i, links in enumerate(graph.long_links):
                net._peers[float(ids[i])].long_links = [
                    float(ids[int(j)]) for j in links
                ]
            return net
        n = len(ids)
        csr = graph.adjacency
        counts = graph.long_degrees()
        width = _MIN_WIDTH
        while width < int(counts.max(initial=0)):
            width *= 2
        net._ids = ids.copy()
        net._slot_at = np.arange(n, dtype=np.int64)
        net._slot_of = {float(x): i for i, x in enumerate(ids.tolist())}
        net._slot_id = ids.copy()
        net._link_cnt = counts
        net._link_tg = np.full((n, width), np.nan)
        net._link_hint = np.full((n, width), -1, dtype=np.int32)
        if counts.any():
            # Row i is slab row i, so a target's index is also its hint.
            flat = csr.indices[csr.is_long]
            lane = np.arange(width)[None, :] < counts[:, None]
            net._link_tg[lane] = ids[flat]
            net._link_hint[lane] = flat
        net._slots_used = n
        return net

    def snapshot(self) -> "SmallWorldGraph":
        """Freeze the live state into a routable :class:`SmallWorldGraph`.

        Dangling long links (targets that have departed) are dropped —
        they cannot be expressed as peer indices, and live routing skips
        them anyway, so routing the snapshot with the batch engine
        (:func:`repro.core.route_many`) is hop-for-hop identical to
        :meth:`route` on the live network.

        Raises:
            ValueError: on an empty network.
        """
        from repro.core.graph import SmallWorldGraph

        n = self.n
        if n == 0:
            raise ValueError("cannot snapshot an empty network")
        ids = self.ids_array().copy()
        if self.engine == "scalar":
            counts = np.zeros(n, dtype=np.int64)
            cols: list[int] = []
            for i, peer_id in enumerate(self._sorted_ids):
                for target in self._peers[peer_id].long_links:
                    if target in self._peers:
                        cols.append(int(np.searchsorted(ids, target)))
                        counts[i] += 1
            flat = np.asarray(cols, dtype=np.int64)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
        else:
            pos, live = self._resolve_rows(self._slot_at)
            flat = pos[live]
            # Live links before each row's first lane give the row pointers.
            lanes = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(self._link_cnt[self._slot_at], out=lanes[1:])
            live_before = np.zeros(len(live) + 1, dtype=np.int64)
            np.cumsum(live, out=live_before[1:])
            del pos, live
            indptr = live_before[lanes]
        return SmallWorldGraph.from_flat_links(
            ids, ids.copy(), indptr, flat, space=self.space, model="live"
        )

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of live peers."""
        if self.engine == "scalar":
            return len(self._sorted_ids)
        return len(self._ids)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, peer_id: float) -> bool:
        if self.engine == "scalar":
            return peer_id in self._peers
        return peer_id in self._slot_of

    def ids_array(self) -> np.ndarray:
        """Return the live identifiers as a sorted numpy array.

        On the array engine this is the live sorted vector itself —
        treat it as read-only; mutations replace the vector wholesale,
        so held references behave as snapshots.
        """
        if self.engine == "scalar":
            return np.asarray(self._sorted_ids, dtype=float)
        return self._ids

    def peer(self, peer_id: float) -> PeerState | PeerView:
        """Return the state of a live peer.

        Raises:
            KeyError: if the peer is not live.
        """
        if self.engine == "scalar":
            return self._peers[peer_id]
        return PeerView(self, self._slot_of[peer_id])

    def add_peer(self, peer_id: float) -> PeerState | PeerView:
        """Insert a peer into the population (low-level splice).

        Raises:
            ValueError: for an out-of-range or duplicate identifier.
        """
        if not 0.0 <= peer_id < 1.0:
            raise ValueError(f"identifier {peer_id!r} outside [0, 1)")
        peer_id = float(peer_id)
        if peer_id in self:
            raise ValueError(f"peer {peer_id!r} already present")
        if self.engine == "scalar":
            bisect.insort(self._sorted_ids, peer_id)
            state = PeerState(peer_id=peer_id)
            self._peers[peer_id] = state
            return state
        slot = self._alloc_slots(np.asarray([peer_id]))[0]
        pos = int(np.searchsorted(self._ids, peer_id))
        self._ids = np.insert(self._ids, pos, peer_id)
        self._slot_at = np.insert(self._slot_at, pos, slot)
        self._slot_of[peer_id] = int(slot)
        return PeerView(self, int(slot))

    def remove_peer(self, peer_id: float) -> None:
        """Remove a peer (it departs without notice; links to it dangle).

        On the array engine the departed peer's slab row goes onto the
        free-list with its link targets still in place — the next repair
        round (:func:`~repro.overlay.bulk_dynamics.bulk_repair`) purges
        them, or row recycling clears them first.  They are invisible to
        every population query either way.

        Raises:
            KeyError: if the peer is not live.
        """
        if self.engine == "scalar":
            if peer_id not in self._peers:
                raise KeyError(f"peer {peer_id!r} not present")
            idx = bisect.bisect_left(self._sorted_ids, peer_id)
            del self._sorted_ids[idx]
            del self._peers[peer_id]
            return
        peer_id = float(peer_id)
        slot = self._slot_of.pop(peer_id, None)
        if slot is None:
            raise KeyError(f"peer {peer_id!r} not present")
        pos = int(np.searchsorted(self._ids, peer_id))
        self._ids = np.delete(self._ids, pos)
        self._slot_at = np.delete(self._slot_at, pos)
        self._free_slots.append(int(slot))

    # ------------------------------------------------------------------
    # bulk splices (array engine; validated entry points live in
    # repro.overlay.bulk_dynamics)
    # ------------------------------------------------------------------
    def _bulk_insert(self, cohort: np.ndarray) -> np.ndarray:
        """Splice a *sorted, distinct, absent* cohort in; return its slab rows.

        One merge pass regardless of cohort size — the vectorized form of
        repeated :meth:`add_peer`.
        """
        slots = self._alloc_slots(cohort)
        pos = np.searchsorted(self._ids, cohort)
        self._ids = np.insert(self._ids, pos, cohort)
        self._slot_at = np.insert(self._slot_at, pos, slots)
        for peer_id, slot in zip(cohort.tolist(), slots.tolist()):
            self._slot_of[peer_id] = slot
        return slots

    def _bulk_remove(self, leaving: np.ndarray) -> None:
        """Splice a *sorted, distinct, live* cohort out in one masked pass.

        Freed rows go to the free-list with their links still in place,
        exactly like :meth:`remove_peer`.
        """
        gone = membership_mask(leaving, self._ids)
        self._free_slots.extend(self._slot_at[gone].tolist())
        self._ids = self._ids[~gone]
        self._slot_at = self._slot_at[~gone]
        for peer_id in leaving.tolist():
            del self._slot_of[peer_id]

    # ------------------------------------------------------------------
    # slab management (array engine)
    # ------------------------------------------------------------------
    def _ensure_width(self, width: int) -> None:
        """Grow the slab's link columns to hold ``width`` targets per row."""
        current = self._link_tg.shape[1]
        if width <= current:
            return
        new = max(_MIN_WIDTH, current)
        while new < width:
            new *= 2
        rows = self._link_tg.shape[0]
        pad = np.full((rows, new - current), np.nan)
        self._link_tg = np.concatenate([self._link_tg, pad], axis=1)
        pad = np.full((rows, new - current), -1, dtype=np.int32)
        self._link_hint = np.concatenate([self._link_hint, pad], axis=1)

    def _ensure_slots(self, fresh: int) -> None:
        """Grow the slab's rows so ``fresh`` never-used rows are available."""
        need = self._slots_used + fresh
        capacity = len(self._link_cnt)
        if need <= capacity:
            return
        new = max(_MIN_SLOTS, capacity)
        while new < need:
            new *= 2
        width = max(self._link_tg.shape[1], _MIN_WIDTH)
        link_tg = np.full((new, width), np.nan)
        link_tg[:capacity, : self._link_tg.shape[1]] = self._link_tg
        self._link_tg = link_tg
        link_hint = np.full((new, width), -1, dtype=np.int32)
        link_hint[:capacity, : self._link_hint.shape[1]] = self._link_hint
        self._link_hint = link_hint
        link_cnt = np.zeros(new, dtype=np.int64)
        link_cnt[:capacity] = self._link_cnt
        self._link_cnt = link_cnt
        slot_id = np.full(new, np.nan)
        slot_id[:capacity] = self._slot_id
        self._slot_id = slot_id

    def _alloc_slots(self, ids: np.ndarray) -> np.ndarray:
        """Claim one cleared slab row per entry of ``ids`` (free-list first)."""
        m = len(ids)
        reused = [self._free_slots.pop() for _ in range(min(len(self._free_slots), m))]
        fresh_n = m - len(reused)
        self._ensure_slots(fresh_n)
        fresh = range(self._slots_used, self._slots_used + fresh_n)
        self._slots_used += fresh_n
        slots = np.fromiter((*reused, *fresh), dtype=np.int64, count=m)
        self._link_cnt[slots] = 0
        self._link_tg[slots, :] = np.nan
        self._link_hint[slots, :] = -1
        self._slot_id[slots] = ids
        return slots

    # Writes through PeerView/LinkRowView know only the target id, so
    # they store no hint (-1); the resolver searches for those links.
    def _append_link(self, slot: int, target: float) -> None:
        cnt = int(self._link_cnt[slot])
        self._ensure_width(cnt + 1)
        self._link_tg[slot, cnt] = target
        self._link_hint[slot, cnt] = -1
        self._link_cnt[slot] = cnt + 1

    def _set_slot_links(self, slot: int, targets) -> None:
        values = np.asarray(tuple(targets), dtype=float)
        self._ensure_width(len(values))
        self._link_tg[slot, :] = np.nan
        self._link_tg[slot, : len(values)] = values
        self._link_hint[slot, :] = -1
        self._link_cnt[slot] = len(values)

    def _resolve_rows(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map every stored link of slab rows ``slots`` to its live target.

        Returns ``(pos, live)`` flat over the rows' links in row-major
        order (each row in its stored link order): ``live`` marks links
        whose target id is live, and ``pos`` is that target's position in
        the sorted identifier vector (meaningless where not live).

        Each link's slab-row hint is gathered through the inverse of
        ``_slot_at`` and confirmed by exact id equality, so a stale hint
        (departed target, recycled row, re-added id, or no hint at all)
        only costs that link one ``searchsorted`` — the id stays the
        truth and the answer never depends on the hint.
        """
        n = self.n
        counts = self._link_cnt[slots]
        width = self._link_tg.shape[1]
        lane_ptr = np.zeros(len(slots) + 1, dtype=np.int64)
        np.cumsum(counts, out=lane_ptr[1:])
        # Flat slab offsets of the rows' occupied lanes: no row copies.
        offsets = np.arange(lane_ptr[-1], dtype=np.int64)
        offsets += np.repeat(slots * width - lane_ptr[:-1], counts)
        targets = self._link_tg.ravel()[offsets]
        hints = self._link_hint.ravel()[offsets]
        del offsets
        # Slab row -> sorted position; the trailing entry (hint -1) and
        # free rows map to n, whose id is NaN and matches nothing.
        pos_of_slot = np.full(len(self._link_cnt) + 1, n, dtype=np.int64)
        pos_of_slot[self._slot_at] = np.arange(n, dtype=np.int64)
        pos = pos_of_slot[hints]
        del hints, pos_of_slot
        ids = np.append(self._ids, np.nan)
        live = ids[pos] == targets
        miss = np.flatnonzero(~live)
        if len(miss):
            # Searching in key order keeps the binary searches cache-warm:
            # 0.08 s instead of 0.12 s for 580k misses at n = 2*10^5
            # (2-CPU x86 host).
            miss = miss[np.argsort(targets[miss])]
            wanted = targets[miss]
            found = np.searchsorted(self._ids, wanted)
            pos[miss] = found
            live[miss] = ids[found] == wanted
        return pos, live

    def _purge_free_slots(self) -> int:
        """Clear stale link targets lingering on free-listed rows.

        Returns the number of stale link slots released.  Called by
        repair rounds; O(free rows), not O(population).
        """
        if not self._free_slots:
            return 0
        slots = np.asarray(self._free_slots, dtype=np.int64)
        purged = int(self._link_cnt[slots].sum())
        self._link_cnt[slots] = 0
        self._link_tg[slots, :] = np.nan
        self._link_hint[slots, :] = -1
        self._slot_id[slots] = np.nan
        return purged

    # ------------------------------------------------------------------
    # neighbourhood queries
    # ------------------------------------------------------------------
    def neighbors_of(self, peer_id: float) -> tuple[float, ...]:
        """Return the live ring/interval neighbours of ``peer_id``."""
        n = self.n
        if n <= 1:
            return ()
        if self.engine == "scalar":
            ids = self._sorted_ids
            idx = bisect.bisect_left(ids, peer_id)
        else:
            ids = self._ids
            idx = int(np.searchsorted(ids, peer_id))
        if self.space.is_ring:
            left = float(ids[(idx - 1) % n])
            right = float(ids[(idx + 1) % n])
            return (left, right) if left != right else (left,)
        out = []
        if idx > 0:
            out.append(float(ids[idx - 1]))
        if idx < n - 1:
            out.append(float(ids[idx + 1]))
        return tuple(out)

    def owner_of(self, key: float) -> float:
        """Return the live peer closest to ``key``.

        Raises:
            ValueError: on an empty network.
        """
        if self.n == 0:
            raise ValueError("network has no peers")
        ids = self.ids_array()
        return float(ids[nearest_index(ids, key, self.space)])

    def random_peer(self, rng: np.random.Generator) -> float:
        """Return a uniformly random live peer identifier.

        Raises:
            ValueError: on an empty network.
        """
        if self.n == 0:
            raise ValueError("network has no peers")
        return float(self.ids_array()[int(rng.integers(self.n))])

    def _long_targets(self, peer_id: float) -> list[float]:
        """Return one live peer's long-link targets as plain floats."""
        if self.engine == "scalar":
            return self._peers[peer_id].long_links
        slot = self._slot_of[peer_id]
        return self._link_tg[slot, : self._link_cnt[slot]].tolist()

    def dangling_link_count(self) -> int:
        """Return the number of long links pointing at departed peers.

        Only live peers' links are counted: a departed peer's own stale
        row (lingering on the free-list until repair) is invisible here.
        """
        if self.engine == "scalar":
            return sum(
                1
                for state in self._peers.values()
                for target in state.long_links
                if target not in self._peers
            )
        _, live = self._resolve_rows(self._slot_at)
        return int(len(live) - np.count_nonzero(live))

    def mean_long_degree(self) -> float:
        """Return the mean number of (live or dangling) long links per peer."""
        if self.n == 0:
            return 0.0
        if self.engine == "scalar":
            return sum(len(s.long_links) for s in self._peers.values()) / self.n
        return float(self._link_cnt[self._slot_at].mean())

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(
        self, source_id: float, key: float, max_hops: int | None = None
    ) -> LookupResult:
        """Greedy-route a lookup for ``key`` starting at live peer ``source_id``.

        Dangling long links are skipped (and counted); ring neighbours
        are always live by construction, so the walk reaches the owner
        unless the hop budget runs out.  Both engines route identically;
        batch measurement goes through :meth:`snapshot` plus
        :func:`repro.core.route_many` instead.

        Raises:
            KeyError: if the source peer is not live.
        """
        if source_id not in self:
            raise KeyError(f"source peer {source_id!r} not present")
        if max_hops is None:
            max_hops = self.n
        owner = self.owner_of(key)
        current = source_id
        current_dist = self.space.distance(current, key)
        path = [current]
        neighbor_hops = 0
        long_hops = 0
        dangling = 0
        while current != owner:
            if len(path) - 1 >= max_hops:
                return LookupResult(
                    False, len(path) - 1, neighbor_hops, long_hops, path,
                    "max_hops", key, owner, dangling,
                )
            ring = self.neighbors_of(current)
            best = None
            best_dist = current_dist
            best_is_long = False
            for cand in ring:
                dist = self.space.distance(cand, key)
                if dist < best_dist:
                    best, best_dist, best_is_long = cand, dist, False
            for cand in self._long_targets(current):
                if cand not in self:
                    dangling += 1
                    continue
                dist = self.space.distance(cand, key)
                if dist < best_dist:
                    best, best_dist, best_is_long = cand, dist, True
            if best is None:
                return LookupResult(
                    False, len(path) - 1, neighbor_hops, long_hops, path,
                    "stuck", key, owner, dangling,
                )
            current, current_dist = best, best_dist
            path.append(current)
            if best_is_long:
                long_hops += 1
            else:
                neighbor_hops += 1
        return LookupResult(
            True, len(path) - 1, neighbor_hops, long_hops, path,
            "arrived", key, owner, dangling,
        )

    def __repr__(self) -> str:
        return f"Network(n={self.n}, space={self.space.name!r}, engine={self.engine!r})"
