"""Dict-of-lists reference for the live overlay and its per-peer loops.

:class:`repro.overlay.Network` keeps the live population in numpy
arrays and a shared link slab so the bulk engine can process whole
cohorts at once.  This module keeps the readable form it is held to:
:class:`OracleNetwork` stores a sorted Python list of identifiers and
one :class:`PeerState` (a plain ``long_links`` list) per peer, and
answers every query — neighbours, ownership, dangling links, greedy
routing, snapshots — by direct iteration.

The per-peer protocols in :mod:`repro.overlay` (``join_known_f``,
``join_adaptive``, ``refresh_peer``) run on either class, because both
expose peers through ``peer()``.  The loops below drive those protocols
one peer at a time — a maintenance round, a churn epoch, a lookup
measurement and a bootstrap — as the reference side of the parity
tests and of ``benchmarks/bench_churn.py``'s bulk-vs-per-peer gate.
Nothing under ``src/`` imports this file.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.keyspace import IntervalSpace, KeySpace, nearest_index
from repro.overlay import (
    ChurnConfig,
    ChurnEpoch,
    LookupResult,
    LookupStats,
    MaintenanceReport,
    join_known_f,
    refresh_peer,
    summarize_lookups,
)


@dataclass
class PeerState:
    """Mutable routing state of one live peer.

    Attributes:
        peer_id: the peer's identifier.
        long_links: identifiers of long-range neighbours.  A link whose
            target has departed is *dangling*: routing skips it and
            maintenance replaces it.
    """

    peer_id: float
    long_links: list[float] = field(default_factory=list)


class OracleNetwork:
    """The live overlay as a sorted id list plus a dict of :class:`PeerState`.

    Same public surface as :class:`repro.overlay.Network`.
    """

    def __init__(self, space: KeySpace | None = None):
        self.space = space or IntervalSpace()
        self._sorted_ids: list[float] = []
        self._ids: np.ndarray | None = None  # ids_array() cache, dropped on every change
        self._peers: dict[float, PeerState] = {}

    @classmethod
    def from_graph(cls, graph) -> "OracleNetwork":
        """Build a live network from a static snapshot, one peer at a time."""
        ids = np.asarray(graph.ids, dtype=float)
        if len(ids) and (
            not np.all(np.isfinite(ids)) or ids[0] < 0.0 or ids[-1] >= 1.0
        ):
            raise ValueError("snapshot identifiers must lie in [0, 1)")
        if np.any(np.diff(ids) <= 0):
            raise ValueError("snapshot identifiers must be sorted and distinct")
        net = cls(space=graph.space)
        for peer_id in ids.tolist():
            net.add_peer(peer_id)
        for i, links in enumerate(graph.long_links):
            net._peers[float(ids[i])].long_links = [
                float(ids[int(j)]) for j in links
            ]
        return net

    def snapshot(self):
        """Freeze the live state into a :class:`SmallWorldGraph`, dropping danglers."""
        from repro.core.graph import SmallWorldGraph

        n = self.n
        if n == 0:
            raise ValueError("cannot snapshot an empty network")
        ids = self.ids_array().copy()
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
        return SmallWorldGraph.from_flat_links(
            ids, ids.copy(), indptr, flat, space=self.space, model="live"
        )

    # ------------------------------------------------------------------
    # population management
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._sorted_ids)

    def __len__(self) -> int:
        return self.n

    def __contains__(self, peer_id: float) -> bool:
        return peer_id in self._peers

    def ids_array(self) -> np.ndarray:
        """The sorted ids as a read-only array, rebuilt only after a change."""
        if self._ids is None:
            self._ids = np.asarray(self._sorted_ids, dtype=float)
            self._ids.flags.writeable = False
        return self._ids

    def peer(self, peer_id: float) -> PeerState:
        return self._peers[peer_id]

    def add_peer(self, peer_id: float) -> PeerState:
        if not 0.0 <= peer_id < 1.0:
            raise ValueError(f"identifier {peer_id!r} outside [0, 1)")
        peer_id = float(peer_id)
        if peer_id in self:
            raise ValueError(f"peer {peer_id!r} already present")
        bisect.insort(self._sorted_ids, peer_id)
        self._ids = None
        state = PeerState(peer_id=peer_id)
        self._peers[peer_id] = state
        return state

    def remove_peer(self, peer_id: float) -> None:
        if peer_id not in self._peers:
            raise KeyError(f"peer {peer_id!r} not present")
        idx = bisect.bisect_left(self._sorted_ids, peer_id)
        del self._sorted_ids[idx]
        self._ids = None
        del self._peers[peer_id]

    # ------------------------------------------------------------------
    # neighbourhood queries
    # ------------------------------------------------------------------
    def neighbors_of(self, peer_id: float) -> tuple[float, ...]:
        n = self.n
        if n <= 1:
            return ()
        ids = self._sorted_ids
        idx = bisect.bisect_left(ids, peer_id)
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
        if self.n == 0:
            raise ValueError("network has no peers")
        ids = self.ids_array()
        return float(ids[nearest_index(ids, key, self.space)])

    def random_peer(self, rng: np.random.Generator) -> float:
        if self.n == 0:
            raise ValueError("network has no peers")
        return float(self.ids_array()[int(rng.integers(self.n))])

    def _long_targets(self, peer_id: float) -> list[float]:
        return self._peers[peer_id].long_links

    def dangling_link_count(self) -> int:
        return sum(
            1
            for state in self._peers.values()
            for target in state.long_links
            if target not in self._peers
        )

    def mean_long_degree(self) -> float:
        if self.n == 0:
            return 0.0
        return sum(len(s.long_links) for s in self._peers.values()) / self.n

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(
        self, source_id: float, key: float, max_hops: int | None = None
    ) -> LookupResult:
        """Greedy-route ``key`` from ``source_id``, skipping dangling links."""
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
        return f"OracleNetwork(n={self.n}, space={self.space.name!r})"


def bootstrap_network(distribution, n: int, rng) -> OracleNetwork:
    """Grow an oracle network to ``n`` peers by successive known-``f`` joins."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    network = OracleNetwork()
    for _ in range(n):
        peer_id = float(distribution.sample(1, rng)[0])
        while peer_id in network:
            peer_id = float(distribution.sample(1, rng)[0])
        join_known_f(network, distribution, rng, peer_id=peer_id)
    return network


def maintenance_round(
    network,
    rng: np.random.Generator,
    distribution=None,
    fraction: float = 1.0,
    sample_size: int = 64,
    out_degree: int | None = None,
    cutoff: float | None = None,
) -> MaintenanceReport:
    """Refresh a random fraction of peers with one ``refresh_peer`` call each."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ids = network.ids_array()
    n_refresh = max(1, int(round(fraction * len(ids)))) if len(ids) else 0
    chosen = rng.choice(len(ids), size=n_refresh, replace=False) if n_refresh else []
    total = MaintenanceReport()
    for idx in chosen:
        peer_id = float(ids[idx])
        if peer_id not in network:  # departed mid-round
            continue
        report = refresh_peer(
            network,
            peer_id,
            rng,
            distribution=distribution,
            sample_size=sample_size,
            out_degree=out_degree,
            cutoff=cutoff,
        )
        total.peers_refreshed += report.peers_refreshed
        total.links_installed += report.links_installed
        total.dangling_repaired += report.dangling_repaired
        total.lookup_hops += report.lookup_hops
    return total


def run_churn(
    network, distribution, config: ChurnConfig, rng: np.random.Generator
) -> list[ChurnEpoch]:
    """Churn epochs one peer at a time: leaves, known-``f`` joins, refreshes, lookups."""
    if network.n == 0:
        raise ValueError("cannot churn an empty network")
    history = []
    for epoch in range(config.epochs):
        ids = network.ids_array()
        n_leave = min(int(round(config.leave_fraction * len(ids))), len(ids) - 2)
        if n_leave > 0:
            leavers = rng.choice(len(ids), size=n_leave, replace=False)
            for idx in leavers:
                network.remove_peer(float(ids[idx]))
        n_join = int(round(config.join_fraction * network.n))
        for _ in range(n_join):
            peer_id = float(distribution.sample(1, rng)[0])
            while peer_id in network:
                peer_id = float(distribution.sample(1, rng)[0])
            join_known_f(network, distribution, rng, peer_id=peer_id)
        maintenance_hops = 0
        if config.maintenance_fraction > 0.0 and network.n > 1:
            report = maintenance_round(
                network, rng, distribution=distribution,
                fraction=config.maintenance_fraction,
            )
            maintenance_hops = report.lookup_hops
        hops = []
        successes = 0
        reasons: dict[str, int] = {}
        for _ in range(config.lookups_per_epoch):
            source = network.random_peer(rng)
            target = network.random_peer(rng)
            result = network.route(source, target)
            hops.append(result.hops)
            if result.success:
                successes += 1
            else:
                reasons[result.reason] = reasons.get(result.reason, 0) + 1
        history.append(
            ChurnEpoch(
                epoch=epoch,
                n_peers=network.n,
                mean_hops=float(np.mean(hops)) if hops else float("nan"),
                success_rate=successes / max(1, config.lookups_per_epoch),
                dangling_links=network.dangling_link_count(),
                maintenance_hops=maintenance_hops,
                failed_reasons=reasons,
            )
        )
    return history


def measure_network(
    network, n_lookups: int, rng: np.random.Generator, targets: str = "peers"
) -> LookupStats:
    """Route random lookups one :meth:`route` call at a time and summarise them.

    Draws all sources, then all keys — the same stream
    :func:`repro.overlay.measure_network` draws — so one seed names one
    workload on either side.
    """
    if targets not in ("peers", "uniform"):
        raise ValueError(f"unknown targets mode {targets!r}")
    if network.n == 0:
        raise ValueError("cannot measure an empty network")
    ids = network.ids_array()
    sources = rng.integers(len(ids), size=n_lookups)
    if targets == "peers":
        keys = ids[rng.integers(len(ids), size=n_lookups)]
    else:
        keys = rng.random(n_lookups)
    results: list[LookupResult] = [
        network.route(float(ids[s]), float(k)) for s, k in zip(sources, keys)
    ]
    return summarize_lookups(results)
