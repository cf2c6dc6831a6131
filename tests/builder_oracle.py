"""Per-peer construction loops: the reference for every vectorized builder.

Production construction draws whole populations in numpy passes: the
model graphs through :mod:`repro.core.bulk_construction`, and each
comparator through one private build method called from ``__init__``.
This module keeps the readable loops they are held to, moved here with
their bodies unchanged:

* the long-link samplers — :class:`ExactSampler` (the full ``1/d'``
  weight vector, ``O(N)`` per peer, the literal transcription of the
  model) and :class:`FastSampler` (the Section 4.2 inverse-CDF draw
  resolved to the nearest peer, ``O(log N)`` per link, an independent
  scalar transcription of the bulk kernel's formula) — with
  :func:`make_sampler` and :func:`build_per_peer`, the per-peer branch
  :func:`repro.core.build_from_positions` used to take;
* one subclass per comparator that overrides that build method with the
  per-peer (or per-slot, per-edge, per-insertion) loop:
  :class:`OraclePastry`, :class:`OraclePGrid`, :class:`OracleMercury`,
  :class:`OracleCAN` and :class:`OracleWattsStrogatz`.  Everything else
  — routing, the CSR + metric contract, table sizes — is the production
  class's.

Parity tests compare the two sides exactly where the draw order allows
it (CAN's zones and split tree, Watts–Strogatz at ``p = 0``) and by KS
tests on link lengths or hop counts elsewhere;
``benchmarks/bench_construction.py`` gates the bulk engine's speed
against :func:`build_per_peer`.  Nothing under ``src/`` imports this
file.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    CANOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    WattsStrogatzOverlay,
)
from repro.baselines.can import Zone
from repro.baselines.watts_strogatz import _REWIRE_ATTEMPTS
from repro.core import GraphConfig, SmallWorldGraph, symmetrize_flat
from repro.core.bulk_construction import outward_candidate_indices, split_rows
from repro.core.graph import LongLinkRows
from repro.distributions import Empirical
from repro.estimation import uniform_id_sample
from repro.keyspace import KeySpace, nearest_index, successor_index

# ----------------------------------------------------------------------
# long-link samplers
# ----------------------------------------------------------------------


class LinkSampler(ABC):
    """Strategy interface: sample one peer's long-range neighbour set."""

    @abstractmethod
    def sample(
        self,
        positions: np.ndarray,
        idx: int,
        k: int,
        cutoff: float,
        space: KeySpace,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return up to ``k`` distinct long-link target indices for peer ``idx``.

        Args:
            positions: sorted normalised peer positions in ``[0, 1)``.
            idx: index of the linking peer.
            k: number of long-range links to draw.
            cutoff: minimum normalised distance (the paper's ``1/N``).
            space: key-space geometry (interval or ring).
            rng: random source.

        Fewer than ``k`` indices may be returned when the population
        cannot support ``k`` distinct valid targets.
        """


class ExactSampler(LinkSampler):
    """Ground-truth sampler: full ``1/d'`` weight vector over all peers.

    Args:
        dedupe: draw without replacement (distinct neighbours) when True;
            i.i.d. draws (the literal model, possibly with duplicate
            links that are then collapsed) when False.
    """

    def __init__(self, dedupe: bool = True):
        self.dedupe = dedupe

    def sample(
        self,
        positions: np.ndarray,
        idx: int,
        k: int,
        cutoff: float,
        space: KeySpace,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        dists = space.distances(positions, float(positions[idx]))
        weights = np.zeros_like(dists)
        eligible = dists >= cutoff
        eligible[idx] = False
        weights[eligible] = 1.0 / dists[eligible]
        total = weights.sum()
        if total <= 0:
            return np.empty(0, dtype=np.int64)
        probs = weights / total
        n_eligible = int(eligible.sum())
        if self.dedupe:
            size = min(k, n_eligible)
            chosen = rng.choice(len(positions), size=size, replace=False, p=probs)
        else:
            chosen = np.unique(rng.choice(len(positions), size=k, replace=True, p=probs))
        return np.sort(chosen).astype(np.int64)


class FastSampler(LinkSampler):
    """Inverse-CDF distance sampler: ``O(log N)`` per link.

    For each link: pick a side (left/right) with probability proportional
    to the available ``1/x`` mass ``ln(span/cutoff)``, draw a distance
    ``x = cutoff · (span/cutoff)^U`` (the inverse CDF of the ``1/x``
    density on ``[cutoff, span]``), and link to the peer nearest the
    resulting position.  Retries resolve self-links, cutoff violations
    and duplicates; a deterministic outward scan is the last resort so
    the sampler degrades gracefully on tiny populations.

    Args:
        max_retries: random retries per link before the deterministic
            fallback scan.
        dedupe: reject duplicate neighbours when True.
    """

    def __init__(self, max_retries: int = 64, dedupe: bool = True):
        if max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {max_retries}")
        self.max_retries = max_retries
        self.dedupe = dedupe

    def sample(
        self,
        positions: np.ndarray,
        idx: int,
        k: int,
        cutoff: float,
        space: KeySpace,
        rng: np.random.Generator,
    ) -> np.ndarray:
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        p = float(positions[idx])
        left_span, right_span = space.spans(p)
        log_left = math.log(left_span / cutoff) if left_span > cutoff else 0.0
        log_right = math.log(right_span / cutoff) if right_span > cutoff else 0.0
        if log_left <= 0.0 and log_right <= 0.0:
            return np.empty(0, dtype=np.int64)
        chosen: set[int] = set()
        for _ in range(k):
            target = self._draw_one(
                positions, idx, p, cutoff, space, rng,
                log_left, log_right, left_span, right_span, chosen,
            )
            if target is not None:
                chosen.add(target)
        return np.sort(np.fromiter(chosen, dtype=np.int64, count=len(chosen)))

    def _draw_one(
        self,
        positions: np.ndarray,
        idx: int,
        p: float,
        cutoff: float,
        space: KeySpace,
        rng: np.random.Generator,
        log_left: float,
        log_right: float,
        left_span: float,
        right_span: float,
        chosen: set[int],
    ) -> int | None:
        """Sample one valid target index, or None when none can be found."""
        total_log = log_left + log_right
        for _ in range(self.max_retries):
            go_left = rng.random() * total_log < log_left
            span = left_span if go_left else right_span
            distance = cutoff * (span / cutoff) ** rng.random()
            target_pos = space.shift(p, -distance if go_left else distance)
            if not space.is_ring:
                target_pos = min(max(target_pos, 0.0), np.nextafter(1.0, 0.0))
            j = nearest_index(positions, target_pos, space)
            if self._valid(positions, idx, j, p, cutoff, space, chosen):
                return j
        return self._fallback_scan(positions, idx, p, cutoff, space, chosen)

    def _valid(
        self,
        positions: np.ndarray,
        idx: int,
        j: int,
        p: float,
        cutoff: float,
        space: KeySpace,
        chosen: set[int],
    ) -> bool:
        if j == idx:
            return False
        if self.dedupe and j in chosen:
            return False
        return space.distance(p, float(positions[j])) >= cutoff

    def _fallback_scan(
        self,
        positions: np.ndarray,
        idx: int,
        p: float,
        cutoff: float,
        space: KeySpace,
        chosen: set[int],
    ) -> int | None:
        """Deterministically scan outward from ``idx`` for any valid target.

        Shares the scan order with the bulk engine's fallback via
        :func:`repro.core.bulk_construction.outward_candidate_indices`,
        so the two engines' degenerate-population behaviour cannot
        drift.
        """
        for j in outward_candidate_indices(idx, len(positions), space.is_ring):
            if self._valid(positions, idx, j, p, cutoff, space, chosen):
                return j
        return None


def make_sampler(kind: str, dedupe: bool = True, max_retries: int = 64) -> LinkSampler:
    """Return a per-peer sampler by name (``"fast"`` or ``"exact"``).

    Raises:
        ValueError: for an unknown sampler name.
    """
    if kind == "fast":
        return FastSampler(max_retries=max_retries, dedupe=dedupe)
    if kind == "exact":
        return ExactSampler(dedupe=dedupe)
    raise ValueError(f"unknown per-peer sampler {kind!r}; choose 'fast' or 'exact'")


def build_per_peer(
    ids: np.ndarray,
    normalized_ids: np.ndarray,
    rng: np.random.Generator,
    config: GraphConfig | None = None,
    kind: str = "fast",
) -> SmallWorldGraph:
    """Build a graph by calling a per-peer sampler once per peer.

    The reference for :func:`repro.core.build_from_positions`: same
    out-degree, cutoff, space, dedupe, retry and ``bidirectional``
    settings from ``config`` (whose ``sampler`` field is ignored), with
    ``kind`` naming the per-peer sampler.  The graph assembles its CSR
    lazily from ``long_links``, as it did before the bulk engine.
    """
    config = config or GraphConfig()
    order = np.argsort(np.asarray(ids, dtype=float), kind="stable")
    ids = np.asarray(ids, dtype=float)[order]
    normalized_ids = np.asarray(normalized_ids, dtype=float)[order]
    n = len(ids)
    k = config.resolve_out_degree(n)
    cutoff = config.resolve_cutoff(n)
    sampler = make_sampler(kind, dedupe=config.dedupe, max_retries=config.max_retries)
    long_links = [
        sampler.sample(normalized_ids, i, k, cutoff, config.space, rng) for i in range(n)
    ]
    if config.bidirectional:
        long_links = _symmetrize(long_links, n)
    return SmallWorldGraph(
        ids=ids,
        normalized_ids=normalized_ids,
        long_links=long_links,
        space=config.space,
        cutoff_mass=cutoff,
    )


def _symmetrize(long_links: list[np.ndarray], n: int) -> LongLinkRows:
    """Install the reverse of every long link (deduplicated, self-free).

    Vectorized CSR transpose-merge: concatenate the edge list with its
    transpose, key-sort and unique into flat rows, viewed per peer — no
    per-edge Python loop, so ``bidirectional=True`` stays cheap at scale.
    """
    counts = np.fromiter((len(links) for links in long_links), dtype=np.int64, count=n)
    sources = np.repeat(np.arange(n, dtype=np.int64), counts)
    if int(counts.sum()):
        targets = np.concatenate(
            [np.asarray(links, dtype=np.int64) for links in long_links]
        )
    else:
        targets = np.empty(0, dtype=np.int64)
    return LongLinkRows.from_indptr(*symmetrize_flat(sources, targets, n))


# ----------------------------------------------------------------------
# comparators
# ----------------------------------------------------------------------


class OraclePastry(PastryOverlay):
    """Pastry whose routing table is filled one slot at a time."""

    def _build_tables(self, rng: np.random.Generator) -> None:
        """Per-slot reference loop: group peers by prefix, fill each slot."""
        n = self.n
        # Group peers by digit prefix for O(1) slot filling.
        by_prefix: dict[tuple[int, ...], list[int]] = {}
        for i, digs in enumerate(self._digits):
            for l in range(self.depth + 1):
                by_prefix.setdefault(digs[:l], []).append(i)
        # Routing table: table[u][l][d] = peer index or -1.
        self.table = np.full((n, self.depth, self.base), -1, dtype=np.int32)
        self._row_filled = np.zeros(n, dtype=np.int64)
        for u in range(n):
            own = self._digits[u]
            for l in range(self.depth):
                row_used = False
                for d in range(self.base):
                    if d == own[l]:
                        continue
                    candidates = by_prefix.get(own[:l] + (d,))
                    if not candidates:
                        continue
                    pick = candidates[int(rng.integers(len(candidates)))]
                    self.table[u, l, d] = pick
                    row_used = True
                if row_used:
                    self._row_filled[u] += 1


class OraclePGrid(PGridOverlay):
    """P-Grid whose references are drawn one peer and level at a time."""

    def _build_refs(self, rng: np.random.Generator) -> np.ndarray:
        """Per-peer reference loop, packed into the production array."""
        # Members of every trie subtree, ascending, keyed by its prefix.
        by_prefix: dict[tuple[int, ...], list[int]] = {}
        for i, path in enumerate(self.paths):
            for l in range(len(path) + 1):
                by_prefix.setdefault(path[:l], []).append(i)
        refs: list[list[np.ndarray]] = []
        for i in range(self.n):
            path = self.paths[i]
            levels = []
            for l in range(len(path)):
                complement = path[:l] + (1 - path[l],)
                candidates = by_prefix.get(complement, [])
                if candidates:
                    k = min(self.refs_per_level, len(candidates))
                    picks = rng.choice(len(candidates), size=k, replace=False)
                    levels.append(
                        np.asarray(sorted(candidates[p] for p in picks), dtype=np.int64)
                    )
                else:
                    levels.append(np.empty(0, dtype=np.int64))
            refs.append(levels)
        packed = np.full(
            (self.n, self._bit_matrix.shape[1], self.refs_per_level), -1, dtype=np.int64
        )
        for i, levels in enumerate(refs):
            for l, members in enumerate(levels):
                packed[i, l, : len(members)] = members
        return packed


class OracleMercury(MercuryOverlay):
    """Mercury whose peers estimate and draw one at a time."""

    def _build_links(self, rng: np.random.Generator) -> None:
        """Per-peer reference loop: one estimator and draw loop per peer."""
        n = self.n
        keys: list[int] = []
        for u in range(n):
            # Each peer estimates the population CDF from its own sample —
            # estimates differ across peers, as in the deployed system.
            samples = uniform_id_sample(self.ids, self.sample_size, rng)
            estimate = Empirical(samples)
            own_rank = float(estimate.cdf(float(self.ids[u])))
            chosen: set[int] = set()
            attempts = 0
            while len(chosen) < self.k and attempts < 8 * max(self.k, 1):
                attempts += 1
                rank_offset = float(n ** (rng.random() - 1.0))  # harmonic on [1/N, 1]
                target_rank = (own_rank + rank_offset) % 1.0
                value = float(estimate.ppf(target_rank))
                target = successor_index(self.ids, value)
                if target != u:
                    chosen.add(target)
            keys.extend(u * n + target for target in sorted(chosen))
        self._set_links(*split_rows(np.asarray(keys, dtype=np.int64), n))


@dataclass
class _BSPNode:
    """Internal node of the zone binary-space-partition tree."""

    zone_index: int = -1  # leaf: index into the zone list
    split_dim: int = -1
    split_at: float = 0.0
    low: _BSPNode | None = None
    high: _BSPNode | None = None
    bounds_lo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    bounds_hi: np.ndarray = field(default_factory=lambda: np.zeros(0))


class OracleCAN(CANOverlay):
    """CAN built by inserting one arrival point at a time into a node tree."""

    def _build_zones(self) -> tuple[list[Zone], tuple]:
        """Sequential insertion loop, then the tree flattened to BSP arrays."""
        first = Zone(np.zeros(self.dims), np.ones(self.dims), depth=0)
        self.zones = [first]
        self._root = _BSPNode(
            zone_index=0, bounds_lo=first.lo.copy(), bounds_hi=first.hi.copy()
        )
        for key in self.keys[1:]:
            point = self._point_of(float(key))
            self._insert(point)
        return self.zones, self._flatten()

    def _insert(self, point: np.ndarray) -> None:
        """Split the zone containing ``point``; the new half joins the list.

        Raises:
            RuntimeError: when the zone to split is already
                ``max_bsp_depth`` levels deep (adversarially clustered
                arrival points; see the class docstring).
        """
        node = self._root
        while node.zone_index < 0:
            node = node.low if point[node.split_dim] < node.split_at else node.high
        zone_idx = node.zone_index
        zone = self.zones[zone_idx]
        if zone.depth >= self.max_bsp_depth:
            raise RuntimeError(
                f"CAN BSP split depth {zone.depth} reached max_bsp_depth="
                f"{self.max_bsp_depth}: arrival points are clustered tighter "
                f"than 2^-{self.max_bsp_depth}; spread the key population or "
                "raise max_bsp_depth"
            )
        kept, new = zone.split()
        dim = zone.depth % self.dims
        self.zones[zone_idx] = kept
        new_index = len(self.zones)
        self.zones.append(new)
        low_leaf = _BSPNode(
            zone_index=zone_idx, bounds_lo=kept.lo.copy(), bounds_hi=kept.hi.copy()
        )
        high_leaf = _BSPNode(
            zone_index=new_index, bounds_lo=new.lo.copy(), bounds_hi=new.hi.copy()
        )
        node.zone_index = -1
        node.split_dim = dim
        node.split_at = float(kept.hi[dim])
        node.low = low_leaf
        node.high = high_leaf

    def _flatten(self) -> tuple:
        """Flatten the zone BSP tree into arrays for vectorised descent."""
        split_dim: list[int] = []
        split_at: list[float] = []
        low: list[int] = []
        high: list[int] = []
        zone: list[int] = []
        stack = [self._root]
        nodes: list[_BSPNode] = []
        while stack:
            node = stack.pop()
            node._flat_id = len(nodes)
            nodes.append(node)
            if node.zone_index < 0:
                stack.append(node.high)
                stack.append(node.low)
        for node in nodes:
            split_dim.append(node.split_dim)
            split_at.append(node.split_at)
            zone.append(node.zone_index)
            low.append(node.low._flat_id if node.low is not None else -1)
            high.append(node.high._flat_id if node.high is not None else -1)
        return (
            np.asarray(split_dim, dtype=np.int64),
            np.asarray(split_at, dtype=float),
            np.asarray(low, dtype=np.int64),
            np.asarray(high, dtype=np.int64),
            np.asarray(zone, dtype=np.int64),
        )


class OracleWattsStrogatz(WattsStrogatzOverlay):
    """Watts–Strogatz rewired one lattice edge at a time."""

    @staticmethod
    def _build_adjacency(
        n: int, k: int, p: float, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """The 1998 construction as a literal per-edge loop (reference)."""
        adjacency: list[set[int]] = [set() for _ in range(n)]
        for u in range(n):
            for off in range(1, k // 2 + 1):
                v = (u + off) % n
                if rng.random() < p:
                    v = int(rng.integers(n))
                    attempts = 0
                    while (v == u or v in adjacency[u]) and attempts < _REWIRE_ATTEMPTS:
                        v = int(rng.integers(n))
                        attempts += 1
                    if v == u or v in adjacency[u]:
                        v = (u + off) % n  # give up rewiring this edge
                adjacency[u].add(v)
                adjacency[v].add(u)
        return [np.asarray(sorted(neigh), dtype=np.int64) for neigh in adjacency]
