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
  per-peer (or per-slot, per-insertion) loop:
  :class:`OraclePastry`, :class:`OraclePGrid`, :class:`OracleMercury`
  and :class:`OracleCAN`.  Everything else
  — routing, the CSR + metric contract, table sizes — is the production
  class's.

* the whole-population round loops as they ran before the construction
  layer did each build's work once — a full merge (:func:`merge_row_pairs`)
  and recount (:func:`row_counts`) of the accepted set every round,
  ``//``-and-``%`` :func:`split_rows`, the multi-pass
  :func:`symmetrize_flat` and a ``searchsorted`` per target search:
  :func:`bulk_links`, :func:`bulk_exact_links`, :func:`_resolve_links`
  and the :class:`RoundsSymphony` and :class:`RoundsMercury` builders.
  They consume the same draws as the production loops, so the outputs
  must match array for array (``tests/test_construction_oracle.py``).

Parity tests compare the two sides exactly where the draw order allows
it (CAN's zones and split tree, the round loops) and by KS tests on link lengths or hop counts elsewhere;
``benchmarks/bench_construction.py`` gates the bulk engine's speed
against :func:`build_per_peer`.  Nothing under ``src/`` imports this
file.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np
from route_oracle import ScalarCAN, ScalarPastry

from repro import telemetry
from repro.baselines import (
    CANOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
)
from repro.baselines.mercury import _RowEmpiricals
from repro.core import GraphConfig, SmallWorldGraph
from repro.core.bulk_construction import (
    _draw_targets,
    _side_log_masses,
    bulk_harmonic_positions,
    outward_candidate_indices,
)
from repro.distributions import Empirical
from repro.keyspace import (
    KeySpace,
    nearest_index,
    nearest_indices,
    successor_index,
    successor_indices,
)
from repro.overlay import uniform_id_sample

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
    ``kind`` naming the per-peer sampler.  The per-peer rows are joined
    into flat rows and the graph assembles its CSR from them, as every
    builder's graph does.
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
    counts = np.fromiter((len(links) for links in long_links), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    flat = np.concatenate([np.asarray(links, dtype=np.int64) for links in long_links])
    if config.bidirectional:
        # Install the reverse of every long link (deduplicated, self-free).
        sources = np.repeat(np.arange(n, dtype=np.int64), counts)
        indptr, flat = symmetrize_flat(sources, flat, n)
    return SmallWorldGraph.from_flat_links(
        ids,
        normalized_ids,
        indptr,
        flat,
        space=config.space,
        model="uniform",
        cutoff_mass=cutoff,
    )


# ----------------------------------------------------------------------
# comparators
# ----------------------------------------------------------------------


class OraclePastry(PastryOverlay):
    """Pastry whose routing table is filled one slot at a time."""

    #: Each peer's digit string as a tuple, shared with the route oracle.
    _digits = ScalarPastry._digits

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
        for u in range(n):
            own = self._digits[u]
            for l in range(self.depth):
                for d in range(self.base):
                    if d == own[l]:
                        continue
                    candidates = by_prefix.get(own[:l] + (d,))
                    if not candidates:
                        continue
                    pick = candidates[int(rng.integers(len(candidates)))]
                    self.table[u, l, d] = pick


class OraclePGrid(PGridOverlay):
    """P-Grid whose references are drawn one peer and level at a time."""

    def _build_refs(self, rng: np.random.Generator) -> np.ndarray:
        """Per-peer reference loop, packed into the production array."""
        # Members of every trie subtree, ascending, keyed by its prefix.
        by_prefix: dict[tuple[int, ...], list[int]] = {}
        for i, path in enumerate(self.paths):
            for l in range(len(path) + 1):
                by_prefix.setdefault(path[:l], []).append(i)
        packed = np.full((self.n, self._bit_matrix.shape[1]), -1, dtype=np.int64)
        for i in range(self.n):
            path = self.paths[i]
            for l in range(len(path)):
                complement = path[:l] + (1 - path[l],)
                candidates = by_prefix.get(complement, [])
                if candidates:
                    (pick,) = rng.choice(len(candidates), size=1, replace=False)
                    packed[i, l] = candidates[pick]
        return packed


class OracleMercury(MercuryOverlay):
    """Mercury whose peers estimate and draw one at a time."""

    def _build_links(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
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
        return split_rows(np.asarray(keys, dtype=np.int64), n)


@dataclass
class _Zone:
    """An axis-aligned box of the CAN torus, as the insertion loop keeps it.

    Attributes:
        lo: inclusive lower corner per dimension.
        hi: exclusive upper corner per dimension.
        depth: number of splits that produced this zone (drives the
            round-robin split dimension).
    """

    lo: np.ndarray
    hi: np.ndarray
    depth: int = 0

    def split(self) -> tuple[_Zone, _Zone]:
        """Halve along the round-robin dimension; return (kept, new)."""
        dim = self.depth % len(self.lo)
        mid = 0.5 * (self.lo[dim] + self.hi[dim])
        left_hi = self.hi.copy()
        left_hi[dim] = mid
        right_lo = self.lo.copy()
        right_lo[dim] = mid
        left = _Zone(self.lo.copy(), left_hi, self.depth + 1)
        right = _Zone(right_lo, self.hi.copy(), self.depth + 1)
        return left, right


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

    #: One key's scalar torus embedding, shared with the route oracle.
    _point_of = ScalarCAN._point_of

    def _build_zones(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Sequential insertion loop, then the zones and the tree as arrays."""
        first = _Zone(np.zeros(self.dims), np.ones(self.dims), depth=0)
        self._zones = [first]
        self._root = _BSPNode(
            zone_index=0, bounds_lo=first.lo.copy(), bounds_hi=first.hi.copy()
        )
        for key in self.keys[1:]:
            point = self._point_of(float(key))
            self._insert(point)
        return (
            np.asarray([zone.lo for zone in self._zones]),
            np.asarray([zone.hi for zone in self._zones]),
            np.asarray([zone.depth for zone in self._zones], dtype=np.int64),
            self._flatten(),
        )

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
        zone = self._zones[zone_idx]
        if zone.depth >= self.max_bsp_depth:
            raise RuntimeError(
                f"CAN BSP split depth {zone.depth} reached max_bsp_depth="
                f"{self.max_bsp_depth}: arrival points are clustered tighter "
                f"than 2^-{self.max_bsp_depth}; spread the key population or "
                "raise max_bsp_depth"
            )
        kept, new = zone.split()
        dim = zone.depth % self.dims
        self._zones[zone_idx] = kept
        new_index = len(self._zones)
        self._zones.append(new)
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


# ----------------------------------------------------------------------
# round loops that merge and recount every round
# ----------------------------------------------------------------------
#
# The construction layer's flat-row helpers and retry loops as they were
# before the bucket index, the pair accumulator and the one-sort
# symmetrize, with their bodies unchanged.


def _dedupe_sorted(keys: np.ndarray) -> np.ndarray:
    """Diff-dedupe an already-sorted key array (avoids ``np.unique``'s
    hash path, which is several times slower than sort-based paths on
    large int64 key arrays)."""
    if len(keys) <= 1:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort-and-diff dedupe of an arbitrary key array."""
    return _dedupe_sorted(np.sort(keys))


def merge_row_pairs(
    accepted: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int
) -> np.ndarray:
    """Merge new ``(row, col)`` pairs into a sorted, distinct key set.

    Keys are ``row * n + col`` (int64; safe for ``n`` up to ~3e9 edges'
    worth of key space).  Returns the union, sorted ascending — which is
    exactly per-row-ascending order when split back into rows.

    Only the *new* batch is quicksorted; the union is then two sorted
    runs, which the stable sort (timsort) merges in ``O(E)`` — so late
    retry rounds with tiny deficits don't pay a full re-sort of the
    accumulated edge set.
    """
    keys = np.sort(rows.astype(np.int64) * n + cols.astype(np.int64))
    if len(accepted) == 0:
        return _dedupe_sorted(keys)
    return _dedupe_sorted(np.sort(np.concatenate([accepted, keys]), kind="stable"))


def row_counts(keys: np.ndarray, n: int) -> np.ndarray:
    """Per-row pair counts of a ``row * n + col`` key array."""
    return np.bincount(keys // n, minlength=n)


def split_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split sorted distinct keys into flat CSR rows ``(indptr, cols)``."""
    counts = row_counts(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, (keys % n).astype(np.int64)


def bulk_links(
    positions: np.ndarray,
    k: int,
    cutoff: float,
    space: KeySpace,
    rng: np.random.Generator,
    dedupe: bool = True,
    max_rounds: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample every peer's long-link set in whole-population passes.

    Statistically equivalent to running the per-peer ``FastSampler``
    oracle (``tests/builder_oracle.py``) once per peer (both
    realise "draw i.i.d. harmonic targets, keep distinct valid ones,
    redraw the rest"), but with ``O(rounds)`` numpy passes instead of
    ``O(n·k)`` Python iterations.

    Args:
        positions: *sorted* normalised peer positions in ``[0, 1)``.
        k: long links requested per peer.
        cutoff: minimum normalised link distance (the paper's ``1/N``).
        space: key-space geometry.
        rng: random source.
        dedupe: count only *distinct* targets toward each peer's budget
            (the default); with ``dedupe=False`` every valid draw counts
            and duplicates collapse at the end, matching the literal
            i.i.d. model.
        max_rounds: retry-round budget before the deterministic fallback
            scan (mirrors the per-peer sampler's ``max_retries``).

    Returns:
        ``(indptr, flat_targets)``: peer ``i``'s links are
        ``flat_targets[indptr[i]:indptr[i+1]]``, sorted and distinct.
        Rows may hold fewer than ``k`` targets when the population cannot
        support them.

    Raises:
        ValueError: for non-positive ``cutoff``, negative ``k`` or
            unsorted positions.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if np.any(np.diff(positions) < 0):
        raise ValueError("positions must be sorted")
    empty = (np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    if n <= 1 or k == 0:
        return empty

    left, right, log_left, log_right = _side_log_masses(positions, cutoff, space)
    has_mass = (log_left + log_right) > 0.0
    all_rows = np.arange(n, dtype=np.int64)
    need = np.where(has_mass, k, 0).astype(np.int64)
    accepted = np.empty(0, dtype=np.int64)  # sorted distinct row*n+col keys
    tel_on = telemetry.enabled()
    started = time.perf_counter() if tel_on else 0.0
    rounds_used = 0
    # Every outstanding link is redrawn once per round, so max_rounds
    # rounds give each link the same random-retry budget as the scalar
    # sampler's max_retries before the deterministic fallback — no early
    # stall exit, which would bias hard rows toward the fallback and
    # away from the per-peer sampler's distribution.
    for _ in range(max_rounds):
        active = need > 0
        if not active.any():
            break
        rounds_used += 1
        draw_rows = np.repeat(all_rows[active], need[active])
        drawn, valid = _draw_targets(
            positions[draw_rows], left[draw_rows], right[draw_rows],
            log_left[draw_rows], log_right[draw_rows], cutoff, space, rng,
        )
        j = nearest_indices(positions, drawn, space)
        ok = (
            valid
            & (j != draw_rows)
            & (space.pairwise_distances(positions[j], positions[draw_rows]) >= cutoff)
        )
        accepted = merge_row_pairs(accepted, draw_rows[ok], j[ok], n)
        if dedupe:
            need = np.where(has_mass, k - row_counts(accepted, n), 0)
        else:
            # Every *valid* draw (duplicates included) spends budget; the
            # duplicate targets then collapse, as in the literal model.
            need = need - np.bincount(draw_rows[ok], minlength=n)
    fallback_rows = int(np.count_nonzero(need > 0))
    if need.any():
        accepted = _fallback_fill(positions, cutoff, space, need, accepted, dedupe)
    if tel_on:
        registry = telemetry.get_registry()
        registry.timer("construction.bulk_links").observe(
            time.perf_counter() - started
        )
        registry.counter("construction.rounds").inc(rounds_used)
        registry.counter("construction.fallback_rows").inc(fallback_rows)
        telemetry.trace(
            "construction.bulk_links",
            rows=n,
            rounds=rounds_used,
            fallback_rows=fallback_rows,
        )
    return split_rows(accepted, n)


def _fallback_fill(
    positions: np.ndarray,
    cutoff: float,
    space: KeySpace,
    need: np.ndarray,
    accepted: np.ndarray,
    dedupe: bool,
) -> np.ndarray:
    """Deterministic outward scan for rows the random rounds left short.

    Scalar, but only ever touches the (rare) pathological rows — the
    bulk analogue of the per-peer sampler's fallback scan.  With
    ``dedupe=True`` it fills the row's remaining budget with *new*
    distinct targets; with ``dedupe=False`` it mirrors the scalar
    sampler exactly — every exhausted draw lands on the first valid
    target, so the row gains at most that one (possibly already-held)
    neighbour.
    """
    n = len(positions)
    extra: list[int] = []
    for i in np.nonzero(need > 0)[0]:
        i = int(i)
        p = float(positions[i])
        want = int(need[i]) if dedupe else 1
        mine: set[int] = set()
        for j in outward_candidate_indices(i, n, space.is_ring):
            if j in mine:
                continue
            key = i * n + j
            if dedupe:
                pos_in = np.searchsorted(accepted, key)
                if pos_in < len(accepted) and accepted[pos_in] == key:
                    continue
            if space.distance(p, float(positions[j])) >= cutoff:
                mine.add(j)
                extra.append(key)
                if len(mine) >= want:
                    break
    if not extra:
        return accepted
    return _sorted_unique(
        np.concatenate([accepted, np.asarray(extra, dtype=np.int64)])
    )


def bulk_exact_links(
    positions: np.ndarray,
    k: int,
    cutoff: float,
    space: KeySpace,
    rng: np.random.Generator,
    dedupe: bool = True,
    block_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth ``1/d'`` sampling over blocked rows of the weight matrix.

    Evaluates the full ``n × n`` distance/weight matrix ``block_size``
    rows at a time, then samples each row without a Python-level per-peer
    ``rng.choice``:

    * ``dedupe=True`` — exponential race: draw ``E_j ~ Exp(1)`` per
      candidate and keep the ``k`` smallest ``E_j / w_j``, which realises
      weighted sampling *without* replacement (Efraimidis–Spirakis),
      matching a per-peer sequential ``choice(replace=False)`` (the
      ``ExactSampler`` oracle in ``tests/builder_oracle.py``) in
      distribution.
    * ``dedupe=False`` — ``k`` i.i.d. inverse-CDF draws per row through
      one flattened ``searchsorted`` over offset row CDFs, duplicates
      collapsed, matching the oracle's ``ExactSampler(dedupe=False)``.

    Intended for mid-size ground truth (``n`` up to a few 1e4); memory
    and time are ``O(n · block_size)`` per pass and ``O(n²)`` total.

    Returns and raises as :func:`bulk_links`.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if n <= 1 or k == 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)

    accepted = np.empty(0, dtype=np.int64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = np.arange(start, stop, dtype=np.int64)
        dists = space.pairwise_distances(positions[block][:, None], positions[None, :])
        weights = np.where(dists >= cutoff, 1.0, 0.0)
        np.divide(weights, dists, out=weights, where=weights > 0)
        weights[block - start, block] = 0.0
        if dedupe:
            race = np.full(weights.shape, np.inf)
            np.divide(
                rng.exponential(size=weights.shape), weights,
                out=race, where=weights > 0,
            )
            take = min(k, n - 1)
            chosen = np.argpartition(race, take - 1, axis=1)[:, :take]
            finite = np.isfinite(np.take_along_axis(race, chosen, axis=1))
            rows = np.repeat(block, take)[finite.ravel()]
            cols = chosen.ravel()[finite.ravel()]
        else:
            cdf = np.cumsum(weights, axis=1)
            totals = cdf[:, -1]
            live = totals > 0
            if not live.any():
                continue
            b = int(live.sum())
            # One flat searchsorted over per-row CDFs offset by row index.
            flat_cdf = (
                cdf[live] / totals[live, None] + np.arange(b)[:, None]
            ).ravel()
            queries = (rng.random((b, k)) + np.arange(b)[:, None]).ravel()
            idx = np.searchsorted(flat_cdf, queries, side="right")
            cols = (idx % n).astype(np.int64)
            rows = np.repeat(block[live], k)
        accepted = merge_row_pairs(accepted, rows, cols, n)
    return split_rows(accepted, n)


def symmetrize_flat(
    rows: np.ndarray, cols: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Install the reverse of every edge, dropping self-links and duplicates.

    The CSR transpose-merge behind ``GraphConfig(bidirectional=True)``:
    concatenate the edge list with its transpose, key-sort, and unique —
    no per-edge Python ``set`` loop.

    Args:
        rows: edge source indices (flat).
        cols: edge target indices, aligned with ``rows``.
        n: number of peers.

    Returns:
        ``(indptr, flat_targets)`` with every row sorted and distinct.
    """
    all_rows = np.concatenate([rows, cols]).astype(np.int64)
    all_cols = np.concatenate([cols, rows]).astype(np.int64)
    keep = all_rows != all_cols
    keys = _sorted_unique(all_rows[keep] * n + all_cols[keep])
    return split_rows(keys, n)


def _resolve_links(
    live_ids: np.ndarray,
    space,
    rng: np.random.Generator,
    member_idx: np.ndarray,
    want: np.ndarray,
    cdf,
    ppf,
    cutoff: np.ndarray,
    seed_keys: np.ndarray,
    max_rounds: int,
) -> tuple[np.ndarray, int]:
    """Draw harmonic links for ``member_idx`` peers against the live population.

    The vectorized core shared by :func:`bulk_join` and
    :func:`bulk_repair`: each member draws toward ``want[i]`` *distinct*
    live targets under its eq. (7) cutoff ``cutoff[i]``, redrawing only
    its deficit each round (per-member budgets let a cohort reproduce
    the scalar protocol's "``log2 N`` as of my own join" profile).
    ``seed_keys`` (sorted, distinct ``local_row * n + col`` keys)
    pre-populate the accepted set with links the member already holds,
    so repairs never duplicate a kept link.

    Returns:
        ``(accepted, rounds)`` — the union of seeds and new links as
        sorted distinct keys, plus the number of rounds consumed.
    """
    n = len(live_ids)
    m = len(member_idx)
    p_norm = np.asarray(cdf(live_ids[member_idx]), dtype=float)
    left, right = space.spans(p_norm)
    left = np.broadcast_to(np.asarray(left, dtype=float), p_norm.shape)
    right = np.broadcast_to(np.asarray(right, dtype=float), p_norm.shape)
    has_mass = (left > cutoff) | (right > cutoff)

    accepted = np.asarray(seed_keys, dtype=np.int64)
    have = np.bincount(accepted // n, minlength=m) if len(accepted) else np.zeros(
        m, dtype=np.int64
    )
    # A member without harmonic mass beyond the cutoff keeps what it has
    # (the scalar protocols bail out on the first empty draw).
    target = np.where(has_mass, np.maximum(want, have), have)
    rounds = 0
    for _ in range(max_rounds):
        need = target - have
        active = need > 0
        if not active.any():
            break
        rounds += 1
        rows = np.repeat(np.flatnonzero(active), need[active])
        drawn, valid = bulk_harmonic_positions(p_norm[rows], cutoff[rows], space, rng)
        keys = np.clip(
            np.asarray(ppf(np.clip(drawn, 0.0, 1.0)), dtype=float),
            0.0,
            np.nextafter(1.0, 0.0),
        )
        owner = nearest_indices(live_ids, keys, space)
        mass = np.abs(np.asarray(cdf(live_ids[owner]), dtype=float) - p_norm[rows])
        if space.is_ring:
            mass = np.minimum(mass, 1.0 - mass)
        ok = valid & (owner != member_idx[rows]) & (mass >= cutoff[rows])
        accepted = merge_row_pairs(accepted, rows[ok], owner[ok], n)
        have = np.bincount(accepted // n, minlength=m)
    return accepted, rounds


class RoundsSymphony(SymphonyOverlay):
    """Symphony whose link rounds merge and recount every round."""

    def _build_links(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw every peer's harmonic links in whole-population rounds.

        Same primitives as :func:`repro.core.bulk_construction.bulk_links`:
        draw all outstanding spans at once (``x = N^(q-1)`` lands in
        ``[1/N, 1]``), resolve successors with one ``searchsorted``,
        dedupe rows on ``row·n + target`` keys, and redraw only the
        deficit — within the scalar builder's 8-attempts-per-link budget.
        """
        n = self.n
        budget = 8 * max(self.k, 1)  # the scalar builder's attempts cap
        all_rows = np.arange(n, dtype=np.int64)
        need = np.full(n, self.k, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        accepted = np.empty(0, dtype=np.int64)
        while True:
            # Never draw past the per-peer cap, exactly as the scalar
            # loop stopped at its attempts counter.
            draws = np.minimum(need, budget - attempts)
            active = draws > 0
            if not active.any():
                break
            attempts[active] += draws[active]
            rows = np.repeat(all_rows[active], draws[active])
            spans = n ** (rng.random(len(rows)) - 1.0)
            points = (self.ids[rows] + spans) % 1.0
            targets = successor_indices(self.ids, points)
            ok = targets != rows
            accepted = merge_row_pairs(accepted, rows[ok], targets[ok], n)
            need = self.k - row_counts(accepted, n)
        return split_rows(accepted, n)


class RoundsMercury(MercuryOverlay):
    """Mercury whose link rounds merge and recount every round."""

    def _build_links(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw every peer's rank-harmonic links in whole-population rounds.

        One gossip-sample matrix, row-wise empirical estimates, then the
        :func:`repro.core.bulk_construction.bulk_links` retry scheme:
        draw all outstanding rank offsets at once, map through each
        drawing peer's own quantile estimate, resolve managers with one
        ``searchsorted``, dedupe on ``row·n + target`` keys, and redraw
        only the deficit — within a budget of 8 attempts per link.
        """
        n = self.n
        samples = self.ids[rng.integers(0, n, size=(n, self.sample_size))]
        estimates = _RowEmpiricals(samples)
        all_rows = np.arange(n, dtype=np.int64)
        own_rank = estimates.cdf(all_rows, self.ids)

        budget = 8 * max(self.k, 1)
        need = np.full(n, self.k, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        accepted = np.empty(0, dtype=np.int64)
        while True:
            draws = np.minimum(need, budget - attempts)
            active = draws > 0
            if not active.any():
                break
            attempts[active] += draws[active]
            rows = np.repeat(all_rows[active], draws[active])
            offsets = n ** (rng.random(len(rows)) - 1.0)  # harmonic on [1/N, 1]
            target_ranks = (own_rank[rows] + offsets) % 1.0
            values = np.clip(
                estimates.ppf(rows, target_ranks), 0.0, np.nextafter(1.0, 0.0)
            )
            targets = successor_indices(self.ids, values)
            ok = targets != rows
            accepted = merge_row_pairs(accepted, rows[ok], targets[ok], n)
            need = self.k - row_counts(accepted, n)
        return split_rows(accepted, n)
