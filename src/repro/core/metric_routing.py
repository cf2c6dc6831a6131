"""Metric-parameterized batch frontier routing: one kernel, many overlays.

The batch engine (:mod:`repro.core.batch_routing`) vectorized greedy
key-distance routing over the small-world model's CSR adjacency.  Every
*comparator* overlay (Chord, Pastry, Symphony, Mercury, CAN, P-Grid),
however, kept routing one lookup per Python call — the last scalar hot
path in the repository.

This module generalises the frontier scheme: the kernel
(:func:`frontier_route_many`) owns all walk bookkeeping — frontier
masks, hop budgets, candidate gathering from a :class:`CSRAdjacency`,
liveness masking, arrival/stuck/budget accounting, optional path
recording — while the *routing rule* is a declarative
:class:`RoutingMetric` object that scores candidates.  Each step:

1. gather every active walk's out-edges;
2. ask the metric for per-candidate scores (``inf`` = ineligible);
3. move each walk to its first minimum-score candidate when the score
   beats the walk's move threshold — the current greedy distance for
   *greedy* metrics (``metric.greedy``), or unconditionally-if-eligible
   for rule-based metrics (Pastry's prefix rule, P-Grid's trie rule);
4. walks that land on their key's owner stop as ``"arrived"``; walks
   with no move stop as ``"stuck"`` (unless the metric's
   ``terminal_owner_hop`` grants the Chord-style final hop onto an
   owner candidate).

A round is one of two kinds, and both return exactly the same moves.

* The **linear round** runs steps 1–3 on a *segmented flat-CSR layout*:
  every active walk's adjacency row is gathered into one concatenated
  candidate vector (no padding, no masking), scored flat through
  :meth:`RoutingMetric.candidate_scores`, and resolved per walk with
  segmented reductions (``np.minimum.reduceat`` plus a flat
  first-occurrence tie-break; degree-uniform rounds take an exact-width
  2-d ``argmin`` instead).  Per-walk operands are expanded to the flat
  layout with ``np.repeat(x, counts)`` — a contiguous copy, cheaper than
  gathering through a per-candidate walk index — so the cost of a round
  is proportional to the frontier's *total* degree and one hub row never
  inflates the whole cohort.  The first minimum over CSR row order is
  the greedy rule's "first strict improvement" scan.
* The **search round** serves :class:`GreedyValueMetric` on rows whose
  long links are sorted (:attr:`CSRAdjacency.tails_sorted`): with peer
  positions increasing in the peer index, the row's best long link is
  the key's predecessor or successor among them (or, on the ring, the
  row's first or last), which a vectorized binary search finds in about
  ``log2(degree)`` gathers per walk.  The row's ring/interval
  neighbours are scored as in the linear round, and float ties resolve
  to the first slot in CSR order, so the move is the linear round's.

:meth:`StreamFrontier._advance` picks the kind per round, from the
inputs alone: the search round needs the exact greedy metric type with
:attr:`GreedyValueMetric.searchable` positions, no liveness mask and
sorted row tails (each checked once per metric or CSR), and a round
with enough candidates per walk and per search step to outrun the
linear round's lower fixed cost.  Everything else — other metrics,
masked routing, unsorted or hand-edited rows, small rounds — is linear.
Both kinds report ``"ragged"`` as :attr:`StreamFrontier.last_round_kernel`
and count the frontier's row candidates in ``candidates_seen``.

The shipped metric families cover every baseline routing rule the paper
compares against:

* :class:`GreedyValueMetric` — symmetric circular/interval distance
  (the small-world model, Symphony, Mercury);
* :class:`ClockwiseMetric` — clockwise-only remaining distance
  (Chord's closest-preceding-finger rule);
* :class:`PrefixDigitMetric` — Pastry's prefix-extension rule with the
  numerically-closer fallback scan;
* :class:`TrieMetric` — P-Grid's resolve-one-bit rule with the
  value-order fallback step;
* :class:`TorusZoneMetric` — CAN's greedy zone walk under torus L1
  distance.

Every comparator's ``__init__`` (:mod:`repro.baselines`) builds its
metric once, alongside the matching CSR (and per-edge tag arrays where
the rule needs them), as ``overlay.csr`` and ``overlay.metric``.
This kernel is the only implementation of each rule: a single
:meth:`~repro.baselines.base.BaselineOverlay.route` or
:func:`repro.core.greedy_route` is a batch of one.  The per-lookup loops
it is pinned against hop for hop live in ``tests/route_oracle.py``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import time

import numpy as np

from repro import telemetry
from repro.core.adjacency import CSRAdjacency
from repro.core.routing import RouteResult
from repro.keyspace import (
    IntervalSpace,
    RingSpace,
    check_unit_keys,
    digit_rows,
    morton_rows,
    nearest_indices,
    successor_indices,
)

__all__ = [
    "BatchRouteResult",
    "RoutingMetric",
    "PreparedTargets",
    "Segments",
    "GreedyValueMetric",
    "ClockwiseMetric",
    "PrefixDigitMetric",
    "TrieMetric",
    "TorusZoneMetric",
    "torus_points",
    "torus_zone_lookup",
    "StreamFrontier",
    "frontier_route_many",
    "REASON_ARRIVED",
    "REASON_STUCK",
    "REASON_MAX_HOPS",
]

#: Reason codes stored in :attr:`BatchRouteResult.reason_codes`.
REASON_ARRIVED = 0
REASON_STUCK = 1
REASON_MAX_HOPS = 2

_REASON_LABELS = np.array(["arrived", "stuck", "max_hops"])

#: Score reserved for rule-based metrics' primary (always-take) moves;
#: any finite fallback score is worse, ``inf`` marks ineligible candidates.
_PRIMARY_SCORE = -1e9

#: Shared immutable empty retirement cohort (never written through).
_EMPTY_SLOTS = np.empty(0, dtype=np.int64)


def _check_sources(sources: np.ndarray, n: int) -> None:
    """Raise ``ValueError`` naming the first source outside ``[0, n)``."""
    if len(sources) and (sources.min() < 0 or sources.max() >= n):
        bad = sources[(sources < 0) | (sources >= n)][0]
        raise ValueError(f"source index {bad} out of range for {n} peers")


@dataclass
class BatchRouteResult:
    """Outcome of a batch of greedy lookups, column-wise.

    One entry per requested route, aligned across all arrays.  Field
    semantics match :class:`repro.core.routing.RouteResult` exactly.

    Attributes:
        success: bool array — the walk arrived at its key's owner.
        hops: int64 array — total edges traversed.
        neighbor_hops: int64 array — hops over ring/interval edges.
        long_hops: int64 array — hops over long-range edges.
        reason_codes: int8 array of ``REASON_*`` codes (see
            :attr:`reasons` for the string view).
        sources: int64 array — originating peers.
        target_keys: float array — the looked-up keys.
        owners: int64 array — each key's owner peer.
        paths: per-route visited-node lists, only populated when
            ``record_paths=True`` was requested (path recording is the
            one part of the result that cannot be a rectangular array).
        rounds: frontier rounds the batch took (0 when unknown, e.g.
            results assembled outside :func:`frontier_route_many`).
        candidates_seen: real candidates gathered across those rounds.
        padded_slots_seen: dense ``frontier × max_degree`` slots a
            lane-matrix layout would pay for the same rounds.  The
            three stats are per-route-order-independent totals, so the
            sharded dispatcher sums them across shards without breaking
            the bit-identity contract.
    """

    success: np.ndarray
    hops: np.ndarray
    neighbor_hops: np.ndarray
    long_hops: np.ndarray
    reason_codes: np.ndarray
    sources: np.ndarray
    target_keys: np.ndarray
    owners: np.ndarray
    paths: list[list[int]] | None = None
    rounds: int = 0
    candidates_seen: int = 0
    padded_slots_seen: int = 0

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def n_routes(self) -> int:
        """Number of routes in the batch."""
        return len(self.hops)

    @property
    def reasons(self) -> np.ndarray:
        """String view of :attr:`reason_codes` (``"arrived"`` etc.)."""
        return _REASON_LABELS[self.reason_codes]

    @property
    def success_rate(self) -> float:
        """Fraction of routes that reached their owner."""
        return float(self.success.mean()) if len(self) else 0.0

    @property
    def mean_hops(self) -> float:
        """Mean hop count over all routes, successful or not."""
        return float(self.hops.mean()) if len(self) else 0.0

    def to_route_results(self) -> list[RouteResult]:
        """Materialise per-route :class:`RouteResult` objects.

        When the batch recorded paths, each result carries its full
        visited-node list; otherwise the path degenerates to the
        one-element ``[source]`` (intermediate nodes are never
        fabricated).
        """
        out = []
        for i in range(len(self)):
            path = self.paths[i] if self.paths is not None else [int(self.sources[i])]
            out.append(
                RouteResult(
                    success=bool(self.success[i]),
                    hops=int(self.hops[i]),
                    neighbor_hops=int(self.neighbor_hops[i]),
                    long_hops=int(self.long_hops[i]),
                    path=path,
                    reason=str(_REASON_LABELS[self.reason_codes[i]]),
                    target_key=float(self.target_keys[i]),
                    owner=int(self.owners[i]),
                )
            )
        return out


@dataclass
class PreparedTargets:
    """Per-batch target state produced by :meth:`RoutingMetric.prepare`.

    Attributes:
        owners: ``(routes,)`` int64 — each key's owner peer index (the
            kernel's arrival condition).
        targets: per-route target representation in whatever coordinates
            the metric scores in (transformed keys, owner indices, torus
            points, ...).
        extra: optional metric-private payload (digit matrices etc.).
    """

    owners: np.ndarray
    targets: np.ndarray
    extra: object = None


@dataclass
class Segments:
    """Per-walk segment layout of one flat candidate vector.

    The kernel concatenates every frontier walk's (live) adjacency row
    into one flat vector; ``Segments`` describes how that vector
    partitions back into walks.  Segment ``i`` holds walk ``i``'s
    candidates at flat positions ``starts[i] : starts[i] + counts[i]``,
    so ``np.repeat(x, counts)`` expands a per-walk array ``x`` to one
    value per candidate.  Every segment is non-empty — walks with no
    (live) candidates are filtered out before scoring and retire as
    stuck without ever reaching the metric.

    Attributes:
        starts: ``(w,)`` flat offset of each walk's first candidate.
        counts: ``(w,)`` number of candidates per walk (all ``>= 1``).
    """

    starts: np.ndarray
    counts: np.ndarray


class RoutingMetric(ABC):
    """Declarative routing rule consumed by :func:`frontier_route_many`.

    A metric binds one overlay's geometry (peer coordinates, digit
    strings, zone boxes, per-edge tags) and scores flat candidate
    vectors for the kernel.  Two regimes:

    * ``greedy = True`` — scores are distances-to-target; the kernel
      moves a walk only when the best candidate *strictly improves* the
      walk's current score, and tracks that score across steps.
    * ``greedy = False`` — rule-based; the kernel moves whenever any
      candidate is eligible (finite score).  The metric encodes rule
      priority in the score ordering (``_PRIMARY_SCORE`` first).

    ``terminal_owner_hop = True`` grants Chord's final hop: a walk with
    no eligible move steps onto a candidate that *is* its owner instead
    of going stuck.
    """

    greedy: bool = True
    terminal_owner_hop: bool = False

    @abstractmethod
    def prepare(
        self, target_keys: np.ndarray, alive: np.ndarray | None = None
    ) -> PreparedTargets:
        """Transform raw lookup keys and resolve each key's owner."""

    def initial_scores(self, nodes: np.ndarray, state: PreparedTargets) -> np.ndarray:
        """Per-walk move threshold at the walk's starting node."""
        if not self.greedy:
            return np.full(len(nodes), np.inf)
        raise NotImplementedError  # pragma: no cover - greedy metrics override

    @abstractmethod
    def candidate_scores(
        self,
        candidates: np.ndarray,
        slots: np.ndarray,
        segments: Segments,
        state: PreparedTargets,
        walks: np.ndarray,
        current: np.ndarray,
    ) -> np.ndarray:
        """Score one flat candidate vector; ``inf`` = ineligible.

        The kernel pre-filters the vector to real, live edges, so every
        element is scorable; ``inf`` marks rule-ineligibility only.
        Per-walk operands expand to one value per candidate with
        ``np.repeat(x, segments.counts)``.

        Args:
            candidates: ``(total,)`` candidate node indices.
            slots: ``(total,)`` CSR edge positions of the candidates
                (for per-edge tag lookups).
            segments: the per-walk :class:`Segments` layout.
            state: the batch's :class:`PreparedTargets`.
            walks: ``(w,)`` route indices of the scored sub-frontier.
            current: ``(w,)`` current node of each scored walk.
        """

    @staticmethod
    def _no_alive(alive: np.ndarray | None) -> None:
        if alive is not None:
            raise ValueError("this routing metric does not support liveness masks")


class GreedyValueMetric(RoutingMetric):
    """Symmetric greedy distance descent over scalar peer coordinates.

    The rule shared by the small-world model, Symphony and Mercury: move
    to the candidate minimising ``space.distance`` to the target, only
    if strictly closer.  Owners resolve to the nearest peer (lower-id
    tie-break), optionally restricted to live peers.

    Args:
        positions: sorted peer coordinates the metric measures in.
        space: key-space geometry providing ``pairwise_distances``.
        transform: optional vectorised key transform applied before
            scoring (e.g. CDF normalisation, hashing).
    """

    def __init__(self, positions: np.ndarray, space, transform=None):
        self.positions = np.asarray(positions, dtype=float)
        self.space = space
        self.transform = transform

    @cached_property
    def searchable(self) -> bool:
        """Whether a search round scores exactly what a linear round does.

        True when ``space`` is the interval or the ring (whose distances
        are monotone on either side of the key) and ``positions``
        strictly increase with the peer index, so a row sorted by peer
        index is sorted by position.  Checked once per metric.
        """
        p = self.positions
        return type(self.space) in (IntervalSpace, RingSpace) and bool(
            np.all(p[1:] > p[:-1])
        )

    def prepare(self, target_keys, alive=None) -> PreparedTargets:
        target_keys = check_unit_keys(target_keys)
        targets = (
            self.transform(target_keys) if self.transform is not None else target_keys
        )
        targets = np.asarray(targets, dtype=float)
        if alive is None:
            owners = nearest_indices(self.positions, targets, self.space)
        else:
            live = np.flatnonzero(alive)
            if len(live) == 0:
                raise ValueError("cannot route in a network with no live peers")
            local = nearest_indices(self.positions[live], targets, self.space)
            owners = live[local].astype(np.int64)
        return PreparedTargets(owners=owners, targets=targets)

    def initial_scores(self, nodes, state):
        return self.space.pairwise_distances(self.positions[nodes], state.targets)

    def candidate_scores(self, candidates, slots, segments, state, walks, current):
        return self.space.pairwise_distances(
            self.positions[candidates],
            np.repeat(state.targets[walks], segments.counts),
        )


class ClockwiseMetric(RoutingMetric):
    """Chord's rule: clockwise-only remaining distance ``(key - position) mod 1``.

    Owners are successors, and the terminal owner hop is always granted.
    That is exactly Chord's closest-preceding-finger rule: minimising
    the remaining clockwise distance among candidates that do not
    overshoot is the same ordering as maximising the clockwise advance,
    overshooting candidates can never improve, and the one stuck state
    (the key lies between a peer and its successor, who owns it)
    resolves by the final hop onto the owner candidate.

    Args:
        positions: sorted peer coordinates on the unit ring.
        transform: optional vectorised key transform (hashing).
    """

    terminal_owner_hop = True

    def __init__(self, positions: np.ndarray, transform=None):
        self.positions = np.asarray(positions, dtype=float)
        self.transform = transform

    def prepare(self, target_keys, alive=None) -> PreparedTargets:
        self._no_alive(alive)
        target_keys = check_unit_keys(target_keys)
        targets = (
            self.transform(target_keys) if self.transform is not None else target_keys
        )
        targets = np.asarray(targets, dtype=float)
        owners = successor_indices(self.positions, targets)
        return PreparedTargets(owners=owners, targets=targets)

    def initial_scores(self, nodes, state):
        return (state.targets - self.positions[nodes]) % 1.0

    def candidate_scores(self, candidates, slots, segments, state, walks, current):
        return (
            np.repeat(state.targets[walks], segments.counts)
            - self.positions[candidates]
        ) % 1.0


class PrefixDigitMetric(RoutingMetric):
    """Pastry's rule: extend the shared digit prefix, else closer-by-rank.

    Per hop, with ``l = cpl(current, key)``:

    1. *primary* — the routing-table edge tagged ``(l, key_digit[l])``,
       taken unconditionally when present (score ``_PRIMARY_SCORE``);
    2. *fallback* — any known candidate that is numerically closer to
       the key **and** whose rank ``(cpl, -distance)`` beats the current
       peer's; the best rank wins, encoded as the packed score
       ``distance - cpl`` (distance < 1 makes it lexicographic).

    The candidate-cpl block is only computed for walks without a primary
    edge (the common case resolves on tag comparisons alone).  Each
    edge's ``(tag_level, tag_digit)`` pair is fused into one int32 code
    at construction (``level * base + digit``, ``-1`` for leaf edges),
    so the primary-edge test is one gather and one compare per
    candidate.

    Args:
        positions: sorted peer coordinates on the unit ring.
        digit_matrix: ``(n, depth)`` integer digit strings of the peers.
        tag_level: per-edge routing-table row, ``-1`` for leaf-set edges.
        tag_digit: per-edge routing-table column, ``-1`` for leaf edges.
        base: the digit base ``2^b``.
    """

    greedy = False

    def __init__(
        self,
        positions: np.ndarray,
        digit_matrix: np.ndarray,
        tag_level: np.ndarray,
        tag_digit: np.ndarray,
        base: int,
    ):
        self.positions = np.asarray(positions, dtype=float)
        self.digits = np.asarray(digit_matrix)
        self.base = base
        self.depth = self.digits.shape[1]
        self._space = RingSpace()
        level = np.asarray(tag_level, dtype=np.int64)
        digit = np.asarray(tag_digit, dtype=np.int64)
        table = (level >= 0) & (level < self.depth) & (digit >= 0) & (digit < base)
        self._tag_code = np.where(table, level * base + digit, -1).astype(np.int32)

    def prepare(self, target_keys, alive=None) -> PreparedTargets:
        self._no_alive(alive)
        targets = np.asarray(target_keys, dtype=float)
        owners = nearest_indices(self.positions, targets, self._space)
        # digit_rows rejects NaN keys and keys outside [0, 1), as
        # repro.keyspace.digits does.
        key_digits = digit_rows(targets, self.base, self.depth).astype(
            self.digits.dtype
        )
        return PreparedTargets(owners=owners, targets=targets, extra=key_digits)

    def _cpl_current(self, current, key_digits):
        neq = self.digits[current] != key_digits
        return np.where(neq.any(axis=1), neq.argmax(axis=1), self.depth)

    def candidate_scores(self, candidates, slots, segments, state, walks, current):
        counts = segments.counts
        key_digits = state.extra[walks]
        cpl_cur = self._cpl_current(current, key_digits)
        wanted_digit = key_digits[
            np.arange(len(walks)), np.minimum(cpl_cur, self.depth - 1)
        ]
        # The tag code of each walk's primary edge; -2 (carried by no
        # edge) once the walk's peer matches every digit of the key.
        wanted = np.where(
            cpl_cur < self.depth, cpl_cur * self.base + wanted_digit, -2
        ).astype(np.int32)
        primary = self._tag_code[slots] == np.repeat(wanted, counts)
        scores = np.where(primary, _PRIMARY_SCORE, np.inf)
        # Fallback scan only for the walks the primary rule cannot serve,
        # selected flat: a segmented any over the primary hits, with
        # those walks' operands repeated out to their candidates.
        need = ~np.bitwise_or.reduceat(primary, segments.starts)
        if need.any():
            sel = np.repeat(need, counts)
            per = counts[need]
            cand = candidates[sel]
            walk_targets = state.targets[walks[need]]
            targets_sel = np.repeat(walk_targets, per)
            cur_dist = np.repeat(
                self._space.pairwise_distances(
                    self.positions[current[need]], walk_targets
                ),
                per,
            )
            cand_dist = self._space.pairwise_distances(
                self.positions[cand], targets_sel
            )
            neq = self.digits[cand] != np.repeat(key_digits[need], per, axis=0)
            cand_l = np.where(neq.any(axis=1), neq.argmax(axis=1), self.depth)
            eligible = (cand_dist < cur_dist) & (cand_l >= np.repeat(cpl_cur[need], per))
            scores[sel] = np.where(eligible, cand_dist - cand_l, np.inf)
        return scores


class TrieMetric(RoutingMetric):
    """P-Grid's rule: resolve one differing bit, else step in value order.

    Per hop, with ``l = cpl(current_path, key_bits)``: take the level-``l``
    reference when the trie has one; otherwise step to the index
    neighbour toward the key's value (``+1`` when ``key > ids[current]``,
    ``-1`` otherwise; stepping off the interval end goes stuck).

    Args:
        positions: sorted peer identifiers.
        bit_matrix: ``(n, max_depth)`` trie paths, padded with ``-1``.
        tag_level: per-edge trie level of reference edges (at most one
            edge of a row per level), ``-1`` for the value-order
            neighbour edges.
        cell_lefts: sorted left edges of the leaf cells (ownership).
        cell_order: peer index owning each sorted cell.
    """

    greedy = False

    def __init__(
        self,
        positions: np.ndarray,
        bit_matrix: np.ndarray,
        tag_level: np.ndarray,
        cell_lefts: np.ndarray,
        cell_order: np.ndarray,
    ):
        self.positions = np.asarray(positions, dtype=float)
        self.bits = np.asarray(bit_matrix)
        self.tag_level = np.asarray(tag_level)
        self.cell_lefts = np.asarray(cell_lefts, dtype=float)
        self.cell_order = np.asarray(cell_order, dtype=np.int64)
        self.max_depth = self.bits.shape[1]

    def prepare(self, target_keys, alive=None) -> PreparedTargets:
        self._no_alive(alive)
        targets = np.asarray(target_keys, dtype=float)
        pos = np.maximum(
            np.searchsorted(self.cell_lefts, targets, side="right") - 1, 0
        )
        owners = self.cell_order[pos]
        # digit_rows rejects NaN keys and keys outside [0, 1), so
        # owners resolved above are never returned for a bad key.
        key_bits = digit_rows(targets, 2, self.max_depth).astype(self.bits.dtype)
        return PreparedTargets(owners=owners, targets=targets, extra=key_bits)

    def candidate_scores(self, candidates, slots, segments, state, walks, current):
        counts = segments.counts
        key_bits = state.extra[walks]
        # Padding bits (-1) never match a key bit, so the argmax trick
        # caps each cpl at the peer's own path length automatically.
        neq = self.bits[current] != key_bits
        cpl = np.where(neq.any(axis=1), neq.argmax(axis=1), self.max_depth)
        tag_level = self.tag_level[slots]
        primary = tag_level == np.repeat(cpl, counts)
        want = np.where(
            state.targets[walks] > self.positions[current], current + 1, current - 1
        )
        fallback = (tag_level == -1) & (candidates == np.repeat(want, counts))
        return np.where(primary, _PRIMARY_SCORE, np.where(fallback, 0.0, np.inf))


def torus_points(target_keys: np.ndarray, dims: int) -> np.ndarray:
    """Embed 1-d keys into the ``dims``-dimensional torus, CAN-style.

    ``dims == 1`` is the identity embedding (the raw key as the single
    coordinate); higher dimensions use the locality-preserving Morton
    spread (:func:`repro.keyspace.morton_rows`).  Both reject NaN keys
    and keys outside ``[0, 1)``.
    """
    if dims == 1:
        return check_unit_keys(target_keys)[:, None]
    return morton_rows(target_keys, dims)


def torus_zone_lookup(
    points: np.ndarray, bsp: tuple, max_depth: int
) -> np.ndarray:
    """Resolve torus points to owning zones via a flat BSP split tree.

    ``bsp`` is the ``(split_dim, split_at, low, high, zone)`` array
    five-tuple produced by the CAN builder: node 0 is the root, internal
    nodes carry ``zone == -1`` and a midpoint split, leaves carry the
    owning zone index.  The descent is level-synchronous — one numpy
    step resolves one BSP level for every pending point — so its
    iteration count is bounded by the tree depth, which construction
    caps at ``max_depth``.

    Raises:
        RuntimeError: when the descent exceeds ``max_depth`` levels
            (corrupt split tree).
    """
    split_dim, split_at, low, high, zone = bsp
    node = np.zeros(len(points), dtype=np.int64)
    for _ in range(max_depth + 1):
        pending = np.flatnonzero(zone[node] < 0)
        if pending.size == 0:
            return zone[node]
        at = node[pending]
        go_high = points[pending, split_dim[at]] >= split_at[at]
        node[pending] = np.where(go_high, high[at], low[at])
    raise RuntimeError(
        f"BSP descent exceeded max_depth={max_depth} levels without "
        "reaching a leaf; the split tree is corrupt"
    )


class TorusZoneMetric(RoutingMetric):
    """CAN's greedy zone walk: torus L1 distance from point to zone box.

    Fully declarative — the zone geometry *and* the ownership structure
    (the flat BSP split tree) are plain arrays, so the metric needs no
    overlay object behind it.

    Args:
        lo: ``(n, d)`` inclusive lower corners of the zones.
        hi: ``(n, d)`` exclusive upper corners.
        bsp: the ``(split_dim, split_at, low, high, zone)`` flat BSP
            arrays for owner resolution (see :func:`torus_zone_lookup`).
        max_depth: BSP descent bound (the builder's ``max_bsp_depth``).
    """

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        bsp: tuple,
        max_depth: int = 96,
    ):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.bsp = bsp
        self.max_depth = int(max_depth)
        self.dims = self.lo.shape[1]

    def prepare(self, target_keys, alive=None) -> PreparedTargets:
        self._no_alive(alive)
        points = torus_points(target_keys, self.dims)
        owners = torus_zone_lookup(points, self.bsp, self.max_depth)
        return PreparedTargets(owners=owners, targets=points)

    def _zone_distances(self, points: np.ndarray, zones: np.ndarray) -> np.ndarray:
        """L1 torus distance from each point to its aligned zone box.

        The per-dimension expression of the scalar ``_axis_distance`` in
        ``tests/route_oracle.py``, accumulated in dimension order.
        """
        total = np.zeros(zones.shape)
        for k in range(self.dims):
            x = points[:, k]
            lo = self.lo[zones, k]
            hi = self.hi[zones, k]
            inside = (lo <= x) & (x < hi)
            direct = np.minimum(np.abs(x - lo), np.abs(x - hi))
            wrapped = np.minimum(
                np.minimum(np.abs(x - lo + 1.0), np.abs(x - lo - 1.0)),
                np.minimum(np.abs(x - hi + 1.0), np.abs(x - hi - 1.0)),
            )
            total = total + np.where(inside, 0.0, np.minimum(direct, wrapped))
        return total

    def initial_scores(self, nodes, state):
        return self._zone_distances(state.targets, nodes)

    def candidate_scores(self, candidates, slots, segments, state, walks, current):
        return self._zone_distances(
            np.repeat(state.targets[walks], segments.counts, axis=0), candidates
        )


#: Candidates a round must hold beyond the search round's per-walk cost
#: before it searches: ~0.1 ms of extra fixed numpy work, in candidates
#: of a linear round (see :meth:`StreamFrontier._advance`).
_SEARCH_MIN_CANDIDATES = 4096


def _lower_bound(base: np.ndarray, count: np.ndarray, goes_right, *operands) -> np.ndarray:
    """Branchless binary search over per-walk slot ranges, all walks at once.

    For each walk, the first slot ``j`` of ``[base, base + count)`` where
    ``goes_right(j, *operands)`` is False, or ``base + count`` when there
    is none.  ``goes_right`` maps a slot array (and the per-walk
    ``operands``, restricted to the same walks) to a bool array and must
    be True-then-False along every range; every ``count`` must be >= 1.
    Probes never leave their range.

    A walk needs ``ceil(log2(count))`` steps.  Walks are searched most
    steps first, so the walks still searching are always a prefix and
    a hub row's steps are paid by the hub's walks alone.
    """
    steps = np.frexp(count - 1)[1]
    order = None
    if steps.min() != steps.max():
        order = np.argsort(-steps.astype(np.int8), kind="stable")
        steps, base, count = steps[order], base[order], count[order]
        operands = tuple(op[order] for op in operands)
    else:
        base, count = base.copy(), count.copy()
    # searching[i]: walks with more than i steps, a prefix of the order.
    searching = len(steps) - np.cumsum(np.bincount(steps))
    for m in searching[:-1].tolist():
        half = count[:m] >> 1
        probe = base[:m] + half
        ops = tuple(op[:m] for op in operands)
        base[:m] = np.where(goes_right(probe, *ops), probe, base[:m])
        count[:m] -= half
    found = base + goes_right(base, *operands)
    if order is None:
        return found
    out = np.empty_like(found)
    out[order] = found
    return out


class StreamFrontier:
    """Resident routing frontier: walks join and leave continuously.

    The walk bookkeeping of :func:`frontier_route_many`, factored into
    an object whose admission is an *operation* instead of a
    precondition.  :meth:`admit` places new walks into free slots of the
    resident state arrays (growing them when needed), :meth:`step`
    advances every active walk one hop under the metric — exactly one
    kernel round — and returns the slots that retired this round;
    :meth:`release` hands retired slots back for reuse, which is what
    lets a serving loop (:mod:`repro.serving`) keep a bounded frontier
    alive under an unbounded query stream.

    Because walks are independent, a walk's trajectory depends only on
    its own ``(source, target)`` and the graph — never on which other
    walks share the frontier — so a stream admitted in arbitrary
    micro-batches retires with outcomes identical to the same pairs
    routed as one batch.  :func:`frontier_route_many` is the degenerate
    driver: admit everything once, step until the frontier drains.

    Slot state is exposed column-wise (``current``, ``hops``,
    ``success``, ``reason_codes``, ``tickets``, ...); a caller reads a
    retired cohort's outcomes by indexing them with the slots
    :meth:`step` returned, before :meth:`release`.  Path recording is
    supported only while no slot has been released (a reused slot would
    splice two walks' paths together), which the batch driver satisfies
    by construction.

    Rounds are linear or search rounds (see the module docstring); the
    frontier tracks :attr:`candidates_seen` / :attr:`padded_slots_seen`
    (the rows' candidates either way) so :attr:`fill_ratio` reports how
    much padding a dense ``(walks, max_degree)`` lane matrix would have
    paid.
    """

    def __init__(
        self,
        csr: CSRAdjacency,
        metric: RoutingMetric,
        alive: np.ndarray | None = None,
        max_hops: int | None = None,
        record_paths: bool = False,
        capacity: int = 1024,
    ):
        if max_hops is not None and max_hops < 0:
            raise ValueError(f"max_hops must be >= 0, got {max_hops}")
        self.csr = csr
        self.metric = metric
        self.alive = None if alive is None else np.asarray(alive, dtype=bool)
        self.max_hops = csr.n if max_hops is None else max_hops
        self.record_paths = record_paths
        self.rounds = 0
        self.active_count = 0
        #: Real (pre-liveness) candidates gathered across all rounds, and
        #: the dense ``frontier × max_degree`` slot count a lane-matrix
        #: layout would pay for the same rounds — the padding observables.
        self.candidates_seen = 0
        self.padded_slots_seen = 0
        #: What the most recent round did — ``"ragged"`` when it scored
        #: candidates, ``"stuck"`` when no walk had any, ``"none"`` when
        #: every walk ran out of hops or none was active — and how many
        #: real candidates / dense slots it gathered.  Read by the
        #: per-round telemetry trace and by perfbench's tracer.
        self.last_round_kernel = "none"
        self.last_round_candidates = 0
        self.last_round_padded_slots = 0
        # Reused per-round scratch: one growable arange buffer serves as
        # both the row ramp and the flat-position ramp (its contents are
        # never mutated, so multiple live views stay valid across growth).
        # Its int64 dtype is deliberate: numpy casts narrower fancy
        # indices to intp on every gather, which costs more than a
        # narrower copy saves.
        self._ramp_buf = np.empty(0, dtype=np.int64)
        self._retired_buf = np.empty(0, dtype=np.int64)
        cap = max(int(capacity), 1)
        self.current = np.zeros(cap, dtype=np.int64)
        self.owners = np.zeros(cap, dtype=np.int64)
        self.current_score = np.zeros(cap, dtype=float)
        self.hops = np.zeros(cap, dtype=np.int64)
        self.neighbor_hops = np.zeros(cap, dtype=np.int64)
        self.long_hops = np.zeros(cap, dtype=np.int64)
        self.reason_codes = np.full(cap, REASON_ARRIVED, dtype=np.int8)
        self.success = np.zeros(cap, dtype=bool)
        self.active = np.zeros(cap, dtype=bool)
        self.tickets = np.full(cap, -1, dtype=np.int64)
        self._targets: np.ndarray | None = None
        self._extra: np.ndarray | None = None
        self._state: PreparedTargets | None = None
        # Released slots wait on a LIFO stack, ``_free[:_n_free]``, and
        # ``_is_free`` flags them so a slot cannot be released twice.
        # Both are allocated on the first release, which the drain-once
        # frontiers of ``frontier_route_many`` never make.
        self._free: np.ndarray | None = None
        self._is_free: np.ndarray | None = None
        self._n_free = 0
        self._next_slot = 0
        self._step_walks: list[np.ndarray] = []
        self._step_nodes: list[np.ndarray] = []
        self._searchable: bool | None = None

    @property
    def capacity(self) -> int:
        """Current slot capacity of the resident arrays."""
        return len(self.current)

    @property
    def fill_ratio(self) -> float:
        """Real-candidate fraction of a dense lane matrix's slot budget.

        ``candidates_seen / padded_slots_seen`` over every round stepped
        so far; 1.0 means the frontier was degree-uniform (padding-free)
        — and 1.0 before any round has gathered candidates.
        """
        if self.padded_slots_seen == 0:
            return 1.0
        return self.candidates_seen / self.padded_slots_seen

    def _ramp(self, n: int) -> np.ndarray:
        """A ``[0, n)`` arange view from the reused scratch buffer."""
        if len(self._ramp_buf) < n:
            self._ramp_buf = np.arange(
                max(n, 2 * len(self._ramp_buf), 1024), dtype=np.int64
            )
        return self._ramp_buf[:n]

    # ------------------------------------------------------------------
    # slot management
    # ------------------------------------------------------------------
    def _grow(self, cap: int) -> None:
        old = self.capacity
        for name in (
            "current", "owners", "current_score", "hops", "neighbor_hops",
            "long_hops", "reason_codes", "success", "active", "tickets",
        ):
            arr = getattr(self, name)
            grown = np.zeros(cap, dtype=arr.dtype)
            grown[:old] = arr
            setattr(self, name, grown)
        self.reason_codes[old:] = REASON_ARRIVED
        self.tickets[old:] = -1
        if self._targets is not None:
            grown = np.zeros(
                (cap,) + self._targets.shape[1:], dtype=self._targets.dtype
            )
            grown[:old] = self._targets
            self._targets = grown
        if self._extra is not None:
            grown = np.zeros((cap,) + self._extra.shape[1:], dtype=self._extra.dtype)
            grown[:old] = self._extra
            self._extra = grown
        if self._free is not None:
            self._free = np.concatenate((self._free, np.empty(cap - old, dtype=np.int64)))
            self._is_free = np.concatenate((self._is_free, np.zeros(cap - old, dtype=bool)))
        self._state = None  # rebound lazily against the grown arrays

    def _alloc(self, m: int) -> np.ndarray:
        slots = np.empty(m, dtype=np.int64)
        reused = min(m, self._n_free)
        if reused:
            # Most recently released first, as a popped list would give.
            top = self._n_free - reused
            slots[:reused] = self._free[top : self._n_free][::-1]
            self._is_free[slots[:reused]] = False
            self._n_free = top
        fresh = m - reused
        if fresh:
            if self._next_slot + fresh > self.capacity:
                self._grow(max(self.capacity * 2, self._next_slot + fresh))
            slots[reused:] = np.arange(
                self._next_slot, self._next_slot + fresh, dtype=np.int64
            )
            self._next_slot += fresh
        return slots

    def release(self, slots: np.ndarray) -> None:
        """Return retired slots to the free pool for future admissions.

        Raises:
            ValueError: when path recording is on (a reused slot would
                splice two walks' paths), or a slot is still active,
                already free, repeated within ``slots`` or was never
                allocated.  Nothing changes then.
        """
        slots = np.asarray(slots, dtype=np.int64)
        if len(slots) == 0:
            return
        if self.record_paths:
            raise ValueError("cannot release slots while recording paths")
        ordered = np.sort(slots)
        if ordered[0] < 0 or ordered[-1] >= self._next_slot:
            bad = ordered[0] if ordered[0] < 0 else ordered[-1]
            raise ValueError(f"slot {bad} was never allocated")
        repeated = ordered[1:] == ordered[:-1]
        if repeated.any():
            raise ValueError(f"slot {ordered[1:][repeated][0]} is released twice")
        if self.active[slots].any():
            raise ValueError("cannot release slots that are still active")
        if self._free is None:
            self._free = np.empty(self.capacity, dtype=np.int64)
            self._is_free = np.zeros(self.capacity, dtype=bool)
        elif self._is_free[slots].any():
            raise ValueError(f"slot {slots[self._is_free[slots]][0]} is already free")
        self.tickets[slots] = -1
        self._is_free[slots] = True
        self._free[self._n_free : self._n_free + len(slots)] = slots
        self._n_free += len(slots)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _ensure_payload(self, targets: np.ndarray, extra) -> None:
        cap = self.capacity
        if self._targets is None:
            self._targets = np.zeros(
                (cap,) + targets.shape[1:], dtype=targets.dtype
            )
        if extra is not None and self._extra is None:
            extra = np.asarray(extra)
            self._extra = np.zeros((cap,) + extra.shape[1:], dtype=extra.dtype)

    def admit(
        self,
        sources: np.ndarray,
        prepared: PreparedTargets,
        tickets: np.ndarray | None = None,
    ) -> np.ndarray:
        """Admit one cohort of walks into the resident frontier.

        Walks whose source already owns their key complete on admission
        (``success`` with zero hops) and never enter the active set —
        exactly the batch kernel's pre-loop arrival check.  The caller
        reads completions off the returned slots wherever
        ``active[slots]`` is already ``False``.

        Args:
            sources: int array of originating peers (must all be live).
            prepared: this cohort's :class:`PreparedTargets`, aligned
                with ``sources``.
            tickets: optional caller-side int64 labels stored per slot
                (a serving loop's query sequence numbers).

        Returns:
            The slot index of each admitted walk, aligned with
            ``sources``.

        Raises:
            ValueError: on misaligned inputs or an out-of-range or dead
                source peer.
        """
        sources = np.asarray(sources, dtype=np.int64)
        m = len(sources)
        owners = np.asarray(prepared.owners, dtype=np.int64)
        if len(owners) != m:
            raise ValueError(
                f"prepared targets hold {len(owners)} owners for {m} walks"
            )
        _check_sources(sources, self.csr.n)
        if self.alive is not None and m and not self.alive[sources].all():
            bad = sources[~self.alive[sources]][0]
            raise ValueError(f"source peer {bad} is not alive")
        if self.record_paths and self._free is not None:
            raise ValueError("cannot admit into released slots while recording paths")
        slots = self._alloc(m)
        targets = np.asarray(prepared.targets)
        self._ensure_payload(targets, prepared.extra)
        self._targets[slots] = targets
        if prepared.extra is not None:
            self._extra[slots] = np.asarray(prepared.extra)
        self._state = None
        self.current[slots] = sources
        self.owners[slots] = owners
        self.current_score[slots] = np.asarray(
            self.metric.initial_scores(sources, prepared), dtype=float
        )
        self.hops[slots] = 0
        self.neighbor_hops[slots] = 0
        self.long_hops[slots] = 0
        self.reason_codes[slots] = REASON_ARRIVED
        if tickets is not None:
            self.tickets[slots] = np.asarray(tickets, dtype=np.int64)
        arrived = sources == owners
        self.success[slots] = arrived
        self.active[slots] = ~arrived
        self.active_count += int(m - arrived.sum())
        return slots

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self) -> np.ndarray:
        """Advance every active walk one hop; return the retired slots.

        One kernel round, in the batch loop's exact order: hop-budget
        check, candidate gather, metric scoring, argmin move with the
        metric's improve/terminal rules, arrival/stuck retirement.
        """
        self.last_round_kernel = "none"
        self.last_round_candidates = 0
        self.last_round_padded_slots = 0
        frontier = np.flatnonzero(self.active)
        if frontier.size == 0:
            return frontier
        self.rounds += 1
        entered = int(frontier.size)
        retired: list[np.ndarray] = []
        # Budget check first, as the per-lookup loops' heads do.
        exhausted = self.hops[frontier] >= self.max_hops
        if exhausted.any():
            spent = frontier[exhausted]
            self.reason_codes[spent] = REASON_MAX_HOPS
            self.active[spent] = False
            retired.append(spent)
            frontier = frontier[~exhausted]
        if frontier.size:
            retired.extend(self._advance(frontier))
        if telemetry.enabled():
            telemetry.trace(
                "routing.round",
                round=self.rounds,
                active=entered,
                kernel=self.last_round_kernel,
                candidates=self.last_round_candidates,
                padded_slots=self.last_round_padded_slots,
            )
        if len(retired) == 1:
            out = retired[0]
        elif retired:
            # Concatenate into the reused retirement buffer instead of a
            # fresh allocation every round; the returned view is valid
            # until the next step(), which every caller satisfies by
            # consuming retirements before stepping again.
            total = sum(r.size for r in retired)
            if len(self._retired_buf) < total:
                self._retired_buf = np.empty(
                    max(total, 2 * len(self._retired_buf)), dtype=np.int64
                )
            out = self._retired_buf[:total]
            pos = 0
            for cohort in retired:
                out[pos : pos + cohort.size] = cohort
                pos += cohort.size
        else:
            out = _EMPTY_SLOTS
        self.active_count -= out.size
        return out

    def _advance(self, frontier: np.ndarray) -> list[np.ndarray]:
        """Move one frontier cohort; return the cohorts retired by it.

        Either way each walk picks the *first* candidate attaining its
        minimum score.  A *search round* (:meth:`_search`) serves the
        round when :meth:`_search_exact` holds and the round is big
        enough to win.  Otherwise the linear round concatenates the
        frontier's adjacency rows into one flat candidate vector (cost
        proportional to the *total* degree, not ``frontier ×
        max_degree``), scores it through
        :meth:`RoutingMetric.candidate_scores`, and resolves each walk
        with segmented reductions: the segment minimum comes from
        ``np.minimum.reduceat`` and the choice is the first flat position
        attaining it (an exact-width 2-d argmin when the live frontier is
        degree-uniform, where reduceat loses to one reshape).
        """
        indptr, indices = self.csr.indptr, self.csr.indices
        if self._state is None:
            self._state = PreparedTargets(
                owners=self.owners, targets=self._targets, extra=self._extra
            )
        cur = self.current[frontier]
        starts = indptr[cur]
        degrees = indptr[cur + 1] - starts
        max_degree = int(degrees.max())
        total = int(degrees.sum())
        padded_slots = frontier.size * max_degree
        self.candidates_seen += total
        self.padded_slots_seen += padded_slots
        self.last_round_candidates = total
        self.last_round_padded_slots = padded_slots
        if telemetry.enabled():
            telemetry.count("routing.frontier.candidates", total)
            telemetry.count("routing.frontier.padded_slots", padded_slots)
        if max_degree == 0:
            self.last_round_kernel = "stuck"
            self.reason_codes[frontier] = REASON_STUCK
            self.active[frontier] = False
            return [frontier]
        self.last_round_kernel = "ragged"
        w = frontier.size
        # A linear round gathers every candidate; a search round gathers
        # about twice per binary-search step per walk, plus a fixed
        # overhead.  Measured per round (2-CPU x86 host), the two cross
        # at ~400 walks on degree-20 rows, ~230 walks on a bidirectional
        # graph's (mean degree 37) and ~2,000-4,000 walks on a hub-heavy
        # ring of mean degree 8.7, where they stay within 15% of each
        # other; this rule puts the switch at ~410, ~160 and ~1,500.
        steps = max(total // w - 3, 1).bit_length()
        if total >= 2 * steps * w + _SEARCH_MIN_CANDIDATES and self._search_exact():
            best, slot = self._search(frontier, starts, degrees, max_degree)
            improves = best < self.current_score[frontier]
            return self._commit(
                frontier, cur, improves, slot[improves], best[improves]
            )

        # Walks with no candidates at all never reach the metric: they
        # retire as stuck below, and excluding them keeps every reduceat
        # segment non-empty (reduceat misbehaves on empty segments).
        if int(degrees.min()) == 0:
            sub = np.flatnonzero(degrees)
            counts = degrees[sub]
            row_starts = starts[sub]
        else:
            sub = None
            counts = degrees
            row_starts = starts
        seg_starts = np.cumsum(counts) - counts
        flat_ramp = self._ramp(total)
        # Flat position j in segment i maps to CSR slot
        # row_starts[i] + (j - seg_starts[i]); one repeat + the ramp.
        slots = np.repeat(row_starts - seg_starts, counts) + flat_ramp
        candidates = indices[slots]

        if self.alive is not None:
            live = self.alive[candidates]
            if not live.all():
                # Compress dead candidates out and rebuild the segment
                # layout; walks left with zero live candidates join the
                # stuck cohort via the improves mask below.
                candidates = candidates[live]
                slots = slots[live]
                counts = np.add.reduceat(live.astype(np.int64), seg_starts)
                keep = counts > 0
                if not keep.all():
                    sub = np.flatnonzero(keep) if sub is None else sub[keep]
                    counts = counts[keep]
                total = int(counts.sum())
                if total == 0:
                    self.reason_codes[frontier] = REASON_STUCK
                    self.active[frontier] = False
                    return [frontier]
                seg_starts = np.cumsum(counts) - counts
                flat_ramp = self._ramp(total)

        if sub is None:
            walks_sub = frontier
            cur_sub = cur
        else:
            walks_sub = frontier[sub]
            cur_sub = cur[sub]

        segments = Segments(starts=seg_starts, counts=counts)
        scores = np.asarray(
            self.metric.candidate_scores(
                candidates, slots, segments, self._state, walks_sub, cur_sub
            ),
            dtype=float,
        )

        nseg = len(counts)
        width = int(counts[0])
        if int(counts.min()) == int(counts.max()):
            # Degree-uniform live frontier: exact-width batch, resolved
            # with a plain 2-d argmin (first minimum per row).
            block = scores.reshape(nseg, width)
            lane = np.argmin(block, axis=1)
            best = block[self._ramp(nseg), lane]
            choice = seg_starts + lane
        else:
            best = np.minimum.reduceat(scores, seg_starts)
            # Flat positions attaining their segment's minimum (bitwise
            # equality is exact because `best` is one of the segment's
            # elements).  Without ties that is one position per segment;
            # otherwise keep each segment's first.
            at_min = scores == np.repeat(best, counts)
            choice = np.flatnonzero(at_min)
            if len(choice) != nseg:
                choice = np.minimum.reduceat(
                    np.where(at_min, flat_ramp, total), seg_starts
                )
        improves_sub = best < self.current_score[walks_sub]

        if self.metric.terminal_owner_hop and not improves_sub.all():
            # Chord's final hop: a walk with no improving candidate steps
            # onto its first candidate that IS its key's owner, if any.
            # Only those walks' segments are scanned.
            lost = np.flatnonzero(~improves_sub)
            lost_counts = counts[lost]
            lost_starts = np.cumsum(lost_counts) - lost_counts
            lost_total = int(lost_counts.sum())
            lost_ramp = self._ramp(lost_total)
            flat = np.repeat(seg_starts[lost] - lost_starts, lost_counts) + lost_ramp
            owner_hit = candidates[flat] == np.repeat(
                self.owners[walks_sub[lost]], lost_counts
            )
            first = np.minimum.reduceat(
                np.where(owner_hit, lost_ramp, lost_total), lost_starts
            )
            has_owner = first < lost_total
            terminal = lost[has_owner]
            choice[terminal] = flat[first[has_owner]]
            improves_sub[terminal] = True

        if sub is None:
            improves = improves_sub
        else:
            improves = np.zeros(w, dtype=bool)
            improves[sub] = improves_sub
        picked = choice[improves_sub]
        return self._commit(frontier, cur, improves, slots[picked], scores[picked])

    def _search_exact(self) -> bool:
        """Whether search rounds pick exactly what linear rounds would.

        They need the plain greedy rule (:class:`GreedyValueMetric`,
        exact type: a subclass may score differently) with
        :attr:`~GreedyValueMetric.searchable` positions, no liveness
        mask, and a CSR whose rows are sorted past the neighbours
        (:attr:`CSRAdjacency.tails_sorted`).  Decided once per frontier,
        on its first round big enough to search.
        """
        if self._searchable is None:
            metric = self.metric
            self._searchable = (
                self.alive is None
                and type(metric) is GreedyValueMetric
                and metric.searchable
                and self.csr.tails_sorted
            )
        return self._searchable

    def _search(
        self,
        frontier: np.ndarray,
        starts: np.ndarray,
        degrees: np.ndarray,
        max_degree: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each walk's best candidate, by binary search of its sorted row.

        Returns ``(best, slot)`` per frontier walk: the smallest distance
        to the key in its row (``inf`` for an empty row) and the first
        CSR slot attaining it — what scoring the whole row and taking its
        first minimum would return, float ties included.

        A row's head (its first two slots) is scored as-is.  Its tail is
        sorted by position (:meth:`_search_exact`), so on each side of
        the key the distance falls toward the key on the interval, and
        rises then falls on the ring: the tail's minimum lies at the
        key's predecessor or successor, or on the ring at the tail's
        first or last slot.  Equal distances on one side are contiguous
        and end at that side's best slot, so a tie with the slot before
        it starts a second binary search for the first slot of the run.
        """
        positions, space = self.metric.positions, self.metric.space
        indices = self.csr.indices
        targets = self._targets[frontier]

        def dist(slot, keys):
            return space.pairwise_distances(positions[indices[slot]], keys)

        short = int(degrees.min()) < 3
        if short:
            # Gathers past a short row stay in bounds, then read as inf.
            last = len(indices) - 1
            slot = np.minimum(starts, last)
            second = np.minimum(starts + 1, last)
        else:
            slot = starts
            second = starts + 1
        best = dist(slot, targets)
        other = dist(second, targets)
        if short:
            best[degrees < 1] = np.inf
            other[degrees < 2] = np.inf
        take = other < best
        best = np.where(take, other, best)
        slot = np.where(take, second, slot)
        if max_degree < 3:
            return best, slot

        rows = np.flatnonzero(degrees > 2) if short else None
        if rows is not None:
            starts, degrees, keys = starts[rows], degrees[rows], targets[rows]
        else:
            keys = targets
        lo = starts + 2
        hi = starts + degrees
        # k: the first tail slot at or past the key.
        k = _lower_bound(
            lo, hi - lo, lambda probe, keys: positions[indices[probe]] < keys, keys
        )
        # Clamping a missing predecessor or successor onto the other one
        # repeats a candidate instead of inventing one.
        pred = np.maximum(k - 1, lo)
        succ = np.minimum(k, hi - 1)
        ends = (lo, pred, succ, hi - 1) if space.is_ring else (pred, succ)
        tail_slot = ends[0]
        tail_best = dist(tail_slot, keys)
        # Candidates in slot order and strict '<': ties keep the first.
        for cand in ends[1:]:
            score = dist(cand, keys)
            take = score < tail_best
            tail_best = np.where(take, score, tail_best)
            tail_slot = np.where(take, cand, tail_slot)
        side = np.where(tail_slot < k, lo, k)
        maybe = np.flatnonzero(tail_slot > side)
        if maybe.size:
            tied = dist(tail_slot[maybe] - 1, keys[maybe]) == tail_best[maybe]
            if tied.any():
                run = maybe[tied]
                run_side = side[run]
                tail_slot[run] = _lower_bound(
                    run_side,
                    tail_slot[run] - run_side + 1,
                    lambda probe, keys, m: dist(probe, keys) > m,
                    keys[run],
                    tail_best[run],
                )
        # The head comes first in CSR order, so it wins ties.
        if rows is None:
            take = tail_best < best
            return np.where(take, tail_best, best), np.where(take, tail_slot, slot)
        take = tail_best < best[rows]
        best[rows[take]] = tail_best[take]
        slot[rows[take]] = tail_slot[take]
        return best, slot

    def _commit(
        self,
        frontier: np.ndarray,
        cur: np.ndarray,
        improves: np.ndarray,
        slot: np.ndarray,
        score: np.ndarray,
    ) -> list[np.ndarray]:
        """Finish a round; return the cohorts it retired.

        ``frontier[improves]`` step from nodes ``cur[improves]`` over CSR
        edges ``slot``, whose targets' scores are ``score``; the rest of
        ``frontier`` is stuck.  A step is long when its slot lies at or
        past its row's ``long_start``.
        """
        retired: list[np.ndarray] = []
        stuck = frontier[~improves]
        if stuck.size:
            self.reason_codes[stuck] = REASON_STUCK
            self.active[stuck] = False
            retired.append(stuck)

        movers = frontier[improves]
        if movers.size:
            chosen = self.csr.indices[slot]
            chosen_long = slot >= self.csr.long_start[cur[improves]]
            self.current[movers] = chosen
            if self.metric.greedy:
                self.current_score[movers] = score
            self.hops[movers] += 1
            self.neighbor_hops[movers] += ~chosen_long
            self.long_hops[movers] += chosen_long
            if self.record_paths:
                self._step_walks.append(movers)
                self._step_nodes.append(chosen)
            arrived = chosen == self.owners[movers]
            if arrived.any():
                done = movers[arrived]
                self.success[done] = True
                self.active[done] = False
                retired.append(done)
        return retired


def frontier_route_many(
    csr: CSRAdjacency,
    metric: RoutingMetric,
    sources: np.ndarray,
    target_keys: np.ndarray,
    alive: np.ndarray | None = None,
    max_hops: int | None = None,
    record_paths: bool = False,
    prepared: PreparedTargets | None = None,
) -> BatchRouteResult:
    """Route every ``(source, target_key)`` pair over ``csr`` under ``metric``.

    The generalisation of :func:`repro.core.batch_routing.route_many`
    (which delegates here): all walks advance together one hop per numpy
    step, with the routing rule supplied declaratively (see module
    docstring).  Semantically equivalent to the corresponding per-lookup
    loop (``tests/route_oracle.py``) run once per pair.  The walk state
    lives in a :class:`StreamFrontier` admitted once and stepped dry — a
    continuous serving loop drives the same object with interleaved
    ``admit``/``step``/``release`` calls instead.

    Args:
        csr: the overlay's flattened edge set.
        metric: the overlay's routing rule.
        sources: int array of originating peers (must all be live).
        target_keys: float array of lookup keys, aligned with ``sources``.
        alive: optional boolean liveness mask; dead peers are invisible
            (only supported by metrics that resolve owners among live
            peers).
        max_hops: per-route hop budget; defaults to ``n``.
        record_paths: also record every walk's visited-node list (costs
            memory proportional to total hops; off by default).
        prepared: a :class:`PreparedTargets` for this exact batch, when
            :meth:`RoutingMetric.prepare` already ran elsewhere.  A
            sharded batch (:mod:`repro.parallel`) prepares the whole
            batch once on the calling thread and routes each shard with
            its slice.

    Raises:
        ValueError: on mismatched inputs, an out-of-range or dead source
            peer, a negative ``max_hops``, or metric-specific target
            validation failures.
    """
    n = csr.n
    sources = np.asarray(sources, dtype=np.int64)
    target_keys = np.asarray(target_keys, dtype=float)
    if sources.ndim != 1 or target_keys.ndim != 1:
        raise ValueError("sources and target_keys must be one-dimensional")
    if len(sources) != len(target_keys):
        raise ValueError(
            f"got {len(sources)} sources but {len(target_keys)} target keys"
        )
    _check_sources(sources, n)
    if alive is not None:
        alive = np.asarray(alive, dtype=bool)
        if not alive[sources].all():
            bad = sources[~alive[sources]][0]
            raise ValueError(f"source peer {bad} is not alive")
    if max_hops is None:
        max_hops = n

    n_routes = len(sources)
    state = metric.prepare(target_keys, alive) if prepared is None else prepared
    if len(np.asarray(state.owners)) != n_routes:
        raise ValueError(
            f"prepared targets hold {len(np.asarray(state.owners))} owners "
            f"for {n_routes} routes"
        )
    owners = np.asarray(state.owners, dtype=np.int64)

    tel_on = telemetry.enabled()
    started = time.perf_counter() if tel_on else 0.0

    frontier = StreamFrontier(
        csr, metric, alive=alive, max_hops=max_hops,
        record_paths=record_paths, capacity=n_routes,
    )
    # A fresh frontier allocates slots sequentially, so slot i IS route
    # i and the resident columns double as the result columns.
    frontier.admit(sources, state)
    while frontier.active_count:
        frontier.step()

    if tel_on:
        _record_batch_telemetry(
            metric, n_routes, frontier.rounds, frontier.reason_codes[:n_routes],
            frontier.hops[:n_routes], time.perf_counter() - started,
            frontier.candidates_seen, frontier.padded_slots_seen,
        )
    paths = (
        _assemble_paths(sources, frontier._step_walks, frontier._step_nodes)
        if record_paths
        else None
    )
    return BatchRouteResult(
        success=frontier.success[:n_routes],
        hops=frontier.hops[:n_routes],
        neighbor_hops=frontier.neighbor_hops[:n_routes],
        long_hops=frontier.long_hops[:n_routes],
        reason_codes=frontier.reason_codes[:n_routes],
        sources=sources,
        target_keys=target_keys,
        owners=owners,
        paths=paths,
        rounds=frontier.rounds,
        candidates_seen=frontier.candidates_seen,
        padded_slots_seen=frontier.padded_slots_seen,
    )


def _metric_family(metric: RoutingMetric) -> str:
    """Snake-case family label for a metric (``GreedyValueMetric`` →
    ``greedy_value``), used to key per-family batch timers."""
    name = type(metric).__name__
    if name.endswith("Metric"):
        name = name[: -len("Metric")]
    return "".join(
        ("_" + ch.lower()) if ch.isupper() and i else ch.lower()
        for i, ch in enumerate(name)
    )


def _record_batch_telemetry(
    metric: RoutingMetric,
    n_routes: int,
    rounds: int,
    reason_codes: np.ndarray,
    hops: np.ndarray,
    seconds: float,
    candidates: int = 0,
    padded_slots: int = 0,
) -> None:
    """Fold one routed batch into the active registry.

    Per batch: walk/round counters, the full REASON-code histogram
    (zeros included — the stable-schema contract downstream dashboards
    rely on), the exact hop-count histogram, a per-metric-family batch
    timer, the frontier fill-ratio gauge (real candidates over a dense
    lane matrix's slot budget), and one ``routing.batch`` trace event.
    """
    registry = telemetry.get_registry()
    family = _metric_family(metric)
    registry.timer(f"routing.batch.{family}").observe(seconds)
    registry.counter("routing.walks").inc(n_routes)
    registry.counter("routing.rounds").inc(rounds)
    tally = np.bincount(reason_codes, minlength=len(_REASON_LABELS))
    for code, label in enumerate(_REASON_LABELS):
        registry.counter(f"routing.reason.{label}").inc(int(tally[code]))
    registry.histogram("routing.hops").add(hops)
    fill_ratio = (candidates / padded_slots) if padded_slots else 1.0
    registry.gauge("routing.frontier.fill_ratio").set(fill_ratio)
    telemetry.trace(
        "routing.batch",
        family=family,
        walks=n_routes,
        rounds=rounds,
        arrived=int(tally[REASON_ARRIVED]),
        stuck=int(tally[REASON_STUCK]),
        max_hops=int(tally[REASON_MAX_HOPS]),
        fill_ratio=fill_ratio,
        seconds=seconds,
    )


def _assemble_paths(
    sources: np.ndarray,
    step_walks: list[np.ndarray],
    step_nodes: list[np.ndarray],
) -> list[list[int]]:
    """Rebuild per-walk paths from the per-step (walk, node) records.

    A stable sort by walk id preserves step order within each walk, so
    each path is its source followed by the nodes it stepped onto.
    """
    paths: list[list[int]] = [[int(s)] for s in sources]
    if not step_walks:
        return paths
    walks = np.concatenate(step_walks)
    nodes = np.concatenate(step_nodes)
    order = np.argsort(walks, kind="stable")
    walks = walks[order]
    nodes = nodes[order]
    counts = np.bincount(walks, minlength=len(sources))
    for walk_id, segment in enumerate(np.split(nodes, np.cumsum(counts)[:-1])):
        if len(segment):
            paths[walk_id].extend(int(x) for x in segment)
    return paths
