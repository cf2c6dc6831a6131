"""P-Grid (Aberer, CoopIS 2001): a randomised binary trie overlay.

P-Grid partitions the key space by recursive halving until every leaf
cell holds one peer; a peer's *path* is its leaf's bit string.  For each
level ``l`` of its path the peer keeps references to random peers in the
*complementary* subtree (prefix ``path[:l] + ~path[l]``).  Routing
resolves one differing bit per hop.

The construction adapts to arbitrary key skew — the partition simply
goes deeper where peers are dense.  The paper's Section 1 observation is
that this preserves *routing efficiency* (expected hops stay ``O(log N)``
thanks to the randomised references [2]) but costs *more than
logarithmic routing state* (path lengths grow beyond ``log2 N`` under
skew).  Experiment E6 measures both effects.

References are drawn in one vectorized pass per trie level: members of
a complementary subtree occupy a contiguous range of the sorted-id order
(the subtree *is* a dyadic cell of the key space, and trie paths are
prefix-free), so every reference is a ``searchsorted`` range plus
broadcast ``rng.integers`` draws — distribution-identical to the
per-peer ``rng.choice`` loop that ``tests/builder_oracle.py`` keeps as
its test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineOverlay, assemble_rows
from repro.core.adjacency import CSRAdjacency
from repro.core.metric_routing import TrieMetric

__all__ = ["PGridOverlay"]

_MAX_DEPTH = 50


class PGridOverlay(BaselineOverlay):
    """A built P-Grid trie overlay.

    Args:
        ids: distinct peer identifiers.
        rng: random source for reference selection.
        refs_per_level: references kept per trie level (default 1; more
            buys robustness at linear state cost).

    Raises:
        ValueError: for fewer than 2 peers, duplicate identifiers, or a
            population needing a trie deeper than float precision
            allows.
    """

    name = "pgrid"

    def __init__(
        self,
        ids,
        rng: np.random.Generator,
        refs_per_level: int = 1,
    ):
        ids = np.sort(np.asarray(ids, dtype=float))
        if len(ids) < 2:
            raise ValueError("P-Grid needs at least 2 peers")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("P-Grid requires distinct identifiers")
        if refs_per_level < 1:
            raise ValueError(f"refs_per_level must be >= 1, got {refs_per_level}")
        self.ids = ids
        self.refs_per_level = refs_per_level
        self.paths: list[tuple[int, ...]] = [()] * len(ids)
        self.cells: list[tuple[float, float]] = [(0.0, 1.0)] * len(ids)
        self._split(np.arange(len(ids)), (), 0.0, 1.0, 0.0, 1.0)
        self._path_lengths = np.asarray([len(p) for p in self.paths], dtype=np.int64)
        self._bit_matrix = np.full(
            (len(ids), int(self._path_lengths.max())), -1, dtype=np.int8
        )
        for i, path in enumerate(self.paths):
            self._bit_matrix[i, : len(path)] = path
        self.refs = self._build_refs(rng)
        # Leaf cells partition [0, 1); sorted left edges locate owners fast.
        order = np.argsort([c[0] for c in self.cells])
        self._cell_order = order
        self._cell_lefts = np.asarray([self.cells[i][0] for i in order])

    # ------------------------------------------------------------------
    # trie construction
    # ------------------------------------------------------------------
    def _split(
        self,
        members: np.ndarray,
        prefix: tuple[int, ...],
        cover_lo: float,
        cover_hi: float,
        cell_lo: float,
        cell_hi: float,
    ) -> None:
        """Recursively halve the *prefix cell* until one peer remains.

        Two intervals are tracked: the dyadic *prefix cell*
        ``[cell_lo, cell_hi)`` addressed by the bit string (always split
        at its midpoint, so bits keep their positional meaning), and the
        *coverage* interval ``[cover_lo, cover_hi)`` of keys owned by
        this subtree.  When one half of a split holds no peers, the other
        half absorbs its coverage — empty key regions are owned by the
        nearest populated subtree, so the leaf cells partition ``[0, 1)``.
        """
        if len(members) == 1:
            idx = int(members[0])
            self.paths[idx] = prefix
            self.cells[idx] = (cover_lo, cover_hi)
            return
        if len(prefix) >= _MAX_DEPTH:
            raise ValueError(
                f"identifiers too dense: trie depth would exceed {_MAX_DEPTH}"
            )
        mid = 0.5 * (cell_lo + cell_hi)
        left = members[self.ids[members] < mid]
        right = members[self.ids[members] >= mid]
        if len(left) == 0:
            # The empty half still consumes a path bit (its complement
            # level carries no references) and its coverage is absorbed.
            self._split(right, prefix + (1,), cover_lo, cover_hi, mid, cell_hi)
        elif len(right) == 0:
            self._split(left, prefix + (0,), cover_lo, cover_hi, cell_lo, mid)
        else:
            self._split(left, prefix + (0,), cover_lo, mid, cell_lo, mid)
            self._split(right, prefix + (1,), mid, cover_hi, mid, cell_hi)

    def _build_refs(self, rng: np.random.Generator) -> np.ndarray:
        """Draw every peer's references in vectorized level passes.

        Returns the ``(n, depth, refs_per_level)`` reference array: peer
        ``i``'s level-``l`` references ascending in ``refs[i, l]``,
        padded with ``-1`` (a level with an empty complement, or beyond
        the peer's path, holds none).

        A level-``l + 1`` complementary subtree is the dyadic key-space
        cell of the complement prefix, and — trie paths being prefix-free
        — its members are exactly the peers whose identifiers fall in
        that cell: a contiguous ``searchsorted`` range of the sorted ids.
        Each range yields ``take = min(refs_per_level, size)`` distinct members
        by Floyd's algorithm, one broadcast ``rng.integers`` draw per
        round: round ``t`` draws an offset uniform on
        ``[0, size - take + t]`` and, when an earlier round already took
        it, takes ``size - take + t`` instead.  That is a uniform draw
        without replacement, matching a per-peer
        ``rng.choice(size, take, replace=False)``; at one reference per
        level it is a single uniform pick per range.
        """
        n, r = self.n, self.refs_per_level
        max_depth = self._bit_matrix.shape[1]
        refs = np.full((n, max_depth, r), -1, dtype=np.int64)
        codes = np.zeros(n, dtype=np.int64)
        rank = np.arange(r)
        for level in range(max_depth):
            active = self._path_lengths > level
            if not active.any():
                break
            bits = self._bit_matrix[:, level].astype(np.int64)
            complement = codes * 2 + np.where(bits == 0, 1, 0)
            scale = 2.0 ** (level + 1)
            cell_lo = complement[active] / scale
            cell_hi = (complement[active] + 1) / scale
            lo = np.searchsorted(self.ids, cell_lo, side="left")
            hi = np.searchsorted(self.ids, cell_hi, side="left")
            sizes = hi - lo
            take = np.minimum(sizes, r)
            picks = np.empty((len(sizes), r), dtype=np.int64)
            for t in range(r):
                top = sizes - take + t
                pick = rng.integers(0, np.maximum(top + 1, 1))
                taken = (picks[:, :t] == pick[:, None]).any(axis=1)
                picks[:, t] = np.where(taken, top, pick)
            kept = rank < take[:, None]
            picks = np.sort(np.where(kept, picks, sizes[:, None]), axis=1)
            refs[active, level] = np.where(kept, lo[:, None] + picks, -1)
            codes = codes * 2 + np.where(active, bits, 0)
        return refs

    def _build_frontier(self):
        """CSR (references first, then index neighbours) + trie metric.

        Reference edges carry their ``(level, rank)`` tag; the two
        value-order neighbour edges (``i - 1``, ``i + 1``; absent at the
        interval ends) are tagged level ``-1`` for the metric's fallback
        rule.  All hops count as long, as P-Grid counts them.
        """
        n, r = self.n, self.refs_per_level
        refs = self.refs.reshape(n, -1)
        mask = refs >= 0
        ref_counts = mask.sum(axis=1).astype(np.int64)
        _, slot_idx = np.nonzero(mask)  # row-major: (level, rank) order
        ref_flat = refs[mask]
        ref_levels = (slot_idx // r).astype(np.int32)
        ref_ranks = (slot_idx % r).astype(np.int32)
        nbr_pairs = np.stack(
            [np.arange(n, dtype=np.int64) - 1, np.arange(n, dtype=np.int64) + 1],
            axis=1,
        )
        nbr_valid = (nbr_pairs >= 0) & (nbr_pairs < n)
        nbr_counts = nbr_valid.sum(axis=1).astype(np.int64)
        nbr_flat = nbr_pairs[nbr_valid]
        indptr, indices, (ref_slots, _) = assemble_rows(
            n, [(ref_counts, ref_flat), (nbr_counts, nbr_flat)]
        )
        tag_level = np.full(len(indices), -1, dtype=np.int32)
        tag_rank = np.full(len(indices), -1, dtype=np.int32)
        tag_level[ref_slots] = ref_levels
        tag_rank[ref_slots] = ref_ranks
        csr = CSRAdjacency(
            indptr=indptr, indices=indices, is_long=np.ones(len(indices), dtype=bool)
        )
        metric = TrieMetric(
            self.ids,
            self._bit_matrix,
            tag_level,
            tag_rank,
            self._cell_lefts,
            self._cell_order,
        )
        return csr, metric

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.ids)

    def path_lengths(self) -> np.ndarray:
        """Return per-peer trie path lengths (the routing-state driver)."""
        return self._path_lengths.copy()

    def table_sizes(self) -> np.ndarray:
        """Total references per peer (plus the two value-order neighbours)."""
        return (self.refs >= 0).sum(axis=(1, 2)).astype(np.int64) + 2
