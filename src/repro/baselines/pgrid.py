"""P-Grid (Aberer, CoopIS 2001): a randomised binary trie overlay.

P-Grid partitions the key space by recursive halving until every leaf
cell holds one peer; a peer's *path* is its leaf's bit string.  For each
level ``l`` of its path the peer keeps a reference to a random peer in
the *complementary* subtree (prefix ``path[:l] + ~path[l]``).  Routing
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
prefix-free), so every reference is a ``searchsorted`` range plus one
broadcast ``rng.integers`` draw — distribution-identical to the
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
    """A built P-Grid trie overlay: one reference per trie level.

    Args:
        ids: distinct peer identifiers.
        rng: random source for reference selection.

    Raises:
        ValueError: for fewer than 2 peers, duplicate identifiers, or a
            population needing a trie deeper than float precision
            allows.
    """

    name = "pgrid"

    def __init__(self, ids, rng: np.random.Generator):
        ids = np.sort(np.asarray(ids, dtype=float))
        if len(ids) < 2:
            raise ValueError("P-Grid needs at least 2 peers")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("P-Grid requires distinct identifiers")
        self.ids = ids
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
        # CSR (references first, then index neighbours) + trie metric.
        # Reference edges carry their level; the two value-order
        # neighbour edges (``i - 1``, ``i + 1``; absent at the interval
        # ends) are tagged level ``-1`` for the metric's fallback rule.
        # All hops count as long, as P-Grid counts them.
        n = self.n
        mask = self.refs >= 0
        _, ref_levels = np.nonzero(mask)  # row-major: level order
        nbr_pairs = np.stack(
            [np.arange(n, dtype=np.int64) - 1, np.arange(n, dtype=np.int64) + 1],
            axis=1,
        )
        nbr_valid = (nbr_pairs >= 0) & (nbr_pairs < n)
        indptr, indices, (ref_slots, _) = assemble_rows(
            n,
            [
                (mask.sum(axis=1), self.refs[mask]),
                (nbr_valid.sum(axis=1), nbr_pairs[nbr_valid]),
            ],
        )
        tag_level = np.full(len(indices), -1, dtype=np.int32)
        tag_level[ref_slots] = ref_levels
        self.csr = CSRAdjacency(indptr=indptr, indices=indices, long_start=indptr[:-1])
        self.metric = TrieMetric(
            self.ids, self._bit_matrix, tag_level, self._cell_lefts, self._cell_order
        )

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

        Returns the ``(n, depth)`` reference array: peer ``i``'s
        level-``l`` reference is ``refs[i, l]``, ``-1`` where the level
        has an empty complement or lies beyond the peer's path.

        A level-``l + 1`` complementary subtree is the dyadic key-space
        cell of the complement prefix, and — trie paths being prefix-free
        — its members are exactly the peers whose identifiers fall in
        that cell: a contiguous ``searchsorted`` range of the sorted ids.
        One broadcast ``rng.integers`` draw per level picks a uniform
        member of every active peer's range (an empty range still draws,
        over one value, and keeps no reference).
        """
        n = self.n
        max_depth = self._bit_matrix.shape[1]
        refs = np.full((n, max_depth), -1, dtype=np.int64)
        codes = np.zeros(n, dtype=np.int64)
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
            pick = rng.integers(0, np.maximum(sizes, 1))
            refs[active, level] = np.where(sizes > 0, lo + pick, -1)
            codes = codes * 2 + np.where(active, bits, 0)
        return refs

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
        return (self.refs >= 0).sum(axis=1).astype(np.int64) + 2
