"""Pastry (Rowstron & Druschel, Middleware 2001): prefix-digit routing.

Identifiers are interpreted as base-``2^b`` digit strings.  Each peer
keeps a *routing table* with one row per prefix length — row ``l``
holding, for every digit ``d`` other than its own ``l``-th digit, some
peer that shares its first ``l`` digits and continues with ``d`` — plus
a *leaf set* of the numerically closest peers.  Lookup extends the
shared prefix by at least one digit per hop (or falls back to a
numerically closer leaf), giving ``O(log_{2^b} N)`` hops on uniform
identifiers.

On *skewed* raw identifiers the digit trie becomes deep and lopsided:
tables grow rows and hop counts stretch — the degradation experiment E6
measures against the paper's skew-adapted model.

The routing table is filled in ``depth`` vectorized passes: peers
sharing a digit prefix are contiguous in sorted-id order, so every
``(peer, row, digit)`` slot's candidate set is a ``searchsorted`` range
over integer prefix codes and one ``rng.integers`` draw fills all
``n·2^b`` slots of a row at once — the same whole-population
construction style as :mod:`repro.core.bulk_construction`, and
distribution-identical to the per-slot loop that ``tests/builder_oracle.py``
keeps as its test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import BaselineOverlay, assemble_rows, hash_keys
from repro.core.adjacency import CSRAdjacency
from repro.core.metric_routing import PrefixDigitMetric
from repro.keyspace import digit_rows, mix_hash

__all__ = ["PastryOverlay"]

_MAX_TOTAL_BITS = 48


class PastryOverlay(BaselineOverlay):
    """A built Pastry overlay.

    Args:
        ids: peer identifiers (raw; hashed internally when requested).
        rng: random source for routing-table entry selection (Pastry
            fills each slot with an arbitrary qualifying peer).
        bits_per_digit: ``b``; digits are base ``2^b`` (default 4 → 16).
        leaf_size: total leaf-set size (half on each side).
        hashed: operate in hashed id space (classic deployment).

    Raises:
        ValueError: for fewer than 2 peers, or identifiers too densely
            packed to distinguish within float precision.
    """

    name = "pastry"

    def __init__(
        self,
        ids,
        rng: np.random.Generator,
        bits_per_digit: int = 4,
        leaf_size: int = 8,
        hashed: bool = False,
    ):
        ids = np.asarray(ids, dtype=float)
        if len(ids) < 2:
            raise ValueError("Pastry needs at least 2 peers")
        if bits_per_digit < 1:
            raise ValueError(f"bits_per_digit must be >= 1, got {bits_per_digit}")
        if leaf_size < 2:
            raise ValueError(f"leaf_size must be >= 2, got {leaf_size}")
        self.hashed = hashed
        if hashed:
            ids = np.asarray([mix_hash(x) for x in ids])
        self.ids = np.sort(ids)
        self.base = 2**bits_per_digit
        self.bits_per_digit = bits_per_digit
        self.leaf_size = leaf_size
        self.depth = self._required_depth()
        # Whole-population digit expansion (bit-identical to the scalar
        # repro.keyspace.digits recurrence).
        self._digit_matrix = digit_rows(self.ids, self.base, self.depth)
        self._build_leaf_sets()
        self._build_tables(rng)

    def _required_depth(self) -> int:
        """Digits needed so all peers have distinct digit strings."""
        gaps = np.diff(self.ids)
        gaps = gaps[gaps > 0]
        if len(gaps) == 0:
            raise ValueError("all identifiers identical; cannot build digit strings")
        min_gap = float(gaps.min())
        depth = math.ceil(math.log(1.0 / min_gap, self.base)) + 1
        max_depth = _MAX_TOTAL_BITS // self.bits_per_digit
        if depth > max_depth:
            raise ValueError(
                f"identifiers too dense: need depth {depth} > {max_depth} digits"
            )
        return max(depth, 1)

    def _build_leaf_sets(self) -> None:
        """Leaf sets: numerically closest peers on each side (ring order)."""
        n = self.n
        half = self.leaf_size // 2
        offs = np.asarray(
            [off for off in range(-half, half + 1) if off != 0], dtype=np.int64
        )
        around = np.sort((np.arange(n, dtype=np.int64)[:, None] + offs[None, :]) % n, axis=1)
        keep = np.ones(around.shape, dtype=bool)
        keep[:, 1:] = around[:, 1:] != around[:, :-1]
        counts = keep.sum(axis=1)
        self.leaf_sets = np.split(around[keep], np.cumsum(counts)[:-1])

    def _build_tables(self, rng: np.random.Generator) -> None:
        """Fill every routing-table row in one vectorized pass per level.

        Peers sharing the prefix ``own[:l] + (d,)`` occupy a contiguous
        range of the sorted-id order, located by ``searchsorted`` over
        the integer codes of the first ``l + 1`` digits; one broadcast
        ``rng.integers`` draw then picks a uniform candidate for all
        ``n · base`` slots of the row (a per-slot
        ``rng.integers(len(candidates))``, whole-population at once).
        """
        n, depth, base = self.n, self.depth, self.base
        digit_mat = self._digit_matrix
        self.table = np.full((n, depth, base), -1, dtype=np.int32)
        self._row_filled = np.zeros(n, dtype=np.int64)
        codes = np.zeros(n, dtype=np.int64)
        all_digits = np.arange(base, dtype=np.int64)
        rows = np.arange(n, dtype=np.int64)
        for level in range(depth):
            child = codes * base + digit_mat[:, level]  # sorted: id order is code order
            wanted = codes[:, None] * base + all_digits[None, :]
            lo = np.searchsorted(child, wanted.ravel(), side="left").reshape(n, base)
            hi = np.searchsorted(child, wanted.ravel(), side="right").reshape(n, base)
            sizes = hi - lo
            picks = lo + rng.integers(0, np.maximum(sizes, 1))
            entries = np.where(sizes > 0, picks, -1)
            entries[rows, digit_mat[:, level]] = -1  # own digit: no slot
            self.table[:, level, :] = entries
            self._row_filled += (entries >= 0).any(axis=1)
            codes = child

    def _build_frontier(self):
        """CSR (leaf set first, then table entries) + prefix-digit metric.

        The row order is Pastry's known-peer fallback scan (leafs, then
        the table in ravel order); each table edge carries its
        ``(row, digit)`` tag so the metric can recognise the primary
        prefix-extension edge per lookup.  All hops count as long, as
        Pastry counts them.
        """
        n = self.n
        leaf_counts = np.fromiter(
            (len(ls) for ls in self.leaf_sets), dtype=np.int64, count=n
        )
        leaf_flat = np.concatenate(self.leaf_sets)
        flat_table = self.table.reshape(n, -1)
        mask = flat_table >= 0
        table_counts = mask.sum(axis=1)
        _, slot_idx = np.nonzero(mask)  # row-major: ravel (level, digit) order
        table_flat = flat_table[mask].astype(np.int64)
        indptr, indices, (_, table_slots) = assemble_rows(
            n, [(leaf_counts, leaf_flat), (table_counts, table_flat)]
        )
        tag_level = np.full(len(indices), -1, dtype=np.int32)
        tag_digit = np.full(len(indices), -1, dtype=np.int32)
        tag_level[table_slots] = slot_idx // self.base
        tag_digit[table_slots] = slot_idx % self.base
        csr = CSRAdjacency(
            indptr=indptr, indices=indices, is_long=np.ones(len(indices), dtype=bool)
        )
        metric = PrefixDigitMetric(
            self.ids,
            self._digit_matrix,
            tag_level,
            tag_digit,
            self.base,
            transform=hash_keys if self.hashed else None,
        )
        return csr, metric

    @property
    def n(self) -> int:
        return len(self.ids)

    def table_sizes(self) -> np.ndarray:
        """Filled routing-table slots plus the leaf set."""
        filled = (self.table >= 0).sum(axis=(1, 2))
        leaf = np.asarray([len(ls) for ls in self.leaf_sets])
        return (filled + leaf).astype(np.int64)

    def mean_rows(self) -> float:
        """Mean number of non-empty routing-table rows per peer.

        This is the "more than logarithmic routing state" signal for
        skewed identifier populations.
        """
        return float(np.mean(self._row_filled))
