"""Symphony (Manku, Bawa & Raghavan, USITS 2003): constant-degree harmonic ring.

Each peer keeps its ring neighbours plus a *constant* number ``k`` of
long links whose clockwise spans are drawn from the harmonic density
``p(x) = 1/(x ln N)`` on ``[1/N, 1]``.  Greedy routing then takes
``O(log2^2(N) / k)`` hops — the explicit search-cost/state trade-off the
paper's Section 3.1 points to ("an observation that was also made in
Symphony").

Symphony assumes (hashes to) uniform identifiers.  Run on raw skewed
identifiers it inherits the naive model's degradation; the
:class:`~repro.baselines.mercury.MercuryOverlay` sibling adds the
sampling machinery that fixes this.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import BaselineOverlay
from repro.core.adjacency import csr_from_flat_links
from repro.core.bulk_construction import merge_row_pairs, row_counts, split_rows
from repro.core.graph import LongLinkRows
from repro.core.metric_routing import ClockwiseMetric, GreedyValueMetric
from repro.keyspace import RingSpace, successor_indices

__all__ = ["SymphonyOverlay"]


class SymphonyOverlay(BaselineOverlay):
    """A built Symphony ring.

    Args:
        ids: peer identifiers (Symphony's own assumption is that these
            are uniform; pass skewed ids to reproduce the failure mode).
        rng: random source for link sampling.
        k: constant number of long links per peer (Symphony's default 4).
        bidirectional: route greedily in both directions (Symphony's
            optimisation) instead of clockwise-only.

    Raises:
        ValueError: for fewer than 3 peers or non-positive ``k``.
    """

    name = "symphony"

    def __init__(
        self,
        ids,
        rng: np.random.Generator,
        k: int = 4,
        bidirectional: bool = True,
    ):
        ids = np.sort(np.asarray(ids, dtype=float))
        if len(ids) < 3:
            raise ValueError("Symphony needs at least 3 peers")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.ids = ids
        self.k = k
        self.bidirectional = bidirectional
        self.space = RingSpace()
        self._build_links(rng)

    def _build_links(self, rng: np.random.Generator) -> None:
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
        indptr, self._long_flat = split_rows(accepted, n)
        self.long_links = LongLinkRows.from_indptr(indptr, self._long_flat)

    def _build_frontier(self):
        """CSR (ring neighbours first, then links) + value-space metric.

        Ring neighbours are scanned before long links, and the metric is
        the circular distance (bidirectional) or the clockwise-only
        remaining distance — both with Symphony's nearest-peer ownership
        rule.
        """
        csr = csr_from_flat_links(
            self.n, True, self.long_links.lengths(), self._long_flat
        )
        if self.bidirectional:
            metric = GreedyValueMetric(self.ids, self.space)
        else:
            metric = ClockwiseMetric(self.ids, owner_rule="nearest")
        return csr, metric

    @property
    def n(self) -> int:
        return len(self.ids)

    def table_sizes(self) -> np.ndarray:
        """Long links plus the two ring neighbours."""
        return self.long_links.lengths() + 2

    @staticmethod
    def expected_hops(n: int, k: int) -> float:
        """Symphony's published expectation ``O(log2^2(N)/k)`` (unit constant)."""
        if n < 2 or k < 1:
            raise ValueError("need n >= 2 and k >= 1")
        return math.log2(n) ** 2 / k
