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
from repro.core.bulk_construction import PairAccumulator
from repro.core.metric_routing import GreedyValueMetric
from repro.keyspace import RingSpace, bucket_index, successor_indices

__all__ = ["SymphonyOverlay"]


class SymphonyOverlay(BaselineOverlay):
    """A built Symphony ring, routed greedily in both directions.

    Args:
        ids: peer identifiers (Symphony's own assumption is that these
            are uniform; pass skewed ids to reproduce the failure mode).
        rng: random source for link sampling.
        k: constant number of long links per peer (Symphony's default 4).

    Raises:
        ValueError: for fewer than 3 peers or negative ``k``.
    """

    name = "symphony"

    def __init__(self, ids, rng: np.random.Generator, k: int = 4):
        ids = np.sort(np.asarray(ids, dtype=float))
        if len(ids) < 3:
            raise ValueError("Symphony needs at least 3 peers")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        self.ids = ids
        self.k = k
        self.space = RingSpace()
        # Ring neighbours first, then the long links, scored by circular
        # distance with the nearest-peer ownership rule.
        indptr, flat = self._build_links(rng)
        self.csr = csr_from_flat_links(self.n, True, np.diff(indptr), flat)
        self.metric = GreedyValueMetric(self.ids, self.space)

    def _build_links(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw every peer's harmonic links; return the rows ``(indptr, flat)``.

        Same primitives as :func:`repro.core.bulk_construction.bulk_links`:
        draw all outstanding spans at once (``x = N^(q-1)`` lands in
        ``[1/N, 1]``), resolve successors in one search (through a
        bucket index where the ids are even enough), keep rows distinct
        in a :class:`~repro.core.bulk_construction.PairAccumulator`, and
        redraw only the deficit — within the scalar builder's
        8-attempts-per-link budget.
        """
        n = self.n
        budget = 8 * max(self.k, 1)  # the scalar builder's attempts cap
        all_rows = np.arange(n, dtype=np.int64)
        need = np.full(n, self.k, dtype=np.int64)
        attempts = np.zeros(n, dtype=np.int64)
        index = bucket_index(self.ids)
        links = PairAccumulator(n, n)
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
            targets = successor_indices(self.ids, points, index=index)
            ok = targets != rows
            links.add(rows[ok], targets[ok])
            need = self.k - links.counts
        return links.split()

    @property
    def n(self) -> int:
        return len(self.ids)

    @staticmethod
    def expected_hops(n: int, k: int) -> float:
        """Symphony's published expectation ``O(log2^2(N)/k)`` (unit constant)."""
        if n < 2 or k < 1:
            raise ValueError("need n >= 2 and k >= 1")
        return math.log2(n) ** 2 / k
