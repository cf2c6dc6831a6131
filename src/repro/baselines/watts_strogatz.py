"""Watts–Strogatz rewired ring lattices (paper Section 2 background).

The 1998 model that started the small-world literature: a ring lattice
where each node links to its ``k`` nearest neighbours, with every edge
rewired to a uniform random target with probability ``p``.  The graphs
have low diameter for ``p > 0`` — but, as Kleinberg proved and the paper
recounts, *greedy* routing on them is not efficient because the shortcuts
carry no distance information.  The reproduction includes the model to
measure exactly that contrast (uniform random shortcuts ≙ Kleinberg
exponent ``r = 0``).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineOverlay, assemble_rows
from repro.core.adjacency import CSRAdjacency
from repro.core.bulk_construction import split_rows
from repro.core.metric_routing import LatticeMetric

__all__ = ["WattsStrogatzOverlay"]

#: Retry budget for a rewired edge before it falls back to its lattice
#: target (the per-edge oracle loop's ``attempts < 16``).
_REWIRE_ATTEMPTS = 16


class WattsStrogatzOverlay(BaselineOverlay):
    """A rewired ring lattice with greedy index-distance routing.

    The whole population's rewiring is drawn in vectorized rounds (see
    :meth:`_build_adjacency`); the 1998 per-edge loop it is
    KS-equivalence-tested against (``tests/test_baselines_rings.py``)
    lives in ``tests/builder_oracle.py``.  At ``p == 0`` both produce
    the identical lattice.

    Args:
        n: number of nodes (>= 4).
        k: each node links to ``k`` nearest neighbours (even, >= 2).
        p: rewiring probability in ``[0, 1]``.
        rng: random source.

    Raises:
        ValueError: for invalid ``n``, odd/negative ``k`` or ``p``
            outside ``[0, 1]``.
    """

    name = "watts-strogatz"

    def __init__(
        self,
        n: int,
        k: int,
        p: float,
        rng: np.random.Generator,
    ):
        if n < 4:
            raise ValueError(f"need n >= 4, got {n}")
        if k < 2 or k % 2 != 0 or k >= n:
            raise ValueError(f"k must be even, >= 2 and < n, got {k}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        self._n = n
        self.k = k
        self.p = p
        self.adjacency = self._build_adjacency(n, k, p, rng)

    @staticmethod
    def _build_adjacency(
        n: int, k: int, p: float, rng: np.random.Generator
    ) -> list[np.ndarray]:
        """Whole-population rewiring: one mask draw, vectorized retry rounds.

        Statistically equivalent to the 1998 per-edge loop (KS-tested on
        degree and shortcut-length distributions): every lattice edge
        ``(u, u+off)`` rewires with probability ``p`` to a uniform target, retrying
        self-loops and duplicate undirected pairs up to
        :data:`_REWIRE_ATTEMPTS` rounds before giving the edge back to
        its lattice target.  Within a round the first draw of a
        contested pair wins and the rest redraw — the vectorized
        counterpart of the per-edge loop's sequential duplicate check.
        Undirected edges are tracked as sorted ``min·n + max`` keys, so
        deduplication and the final per-node expansion are sort/searchsorted
        passes rather than Python ``set`` juggling.
        """
        half = k // 2
        u = np.repeat(np.arange(n, dtype=np.int64), half)
        lattice = (u + np.tile(np.arange(1, half + 1, dtype=np.int64), n)) % n

        def pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            lo = np.minimum(a, b)
            return lo * n + np.maximum(a, b)

        rewire = rng.random(len(u)) < p
        accepted = np.unique(pair_keys(u[~rewire], lattice[~rewire]))
        pending = np.flatnonzero(rewire)
        for _ in range(_REWIRE_ATTEMPTS):
            if len(pending) == 0:
                break
            cand = rng.integers(n, size=len(pending))
            keys = pair_keys(u[pending], cand)
            ok = cand != u[pending]
            pos = np.searchsorted(accepted, keys)
            pos = np.minimum(pos, max(len(accepted) - 1, 0))
            if len(accepted):
                ok &= accepted[pos] != keys
            ok_idx = np.flatnonzero(ok)
            # First occurrence of each new pair wins; clashes redraw.
            new_keys, first = np.unique(keys[ok_idx], return_index=True)
            accepted = np.union1d(accepted, new_keys)
            taken = np.zeros(len(pending), dtype=bool)
            taken[ok_idx[first]] = True
            pending = pending[~taken]
        if len(pending):
            # Give up rewiring these edges, exactly like the per-edge loop.
            accepted = np.union1d(accepted, pair_keys(u[pending], lattice[pending]))

        lo, hi = accepted // n, accepted % n
        directed = np.sort(
            np.concatenate([lo * n + hi, hi * n + lo])
        )  # both directions; pairs are distinct so no dedupe needed
        indptr, cols = split_rows(directed, n)
        return np.split(cols, indptr[1:-1])

    def _build_frontier(self):
        """CSR of the (sorted) adjacency lists + the ring-index metric.

        All hops count as neighbour hops (the rewired shortcuts carry
        no distance semantics).
        """
        n = self._n
        counts = np.fromiter(
            (len(neigh) for neigh in self.adjacency), dtype=np.int64, count=n
        )
        flat = (
            np.concatenate(self.adjacency) if counts.sum()
            else np.empty(0, dtype=np.int64)
        )
        indptr, indices, _ = assemble_rows(n, [(counts, flat)])
        csr = CSRAdjacency(
            indptr=indptr,
            indices=indices,
            is_long=np.zeros(len(indices), dtype=bool),
        )
        return csr, LatticeMetric(n)

    @property
    def n(self) -> int:
        return self._n

    def table_sizes(self) -> np.ndarray:
        """Per-node degree."""
        return np.asarray([len(a) for a in self.adjacency], dtype=np.int64)

    def clustering_coefficient(self) -> float:
        """Mean local clustering coefficient (the Watts–Strogatz signature)."""
        total = 0.0
        counted = 0
        for u in range(self._n):
            neigh = self.adjacency[u]
            d = len(neigh)
            if d < 2:
                continue
            neigh_set = set(int(x) for x in neigh)
            closed = sum(
                1
                for i, a in enumerate(neigh)
                for b in neigh[i + 1 :]
                if int(b) in set(int(x) for x in self.adjacency[int(a)])
            )
            total += 2.0 * closed / (d * (d - 1))
            counted += 1
        return total / counted if counted else 0.0
