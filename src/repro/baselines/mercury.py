"""Mercury (Bharambe, Agrawal & Seshan, SIGCOMM 2004): sampled rank-harmonic links.

Mercury supports range queries over *skewed* attribute spaces without
hashing: every peer estimates the node-count histogram by sampling, then
draws its long links harmonically **in estimated rank space** and maps
them back to attribute values.  The paper positions its Theorem 2 model
as the formalisation of exactly this heuristic: "We provide a formalized
theoretical framework that covers the whole class of routing efficient
Small-World networks for skewed key-spaces, including Mercury's
heuristics."

Concretely, each peer here:

1. samples ``sample_size`` live identifiers (Mercury does this with
   random walks; the simulator substitutes unbiased id sampling — see
   DESIGN.md, "Simulation substitutions");
2. fits an empirical CDF ``F̂``;
3. draws ``k`` rank offsets ``x ~ 1/(x ln N)`` on ``[1/N, 1]`` and links
   to the manager of value ``F̂⁻¹((F̂(id) + x) mod 1)``.

With ``sample_size → ∞`` this converges to the paper's skewed model
built with the true CDF (experiment E12 sweeps the budget).

The whole estimate-and-draw protocol runs in whole-population numpy
rounds: one ``(n, sample_size)`` gossip draw, row-wise empirical
CDF/quantile evaluation (reproducing
:class:`repro.distributions.Empirical`'s first-occurrence dedup and
``(0, 0)``/``(1, 1)`` anchors), and the same retry-round/dedupe scheme
as :func:`repro.core.bulk_construction.bulk_links` — statistically
equivalent to the per-peer loop in ``tests/builder_oracle.py``
(KS-tested in ``tests/test_baseline_frontier.py``).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineOverlay
from repro.core.adjacency import csr_from_flat_links
from repro.core.bulk_construction import PairAccumulator
from repro.core.metric_routing import GreedyValueMetric
from repro.core.theory import default_out_degree
from repro.keyspace import RingSpace, bucket_index, successor_indices

__all__ = ["MercuryOverlay"]


class _RowEmpiricals:
    """Per-row empirical CDFs over one ``(n, s)`` gossip-sample matrix.

    The vectorized counterpart of fitting one
    :class:`repro.distributions.Empirical` per peer: duplicate sample
    values collapse onto their run's first rank (a run at 0.0 collapses
    onto the ``(0, 0)`` anchor), and evaluation interpolates linearly
    between the anchors ``(0, 0)``/``(1, 1)`` and the order statistics —
    the same piecewise-linear function, evaluated row-wise.
    """

    def __init__(self, samples: np.ndarray):
        self.s = samples.shape[1]
        self.x = np.sort(samples, axis=1)
        ranks = np.arange(1, self.s + 1, dtype=float) / (self.s + 1.0)
        q = np.broadcast_to(ranks, self.x.shape).copy()
        for j in range(1, self.s):
            dup = self.x[:, j] == self.x[:, j - 1]
            q[dup, j] = q[dup, j - 1]
        q[self.x == 0.0] = 0.0
        self.q = q
        # Row-offset flats: one global searchsorted serves all rows
        # (values live in [0, 1]; stride 2 keeps rows disjoint).
        offsets = 2.0 * np.arange(len(self.x), dtype=float)[:, None]
        self._x_flat = (self.x + offsets).ravel()
        self._q_flat = (self.q + offsets).ravel()

    def _segments(self, flat, rows, queries, xp, fp):
        """Locate each query's knot interval in its row; return endpoints."""
        pos = np.searchsorted(flat, queries + 2.0 * rows, side="right")
        idx = pos - rows * self.s - 1  # in [-1, s-1]
        at = np.clip(idx, 0, self.s - 1)
        x0 = np.where(idx >= 0, xp[rows, at], 0.0)
        f0 = np.where(idx >= 0, fp[rows, at], 0.0)
        has_next = idx < self.s - 1
        nxt = np.clip(idx + 1, 0, self.s - 1)
        x1 = np.where(has_next, xp[rows, nxt], 1.0)
        f1 = np.where(has_next, fp[rows, nxt], 1.0)
        return x0, f0, x1, f1

    def cdf(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Evaluate row ``rows[i]``'s CDF at ``values[i]``."""
        x0, q0, x1, q1 = self._segments(self._x_flat, rows, values, self.x, self.q)
        run = x1 - x0
        return np.where(run > 0, q0 + (values - x0) * (q1 - q0) / np.where(run > 0, run, 1.0), q0)

    def ppf(self, rows: np.ndarray, quantiles: np.ndarray) -> np.ndarray:
        """Evaluate row ``rows[i]``'s quantile function at ``quantiles[i]``."""
        q0, x0, q1, x1 = self._segments(self._q_flat, rows, quantiles, self.q, self.x)
        run = q1 - q0
        return np.where(
            run > 0, x0 + (quantiles - q0) * (x1 - x0) / np.where(run > 0, run, 1.0), x0
        )


class MercuryOverlay(BaselineOverlay):
    """A built Mercury ring over a (possibly skewed) value space.

    Each peer keeps ``log2 N`` long links
    (:func:`repro.core.theory.default_out_degree`, Mercury's recommended
    budget for log-hop routing).

    Args:
        ids: peer identifiers — raw attribute values, *not* hashed.
        rng: random source.
        sample_size: identifiers each peer samples to build its local
            CDF estimate.

    Raises:
        ValueError: for fewer than 3 peers or a non-positive sample size.
    """

    name = "mercury"

    def __init__(self, ids, rng: np.random.Generator, sample_size: int = 64):
        ids = np.sort(np.asarray(ids, dtype=float))
        if len(ids) < 3:
            raise ValueError("Mercury needs at least 3 peers")
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        self.ids = ids
        self.k = default_out_degree(len(ids))
        self.sample_size = sample_size
        self.space = RingSpace()
        # Ring neighbours first, then the long links, scored by circular
        # value distance with the nearest-peer ownership rule.
        indptr, flat = self._build_links(rng)
        self.csr = csr_from_flat_links(self.n, True, np.diff(indptr), flat)
        self.metric = GreedyValueMetric(self.ids, self.space)

    def _build_links(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Draw every peer's rank-harmonic links; return the rows ``(indptr, flat)``.

        One gossip-sample matrix, row-wise empirical estimates, then the
        :func:`repro.core.bulk_construction.bulk_links` retry scheme:
        draw all outstanding rank offsets at once, map through each
        drawing peer's own quantile estimate, resolve managers in one
        search (through a bucket index where the ids are even enough),
        keep rows distinct in a
        :class:`~repro.core.bulk_construction.PairAccumulator`, and redraw
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
        index = bucket_index(self.ids)
        links = PairAccumulator(n, n)
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
            targets = successor_indices(self.ids, values, index=index)
            ok = targets != rows
            links.add(rows[ok], targets[ok])
            need = self.k - links.counts
        return links.split()

    @property
    def n(self) -> int:
        return len(self.ids)
