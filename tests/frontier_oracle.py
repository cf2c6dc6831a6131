"""Per-walk Python reference for the batch frontier kernel.

One walk at a time, one hop per loop iteration:

1. stop with ``max_hops`` once the walk has spent its budget;
2. take the walk's CSR row in order, dropping dead candidates;
3. score the row with the metric's own ``candidate_scores`` (a one-walk
   segment layout);
4. scan the row in CSR order and keep a candidate only on *strict*
   improvement of the best score so far — the rule
   :func:`route_oracle.greedy_route` implements;
5. move when that best beats the walk's threshold (its current score
   for greedy metrics, ``inf`` for rule-based ones); otherwise take
   Chord's terminal hop onto the first owner candidate when the metric
   grants it, or stop ``stuck``.

The kernel must retire every walk exactly as this loop does, however
its walks are batched, admitted or released.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.metric_routing import (
    REASON_ARRIVED,
    REASON_MAX_HOPS,
    REASON_STUCK,
    PreparedTargets,
    Segments,
)

_ONE = np.zeros(1, dtype=np.int64)


@dataclass
class WalkOutcome:
    """What one walk did, in the kernel's column vocabulary.

    ``scored`` holds the walk's pre-liveness row length for each round
    it was scored in (the frontier's ``candidates_seen`` accounting).
    """

    owner: int
    hops: int = 0
    neighbor_hops: int = 0
    long_hops: int = 0
    reason: int = REASON_ARRIVED
    path: list[int] = field(default_factory=list)
    scored: list[int] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.reason == REASON_ARRIVED

    @property
    def rounds(self) -> int:
        """Frontier rounds the walk was active in (budget check included)."""
        return len(self.scored) + (self.reason == REASON_MAX_HOPS)


def _one_walk(state: PreparedTargets, walk: int) -> PreparedTargets:
    extra = None if state.extra is None else np.asarray(state.extra)[walk : walk + 1]
    return PreparedTargets(
        owners=np.asarray(state.owners)[walk : walk + 1],
        targets=np.asarray(state.targets)[walk : walk + 1],
        extra=extra,
    )


def oracle_walk(csr, metric, state, walk, source, alive=None, max_hops=None):
    """Route walk ``walk`` of a prepared batch from ``source`` (module doc)."""
    indptr, indices, is_long = csr.indptr, csr.indices, csr.is_long
    max_hops = csr.n if max_hops is None else max_hops
    mine = _one_walk(state, walk)
    node = int(source)
    out = WalkOutcome(owner=int(mine.owners[0]), path=[node])
    if node == out.owner:
        return out
    threshold = float(metric.initial_scores(np.asarray([node]), mine)[0])
    while True:
        if out.hops >= max_hops:
            out.reason = REASON_MAX_HOPS
            return out
        slots = np.arange(indptr[node], indptr[node + 1])
        out.scored.append(len(slots))
        if alive is not None:
            slots = slots[alive[indices[slots]]]
        if len(slots) == 0:
            out.reason = REASON_STUCK
            return out
        candidates = indices[slots]
        segments = Segments(starts=_ONE, counts=np.asarray([len(slots)]))
        scores = metric.candidate_scores(
            candidates, slots, segments, mine, _ONE, np.asarray([node])
        )
        pick, best = None, np.inf
        for j, score in enumerate(scores):
            if score < best:
                pick, best = j, score
        if pick is not None and best < threshold:
            if metric.greedy:
                threshold = float(best)
        elif metric.terminal_owner_hop and out.owner in candidates:
            pick = int(np.flatnonzero(candidates == out.owner)[0])
        else:
            out.reason = REASON_STUCK
            return out
        node = int(candidates[pick])
        out.hops += 1
        if is_long[slots[pick]]:
            out.long_hops += 1
        else:
            out.neighbor_hops += 1
        out.path.append(node)
        if node == out.owner:
            return out


def oracle_batch(csr, metric, sources, keys, alive=None, max_hops=None):
    """Route every ``(source, key)`` pair through :func:`oracle_walk`."""
    state = metric.prepare(np.asarray(keys, dtype=float), alive)
    return [
        oracle_walk(csr, metric, state, i, s, alive=alive, max_hops=max_hops)
        for i, s in enumerate(np.asarray(sources))
    ]


def assert_batch_matches(batch, walks) -> None:
    """A :class:`BatchRouteResult` retires every walk as the oracle does."""
    np.testing.assert_array_equal(batch.owners, [w.owner for w in walks])
    np.testing.assert_array_equal(batch.hops, [w.hops for w in walks])
    np.testing.assert_array_equal(batch.neighbor_hops, [w.neighbor_hops for w in walks])
    np.testing.assert_array_equal(batch.long_hops, [w.long_hops for w in walks])
    np.testing.assert_array_equal(batch.reason_codes, [w.reason for w in walks])
    np.testing.assert_array_equal(batch.success, [w.success for w in walks])
    if batch.paths is not None:
        assert batch.paths == [w.path for w in walks]


def batch_accounting(walks) -> tuple[int, int, int]:
    """``(rounds, candidates_seen, padded_slots_seen)`` of one batch run.

    Every walk enters round 1 together, so round ``r`` scores the walks
    with at least ``r`` scored rows, and its dense slot count is their
    number times their longest row.
    """
    rounds = max((w.rounds for w in walks), default=0)
    candidates = sum(sum(w.scored) for w in walks)
    padded = 0
    for r in range(rounds):
        rows = [w.scored[r] for w in walks if len(w.scored) > r]
        padded += len(rows) * max(rows, default=0)
    return rounds, candidates, padded
