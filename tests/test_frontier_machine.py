"""Resident-frontier interleavings retire every walk as the oracle does.

A hypothesis state machine drives one :class:`StreamFrontier` through
admissions (including ones that force the slot arrays to grow), rounds,
releases of retired slots and releases it must reject (a slot already
free, never allocated or repeated in the call), on small random CSRs that mix
degree-uniform rows, a hub row, edgeless rows and a row whose ring
successor is also one of its long links (an exact tie that decides
between a neighbour and a long hop), optionally under a liveness mask
that kills every candidate of one row.  After every rule, each retired
walk's owner, hops, neighbour/long split and reason must equal the
per-walk oracle's (``frontier_oracle.py``), and each walk still in
flight must sit on the node the oracle's path reaches after the same
number of hops.  Admissions must reuse released slots last in, first
out, before they take fresh ones.

The metric kind, the mask and the row shape are fixed per test, not
drawn: under the suite's derandomized hypothesis profile a drawn
combination may never come up, so each of the twelve runs its own
machine and must score at least one round.
"""

import numpy as np
import pytest
from frontier_oracle import oracle_walk
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.adjacency import CSRAdjacency, csr_from_flat_links
from repro.core.metric_routing import (
    REASON_ARRIVED,
    ClockwiseMetric,
    GreedyValueMetric,
    StreamFrontier,
)
from repro.keyspace import RingSpace


def _random_csr(n, uniform, rng):
    """Ring CSR whose long-link rows mix the adversarial shapes.

    ``uniform`` gives every row the same degree; otherwise rows take 0–4
    long links, one is a hub and a few lose all their edges.  Row 0's
    first long link always repeats its ring successor.
    """
    long_counts = np.full(n, 2) if uniform else rng.integers(0, 5, size=n)
    if not uniform:
        long_counts[rng.integers(n)] = 3 * n
    long_counts[0] = max(long_counts[0], 1)
    offsets = np.concatenate([[0], np.cumsum(long_counts)])
    long_flat = rng.integers(0, n, size=int(offsets[-1]))
    long_flat[0] = 1
    csr = csr_from_flat_links(n, True, long_counts, long_flat)
    if uniform:
        return csr
    # Empty a few rows outright (ring neighbours included).
    degrees = np.diff(csr.indptr)
    degrees[rng.choice(np.arange(1, n), size=max(1, n // 8), replace=False)] = 0
    keep = np.repeat(degrees > 0, np.diff(csr.indptr))
    indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    head = np.where(degrees > 0, csr.long_start - csr.indptr[:-1], 0)
    return CSRAdjacency(
        indptr=indptr, indices=csr.indices[keep], long_start=indptr[:-1] + head
    )


def _metric(kind, n, rng):
    positions = np.sort(rng.random(n))
    if kind == "chord":
        return ClockwiseMetric(positions)
    return GreedyValueMetric(positions, RingSpace())


class FrontierMachine(RuleBasedStateMachine):
    """Admit, step and release on one resident frontier.

    Subclasses fix ``kind``, ``masked`` and ``uniform``; ``scored``
    counts the rounds that scored candidates across all their runs.
    """

    kind = "greedy"
    masked = False
    uniform = True
    scored = 0

    @initialize(
        n=st.integers(6, 40),
        max_hops=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    def build(self, n, max_hops, seed):
        rng = np.random.default_rng(seed)
        self.csr = _random_csr(n, self.uniform, rng)
        self.metric = _metric(self.kind, n, rng)
        self.alive = None
        if self.masked:
            self.alive = rng.random(n) > 0.25
            # One row loses every candidate but stays a valid source.
            victim = int(rng.integers(n))
            row = self.csr.indices[self.csr.indptr[victim] : self.csr.indptr[victim + 1]]
            self.alive[row] = False
            self.alive[victim] = True
        self.sources = np.flatnonzero(self.alive) if self.masked else np.arange(n)
        self.max_hops = max_hops
        self.frontier = StreamFrontier(
            self.csr, self.metric, alive=self.alive, max_hops=max_hops, capacity=4
        )
        self.expect = {}  # occupied slot -> the oracle's outcome for its walk
        self.active: set[int] = set()
        self.retired: set[int] = set()
        self.free_stack: list[int] = []  # released slots, most recent last
        self.allocated = 0  # slots [0, allocated) have been handed out

    def _admit(self, m, seed):
        rng = np.random.default_rng(seed)
        sources = rng.choice(self.sources, size=m)
        keys = rng.random(m)
        masked = self.alive is not None and isinstance(self.metric, GreedyValueMetric)
        state = self.metric.prepare(keys, self.alive if masked else None)
        slots = self.frontier.admit(sources, state)
        reused = [self.free_stack.pop() for _ in range(min(m, len(self.free_stack)))]
        fresh = list(range(self.allocated, self.allocated + m - len(reused)))
        assert slots.tolist() == reused + fresh
        self.allocated += len(fresh)
        for i, slot in enumerate(slots.tolist()):
            assert slot not in self.expect, "admission reused an occupied slot"
            self.expect[slot] = oracle_walk(
                self.csr, self.metric, state, i, sources[i],
                alive=self.alive, max_hops=self.max_hops,
            )
            (self.active if self.frontier.active[slot] else self.retired).add(slot)

    @rule(m=st.integers(1, 6), seed=st.integers(0, 2**16))
    def admit(self, m, seed):
        self._admit(m, seed)

    @precondition(lambda self: self.frontier.capacity <= 64)
    @rule(seed=st.integers(0, 2**16))
    def admit_past_capacity(self, seed):
        capacity = self.frontier.capacity
        self._admit(capacity + 1, seed)
        assert self.frontier.capacity > capacity

    @rule()
    def step(self):
        retired = self.frontier.step().tolist()
        if self.frontier.last_round_kernel == "ragged":
            type(self).scored += 1
        assert set(retired) <= self.active
        self.active.difference_update(retired)
        self.retired.update(retired)

    @precondition(lambda self: self.retired)
    @rule(k=st.integers(1, 8))
    def release(self, k):
        slots = sorted(self.retired)[:k]
        self.frontier.release(np.asarray(slots, dtype=np.int64))
        self.free_stack.extend(slots)
        for slot in slots:
            self.retired.discard(slot)
            del self.expect[slot]

    def _rejected(self, slots, match):
        with pytest.raises(ValueError, match=match):
            self.frontier.release(np.asarray(slots, dtype=np.int64))

    @precondition(lambda self: self.free_stack)
    @rule(data=st.data())
    def release_rejects_a_free_slot(self, data):
        self._rejected([data.draw(st.sampled_from(self.free_stack))], "already free")

    @rule(offset=st.integers(0, 3), negative=st.booleans())
    def release_rejects_an_unallocated_slot(self, offset, negative):
        slot = -1 - offset if negative else self.allocated + offset
        self._rejected([slot], "never allocated")

    @precondition(lambda self: self.retired)
    @rule(data=st.data())
    def release_rejects_a_repeated_slot(self, data):
        slot = data.draw(st.sampled_from(sorted(self.retired)))
        self._rejected([slot, slot], "released twice")

    @invariant()
    def walks_follow_the_oracle(self):
        f = self.frontier
        assert f.active_count == len(self.active)
        for slot in self.retired:
            walk = self.expect[slot]
            assert not f.active[slot]
            got = (
                f.owners[slot], f.hops[slot], f.neighbor_hops[slot],
                f.long_hops[slot], f.reason_codes[slot], f.success[slot],
            )
            want = (
                walk.owner, walk.hops, walk.neighbor_hops,
                walk.long_hops, walk.reason, walk.reason == REASON_ARRIVED,
            )
            assert got == want, (slot, got, want)
        for slot in self.active:
            walk = self.expect[slot]
            hops = int(f.hops[slot])
            assert f.active[slot]
            assert hops < len(walk.path)
            assert f.current[slot] == walk.path[hops]


@pytest.mark.parametrize("uniform", [False, True], ids=["varied", "uniform"])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("kind", ["greedy", "chord"])
def test_frontier_machine(kind, masked, uniform):
    machine = type(
        "FrontierMachine", (FrontierMachine,),
        {"kind": kind, "masked": masked, "uniform": uniform, "scored": 0},
    )
    run_state_machine_as_test(
        machine, settings=settings(max_examples=6, stateful_step_count=25)
    )
    assert machine.scored > 0, "no run of this configuration scored a round"
