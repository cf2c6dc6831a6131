"""Slab-row hints never change what the live overlay resolves.

Every stored long link of the array engine carries the slab row its
target had when the link was written.  The hint is a cache: departures,
row recycling, re-added ids and hint-less writes through ``PeerView``
all make hints stale, and each stale hint must fall back to a search.
A hypothesis state machine interleaves those operations and, after
every step, holds ``snapshot()`` and ``dangling_link_count()`` equal to
the search-only oracle in ``snapshot_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from snapshot_oracle import assert_snapshot_matches, dangling_count

from repro.core import GraphConfig, build_skewed_model
from repro.distributions import PowerLaw
from repro.keyspace import IntervalSpace, RingSpace
from repro.overlay import (
    Network,
    bulk_join,
    bulk_leave,
    bulk_repair,
    sample_cohort_ids,
)

DIST = PowerLaw(alpha=1.5, shift=1e-2)


class HintedSlabMachine(RuleBasedStateMachine):
    """Churn an array-engine network; its resolver must match pure search."""

    @initialize(
        n=st.integers(200, 2000),
        ring=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def build(self, n, ring, seed):
        self.rng = np.random.default_rng(seed)
        space = RingSpace() if ring else IntervalSpace()
        graph = build_skewed_model(DIST, n=n, rng=self.rng, config=GraphConfig(space=space))
        self.net = Network.from_graph(graph)
        self.departed: list[float] = []

    def _pick(self, index: int) -> float:
        ids = self.net.ids_array()
        return float(ids[index % len(ids)])

    @precondition(lambda self: self.net.n > 150)
    @rule(fraction=st.floats(0.01, 0.2))
    def leave(self, fraction):
        ids = self.net.ids_array()
        leaving = self.rng.choice(ids, size=max(1, int(fraction * len(ids))), replace=False)
        bulk_leave(self.net, leaving)
        self.departed.extend(leaving.tolist())

    @rule(fraction=st.floats(0.01, 0.2))
    def join(self, fraction):
        m = max(1, int(fraction * self.net.n))
        bulk_join(self.net, sample_cohort_ids(self.net, DIST, m, self.rng), DIST, self.rng)

    @rule(refresh=st.booleans(), fraction=st.sampled_from([0.1, 0.5, 1.0]))
    def repair(self, refresh, fraction):
        before = dangling_count(self.net)
        report = bulk_repair(
            self.net, self.rng, DIST, fraction=fraction, refresh=refresh
        )
        if fraction == 1.0:
            assert report.dangling_dropped == before
            assert self.net.dangling_link_count() == 0

    @rule(a=st.integers(0, 10**6), b=st.integers(0, 10**6))
    def readd_in_other_rows(self, a, b):
        """Remove two peers and re-add both: the free-list swaps their rows."""
        first, second = self._pick(a), self._pick(b)
        if first == second:
            return
        rows = (self.net._slot_of[first], self.net._slot_of[second])
        self.net.remove_peer(first)
        self.net.remove_peer(second)
        self.net.add_peer(first)
        self.net.add_peer(second)
        assert (self.net._slot_of[first], self.net._slot_of[second]) == rows[::-1]

    @rule(
        peer=st.integers(0, 10**6),
        picks=st.lists(st.integers(0, 10**6), max_size=6),
        dangling=st.integers(0, 2),
        assign=st.booleans(),
    )
    def write_through_view(self, peer, picks, dangling, assign):
        """Append or assign links with no hint, some of them to departed ids."""
        owner = self._pick(peer)
        targets = [t for t in map(self._pick, picks) if t != owner]
        targets += self.departed[-dangling:] if dangling else []
        view = self.net.peer(owner)
        if assign:
            view.long_links = targets
        else:
            for target in targets:
                view.long_links.append(target)

    @invariant()
    def resolver_matches_search(self):
        assert_snapshot_matches(self.net)


TestHintedSlab = HintedSlabMachine.TestCase
TestHintedSlab.settings = settings(max_examples=20, stateful_step_count=15)


class TestHintCorners:
    """Deterministic cases the state machine reaches only by chance."""

    @pytest.fixture
    def net(self, rng):
        return Network.from_graph(build_skewed_model(DIST, n=300, rng=rng))

    @staticmethod
    def _linked_pair(net) -> tuple[float, float]:
        source = next(p for p in net.ids_array().tolist() if len(net.peer(p).long_links))
        return source, float(net.peer(source).long_links[0])

    def test_departed_target_that_rejoins_is_live_again(self, net):
        source, target = self._linked_pair(net)
        before = net.dangling_link_count()
        row = net._slot_of[target]
        net.remove_peer(target)
        assert net.dangling_link_count() > before
        # Another departure tops the free-list, so the id returns elsewhere.
        net.remove_peer(next(p for p in net.ids_array().tolist() if p != source))
        net.add_peer(target)
        assert net._slot_of[target] != row
        assert target in net.peer(source).long_links
        assert_snapshot_matches(net)

    def test_dangling_link_still_reported_by_id(self, net):
        source, target = self._linked_pair(net)
        net.remove_peer(target)
        assert target in net.peer(source).long_links
        assert_snapshot_matches(net)

    def test_recycled_row_is_not_mistaken_for_the_old_target(self, net, rng):
        _, target = self._linked_pair(net)
        row = net._slot_of[target]
        net.remove_peer(target)
        fresh = sample_cohort_ids(net, DIST, 1, rng)
        net.add_peer(float(fresh[0]))
        assert net._slot_of[float(fresh[0])] == row
        assert_snapshot_matches(net)
        assert net.dangling_link_count() >= 1

    def test_bulk_writes_store_each_targets_row(self, net, rng):
        bulk_join(net, sample_cohort_ids(net, DIST, 30, rng), DIST, rng)
        bulk_repair(net, rng, DIST, fraction=0.5)
        rows = net._slot_at
        lane = np.arange(net._link_tg.shape[1]) < net._link_cnt[rows][:, None]
        hints = net._link_hint[rows][lane]
        assert np.all(hints >= 0)
        np.testing.assert_array_equal(net._slot_id[hints], net._link_tg[rows][lane])
