"""The greedy search round retires every walk as the per-walk oracle does.

:meth:`StreamFrontier._search` binary-searches rows whose long links are
sorted instead of scoring every candidate.  These tests force it onto
small frontiers (the round-size rule would otherwise keep them linear)
and hold it to ``frontier_oracle.py`` on random sorted-row CSRs, on the
interval and the ring, with rows of degree 0, 1, 2 and hub size, a ring
successor that is also a long link (a tie the neighbour must win), keys
equidistant from two grid peers, and position clusters so tight that
three or more distances in one row round to the same float.

A hypothesis state machine interleaves admissions, rounds and releases
under hop budgets and, in one mode, path recording.  Configurations the
search cannot serve exactly — unsorted rows, a liveness mask, positions
that do not strictly increase, any other metric — must never take a
search round and must still match the oracle.

The checks that decide exactness run once per graph or CSR: not once
per ``route_many`` call, which binds a fresh metric each time, and not
once per ``repro.parallel`` shard, which every pool thread routes over
the caller's own CSR and metric.
"""

from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from frontier_oracle import (
    assert_batch_matches,
    batch_accounting,
    oracle_batch,
    oracle_walk,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import adjacency, metric_routing, route_many
from repro.core.adjacency import CSRAdjacency, csr_from_flat_links
from repro.core.builder import GraphConfig, build_uniform_model
from repro.core.metric_routing import (
    REASON_ARRIVED,
    ClockwiseMetric,
    GreedyValueMetric,
    StreamFrontier,
    frontier_route_many,
)
from repro.keyspace import IntervalSpace, RingSpace
from repro.parallel import autotune
from repro.parallel.dispatch import frontier_route_many_parallel

#: Configurations a search round must serve.
SEARCHED = "sorted"
#: Configurations that must keep the linear round.
LINEAR = ("unsorted", "alive", "flat_positions", "clockwise", "subclass")


class _Exotic(GreedyValueMetric):
    """A subclass may score differently, so it must keep the linear round."""


def _counted(search, rounds=None):
    """Wrap ``_search``: count each frontier's search rounds, and append
    each round to ``rounds`` when given."""

    def counted(self, *args):
        self.search_rounds = getattr(self, "search_rounds", 0) + 1
        if rounds is not None:
            rounds.append(self)
        return search(self, *args)

    return counted


def _force_search(rounds=None):
    """Patches that send every exact round to the search, and count them."""
    return [
        mock.patch.object(metric_routing, "_SEARCH_MIN_CANDIDATES", -(1 << 62)),
        mock.patch.object(
            StreamFrontier, "_search", _counted(StreamFrontier._search, rounds)
        ),
    ]


@pytest.fixture
def forced():
    patches = _force_search()
    for patch in patches:
        patch.start()
    yield
    for patch in reversed(patches):
        patch.stop()


def _positions(layout, n, rng):
    """Strictly increasing peer positions.

    ``grid`` is ``i / n`` for a power-of-two ``n``, so a key on a
    half-grid point is exactly equidistant from two peers; ``cluster``
    packs the lower half of the peers within 2**-70 of 0, where every
    distance to a key far away rounds to the same float.
    """
    if layout == "grid":
        return np.arange(n) / n
    if layout == "cluster":
        c = n // 2
        rest = np.sort(rng.uniform(0.01, 1.0, size=n - c))
        positions = np.concatenate([np.arange(c) * 2.0**-70, rest])
    else:
        positions = np.sort(rng.random(n))
    if np.all(positions[1:] > positions[:-1]):
        return positions
    return np.arange(n) / n  # a repeated draw: fall back to the grid


def _keys(layout, n, m, rng):
    if layout == "grid":
        return rng.integers(0, 2 * n, size=m) / (2 * n)
    keys = rng.random(m)
    if layout == "cluster":
        keys[::2] = rng.choice([0.25, 0.5, 0.75], size=len(keys[::2]))
    return keys


def _sorted_csr(n, ring, rng, pool):
    """A CSR whose long links are sorted and distinct in every row.

    Rows take 0-4 long links drawn from ``pool``, one hub row links to
    every peer, row 0 also links to its successor 1 as a long link, and
    some other rows are cut to their first 0, 1 or 2 slots.
    """
    long_counts = rng.integers(0, 5, size=n)
    hub = int(rng.integers(1, n)) if n > 1 else 0
    rows = [
        np.sort(rng.choice(pool, size=min(int(c), len(pool)), replace=False))
        for c in long_counts
    ]
    rows[hub] = np.arange(n)
    if n > 1:
        rows[0] = np.union1d(rows[0], [1])
    counts = np.array([len(row) for row in rows], dtype=np.int64)
    csr = csr_from_flat_links(n, ring, counts, np.concatenate(rows).astype(np.int64))
    degrees = np.diff(csr.indptr)
    cut = rng.random(n) < 0.3
    cut[[0, hub]] = False
    kept = np.where(cut, np.minimum(degrees, rng.integers(0, 3, size=n)), degrees)
    slot_in_row = np.arange(csr.n_edges) - np.repeat(csr.indptr[:-1], degrees)
    keep = slot_in_row < np.repeat(kept, degrees)
    indptr = np.concatenate([[0], np.cumsum(kept)]).astype(np.int64)
    head = np.minimum(csr.long_start - csr.indptr[:-1], kept)
    return CSRAdjacency(
        indptr=indptr, indices=csr.indices[keep], long_start=indptr[:-1] + head
    )


def _unsort(csr):
    """Swap the first two tail slots of the longest row."""
    degrees = np.diff(csr.indptr)
    row = int(np.argmax(degrees))
    indices = csr.indices.copy()
    a = csr.indptr[row] + 2
    indices[[a, a + 1]] = indices[[a + 1, a]]
    return CSRAdjacency(indptr=csr.indptr, indices=indices, long_start=csr.long_start)


def _setup(mode, n, ring, layout, rng):
    """``(csr, metric, alive)`` for one configuration."""
    space = RingSpace() if ring else IntervalSpace()
    # Cluster rows link into the cluster, so their tails hold tie runs.
    pool = np.arange(n // 2 if layout == "cluster" else n)
    csr = _sorted_csr(n, ring, rng, pool)
    positions = _positions(layout, n, rng)
    alive = None
    if mode == "unsorted":
        csr = _unsort(csr)
        assert not csr.tails_sorted
    elif mode == "alive":
        alive = rng.random(n) > 0.2
        alive[0] = True
    elif mode == "flat_positions":
        positions = positions.copy()
        positions[n // 2] = positions[n // 2 - 1]
    if mode == "clockwise":
        chord = ClockwiseMetric(positions)
        return csr, chord, alive
    if mode == "subclass":
        return csr, _Exotic(positions, space), alive
    return csr, GreedyValueMetric(positions, space), alive


class SearchRoundMachine(RuleBasedStateMachine):
    """Admit, step and release on a frontier whose rounds may search."""

    def __init__(self):
        super().__init__()
        self._patches = _force_search()
        for patch in self._patches:
            patch.start()

    def teardown(self):
        for patch in reversed(self._patches):
            patch.stop()

    @initialize(
        n=st.integers(4, 40),
        ring=st.booleans(),
        layout=st.sampled_from(["random", "grid", "cluster"]),
        mode=st.sampled_from([SEARCHED] * len(LINEAR) + list(LINEAR)),
        max_hops=st.sampled_from([None, None, 1, 3]),
        record_paths=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def build(self, n, ring, layout, mode, max_hops, record_paths, seed):
        rng = np.random.default_rng(seed)
        if layout == "grid":
            n = 1 << max(2, int(n).bit_length() - 1)
        self.layout, self.mode, self.max_hops = layout, mode, max_hops
        self.csr, self.metric, self.alive = _setup(mode, n, ring, layout, rng)
        self.sources = np.flatnonzero(self.alive) if self.alive is not None else np.arange(n)
        self.record_paths = record_paths
        self.frontier = StreamFrontier(
            self.csr, self.metric, alive=self.alive, max_hops=max_hops,
            record_paths=record_paths, capacity=4,
        )
        self.expect = {}  # occupied slot -> the oracle's outcome for its walk
        self.sources_of = {}
        self.active: set[int] = set()
        self.retired: set[int] = set()

    @rule(m=st.integers(1, 16), seed=st.integers(0, 2**16))
    def admit(self, m, seed):
        rng = np.random.default_rng(seed)
        sources = rng.choice(self.sources, size=m)
        keys = _keys(self.layout, self.csr.n, m, rng)
        masked = self.alive is not None and type(self.metric) is GreedyValueMetric
        state = self.metric.prepare(keys, self.alive if masked else None)
        slots = self.frontier.admit(sources, state)
        for i, slot in enumerate(slots.tolist()):
            self.expect[slot] = oracle_walk(
                self.csr, self.metric, state, i, sources[i],
                alive=self.alive, max_hops=self.max_hops,
            )
            self.sources_of[slot] = int(sources[i])
            (self.active if self.frontier.active[slot] else self.retired).add(slot)

    @rule()
    def step(self):
        f = self.frontier
        rounds, before = f.rounds, getattr(f, "search_rounds", 0)
        retired = f.step().tolist()
        searched = getattr(f, "search_rounds", 0) - before
        if self.mode == SEARCHED:
            scored = f.rounds > rounds and f.last_round_kernel == "ragged"
            assert searched == scored
        else:
            assert searched == 0, f"{self.mode} took a search round"
        assert set(retired) <= self.active
        self.active.difference_update(retired)
        self.retired.update(retired)

    @precondition(lambda self: self.retired and not self.record_paths)
    @rule(k=st.integers(1, 8))
    def release(self, k):
        slots = sorted(self.retired)[:k]
        self.frontier.release(np.asarray(slots, dtype=np.int64))
        for slot in slots:
            self.retired.discard(slot)
            del self.expect[slot]

    def _paths(self):
        f = self.frontier
        paths = {slot: [source] for slot, source in self.sources_of.items()}
        for walks, nodes in zip(f._step_walks, f._step_nodes):
            for slot, node in zip(walks.tolist(), nodes.tolist()):
                paths[slot].append(node)
        return paths

    @invariant()
    def walks_follow_the_oracle(self):
        f = self.frontier
        assert f.active_count == len(self.active)
        for slot in self.retired:
            walk = self.expect[slot]
            got = (
                f.owners[slot], f.hops[slot], f.neighbor_hops[slot],
                f.long_hops[slot], f.reason_codes[slot], f.success[slot],
            )
            want = (
                walk.owner, walk.hops, walk.neighbor_hops,
                walk.long_hops, walk.reason, walk.reason == REASON_ARRIVED,
            )
            assert got == want, (self.mode, slot, got, want)
        for slot in self.active:
            walk = self.expect[slot]
            hops = int(f.hops[slot])
            assert hops < len(walk.path)
            assert f.current[slot] == walk.path[hops]
        if self.record_paths:
            paths = self._paths()
            for slot, walk in self.expect.items():
                assert paths[slot] == walk.path[: int(f.hops[slot]) + 1]


TestSearchRoundMachine = SearchRoundMachine.TestCase
TestSearchRoundMachine.settings = settings(max_examples=100, stateful_step_count=30)


@pytest.mark.parametrize("mode", [SEARCHED, *LINEAR])
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 48),
    ring=st.booleans(),
    layout=st.sampled_from(["random", "grid", "cluster"]),
    max_hops=st.sampled_from([None, 0, 1, 2, 5]),
    seed=st.integers(0, 2**16),
)
def test_batches_match_the_oracle_with_paths(mode, n, ring, layout, max_hops, seed):
    """Whole batches, paths included, equal the oracle's; only the sorted
    configuration ever searches."""
    searched = []
    patches = _force_search(searched)
    for patch in patches:
        patch.start()
    try:
        rng = np.random.default_rng(seed)
        if layout == "grid":
            n = 1 << max(2, int(n).bit_length() - 1)
        csr, metric, alive = _setup(mode, n, ring, layout, rng)
        live = np.flatnonzero(alive) if alive is not None else np.arange(n)
        sources = rng.choice(live, size=64)
        keys = _keys(layout, n, 64, rng)
        masked = alive is not None and type(metric) is GreedyValueMetric
        batch = frontier_route_many(
            csr, metric, sources, keys, alive=alive if masked else None,
            max_hops=max_hops, record_paths=True,
        )
        walks = oracle_batch(
            csr, metric, sources, keys, alive=alive if masked else None,
            max_hops=max_hops,
        )
        assert_batch_matches(batch, walks)
        assert (batch.rounds, batch.candidates_seen, batch.padded_slots_seen) == (
            batch_accounting(walks)
        )
        if mode != SEARCHED:
            assert not searched, f"{mode} took a search round"
        elif batch.hops.any():
            assert searched
    finally:
        for patch in reversed(patches):
            patch.stop()


def _cluster_row(ring):
    """Peer 12's tail holds peers 2..7, all within 2**-70 of 0."""
    n = 16
    positions = np.concatenate([np.arange(8) * 2.0**-70, np.linspace(0.3, 0.9, 8)])
    long_counts = np.zeros(n, dtype=np.int64)
    long_counts[12] = 6
    csr = csr_from_flat_links(n, ring, long_counts, np.arange(2, 8, dtype=np.int64))
    space = RingSpace() if ring else IntervalSpace()
    return csr, GreedyValueMetric(positions, space)


@pytest.mark.parametrize("ring", [False, True])
def test_a_run_of_tied_distances_resolves_to_its_first_slot(ring, forced):
    """Distances from key 0.01 to peers 2..7 all round to 0.01: take peer 2.

    On the interval the binary search lands on the run's last slot (the
    key's predecessor) and a second search walks back to its first; on
    the ring the tail's first slot is a candidate of its own.
    """
    csr, metric = _cluster_row(ring)
    row = csr.row(12)
    dist = metric.space.pairwise_distances(metric.positions[row], 0.01)
    assert np.count_nonzero(dist == dist.min()) == 6
    searches = []
    lower_bound = metric_routing._lower_bound

    def counted(*args):
        searches.append(len(args[0]))
        return lower_bound(*args)

    with mock.patch.object(metric_routing, "_lower_bound", counted):
        batch = frontier_route_many(
            csr, metric, np.array([12]), np.array([0.01]), max_hops=1, record_paths=True
        )
    assert batch.paths[0] == [12, 2]
    assert len(searches) == (1 if ring else 2)
    walks = oracle_batch(csr, metric, [12], [0.01], max_hops=1)
    assert_batch_matches(batch, walks)


def test_a_neighbour_that_is_also_a_long_link_counts_as_a_neighbour_hop(forced):
    """Row 0 links to its successor twice; the neighbour slot comes first."""
    n = 8
    long_counts = np.zeros(n, dtype=np.int64)
    long_counts[0] = 3
    csr = csr_from_flat_links(n, True, long_counts, np.array([1, 4, 6], dtype=np.int64))
    metric = GreedyValueMetric(np.arange(n) / n, RingSpace())
    batch = frontier_route_many(csr, metric, np.array([0]), np.array([1 / n]))
    assert (batch.hops[0], batch.neighbor_hops[0], batch.long_hops[0]) == (1, 1, 0)
    assert_batch_matches(batch, oracle_batch(csr, metric, [0], [1 / n]))


def test_the_round_size_rule_keeps_small_rounds_linear():
    """Unforced, a 16-walk round scores linearly and a 4096-walk one searches."""
    rng = np.random.default_rng(7)
    n = 4096
    rows = [np.sort(rng.choice(n, size=30, replace=False)) for _ in range(n)]
    csr = csr_from_flat_links(
        n, False, np.full(n, 30), np.concatenate(rows).astype(np.int64)
    )
    metric = GreedyValueMetric(np.sort(rng.random(n)), IntervalSpace())
    with mock.patch.object(
        StreamFrontier, "_search", _counted(StreamFrontier._search)
    ):
        for walks, searched in ((16, 0), (4096, 1)):
            sources = rng.integers(0, n, size=walks)
            keys = rng.random(walks)
            frontier = StreamFrontier(csr, metric, capacity=walks)
            frontier.admit(sources, metric.prepare(keys))
            frontier.step()
            assert getattr(frontier, "search_rounds", 0) == searched
            batch = frontier_route_many(csr, metric, sources, keys)
            assert_batch_matches(batch, oracle_batch(csr, metric, sources, keys))


def _count_checks(monkeypatch):
    """Count each run of the row-order scan and of the positions check."""
    scans, positions = [], []
    scan = adjacency.tails_ascending

    def counted_scan(*args):
        scans.append(1)
        return scan(*args)

    check = GreedyValueMetric.__dict__["searchable"].func

    def counted_check(self):
        positions.append(1)
        return check(self)

    prop = cached_property(counted_check)
    prop.__set_name__(GreedyValueMetric, "searchable")
    monkeypatch.setattr(adjacency, "tails_ascending", counted_scan)
    monkeypatch.setattr(GreedyValueMetric, "searchable", prop)
    return scans, positions


def test_checks_run_once_per_graph(monkeypatch, forced):
    """``route_many`` binds a fresh metric per call; neither check reruns."""
    scans, positions = _count_checks(monkeypatch)
    rng = np.random.default_rng(5)
    graph = build_uniform_model(2048, rng, GraphConfig(out_degree=8))
    for _ in range(3):
        route_many(graph, rng.integers(0, graph.n, size=256), rng.random(256))
    assert (len(scans), len(positions)) == (1, 1)


def test_checks_run_once_across_parallel_shards(monkeypatch):
    """Shards on two pool threads share the caller's CSR and metric; the
    caller runs both checks before dispatch, so no shard reruns them."""
    monkeypatch.setattr(autotune, "MIN_CHUNK", 1024)
    scans, positions = _count_checks(monkeypatch)
    rounds = []
    patches = _force_search(rounds)
    rng = np.random.default_rng(6)
    graph = build_uniform_model(2048, rng, GraphConfig(out_degree=8))
    csr, metric = graph.adjacency, GreedyValueMetric(graph.ids, graph.space)
    sources, keys = rng.integers(0, graph.n, size=4096), rng.random(4096)
    serial = frontier_route_many(csr, metric, sources, keys)
    for patch in patches:
        patch.start()
    try:
        for _ in range(2):
            sharded = frontier_route_many_parallel(
                csr, metric, sources, keys, workers=2
            )
            np.testing.assert_array_equal(sharded.hops, serial.hops)
    finally:
        for patch in reversed(patches):
            patch.stop()
    assert len({id(frontier) for frontier in rounds}) > 2  # several shards searched
    assert (len(scans), len(positions)) == (1, 1)
