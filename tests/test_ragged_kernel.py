"""The segmented flat-CSR frontier kernel against a per-walk oracle.

``frontier_oracle.py`` routes one walk at a time in plain Python: it
scores the walk's CSR row with the metric's ``candidate_scores``, scans
the row in order keeping only strict improvements, then applies the
move threshold and Chord's terminal owner hop.  The kernel must retire
every walk exactly as that loop does — success, hops, neighbour/long
split, reasons, owners and full recorded paths — across:

* all five shipped metric families (greedy-value, clockwise/Chord with
  its terminal owner hop, prefix-digit/Pastry, trie/P-Grid,
  torus-zone/CAN), uniform and skewed keys;
* skew-degree adversaries: a hub row with degree far above the median,
  zero-out-degree rows mixed into a live frontier, liveness masks that
  kill every candidate of some walks;
* exact ties, in both the exact-width and the segmented reduction: a
  ring neighbour that is also a long link must be taken as the
  neighbour hop, because it comes first in the row;
* streaming admission — walks joining a resident frontier in staggered
  micro-batches.

Plus the accounting: fill ratio, the candidate / dense-slot counters,
the telemetry gauge and the per-round observables the benchmark tracer
reads.
"""

import numpy as np
import pytest
from frontier_oracle import assert_batch_matches, batch_accounting, oracle_batch

from repro import telemetry
from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
    route_many_overlay,
    sample_overlay_lookups,
)
from repro.core import build_uniform_model, route_many
from repro.core.adjacency import CSRAdjacency, csr_from_flat_links
from repro.core.metric_routing import (
    ClockwiseMetric,
    GreedyValueMetric,
    StreamFrontier,
    frontier_route_many,
)
from repro.distributions import PowerLaw
from repro.keyspace import RingSpace


def _uniform_ids(n, seed):
    return np.sort(np.random.default_rng(seed).random(n))


def _skewed_ids(n, seed):
    rng = np.random.default_rng(seed)
    dist = PowerLaw(alpha=1.8, shift=1e-4)
    ids = np.unique(dist.sample(n, rng))
    while len(ids) < n:
        ids = np.unique(np.concatenate([ids, dist.sample(n - len(ids), rng)]))
    return ids


#: One overlay per shipped metric family.
FAMILIES = ["chord", "pastry", "pgrid", "symphony", "can-2d"]


def _make_family(name, ids, rng):
    if name == "chord":
        return ChordOverlay(ids)  # ClockwiseMetric + terminal owner hop
    if name == "pastry":
        return PastryOverlay(ids, rng)  # PrefixDigitMetric
    if name == "pgrid":
        return PGridOverlay(ids, rng)  # TrieMetric
    if name == "symphony":
        return SymphonyOverlay(ids, rng, k=4)  # GreedyValueMetric
    if name == "can-2d":
        return CANOverlay(ids, dims=2)  # TorusZoneMetric
    raise KeyError(name)


def _check_overlay(overlay, sources, keys):
    batch = route_many_overlay(overlay, sources, keys, record_paths=True)
    assert_batch_matches(batch, oracle_batch(overlay.csr, overlay.metric, sources, keys))
    return batch


def _ring_csr(long_counts, long_flat, n):
    return csr_from_flat_links(n, True, np.asarray(long_counts), np.asarray(long_flat))


class TestSixFamilyParity:
    """Kernel vs oracle, bitwise, for every family × key regime."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_uniform_population(self, name, rng):
        overlay = _make_family(name, _uniform_ids(192, 71), rng)
        sources, keys = sample_overlay_lookups(
            overlay, 200, np.random.default_rng(3), targets="uniform"
        )
        _check_overlay(overlay, sources, keys)

    @pytest.mark.parametrize("name", FAMILIES)
    def test_skewed_population(self, name, rng):
        overlay = _make_family(name, _skewed_ids(192, 72), rng)
        sources, keys = sample_overlay_lookups(
            overlay, 200, np.random.default_rng(4), targets="uniform"
        )
        _check_overlay(overlay, sources, keys)

    @pytest.mark.parametrize("name", ["chord", "pastry", "pgrid", "symphony"])
    def test_peer_id_keys(self, name, rng):
        """Exact-peer keys exercise arrival and the terminal owner hop."""
        overlay = _make_family(name, _uniform_ids(160, 73), rng)
        sources, keys = sample_overlay_lookups(
            overlay, 200, np.random.default_rng(5),
            targets="peers", target_ids=overlay.ids,
        )
        _check_overlay(overlay, sources, keys)


class TestSkewDegreeParity:
    """Degree-pathological graphs: hubs, empty rows, dead neighbourhoods."""

    def _hub_graph(self, n=256, hub_links=180, seed=11):
        """Ring CSR whose node 0 out-degree dwarfs the median (2–5)."""
        rng = np.random.default_rng(seed)
        long_counts = rng.integers(0, 4, size=n)
        long_counts[0] = hub_links
        long_flat = rng.integers(0, n, size=int(long_counts.sum()))
        csr = _ring_csr(long_counts, long_flat, n)
        ids = _uniform_ids(n, seed)
        return csr, GreedyValueMetric(ids, RingSpace()), ids

    def test_hub_row_parity(self):
        csr, metric, ids = self._hub_graph()
        rng = np.random.default_rng(21)
        # Force many walks through the hub: half the sources start there.
        sources = np.where(
            rng.random(300) < 0.5, 0, rng.integers(0, csr.n, size=300)
        ).astype(np.int64)
        keys = rng.random(300)
        batch = frontier_route_many(csr, metric, sources, keys, record_paths=True)
        assert_batch_matches(batch, oracle_batch(csr, metric, sources, keys))
        assert batch.success.any()

    def test_hub_fill_ratio_below_one(self):
        csr, metric, ids = self._hub_graph()
        rng = np.random.default_rng(22)
        sources = rng.integers(0, csr.n, size=400)
        frontier = StreamFrontier(csr, metric, capacity=400)
        frontier.admit(sources, metric.prepare(rng.random(400)))
        while frontier.active_count:
            frontier.step()
        assert frontier.padded_slots_seen > frontier.candidates_seen
        assert 0.0 < frontier.fill_ratio < 1.0

    def test_zero_degree_rows_in_live_frontier(self):
        """Walks on edgeless nodes go stuck alongside advancing walks."""
        rng = np.random.default_rng(31)
        n = 96
        ids = _uniform_ids(n, 31)
        degrees = rng.integers(1, 6, size=n)
        degrees[rng.choice(n, size=12, replace=False)] = 0
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = rng.integers(0, n, size=int(indptr[-1])).astype(np.int64)
        csr = CSRAdjacency(indptr=indptr, indices=indices, long_start=indptr[1:])
        metric = GreedyValueMetric(ids, RingSpace())
        sources = np.arange(n, dtype=np.int64)  # every row, empty ones included
        keys = rng.random(n)
        batch = frontier_route_many(csr, metric, sources, keys, record_paths=True)
        assert_batch_matches(batch, oracle_batch(csr, metric, sources, keys))
        # The empty rows really were part of the live frontier.
        empty = degrees[sources] == 0
        assert (batch.reasons[empty & ~batch.success] == "stuck").all()

    @pytest.mark.parametrize("kill", ["some", "all"])
    def test_alive_masks(self, kill, rng):
        """Dead candidates compress out; all-dead rows retire stuck."""
        graph = build_uniform_model(n=384, rng=rng)
        wrng = np.random.default_rng(41)
        sources = wrng.integers(0, graph.n, size=250)
        keys = wrng.random(250)
        alive = np.ones(graph.n, dtype=bool)
        if kill == "some":
            alive[wrng.choice(graph.n, size=120, replace=False)] = False
        else:
            alive[:] = False  # every candidate dead: only sources survive
        alive[sources] = True
        batch = route_many(graph, sources, keys, alive=alive, record_paths=True)
        metric = GreedyValueMetric(graph.ids, graph.space)
        assert_batch_matches(
            batch, oracle_batch(graph.adjacency, metric, sources, keys, alive=alive)
        )
        if kill == "all":
            assert (batch.reasons[~batch.success] == "stuck").all()


class TestExactTies:
    """First minimum in row order decides ties in both reductions."""

    N = 12

    def _duplicate_link_graph(self, extra_on_other_rows):
        """Node 0's ring successor (node 1) is also its first long link.

        With ``extra_on_other_rows`` every other row carries two long
        links instead of one, so a round holding node 0's walk and any
        other walk is not degree-uniform.
        """
        n = self.N
        long_counts = np.full(n, 2 if extra_on_other_rows else 1)
        long_counts[0] = 1
        rows = [[1]] + [
            [(i + 5) % n] * int(long_counts[i]) for i in range(1, n)
        ]
        csr = _ring_csr(long_counts, np.concatenate(rows), n)
        metric = GreedyValueMetric(np.arange(n) / n, RingSpace())
        return csr, metric

    def _route(self, csr, metric, sources, keys):
        batch = frontier_route_many(csr, metric, sources, keys, record_paths=True)
        assert_batch_matches(batch, oracle_batch(csr, metric, sources, keys))
        return batch

    def test_exact_width_round_takes_the_neighbour_hop(self):
        csr, metric = self._duplicate_link_graph(extra_on_other_rows=False)
        sources = np.asarray([0, 3], dtype=np.int64)  # both rows have degree 3
        batch = self._route(csr, metric, sources, np.asarray([1 / 12, 4 / 12]))
        assert (batch.hops[0], batch.neighbor_hops[0], batch.long_hops[0]) == (1, 1, 0)

    def test_segmented_round_takes_the_neighbour_hop(self):
        csr, metric = self._duplicate_link_graph(extra_on_other_rows=True)
        sources = np.asarray([0, 3], dtype=np.int64)  # degrees 3 and 4
        batch = self._route(csr, metric, sources, np.asarray([1 / 12, 4 / 12]))
        assert (batch.hops[0], batch.neighbor_hops[0], batch.long_hops[0]) == (1, 1, 0)


class _NoTerminalHop(ClockwiseMetric):
    """Chord's rule without the terminal owner hop: a stalled walk is stuck."""

    terminal_owner_hop = False


class TestTerminalOwnerHop:
    def test_only_onto_an_owner_candidate(self):
        """A stalled Chord-rule walk hops only when its owner is a candidate."""
        rng = np.random.default_rng(37)
        n = 64
        # Random rows without ring neighbours: a stalled walk's successor
        # owner is often out of reach, and sometimes one hop away.  Each
        # row's neighbour/long boundary falls anywhere in it.
        degrees = rng.integers(1, 4, size=n)
        indptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        csr = CSRAdjacency(
            indptr=indptr,
            indices=rng.integers(0, n, size=int(indptr[-1])).astype(np.int64),
            long_start=rng.integers(indptr[:-1], indptr[1:], endpoint=True),
        )
        positions = np.sort(rng.random(n))
        sources = rng.integers(0, n, size=200).astype(np.int64)
        keys = rng.random(len(sources))
        routed = {}
        for terminal, metric_class in ((True, ClockwiseMetric), (False, _NoTerminalHop)):
            metric = metric_class(positions)
            assert metric.terminal_owner_hop is terminal
            batch = frontier_route_many(csr, metric, sources, keys, record_paths=True)
            assert_batch_matches(batch, oracle_batch(csr, metric, sources, keys))
            routed[terminal] = batch
        assert (routed[True].success & ~routed[False].success).any()
        assert (routed[True].reasons == "stuck").any()


class TestStreamingAdmission:
    """Staggered admit/step interleavings retire as the oracle does."""

    def test_staggered_admission_parity(self, rng):
        graph = build_uniform_model(n=512, rng=rng)
        metric = GreedyValueMetric(graph.ids, graph.space)
        wrng = np.random.default_rng(51)
        sources = wrng.integers(0, graph.n, size=600)
        keys = wrng.random(600)
        chunks = np.array_split(np.arange(600), 7)

        frontier = StreamFrontier(graph.adjacency, metric, capacity=64)
        slots = np.empty(600, dtype=np.int64)
        for chunk in chunks:
            slots[chunk] = frontier.admit(sources[chunk], metric.prepare(keys[chunk]))
            frontier.step()  # interleave rounds between admissions
        while frontier.active_count:
            frontier.step()
        walks = oracle_batch(graph.adjacency, metric, sources, keys)
        for col, attr in (
            ("owners", "owner"), ("hops", "hops"), ("neighbor_hops", "neighbor_hops"),
            ("long_hops", "long_hops"), ("reason_codes", "reason"),
            ("success", "success"),
        ):
            expect = [getattr(w, attr) for w in walks]
            np.testing.assert_array_equal(getattr(frontier, col)[slots], expect, col)


class TestKernelPlumbing:
    def test_uniform_degree_frontier_is_padding_free(self, rng):
        """A ring whose rows all hold two long links is degree-uniform:
        fill ratio exactly 1."""
        csr = _ring_csr(np.full(128, 2), rng.integers(0, 128, size=256), 128)
        metric = GreedyValueMetric(_uniform_ids(128, 80), RingSpace())
        wrng = np.random.default_rng(81)
        sources = wrng.integers(0, 128, size=100)
        keys = wrng.random(100)
        frontier = StreamFrontier(csr, metric, capacity=100)
        frontier.admit(sources, metric.prepare(keys))
        while frontier.active_count:
            frontier.step()
        assert frontier.fill_ratio == 1.0
        batch = frontier_route_many(csr, metric, sources, keys, record_paths=True)
        assert_batch_matches(batch, oracle_batch(csr, metric, sources, keys))

    def test_telemetry_counters_and_fill_gauge(self, rng):
        graph = build_uniform_model(n=256, rng=rng)
        wrng = np.random.default_rng(91)
        telemetry.disable()
        telemetry.enable()
        try:
            route_many(graph, wrng.integers(0, graph.n, 300), wrng.random(300))
            registry = telemetry.get_registry()
            candidates = registry.counter("routing.frontier.candidates").value
            padded_slots = registry.counter("routing.frontier.padded_slots").value
            assert candidates > 0
            assert padded_slots >= candidates
            gauge = registry.gauge("routing.frontier.fill_ratio").value
            assert gauge == pytest.approx(candidates / padded_slots)
        finally:
            telemetry.disable()

    @pytest.mark.parametrize("hub", [False, True])
    def test_counters_match_oracle(self, hub):
        """Rounds, candidates and dense slots follow from the walks alone."""
        rng = np.random.default_rng(92)
        n = 200
        long_counts = rng.integers(0, 5, size=n)
        if hub:
            long_counts[7] = 150
        csr = _ring_csr(long_counts, rng.integers(0, n, size=int(long_counts.sum())), n)
        metric = GreedyValueMetric(_uniform_ids(n, 92), RingSpace())
        sources = rng.integers(0, n, size=300)
        keys = rng.random(300)
        alive = rng.random(n) > 0.2
        alive[sources] = True
        batch = frontier_route_many(csr, metric, sources, keys, alive=alive, max_hops=6)
        walks = oracle_batch(csr, metric, sources, keys, alive=alive, max_hops=6)
        assert_batch_matches(batch, walks)
        assert (batch.reasons == "max_hops").any()
        assert (batch.rounds, batch.candidates_seen, batch.padded_slots_seen) == (
            batch_accounting(walks)
        )

    def test_round_observables(self):
        """Scored rounds say "ragged"; edgeless and spent rounds say why not."""
        n = 8
        indptr = np.asarray([0, 2, 4, 4, 4, 6, 8, 10, 12], dtype=np.int64)
        indices = np.asarray([1, 7, 2, 0, 5, 3, 6, 4, 7, 5, 0, 6], dtype=np.int64)
        csr = CSRAdjacency(indptr=indptr, indices=indices, long_start=indptr[1:])
        metric = GreedyValueMetric(np.arange(n) / n, RingSpace())

        def labels(sources, keys, max_hops=None):
            frontier = StreamFrontier(csr, metric, max_hops=max_hops)
            frontier.admit(np.asarray(sources), metric.prepare(np.asarray(keys)))
            seen = []
            while frontier.active_count:
                frontier.step()
                seen.append(
                    (frontier.last_round_kernel, frontier.last_round_candidates,
                     frontier.last_round_padded_slots)
                )
            return seen

        # Two walks on rows of degree 2: one scored round, 4 candidates.
        assert labels([0, 4], [1 / n, 3 / n]) == [("ragged", 4, 4)]
        # Both walks sit on edgeless rows 2 and 3.
        assert labels([2, 3], [0.0, 0.5]) == [("stuck", 0, 0)]
        # A spent budget retires the walk before any gather.
        assert labels([0], [0.5], max_hops=0) == [("none", 0, 0)]
        # Mixed degrees 2 and 0: scored, with 2 of 4 dense slots real.
        assert labels([0, 2], [1 / n, 0.5]) == [("ragged", 2, 4)]

    def test_step_on_a_drained_frontier_resets_the_round_observables(self):
        """A no-op step reports no round, not the previous round's."""
        n = 8
        csr = csr_from_flat_links(n, True, np.zeros(n, dtype=np.int64), np.empty(0, np.int64))
        metric = GreedyValueMetric(np.arange(n) / n, RingSpace())
        frontier = StreamFrontier(csr, metric)
        frontier.admit(np.asarray([0, 4]), metric.prepare(np.asarray([1 / n, 5 / n])))
        frontier.step()
        assert frontier.last_round_kernel == "ragged"
        assert frontier.active_count == 0
        rounds = frontier.rounds
        assert frontier.step().size == 0
        assert (
            frontier.last_round_kernel, frontier.last_round_candidates,
            frontier.last_round_padded_slots,
        ) == ("none", 0, 0)
        assert frontier.rounds == rounds
