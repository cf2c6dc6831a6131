"""The construction layer against its merge-every-round oracle, array for array.

``tests/builder_oracle.py`` keeps the round loops as they ran before the
bucket index, the pair accumulator and the one-sort symmetrize: a full
merge and recount of the accepted set every round, a ``searchsorted``
per target search, ``//``-and-``%`` row splits.  Both sides consume the
same draws, so every output must be *equal* — indptr, targets and dtypes
— not just equal in distribution.
"""

import builder_oracle as oracle
import numpy as np
import pytest

import repro.core.bulk_construction as bc
from repro.baselines import MercuryOverlay, SymphonyOverlay
from repro.core import (
    bulk_exact_links,
    bulk_links,
    symmetrize_flat,
)
from repro.core.bulk_construction import PairAccumulator, split_rows
from repro.distributions import PowerLaw, Uniform
from repro.keyspace import IntervalSpace, RingSpace, bucket_index
from repro.overlay import bulk_bootstrap, bulk_dynamics, bulk_join, bulk_leave, bulk_repair
from repro.overlay.bulk_dynamics import sample_cohort_ids

SPACES = [IntervalSpace(), RingSpace()]
SPACE_IDS = ["interval", "ring"]
DIST = PowerLaw(alpha=1.5)


def assert_same(new, old):
    """Tuples of arrays equal element for element, dtypes included."""
    assert len(new) == len(old)
    for a, b in zip(new, old):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def csr_arrays(csr) -> tuple:
    return csr.indptr, csr.indices, csr.long_start


def positions(kind: str, n: int, seed: int = 1) -> np.ndarray:
    """Sorted positions: uniform, F-normalised skewed, or naive raw skewed."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return np.sort(rng.random(n))
    ids = np.sort(DIST.sample(n, rng))
    if kind == "skewed":
        return np.asarray(DIST.cdf(ids), dtype=float)
    return ids


class TestBulkLinks:
    @pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
    @pytest.mark.parametrize("kind", ["uniform", "skewed", "naive"])
    @pytest.mark.parametrize("dedupe", [True, False])
    @pytest.mark.parametrize("k", [0, 1, 20])
    def test_matches_oracle(self, space, kind, dedupe, k):
        n = 3000
        pos = positions(kind, n)
        args = (pos, k, 1.0 / n, space)
        new = bulk_links(*args, np.random.default_rng(7), dedupe=dedupe)
        old = oracle.bulk_links(*args, np.random.default_rng(7), dedupe=dedupe)
        assert_same(new, old)

    def test_populations_reach_both_sides_of_the_index_rule(self):
        # The naive model's raw PowerLaw ids search with plain
        # searchsorted; normalised and uniform positions use the table.
        assert bucket_index(positions("naive", 3000)) is None
        assert bucket_index(positions("skewed", 3000)) is not None
        assert bucket_index(positions("uniform", 3000)) is not None

    @pytest.mark.parametrize("dedupe", [True, False])
    def test_fallback_population_matches_oracle(self, dedupe, monkeypatch):
        # Two tight clusters and a cutoff wider than either: most draws
        # resolve inside the drawing peer's own cluster and fail the
        # cutoff, so one round leaves rows short for the outward scan.
        pos = np.concatenate([np.linspace(0.0, 0.002, 20), np.linspace(0.997, 0.999, 20)])
        calls = []
        real_fill = bc._fallback_fill

        def spy(*args):
            calls.append(int(np.count_nonzero(args[3] > 0)))
            return real_fill(*args)

        monkeypatch.setattr(bc, "_fallback_fill", spy)
        for space in SPACES:
            args = (pos, 8, 0.01, space)
            new = bulk_links(*args, np.random.default_rng(3), dedupe=dedupe, max_rounds=1)
            old = oracle.bulk_links(
                *args, np.random.default_rng(3), dedupe=dedupe, max_rounds=1
            )
            assert_same(new, old)
        assert calls and all(rows > 0 for rows in calls)

    def test_more_links_than_peers_matches_oracle(self):
        pos = positions("uniform", 30)
        for space in SPACES:
            args = (pos, 40, 1.0 / 30, space)
            new = bulk_links(*args, np.random.default_rng(9))
            old = oracle.bulk_links(*args, np.random.default_rng(9))
            assert_same(new, old)


class TestFlatRows:
    def test_symmetrize_self_links_duplicates_unsorted(self):
        rng = np.random.default_rng(11)
        n = 500
        rows = rng.integers(0, n, 6000)
        cols = rng.integers(0, n, 6000)
        cols[:300] = rows[:300]  # self-links
        rows = np.concatenate([rows, rows[:800]])  # duplicate pairs
        cols = np.concatenate([cols, cols[:800]])
        order = rng.permutation(len(rows))  # unsorted input
        assert_same(
            symmetrize_flat(rows[order], cols[order], n),
            oracle.symmetrize_flat(rows[order], cols[order], n),
        )

    @pytest.mark.parametrize(
        "rows, cols, n",
        [
            (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4),
            (np.array([2, 2, 2]), np.array([2, 2, 2]), 5),  # only self-links
            (np.array([0, 3, 3, 1]), np.array([3, 0, 0, 1]), 4),
        ],
        ids=["empty", "self-links-only", "reciprocal"],
    )
    def test_symmetrize_edge_cases(self, rows, cols, n):
        assert_same(symmetrize_flat(rows, cols, n), oracle.symmetrize_flat(rows, cols, n))

    def test_split_rows_matches_oracle(self):
        rng = np.random.default_rng(12)
        n = 300
        keys = np.unique(rng.integers(5 * n, (n - 7) * n, 4000))  # empty end rows
        assert_same(split_rows(keys, n), oracle.split_rows(keys, n))
        assert_same(
            split_rows(np.empty(0, dtype=np.int64), n),
            oracle.split_rows(np.empty(0, dtype=np.int64), n),
        )

    def test_accumulator_matches_merge_every_round(self):
        rng = np.random.default_rng(13)
        n = 200
        links = PairAccumulator(n, n)
        held = np.empty(0, dtype=np.int64)
        for size in (3000, 500, 40, 0, 7):
            rows = np.sort(rng.integers(0, n, size))
            cols = rng.integers(0, n, size)
            links.add(rows, cols)
            held = oracle.merge_row_pairs(held, rows, cols, n)
            np.testing.assert_array_equal(links.counts, oracle.row_counts(held, n))
        np.testing.assert_array_equal(links.keys(), held)
        assert_same(links.split(), oracle.split_rows(held, n))

    def test_accumulator_seed_and_row_order(self):
        seed = np.array([1 * 10 + 4, 1 * 10 + 7, 3 * 10 + 0], dtype=np.int64)
        links = PairAccumulator(5, 10, seed=seed)
        np.testing.assert_array_equal(links.counts, [0, 2, 0, 1, 0])
        links.add(np.array([1, 1, 2]), np.array([7, 8, 8]))  # (1, 7) is held
        np.testing.assert_array_equal(links.counts, [0, 3, 1, 1, 0])
        np.testing.assert_array_equal(links.keys(), [14, 17, 18, 28, 30])
        with pytest.raises(ValueError, match="non-decreasing"):
            links.add(np.array([3, 1]), np.array([0, 0]))


class TestExactAndComparators:
    @pytest.mark.parametrize("space", SPACES, ids=SPACE_IDS)
    @pytest.mark.parametrize("dedupe", [True, False])
    def test_bulk_exact_links_matches_oracle(self, space, dedupe):
        pos = positions("skewed", 700)
        args = (pos, 9, 1.0 / 700, space)
        new = bulk_exact_links(*args, np.random.default_rng(14), dedupe=dedupe, block_size=64)
        old = oracle.bulk_exact_links(
            *args, np.random.default_rng(14), dedupe=dedupe, block_size=64
        )
        assert_same(new, old)

    @pytest.mark.parametrize("kind", ["uniform", "naive"])
    def test_symphony_matches_oracle(self, kind):
        ids = positions(kind, 5000, seed=15)
        new = SymphonyOverlay(ids, np.random.default_rng(16), k=4)
        old = oracle.RoundsSymphony(ids, np.random.default_rng(16), k=4)
        assert_same(csr_arrays(new.csr), csr_arrays(old.csr))

    @pytest.mark.parametrize("kind", ["uniform", "naive"])
    def test_mercury_matches_oracle(self, kind):
        ids = positions(kind, 3000, seed=17)
        new = MercuryOverlay(ids, np.random.default_rng(18))
        old = oracle.RoundsMercury(ids, np.random.default_rng(18))
        assert_same(csr_arrays(new.csr), csr_arrays(old.csr))


def network_state(net) -> tuple:
    snap = net.snapshot().adjacency
    slots = net._slot_at
    return (
        net.ids_array(),
        net._link_tg[slots],
        net._link_hint[slots],
        net._link_cnt[slots],
        snap.indptr,
        snap.indices,
    )


class TestResolveLinks:
    def test_seeded_call_matches_oracle(self):
        rng = np.random.default_rng(19)
        live = np.sort(DIST.sample(2000, rng))
        members = np.sort(rng.choice(2000, 300, replace=False)).astype(np.int64)
        m, n = len(members), len(live)
        seed_rows = np.repeat(np.arange(m, dtype=np.int64), 3)
        seeds = np.unique(seed_rows * n + rng.integers(0, n, len(seed_rows)))
        want = np.full(m, 11, dtype=np.int64)
        cutoff = np.full(m, 1.0 / n)
        for space in SPACES:
            args = (live, space)
            rest = (members, want, DIST.cdf, DIST.ppf, cutoff, seeds, 8)
            new = bulk_dynamics._resolve_links(*args, np.random.default_rng(20), *rest)
            old = oracle._resolve_links(*args, np.random.default_rng(20), *rest)
            np.testing.assert_array_equal(new[0], old[0])
            assert new[1] == old[1]

    @pytest.mark.parametrize("dist", [Uniform(), PowerLaw(alpha=1.5, shift=1e-3)])
    def test_join_leave_repair_match_oracle(self, dist, monkeypatch):
        """Bootstrap, bulk join, bulk leave and a seeded bulk repair."""

        def run(resolve):
            monkeypatch.setattr(bulk_dynamics, "_resolve_links", resolve)
            rng = np.random.default_rng(21)
            net = bulk_bootstrap(dist, 600, rng)
            states, reports = [network_state(net)], []
            reports.append(bulk_join(net, sample_cohort_ids(net, dist, 150, rng), dist, rng))
            states.append(network_state(net))
            bulk_leave(net, rng.choice(net.ids_array(), 120, replace=False))
            # Kept links seed the repair, so it tops rows up around them.
            reports.append(bulk_repair(net, rng, distribution=dist))
            states.append(network_state(net))
            reports.append(bulk_repair(net, rng, fraction=0.5))
            states.append(network_state(net))
            return states, reports

        new_states, new_reports = run(bulk_dynamics._resolve_links)
        old_states, old_reports = run(oracle._resolve_links)
        assert new_reports == old_reports
        assert new_reports[1].dangling_dropped > 0
        for new, old in zip(new_states, old_states):
            assert_same(new, old)
