"""Tests for the bulk construction engine (repro.core.bulk_construction).

Covers the kernel itself, equivalence with the per-peer samplers of
``builder_oracle.py`` (exact invariants plus KS-level statistical
equivalence at n >= 2e3, E7-style), direct CSR assembly, the vectorized
symmetrize, and the baseline bulk builders that ride on the same
primitives.
"""

import numpy as np
import pytest
from builder_oracle import ExactSampler, FastSampler, build_per_peer, make_sampler
from route_oracle import long_link_rows

from repro.analysis import ks_two_sample
from repro.core import (
    CSRAdjacency,
    GraphConfig,
    SmallWorldGraph,
    build_from_positions,
    build_skewed_model,
    build_uniform_model,
    bulk_exact_links,
    bulk_harmonic_positions,
    bulk_links,
    symmetrize_flat,
)
from repro.core.links import harmonic_target_positions
from repro.distributions import PowerLaw
from repro.keyspace import IntervalSpace, RingSpace


def rows_of(indptr, flat):
    return [flat[indptr[i] : indptr[i + 1]] for i in range(len(indptr) - 1)]


class TestBulkHarmonicPositions:
    def test_matches_scalar_delegation_exactly(self):
        # The scalar function delegates to this kernel: same seed, same draws.
        for space in (IntervalSpace(), RingSpace()):
            a = harmonic_target_positions(
                0.3, 7, 0.01, space, np.random.default_rng(7)
            )
            b, valid = bulk_harmonic_positions(
                np.full(7, 0.3), 0.01, space, np.random.default_rng(7)
            )
            assert valid.all()
            assert np.array_equal(a, b)

    def test_within_space_and_cutoff(self, rng):
        pos = np.full(5000, 0.4)
        targets, valid = bulk_harmonic_positions(pos, 0.02, IntervalSpace(), rng)
        assert valid.all()
        assert np.all((targets >= 0.0) & (targets < 1.0))
        assert np.all(np.abs(targets - 0.4) >= 0.02 - 1e-12)

    def test_heterogeneous_positions(self, rng):
        pos = np.array([0.0, 0.25, 0.5, 0.999])
        targets, valid = bulk_harmonic_positions(pos, 0.01, IntervalSpace(), rng)
        assert valid.all()
        assert np.all((targets >= 0.0) & (targets < 1.0))

    def test_no_mass_flagged_invalid(self, rng):
        targets, valid = bulk_harmonic_positions(
            np.array([0.5]), 0.6, IntervalSpace(), rng
        )
        assert not valid.any()
        assert targets[0] == 0.5  # echoes the input position

    def test_rejects_bad_cutoff(self, rng):
        with pytest.raises(ValueError):
            bulk_harmonic_positions(np.array([0.5]), 0.0, IntervalSpace(), rng)


class TestBulkLinksInvariants:
    @pytest.mark.parametrize("space", [IntervalSpace(), RingSpace()])
    def test_degree_cutoff_dedupe_no_self(self, space, rng):
        positions = np.sort(rng.random(2048))
        k, cutoff = 11, 1.0 / 2048
        indptr, flat = bulk_links(positions, k, cutoff, space, rng)
        assert indptr[-1] == len(flat)
        for i, links in enumerate(rows_of(indptr, flat)):
            # Healthy population: the full budget is met, distinct, sorted.
            assert len(links) == k
            assert len(set(links.tolist())) == k
            assert np.all(np.diff(links) > 0)
            assert i not in links
            for j in links:
                assert space.distance(
                    float(positions[i]), float(positions[j])
                ) >= cutoff

    def test_zero_k_and_tiny_population(self, rng):
        positions = np.sort(rng.random(64))
        indptr, flat = bulk_links(positions, 0, 1 / 64, IntervalSpace(), rng)
        assert len(flat) == 0 and indptr[-1] == 0
        indptr, flat = bulk_links(
            np.array([0.5]), 4, 0.1, IntervalSpace(), rng
        )
        assert len(flat) == 0

    def test_no_mass_rows_empty(self, rng):
        # Cutoff beyond both spans: no links anywhere (matches FastSampler).
        positions = np.array([0.49, 0.5, 0.51])
        indptr, flat = bulk_links(positions, 3, 0.9, IntervalSpace(), rng)
        assert len(flat) == 0

    def test_fallback_fills_hard_rows(self, rng):
        # Only a handful of peers sit beyond the cutoff: random rounds
        # plus the deterministic fallback must still meet the budget.
        positions = np.array([0.1, 0.101, 0.102, 0.6, 0.8, 0.95])
        indptr, flat = bulk_links(positions, 3, 0.3, IntervalSpace(), rng)
        links0 = rows_of(indptr, flat)[0]
        assert set(links0.tolist()) == {3, 4, 5}

    def test_dedupe_false_collapses_duplicates(self, rng):
        positions = np.sort(rng.random(512))
        indptr, flat = bulk_links(
            positions, 9, 1 / 512, IntervalSpace(), rng, dedupe=False
        )
        for i, links in enumerate(rows_of(indptr, flat)):
            assert 0 < len(links) <= 9  # iid draws, duplicates collapsed
            assert len(set(links.tolist())) == len(links)
            assert i not in links

    def test_rejects_bad_arguments(self, rng):
        with pytest.raises(ValueError):
            bulk_links(np.array([0.2, 0.1]), 2, 0.1, IntervalSpace(), rng)
        with pytest.raises(ValueError):
            bulk_links(np.array([0.1, 0.2]), -1, 0.1, IntervalSpace(), rng)
        with pytest.raises(ValueError):
            bulk_links(np.array([0.1, 0.2]), 2, 0.0, IntervalSpace(), rng)


class TestBulkScalarEquivalence:
    """The E7-style claim, as a regression test: bulk == fast statistically."""

    def _lengths(self, graph):
        return graph.long_link_lengths(normalized=True)

    @pytest.mark.parametrize("builder", ["uniform", "skewed"])
    def test_link_length_distributions_match(self, builder):
        n = 2048
        dist = PowerLaw(alpha=1.5, shift=1e-3)
        seed_rng = np.random.default_rng(42)
        ids = (
            np.sort(seed_rng.random(n))
            if builder == "uniform"
            else np.sort(dist.sample(n, seed_rng))
        )

        rng = np.random.default_rng(1)
        if builder == "uniform":
            graph = build_uniform_model(ids=ids, rng=rng)
            normalized = ids
        else:
            graph = build_skewed_model(dist, ids=ids, rng=rng)
            normalized = dist.cdf(ids)
        fast = build_per_peer(ids, normalized, np.random.default_rng(2), kind="fast")

        lengths_bulk = self._lengths(graph)
        lengths_fast = self._lengths(fast)
        ks = ks_two_sample(lengths_bulk, lengths_fast)
        assert ks.p_value > 0.01, (ks.statistic, ks.p_value)
        # Same per-peer budget on a healthy population.
        assert len(lengths_bulk) == len(lengths_fast)

    def test_exact_bulk_matches_exact_scalar(self, rng):
        n = 2048
        positions = np.sort(rng.random(n))
        k, cutoff = 8, 1.0 / n
        space = IntervalSpace()
        indptr, flat = bulk_exact_links(positions, k, cutoff, space, rng)
        exact = ExactSampler()
        lengths_bulk, lengths_scalar = [], []
        for i, links in enumerate(rows_of(indptr, flat)):
            assert len(links) == k
            assert i not in links
            for j in links:
                assert abs(positions[j] - positions[i]) >= cutoff
                lengths_bulk.append(abs(positions[j] - positions[i]))
        for i in range(0, n, 2):
            for j in exact.sample(positions, i, k, cutoff, space, rng):
                lengths_scalar.append(abs(positions[j] - positions[i]))
        ks = ks_two_sample(np.asarray(lengths_bulk), np.asarray(lengths_scalar))
        assert ks.p_value > 0.01, (ks.statistic, ks.p_value)

    def test_exact_bulk_dedupe_false(self, rng):
        positions = np.sort(rng.random(256))
        indptr, flat = bulk_exact_links(
            positions, 12, 1 / 256, IntervalSpace(), rng, dedupe=False
        )
        for i, links in enumerate(rows_of(indptr, flat)):
            assert 0 < len(links) <= 12
            assert i not in links

    def test_bulk_matches_fast_median_log_length(self, rng):
        # Coarse distribution check in the style of the scalar sampler tests.
        positions = np.sort(rng.random(2048))
        cutoff = 1.0 / 2048
        indptr, flat = bulk_links(positions, 6, cutoff, IntervalSpace(), rng)
        fast = FastSampler()
        lengths_bulk = [
            abs(positions[j] - positions[i])
            for i, links in enumerate(rows_of(indptr, flat))
            for j in links
        ]
        lengths_fast = [
            abs(positions[j] - positions[i])
            for i in range(0, 2048, 2)
            for j in fast.sample(positions, i, 6, cutoff, IntervalSpace(), rng)
        ]
        med_diff = abs(
            np.median(np.log(lengths_bulk)) - np.median(np.log(lengths_fast))
        )
        assert med_diff < 0.25


class TestDirectCSRAssembly:
    def test_graph_born_with_adjacency(self, rng):
        graph = build_uniform_model(n=512, rng=rng)
        assert isinstance(graph.__dict__["adjacency"], CSRAdjacency)

    def test_cached_csr_equals_rebuilt(self, rng):
        """The CSR rebuilt from the graph's long-link rows is the CSR."""
        for config in (GraphConfig(), GraphConfig(space=RingSpace())):
            graph = build_uniform_model(n=512, rng=rng, config=config)
            cached = graph.adjacency
            indptr = np.zeros(graph.n + 1, dtype=np.int64)
            np.cumsum(graph.long_degrees(), out=indptr[1:])
            flat = np.concatenate(list(graph.long_links))
            fresh = SmallWorldGraph.from_flat_links(
                graph.ids, graph.normalized_ids, indptr, flat, space=config.space
            ).adjacency
            assert np.array_equal(cached.indptr, fresh.indptr)
            assert np.array_equal(cached.indices, fresh.indices)
            assert np.array_equal(cached.long_start, fresh.long_start)

    def test_from_flat_links_views(self, rng):
        ids = np.sort(rng.random(8))
        indptr = np.array([0, 2, 2, 3, 3, 3, 3, 3, 3], dtype=np.int64)
        flat = np.array([2, 3, 0], dtype=np.int64)
        graph = SmallWorldGraph.from_flat_links(ids, ids.copy(), indptr, flat)
        assert [l.tolist() for l in graph.long_links[:3]] == [[2, 3], [], [0]]
        assert graph.adjacency.n == 8


class TestSymmetrize:
    def test_flat_symmetrize_reference(self):
        rows = np.array([0, 0, 1, 3], dtype=np.int64)
        cols = np.array([1, 2, 2, 3], dtype=np.int64)  # includes a self-link
        indptr, flat = symmetrize_flat(rows, cols, 4)
        got = [flat[indptr[i] : indptr[i + 1]].tolist() for i in range(4)]
        assert got == [[1, 2], [0, 2], [0, 1], []]

    @pytest.mark.parametrize("sampler", ["bulk", "fast"])
    def test_bidirectional_builder_paths_agree_with_setwise(self, sampler, rng):
        ids = np.sort(rng.random(256))
        config = GraphConfig(bidirectional=True)
        if sampler == "bulk":
            graph = build_from_positions(ids, ids.copy(), rng, config=config)
        else:
            graph = build_per_peer(ids, ids.copy(), rng, config=config, kind=sampler)
        link_sets = [set(l.tolist()) for l in graph.long_links]
        for i, targets in enumerate(link_sets):
            assert i not in targets
            for j in targets:
                assert i in link_sets[j]
        for links in graph.long_links:
            assert np.all(np.diff(links) > 0)  # sorted, distinct


class TestBaselineBulkBuilders:
    def test_chord_fingers_match_scalar_successor(self, rng):
        from repro.baselines import ChordOverlay
        from repro.keyspace import successor_index

        overlay = ChordOverlay(rng.random(200))
        offsets = 2.0 ** (-np.arange(1, overlay.m + 1))
        for u in range(0, 200, 17):
            points = (overlay.ids[u] + offsets) % 1.0
            expected = [successor_index(overlay.ids, float(p)) for p in points]
            assert overlay.fingers[u].tolist() == expected

    def test_symphony_links_valid_and_budgeted(self, rng):
        from repro.baselines import SymphonyOverlay

        overlay = SymphonyOverlay(rng.random(1024), rng, k=4)
        degrees = overlay.csr.long_degrees()
        assert np.mean(degrees) > 3.5  # budget met nearly everywhere
        for u, links in enumerate(long_link_rows(overlay.csr)):
            assert len(links) <= 4
            assert u not in links
            assert len(set(links.tolist())) == len(links)

    def test_symphony_spans_are_harmonic(self, rng):
        from repro.baselines import SymphonyOverlay

        n = 4096
        overlay = SymphonyOverlay(np.sort(rng.random(n)), rng, k=4)
        spans = []
        for u, links in enumerate(long_link_rows(overlay.csr)):
            for j in links:
                spans.append((overlay.ids[j] - overlay.ids[u]) % 1.0)
        # Harmonic draws on [1/N, 1]: median log-span sits midway.
        med = np.median(np.log(spans))
        expected = 0.5 * (np.log(1.0 / n) + 0.0)
        assert abs(med - expected) < 0.3


class TestBuilderDispatch:
    def test_unknown_sampler_raises(self, rng):
        ids = np.sort(rng.random(32))
        with pytest.raises(ValueError):
            build_from_positions(
                ids, ids.copy(), rng, config=GraphConfig(sampler="quantum")
            )

    @pytest.mark.parametrize("sampler", ["fast", "exact-bulk"])
    def test_retired_sampler_names_raise(self, sampler, rng):
        ids = np.sort(rng.random(32))
        with pytest.raises(ValueError, match="'bulk' or 'exact'"):
            build_from_positions(
                ids, ids.copy(), rng, config=GraphConfig(sampler=sampler)
            )

    def test_make_sampler_rejects_bulk(self):
        with pytest.raises(ValueError):
            make_sampler("bulk")

    def test_default_config_is_bulk(self):
        assert GraphConfig().sampler == "bulk"
