"""Unit tests for the CSR adjacency layer."""

import numpy as np
import pytest

from repro.core import (
    CSRAdjacency,
    GraphConfig,
    build_uniform_model,
)
from repro.keyspace import IntervalSpace, RingSpace


def _expected_neighbors(graph, i):
    """Peer ``i``'s ring/interval neighbours, left before right."""
    n = graph.n
    if not graph.space.is_ring:
        return [j for j in (i - 1, i + 1) if 0 <= j < n]
    left, right = (i - 1) % n, (i + 1) % n
    return [] if n == 1 else [left] if left == right else [left, right]


def _graphs_for(rng):
    """A spread of shapes: both spaces, tiny to medium, zero outdegree."""
    return [
        build_uniform_model(n=1, rng=rng),
        build_uniform_model(n=2, rng=rng),
        build_uniform_model(n=2, rng=rng, config=GraphConfig(space=RingSpace())),
        build_uniform_model(n=3, rng=rng, config=GraphConfig(space=RingSpace())),
        build_uniform_model(n=50, rng=rng),
        build_uniform_model(n=50, rng=rng, config=GraphConfig(space=RingSpace())),
        build_uniform_model(n=40, rng=rng, config=GraphConfig(out_degree=0)),
        build_uniform_model(n=200, rng=rng),
    ]


class TestBuildCSR:
    def test_rows_match_out_links_order(self, rng):
        """Each CSR row = ring/interval neighbours, then long links in order."""
        for graph in _graphs_for(rng):
            csr = graph.adjacency
            for i in range(graph.n):
                expected = _expected_neighbors(graph, i) + [
                    int(j) for j in graph.long_links[i]
                ]
                assert csr.row(i).tolist() == expected, (graph, i)
                assert list(graph.neighbor_indices(i)) == _expected_neighbors(graph, i)

    def test_long_start_after_neighbours(self, rng):
        for graph in _graphs_for(rng):
            csr = graph.adjacency
            mask = csr.long_mask()
            for i in range(graph.n):
                n_nbrs = len(_expected_neighbors(graph, i))
                assert csr.long_start[i] == csr.indptr[i] + n_nbrs
                flags = mask[csr.indptr[i] : csr.indptr[i + 1]]
                assert not flags[:n_nbrs].any()
                assert flags[n_nbrs:].all()

    def test_edge_totals(self, rng):
        for graph in _graphs_for(rng):
            csr = graph.adjacency
            assert int(csr.long_mask().sum()) == graph.total_long_links()
            assert csr.n == graph.n
            assert csr.n_edges == int(csr.indptr[-1])

    def test_edge_sources_aligned(self, rng):
        graph = build_uniform_model(n=60, rng=rng)
        csr = graph.adjacency
        sources = csr.edge_sources()
        for i in range(graph.n):
            assert (sources[csr.indptr[i] : csr.indptr[i + 1]] == i).all()

    def test_cached_once_per_graph(self, rng):
        graph = build_uniform_model(n=30, rng=rng)
        assert graph.adjacency is graph.adjacency
        assert graph.long_links is graph.long_links

    def test_validation_rejects_garbage(self):
        with pytest.raises(ValueError):
            CSRAdjacency(
                indptr=np.array([0, 2], dtype=np.int64),
                indices=np.array([0], dtype=np.int64),
                long_start=np.array([0]),
            )
        with pytest.raises(ValueError):
            CSRAdjacency(
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([5], dtype=np.int64),  # out of range for n=1
                long_start=np.array([0]),
            )

    @pytest.mark.parametrize(
        "long_start", [[-1, 2, 3], [0, 1, 3], [3, 2, 3], [0, 4, 3], [0, 2, 4]]
    )
    def test_long_start_outside_its_row_is_rejected(self, long_start):
        with pytest.raises(ValueError, match="long_start must lie inside its row"):
            CSRAdjacency(
                indptr=np.array([0, 2, 3, 3]),
                indices=np.array([1, 2, 0]),
                long_start=np.array(long_start),
            )

    def test_long_start_needs_one_entry_per_row(self):
        with pytest.raises(ValueError, match="one entry per row"):
            CSRAdjacency(
                indptr=np.array([0, 2, 3, 3]),
                indices=np.array([1, 2, 0]),
                long_start=np.array([0, 2]),
            )

    def test_long_mask_and_degrees_follow_the_boundaries(self):
        csr = CSRAdjacency(
            indptr=np.array([0, 3, 3, 5, 6]),
            indices=np.array([1, 2, 3, 0, 1, 2]),
            long_start=np.array([1, 3, 5, 5]),
        )
        assert csr.long_mask().tolist() == [False, True, True, False, False, True]
        assert csr.long_degrees().tolist() == [2, 0, 0, 1]

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint32])
    def test_edge_targets_in_range_are_accepted(self, dtype):
        indices = np.array([0, 2, 1], dtype=dtype)
        csr = CSRAdjacency(
            indptr=np.array([0, 2, 3, 3]), indices=indices, long_start=np.array([0, 2, 3])
        )
        assert csr.indices is indices

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
    @pytest.mark.parametrize("target", [-1, -128, 3, 127])
    def test_edge_targets_below_zero_or_from_n_are_rejected(self, dtype, target):
        """One max over the unsigned view catches both ends: a negative
        target wraps above every n."""
        with pytest.raises(ValueError, match="edge targets out of range"):
            CSRAdjacency(
                indptr=np.array([0, 2, 3, 3]),
                indices=np.array([0, target, 1], dtype=dtype),
                long_start=np.array([0, 2, 3]),
            )

    def test_edge_targets_must_be_integers(self):
        with pytest.raises(ValueError, match="must be integers"):
            CSRAdjacency(
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([0.0]),
                long_start=np.array([0]),
            )


class TestVectorizedGraphHelpers:
    def test_out_degrees_match_loop(self, rng):
        for graph in _graphs_for(rng):
            expected = [
                len(graph.neighbor_indices(i)) + len(graph.long_links[i])
                for i in range(graph.n)
            ]
            assert graph.out_degrees().tolist() == expected

    @pytest.mark.parametrize("normalized", [True, False])
    def test_long_link_lengths_match_loop(self, rng, normalized):
        for graph in _graphs_for(rng):
            positions = graph.normalized_ids if normalized else graph.ids
            expected = []
            for i in range(graph.n):
                src = float(positions[i])
                for j in graph.long_links[i]:
                    expected.append(graph.space.distance(src, float(positions[j])))
            got = graph.long_link_lengths(normalized=normalized)
            assert np.array_equal(got, np.asarray(expected, dtype=float))

    def test_interval_endpoints_single_neighbor(self, rng):
        graph = build_uniform_model(
            n=10, rng=rng, config=GraphConfig(space=IntervalSpace(), out_degree=0)
        )
        degrees = graph.out_degrees()
        assert degrees[0] == 1 and degrees[-1] == 1
        assert (degrees[1:-1] == 2).all()
