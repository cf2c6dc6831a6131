"""Unit tests for the SmallWorldGraph data structure."""

import pickle

import numpy as np
import pytest

from repro.core import GraphConfig, SmallWorldGraph, build_uniform_model
from repro.core.graph import LongLinkRows
from repro.keyspace import IntervalSpace, RingSpace


def make_graph(space=None, n=5):
    ids = np.linspace(0.1, 0.9, n)
    links = [np.empty(0, dtype=np.int64) for _ in range(n)]
    links[0] = np.array([3], dtype=np.int64)
    return SmallWorldGraph(
        ids=ids,
        normalized_ids=ids.copy(),
        long_links=links,
        space=space or IntervalSpace(),
    )


class TestConstruction:
    def test_validates_sorted_ids(self):
        with pytest.raises(ValueError):
            SmallWorldGraph(
                ids=np.array([0.5, 0.2]),
                normalized_ids=np.array([0.5, 0.2]),
                long_links=[np.empty(0, int), np.empty(0, int)],
            )

    def test_validates_matching_lengths(self):
        with pytest.raises(ValueError):
            SmallWorldGraph(
                ids=np.array([0.1, 0.2]),
                normalized_ids=np.array([0.1]),
                long_links=[np.empty(0, int), np.empty(0, int)],
            )

    def test_validates_links_per_peer(self):
        with pytest.raises(ValueError):
            SmallWorldGraph(
                ids=np.array([0.1, 0.2]),
                normalized_ids=np.array([0.1, 0.2]),
                long_links=[np.empty(0, int)],
            )

    def test_len_and_n(self):
        graph = make_graph()
        assert len(graph) == graph.n == 5


class TestNeighbors:
    def test_interval_interior(self):
        graph = make_graph()
        assert graph.neighbor_indices(2) == (1, 3)

    def test_interval_endpoints_one_sided(self):
        graph = make_graph()
        assert graph.neighbor_indices(0) == (1,)
        assert graph.neighbor_indices(4) == (3,)

    def test_ring_wraps(self):
        graph = make_graph(space=RingSpace())
        assert graph.neighbor_indices(0) == (4, 1)
        assert graph.neighbor_indices(4) == (3, 0)

    def test_two_peer_ring_single_neighbor(self):
        ids = np.array([0.2, 0.7])
        graph = SmallWorldGraph(
            ids=ids,
            normalized_ids=ids.copy(),
            long_links=[np.empty(0, int)] * 2,
            space=RingSpace(),
        )
        assert graph.neighbor_indices(0) == (1,)

    def test_out_links_include_long(self):
        graph = make_graph()
        assert set(graph.out_links(0).tolist()) == {1, 3}

    def test_out_degrees(self):
        graph = make_graph()
        degrees = graph.out_degrees()
        assert degrees[0] == 2  # one neighbour + one long link
        assert degrees[2] == 2  # two neighbours


class TestOwnership:
    def test_owner_is_nearest(self):
        graph = make_graph()
        assert graph.owner_of(0.12) == 0
        assert graph.owner_of(0.49) == 2

    def test_normalized_key_identity_by_default(self):
        graph = make_graph()
        assert graph.normalized_key(0.42) == pytest.approx(0.42)


class TestAnalysisHelpers:
    def test_long_link_lengths(self):
        graph = make_graph()
        lengths = graph.long_link_lengths()
        assert len(lengths) == 1
        assert lengths[0] == pytest.approx(0.6)  # 0.1 -> 0.7

    def test_total_long_links(self, uniform_graph):
        total = uniform_graph.total_long_links()
        assert total == sum(len(l) for l in uniform_graph.long_links)
        # log2(1024) = 10 links per peer, minus rare shortfalls.
        assert total > 0.9 * 10 * uniform_graph.n

    def test_to_networkx_roundtrip(self):
        nx = pytest.importorskip("networkx")
        graph = make_graph()
        g = graph.to_networkx()
        assert g.number_of_nodes() == 5
        kinds = {data["kind"] for *_e, data in g.edges(data=True)}
        assert kinds == {"neighbor", "long"}
        assert g.has_edge(0, 3)

    def test_repr_mentions_model(self, uniform_graph):
        assert "uniform" in repr(uniform_graph)


class TestBuiltGraphInvariants:
    def test_out_degree_matches_config(self, rng):
        graph = build_uniform_model(n=256, rng=rng, config=GraphConfig(out_degree=5))
        for links in graph.long_links:
            assert len(links) <= 5
        assert np.mean([len(l) for l in graph.long_links]) > 4.5

    def test_no_self_links(self, uniform_graph):
        for i, links in enumerate(uniform_graph.long_links):
            assert i not in set(links.tolist())

    def test_links_are_deduped(self, uniform_graph):
        for links in uniform_graph.long_links:
            assert len(links) == len(set(links.tolist()))

    def test_cutoff_respected(self, uniform_graph):
        cutoff = uniform_graph.cutoff_mass
        for i, links in enumerate(uniform_graph.long_links):
            src = uniform_graph.normalized_ids[i]
            for j in links:
                dist = uniform_graph.space.distance(
                    float(src), float(uniform_graph.normalized_ids[int(j)])
                )
                assert dist >= cutoff - 1e-12

    def test_ids_sorted(self, uniform_graph):
        assert np.all(np.diff(uniform_graph.ids) >= 0)


class TestLongLinkRows:
    """The lazy per-peer view every flat-built or loaded graph exposes."""

    @pytest.fixture
    def rows(self):
        return LongLinkRows.from_indptr(
            np.array([0, 2, 2, 5]), np.array([4, 7, 1, 2, 3], dtype=np.int64)
        )

    def test_len_lengths_and_indexing(self, rows):
        assert len(rows) == 3
        np.testing.assert_array_equal(rows.lengths(), [2, 0, 3])
        assert rows[0].tolist() == [4, 7]
        assert rows[np.int64(1)].tolist() == []
        assert rows[-1].tolist() == [1, 2, 3]
        with pytest.raises(IndexError):
            rows[3]
        with pytest.raises(IndexError):
            rows[-4]

    def test_slicing_returns_a_list_of_rows(self, rows):
        sliced = rows[::2]
        assert isinstance(sliced, list)
        assert [r.tolist() for r in sliced] == [[4, 7], [1, 2, 3]]
        assert [r.tolist() for r in rows] == [[4, 7], [], [1, 2, 3]]

    def test_rows_are_read_only_views(self, rows):
        with pytest.raises(ValueError):
            rows[0][0] = 9

    def test_pickle_round_trip_stays_read_only(self, rows):
        back = pickle.loads(pickle.dumps(rows))
        assert [r.tolist() for r in back] == [r.tolist() for r in rows]
        with pytest.raises(ValueError):
            back[2][0] = 9

    @pytest.mark.parametrize("space", [IntervalSpace(), RingSpace()])
    def test_flat_built_graph_rows_skip_neighbours(self, space, rng):
        graph = build_uniform_model(200, rng, GraphConfig(out_degree=5, space=space))
        assert isinstance(graph.long_links, LongLinkRows)
        csr = graph.adjacency
        for i in (0, 1, 100, 199):
            np.testing.assert_array_equal(graph.long_links[i], csr.row(i)[csr.row_is_long(i)])
        assert graph.total_long_links() == int(csr.is_long.sum())
