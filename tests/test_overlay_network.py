"""Unit tests for the live Network overlay.

The ``small_net`` fixture runs every behavioural test on both the
slab-backed :class:`Network` ("array") and the dict-of-lists reference
in ``tests/overlay_oracle.py`` ("scalar"), so the two cannot drift.
"""

import numpy as np
import pytest
from overlay_oracle import OracleNetwork

from repro.keyspace import RingSpace
from repro.overlay import Network


@pytest.fixture(params=["array", "scalar"])
def small_net(request):
    net = Network() if request.param == "array" else OracleNetwork()
    for peer_id in (0.1, 0.3, 0.5, 0.7, 0.9):
        net.add_peer(peer_id)
    return net


class TestPopulation:
    def test_add_and_len(self, small_net):
        assert len(small_net) == 5
        assert 0.5 in small_net

    def test_ids_sorted(self, small_net):
        ids = small_net.ids_array()
        assert np.all(np.diff(ids) > 0)

    def test_duplicate_rejected(self, small_net):
        with pytest.raises(ValueError):
            small_net.add_peer(0.5)

    def test_out_of_range_rejected(self, small_net):
        with pytest.raises(ValueError):
            small_net.add_peer(1.0)

    def test_remove(self, small_net):
        small_net.remove_peer(0.5)
        assert 0.5 not in small_net
        assert len(small_net) == 4

    def test_remove_missing_raises(self, small_net):
        with pytest.raises(KeyError):
            small_net.remove_peer(0.42)

    def test_peer_state_access(self, small_net):
        state = small_net.peer(0.3)
        assert state.peer_id == 0.3
        with pytest.raises(KeyError):
            small_net.peer(0.42)


class TestNeighbors:
    def test_interval_interior(self, small_net):
        assert small_net.neighbors_of(0.5) == (0.3, 0.7)

    def test_interval_endpoints(self, small_net):
        assert small_net.neighbors_of(0.1) == (0.3,)
        assert small_net.neighbors_of(0.9) == (0.7,)

    def test_ring_wraps(self):
        net = Network(space=RingSpace())
        for x in (0.1, 0.5, 0.9):
            net.add_peer(x)
        assert net.neighbors_of(0.1) == (0.9, 0.5)

    def test_owner_of(self, small_net):
        assert small_net.owner_of(0.31) == 0.3
        assert small_net.owner_of(0.05) == 0.1

    def test_owner_empty_raises(self):
        with pytest.raises(ValueError):
            Network().owner_of(0.5)

    def test_random_peer(self, small_net, rng):
        for _ in range(10):
            assert small_net.random_peer(rng) in small_net


class TestRouting:
    def test_route_via_neighbors_only(self, small_net):
        result = small_net.route(0.1, 0.9)
        assert result.success
        assert result.hops == 4  # pure neighbour walk
        assert result.path == [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_long_link_shortcut(self, small_net):
        small_net.peer(0.1).long_links.append(0.7)
        result = small_net.route(0.1, 0.9)
        assert result.success
        assert result.hops == 2
        assert result.long_hops == 1

    def test_dangling_link_skipped(self, small_net):
        small_net.peer(0.1).long_links.append(0.42)  # no such peer
        result = small_net.route(0.1, 0.9)
        assert result.success
        assert result.dangling_links_seen >= 1

    def test_route_to_own_key(self, small_net):
        result = small_net.route(0.5, 0.5)
        assert result.success
        assert result.hops == 0

    def test_unknown_source_raises(self, small_net):
        with pytest.raises(KeyError):
            small_net.route(0.42, 0.9)

    def test_max_hops(self, small_net):
        result = small_net.route(0.1, 0.9, max_hops=1)
        assert not result.success
        assert result.reason == "max_hops"

    def test_dangling_count(self, small_net):
        small_net.peer(0.1).long_links.extend([0.7, 0.42])
        assert small_net.dangling_link_count() == 1

    def test_mean_long_degree(self, small_net):
        small_net.peer(0.1).long_links.extend([0.7, 0.9])
        assert small_net.mean_long_degree() == pytest.approx(2 / 5)

