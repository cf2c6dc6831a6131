"""Dedicated suite for lookahead (neighbour-of-neighbour) routing.

Pins the scalar router (:func:`repro.core.lookahead_route`) hop for hop
against :func:`oracle_lookahead`, an independent restatement of its rule
on the graph's CSR rows, on static graphs — both spaces, both metrics,
exhausted budgets — and on a live :class:`Network` snapshot after churn,
so the live overlay and the static builders route alike.
"""

import numpy as np
import pytest

from repro.core import (
    GraphConfig,
    build_uniform_model,
    greedy_route,
    lookahead_route,
)
from repro.distributions import PowerLaw
from repro.keyspace import RingSpace
from repro.overlay import ChurnConfig, Network, bulk_bootstrap, run_churn


def oracle_lookahead(graph, source, key, metric="key", max_hops=None):
    """Route one lookup by the lookahead rule, read off ``graph.adjacency``.

    Every peer's prospect is the best distance among itself and its CSR
    row; a step moves to the row entry with the lexicographically
    smallest ``(prospect, distance)``, first in row order on ties, among
    entries closer than the current peer (or the owner itself), provided
    it beats ``(current distance, current distance)``.

    Returns ``(success, hops, neighbor_hops, long_hops, owner, reason,
    path)`` in the field order of :class:`repro.core.RouteResult`.
    """
    csr = graph.adjacency
    if metric == "key":
        positions, target = graph.ids, float(key)
    else:
        positions, target = graph.normalized_ids, graph.normalized_key(key)
    dist = graph.space.pairwise_distances(positions, target)
    owner = int(np.argmin(dist))
    prospect = dist.copy()
    rows = np.repeat(np.arange(graph.n), np.diff(csr.indptr))
    np.minimum.at(prospect, rows, dist[csr.indices])
    max_hops = graph.n if max_hops is None else max_hops
    node, path, long_hops, reason = int(source), [int(source)], 0, "arrived"
    while node != owner:
        if len(path) - 1 >= max_hops:
            reason = "max_hops"
            break
        row = slice(csr.indptr[node], csr.indptr[node + 1])
        cand = csr.indices[row]
        order = np.lexsort((np.arange(len(cand)), dist[cand], prospect[cand]))
        order = order[(dist[cand[order]] < dist[node]) | (cand[order] == owner)]
        if len(order) == 0 or (prospect[cand[order[0]]], dist[cand[order[0]]]) >= (
            dist[node], dist[node]
        ):
            reason = "stuck"
            break
        pick = order[0]
        long_hops += int(csr.indptr[node] + pick >= csr.long_start[node])
        node = int(cand[pick])
        path.append(node)
    hops = len(path) - 1
    return reason == "arrived", hops, hops - long_hops, long_hops, owner, reason, path


def assert_hop_for_hop(graph, sources, keys, metric="key", max_hops=None):
    """Route every pair both ways, demand identical outcomes, return them."""
    results = []
    for source, key in zip(sources, keys):
        ref = lookahead_route(
            graph, int(source), float(key), metric=metric, max_hops=max_hops
        )
        got = (
            ref.success, ref.hops, ref.neighbor_hops, ref.long_hops,
            ref.owner, ref.reason, ref.path,
        )
        assert got == oracle_lookahead(graph, source, key, metric, max_hops)
        results.append(ref)
    return results


class TestStaticGraphEquivalence:
    def test_uniform_key_metric(self, uniform_graph, rng):
        sources = rng.integers(uniform_graph.n, size=150)
        keys = rng.random(150)
        results = assert_hop_for_hop(uniform_graph, sources, keys)
        assert all(r.success for r in results)

    def test_skewed_normalized_metric(self, skewed_graph, rng):
        sources = rng.integers(skewed_graph.n, size=150)
        keys = rng.random(150)
        results = assert_hop_for_hop(skewed_graph, sources, keys, metric="normalized")
        assert all(r.success for r in results)

    def test_ring_space(self, rng):
        graph = build_uniform_model(
            n=512, rng=rng, config=GraphConfig(space=RingSpace())
        )
        sources = rng.integers(graph.n, size=100)
        keys = rng.random(100)
        assert_hop_for_hop(graph, sources, keys)

    def test_exhausted_budget(self, uniform_graph, rng):
        sources = rng.integers(uniform_graph.n, size=80)
        keys = rng.random(80)
        results = assert_hop_for_hop(uniform_graph, sources, keys, max_hops=2)
        failed = [r for r in results if not r.success]
        assert failed
        assert all(r.reason == "max_hops" and r.hops == 2 for r in failed)

    def test_peer_targets_arrive(self, uniform_graph, rng):
        sources = rng.integers(uniform_graph.n, size=100)
        keys = uniform_graph.ids[rng.integers(uniform_graph.n, size=100)]
        results = assert_hop_for_hop(uniform_graph, sources, keys)
        assert all(r.success and r.path[-1] == r.owner for r in results)

    def test_not_worse_than_greedy_on_average(self, uniform_graph, rng):
        sources = rng.integers(uniform_graph.n, size=200)
        keys = rng.random(200)
        look = assert_hop_for_hop(uniform_graph, sources, keys)
        greedy_total = sum(
            greedy_route(uniform_graph, int(s), float(k)).hops
            for s, k in zip(sources, keys)
        )
        assert sum(r.hops for r in look) <= greedy_total * 1.05


class TestLiveSnapshotEquivalence:
    """Lookahead on a post-churn live overlay, pinned to the same oracle."""

    def _churned_network(self, seed=31):
        rng = np.random.default_rng(seed)
        net = bulk_bootstrap(PowerLaw(alpha=1.5, shift=1e-2), 384, rng)
        run_churn(
            net,
            PowerLaw(alpha=1.5, shift=1e-2),
            ChurnConfig(epochs=3, leave_fraction=0.15, join_fraction=0.15,
                        maintenance_fraction=0.3, lookups_per_epoch=10),
            rng,
        )
        return net, rng

    def test_post_churn_snapshot_hop_for_hop(self):
        net, rng = self._churned_network()
        assert isinstance(net, Network)
        snap = net.snapshot()
        sources = rng.integers(snap.n, size=120)
        keys = rng.random(120)
        results = assert_hop_for_hop(snap, sources, keys)
        assert all(r.success for r in results)

    def test_lookahead_helps_on_live_snapshot(self):
        net, rng = self._churned_network(seed=32)
        snap = net.snapshot()
        sources = rng.integers(snap.n, size=150)
        keys = snap.ids[rng.integers(snap.n, size=150)]
        look = [lookahead_route(snap, int(s), float(k)) for s, k in zip(sources, keys)]
        greedy_total = sum(
            greedy_route(snap, int(s), float(k)).hops for s, k in zip(sources, keys)
        )
        assert all(r.success for r in look)
        assert sum(r.hops for r in look) <= greedy_total * 1.05


class TestValidation:
    def test_out_of_range_source(self, uniform_graph):
        with pytest.raises(ValueError):
            lookahead_route(uniform_graph, -1, 0.5)

    def test_unknown_metric(self, uniform_graph):
        with pytest.raises(ValueError):
            lookahead_route(uniform_graph, 0, 0.5, metric="psychic")

    def test_scalar_reference_invalid_source(self, uniform_graph):
        """One past the last peer is already out of range."""
        with pytest.raises(ValueError):
            lookahead_route(uniform_graph, uniform_graph.n, 0.5)
