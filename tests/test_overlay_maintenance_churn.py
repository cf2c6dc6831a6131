"""Unit tests for maintenance rounds, churn simulation and failure injection."""

import numpy as np
import pytest

from repro.core import build_uniform_model
from repro.distributions import PowerLaw, Uniform
from repro.overlay import (
    ChurnConfig,
    bootstrap_network,
    drop_long_links,
    kill_peers,
    maintenance_round,
    measure_network,
    refresh_peer,
    run_churn,
    summarize_lookups,
)


class TestRefreshPeer:
    def test_repairs_dangling_links(self, rng):
        net, _ = bootstrap_network(Uniform(), 64, rng)
        victim = net.random_peer(rng)
        # Manufacture dangling links by removing targets.
        state = net.peer(victim)
        removed = 0
        for target in list(state.long_links)[:2]:
            if target in net and target != victim:
                net.remove_peer(target)
                removed += 1
        if removed == 0:
            pytest.skip("no removable targets in this draw")
        report = refresh_peer(net, victim, rng, distribution=Uniform())
        assert report.dangling_repaired == removed
        for target in net.peer(victim).long_links:
            assert target in net

    def test_refresh_reaches_out_degree(self, rng):
        net, _ = bootstrap_network(Uniform(), 128, rng)
        victim = net.random_peer(rng)
        report = refresh_peer(net, victim, rng, distribution=Uniform())
        assert report.links_installed >= 5  # log2(128) = 7, allow shortfall

    def test_estimate_based_refresh(self, rng):
        dist = PowerLaw(alpha=1.5, shift=1e-2)
        net, _ = bootstrap_network(dist, 64, rng)
        victim = net.random_peer(rng)
        report = refresh_peer(net, victim, rng, distribution=None, sample_size=32)
        assert report.links_installed >= 1

    def test_single_peer_clears_links(self, rng):
        net, _ = bootstrap_network(Uniform(), 1, rng)
        peer = net.ids_array()[0]
        report = refresh_peer(net, float(peer), rng, distribution=Uniform())
        assert report.links_installed == 0


class TestMaintenanceRound:
    def test_refreshes_fraction(self, rng):
        net, _ = bootstrap_network(Uniform(), 64, rng)
        report = maintenance_round(net, rng, distribution=Uniform(), fraction=0.25)
        assert report.peers_refreshed == 16

    def test_rejects_bad_fraction(self, rng):
        net, _ = bootstrap_network(Uniform(), 8, rng)
        with pytest.raises(ValueError):
            maintenance_round(net, rng, fraction=0.0)
        with pytest.raises(ValueError):
            maintenance_round(net, rng, fraction=1.5)


class TestRepairCostModel:
    """The bulk repair round's optional routed-hop cost convention."""

    def _damaged_network(self, rng, n=256):
        from repro.overlay import Network, bulk_leave

        net = Network.from_graph(build_uniform_model(n=n, rng=rng))
        leavers = rng.choice(net.ids_array(), size=n // 8, replace=False)
        bulk_leave(net, leavers)
        return net

    def test_ownership_model_reports_zero_hops(self, rng):
        from repro.overlay import bulk_repair

        net = self._damaged_network(rng)
        report = bulk_repair(net, rng, distribution=Uniform())
        assert report.lookup_hops == 0
        assert report.links_installed > 0

    def test_routed_model_prices_new_links(self, rng):
        from repro.overlay import bulk_repair

        net = self._damaged_network(rng)
        report = bulk_repair(net, rng, distribution=Uniform(), cost_model="routed")
        # Dangling links were replaced, and every replacement cost hops.
        assert report.dangling_dropped > 0
        assert report.lookup_hops > 0

    def test_routed_refresh_prices_every_link(self, rng):
        from repro.overlay import bulk_repair

        net = self._damaged_network(rng)
        report = bulk_repair(
            net, rng, distribution=Uniform(), refresh=True, cost_model="routed"
        )
        # A full rebuild routes one lookup per installed link; mean hops
        # per link must be at least 1 short of pathological layouts.
        assert report.lookup_hops >= report.links_installed * 0.5

    def test_rejects_unknown_cost_model(self, rng):
        from repro.overlay import bulk_repair

        net = self._damaged_network(rng)
        with pytest.raises(ValueError):
            bulk_repair(net, rng, distribution=Uniform(), cost_model="nope")
        with pytest.raises(ValueError):
            maintenance_round(net, rng, distribution=Uniform(), cost_model="nope")

    def test_maintenance_round_forwards_cost_model(self, rng):
        net = self._damaged_network(rng)
        report = maintenance_round(
            net, rng, distribution=Uniform(), cost_model="routed"
        )
        assert report.lookup_hops > 0

    def test_churn_config_plumbs_repair_cost(self, rng):
        from repro.overlay import Network

        net = Network.from_graph(build_uniform_model(n=256, rng=rng))
        history = run_churn(
            net,
            Uniform(),
            ChurnConfig(
                epochs=2, leave_fraction=0.1, join_fraction=0.1,
                maintenance_fraction=0.5, lookups_per_epoch=50,
                repair_cost_model="routed",
            ),
            rng,
        )
        assert all(epoch.maintenance_hops > 0 for epoch in history)


class TestChurn:
    def test_network_survives_churn(self, rng):
        dist = PowerLaw(alpha=1.5, shift=1e-3)
        net, _ = bootstrap_network(dist, 128, rng)
        history = run_churn(
            net, dist, ChurnConfig(epochs=3, lookups_per_epoch=50), rng
        )
        assert len(history) == 3
        for epoch in history:
            assert epoch.success_rate == 1.0
            assert epoch.mean_hops < 20

    def test_population_roughly_stationary(self, rng):
        net, _ = bootstrap_network(Uniform(), 100, rng)
        history = run_churn(
            net,
            Uniform(),
            ChurnConfig(epochs=4, leave_fraction=0.1, join_fraction=0.1,
                        lookups_per_epoch=20),
            rng,
        )
        assert 70 <= history[-1].n_peers <= 130

    def test_maintenance_reduces_dangling(self, rng):
        dist = Uniform()
        config_no_maint = ChurnConfig(
            epochs=4, maintenance_fraction=0.0, lookups_per_epoch=10
        )
        config_maint = ChurnConfig(
            epochs=4, maintenance_fraction=0.5, lookups_per_epoch=10
        )
        net_a, _ = bootstrap_network(dist, 128, np.random.default_rng(5))
        net_b, _ = bootstrap_network(dist, 128, np.random.default_rng(5))
        hist_a = run_churn(net_a, dist, config_no_maint, np.random.default_rng(6))
        hist_b = run_churn(net_b, dist, config_maint, np.random.default_rng(6))
        assert hist_b[-1].dangling_links < hist_a[-1].dangling_links

    def test_empty_network_raises(self, rng):
        with pytest.raises(ValueError):
            run_churn(  # noqa: PT011 - message checked by type
                __import__("repro.overlay", fromlist=["Network"]).Network(),
                Uniform(),
                ChurnConfig(epochs=1),
                rng,
            )


class TestFailureInjection:
    def test_drop_long_links_fraction(self, rng):
        graph = build_uniform_model(n=256, rng=rng)
        before = graph.total_long_links()
        damaged = drop_long_links(graph, 0.5, rng)
        after = damaged.total_long_links()
        assert 0.4 * before < after < 0.6 * before
        # Original untouched.
        assert graph.total_long_links() == before

    def test_drop_zero_is_identity(self, rng):
        graph = build_uniform_model(n=64, rng=rng)
        damaged = drop_long_links(graph, 0.0, rng)
        assert damaged.total_long_links() == graph.total_long_links()

    def test_drop_all(self, rng):
        graph = build_uniform_model(n=64, rng=rng)
        damaged = drop_long_links(graph, 1.0, rng)
        assert damaged.total_long_links() == 0

    def test_drop_rejects_bad_fraction(self, rng):
        graph = build_uniform_model(n=16, rng=rng)
        with pytest.raises(ValueError):
            drop_long_links(graph, 1.5, rng)

    def test_routing_survives_total_link_loss(self, rng):
        # Neighbour edges alone must still deliver (sequential walk).
        graph = build_uniform_model(n=128, rng=rng)
        damaged = drop_long_links(graph, 1.0, rng)
        from repro.core import sample_routes

        routes = sample_routes(damaged, 30, rng)
        assert all(r.success for r in routes)
        mean_hops = np.mean([r.hops for r in routes])
        assert mean_hops > 10  # sequential regime is much slower

    def test_kill_peers_fraction(self, rng):
        graph = build_uniform_model(n=200, rng=rng)
        alive = kill_peers(graph, 0.25, rng)
        assert alive.sum() == 150

    def test_kill_keeps_one_alive(self, rng):
        graph = build_uniform_model(n=8, rng=rng)
        alive = kill_peers(graph, 0.99, rng)
        assert alive.sum() >= 1

    def test_kill_rejects_bad_fraction(self, rng):
        graph = build_uniform_model(n=16, rng=rng)
        with pytest.raises(ValueError):
            kill_peers(graph, 1.0, rng)


class TestStats:
    def test_summarize_lookups_fields(self, rng):
        graph = build_uniform_model(n=128, rng=rng)
        from repro.core import sample_routes

        stats = summarize_lookups(sample_routes(graph, 50, rng))
        assert stats.n == 50
        assert stats.mean_hops <= stats.p95_hops <= stats.max_hops
        assert stats.mean_hops == pytest.approx(
            stats.mean_long_hops + stats.mean_neighbor_hops
        )

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_lookups([])

    def test_measure_network_modes(self, rng):
        net, _ = bootstrap_network(Uniform(), 64, rng)
        peers_stats = measure_network(net, 40, rng, targets="peers")
        uniform_stats = measure_network(net, 40, rng, targets="uniform")
        assert peers_stats.success_rate == 1.0
        assert uniform_stats.success_rate == 1.0
        with pytest.raises(ValueError):
            measure_network(net, 10, rng, targets="bogus")

    def test_summarize_rejects_unknown_reason_label(self, rng):
        # Regression: the scalar path used to grow the histogram for
        # out-of-schema labels instead of keeping the stable schema.
        from repro.overlay.network import LookupResult

        bad = LookupResult(
            success=False, hops=1, neighbor_hops=1, long_hops=0,
            path=[0.5], reason="gave_up", target_key=0.25, owner_id=0.5,
        )
        with pytest.raises(ValueError, match="unknown termination reason"):
            summarize_lookups([bad])

    def test_measure_network_same_seed_same_workload_across_engines(self, rng):
        # Regression: the per-lookup reference loop used to interleave
        # its draws, so one seed measured a different workload per side.
        from overlay_oracle import OracleNetwork
        from overlay_oracle import measure_network as measure_per_lookup

        from repro.overlay import Network

        graph = build_uniform_model(n=96, rng=rng)
        array_net = Network.from_graph(graph)
        scalar_net = OracleNetwork.from_graph(graph)
        for mode in ("peers", "uniform"):
            a = measure_network(
                array_net, 50, np.random.default_rng(17), targets=mode
            )
            b = measure_per_lookup(
                scalar_net, 50, np.random.default_rng(17), targets=mode
            )
            assert a == b, mode
