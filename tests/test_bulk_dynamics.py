"""Equivalence and property suite for the bulk live-overlay engine.

Locks the array-backed :class:`Network` and
:mod:`repro.overlay.bulk_dynamics` down against the dict-of-lists
reference network in ``tests/overlay_oracle.py``:

* *exact* parity — a hypothesis state machine applies every per-peer
  operation (joins, leaves, re-joins, link writes, refresh) to a
  :class:`Network` and to the oracle with identically seeded generators
  and demands identical state, snapshots and routes after each one, and
  batch-routing a snapshot must match live scalar routing hop for hop;
* *statistical* parity — bulk cohort bootstrap vs per-peer bootstrap of
  the oracle at n=2048, uniform and skewed, compared by KS on degree and
  link-mass distributions;
* *invariants* — successor-ring integrity under interleaved join/leave
  storms, dangling accounting, free-list hygiene, and the regression
  that ``dangling_link_count`` returns to 0 after ``bulk_repair``;
* *determinism* — every bulk round is a pure function of its seed.
"""

import numpy as np
import overlay_oracle as oracle
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

from repro.analysis import ks_two_sample
from repro.core import build_uniform_model, route_many
from repro.distributions import PowerLaw, Uniform
from repro.keyspace import RingSpace
from repro.overlay import (
    ChurnConfig,
    Network,
    bootstrap_network,
    bulk_bootstrap,
    bulk_join,
    bulk_leave,
    bulk_repair,
    join_known_f,
    maintenance_round,
    measure_network,
    refresh_peer,
    run_churn,
    sample_cohort_ids,
)


def degrees_of(net):
    return np.asarray(
        [len(net.peer(float(p)).long_links) for p in net.ids_array()], dtype=float
    )


def link_masses(net, dist):
    out = []
    for p in net.ids_array().tolist():
        for t in net.peer(p).long_links:
            out.append(abs(float(dist.cdf(t)) - float(dist.cdf(p))))
    return np.asarray(out, dtype=float)


def links_of(net, peer_id):
    links = net.peer(peer_id).long_links
    return [float(t) for t in links]


class OverlayParityMachine(RuleBasedStateMachine):
    """Every per-peer operation leaves :class:`Network` equal to the oracle.

    Each rule applies one operation to both networks, each drawing from
    its own generator seeded identically, so any divergence in state or
    in random draws shows up in the invariant after that rule.
    """

    @initialize(
        n=st.integers(4, 40),
        ring=st.booleans(),
        skewed=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def build(self, n, ring, skewed, seed):
        space = RingSpace() if ring else None
        self.dist = PowerLaw(alpha=1.5, shift=1e-2) if skewed else Uniform()
        self.nets = (Network(space=space), oracle.OracleNetwork(space=space))
        self.rngs = (np.random.default_rng(seed), np.random.default_rng(seed))
        self.departed: list[float] = []
        self.checks = 0
        for i in range(n):
            self.join(seed + i)

    def _both(self, op):
        """``op(net, rng)`` on the array network and on the oracle."""
        return tuple(op(net, rng) for net, rng in zip(self.nets, self.rngs))

    def _live(self) -> list[float]:
        return self.nets[0].ids_array().tolist()

    @rule(seed=st.integers(0, 2**16))
    def join(self, seed):
        draw = np.random.default_rng(seed)
        peer_id = float(self.dist.sample(1, draw)[0])
        while peer_id in self.nets[1]:
            peer_id = float(self.dist.sample(1, draw)[0])
        got, want = self._both(
            lambda net, rng: join_known_f(net, self.dist, rng, peer_id=peer_id)
        )
        assert got == want

    @precondition(lambda self: self.nets[1].n > 2)
    @rule(data=st.data())
    def leave(self, data):
        peer_id = data.draw(st.sampled_from(self._live()))
        self._both(lambda net, rng: net.remove_peer(peer_id))
        self.departed.append(peer_id)

    @precondition(lambda self: self.nets[1].n > 2)
    @rule(data=st.data(), relink=st.booleans())
    def leave_and_rejoin(self, data, relink):
        peer_id = data.draw(st.sampled_from(self._live()))

        def op(net, rng):
            net.remove_peer(peer_id)
            if relink:
                return join_known_f(net, self.dist, rng, peer_id=peer_id)
            net.add_peer(peer_id)
            return None

        got, want = self._both(op)
        assert got == want

    @rule(data=st.data(), assign=st.booleans())
    def write_links(self, data, assign):
        peer_id = data.draw(st.sampled_from(self._live()))
        pool = st.sampled_from(self._live() + self.departed)
        targets = data.draw(st.lists(pool, max_size=6))

        def op(net, rng):
            state = net.peer(peer_id)
            if assign:
                state.long_links = targets
            else:
                for target in targets:
                    state.long_links.append(target)

        self._both(op)

    @rule(data=st.data(), estimate=st.booleans())
    def refresh(self, data, estimate):
        peer_id = data.draw(st.sampled_from(self._live()))
        dist = None if estimate else self.dist
        got, want = self._both(
            lambda net, rng: refresh_peer(
                net, peer_id, rng, distribution=dist, sample_size=16
            )
        )
        assert got == want

    @invariant()
    def networks_agree(self):
        net, ref = self.nets
        assert np.array_equal(net.ids_array(), ref.ids_array())
        for peer_id in ref.ids_array().tolist():
            assert links_of(net, peer_id) == links_of(ref, peer_id), peer_id
        assert net.dangling_link_count() == ref.dangling_link_count()
        assert net.mean_long_degree() == ref.mean_long_degree()
        got, want = net.snapshot().adjacency, ref.snapshot().adjacency
        for column in ("indptr", "indices", "long_start"):
            assert np.array_equal(getattr(got, column), getattr(want, column))
        probe = np.random.default_rng(self.checks)
        self.checks += 1
        for _ in range(4):
            source = net.random_peer(probe)
            key = float(probe.random())
            a = net.route(source, key)
            b = ref.route(source, key)
            assert (
                a.success, a.hops, a.long_hops, a.path, a.owner_id,
                a.dangling_links_seen,
            ) == (
                b.success, b.hops, b.long_hops, b.path, b.owner_id,
                b.dangling_links_seen,
            )


TestOverlayParityMachine = OverlayParityMachine.TestCase
TestOverlayParityMachine.settings = settings(max_examples=30, stateful_step_count=20)


class TestEngineExactParity:
    """A fixed 150-join/25-leave sequence leaves both networks identical."""

    def _drive(self, net, seed=7):
        dist = PowerLaw(alpha=1.5, shift=1e-2)
        rng = np.random.default_rng(seed)
        for _ in range(150):
            peer_id = float(dist.sample(1, rng)[0])
            while peer_id in net:
                peer_id = float(dist.sample(1, rng)[0])
            join_known_f(net, dist, rng, peer_id=peer_id)
        ids = net.ids_array()
        for idx in rng.choice(len(ids), size=25, replace=False):
            net.remove_peer(float(ids[idx]))
        return net

    def test_identical_state_after_same_ops(self):
        array_net = self._drive(Network())
        ref_net = self._drive(oracle.OracleNetwork())
        assert np.array_equal(array_net.ids_array(), ref_net.ids_array())
        for peer_id in ref_net.ids_array().tolist():
            assert links_of(array_net, peer_id) == links_of(ref_net, peer_id)
        assert array_net.dangling_link_count() == ref_net.dangling_link_count()
        assert array_net.dangling_link_count() > 0
        assert array_net.mean_long_degree() == ref_net.mean_long_degree()

    def test_identical_routes_after_same_ops(self):
        array_net = self._drive(Network())
        ref_net = self._drive(oracle.OracleNetwork())
        rng = np.random.default_rng(9)
        for _ in range(40):
            source = array_net.random_peer(rng)
            key = float(rng.random())
            a = array_net.route(source, key)
            s = ref_net.route(source, key)
            assert (a.success, a.hops, a.long_hops, a.path, a.owner_id) == (
                s.success, s.hops, s.long_hops, s.path, s.owner_id
            )

    def test_snapshot_batch_matches_live_scalar_route(self, rng):
        net, _ = bootstrap_network(Uniform(), 256, rng)
        ids = net.ids_array()
        for idx in rng.choice(len(ids), size=30, replace=False):
            net.remove_peer(float(ids[idx]))  # manufacture dangling links
        assert net.dangling_link_count() > 0
        snap = net.snapshot()
        live = net.ids_array()
        assert np.array_equal(snap.ids, live)
        sources = rng.integers(len(live), size=120)
        keys = rng.random(120)
        batch = route_many(snap, sources, keys, record_paths=True)
        for i in range(120):
            ref = net.route(float(live[sources[i]]), float(keys[i]))
            assert ref.success == bool(batch.success[i])
            assert ref.hops == int(batch.hops[i])
            assert ref.long_hops == int(batch.long_hops[i])
            assert ref.path == [float(live[j]) for j in batch.paths[i]]
            assert ref.owner_id == float(live[batch.owners[i]])


class TestBulkJoin:
    def test_budget_cutoff_and_no_self_links(self, rng):
        graph = build_uniform_model(n=512, rng=rng)
        net = Network.from_graph(graph)
        cohort = sample_cohort_ids(net, Uniform(), 128, rng)
        report = bulk_join(net, cohort, Uniform(), rng)
        assert report.peers == 128
        assert net.n == 640
        k = round(np.log2(640))
        cutoff = 1.0 / 640
        for peer_id in cohort.tolist():
            links = links_of(net, peer_id)
            assert len(links) == k
            assert len(set(links)) == k
            assert peer_id not in links
            for target in links:
                assert target in net
                assert abs(target - peer_id) >= cutoff

    def test_rejects_bad_cohorts(self, rng):
        net = bulk_bootstrap(Uniform(), 32, rng)
        live = float(net.ids_array()[0])
        with pytest.raises(ValueError):
            bulk_join(net, [0.1, 0.1], Uniform(), rng)
        with pytest.raises(ValueError):
            bulk_join(net, [1.5], Uniform(), rng)
        with pytest.raises(ValueError):
            bulk_join(net, [live], Uniform(), rng)

    def test_empty_cohort_is_noop(self, rng):
        net = bulk_bootstrap(Uniform(), 16, rng)
        report = bulk_join(net, [], Uniform(), rng)
        assert report.peers == 0
        assert net.n == 16


class TestBulkLeave:
    def test_leave_dangles_links(self, rng):
        net = bulk_bootstrap(Uniform(), 256, rng)
        ids = net.ids_array()
        leavers = rng.choice(ids, size=32, replace=False)
        report = bulk_leave(net, leavers)
        assert report.peers == 32
        assert net.n == 224
        assert all(float(x) not in net for x in leavers)
        assert net.dangling_link_count() > 0

    def test_rejects_missing_and_duplicate(self, rng):
        net = bulk_bootstrap(Uniform(), 32, rng)
        live = float(net.ids_array()[0])
        with pytest.raises(KeyError):
            bulk_leave(net, [0.123456789])
        with pytest.raises(ValueError):
            bulk_leave(net, [live, live])


class TestStatisticalEquivalence:
    """KS-level bulk↔per-peer parity at n=2048, uniform and skewed."""

    @pytest.mark.parametrize(
        "dist", [Uniform(), PowerLaw(alpha=1.5, shift=1e-3)], ids=["uniform", "skewed"]
    )
    def test_bootstrap_degree_and_mass_distributions(self, dist):
        n = 2048
        scalar_net = oracle.bootstrap_network(dist, n, np.random.default_rng(11))
        bulk_net = bulk_bootstrap(dist, n, np.random.default_rng(12))
        ks_deg = ks_two_sample(degrees_of(scalar_net), degrees_of(bulk_net))
        assert ks_deg.p_value > 0.01, (ks_deg.statistic, ks_deg.p_value)
        # Link masses: compare equal-size subsamples — at the full ~20k
        # sample KS resolves the second-order difference between linking
        # against the evolving vs the post-cohort population.
        sub = np.random.default_rng(99)
        mass_s = sub.choice(link_masses(scalar_net, dist), 2000, replace=False)
        mass_b = sub.choice(link_masses(bulk_net, dist), 2000, replace=False)
        ks_mass = ks_two_sample(mass_s, mass_b)
        assert ks_mass.p_value > 0.01, (ks_mass.statistic, ks_mass.p_value)

    def test_churned_networks_stay_equivalent(self):
        """After identical churn schedules, the two stay statistically close."""
        dist = Uniform()
        config = ChurnConfig(epochs=3, lookups_per_epoch=20)
        scalar_net = oracle.bootstrap_network(dist, 512, np.random.default_rng(21))
        bulk_net = bulk_bootstrap(dist, 512, np.random.default_rng(22))
        oracle.run_churn(scalar_net, dist, config, np.random.default_rng(23))
        run_churn(bulk_net, dist, config, np.random.default_rng(24))
        ks = ks_two_sample(degrees_of(scalar_net), degrees_of(bulk_net))
        assert ks.p_value > 0.01, (ks.statistic, ks.p_value)
        hops_s = oracle.measure_network(
            scalar_net, 300, np.random.default_rng(25)
        ).mean_hops
        hops_b = measure_network(bulk_net, 300, np.random.default_rng(26)).mean_hops
        assert abs(hops_s - hops_b) < 0.25 * max(hops_s, hops_b)


@pytest.mark.parametrize("space", [None, RingSpace()], ids=["interval", "ring"])
class TestStormIntegrity:
    """Successor-ring integrity after interleaved join/leave storms."""

    def test_interleaved_storms_keep_ring_consistent(self, space, rng):
        dist = Uniform()
        net = bulk_bootstrap(dist, 256, rng, space=space)
        for _ in range(8):
            ids = net.ids_array()
            bulk_leave(net, rng.choice(ids, size=len(ids) // 8, replace=False))
            cohort = sample_cohort_ids(net, dist, net.n // 6, rng)
            bulk_join(net, cohort, dist, rng)
            live = net.ids_array()
            # Sorted, distinct, and every index structure agrees.
            assert np.all(np.diff(live) > 0)
            assert len(net._slot_of) == len(live)
            assert np.array_equal(net._slot_id[net._slot_at], live)
            # Successor-ring: the splice maintains immediate neighbours.
            for pos in (0, len(live) // 2, len(live) - 1):
                peer_id = float(live[pos])
                expected = []
                if net.space.is_ring:
                    expected = [
                        float(live[(pos - 1) % len(live)]),
                        float(live[(pos + 1) % len(live)]),
                    ]
                else:
                    if pos > 0:
                        expected.append(float(live[pos - 1]))
                    if pos < len(live) - 1:
                        expected.append(float(live[pos + 1]))
                assert list(net.neighbors_of(peer_id)) == expected
        # The surviving network still routes perfectly after repair.
        bulk_repair(net, rng, distribution=dist)
        assert net.dangling_link_count() == 0
        stats = measure_network(net, 100, rng)
        assert stats.success_rate == 1.0


class TestBulkRepair:
    def test_dangling_returns_to_zero_after_repair(self, rng):
        """Regression: departed peers' links purge on the next repair round."""
        net = bulk_bootstrap(Uniform(), 512, rng)
        ids = net.ids_array()
        bulk_leave(net, rng.choice(ids, size=64, replace=False))
        freed = list(net._free_slots)
        assert net.dangling_link_count() > 0
        # Departed rows linger on the free-list with their stale targets...
        assert net._link_cnt[np.asarray(freed)].sum() > 0
        report = bulk_repair(net, rng, distribution=Uniform())
        # ...until the repair round purges them and replaces live danglers.
        assert net.dangling_link_count() == 0
        assert report.stale_purged > 0
        assert report.dangling_dropped > 0
        assert np.all(net._link_cnt[np.asarray(freed)] == 0)
        assert np.all(np.isnan(net._link_tg[np.asarray(freed)]))

    def test_repair_preserves_live_links_and_tops_up(self, rng):
        net = bulk_bootstrap(Uniform(), 512, rng)
        ids = net.ids_array()
        bulk_leave(net, rng.choice(ids, size=64, replace=False))
        kept_before = {
            p: {t for t in links_of(net, p) if t in net}
            for p in net.ids_array().tolist()
        }
        bulk_repair(net, rng, distribution=Uniform())
        k = round(np.log2(net.n))
        for peer_id, kept in kept_before.items():
            after = set(links_of(net, peer_id))
            assert kept <= after  # repair never drops a live link
        assert net.mean_long_degree() >= k - 0.25

    def test_refresh_rebuilds_rows(self, rng):
        net = bulk_bootstrap(Uniform(), 256, rng)
        report = bulk_repair(net, rng, distribution=Uniform(), refresh=True)
        assert report.peers == 256
        assert report.links_installed == sum(len(links_of(net, p)) for p in net.ids_array())
        assert net.dangling_link_count() == 0

    def test_estimate_based_repair(self, rng):
        net = bulk_bootstrap(PowerLaw(alpha=1.5, shift=1e-2), 256, rng)
        ids = net.ids_array()
        bulk_leave(net, rng.choice(ids, size=32, replace=False))
        report = bulk_repair(net, rng, distribution=None, sample_size=64)
        assert net.dangling_link_count() == 0
        assert report.links_installed > 0

    def test_maintenance_round_dispatches_to_bulk(self, rng):
        net = bulk_bootstrap(Uniform(), 64, rng)
        report = maintenance_round(net, rng, distribution=Uniform(), fraction=0.5)
        assert report.peers_refreshed == 32
        assert report.lookup_hops == 0


class TestSeedDeterminism:
    """Every bulk round is a pure function of its rng state."""

    def _state(self, net):
        return (
            net.ids_array().copy(),
            {p: tuple(links_of(net, p)) for p in net.ids_array().tolist()},
        )

    def test_bootstrap_deterministic(self):
        a = bulk_bootstrap(PowerLaw(alpha=1.5, shift=1e-3), 512, np.random.default_rng(5))
        b = bulk_bootstrap(PowerLaw(alpha=1.5, shift=1e-3), 512, np.random.default_rng(5))
        ids_a, links_a = self._state(a)
        ids_b, links_b = self._state(b)
        assert np.array_equal(ids_a, ids_b)
        assert links_a == links_b

    def test_join_leave_repair_rounds_deterministic(self):
        dist = Uniform()
        states = []
        for _ in range(2):
            rng = np.random.default_rng(17)
            net = bulk_bootstrap(dist, 256, rng)
            ids = net.ids_array()
            bulk_leave(net, rng.choice(ids, size=25, replace=False))
            bulk_join(net, sample_cohort_ids(net, dist, 25, rng), dist, rng)
            bulk_repair(net, rng, distribution=dist, fraction=0.5)
            states.append(self._state(net))
        assert np.array_equal(states[0][0], states[1][0])
        assert states[0][1] == states[1][1]


class TestBulkChurn:
    def test_run_churn_on_array_engine_stays_healthy(self, rng):
        graph = build_uniform_model(n=2048, rng=rng)
        net = Network.from_graph(graph)
        history = run_churn(
            net,
            Uniform(),
            ChurnConfig(epochs=4, leave_fraction=0.1, join_fraction=0.1,
                        maintenance_fraction=0.3, lookups_per_epoch=150),
            rng,
        )
        assert len(history) == 4
        for epoch in history:
            assert epoch.success_rate == 1.0
            assert epoch.mean_hops < 3 * np.log2(2048)
        assert 1400 <= history[-1].n_peers <= 2700

    def test_maintenance_bounds_dangling(self):
        dist = Uniform()
        nets = [
            Network.from_graph(build_uniform_model(n=512, rng=np.random.default_rng(3)))
            for _ in range(2)
        ]
        no_maint = run_churn(
            nets[0], dist,
            ChurnConfig(epochs=4, maintenance_fraction=0.0, lookups_per_epoch=10),
            np.random.default_rng(6),
        )
        with_maint = run_churn(
            nets[1], dist,
            ChurnConfig(epochs=4, maintenance_fraction=0.5, lookups_per_epoch=10),
            np.random.default_rng(6),
        )
        assert with_maint[-1].dangling_links < no_maint[-1].dangling_links


class TestFromGraphAndSnapshot:
    def test_from_graph_round_trips_through_snapshot(self, rng):
        graph = build_uniform_model(n=256, rng=rng)
        net = Network.from_graph(graph)
        snap = net.snapshot()
        assert np.array_equal(snap.ids, graph.ids)
        for a, b in zip(snap.long_links, graph.long_links):
            assert np.array_equal(np.sort(a), np.sort(np.asarray(b)))
