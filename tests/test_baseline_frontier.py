"""Equivalence suite for the baseline CSR + metric frontier contract.

Four layers, mirroring ``tests/test_bulk_dynamics.py``:

* **hop-for-hop parity** — for every baseline (and every routing
  variant: hashed Chord, alternate CAN dimensions), the batch
  frontier kernel and the batch-of-one ``route`` must reproduce the
  scalar walk of ``route_oracle.py`` exactly: success, hops,
  neighbour/long split, owner, reason, and the full visited path, on
  uniform and skewed populations.
* **builder equivalence** — the bulk whole-population builders
  (Mercury's row-wise estimators, Pastry's prefix-range tables,
  P-Grid's dyadic-cell references) must be statistically
  indistinguishable from the per-peer loops in ``builder_oracle.py``:
  KS on hop distributions at n = 2048, uniform and skewed.
* **contract invariants** — every overlay born holding its CSR and
  metric, vectorized owner resolution agreeing with the oracle's owner
  rule, and workload determinism of the batch measurement path.
* **key checks** — every public route and owner entry point rejects a
  NaN, infinite or out-of-range key with ``ValueError``.
"""

import numpy as np
import pytest
from builder_oracle import OracleMercury, OraclePastry, OraclePGrid
from route_oracle import scalar_twin

from repro.analysis import ks_two_sample
from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
    measure_overlay_batch,
    route_many_overlay,
    sample_overlay_lookups,
)
from repro.core import CSRAdjacency, RoutingMetric, build_uniform_model, greedy_route
from repro.distributions import PowerLaw
from repro.overlay import summarize_lookups


def _uniform_ids(n, seed):
    return np.sort(np.random.default_rng(seed).random(n))


def _skewed_ids(n, seed):
    rng = np.random.default_rng(seed)
    dist = PowerLaw(alpha=1.8, shift=1e-4)
    ids = np.unique(dist.sample(n, rng))
    while len(ids) < n:
        ids = np.unique(np.concatenate([ids, dist.sample(n - len(ids), rng)]))
    return ids


def _make(name: str, ids, rng):
    if name == "chord":
        return ChordOverlay(ids)
    if name == "chord-hashed":
        return ChordOverlay(ids, hashed=True)
    if name == "pastry":
        return PastryOverlay(ids, rng)
    if name == "pgrid":
        return PGridOverlay(ids, rng)
    if name == "symphony":
        return SymphonyOverlay(ids, rng, k=4)
    if name == "mercury":
        return MercuryOverlay(ids, rng, sample_size=32)
    if name == "can-2d":
        return CANOverlay(ids, dims=2)
    if name == "can-1d":
        return CANOverlay(ids, dims=1)
    raise KeyError(name)

ALL_VARIANTS = [
    "chord", "chord-hashed", "pastry", "pgrid", "symphony", "mercury", "can-2d", "can-1d",
]


#: Lookups per parity check that also go through the batch-of-one ``route``.
SINGLE_ROUTES = 40


def _assert_route_matches(result, ref, key):
    """One ``route()`` result equals the oracle's, field for field.

    ``target_key`` is the key looked up: the hashed Chord oracle reports
    the hashed key there, so it is compared with ``key`` instead.
    """
    assert (result.success, result.hops, result.neighbor_hops, result.long_hops) == (
        ref.success, ref.hops, ref.neighbor_hops, ref.long_hops
    )
    assert (result.owner, result.reason, result.path) == (ref.owner, ref.reason, ref.path)
    assert result.target_key == key


def _assert_parity(
    overlay, n_routes=150, seed=5, targets="peers", target_ids=None, max_hops=None
):
    """Batch result and ``route()`` must equal the oracle walk, path included."""
    rng = np.random.default_rng(seed)
    if targets == "peers" and target_ids is None:
        target_ids = getattr(overlay, "ids", None)
    sources, keys = sample_overlay_lookups(
        overlay, n_routes, rng, targets=targets, target_ids=target_ids
    )
    oracle = scalar_twin(overlay)
    scalar = [oracle.route(int(s), float(k), max_hops) for s, k in zip(sources, keys)]
    batch = route_many_overlay(
        overlay, sources, keys, max_hops=max_hops, record_paths=True
    )
    assert np.array_equal(batch.success, [r.success for r in scalar])
    assert np.array_equal(batch.hops, [r.hops for r in scalar])
    assert np.array_equal(batch.neighbor_hops, [r.neighbor_hops for r in scalar])
    assert np.array_equal(batch.long_hops, [r.long_hops for r in scalar])
    assert np.array_equal(batch.owners, [r.owner for r in scalar])
    assert np.array_equal(batch.reasons, [r.reason for r in scalar])
    for i, result in enumerate(scalar):
        assert batch.paths[i] == result.path
    for s, k, ref in list(zip(sources, keys, scalar))[:SINGLE_ROUTES]:
        _assert_route_matches(overlay.route(int(s), float(k), max_hops), ref, float(k))
    return batch


class TestHopForHopParity:
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_uniform_population(self, name, rng):
        overlay = _make(name, _uniform_ids(192, 51), rng)
        _assert_parity(overlay, seed=6)

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_skewed_population(self, name, rng):
        overlay = _make(name, _skewed_ids(192, 52), rng)
        _assert_parity(overlay, seed=7)

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_uniform_keys_not_peer_ids(self, name, rng):
        """Keys between peers exercise ownership and terminal-hop edges."""
        overlay = _make(name, _uniform_ids(160, 53), rng)
        _assert_parity(overlay, seed=8, targets="uniform")

    def test_scalar_built_overlays_route_identically(self, rng):
        """The frontier contract holds for the per-peer oracle builders too."""
        ids = _uniform_ids(160, 54)
        for overlay in (
            OracleMercury(ids, rng, sample_size=32),
            OraclePastry(ids, rng),
            OraclePGrid(ids, rng),
        ):
            _assert_parity(overlay, seed=11)

    def test_max_hops_budget(self):
        """Budget exhaustion must match the oracle loop's reason and count."""
        ids = _skewed_ids(256, 55)
        overlay = ChordOverlay(ids)  # raw skewed ids: long clockwise walks
        batch = _assert_parity(overlay, n_routes=100, seed=12, max_hops=5)
        assert (batch.reasons == "max_hops").any()

    def test_rejects_negative_hop_budget(self):
        overlay = ChordOverlay(_uniform_ids(64, 57))
        with pytest.raises(ValueError, match="max_hops"):
            route_many_overlay(
                overlay, np.asarray([0, 1]), np.asarray([0.25, 0.5]), max_hops=-3
            )
        with pytest.raises(ValueError, match="max_hops"):
            overlay.route(0, 0.25, max_hops=-1)

    def test_rejects_bad_sources(self, rng):
        overlay = ChordOverlay(_uniform_ids(64, 56))
        with pytest.raises(ValueError):
            route_many_overlay(overlay, np.asarray([64]), np.asarray([0.5]))
        with pytest.raises(ValueError):
            route_many_overlay(overlay, np.asarray([0, 1]), np.asarray([0.5]))

    @pytest.mark.parametrize("name", ["pastry", "pgrid", "can-2d"])
    def test_rejects_out_of_range_keys_like_scalar(self, name, rng):
        """Where the oracle loop raises on a key outside [0, 1), so must
        ``route()`` and the batch."""
        overlay = _make(name, _uniform_ids(64, 57), rng)
        for bad in (-0.5, 1.0):
            with pytest.raises(ValueError):
                scalar_twin(overlay).route(0, bad)
            with pytest.raises(ValueError):
                overlay.route(0, bad)
            with pytest.raises(ValueError):
                route_many_overlay(overlay, np.asarray([0]), np.asarray([bad]))

    def test_pastry_rejects_out_of_range_ids_at_construction(self, rng):
        """The bulk digit expansion keeps the scalar builder's id guard."""
        with pytest.raises(ValueError):
            PastryOverlay(np.asarray([0.2, 0.4, 1.5]), rng)


class TestBuilderEquivalence:
    """Bulk builders vs the per-peer oracle builders: KS on hop distributions."""

    N = 2048
    ROUTES = 1500

    def _hops(self, overlay, seed):
        rng = np.random.default_rng(seed)
        sources, keys = sample_overlay_lookups(
            overlay, self.ROUTES, rng, target_ids=overlay.ids
        )
        return route_many_overlay(overlay, sources, keys).hops

    @pytest.mark.parametrize("ids_factory", [_uniform_ids, _skewed_ids])
    def test_mercury_bulk_matches_scalar(self, ids_factory):
        ids = ids_factory(self.N, 61)
        bulk = MercuryOverlay(ids, np.random.default_rng(1), sample_size=64)
        scalar = OracleMercury(ids, np.random.default_rng(2), sample_size=64)
        ks = ks_two_sample(self._hops(bulk, 3), self._hops(scalar, 4))
        assert ks.p_value > 0.01, (ks.statistic, ks.p_value)

    @pytest.mark.parametrize("ids_factory", [_uniform_ids, _skewed_ids])
    def test_pastry_bulk_matches_scalar(self, ids_factory):
        ids = ids_factory(self.N, 62)
        bulk = PastryOverlay(ids, np.random.default_rng(1))
        scalar = OraclePastry(ids, np.random.default_rng(2))
        ks = ks_two_sample(self._hops(bulk, 3), self._hops(scalar, 4))
        assert ks.p_value > 0.01, (ks.statistic, ks.p_value)
        # Same deterministic structure: identical fill pattern, only the
        # random picks differ.
        assert np.array_equal(bulk.table >= 0, scalar.table >= 0)

    @pytest.mark.parametrize("ids_factory", [_uniform_ids, _skewed_ids])
    def test_pgrid_bulk_matches_scalar(self, ids_factory):
        ids = ids_factory(self.N, 63)
        bulk = PGridOverlay(ids, np.random.default_rng(1))
        scalar = OraclePGrid(ids, np.random.default_rng(2))
        ks = ks_two_sample(self._hops(bulk, 3), self._hops(scalar, 4))
        assert ks.p_value > 0.01, (ks.statistic, ks.p_value)
        # Reference existence is deterministic (only the pick is random).
        assert np.array_equal(bulk.refs >= 0, scalar.refs >= 0)

    def test_pgrid_bulk_refs_point_to_complement(self, rng):
        pgrid = PGridOverlay(_skewed_ids(512, 64), rng)
        for i in range(0, pgrid.n, 13):
            path = pgrid.paths[i]
            for level, ref in enumerate(pgrid.refs[i]):
                if ref >= 0:
                    ref_path = pgrid.paths[int(ref)]
                    assert ref_path[:level] == path[:level]
                    assert ref_path[level] == 1 - path[level]

    def test_symphony_k_budget_respected_by_bulk(self, rng):
        symphony = SymphonyOverlay(_uniform_ids(512, 65), rng, k=4)
        assert symphony.csr.long_degrees().max() <= 4


class TestFrontierContract:
    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_overlay_is_born_holding_its_frontier(self, name, rng):
        """``__init__`` sets the CSR and metric; nothing is built later."""
        overlay = _make(name, _uniform_ids(128, 71), rng)
        held = vars(overlay)
        assert isinstance(held["csr"], CSRAdjacency)
        assert isinstance(held["metric"], RoutingMetric)
        assert held["csr"].n == overlay.n

    @pytest.mark.parametrize("name", ALL_VARIANTS)
    def test_vectorized_owners_match_scalar(self, name, rng):
        overlay = _make(name, _uniform_ids(160, 72), rng)
        keys = np.random.default_rng(73).random(120)
        oracle = scalar_twin(overlay)
        expected = [oracle.owner_of(float(k)) for k in keys]
        assert np.array_equal(overlay.metric.prepare(keys).owners, expected)
        assert [overlay.owner_of(float(k)) for k in keys] == expected

    def test_symphony_row_order_neighbors_first(self, rng):
        overlay = SymphonyOverlay(_uniform_ids(64, 74), rng, k=4)
        csr = overlay.csr
        n = overlay.n
        for i in (0, 17, n - 1):
            row = csr.row(i)
            assert row[0] == (i - 1) % n and row[1] == (i + 1) % n
            assert csr.long_start[i] == csr.indptr[i] + 2

    def test_measurement_paths_share_workloads(self, rng):
        """Same seed => the batch measurement sees the drawn pairs, and its
        summary equals the oracle loop's over them."""
        overlay = ChordOverlay(_uniform_ids(256, 75))
        sources, keys = sample_overlay_lookups(
            overlay, 200, np.random.default_rng(9), target_ids=overlay.ids
        )
        oracle = scalar_twin(overlay)
        scalar_stats = summarize_lookups(
            [oracle.route(int(s), float(k)) for s, k in zip(sources, keys)]
        )
        batch_stats = measure_overlay_batch(
            overlay, 200, np.random.default_rng(9), target_ids=overlay.ids
        )
        assert scalar_stats == batch_stats

    def test_measurement_is_seed_deterministic(self, rng):
        overlay = MercuryOverlay(_skewed_ids(256, 76), rng, sample_size=32)
        a = measure_overlay_batch(
            overlay, 150, np.random.default_rng(4), target_ids=overlay.ids
        )
        b = measure_overlay_batch(
            overlay, 150, np.random.default_rng(4), target_ids=overlay.ids
        )
        assert a == b

    def test_unknown_targets_mode_rejected(self, rng):
        overlay = ChordOverlay(_uniform_ids(64, 77))
        with pytest.raises(ValueError):
            measure_overlay_batch(overlay, 10, rng, targets="nope")


BAD_KEYS = [np.nan, np.inf, -np.inf, 1.5, -0.25]


def _entry_points(name, rng):
    """Return the ``(route, owner_of)`` pair of one public entry point."""
    if name == "greedy_route":
        graph = build_uniform_model(n=200, rng=rng)
        return (lambda key: greedy_route(graph, 3, key)), graph.owner_of
    overlay = _make(name, _uniform_ids(200, 58), rng)
    return (lambda key: overlay.route(3, key)), overlay.owner_of


class TestKeyChecks:
    """A NaN, infinite or out-of-range key raises; it never "arrives"."""

    @pytest.mark.parametrize("bad", BAD_KEYS)
    @pytest.mark.parametrize("name", ALL_VARIANTS + ["greedy_route"])
    def test_route_and_owner_reject_bad_keys(self, name, bad, rng):
        route, owner_of = _entry_points(name, rng)
        with pytest.raises(ValueError, match="outside"):
            route(bad)
        with pytest.raises(ValueError, match="outside"):
            owner_of(bad)
