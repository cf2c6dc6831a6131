"""Equivalence suite for the baseline CSR + metric frontier contract.

Four layers, mirroring ``tests/test_bulk_dynamics.py``:

* **hop-for-hop parity** — for every baseline (and every routing
  variant: hashed, unidirectional, alternate dimensions), the batch
  frontier kernel and the batch-of-one ``route`` must reproduce the
  scalar walk of ``route_oracle.py`` exactly: success, hops,
  neighbour/long split, owner, reason, and the full visited path, on
  uniform and skewed populations.
* **builder equivalence** — the bulk whole-population builders
  (Mercury's row-wise estimators, Pastry's prefix-range tables,
  P-Grid's dyadic-cell references, one or several per level) must be
  statistically indistinguishable from the per-peer loops in
  ``builder_oracle.py``: KS on hop distributions at n = 2048, uniform
  and skewed.
* **contract invariants** — cached frontier identity, vectorized owner
  resolution agreeing with the oracle's owner rule, and workload
  determinism of the batch measurement path.
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
    WattsStrogatzOverlay,
    measure_overlay_batch,
    route_many_overlay,
    sample_overlay_lookups,
)
from repro.core import build_uniform_model, greedy_route
from repro.distributions import PowerLaw
from repro.overlay import summarize_lookups
from repro.store import load_overlay, save_overlay


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
    if name == "pastry-hashed":
        return PastryOverlay(ids, rng, hashed=True)
    if name == "pgrid":
        return PGridOverlay(ids, rng)
    if name == "pgrid-refs2":
        return PGridOverlay(ids, rng, refs_per_level=2)
    if name == "symphony":
        return SymphonyOverlay(ids, rng, k=4)
    if name == "symphony-unidirectional":
        return SymphonyOverlay(ids, rng, k=4, bidirectional=False)
    if name == "mercury":
        return MercuryOverlay(ids, rng, sample_size=32)
    if name == "can-2d":
        return CANOverlay(ids, dims=2)
    if name == "can-1d":
        return CANOverlay(ids, dims=1)
    raise KeyError(name)

ALL_VARIANTS = [
    "chord", "chord-hashed", "pastry", "pastry-hashed", "pgrid", "pgrid-refs2",
    "symphony", "symphony-unidirectional", "mercury", "can-2d", "can-1d",
]


#: Lookups per parity check that also go through the batch-of-one ``route``.
SINGLE_ROUTES = 40


def _assert_route_matches(result, ref, key):
    """One ``route()`` result equals the oracle's, field for field.

    ``target_key`` is the key looked up: the hashed oracles report the
    hashed key there, so it is compared with ``key`` instead.
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

    def test_watts_strogatz(self, rng):
        overlay = WattsStrogatzOverlay(192, k=4, p=0.2, rng=rng)
        _assert_parity(overlay, seed=9, targets="uniform")

    def test_watts_strogatz_unrewired(self, rng):
        overlay = WattsStrogatzOverlay(128, k=2, p=0.0, rng=rng)
        _assert_parity(overlay, seed=10, targets="uniform")

    def test_scalar_built_overlays_route_identically(self, rng):
        """The frontier contract holds for the per-peer oracle builders too."""
        ids = _uniform_ids(160, 54)
        for overlay in (
            OracleMercury(ids, rng, sample_size=32),
            OraclePastry(ids, rng),
            OraclePGrid(ids, rng),
            OraclePGrid(ids, rng, refs_per_level=2),
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
        ws = WattsStrogatzOverlay(64, k=2, p=0.1, rng=rng)
        with pytest.raises(ValueError):
            scalar_twin(ws).route(0, 1.0)
        with pytest.raises(ValueError):
            ws.route(0, 1.0)
        with pytest.raises(ValueError):
            route_many_overlay(ws, np.asarray([0]), np.asarray([1.0]))

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
        assert np.array_equal(bulk._row_filled, scalar._row_filled)

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
            for level, refs in enumerate(pgrid.refs[i]):
                for ref in refs[refs >= 0]:
                    ref_path = pgrid.paths[int(ref)]
                    assert ref_path[:level] == path[:level]
                    assert ref_path[level] == 1 - path[level]

    @pytest.mark.parametrize("ids_factory", [_uniform_ids, _skewed_ids])
    def test_pgrid_multi_refs_match_scalar(self, ids_factory):
        ids = ids_factory(self.N, 66)
        bulk = PGridOverlay(ids, np.random.default_rng(1), refs_per_level=2)
        scalar = OraclePGrid(ids, np.random.default_rng(2), refs_per_level=2)
        ks = ks_two_sample(self._hops(bulk, 3), self._hops(scalar, 4))
        assert ks.p_value > 0.01, (ks.statistic, ks.p_value)
        assert np.array_equal(bulk.refs >= 0, scalar.refs >= 0)

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_pgrid_multi_refs_fill_their_complement_cell(self, r):
        """Each (peer, level) holds min(r, subtree size) distinct members of
        its complement subtree, ascending and packed before the padding."""
        pgrid = PGridOverlay(_skewed_ids(600, 67), np.random.default_rng(5), r)
        members: dict[tuple[int, ...], set[int]] = {}
        for j, path in enumerate(pgrid.paths):
            for l in range(len(path) + 1):
                members.setdefault(path[:l], set()).add(j)
        depth = pgrid.refs.shape[1]
        for i, path in enumerate(pgrid.paths):
            for level in range(depth):
                row = pgrid.refs[i, level]
                refs = row[row >= 0]
                cell = (
                    members.get(path[:level] + (1 - path[level],), set())
                    if level < len(path) else set()
                )
                assert len(refs) == min(r, len(cell)), (i, level)
                assert np.all(row[len(refs):] == -1)
                assert np.all(np.diff(refs) > 0)  # ascending, so distinct
                assert set(refs.tolist()) <= cell

    def test_pgrid_multi_refs_cover_small_cells_uniformly(self):
        """Draws without replacement: every pair of a 3-member cell is
        equally likely when two references are kept."""
        ids = np.asarray([0.1, 0.6, 0.7, 0.8])  # peer 0's level-0 cell: 3 peers
        counts: dict[tuple[int, ...], int] = {}
        for seed in range(600):
            row = PGridOverlay(ids, np.random.default_rng(seed), 2).refs[0, 0]
            counts[tuple(row.tolist())] = counts.get(tuple(row.tolist()), 0) + 1
        assert set(counts) == {(1, 2), (1, 3), (2, 3)}
        assert min(counts.values()) > 150

    def test_symphony_k_budget_respected_by_bulk(self, rng):
        symphony = SymphonyOverlay(_uniform_ids(512, 65), rng, k=4)
        assert max(len(links) for links in symphony.long_links) <= 4


class TestFrontierContract:
    def test_frontier_is_cached(self, rng):
        overlay = SymphonyOverlay(_uniform_ids(128, 71), rng, k=4)
        assert overlay.to_csr() is overlay.to_csr()
        assert overlay.metric is overlay.metric

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
        csr = overlay.to_csr()
        n = overlay.n
        for i in (0, 17, n - 1):
            row = csr.row(i)
            assert row[0] == (i - 1) % n and row[1] == (i + 1) % n
            assert not csr.row_is_long(i)[:2].any()
            assert csr.row_is_long(i)[2:].all()

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


def _entry_points(name, rng, tmp_path):
    """Return the ``(route, owner_of)`` pair of one public entry point."""
    if name == "greedy_route":
        graph = build_uniform_model(n=200, rng=rng)
        return (lambda key: greedy_route(graph, 3, key)), graph.owner_of
    if name == "ws":
        overlay = WattsStrogatzOverlay(200, k=4, p=0.2, rng=rng)
    elif name == "ws-unrewired":
        overlay = WattsStrogatzOverlay(200, k=4, p=0.0, rng=rng)
    elif name == "loaded":
        save_overlay(ChordOverlay(_uniform_ids(200, 58)), tmp_path / "chord")
        overlay = load_overlay(tmp_path / "chord")
    else:
        overlay = _make(name, _uniform_ids(200, 58), rng)
    return (lambda key: overlay.route(3, key)), overlay.owner_of


class TestKeyChecks:
    """A NaN, infinite or out-of-range key raises; it never "arrives"."""

    @pytest.mark.parametrize("bad", BAD_KEYS)
    @pytest.mark.parametrize(
        "name", ALL_VARIANTS + ["ws", "ws-unrewired", "loaded", "greedy_route"]
    )
    def test_route_and_owner_reject_bad_keys(self, name, bad, rng, tmp_path):
        route, owner_of = _entry_points(name, rng, tmp_path)
        with pytest.raises(ValueError, match="outside"):
            route(bad)
        with pytest.raises(ValueError, match="outside"):
            owner_of(bad)
