"""Persistent store round trips: save/load parity, corruption, concurrency."""

from __future__ import annotations

import json
import os
from unittest import mock

import numpy as np
import pytest
from frontier_oracle import assert_batch_matches, oracle_batch

from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    MercuryOverlay,
    PastryOverlay,
    PGridOverlay,
    SymphonyOverlay,
    WattsStrogatzOverlay,
    route_many_overlay,
)
from repro.core import metric_routing, route_many
from repro.core.metric_routing import GreedyValueMetric
from repro.core.builder import GraphConfig, build_skewed_model, build_uniform_model
from repro.distributions import PowerLaw
from repro.store import (
    LoadedOverlay,
    StoreError,
    load_graph,
    load_overlay,
    save_graph,
    save_overlay,
)

N = 1024
N_ROUTES = 300


@pytest.fixture(scope="module")
def stored_graph(tmp_path_factory):
    """A built graph, its snapshot directory, and the loaded twin."""
    rng = np.random.default_rng(42)
    graph = build_uniform_model(N, rng, GraphConfig(out_degree=4))
    path = tmp_path_factory.mktemp("store") / "graph"
    save_graph(graph, path)
    return graph, path, load_graph(path)


def _overlay_zoo(rng):
    ids = np.sort(rng.random(N))
    return [
        ChordOverlay(ids),
        ChordOverlay(ids, hashed=True),
        SymphonyOverlay(ids, np.random.default_rng(1)),
        SymphonyOverlay(ids, np.random.default_rng(1), bidirectional=False),
        PastryOverlay(ids, np.random.default_rng(2), hashed=True),
        PGridOverlay(ids, np.random.default_rng(3)),
        MercuryOverlay(ids, np.random.default_rng(4)),
        CANOverlay(rng.random(N), dims=2),
        WattsStrogatzOverlay(N, 4, 0.1, np.random.default_rng(5)),
    ]


class TestGraphRoundTrip:
    def test_routes_byte_identical(self, stored_graph, rng):
        graph, _, loaded = stored_graph
        sources = rng.integers(0, N, N_ROUTES)
        keys = rng.random(N_ROUTES)
        a = route_many(graph, sources, keys, record_paths=True)
        b = route_many(loaded, sources, keys, record_paths=True)
        np.testing.assert_array_equal(a.success, b.success)
        np.testing.assert_array_equal(a.hops, b.hops)
        np.testing.assert_array_equal(a.neighbor_hops, b.neighbor_hops)
        np.testing.assert_array_equal(a.long_hops, b.long_hops)
        np.testing.assert_array_equal(a.owners, b.owners)
        assert a.paths == b.paths

    def test_skewed_model_round_trips(self, rng, tmp_path):
        graph = build_skewed_model(
            PowerLaw(2.5), 512, rng, GraphConfig(out_degree=4)
        )
        save_graph(graph, tmp_path / "skewed")
        loaded = load_graph(tmp_path / "skewed")
        sources = rng.integers(0, 512, 100)
        keys = rng.random(100)
        a = route_many(graph, sources, keys)
        b = route_many(loaded, sources, keys)
        np.testing.assert_array_equal(a.hops, b.hops)
        np.testing.assert_array_equal(a.owners, b.owners)
        assert loaded.model == "skewed"
        assert loaded.cutoff_mass == graph.cutoff_mass

    def test_arrays_are_memmaps(self, stored_graph):
        _, _, loaded = stored_graph
        assert isinstance(loaded.ids, np.memmap)
        assert isinstance(loaded.normalized_ids, np.memmap)
        assert isinstance(loaded.adjacency.indices, np.memmap)

    def test_long_links_lazy_rows_match(self, stored_graph):
        graph, _, loaded = stored_graph
        assert len(loaded.long_links) == graph.n
        for i in (0, 1, N // 2, N - 1):
            np.testing.assert_array_equal(
                np.sort(np.asarray(loaded.long_links[i])),
                np.sort(np.asarray(graph.long_links[i])),
            )
        assert loaded.total_long_links() == graph.total_long_links()

    def test_read_only_mutation_guard(self, stored_graph):
        _, _, loaded = stored_graph
        with pytest.raises(ValueError):
            loaded.ids[0] = 0.5
        with pytest.raises(ValueError):
            loaded.adjacency.indices[0] = 0

    def test_snapshot_config_hook(self, rng, tmp_path):
        store = tmp_path / "hooked"
        built = build_uniform_model(
            256, rng, GraphConfig(out_degree=4, snapshot=str(store))
        )
        loaded = load_graph(store)
        np.testing.assert_array_equal(built.ids, loaded.ids)
        np.testing.assert_array_equal(
            built.adjacency.indices, loaded.adjacency.indices
        )


class TestOverlayRoundTrip:
    def test_all_baselines_byte_identical(self, rng, tmp_path):
        for i, overlay in enumerate(_overlay_zoo(rng)):
            path = tmp_path / f"ov{i}"
            save_overlay(overlay, path)
            loaded = load_overlay(path)
            assert isinstance(loaded, LoadedOverlay)
            assert loaded.n == overlay.n
            sources = rng.integers(0, overlay.n, N_ROUTES)
            keys = rng.random(N_ROUTES)
            a = route_many_overlay(overlay, sources, keys, record_paths=True)
            b = route_many_overlay(loaded, sources, keys, record_paths=True)
            label = f"{overlay.name}[{i}]"
            np.testing.assert_array_equal(a.success, b.success, err_msg=label)
            np.testing.assert_array_equal(a.hops, b.hops, err_msg=label)
            np.testing.assert_array_equal(a.owners, b.owners, err_msg=label)
            assert a.paths == b.paths, label
            np.testing.assert_array_equal(
                overlay.table_sizes(), loaded.table_sizes(), err_msg=label
            )

    def test_scalar_route_and_owner(self, rng, tmp_path):
        overlay = ChordOverlay(np.sort(rng.random(N)))
        save_overlay(overlay, tmp_path / "chord")
        loaded = load_overlay(tmp_path / "chord")
        for key in (0.05, 0.42, 0.97):
            a = overlay.route(7, key)
            b = loaded.route(7, key)
            assert list(a.path) == list(b.path)
            assert a.success == b.success
            assert overlay.owner_of(key) == loaded.owner_of(key)
        with pytest.raises(ValueError):
            loaded.route(overlay.n + 1, 0.5)

    def test_custom_transform_rejected(self, rng, tmp_path):
        from repro.keyspace import RingSpace

        overlay = SymphonyOverlay(np.sort(rng.random(64)), rng)
        overlay._frontier_cache = (
            overlay.to_csr(),
            GreedyValueMetric(
                overlay.ids, RingSpace(), transform=lambda k: k
            ),
        )
        with pytest.raises(StoreError, match="transform"):
            save_overlay(overlay, tmp_path / "custom")


class TestCorruption:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            load_graph(tmp_path / "nowhere")

    def test_wrong_kind(self, stored_graph, tmp_path):
        _, path, _ = stored_graph
        with pytest.raises(StoreError, match="kind|graph|overlay"):
            load_overlay(path)

    def test_version_mismatch(self, stored_graph, tmp_path, rng):
        graph = build_uniform_model(64, rng, GraphConfig(out_degree=2))
        path = tmp_path / "versioned"
        save_graph(graph, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="version"):
            load_graph(path)

    def test_not_a_store(self, tmp_path):
        path = tmp_path / "junk"
        path.mkdir()
        (path / "manifest.json").write_text('{"format": "something-else"}')
        with pytest.raises(StoreError, match="not a"):
            load_graph(path)

    def test_truncated_array(self, rng, tmp_path):
        graph = build_uniform_model(64, rng, GraphConfig(out_degree=2))
        path = tmp_path / "truncated"
        save_graph(graph, path)
        target = path / "arrays" / "indices.npy"
        data = target.read_bytes()
        target.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreError):
            load_graph(path)

    def test_missing_array_file(self, rng, tmp_path):
        graph = build_uniform_model(64, rng, GraphConfig(out_degree=2))
        path = tmp_path / "gone"
        save_graph(graph, path)
        os.remove(path / "arrays" / "ids.npy")
        with pytest.raises(StoreError, match="missing"):
            load_graph(path)

    def test_shape_mismatch(self, rng, tmp_path):
        graph = build_uniform_model(64, rng, GraphConfig(out_degree=2))
        path = tmp_path / "reshaped"
        save_graph(graph, path)
        np.save(path / "arrays" / "ids.npy", np.zeros(3))
        with pytest.raises(StoreError, match="manifest"):
            load_graph(path)


class TestHandEditedGraph:
    """A snapshot whose CSR or ids were edited in place must not load."""

    @staticmethod
    def _edit(tmp_path, key, edit):
        graph = build_uniform_model(
            256, np.random.default_rng(8), GraphConfig(out_degree=4)
        )
        path = tmp_path / "edited"
        save_graph(graph, path)
        target = path / "arrays" / f"{key}.npy"
        array = np.load(target)
        edit(array)
        np.save(target, array)
        return path

    def test_indptr_must_start_at_zero(self, tmp_path):
        path = self._edit(tmp_path, "indptr", lambda a: a.__setitem__(0, 1))
        with pytest.raises(StoreError, match=r"indptr\[0\]"):
            load_graph(path)

    def test_indptr_must_not_decrease(self, tmp_path):
        path = self._edit(tmp_path, "indptr", lambda a: a.__setitem__(10, a[12]))
        with pytest.raises(StoreError, match="non-decreasing"):
            load_graph(path)

    def test_row_must_hold_its_neighbours(self, tmp_path):
        path = self._edit(tmp_path, "indptr", lambda a: a.__setitem__(10, a[11] - 1))
        with pytest.raises(StoreError, match="neighbour count"):
            load_graph(path)

    def test_ids_must_strictly_increase(self, tmp_path):
        path = self._edit(tmp_path, "ids", lambda a: a.__setitem__(7, a[6]))
        with pytest.raises(StoreError, match="strictly increasing"):
            load_graph(path)

    def test_edge_target_out_of_range(self, tmp_path):
        path = self._edit(tmp_path, "indices", lambda a: a.__setitem__(3, 10**6))
        with pytest.raises(StoreError, match="out of range"):
            load_graph(path)

    def test_unsorted_row_still_routes_exactly(self, tmp_path):
        """Swapping two long links of one row leaves a loadable snapshot
        whose rows are no longer sorted.  Its lookups must still equal the
        per-walk oracle's, with search rounds allowed on every round: the
        kernel reads row order off the loaded arrays, never assumes it."""
        graph = build_uniform_model(256, np.random.default_rng(8), GraphConfig(out_degree=4))
        row = int(np.argmax(graph.long_degrees()[1:-1])) + 1  # two neighbours
        slot = int(graph.adjacency.indptr[row]) + 2  # its first long link
        path = self._edit(
            tmp_path, "indices",
            lambda a: a.__setitem__([slot, slot + 1], a[[slot + 1, slot]]),
        )
        loaded = load_graph(path)
        csr = loaded.adjacency
        assert not csr.tails_sorted
        rng = np.random.default_rng(3)
        sources = np.full(N_ROUTES, row)
        keys = rng.random(N_ROUTES)
        with mock.patch.object(metric_routing, "_SEARCH_MIN_CANDIDATES", -(1 << 62)):
            batch = route_many(loaded, sources, keys, record_paths=True)
        metric = GreedyValueMetric(loaded.ids, loaded.space)
        assert_batch_matches(batch, oracle_batch(csr, metric, sources, keys))


class TestHandEditedOverlay:
    """An overlay snapshot with an edited CSR or CAN zone tree must not load."""

    @staticmethod
    def _edit(tmp_path, key, edit, overlay=None):
        if overlay is None:
            ids = np.sort(np.random.default_rng(9).random(2000))
            overlay = SymphonyOverlay(ids, np.random.default_rng(9), k=4)
        path = tmp_path / "edited"
        save_overlay(overlay, path)
        target = path / "arrays" / f"{key}.npy"
        array = np.load(target)
        edit(array)
        np.save(target, array)
        return path

    def test_indptr_must_start_at_zero(self, tmp_path):
        path = self._edit(tmp_path, "indptr", lambda a: a.__setitem__(0, 1))
        with pytest.raises(StoreError, match=r"indptr\[0\]"):
            load_overlay(path)

    def test_indptr_must_not_decrease(self, tmp_path):
        path = self._edit(tmp_path, "indptr", lambda a: a.__setitem__(10, a[12]))
        with pytest.raises(StoreError, match="non-decreasing"):
            load_overlay(path)

    @pytest.mark.parametrize("target", [10**6, -3])
    def test_edge_target_out_of_range(self, tmp_path, target):
        path = self._edit(tmp_path, "indices", lambda a: a.__setitem__(3, target))
        with pytest.raises(StoreError, match="out of range"):
            load_overlay(path)

    @staticmethod
    def _can():
        return CANOverlay(np.random.default_rng(9).random(300), dims=2)

    def test_swapped_zone_ids_raise(self, tmp_path):
        """Two leaves trading zone ids would send lookups to the wrong owner."""

        def swap(zone):
            leaves = np.flatnonzero(zone >= 0)
            zone[leaves[[3, 7]]] = zone[leaves[[7, 3]]]

        path = self._edit(tmp_path, "metric_bsp_zone", swap, self._can())
        with pytest.raises(StoreError, match="centre"):
            load_overlay(path)

    @pytest.mark.parametrize(
        ("key", "value", "match"),
        [
            ("metric_bsp_low", 10**6, "child index"),
            ("metric_bsp_zone", 300, "zone id"),
            ("metric_bsp_split_dim", 2, "split dim"),
            ("metric_bsp_split_at", 0.0, "centre"),
        ],
    )
    def test_edited_bsp_entry_raises(self, tmp_path, key, value, match):
        """One out-of-range entry in the root (internal) or the last
        node (a leaf) raises instead of misrouting or an IndexError."""

        def edit(array):
            array[0 if key != "metric_bsp_zone" else -1] = value

        path = self._edit(tmp_path, key, edit, self._can())
        with pytest.raises(StoreError, match=match):
            load_overlay(path)
