"""Persistent store round trips: save/load parity, corruption, concurrency."""

from __future__ import annotations

import json
import os
from unittest import mock

import numpy as np
import pytest
from frontier_oracle import assert_batch_matches, oracle_batch

from repro.core import CSRAdjacency, SmallWorldGraph, metric_routing, route_many
from repro.core.metric_routing import GreedyValueMetric
from repro.core.builder import GraphConfig, build_skewed_model, build_uniform_model
from repro.distributions import PowerLaw
from repro.keyspace import IntervalSpace, RingSpace
from repro.store import StoreError, load_graph, save_graph, write_snapshot

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
        np.testing.assert_array_equal(a.reason_codes, b.reason_codes)
        np.testing.assert_array_equal(a.owners, b.owners)
        assert a.paths == b.paths

    @pytest.mark.parametrize("space", [IntervalSpace(), RingSpace()])
    def test_hop_split_is_derived_on_load(self, space, rng, tmp_path):
        """The snapshot stores ids and the CSR's indptr/indices only; the
        loaded rows' long_start is the built graph's, on either space."""
        graph = build_uniform_model(300, rng, GraphConfig(out_degree=4, space=space))
        save_graph(graph, tmp_path / "split")
        manifest = json.loads((tmp_path / "split" / "manifest.json").read_text())
        assert sorted(manifest["arrays"]) == ["ids", "indices", "indptr", "normalized_ids"]
        loaded = load_graph(tmp_path / "split")
        np.testing.assert_array_equal(
            loaded.adjacency.long_start, graph.adjacency.long_start
        )
        sources = rng.integers(0, graph.n, N_ROUTES)
        keys = rng.random(N_ROUTES)
        a = route_many(graph, sources, keys)
        b = route_many(loaded, sources, keys)
        np.testing.assert_array_equal(a.neighbor_hops, b.neighbor_hops)
        np.testing.assert_array_equal(a.long_hops, b.long_hops)

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


class TestCorruption:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            load_graph(tmp_path / "nowhere")

    def test_wrong_kind(self, tmp_path):
        """A snapshot of another kind — an overlay snapshot, as earlier
        versions of the store wrote them — is refused, not misread."""
        path = tmp_path / "overlay"
        write_snapshot(
            path, "overlay",
            payload={"n": 2, "name": "chord"},
            arrays={"indptr": np.array([0, 1, 2]), "indices": np.array([1, 0])},
        )
        with pytest.raises(StoreError, match="'overlay', expected a 'graph'"):
            load_graph(path)

    def test_version_mismatch(self, stored_graph, tmp_path, rng):
        graph = build_uniform_model(64, rng, GraphConfig(out_degree=2))
        path = tmp_path / "versioned"
        save_graph(graph, path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 99
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="version"):
            load_graph(path)

    def test_save_refuses_a_split_the_load_cannot_derive(self, rng, tmp_path):
        graph = build_uniform_model(64, rng, GraphConfig(out_degree=2))
        csr = graph.adjacency
        moved = SmallWorldGraph(
            graph.ids,
            graph.normalized_ids,
            CSRAdjacency(csr.indptr, csr.indices, csr.indptr[1:]),  # no long links
        )
        with pytest.raises(StoreError, match="long links do not start"):
            save_graph(moved, tmp_path / "moved")
        assert not (tmp_path / "moved").exists()

    def test_version_one_snapshot_is_refused(self, rng, tmp_path):
        """A version-1 snapshot (it also stored a per-edge is_long array)
        raises naming its version instead of being half-read."""
        graph = build_uniform_model(64, rng, GraphConfig(out_degree=2))
        path = tmp_path / "v1"
        csr = graph.adjacency
        write_snapshot(
            path, "graph",
            payload={"n": graph.n, "space": "interval", "model": "uniform",
                     "cutoff_mass": graph.cutoff_mass},
            arrays={"ids": graph.ids, "normalized_ids": graph.normalized_ids,
                    "indptr": csr.indptr, "indices": csr.indices,
                    "is_long": csr.long_mask()},
        )
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["version"] = 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="snapshot version 1 is not supported"):
            load_graph(path)

    @pytest.mark.parametrize(
        "section, key",
        [("arrays", key) for key in ("ids", "normalized_ids", "indptr", "indices")]
        + [("payload", key) for key in ("n", "space", "model", "cutoff_mass")],
    )
    def test_manifest_without_a_key_is_refused(self, tmp_path, section, key):
        """A manifest edited to drop one array or payload key raised a bare
        ``KeyError``; it must raise ``StoreError`` naming the key."""
        graph = build_uniform_model(256, np.random.default_rng(9), GraphConfig(out_degree=4))
        path = tmp_path / "dropped"
        save_graph(graph, path)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest[section][key]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match=f"'{key}'"):
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

    def test_last_id_must_lie_below_one(self, tmp_path):
        path = self._edit(tmp_path, "ids", lambda a: a.__setitem__(-1, 1.5))
        with pytest.raises(StoreError, match=r"\[0, 1\)"):
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
