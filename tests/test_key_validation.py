"""Bad lookups are rejected at the boundary, never routed.

A key must satisfy ``0 <= key < 1``; NaN fails that test too.  Every
routing metric, the live overlay's ownership resolution and the graph's
scalar entry points (``owner_of``, ``lookahead_route``) check their raw
keys before any transform, so a NaN or out-of-range key raises instead
of "succeeding" at the top peer or retiring as ``stuck``.  The
serving engine checks a whole submitted chunk — keys and sources —
before the chunk gets tickets, so one bad lookup can no longer take
down the valid queries it would have shared a micro-batch with.
"""

import warnings

import numpy as np
import pytest

from repro.baselines import (
    CANOverlay,
    ChordOverlay,
    PastryOverlay,
    PGridOverlay,
    WattsStrogatzOverlay,
    route_many_overlay,
)
from repro.core import build_uniform_model, lookahead_route, route_many
from repro.keyspace import check_unit_keys, digit_rows
from repro.overlay import Network
from repro.serving import ServeConfig, ServingEngine


@pytest.fixture(scope="module")
def graph():
    return build_uniform_model(n=2000, rng=np.random.default_rng(7))


class TestCheckUnitKeys:
    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.0, 7.5, np.inf])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="outside"):
            check_unit_keys(np.asarray([0.5, bad]))

    def test_accepts_unit_interval(self):
        keys = check_unit_keys([0.0, 0.5, np.nextafter(1.0, 0.0)])
        assert keys.dtype == float and len(keys) == 3

    def test_digit_rows_rejects_nan_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside"):
                digit_rows(np.asarray([0.3, np.nan]), 16, 4)


class TestRouteMany:
    @pytest.mark.parametrize("bad", [7.5, np.nan])
    def test_rejects_bad_key(self, graph, bad):
        with pytest.raises(ValueError, match="outside"):
            route_many(graph, np.asarray([0, 1]), np.asarray([0.5, bad]))


class TestGraphEntryPoints:
    """The graph's scalar entry points answered bad keys: for NaN,
    ``owner_of`` named the top peer and ``lookahead_route`` went
    ``stuck``; 1.5 and -0.25 "arrived" at the top and bottom peers."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.25])
    def test_owner_of_rejects_bad_key(self, graph, bad):
        with pytest.raises(ValueError, match="outside"):
            graph.owner_of(bad)

    @pytest.mark.parametrize("metric", ["key", "normalized"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5, -0.25])
    def test_lookahead_route_rejects_bad_key(self, graph, bad, metric):
        with pytest.raises(ValueError, match="outside"):
            lookahead_route(graph, 3, bad, metric=metric)


class TestLiveNetwork:
    """The live overlay answered bad keys: NaN "stuck" at the top peer,
    1.5 and -0.25 "arrived" at the top and bottom peers."""

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
    def test_route_rejects_bad_key(self, graph, bad):
        net = Network.from_graph(graph)
        with pytest.raises(ValueError, match="outside"):
            net.route(float(net.ids_array()[0]), bad)

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
    def test_owner_of_rejects_bad_key(self, graph, bad):
        with pytest.raises(ValueError, match="outside"):
            Network.from_graph(graph).owner_of(bad)


def _overlay(name, rng):
    ids = np.sort(np.random.default_rng(11).random(256))
    return {
        "chord": lambda: ChordOverlay(ids),
        "pastry": lambda: PastryOverlay(ids, rng),
        "pgrid": lambda: PGridOverlay(ids, rng),
        "can-2d": lambda: CANOverlay(ids, dims=2),
        "can-1d": lambda: CANOverlay(ids, dims=1),
        "ws": lambda: WattsStrogatzOverlay(256, k=2, p=0.1, rng=rng),
    }[name]()


class TestOverlayKeys:
    @pytest.mark.parametrize(
        "name", ["chord", "pastry", "pgrid", "can-2d", "can-1d", "ws"]
    )
    def test_rejects_nan_key(self, name, rng):
        overlay = _overlay(name, rng)
        with pytest.raises(ValueError, match="outside"):
            route_many_overlay(overlay, np.asarray([0, 1]), np.asarray([0.5, np.nan]))


class TestServingSubmit:
    def _engine(self, graph):
        return ServingEngine(graph, ServeConfig(admit_per_round=64, max_active=128))

    def test_bad_source_chunk_leaves_earlier_chunks_intact(self, graph):
        engine = self._engine(graph)
        engine.submit(np.asarray([3, 4]), np.asarray([0.25, 0.75]))
        with pytest.raises(ValueError, match="out of range"):
            engine.submit(np.asarray([5000]), np.asarray([0.5]))
        assert engine.pending == 2
        engine.drain()
        assert (engine.completed, engine.pending, engine.in_flight) == (2, 0, 0)
        results = engine.results()
        assert len(results) == 2 and results.success.all()

    @pytest.mark.parametrize("bad", [7.5, np.nan])
    def test_bad_key_chunk_is_rejected_whole(self, graph, bad):
        engine = self._engine(graph)
        engine.submit(np.asarray([3]), np.asarray([0.25]))
        with pytest.raises(ValueError, match="outside"):
            engine.submit(np.asarray([1, 2]), np.asarray([0.5, bad]))
        engine.drain()
        assert engine.completed == 1 and len(engine.results()) == 1
