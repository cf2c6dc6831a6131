"""Cross-layer telemetry: primitives, tracing, shard merge, exports.

The guarantees pinned here:

* **primitives** — counters/gauges/timers accumulate and merge exactly;
  the integer histogram's quantiles are ``np.quantile``'s bit for bit
  and its merge is one add; a name belongs to one instrument type;
* **lifecycle** — helpers are no-ops while disabled, ``enable`` /
  ``disable`` / ``reset`` manage one process-wide registry, and the
  ``REPRO_TELEMETRY`` environment flag opts in at import time;
* **shard merge** — worker deltas captured around a scoped registry
  fold deterministically: merged counters and histograms are
  bit-identical for workers {1, 2, 4} over one dispatch, and the merged
  ``routing.hops`` equals a serial batch's and ``np.bincount`` of the
  hops;
* **instrumentation** — the routing kernel publishes the full
  REASON-code histogram (zeros included) and per-batch walk/round
  counters; :func:`summarize_lookups` carries the same stable schema;
* **exports** — JSONL sinks emit valid JSON lines ending in a snapshot,
  and the Prometheus text rendering mangles names correctly.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import telemetry
from repro.core import build_uniform_model, route_many, sample_routes
from repro.experiments.cli import main as cli_main
from repro.overlay.stats import summarize_lookups
from repro.parallel import get_executor, route_many_parallel
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsDelta,
    Registry,
    Timer,
    capture,
    merge_deltas,
)
from repro.telemetry.export import render_text, summary_table

PROBS = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(11)
    g = build_uniform_model(n=2048, rng=rng)
    _ = g.adjacency
    return g


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(41)
        assert c.value == 42

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(3.0)
        g.set(7.5)
        assert g.value == 7.5

    def test_timer_stats_and_merge(self):
        a, b = Timer(), Timer()
        for s in (0.1, 0.3):
            a.observe(s)
        b.observe(0.2)
        a.merge(b)
        assert a.count == 3
        assert a.total == pytest.approx(0.6)
        assert a.min == pytest.approx(0.1)
        assert a.max == pytest.approx(0.3)
        assert a.mean == pytest.approx(0.2)

    def test_timer_state_roundtrip(self):
        t = Timer()
        t.observe(0.25)
        t.observe(0.75)
        assert Timer.from_state(t.state()).state() == t.state()

    def test_registry_instruments_are_singletons(self):
        r = Registry()
        assert r.counter("a.b") is r.counter("a.b")
        assert r.timer("t") is r.timer("t")
        assert r.histogram("h") is r.histogram("h")

    def test_names_are_unique_across_instrument_types(self):
        r = Registry()
        r.counter("x").inc()
        for make in (r.gauge, r.timer, r.histogram):
            with pytest.raises(ValueError, match="already holds a counter"):
                make("x")
        r.histogram("h")
        with pytest.raises(ValueError, match="already holds a histogram"):
            r.gauge("h")
        assert r.counter("x").value == 1
        assert "x" not in r.gauges and "h" not in r.gauges


class TestHistogram:
    @staticmethod
    def _filled(*chunks) -> Histogram:
        histogram = Histogram()
        for chunk in chunks:
            histogram.add(np.asarray(chunk, dtype=np.int64))
        return histogram

    @pytest.mark.parametrize(
        "chunks",
        [
            [[7]],  # one value
            [[3, 3, 3, 3]],  # all ties
            [[0, 0, 1, 5, 5, 5, 9]],  # ties, a gap, zero
            [[4, 1], [1, 9, 9], [], [0]],  # adds split across calls
            [list(range(20)), [19] * 5, [0] * 5],
        ],
    )
    def test_quantiles_equal_numpy_on_edge_cases(self, chunks):
        histogram = self._filled(*chunks)
        values = np.concatenate([np.asarray(c, dtype=np.int64) for c in chunks])
        assert histogram.count == len(values)
        for p in (0.0, 1.0, *PROBS, 1 / 3):
            assert histogram.quantile(p) == np.quantile(values, p)
        assert list(histogram.quantiles()) == list(PROBS)

    @given(
        chunks=st.lists(
            st.lists(st.integers(0, 40), max_size=50), min_size=1, max_size=4
        ).filter(lambda chunks: any(chunks)),
        p=st.floats(0.0, 1.0),
    )
    def test_quantiles_equal_numpy(self, chunks, p):
        histogram = self._filled(*chunks)
        values = np.concatenate([np.asarray(c, dtype=np.int64) for c in chunks])
        expanded = np.repeat(np.arange(len(histogram.counts)), histogram.counts)
        assert np.array_equal(np.sort(values), expanded)
        assert histogram.quantile(p) == np.quantile(values, p)
        for q in PROBS:
            assert histogram.quantile(q) == np.quantile(values, q)

    def test_counts_grow_to_the_largest_value(self):
        histogram = self._filled([2, 0, 2])
        assert histogram.counts.tolist() == [1, 0, 2]
        histogram.add(np.array([5], dtype=np.uint8))
        assert histogram.counts.tolist() == [1, 0, 2, 0, 0, 1]
        assert histogram.counts.dtype == np.int64

    def test_merge_equals_one_add(self):
        rng = np.random.default_rng(3)
        x, y = rng.integers(0, 12, 3000), rng.integers(4, 30, 500)
        merged = self._filled(x)
        merged.merge(self._filled(y))
        assert merged.state() == self._filled(np.concatenate([x, y])).state()
        empty = Histogram()
        empty.merge(merged)
        assert empty.state() == merged.state()
        merged.merge(Histogram())
        assert merged.state() == empty.state()

    def test_state_roundtrip(self):
        histogram = self._filled(np.random.default_rng(4).integers(0, 25, 500))
        assert Histogram.from_state(histogram.state()).state() == histogram.state()
        assert histogram.state() == tuple(histogram.counts.tolist())

    @pytest.mark.parametrize(
        "values", [[1, -1], np.array([0.0, 1.0]), np.array([True]), [2.5]]
    )
    def test_rejects_negative_and_float_input(self, values):
        histogram = self._filled([1, 2])
        with pytest.raises(ValueError):
            histogram.add(values)
        assert histogram.state() == (0, 1, 1)

    def test_quantile_validation(self):
        with pytest.raises(ValueError, match="no values"):
            Histogram().quantile(0.5)
        histogram = self._filled([1])
        for p in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="lie in"):
                histogram.quantile(p)


class TestP2Quantile:
    """The guarantees the P² hop estimator was held to, which the
    :class:`Histogram` that replaced it meets exactly, not within a
    tolerance."""

    def test_exact_while_buffering(self):
        # P² was exact only below its marker count; the histogram is
        # exact from the first value on.
        histogram, seen = Histogram(), []
        for value in (3, 1, 4, 1, 5):
            histogram.add(np.array([value], dtype=np.int64))
            seen.append(value)
            for p in (0.0, 0.5, 1.0):
                assert histogram.quantile(p) == np.quantile(seen, p)
        assert histogram.quantile(0.0) == 1.0
        assert histogram.quantile(1.0) == 5.0

    def test_accuracy_on_large_stream(self):
        data = np.random.default_rng(0).geometric(0.15, 100_000)
        histogram = Histogram()
        histogram.add(data)
        assert histogram.count == len(data)
        for p in (0.0, *PROBS, 1.0):
            assert histogram.quantile(p) == np.quantile(data, p)

    def test_batch_update_is_deterministic(self):
        data = np.random.default_rng(1).integers(0, 40, 20_000)
        a, b = Histogram(), Histogram()
        a.add(data)
        b.add(data)
        assert a.state() == b.state()
        assert a.quantiles() == b.quantiles()

    def test_batch_matches_chunked_feed(self):
        # Any split of the input lands on the state of one add, P²'s
        # sub-batch alignment no longer matters.
        data = np.random.default_rng(2).integers(0, 30, 5_000)
        whole, chunked = Histogram(), Histogram()
        whole.add(data)
        for lo, hi in zip((0, 1, 1, 700, 2048), (1, 1, 700, 2048, len(data))):
            chunked.add(data[lo:hi])
        assert whole.state() == chunked.state()
        assert whole.quantiles() == chunked.quantiles()

    def test_merge_is_deterministic_and_sane(self):
        rng = np.random.default_rng(3)
        x, y = rng.integers(0, 20, 30_000), rng.integers(10, 40, 30_000)
        states = []
        for first, second in ((x, y), (x, y), (y, x)):
            a, b = Histogram(), Histogram()
            a.add(first)
            b.add(second)
            a.merge(b)
            states.append(a.state())
        assert states[0] == states[1] == states[2]
        merged = Histogram.from_state(states[0])
        both = np.concatenate([x, y])
        assert merged.count == 60_000
        for p in (0.0, *PROBS, 1.0):
            assert merged.quantile(p) == np.quantile(both, p)

    def test_merge_into_empty_adopts_state(self):
        src = Histogram()
        src.add(np.arange(100))
        dst = Histogram()
        dst.merge(src)
        assert dst.state() == src.state()
        # The merge copies counts: later adds to the source stay there.
        src.add(np.array([7]))
        assert dst.count == 100

    def test_merge_buffering_side_is_exact(self):
        dst = Histogram()
        dst.add(np.arange(50))
        src = Histogram()
        src.add(np.array([200, 300]))
        dst.merge(src)
        assert dst.count == 52
        assert dst.quantile(1.0) == 300.0
        both = np.concatenate([np.arange(50), [200, 300]])
        for p in (0.5, 0.99, 0.999):
            assert dst.quantile(p) == np.quantile(both, p)


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_disabled_helpers_are_noops(self):
        assert not telemetry.enabled()
        telemetry.count("x")
        telemetry.gauge_set("x", 1.0)
        telemetry.timer_observe("x", 1.0)
        telemetry.trace("x", a=1)
        with telemetry.time_block("x"):
            pass
        assert telemetry.active_registry() is None

    def test_enable_disable_reset(self):
        registry = telemetry.enable()
        assert telemetry.enabled()
        assert telemetry.enable() is registry  # idempotent
        telemetry.count("demo", 3)
        assert registry.counter("demo").value == 3
        fresh = telemetry.reset()
        assert fresh is not registry
        assert telemetry.get_registry().counter("demo").value == 0
        telemetry.disable()
        assert not telemetry.enabled()

    def test_render_helpers_require_enabled(self):
        with pytest.raises(RuntimeError):
            telemetry.summary_table()

    def test_env_var_opt_in(self):
        code = (
            "from repro import telemetry; "
            "print(telemetry.enabled())"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONPATH": "src", "REPRO_TELEMETRY": "1", "PATH": "/usr/bin"},
            capture_output=True,
            text=True,
            cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert out.stdout.strip() == "True", out.stderr


# ----------------------------------------------------------------------
# shard merge
# ----------------------------------------------------------------------
class TestShardMerge:
    def test_capture_returns_scoped_delta(self):
        telemetry.enable()
        telemetry.count("outer", 1)
        with capture() as box:
            telemetry.count("inner", 5)
            telemetry.timer_observe("inner.t", 0.5)
            telemetry.get_registry().histogram("inner.h").add(np.arange(100))
        delta = box.delta
        assert isinstance(delta, MetricsDelta)
        assert delta.counters == {"inner": 5}
        assert "inner.t" in delta.timers
        assert delta.histograms == {"inner.h": (1,) * 100}
        assert delta.wall_seconds >= 0.0
        # The capture never leaked into the owner registry...
        registry = telemetry.get_registry()
        assert "inner" not in registry.counters
        # ...and the owner registry was restored afterwards.
        telemetry.count("outer", 1)
        assert registry.counter("outer").value == 2

    def test_merge_deltas_sums_counters_in_order(self):
        deltas = []
        for value in (2, 3, 5):
            telemetry.enable()
            with capture() as box:
                telemetry.count("c", value)
            deltas.append(box.delta)
        merged = merge_deltas(deltas)
        assert merged.counters == {"c": 10}

    def test_workers_124_merge_bit_identical(self, graph):
        rng = np.random.default_rng(5)
        sources = rng.integers(0, graph.n, 6000).astype(np.int64)
        keys = rng.random(6000)
        telemetry.enable()
        serial = route_many(graph, sources, keys, workers=None)
        serial_hops = telemetry.get_registry().histogram("routing.hops").state()
        telemetry.disable()
        assert serial_hops == tuple(np.bincount(serial.hops).tolist())
        views = {}
        for workers in (1, 2, 4):
            telemetry.reset()
            telemetry.enable()
            batch = route_many_parallel(
                graph, sources, keys, executor=get_executor(workers)
            )
            registry = telemetry.get_registry()
            counters = {
                name: c.value
                for name, c in registry.counters.items()
                if name.startswith(("routing.", "parallel.shards"))
            }
            histograms = {
                name: h.state() for name, h in registry.histograms.items()
            }
            views[workers] = (counters, histograms, int(batch.hops.sum()))
            telemetry.disable()
            # Merged hop counts are the serial run's, not an estimate.
            assert np.array_equal(batch.hops, serial.hops)
            assert histograms == {"routing.hops": serial_hops}
        assert views[1][0]["routing.walks"] == 6000
        assert views[2] == views[1]
        assert views[4] == views[1]

    def test_per_shard_walls_recorded(self, graph):
        rng = np.random.default_rng(6)
        sources = rng.integers(0, graph.n, 6000).astype(np.int64)
        keys = rng.random(6000)
        telemetry.enable()
        route_many_parallel(graph, sources, keys, executor=get_executor(1))
        registry = telemetry.get_registry()
        shards = registry.counter("parallel.shards").value
        assert shards >= 2
        assert registry.timer("parallel.shard_wall").count == shards


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------
class TestInstrumentation:
    def test_routing_reason_histogram_has_full_schema(self, graph):
        telemetry.enable()
        rng = np.random.default_rng(7)
        route_many(graph, rng.integers(0, graph.n, 200), rng.random(200))
        registry = telemetry.get_registry()
        for label in ("arrived", "stuck", "max_hops"):
            assert f"routing.reason.{label}" in registry.counters
        total = sum(
            registry.counter(f"routing.reason.{label}").value
            for label in ("arrived", "stuck", "max_hops")
        )
        assert total == registry.counter("routing.walks").value == 200
        assert registry.histogram("routing.hops").count == 200

    def test_summarize_lookups_batch_reasons_schema(self, graph):
        rng = np.random.default_rng(8)
        stats = summarize_lookups(
            route_many(graph, rng.integers(0, graph.n, 100), rng.random(100))
        )
        assert set(stats.reasons) == {"arrived", "stuck", "max_hops"}
        assert sum(stats.reasons.values()) == 100
        assert stats.reasons["arrived"] == round(stats.success_rate * 100)

    def test_summarize_lookups_scalar_reasons_schema(self, graph):
        rng = np.random.default_rng(9)
        stats = summarize_lookups(sample_routes(graph, 50, rng))
        assert set(stats.reasons) == {"arrived", "stuck", "max_hops"}
        assert sum(stats.reasons.values()) == 50

    def test_disabled_routing_records_nothing(self, graph):
        rng = np.random.default_rng(10)
        route_many(graph, rng.integers(0, graph.n, 50), rng.random(50))
        assert telemetry.active_registry() is None


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
class TestExports:
    def _populated_registry(self) -> Registry:
        registry = telemetry.enable()
        telemetry.count("routing.walks", 7)
        telemetry.timer_observe("parallel.publish", 0.125)
        registry.histogram("routing.hops").add(np.arange(64))
        telemetry.trace("routing.batch", walks=7)
        return registry

    def test_render_text_prometheus_shapes(self):
        registry = self._populated_registry()
        text = render_text(registry)
        assert "repro_routing_walks_total 7" in text
        assert "repro_parallel_publish_seconds_count 1" in text
        assert 'repro_routing_hops{quantile="0.5"}' in text

    def test_summary_table_lists_every_instrument(self):
        registry = self._populated_registry()
        table = summary_table(registry)
        assert "routing.walks" in table
        assert "parallel.publish" in table
        assert "routing.hops" in table

    def test_summary_table_empty_registry(self):
        table = summary_table(Registry())
        assert "no metrics" in table

    def test_jsonl_sink_streams_cli_run(self, tmp_path, capsys, graph):
        store = tmp_path / "snap"
        jsonl = tmp_path / "cli.jsonl"
        status = cli_main(
            [
                "build",
                "--store", str(store),
                "--n", "512",
                "--telemetry", str(jsonl),
            ]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "construction.bulk_links" in out
        lines = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert lines[-1]["event"] == "metrics_snapshot"
        assert not telemetry.enabled()  # the CLI cleaned up after itself

    def test_cli_telemetry_summary_without_jsonl(self, tmp_path, capsys):
        store = tmp_path / "snap"
        assert cli_main(["build", "--store", str(store), "--n", "256"]) == 0
        capsys.readouterr()
        status = cli_main(
            ["load", "--store", str(store), "--routes", "64", "--telemetry"]
        )
        assert status == 0
        out = capsys.readouterr().out
        assert "routing.walks" in out
        assert "routing.hops" in out


class TestTraceCapAndSanitization:
    """Bounded trace buffers that count their drops, and a Prometheus
    exposition that stays scrapeable for any name."""

    def test_default_trace_cap(self):
        registry = telemetry.enable()
        assert registry.events.maxlen == telemetry.DEFAULT_TRACE_CAP == 65536

    def test_eviction_counts_dropped_events(self):
        registry = telemetry.enable()
        cap = telemetry.DEFAULT_TRACE_CAP
        for i in range(cap + 6):
            telemetry.trace("evt", i=i)
        assert len(registry.events) == cap
        assert registry.dropped_events == 6
        assert registry.counters["telemetry.events.dropped"].value == 6
        # The newest events are the ones retained.
        assert registry.events[0].fields["i"] == 6
        assert registry.events[-1].fields["i"] == cap + 5

    def test_summary_table_reports_drops(self):
        registry = telemetry.enable()
        for i in range(telemetry.DEFAULT_TRACE_CAP + 1):
            telemetry.trace("evt", i=i)
        assert "dropped: 1" in summary_table(registry)

    def test_gauges_render_with_type_line(self):
        registry = telemetry.enable()
        telemetry.gauge_set("monitor.window.hops_mean", 6.5)
        text = render_text(registry)
        assert "# TYPE repro_monitor_window_hops_mean gauge" in text
        assert "repro_monitor_window_hops_mean 6.5" in text

    def test_metric_names_are_sanitized(self):
        registry = telemetry.enable()
        telemetry.count("weird name/with-bad%chars", 3)
        text = render_text(registry)
        assert "repro_weird_name_with_bad_chars_total 3" in text
        # Nothing outside the Prometheus metric-name alphabet survives.
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            metric = line.split("{")[0].split(" ")[0]
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*", metric), metric

    def test_label_values_are_escaped(self):
        from repro.telemetry.export import _escape_label_value, _label

        assert _escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        assert _label("bad name", 'v"1') == 'bad_name="v\\"1"'
