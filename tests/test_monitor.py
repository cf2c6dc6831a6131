"""Tests for :mod:`repro.monitor`: ring series, anomaly detection,
health probes, the flight recorder, the monitor driver's determinism
contract, and the scrape/dashboard surfaces."""

import itertools
import json
import urllib.request

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import telemetry
from repro.core import build_uniform_model
from repro.core.builder import GraphConfig, build_from_positions
from repro.core.metric_routing import StreamFrontier
from repro.monitor import (
    EwmaDetector,
    FlightRecorder,
    HealthProbe,
    Monitor,
    RingSeries,
    ScrapeServer,
    SeriesBank,
    chi_square_distance,
    evaluate_slo,
    hop_baseline,
    render_dashboard,
    sample_mask,
    sparkline,
)
from repro.monitor.monitor import WINDOW_SERIES, _window_quantile
from repro.monitor.probes import N_PROBES
from repro.serving import DemandModel, ServeConfig, ServingEngine


@pytest.fixture(scope="module")
def graph():
    return build_uniform_model(
        4096, np.random.default_rng(1234), GraphConfig(out_degree=6)
    )


@pytest.fixture(scope="module")
def demand(graph):
    return DemandModel(
        graph.ids, n_users=400, n_peers=graph.n, rng=np.random.default_rng(77)
    )


def _monitored_serve(graph, demand, *, n_queries=12_000, window=1024):
    engine = ServingEngine(
        graph, ServeConfig(admit_per_round=512, cache_capacity=256)
    )
    monitor = Monitor(engine, window=window, clock=lambda: 0.0)
    engine.attach_monitor(monitor)
    engine.serve(demand, n_queries, np.random.default_rng(31))
    return engine, monitor


class TestRingSeries:
    def test_append_and_read_before_wrap(self):
        s = RingSeries("x", capacity=8)
        for i in range(5):
            s.append(float(i * 10))
        assert len(s) == 5
        assert s.values().tolist() == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert s.indices().tolist() == [0, 1, 2, 3, 4]
        assert s.last == 40.0

    def test_wraparound_keeps_newest(self):
        s = RingSeries("x", capacity=4)
        for i in range(10):
            s.append(float(i))
        assert len(s) == 4
        assert s.values().tolist() == [6.0, 7.0, 8.0, 9.0]
        assert s.indices().tolist() == [6, 7, 8, 9]
        assert s.total_appended == 10

    def test_explicit_indices_and_empty_last(self):
        s = RingSeries("x", capacity=4)
        assert np.isnan(s.last)
        s.append(1.5, index=42)
        assert s.indices().tolist() == [42]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingSeries("x", capacity=0)

    def test_bank_snapshot(self):
        bank = SeriesBank(capacity=4)
        bank.append("a", 1.0)
        bank.append("b", 2.0, index=7)
        snap = bank.snapshot()
        assert snap["a"]["values"] == [1.0]
        assert snap["b"]["indices"] == [7]
        assert bank.names() == ["a", "b"]
        assert "a" in bank and len(bank) == 2


class TestAnomaly:
    def test_stationary_traffic_stays_quiet(self):
        rng = np.random.default_rng(9)
        det = EwmaDetector()
        flags = [det.update(5.0 + 0.1 * rng.standard_normal()) for _ in range(200)]
        assert not any(v.flagged for v in flags)

    def test_step_change_is_flagged(self):
        rng = np.random.default_rng(9)
        det = EwmaDetector()
        for _ in range(50):
            det.update(5.0 + 0.1 * rng.standard_normal())
        # Synthetic hop-inflation step: the level doubles.
        verdict = det.update(10.0)
        assert verdict.flagged and verdict.z > 4.0

    def test_flat_warmup_does_not_alarm_on_wiggle(self):
        det = EwmaDetector()
        for _ in range(20):
            det.update(3.0)
        assert not det.update(3.0000001).flagged

    def test_chi_square_properties(self):
        assert chi_square_distance([1, 2, 3], [1, 2, 3]) == 0.0
        assert chi_square_distance([1, 0], [0, 1]) == 1.0
        # Scale invariance (normalised) and zero-padding of short input.
        assert chi_square_distance([1, 2], [10, 20]) == pytest.approx(0.0)
        assert chi_square_distance([1, 2], [1, 2, 0]) == pytest.approx(0.0)
        assert chi_square_distance([], []) == 0.0

    def test_hop_baseline(self):
        assert hop_baseline(1) == 1.0
        assert hop_baseline(2 **10, 1.0) == pytest.approx(100.0)
        assert hop_baseline(2 **10, 10.0) == pytest.approx(10.0)
        assert hop_baseline(4, 1000.0) == 1.0  # floored

    def test_evaluate_slo_burn_rates(self):
        verdicts = evaluate_slo(
            {"hop_inflation": 6.0, "cache_hit_rate": 0.25, "reason_chi2": 0.1}
        )
        by_name = {v.objective: v for v in verdicts}
        # Budgets: hop inflation 3.0, reason drift 0.25; the cache
        # hit-rate is reported per window but has no objective.
        assert set(by_name) == {"hop_inflation", "reason_chi2"}
        assert by_name["hop_inflation"].burn_rate == pytest.approx(2.0)
        assert by_name["hop_inflation"].breached
        assert by_name["reason_chi2"].burn_rate == pytest.approx(0.4)
        assert not by_name["reason_chi2"].breached

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 4096])
    def test_window_quantile_is_numpys_linear_quantile(self, n):
        rng = np.random.default_rng(n)
        for values in (
            rng.exponential(size=n),
            np.round(rng.exponential(size=n), 1),  # ties
            np.full(n, 0.25),
        ):
            for q in (0.0, 0.01, 0.5, 0.99, 0.999, 1.0, rng.random()):
                assert _window_quantile(values, q) == float(np.quantile(values, q))

    def test_evaluate_slo_skips_missing(self):
        assert evaluate_slo({}) == []


class TestHealthProbe:
    def test_intact_overlay_probes_healthy(self, graph):
        probe = HealthProbe(graph.adjacency, _metric_for(graph), graph.ids)
        report = probe.run()
        assert report.reachability == 1.0
        assert report.partition_suspicion == 0.0
        assert report.degree_drift == 0.0
        assert report.unreached == 0
        assert report.healthy

    def test_same_seed_same_workload(self, graph):
        metric = _metric_for(graph)
        a = HealthProbe(graph.adjacency, metric, graph.ids)
        b = HealthProbe(graph.adjacency, metric, graph.ids)
        assert np.array_equal(a.sources, b.sources)
        assert np.array_equal(a.keys, b.keys)
        r1, r2 = a.run(), b.run()
        assert r1.to_dict() == r2.to_dict()

    def test_for_engine_scores_serving_overlay(self, graph):
        engine = ServingEngine(graph, ServeConfig(admit_per_round=256))
        report = HealthProbe.for_engine(engine).run()
        assert report.reachability == 1.0
        assert report.n_probes == N_PROBES == 256


def _metric_for(graph):
    from repro.core.metric_routing import GreedyValueMetric

    return GreedyValueMetric(graph.ids, graph.space)


class TestSampleMask:
    @pytest.mark.parametrize("width", [64, 512, 4096])
    def test_batch_width_independence(self, graph, demand, width):
        """The recorder hashes the outcome log's (source, key) pairs, so
        its traces are the stream's own 1-in-16 mask whatever the
        micro-batch width."""
        engine = ServingEngine(
            graph, ServeConfig(admit_per_round=width, cache_capacity=256)
        )
        recorder = FlightRecorder(engine, sample_rate=16)
        engine.serve(demand, 8192, np.random.default_rng(31))
        res = engine.results()
        expected = np.flatnonzero(sample_mask(res.sources, res.keys, 16))
        assert len(expected) > 0
        assert [t.ticket for t in recorder.traces()] == expected.tolist()
        assert recorder.n_sampled == len(expected)

    def test_sharding_invariance(self):
        """Chunked evaluation concatenates to the whole-array mask."""
        rng = np.random.default_rng(3)
        sources = rng.integers(0, 1 << 20, size=4096, dtype=np.int64)
        keys = rng.random(4096)
        whole = sample_mask(sources, keys, 8)
        parts = [
            sample_mask(sources[lo : lo + 1000], keys[lo : lo + 1000], 8)
            for lo in range(0, 4096, 1000)
        ]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_rate_one_samples_everything(self):
        sources = np.arange(100, dtype=np.int64)
        keys = np.linspace(0, 1, 100, endpoint=False)
        assert sample_mask(sources, keys, 1).all()

    def test_rate_is_approximately_honoured(self):
        rng = np.random.default_rng(11)
        mask = sample_mask(
            rng.integers(0, 1 << 30, size=200_000, dtype=np.int64),
            rng.random(200_000),
            64,
        )
        assert 0.5 / 64 < mask.mean() < 2.0 / 64


def replay_rounds_one_by_one(engine, source: int, key: float) -> list[dict]:
    """Oracle: re-route one query through a private single-walk frontier,
    stepping it by hand and recording the node each round left from, its
    candidate count and whether the walk moved."""
    frontier = StreamFrontier(
        engine.csr, engine.metric, max_hops=engine.max_hops, capacity=1
    )
    prepared = engine.metric.prepare(np.asarray([key], dtype=float))
    frontier.admit(np.asarray([source], dtype=np.int64), prepared)
    rounds: list[dict] = []
    while frontier.active_count:
        at_node = int(frontier.current[0])
        hops_before = int(frontier.hops[0])
        frontier.step()
        rounds.append(
            {
                "round": frontier.rounds,
                "node": at_node,
                "candidates": frontier.last_round_candidates,
                "moved": int(frontier.hops[0]) > hops_before,
            }
        )
    return rounds


def _assert_rounds_match_oracle(engine, recorder) -> set[str]:
    """Every routed trace's rounds equal the per-lookup oracle's; returns
    the retirement reasons seen."""
    routed = [t for t in recorder.traces() if not t.cache_hit]
    assert routed
    for trace in routed:
        assert trace.rounds == replay_rounds_one_by_one(engine, trace.source, trace.key)
    return {trace.reason for trace in routed}


class TestFlightRecorder:
    @pytest.mark.parametrize("max_hops", [None, 3, 0])
    def test_batch_replay_matches_per_lookup_replay(self, graph, demand, max_hops):
        engine = ServingEngine(
            graph,
            ServeConfig(admit_per_round=512, cache_capacity=256, max_hops=max_hops),
        )
        recorder = FlightRecorder(engine, sample_rate=8)
        engine.serve(demand, 4000, np.random.default_rng(37))
        reasons = _assert_rounds_match_oracle(engine, recorder)
        if max_hops is not None:
            assert "max_hops" in reasons

    def test_batch_replay_matches_per_lookup_replay_when_stuck(self):
        """Peers on a dyadic grid and keys at the midpoints of neighbouring
        ids: a walk that reaches the upper peer of a tie first (the owner
        is the lower one) finds nothing strictly closer and retires stuck."""
        n = 256
        ids = np.arange(n) / n
        grid = build_from_positions(
            ids, ids, np.random.default_rng(3), GraphConfig(out_degree=3)
        )
        rng = np.random.default_rng(5)
        engine = ServingEngine(grid, ServeConfig(admit_per_round=300))
        recorder = FlightRecorder(engine, sample_rate=4)
        engine.submit(rng.integers(0, n, 2000), (rng.integers(0, n, 2000) + 0.5) / n)
        engine.drain()
        assert {"arrived", "stuck"} <= _assert_rounds_match_oracle(engine, recorder)

    def test_traces_replay_and_export(self, graph, demand, tmp_path):
        engine = ServingEngine(
            graph, ServeConfig(admit_per_round=512, cache_capacity=256)
        )
        recorder = FlightRecorder(engine, sample_rate=16)
        engine.serve(demand, 6000, np.random.default_rng(31))
        traces = recorder.traces()  # raises on replay mismatch
        assert len(traces) == recorder.n_sampled > 0
        routed = [t for t in traces if not t.cache_hit]
        assert routed, "expected at least one routed (non-cache-hit) trace"
        for trace in routed:
            assert sum(1 for r in trace.rounds if r["moved"]) == trace.hops
        n_lines = recorder.export_jsonl(tmp_path / "traces.jsonl")
        lines = (tmp_path / "traces.jsonl").read_text().splitlines()
        assert len(lines) == n_lines == len(traces)
        assert all("ticket" in json.loads(line) for line in lines)
        n_events = recorder.export_chrome_trace(tmp_path / "trace.json")
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert len(payload["traceEvents"]) == n_events
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"] == {
            "sample_rate": 16, "n_sampled": len(traces),
        }

    def test_rejects_bad_sample_rate(self, graph):
        engine = ServingEngine(graph, ServeConfig())
        with pytest.raises(ValueError):
            FlightRecorder(engine, sample_rate=0)


class TestMonitorDeterminism:
    def test_windows_emit_only_when_prefix_complete(self, graph, demand):
        engine, monitor = _monitored_serve(graph, demand, n_queries=4096)
        assert monitor.windows_emitted == 4096 // 1024
        stats = monitor.last_window_stats
        assert 0.0 <= stats["success_rate"] <= 1.0
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0
        assert stats["hops_mean"] > 0.0

    def test_monitor_detects_synthetic_hop_inflation_step(self):
        """Feeding doctored outcome columns through _emit_window flags a
        hop-inflation step and stays quiet while traffic is stationary."""

        class _Results:
            pass

        n_windows, w = 24, 256
        rng = np.random.default_rng(5)
        hops = rng.integers(4, 8, size=n_windows * w).astype(np.int64)
        hops[16 * w :] *= 6  # the step
        res = _Results()
        res.hops = hops
        res.success = np.ones(n_windows * w, dtype=bool)
        res.cache_hit = np.zeros(n_windows * w, dtype=bool)
        res.reason_codes = np.zeros(n_windows * w, dtype=np.int8)
        res.latency_seconds = np.full(n_windows * w, 1e-3)

        class _Engine:
            def results(self):
                return res

        engine = _Engine()
        monitor = Monitor.__new__(Monitor)
        monitor.engine = engine
        monitor.window = w
        monitor.bank = SeriesBank(64)
        monitor.wall_bank = SeriesBank(64)
        monitor.detectors = {name: EwmaDetector() for name in WINDOW_SERIES}
        monitor.alerts = []
        monitor.windows_emitted = 0
        monitor.last_window_stats = {}
        monitor.last_slo = []
        monitor._baseline_reasons = None
        monitor._hop_baseline = 6.0
        for k in range(16):
            monitor._emit_window(k)
            monitor.windows_emitted += 1
        assert monitor.alerts == []  # stationary: quiet
        for k in range(16, n_windows):
            monitor._emit_window(k)
            monitor.windows_emitted += 1
        flagged_series = {a.series for a in monitor.alerts}
        assert "window.hops_mean" in flagged_series
        assert "window.hop_inflation" in flagged_series

    def test_window_latency_p99_is_that_windows_own(self, graph, demand):
        """Each window's p99 is np.quantile over its own latency slice;
        the wall bank and the telemetry gauge carry the latest one, and
        the wall bank reads 0.0 before the first window."""
        engine = ServingEngine(
            graph, ServeConfig(admit_per_round=512, cache_capacity=256)
        )
        ticks = itertools.count()
        monitor = Monitor(engine, window=1024, clock=lambda: float(next(ticks)))
        engine.attach_monitor(monitor)
        latest = []
        emit = monitor._emit_window

        def record(k):
            emit(k)
            latest.append(monitor.last_window_stats["latency_p99_ms"])

        monitor._emit_window = record
        telemetry.enable()
        try:
            engine.serve(demand, 6144, np.random.default_rng(31))
            gauge = telemetry.get_registry().snapshot()["gauges"][
                "monitor.window.latency_p99_ms"
            ]
        finally:
            telemetry.disable()
        latency = engine.results().latency_seconds
        assert len(latest) == monitor.windows_emitted == 6
        for k, p99 in enumerate(latest):
            window = latency[k * 1024 : (k + 1) * 1024]
            assert p99 == float(np.quantile(window, 0.99)) * 1e3
        assert gauge == latest[-1]
        wall = monitor.wall_bank.series("wall.latency_p99_ms").values().tolist()
        assert wall[0] == 0.0 and wall[-1] == latest[-1]
        assert set(wall) <= {0.0, *latest}

    def test_health_verdict_shape(self, graph, demand):
        engine, monitor = _monitored_serve(graph, demand)
        verdict = monitor.health()
        assert verdict["status"] in ("ok", "degraded", "critical")
        assert verdict["windows_emitted"] == monitor.windows_emitted
        assert verdict["completed"] == engine.completed
        assert isinstance(verdict["slo"], list)
        json.dumps(verdict)  # must be JSON-serialisable as-is

    def test_monitoring_does_not_perturb_outcomes(self, graph, demand):
        bare = ServingEngine(
            graph, ServeConfig(admit_per_round=512, cache_capacity=256)
        )
        bare.serve(demand, 6000, np.random.default_rng(31))
        engine, _ = _monitored_serve(graph, demand, n_queries=6000)
        for col in ("owners", "hops", "success", "reason_codes", "cache_hit"):
            assert np.array_equal(
                getattr(bare.results(), col), getattr(engine.results(), col)
            ), col


@pytest.fixture(scope="module")
def probe(graph):
    return HealthProbe(graph.adjacency, _metric_for(graph), graph.ids)


class TestMonitorProbe:
    """The serving graph never changes, so the monitor probes it once, at
    construction, and every verdict carries that report."""

    def test_health_carries_the_probe_from_the_first_call(self, graph):
        engine = ServingEngine(graph, ServeConfig(admit_per_round=512))
        verdict = Monitor(engine, window=1024, clock=lambda: 0.0).health()
        assert verdict["windows_emitted"] == 0
        assert verdict["probe"] == HealthProbe.for_engine(engine).run().to_dict()
        assert verdict["status"] == "ok"

    def test_unreachable_owners_are_critical_from_the_first_call(self):
        """Without long links a walk needs up to ~n/2 hops, far past the
        probe's 4·log²n = 576-hop budget at n = 4096."""
        ring = build_uniform_model(
            4096, np.random.default_rng(1234), GraphConfig(out_degree=0)
        )
        verdict = Monitor(ServingEngine(ring), clock=lambda: 0.0).health()
        assert verdict["probe"]["reachability"] < 0.99
        assert verdict["status"] == "critical"

    def test_rejects_bad_window(self, graph):
        with pytest.raises(ValueError):
            Monitor(ServingEngine(graph), window=0)

    @given(owners=st.lists(st.integers(0, 4095), max_size=N_PROBES))
    @example(owners=[0, 1, 2, 2048, 4093, 4094, 4095])  # one arc wraps 0
    def test_partition_suspicion_within_unreached_share(self, probe, owners):
        """The largest failure cluster is at most every failure, so the
        suspicion never exceeds 1 - reachability."""
        suspicion = probe._partition_suspicion(np.asarray(owners, dtype=np.int64))
        assert 0.0 <= suspicion <= len(owners) / N_PROBES


class TestScrapeAndDashboard:
    def test_scrape_endpoints(self, graph, demand):
        telemetry.enable()
        try:
            engine, monitor = _monitored_serve(graph, demand, n_queries=4096)
            with ScrapeServer(monitor) as server:
                metrics = urllib.request.urlopen(server.url + "/metrics").read()
                assert b"repro_monitor_window_hops_mean" in metrics
                assert b"repro_monitor_probe_reachability" in metrics
                health = json.loads(
                    urllib.request.urlopen(server.url + "/health").read()
                )
                assert health["status"] in ("ok", "degraded")
                series = json.loads(
                    urllib.request.urlopen(server.url + "/series").read()
                )
                assert "window.hops_mean" in series["deterministic"]
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(server.url + "/nope")
                assert err.value.code == 404
        finally:
            telemetry.disable()

    def test_scrape_metrics_503_when_telemetry_disabled(self, graph, demand):
        assert not telemetry.enabled()
        _, monitor = _monitored_serve(graph, demand, n_queries=2048)
        with ScrapeServer(monitor) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/metrics")
            assert err.value.code == 503

    def test_sparkline_and_dashboard_render(self, graph, demand):
        assert set(sparkline([])) <= {"·"}  # empty series pads with dots
        line = sparkline([0.0, 0.5, 1.0], width=3)
        assert len(line) == 3
        assert line[0] == "▁" and line[-1] == "█"
        _, monitor = _monitored_serve(graph, demand, n_queries=4096)
        frame = render_dashboard(monitor)
        assert "window.hops_mean" in frame
        assert "burn" in frame  # the SLO burn-rate block rendered
