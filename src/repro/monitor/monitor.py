"""The monitor driver: windows, series, anomaly flags, health verdicts.

:class:`Monitor` attaches to a :class:`~repro.serving.engine.
ServingEngine` (``engine.attach_monitor(monitor)``) and is called once
per pump.  It maintains two series banks:

* the **deterministic bank** — one sample per completed *ticket window*
  ``[k·W, (k+1)·W)``, computed from the engine's ticket-ordered outcome
  columns the moment every ticket in the window has completed.  Because
  those columns are a pure function of the stream and the serving
  configuration (the serving determinism contract), so is every sample
  in this bank, bit for bit.
  Window statistics: routed mean hops, success rate, cache hit-rate,
  stuck rate, hop inflation vs. the paper baseline, and the chi-square
  drift of the retirement-reason mix against the first window.
* the **wall bank** — samples of live operational state taken every
  :data:`WALL_CADENCE_SECONDS` of wall clock (throughput, in-flight,
  pending, and the latest window's latency p99, computed exactly from
  that window's latencies).  Dashboard fuel, explicitly outside the
  determinism contract — exactly like the telemetry layer's timers.

Each deterministic series feeds an EWMA z-score detector
(:class:`~repro.monitor.anomaly.EwmaDetector`); flagged windows append
to :attr:`Monitor.alerts`.  Window stats are also evaluated against the
fixed SLO budgets (:func:`~repro.monitor.anomaly.evaluate_slo`) into
burn rates.

A serving engine never swaps its graph — ``engine.csr`` is fixed at
construction, and a store-loaded CSR is read-only — so a
:class:`~repro.monitor.probes.HealthProbe` of it scores the same every
time.  The monitor runs it once, at construction, and keeps the report
as :attr:`Monitor.probe`.  :meth:`Monitor.health` folds all of it into
one JSON verdict (the scrape endpoint's ``/health`` body).

When telemetry is enabled, window stats are mirrored into
``monitor.window.*`` gauges as windows complete, and probe scores into
``monitor.probe.*`` gauges when the probe runs, so the Prometheus
exposition carries them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.monitor.anomaly import (
    EwmaDetector,
    chi_square_distance,
    evaluate_slo,
    hop_baseline,
)
from repro.monitor.probes import HealthProbe
from repro.monitor.series import SeriesBank

__all__ = ["Monitor", "Alert"]

#: Deterministic per-window series names (the determinism-contract set).
WINDOW_SERIES = (
    "window.hops_mean",
    "window.success_rate",
    "window.cache_hit_rate",
    "window.stuck_rate",
    "window.hop_inflation",
    "window.reason_chi2",
)

#: Ring capacity of every series.
SERIES_CAPACITY = 512

#: Wall-clock sampling period of the wall bank, in seconds.
WALL_CADENCE_SECONDS = 0.25


def _window_quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` (its default linear rule), bit for bit.

    A window's latencies hold a few dozen distinct values (a pump's
    cache hits share one), where ``np.quantile``'s partition degrades:
    on a 4096-lookup window (2-CPU x86 host, numpy 2.4) it cost
    ~100 µs, about 2% of serving time, and one sort ~10 µs.
    """
    ordered = np.sort(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    t = pos - lo
    # numpy's lerp: from the nearer end, so t = 0 and t = 1 are exact.
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


@dataclass
class Alert:
    """One flagged window: which series alarmed, how hard, and when."""

    window: int
    series: str
    value: float
    z: float

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "series": self.series,
            "value": self.value,
            "z": self.z,
        }


class Monitor:
    """Continuous observability over one serving engine.

    Args:
        engine: the :class:`~repro.serving.engine.ServingEngine`.
        window: ticket-window width W — deterministic series emit one
            sample per W completed tickets.
        clock: injectable wall clock for the wall bank (tests).
    """

    def __init__(self, engine, window: int = 4096, *, clock=None):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.engine = engine
        self.window = window
        self._clock = clock if clock is not None else time.monotonic
        self.bank = SeriesBank(SERIES_CAPACITY)
        self.wall_bank = SeriesBank(SERIES_CAPACITY)
        self.detectors = {name: EwmaDetector() for name in WINDOW_SERIES}
        self.alerts: list[Alert] = []
        self.windows_emitted = 0
        self.last_window_stats: dict = {}
        self.last_slo: list = []
        self._complete_prefix = 0
        self._baseline_reasons: np.ndarray | None = None
        self._hop_baseline = hop_baseline(
            engine.csr.n,
            float(np.asarray(engine.csr.out_degrees(), dtype=float).mean())
            if engine.csr.n
            else 1.0,
        )
        self._last_wall_sample = float("-inf")
        self._last_wall_completed = 0
        self.probe = HealthProbe.for_engine(engine).run()
        if telemetry.enabled():
            for stat_key, value in self.probe.to_dict().items():
                if isinstance(value, (int, float)) and math.isfinite(value):
                    telemetry.gauge_set(f"monitor.probe.{stat_key}", float(value))

    # ------------------------------------------------------------------
    # pump hook
    # ------------------------------------------------------------------
    def after_pump(self) -> int:
        """Advance windows and cadence sampling; returns windows emitted.

        Called by the engine at the end of every pump (one attribute
        check + this call is the whole hot-path cost of monitoring).
        """
        emitted = self._advance_windows()
        now = self._clock()
        if now - self._last_wall_sample >= WALL_CADENCE_SECONDS:
            self._sample_wall(now)
        return emitted

    def _advance_windows(self) -> int:
        """Emit every ticket window that has fully completed."""
        completed = self.engine.results().completed
        n_tickets = len(completed)
        prefix = self._complete_prefix
        # Vectorized prefix advance: march in blocks, stopping at the
        # first un-completed ticket (argmin of a bool block finds the
        # first False).  Amortized O(1) numpy work per completed ticket.
        while prefix < n_tickets:
            block = completed[prefix : min(prefix + 8192, n_tickets)]
            if block.all():
                prefix += len(block)
                continue
            prefix += int(np.argmin(block))
            break
        self._complete_prefix = prefix
        emitted = 0
        w = self.window
        while (self.windows_emitted + 1) * w <= prefix:
            self._emit_window(self.windows_emitted)
            self.windows_emitted += 1
            emitted += 1
        return emitted

    def _emit_window(self, k: int) -> None:
        """Compute window k's stats from ticket-ordered outcome columns."""
        from repro.core.metric_routing import _REASON_LABELS, REASON_STUCK

        w = self.window
        res = self.engine.results()
        lo, hi = k * w, (k + 1) * w
        hops = res.hops[lo:hi]
        success = res.success[lo:hi]
        cache_hit = res.cache_hit[lo:hi]
        reasons = res.reason_codes[lo:hi]
        n_hits = int(np.count_nonzero(cache_hit))
        n_routed = w - n_hits
        # Cache hits are finished with hops == 0, so the window's hop
        # total is the routed hop total — no boolean-index copy needed.
        hops_mean = float(hops.sum()) / n_routed if n_routed else 0.0
        reason_hist = np.bincount(reasons, minlength=len(_REASON_LABELS))
        if self._baseline_reasons is None:
            self._baseline_reasons = reason_hist.astype(np.int64)
        stats = {
            "window": k,
            "hops_mean": hops_mean,
            "success_rate": int(np.count_nonzero(success)) / w,
            "cache_hit_rate": n_hits / w,
            "stuck_rate": int(reason_hist[REASON_STUCK]) / w,
            "hop_inflation": hops_mean / self._hop_baseline,
            "reason_chi2": chi_square_distance(
                self._baseline_reasons, reason_hist
            ),
        }
        for name in WINDOW_SERIES:
            stat_key = name.removeprefix("window.")
            value = stats[stat_key]
            self.bank.append(name, value, index=k)
            verdict = self.detectors[name].update(value)
            if verdict.flagged:
                self.alerts.append(Alert(k, name, value, verdict.z))
                telemetry.count("monitor.alerts")
        # Wall-clock-dependent SLO inputs ride along for burn rates but
        # never enter the deterministic bank.
        latency_p99_ms = _window_quantile(res.latency_seconds[lo:hi], 0.99) * 1e3
        self.last_window_stats = {**stats, "latency_p99_ms": latency_p99_ms}
        self.last_slo = evaluate_slo(self.last_window_stats)
        if telemetry.enabled():
            for stat_key, value in stats.items():
                if stat_key != "window":
                    telemetry.gauge_set(f"monitor.window.{stat_key}", value)
            telemetry.gauge_set("monitor.window.latency_p99_ms", latency_p99_ms)
            telemetry.gauge_set("monitor.windows_emitted", self.windows_emitted + 1)

    def _sample_wall(self, now: float) -> None:
        """Cadence sample of live operational state into the wall bank."""
        engine = self.engine
        elapsed = now - self._last_wall_sample
        if math.isfinite(elapsed) and elapsed > 0:
            rate = (engine.completed - self._last_wall_completed) / elapsed
            self.wall_bank.append("wall.throughput", rate)
        self._last_wall_sample = now
        self._last_wall_completed = engine.completed
        self.wall_bank.append("wall.pending", float(engine.pending))
        self.wall_bank.append("wall.in_flight", float(engine.in_flight))
        self.wall_bank.append(
            "wall.latency_p99_ms", self.last_window_stats.get("latency_p99_ms", 0.0)
        )
        if telemetry.enabled():
            telemetry.gauge_set("monitor.wall.pending", float(engine.pending))
            telemetry.gauge_set("monitor.wall.in_flight", float(engine.in_flight))

    # ------------------------------------------------------------------
    # verdicts
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """One JSON verdict: status, burn rates, alerts, probe scores.

        ``status`` is ``"ok"`` (no breaches, no recent alerts),
        ``"degraded"`` (an SLO burn rate > 1 or an anomaly flagged in
        the last 8 windows) or ``"critical"`` (probe reachability below
        0.99).  The probe's partition suspicion never exceeds
        ``1 - reachability``, so it is reported but adds no clause.
        """
        breaches = [v for v in self.last_slo if v.breached]
        recent_floor = self.windows_emitted - 8
        recent_alerts = [a for a in self.alerts if a.window >= recent_floor]
        status = "ok"
        if breaches or recent_alerts:
            status = "degraded"
        if self.probe.reachability < 0.99:
            status = "critical"
        return {
            "status": status,
            "windows_emitted": self.windows_emitted,
            "completed": int(self.engine.completed),
            "pending": int(self.engine.pending),
            "in_flight": int(self.engine.in_flight),
            "window": {
                k: v
                for k, v in self.last_window_stats.items()
                if isinstance(v, (int, float))
            },
            "slo": [
                {
                    "objective": v.objective,
                    "observed": v.observed,
                    "budget": v.budget,
                    "burn_rate": v.burn_rate,
                    "breached": v.breached,
                }
                for v in self.last_slo
            ],
            "alerts": [a.to_dict() for a in recent_alerts],
            "n_alerts_total": len(self.alerts),
            "probe": self.probe.to_dict(),
        }
