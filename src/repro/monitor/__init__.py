"""``repro.monitor`` — continuous observability over the serving stack.

The watch layer for the paper's central claim: where
:mod:`repro.telemetry` gives point-in-time counters and quantiles, this
package watches them *over time* on a live system and says whether the
overlay is still healthy.

Four pieces (see each module's docstring):

* **time series** (:mod:`~repro.monitor.series`) — fixed-capacity ring
  series in two banks: deterministic per-ticket-window statistics
  (bit-identical for one stream and serving configuration) and
  wall-clock cadence samples;
* **anomaly + SLO** (:mod:`~repro.monitor.anomaly`) — EWMA z-score
  flags per series, chi-square histogram drift, and burn rates against
  two fixed SLO budgets (hop inflation vs. the log²n paper baseline,
  and retirement-reason drift);
* **health probe** (:mod:`~repro.monitor.probes`) — a fixed seeded
  probe workload routed out-of-band over the overlay, scored for
  reachability / partition suspicion / hop inflation / degree drift;
  the serving graph never changes, so the monitor probes it once, at
  construction;
* **flight recorder** (:mod:`~repro.monitor.recorder`) — per-lookup
  traces for a deterministic hash-sampled 1-in-N of queries, read
  from the engine's outcome log, with per-round spans reconstructed
  by bit-identical replay, exported as JSONL or Perfetto-loadable
  Chrome trace JSON.

Surfaces: :class:`ScrapeServer` (:mod:`~repro.monitor.scrape`) serves
``/metrics`` + ``/health`` + ``/series`` over stdlib HTTP, and
:mod:`~repro.monitor.dashboard` renders ASCII frames for
``python -m repro monitor`` / ``serve --monitor``.

Attach to a serving engine::

    engine = ServingEngine(graph, config)
    monitor = Monitor(engine)
    recorder = FlightRecorder(engine, sample_rate=64)
    engine.attach_monitor(monitor)
    with ScrapeServer(monitor) as scrape:
        engine.serve(demand, 200_000, rng)
        print(render_dashboard(monitor))
    recorder.export_chrome_trace("trace.json")
"""

from repro.monitor.anomaly import (
    AnomalyVerdict,
    EwmaDetector,
    SloVerdict,
    chi_square_distance,
    evaluate_slo,
    hop_baseline,
)
from repro.monitor.dashboard import render_dashboard, sparkline
from repro.monitor.monitor import Alert, Monitor
from repro.monitor.probes import HealthProbe, ProbeReport
from repro.monitor.recorder import FlightRecorder, LookupTrace, sample_mask
from repro.monitor.scrape import ScrapeServer
from repro.monitor.series import RingSeries, SeriesBank

__all__ = [
    "Monitor",
    "Alert",
    "RingSeries",
    "SeriesBank",
    "EwmaDetector",
    "AnomalyVerdict",
    "SloVerdict",
    "evaluate_slo",
    "chi_square_distance",
    "hop_baseline",
    "HealthProbe",
    "ProbeReport",
    "FlightRecorder",
    "LookupTrace",
    "sample_mask",
    "ScrapeServer",
    "render_dashboard",
    "sparkline",
]
