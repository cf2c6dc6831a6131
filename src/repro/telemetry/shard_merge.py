"""Shard-local metric capture and deterministic owner-side merging.

The sharded execution engine (:mod:`repro.parallel`) runs shard
functions in worker processes that share nothing with the owner's
telemetry registry.  This module closes that gap:

* workers run their shard inside :func:`capture`, which installs a
  fresh scoped registry, and ship back a picklable :class:`MetricsDelta`
  alongside the shard result;
* the owner folds the deltas with :func:`merge_deltas` — **in shard
  order**, which :mod:`repro.parallel.autotune` keeps worker-count
  independent — and folds the merged view into its own registry with
  :func:`apply_delta`.

Determinism contract (gated by ``benchmarks/bench_telemetry.py``):
counters and histogram counts of the merged delta are bit-identical for
any worker count, because every shard's observations are a pure
function of its (worker-count-independent) slice and the fold order is
the shard order.  Histograms merge by adding counts, so a sharded
batch's ``routing.hops`` also equals the serial batch's.  Timers and
gauges carry wall-clock measurements and are deliberately outside the
contract — per-shard wall times are *retained* (one
:class:`~repro.telemetry.registry.Timer` observation and one trace event
per shard) precisely because they differ run to run: that spread is the
straggler signal.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.telemetry.registry import Histogram, Registry, Timer

__all__ = ["MetricsDelta", "capture", "merge_deltas", "apply_delta"]


@dataclass
class MetricsDelta:
    """A picklable, mergeable snapshot of one shard's accumulated metrics.

    Attributes:
        counters: counter totals by name.
        gauges: last-written gauge values by name.
        timers: ``(count, total, min, max)`` timer states by name.
        histograms: histogram counts by name (see
            :meth:`~repro.telemetry.registry.Histogram.state`).
        wall_seconds: the shard's wall-clock execution time, when the
            capturing site measured one (straggler analysis).
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    timers: dict[str, tuple] = field(default_factory=dict)
    histograms: dict[str, tuple] = field(default_factory=dict)
    wall_seconds: float | None = None

    @classmethod
    def from_registry(cls, registry: Registry) -> "MetricsDelta":
        """Extract a delta from a registry's current instrument values."""
        return cls(
            counters={name: c.value for name, c in registry.counters.items()},
            gauges={name: g.value for name, g in registry.gauges.items()},
            timers={name: t.state() for name, t in registry.timers.items()},
            histograms={name: h.state() for name, h in registry.histograms.items()},
        )


class _CaptureBox:
    """Holds the delta produced by a :func:`capture` block after exit."""

    def __init__(self) -> None:
        self.delta: MetricsDelta | None = None


@contextmanager
def capture():
    """Accumulate all telemetry from the block into a fresh registry.

    Enables telemetry for the duration (workers inherit nothing from the
    owner's environment on spawn, so capture is unconditional), restores
    the previous enabled/disabled state on exit, and exposes the block's
    metrics as ``box.delta`` — with the block's wall time stamped on it.
    """
    from repro import telemetry

    box = _CaptureBox()
    scoped = Registry()
    previous = telemetry.swap_registry(scoped)
    start = time.perf_counter()
    try:
        yield box
    finally:
        wall = time.perf_counter() - start
        telemetry.swap_registry(previous)
        box.delta = MetricsDelta.from_registry(scoped)
        box.delta.wall_seconds = wall


def merge_deltas(deltas: list[MetricsDelta]) -> MetricsDelta:
    """Fold shard deltas into one coherent view, in list (= shard) order.

    Counters and histogram counts sum; timers merge count/total/min/max;
    gauges last-write-wins in shard order.  Per-shard wall times are
    *not* collapsed here — :func:`apply_delta` retains them individually.
    """
    merged = MetricsDelta()
    timers: dict[str, Timer] = {}
    histograms: dict[str, Histogram] = {}
    for delta in deltas:
        for name, value in delta.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        merged.gauges.update(delta.gauges)
        for name, state in delta.timers.items():
            timers.setdefault(name, Timer()).merge(Timer.from_state(state))
        for name, state in delta.histograms.items():
            histograms.setdefault(name, Histogram()).merge(Histogram.from_state(state))
    merged.timers = {name: timer.state() for name, timer in timers.items()}
    merged.histograms = {name: h.state() for name, h in histograms.items()}
    return merged


def apply_delta(
    delta: MetricsDelta,
    registry: Registry,
    shard_walls: list[float] | None = None,
) -> None:
    """Fold a (merged) delta into ``registry``.

    Args:
        delta: the shard-merged metrics.
        registry: the owner's registry to fold into.
        shard_walls: per-shard wall times, retained as individual
            ``parallel.shard_wall`` timer observations plus one
            ``parallel.shard`` trace event each (straggler analysis).
    """
    from repro.telemetry import tracing

    for name, value in delta.counters.items():
        registry.counter(name).inc(value)
    for name, value in delta.gauges.items():
        registry.gauge(name).set(value)
    for name, state in delta.timers.items():
        registry.timer(name).merge(Timer.from_state(state))
    for name, state in delta.histograms.items():
        registry.histogram(name).merge(Histogram.from_state(state))
    if shard_walls:
        wall_timer = registry.timer("parallel.shard_wall")
        for index, wall in enumerate(shard_walls):
            wall_timer.observe(wall)
            tracing.emit("parallel.shard", shard=index, seconds=wall)
