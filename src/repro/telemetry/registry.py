"""Process-local metric primitives: counters, gauges, timers, histograms.

The registry is the storage layer of :mod:`repro.telemetry`: a flat map
of dotted instrument names (``"routing.reason.arrived"``,
``"parallel.shard_wall"``) to one of four primitive types:

* :class:`Counter` — monotonically increasing totals (walks routed,
  cache hits, frontier rounds);
* :class:`Gauge` — last-written values (live cache entries, shard
  counts);
* :class:`Timer` — accumulated durations with count/total/min/max, fed
  by ``perf_counter`` spans;
* :class:`Histogram` — exact counts of small non-negative integers (hop
  counts), whose quantiles are ``np.quantile``'s and whose merge is an
  addition, so folding a sharded batch's per-shard registries
  (:meth:`Registry.merge`) loses nothing.

Each name belongs to one instrument type.  Everything here is
dependency-free (numpy only) and never touched on the disabled fast
path — the module-level helpers in :mod:`repro.telemetry` return before
reaching the registry when telemetry is off.
"""

from __future__ import annotations

import math
import threading
from collections import deque

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "Registry",
    "QUANTILE_PROBS",
    "DEFAULT_TRACE_CAP",
]

#: Bound on the buffered trace-event deque (oldest dropped, and counted).
DEFAULT_TRACE_CAP = 65536

#: The probabilities every histogram reports (p25 … p99.9).
QUANTILE_PROBS = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Gauge:
    """A last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.value})"


class Timer:
    """Accumulated durations in seconds: count, total, min, max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        """Mean observed duration (0 before any observation)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Timer") -> None:
        """Fold another timer's accumulations into this one."""
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def __repr__(self) -> str:
        return (
            f"Timer(count={self.count}, total={self.total:.6f}, "
            f"mean={self.mean:.6f})"
        )


class Histogram:
    """Exact counts of small non-negative integers, indexed by value.

    Built for hop counts, which never exceed ``max_hops``: ``counts[v]``
    is how many times ``v`` was added, so the array grows to the largest
    value seen plus one.  Quantiles are exact, and merging two
    histograms is adding their counts, so per-shard histograms fold
    into the one a single serial pass would have built.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts = np.zeros(0, dtype=np.int64)

    def add(self, values) -> None:
        """Fold an array of non-negative integers in (one ``bincount``).

        Raises:
            ValueError: for a non-integer array or a negative value.
        """
        values = np.asarray(values).ravel()
        if values.dtype.kind not in "iu":
            raise ValueError(
                f"histogram values must be integers, got dtype {values.dtype}"
            )
        if values.size and values.min() < 0:
            raise ValueError("histogram values must be non-negative")
        self._add_counts(
            np.bincount(values.astype(np.intp, copy=False), minlength=len(self.counts))
        )

    def _add_counts(self, counts: np.ndarray) -> None:
        if len(counts) > len(self.counts):
            grown = np.zeros(len(counts), dtype=np.int64)
            grown[: len(self.counts)] = self.counts
            self.counts = grown
        self.counts[: len(counts)] += counts

    @property
    def count(self) -> int:
        """Number of values added."""
        return int(self.counts.sum())

    def quantile(self, p: float) -> float:
        """``np.quantile`` over the added values, bit for bit.

        Reads the two order statistics around the virtual index
        ``(count - 1) * p`` off the cumulative counts and blends them
        with numpy's default linear rule (including its ``t >= 0.5``
        branch), so no value array is ever expanded.

        Raises:
            ValueError: before any value was added, or for ``p`` outside
                ``[0, 1]``.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        n = self.count
        if n == 0:
            raise ValueError("no values added yet")
        virtual = (n - 1) * p
        if virtual >= n - 1:
            return float(np.flatnonzero(self.counts)[-1])
        below = math.floor(virtual)
        lo, hi = np.searchsorted(
            np.cumsum(self.counts), [below, below + 1], side="right"
        ).tolist()
        t = virtual - below
        if t >= 0.5:
            return float(hi - (hi - lo) * (1 - t))
        return float(lo + (hi - lo) * t)

    def quantiles(self) -> dict[float, float]:
        """The :data:`QUANTILE_PROBS` quantiles, keyed by probability."""
        return {p: self.quantile(p) for p in QUANTILE_PROBS}

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s counts to this histogram."""
        self._add_counts(other.counts)

    def state(self) -> tuple:
        """Comparable snapshot: the counts."""
        return tuple(int(c) for c in self.counts)

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, max={len(self.counts) - 1})"


class Registry:
    """A flat, lazily-populated map of instrument names to primitives.

    Instruments are created on first use; a name held by one instrument
    type cannot be taken by another (:class:`ValueError`), so every name
    renders as one Prometheus metric.  Creation is locked and checks for
    collisions; hot-path lookups are one dict hit and updates rely on
    CPython's atomic attribute operations (single additions), lock-free.
    The trace-event buffer keeps the newest :data:`DEFAULT_TRACE_CAP`
    events and counts what it drops.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.timers: dict[str, Timer] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events: deque = deque(maxlen=DEFAULT_TRACE_CAP)
        self.sink = None  # streaming event sink (see telemetry.export)
        self._lock = threading.Lock()

    def _get(self, table: dict, name: str, factory):
        instrument = table.get(name)
        if instrument is None:
            with self._lock:
                instrument = table.get(name)
                if instrument is None:
                    for other in (self.counters, self.gauges, self.timers, self.histograms):
                        if other is not table and name in other:
                            raise ValueError(
                                f"telemetry name {name!r} already holds a "
                                f"{type(other[name]).__name__.lower()}"
                            )
                    instrument = table[name] = factory()
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(self.counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self.gauges, name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(self.timers, name, Timer)

    def histogram(self, name: str) -> Histogram:
        return self._get(self.histograms, name, Histogram)

    def merge(self, other: "Registry") -> None:
        """Fold ``other``'s instruments into this registry.

        Counters and histogram counts add, timers merge
        count/total/min/max and gauges take ``other``'s value.  Trace
        events stay in ``other``.
        """
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(name).set(gauge.value)
        for name, timer in other.timers.items():
            self.timer(name).merge(timer)
        for name, histogram in other.histograms.items():
            self.histogram(name).merge(histogram)

    def record_event(self, event) -> None:
        """Buffer a trace event, counting (instead of hiding) evictions."""
        events = self.events
        if len(events) == events.maxlen:
            self.counter("telemetry.events.dropped").inc(1)
        events.append(event)

    def snapshot(self) -> dict:
        """Plain-data view of every instrument (for JSON export)."""
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "timers": {
                name: {
                    "count": t.count,
                    "total": t.total,
                    "mean": t.mean,
                    "min": t.min if t.count else 0.0,
                    "max": t.max,
                }
                for name, t in sorted(self.timers.items())
            },
            "quantiles": {
                name: {
                    "count": h.count,
                    **{f"p{p * 100:g}": v for p, v in h.quantiles().items()},
                }
                for name, h in sorted(self.histograms.items())
                if h.count
            },
        }

    def __repr__(self) -> str:
        return (
            f"Registry(counters={len(self.counters)}, gauges={len(self.gauges)}, "
            f"timers={len(self.timers)}, histograms={len(self.histograms)}, "
            f"events={len(self.events)})"
        )
