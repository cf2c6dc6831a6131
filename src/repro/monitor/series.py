"""Fixed-capacity ring-buffer time series for the monitor.

A :class:`RingSeries` holds the last ``capacity`` samples of one signal
as a numpy ring — appends are O(1), reads materialise the window oldest
to newest.  A :class:`SeriesBank` is the monitor's named collection of
them, created lazily on first append like the telemetry registry's
instruments.

Two banks live in :class:`repro.monitor.Monitor`: the **deterministic**
bank, fed once per completed ticket window from outcome columns (values
bit-identical for one stream and serving configuration), and the
**wall** bank, sampled on a wall-clock cadence from the live registry
(dashboard-only, explicitly outside the determinism contract — like
timers).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["RingSeries", "SeriesBank"]


class RingSeries:
    """Bounded ring of ``(index, value)`` samples for one signal.

    Args:
        name: dotted series name (``"window.hops_mean"``).
        capacity: sample bound; the oldest sample falls off when full.
    """

    def __init__(self, name: str, capacity: int = 512):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self._values = np.zeros(capacity, dtype=float)
        self._indices = np.zeros(capacity, dtype=np.int64)
        self._head = 0  # next write position
        self._size = 0
        self.total_appended = 0

    def __len__(self) -> int:
        return self._size

    @property
    def capacity(self) -> int:
        return len(self._values)

    def append(self, value: float, index: int | None = None) -> None:
        """Append one sample; ``index`` defaults to the append ordinal."""
        if index is None:
            index = self.total_appended
        self._values[self._head] = float(value)
        self._indices[self._head] = int(index)
        self._head = (self._head + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)
        self.total_appended += 1

    def _order(self) -> np.ndarray:
        if self._size < self.capacity:
            return np.arange(self._size)
        return (self._head + np.arange(self.capacity)) % self.capacity

    def values(self) -> np.ndarray:
        """Retained samples, oldest to newest (a fresh array)."""
        return self._values[self._order()]

    def indices(self) -> np.ndarray:
        """Sample indices aligned with :meth:`values`."""
        return self._indices[self._order()]

    @property
    def last(self) -> float:
        """Most recent sample (``nan`` when empty)."""
        if self._size == 0:
            return float("nan")
        return float(self._values[(self._head - 1) % self.capacity])

    def __repr__(self) -> str:
        return (
            f"RingSeries({self.name!r}, n={self._size}/{self.capacity}, "
            f"last={self.last:g})"
        )


class SeriesBank:
    """Named, lazily-created collection of :class:`RingSeries`."""

    def __init__(self, capacity: int = 512):
        self._capacity = capacity
        self._series: dict[str, RingSeries] = {}
        self._lock = threading.Lock()

    def series(self, name: str) -> RingSeries:
        s = self._series.get(name)
        if s is None:
            with self._lock:
                s = self._series.setdefault(
                    name, RingSeries(name, self._capacity)
                )
        return s

    def append(self, name: str, value: float, index: int | None = None) -> None:
        self.series(name).append(value, index)

    def names(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready view: per series, indices + values oldest→newest."""
        return {
            name: {
                "indices": self._series[name].indices().tolist(),
                "values": self._series[name].values().tolist(),
            }
            for name in self.names()
        }
