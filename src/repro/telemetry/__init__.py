"""``repro.telemetry`` — low-overhead cross-layer observability.

The instrumentation substrate for the routing/parallel/store stack:
process-local :class:`~repro.telemetry.registry.Counter` / ``Gauge`` /
``Timer`` primitives plus an exact integer ``Histogram`` (the hop
counts), frontier trace events (:mod:`~repro.telemetry.tracing`),
per-thread scoped capture for sharded batches (:func:`capture`) and
JSONL / Prometheus-text exports (:mod:`~repro.telemetry.export`).

Disabled by default, and **cheap** when disabled: every module-level
helper reads one module global and returns — no registry lookups, no
allocation.  Enable per process with :func:`enable` (optionally with a
streaming JSONL sink) or via the CLI's ``--telemetry[=PATH]`` flag.
The gate in ``benchmarks/bench_telemetry.py`` holds
*enabled* batch routing within 5% of disabled throughput at n=1e5.

Instrumented call sites use the helpers directly::

    from repro import telemetry

    telemetry.count("routing.walks", len(sources))
    with telemetry.time_block("store.load_graph"):
        ...
    telemetry.trace("routing.batch", walks=len(sources))

A sharded batch (:mod:`repro.parallel`) routes each shard under
:func:`capture` on its pool thread, into a fresh registry of its own;
the caller folds those registries into its own in shard order, so
``workers=N`` reports one coherent view.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

from repro.telemetry import export, tracing
from repro.telemetry.export import summary_table as _summary_table
from repro.telemetry.registry import (
    DEFAULT_TRACE_CAP,
    QUANTILE_PROBS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    Timer,
)
from repro.telemetry.tracing import TraceEvent

__all__ = [
    "enable",
    "disable",
    "enabled",
    "get_registry",
    "active_registry",
    "capture",
    "count",
    "gauge_set",
    "timer_observe",
    "time_block",
    "trace",
    "summary_table",
    "Registry",
    "Counter",
    "Gauge",
    "Timer",
    "Histogram",
    "TraceEvent",
    "QUANTILE_PROBS",
    "DEFAULT_TRACE_CAP",
    "export",
    "tracing",
]

#: The active registry, or ``None`` when telemetry is disabled.  Module
#: helpers check this one global and return immediately when unset —
#: the no-op fast path the overhead gate measures.
_ACTIVE: Registry | None = None


class _Scope(threading.local):
    """This thread's :func:`capture` target, read only while enabled."""

    registry: Registry | None = None


_SCOPE = _Scope()


def enable(jsonl: str | os.PathLike | None = None) -> Registry:
    """Turn telemetry on for this process (idempotent).

    Args:
        jsonl: optional path; when given, trace events stream to it as
            JSONL for the lifetime of this enablement (closed with the
            final metrics snapshot by :func:`disable`).

    Returns:
        The active :class:`Registry`.
    """
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Registry()
    if jsonl is not None and _ACTIVE.sink is None:
        _ACTIVE.sink = export.JsonlSink(jsonl)
    return _ACTIVE


def disable() -> None:
    """Turn telemetry off, closing any streaming sink (state is dropped)."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    if registry is not None and registry.sink is not None:
        registry.sink.close(registry)


def enabled() -> bool:
    """True when telemetry is collecting in this process."""
    return _ACTIVE is not None


def get_registry() -> Registry:
    """Return this thread's registry, enabling telemetry if needed."""
    registry = enable()
    return _SCOPE.registry or registry


def active_registry() -> Registry | None:
    """This thread's registry, or ``None`` when disabled (no side effects).

    Inside a :func:`capture` block that is the block's scoped registry.
    """
    if _ACTIVE is None:
        return None
    return _SCOPE.registry or _ACTIVE


@contextmanager
def capture():
    """Collect this thread's telemetry from the block into a fresh registry.

    Yields the scoped :class:`Registry`.  While telemetry is enabled,
    every helper called on this thread inside the block records into it
    instead of the active registry, which stays untouched until the
    caller folds the scoped one in (:meth:`Registry.merge`); other
    threads are unaffected.  On exit — also by an exception — the
    thread's previous target is restored, so captures nest.  While
    telemetry is disabled the helpers record nothing, inside a capture
    or not.
    """
    scoped = Registry()
    previous = _SCOPE.registry
    _SCOPE.registry = scoped
    try:
        yield scoped
    finally:
        _SCOPE.registry = previous


# ----------------------------------------------------------------------
# hot-path helpers (all no-ops while disabled)
# ----------------------------------------------------------------------

def count(name: str, n: int | float = 1) -> None:
    """Increment counter ``name`` by ``n``."""
    registry = _ACTIVE
    if registry is not None:
        (_SCOPE.registry or registry).counter(name).inc(n)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value``."""
    registry = _ACTIVE
    if registry is not None:
        (_SCOPE.registry or registry).gauge(name).set(value)


def timer_observe(name: str, seconds: float) -> None:
    """Record an externally measured duration on timer ``name``."""
    registry = _ACTIVE
    if registry is not None:
        (_SCOPE.registry or registry).timer(name).observe(seconds)


@contextmanager
def time_block(name: str):
    """Time the block into timer ``name`` (cheap no-op when disabled)."""
    registry = _ACTIVE
    if registry is None:
        yield
        return
    registry = _SCOPE.registry or registry
    start = time.perf_counter()
    try:
        yield
    finally:
        registry.timer(name).observe(time.perf_counter() - start)


def trace(name: str, **fields) -> None:
    """Emit a trace event (see :func:`repro.telemetry.tracing.emit`)."""
    if _ACTIVE is not None:
        tracing.emit(name, **fields)


def summary_table() -> str:
    """ASCII summary table of the active registry.

    Raises:
        RuntimeError: when telemetry is disabled.
    """
    if _ACTIVE is None:
        raise RuntimeError("telemetry is disabled; call telemetry.enable() first")
    return _summary_table(_ACTIVE)
