"""``repro.telemetry`` — low-overhead cross-layer observability.

The instrumentation substrate for the routing/parallel/store stack:
process-local :class:`~repro.telemetry.registry.Counter` / ``Gauge`` /
``Timer`` primitives plus an exact integer ``Histogram`` (the hop
counts), frontier trace events (:mod:`~repro.telemetry.tracing`),
deterministic shard merging for the worker pool
(:mod:`~repro.telemetry.shard_merge`) and JSONL / Prometheus-text
exports (:mod:`~repro.telemetry.export`).

Disabled by default, and **cheap** when disabled: every module-level
helper reads one module global and returns — no registry lookups, no
allocation.  Enable per process with :func:`enable` (optionally with a
streaming JSONL sink), via the CLI's ``--telemetry`` flag, or by
exporting ``REPRO_TELEMETRY=1`` (any other non-empty value is taken as
a JSONL path).  The gate in ``benchmarks/bench_telemetry.py`` holds
*enabled* batch routing within 5% of disabled throughput at n=1e5.

Instrumented call sites use the helpers directly::

    from repro import telemetry

    telemetry.count("routing.walks", len(sources))
    with telemetry.time_block("store.load_graph"):
        ...
    telemetry.trace("routing.batch", walks=len(sources))

Worker processes never inherit the owner's enabled state (the pool uses
spawn); the dispatch layer captures worker-side metrics explicitly with
:func:`repro.telemetry.shard_merge.capture` and merges the returned
deltas owner-side, so ``workers=N`` reports one coherent view.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from repro.telemetry import export, shard_merge, tracing
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
from repro.telemetry.shard_merge import (
    MetricsDelta,
    apply_delta,
    capture,
    merge_deltas,
)
from repro.telemetry.tracing import TraceEvent

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "get_registry",
    "active_registry",
    "swap_registry",
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
    "MetricsDelta",
    "capture",
    "merge_deltas",
    "apply_delta",
    "QUANTILE_PROBS",
    "DEFAULT_TRACE_CAP",
    "ENV_TELEMETRY",
    "export",
    "tracing",
    "shard_merge",
]

#: Environment opt-in: ``1``/``true``/``yes``/``on`` enables, any other
#: non-empty value enables *and* streams events to that path as JSONL.
ENV_TELEMETRY = "REPRO_TELEMETRY"

#: The active registry, or ``None`` when telemetry is disabled.  Module
#: helpers check this one global and return immediately when unset —
#: the no-op fast path the overhead gate measures.
_ACTIVE: Registry | None = None


def enable(jsonl: str | os.PathLike | None = None) -> Registry:
    """Turn telemetry on for this process (idempotent).

    Args:
        jsonl: optional path; when given, trace events stream to it as
            JSONL for the lifetime of this enablement (closed with the
            final metrics snapshot by :func:`disable` / :func:`reset`).

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


def reset() -> Registry | None:
    """Drop all collected state, staying enabled if currently enabled."""
    global _ACTIVE
    if _ACTIVE is None:
        return None
    if _ACTIVE.sink is not None:
        _ACTIVE.sink.close(_ACTIVE)
    _ACTIVE = Registry()
    return _ACTIVE


def get_registry() -> Registry:
    """Return the active registry, enabling telemetry if needed."""
    return enable()


def active_registry() -> Registry | None:
    """The active registry, or ``None`` when disabled (no side effects)."""
    return _ACTIVE


def swap_registry(registry: Registry | None) -> Registry | None:
    """Install ``registry`` as the active one, returning the previous.

    The scoped-capture hook used by
    :func:`repro.telemetry.shard_merge.capture`; passing ``None``
    disables collection.
    """
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, registry
    return previous


# ----------------------------------------------------------------------
# hot-path helpers (all no-ops while disabled)
# ----------------------------------------------------------------------

def count(name: str, n: int | float = 1) -> None:
    """Increment counter ``name`` by ``n``."""
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name).inc(n)


def gauge_set(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value``."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name).set(value)


def timer_observe(name: str, seconds: float) -> None:
    """Record an externally measured duration on timer ``name``."""
    registry = _ACTIVE
    if registry is not None:
        registry.timer(name).observe(seconds)


@contextmanager
def time_block(name: str):
    """Time the block into timer ``name`` (cheap no-op when disabled)."""
    registry = _ACTIVE
    if registry is None:
        yield
        return
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


def _env_opt_in() -> None:
    raw = os.environ.get(ENV_TELEMETRY, "").strip()
    if not raw or raw == "0" or raw.lower() in ("false", "no", "off"):
        return
    if raw == "1" or raw.lower() in ("true", "yes", "on"):
        enable()
    else:
        enable(jsonl=raw)


_env_opt_in()
