"""Streaming lookup serving: continuous demand over the resident frontier.

The layer that turns the repository's batch routers into a *server*:

* :class:`DemandModel` — heavy-tailed per-user traffic over any key
  corpus (who asks, what for, from where);
* :class:`RouteCache` — LRU hot-key → owner memoisation with
  hit/miss/eviction accounting mirrored into :mod:`repro.telemetry`;
* :class:`ServingEngine` — the admission loop around
  :class:`repro.core.metric_routing.StreamFrontier`: queries wait in a
  ticket-indexed outcome log, micro-batches of the stream join the live
  frontier continuously in ticket order, retired walks write their
  outcomes into the same log (the source of the exact p50/p99/p999
  latency and hops SLO quantiles), and per-query outcomes are a pure
  function of the stream and the engine's configuration, with owners
  and routed hops equal to batch replay.
"""

from repro.serving.cache import RouteCache
from repro.serving.demand import DemandModel, pareto_weights, zipf_weights
from repro.serving.engine import (
    ServeConfig,
    ServeReport,
    ServeResult,
    ServingEngine,
)

__all__ = [
    "DemandModel",
    "pareto_weights",
    "zipf_weights",
    "RouteCache",
    "ServeConfig",
    "ServeReport",
    "ServeResult",
    "ServingEngine",
]
