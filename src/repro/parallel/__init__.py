"""``repro.parallel`` — route batches sharded over a thread pool.

Routing is vectorized per batch; this subsystem splits one batch into
contiguous shards and routes them on the threads of a shared
:class:`~concurrent.futures.ThreadPoolExecutor`.  A greedy walk only
reads the immutable graph, so every shard reads the caller's own CSR,
metric and liveness mask — nothing is copied — and numpy releases the
GIL in the kernel's large gathers, sorts and reductions.  Two modules:

* :mod:`~repro.parallel.dispatch` — the sharded front end
  (:func:`frontier_route_many_parallel`, generic over
  :class:`~repro.core.metric_routing.RoutingMetric`) and the one pool
  per worker count (:func:`get_executor`);
* :mod:`~repro.parallel.autotune` — shard widths and the worker count.

Integration points: ``route_many(..., workers=N)`` (which dispatches a
batch of two or more shards), ``sample_batch``, ``measure_network``,
``run_churn`` and ``run_experiment`` (``workers=N``), and the CLI's
``--workers`` (``run`` and ``load``).

**Determinism contract.**  Shard boundaries depend only on the batch
size (never the worker count), and merges happen in shard order — so
every front end returns bit-identical outcome columns (success, hops
and their split, reasons, owners, paths) for any worker count
including 1, and bit-identical to its serial counterpart, as are
``candidates_seen`` and the ``routing.walks``, ``routing.reason.*``
and ``routing.hops`` telemetry.  ``rounds`` and ``routing.rounds``
are sums over the shards, so a sharded batch counts more rounds than
the same batch routed serially.
"""

from importlib import import_module

#: Public name → providing submodule.  Resolution is lazy (PEP 562) so
#: that serial hot paths importing :mod:`repro.parallel.autotune` (which
#: ``route_many`` consults on every call) never pay for — or cycle
#: through — the dispatch module's imports.
_EXPORTS = {
    "get_default_workers": "autotune",
    "resolve_workers": "autotune",
    "set_default_workers": "autotune",
    "shard_bounds": "autotune",
    "should_parallelize": "autotune",
    "frontier_route_many_parallel": "dispatch",
    "get_executor": "dispatch",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
