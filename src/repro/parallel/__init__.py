"""``repro.parallel`` — sharded multi-core execution over shared-memory CSR.

Routing is vectorized per batch; this subsystem spreads those route
batches across cores.  Five modules:

* :mod:`~repro.parallel.shm` — :class:`SharedArena` publishes CSR
  adjacency, id vectors and per-edge tag arrays through
  :mod:`multiprocessing.shared_memory`, so workers attach zero-copy
  instead of unpickling graphs; arrays loaded from a
  :mod:`repro.store` snapshot are served straight off the backing
  files with no copy at all;
* :mod:`~repro.parallel.arena_cache` — the owner-side
  :class:`ArenaCache` keeps hot graphs' published arenas alive across
  dispatch calls, so repeated ``route_many(workers=N)`` batches over
  one graph republish nothing;
* :mod:`~repro.parallel.executor` — :class:`ShardedExecutor`, a
  persistent spawn-safe worker pool with arena lifecycle management and
  a process-wide shared instance per worker count (:func:`get_executor`);
* :mod:`~repro.parallel.dispatch` — the sharded front-ends
  (:func:`route_many_parallel`, :func:`frontier_route_many_parallel`);
* :mod:`~repro.parallel.autotune` — chunk-size/worker-count heuristics,
  with the worker count overridable by ``REPRO_WORKERS``.

Integration points: ``route_many(..., workers=N)``,
``measure_network(..., workers=N)``, ``run_churn(..., workers=N)`` and
the CLI's ``--workers`` (``run`` and ``load``).

**Determinism contract.**  Shard boundaries depend only on the workload
(never the worker count), and merges happen in shard order — so every
front-end returns bit-identical results for any worker count including
1, and bit-identical to its serial counterpart.
"""

from importlib import import_module

#: Public name → providing submodule.  Resolution is lazy (PEP 562) so
#: that serial hot paths importing :mod:`repro.parallel.autotune` (which
#: ``route_many`` consults on every call) never pay for — or cycle
#: through — the executor/dispatch machinery.
_EXPORTS = {
    "get_default_workers": "autotune",
    "resolve_workers": "autotune",
    "set_default_workers": "autotune",
    "shard_bounds": "autotune",
    "should_parallelize": "autotune",
    "frontier_route_many_parallel": "dispatch",
    "route_many_parallel": "dispatch",
    "ShardedExecutor": "executor",
    "get_executor": "executor",
    "shutdown_all": "executor",
    "ArenaHandle": "shm",
    "SharedArena": "shm",
    "attach_arena": "shm",
    "ArenaCache": "arena_cache",
    "lease_arena": "arena_cache",
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
