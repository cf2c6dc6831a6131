"""Chunk-size and worker-count heuristics for the sharded execution engine.

Two independent questions are answered here, and keeping them independent
is a *correctness* property, not a style choice:

* **How many shards does a workload split into?**
  (:func:`shard_bounds` / :func:`chunk_size`) — a pure function of the
  workload size (plus an explicit chunk).  Shard boundaries must
  **never** depend on the worker count, because the engine promises
  bit-identical results for any worker count including 1.

* **How many worker processes execute those shards?**
  (:func:`resolve_workers`) — an explicit argument, the process-global
  default installed by :func:`set_default_workers` (the experiment CLI's
  ``--workers`` flag lands here), or the ``REPRO_WORKERS`` environment
  variable, in that order of precedence.  The default is 1: nothing in
  the repository forks processes unless asked to.

The module is dependency-free (no numpy, no repro imports) so hot paths
like :func:`repro.core.route_many` can consult it on every call without
import-cycle or cost concerns.
"""

from __future__ import annotations

import os

__all__ = [
    "ENV_WORKERS",
    "set_default_workers",
    "get_default_workers",
    "resolve_workers",
    "min_parallel_items",
    "chunk_size",
    "shard_bounds",
    "should_parallelize",
]

#: Environment override of the default worker count (a positive integer).
ENV_WORKERS = "REPRO_WORKERS"

#: A workload splits into at most this many shards by default — enough to
#: feed any realistic small worker pool while keeping per-shard batches
#: wide (the frontier kernel loses vectorization width on thin shards).
DEFAULT_SHARD_COUNT = 8

#: Never cut shards thinner than this many items (routes / source rows).
MIN_CHUNK = 2048

#: Below this many items the implicit ``route_many(workers=...)`` path
#: stays serial — process dispatch overhead would dominate.
DEFAULT_MIN_ITEMS = 4096

_default_workers: int | None = None


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def set_default_workers(workers: int | None) -> None:
    """Install the process-global default worker count (``None`` clears it).

    This is what the experiment CLI's ``--workers`` flag calls, so every
    ``route_many`` in a sweep picks the setting up without threading a
    parameter through each experiment.

    Raises:
        ValueError: for a worker count below 1.
    """
    global _default_workers
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _default_workers = None if workers is None else int(workers)


def get_default_workers() -> int | None:
    """Return the configured process-global default (``None`` when unset)."""
    return _default_workers


def resolve_workers(workers: int | None = None) -> int:
    """Resolve an effective worker count.

    Precedence: explicit argument > :func:`set_default_workers` >
    ``REPRO_WORKERS`` env var > 1 (serial).

    Raises:
        ValueError: for an explicit or env worker count below 1.
    """
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return int(workers)
    if _default_workers is not None:
        return _default_workers
    return _env_int(ENV_WORKERS) or 1


def min_parallel_items() -> int:
    """Workload size below which implicit parallel dispatch stays serial."""
    return DEFAULT_MIN_ITEMS


def chunk_size(n_items: int) -> int:
    """Return the shard width for a workload of ``n_items``.

    The workload splits into at most :data:`DEFAULT_SHARD_COUNT` shards,
    never thinner than :data:`MIN_CHUNK`.  Deliberately *not* a function
    of the worker count — see the module docstring.
    """
    return max(MIN_CHUNK, -(-n_items // DEFAULT_SHARD_COUNT))


def shard_bounds(n_items: int, chunk: int | None = None) -> list[tuple[int, int]]:
    """Split ``[0, n_items)`` into contiguous ``(lo, hi)`` shard ranges.

    Always at least one shard (possibly empty), so callers never special-
    case zero-item workloads.

    Raises:
        ValueError: for a negative size or non-positive explicit chunk.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if chunk is None:
        chunk = chunk_size(n_items)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if n_items == 0:
        return [(0, 0)]
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def should_parallelize(workers: int | None, n_items: int) -> bool:
    """Decide whether an *implicit* integration point forks processes.

    True only when the resolved worker count exceeds 1 **and** the
    workload is big enough to amortise dispatch overhead.  Explicit
    ``repro.parallel.dispatch`` calls skip the size heuristic — callers
    who name the engine get the engine.
    """
    return resolve_workers(workers) > 1 and n_items >= min_parallel_items()
