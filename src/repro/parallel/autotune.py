"""Shard widths and worker counts for sharded route batches.

Two independent questions are answered here, and keeping them independent
is a *correctness* property, not a style choice:

* **How many shards does a batch split into?**
  (:func:`shard_bounds` / :func:`chunk_size`) — a pure function of the
  batch size.  Shard boundaries must **never** depend on the worker
  count, because the engine promises bit-identical outcome columns for
  any worker count including 1.

* **How many threads route those shards?**
  (:func:`resolve_workers`) — an explicit argument, then the
  process-global default installed by :func:`set_default_workers` (the
  experiment CLI's ``--workers`` flag lands here), then 1.  Nothing in
  the repository shards a batch unless asked to.

The module is dependency-free (no numpy, no repro imports) so hot paths
like :func:`repro.core.route_many` can consult it on every call without
import-cycle or cost concerns.
"""

from __future__ import annotations

__all__ = [
    "set_default_workers",
    "get_default_workers",
    "resolve_workers",
    "chunk_size",
    "shard_bounds",
    "should_parallelize",
]

#: A batch splits into at most this many shards — enough to feed a small
#: thread pool while keeping per-shard batches wide (the frontier kernel
#: loses vectorization width on thin shards).
DEFAULT_SHARD_COUNT = 8

#: Never cut shards thinner than this many routes.  Threads share one
#: GIL, so every round of every shard pays the kernel's fixed per-round
#: cost serially, and thin shards lose to the serial kernel.  Swept at
#: 8,192, 12,288 and 16,384 on a 2-CPU host (2 threads, 4,096–200,000
#: routes): 8,192 was the slowest at 32,768 routes (4 shards), 16,384
#: at 16,384 routes (one shard, routed serially), and 12,288 sat
#: between the two at both sizes.
MIN_CHUNK = 12288

_default_workers: int | None = None


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

    Precedence: explicit argument > :func:`set_default_workers` > 1
    (serial).

    Raises:
        ValueError: for an explicit worker count below 1.
    """
    if workers is not None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        return int(workers)
    return _default_workers or 1


def chunk_size(n_items: int) -> int:
    """Return the shard width for a batch of ``n_items`` routes.

    The batch splits into at most :data:`DEFAULT_SHARD_COUNT` shards,
    never thinner than :data:`MIN_CHUNK`.  Deliberately *not* a function
    of the worker count — see the module docstring.
    """
    return max(MIN_CHUNK, -(-n_items // DEFAULT_SHARD_COUNT))


def shard_bounds(n_items: int) -> list[tuple[int, int]]:
    """Split ``[0, n_items)`` into contiguous ``(lo, hi)`` shard ranges.

    Always at least one shard (possibly empty), so callers never special-
    case empty batches.

    Raises:
        ValueError: for a negative size.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if n_items == 0:
        return [(0, 0)]
    chunk = chunk_size(n_items)
    return [(lo, min(lo + chunk, n_items)) for lo in range(0, n_items, chunk)]


def should_parallelize(workers: int | None, n_items: int) -> bool:
    """Whether ``route_many`` shards a batch of ``n_items`` routes.

    True only when the resolved worker count exceeds 1 **and** the batch
    splits into two or more shards; a one-shard batch routes serially.
    """
    return resolve_workers(workers) > 1 and n_items > MIN_CHUNK
