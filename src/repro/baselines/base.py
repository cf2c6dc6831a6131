"""Common interface for baseline overlay networks.

Every comparator the paper references (Chord, Pastry, P-Grid, Symphony,
Mercury, CAN) is implemented behind
:class:`BaselineOverlay`, so the experiment harness can measure hops,
success and routing-state size with one code path.

**What an overlay holds.**  Each ``__init__`` ends by setting the two
attributes the core engine consumes, built once:

* :attr:`BaselineOverlay.csr` — the full edge set as a
  :class:`repro.core.adjacency.CSRAdjacency`.  Within each row, edges
  appear in the overlay's candidate scan order (e.g. ring neighbours
  before long links for Symphony/Mercury, successor before fingers for
  Chord, leaf set before routing-table entries for Pastry), because the
  kernel's first-occurrence ``argmin`` tie-break is the routing rule's
  first-strict-improvement scan.  Each row's ``long_start`` carries
  the family's neighbour/long hop split: every Chord, Pastry and P-Grid
  hop counts as long, no CAN hop does, and Symphony's and Mercury's
  rows put their two ring neighbours before the long links.
* :attr:`BaselineOverlay.metric` — a declarative
  :class:`repro.core.metric_routing.RoutingMetric` (circular /
  clockwise-only / prefix-digit / trie / torus-L1) carrying the
  overlay's geometry, owner rule, key check and any per-edge tags the
  rule needs.

Routing has one path: :func:`route_many_overlay` routes whole lookup
batches over that pair through the shared frontier kernel
(:func:`repro.core.metric_routing.frontier_route_many`), and
:meth:`BaselineOverlay.route` / :meth:`BaselineOverlay.owner_of` are a
batch of one and the metric's owner rule.  The per-lookup loops the
kernel is held to live beside the tests, in ``tests/route_oracle.py``.

:func:`measure_overlay_batch` draws a workload through
:func:`sample_overlay_lookups` — one vectorized draw per component
through :mod:`repro.workloads` — routes it in one batch and summarises
into :class:`repro.overlay.stats.LookupStats`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.adjacency import CSRAdjacency, segment_offsets
from repro.core.metric_routing import (
    BatchRouteResult,
    RoutingMetric,
    frontier_route_many,
)
from repro.core.routing import RouteResult
from repro.overlay.stats import LookupStats, summarize_lookups
from repro.workloads import point_queries

__all__ = [
    "BaselineOverlay",
    "measure_overlay_batch",
    "route_many_overlay",
    "sample_overlay_lookups",
    "assemble_rows",
]


def assemble_rows(
    n: int, blocks: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Concatenate per-peer row segments from several blocks into CSR form.

    Each block contributes ``counts[i]`` entries to peer ``i``'s row;
    within a row the blocks appear in the order given (the overlay's
    candidate scan order).  Returns the row pointers, the flat edge targets,
    and — per block — the edge positions its entries landed in, so
    callers can scatter aligned per-edge tag arrays (Pastry's
    ``(level, digit)``, P-Grid's level).

    Args:
        n: number of peers (rows).
        blocks: ``(counts, flat_values)`` pairs; ``counts`` is ``(n,)``
            and ``flat_values`` its row-major concatenation.
    """
    counts = [np.asarray(c, dtype=np.int64) for c, _ in blocks]
    degrees = np.sum(counts, axis=0) if blocks else np.zeros(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    slots_per_block: list[np.ndarray] = []
    offset = np.zeros(n, dtype=np.int64)
    for (_, flat), block_counts in zip(blocks, counts):
        slots = (
            np.repeat(indptr[:-1] + offset, block_counts)
            + segment_offsets(block_counts)
        )
        indices[slots] = np.asarray(flat, dtype=np.int64)
        slots_per_block.append(slots)
        offset = offset + block_counts
    return indptr, indices, slots_per_block


class BaselineOverlay(ABC):
    """A static overlay snapshot with indexable peers and greedy lookup.

    Every subclass's ``__init__`` ends by setting :attr:`csr` and
    :attr:`metric` (see module docstring); overlays are immutable
    snapshots.  :meth:`route` and :meth:`owner_of` run on that pair, so
    every family has one routing rule, one owner rule and one key check.
    """

    #: Overlay family name used in experiment tables.
    name: str = "baseline"

    #: The overlay's edge set, rows in its candidate scan order.
    csr: CSRAdjacency
    #: The overlay's declarative routing rule, owner rule and key check.
    metric: RoutingMetric

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of peers."""

    def table_sizes(self) -> np.ndarray:
        """Return the per-peer routing-state size: the peer's CSR row length."""
        return self.csr.out_degrees()

    def route(self, source: int, key: float, max_hops: int | None = None) -> RouteResult:
        """Route a lookup for ``key`` from peer index ``source``.

        A batch of one through :func:`route_many_overlay` with its path
        recorded.  ``target_key`` is the key as given, before any hash.

        Raises:
            ValueError: for an out-of-range source, a key that is NaN or
                outside ``[0, 1)``, or a negative ``max_hops``.
        """
        batch = route_many_overlay(
            self,
            np.asarray([source], dtype=np.int64),
            np.asarray([key], dtype=float),
            max_hops=max_hops,
            record_paths=True,
        )
        return batch.to_route_results()[0]

    def owner_of(self, key: float) -> int:
        """Return the index of the peer that owns ``key``, by the metric's rule.

        Raises:
            ValueError: for a key that is NaN or outside ``[0, 1)``.
        """
        return int(self.metric.prepare(np.asarray([key], dtype=float)).owners[0])

    def mean_table_size(self) -> float:
        """Return the mean routing-state size across peers."""
        sizes = self.table_sizes()
        return float(np.mean(sizes)) if len(sizes) else 0.0

    def __len__(self) -> int:
        return self.n


def route_many_overlay(
    overlay: BaselineOverlay,
    sources: np.ndarray,
    target_keys: np.ndarray,
    max_hops: int | None = None,
    record_paths: bool = False,
) -> BatchRouteResult:
    """Batch-route ``(source, key)`` pairs over any baseline overlay.

    The comparator twin of :func:`repro.core.route_many`: whole lookup
    batches advance through the shared frontier kernel over the overlay's
    :attr:`~BaselineOverlay.csr` and :attr:`~BaselineOverlay.metric`.

    Args:
        overlay: the overlay under test.
        sources: int array of originating peer indices.
        target_keys: float array of lookup keys, aligned with ``sources``.
        max_hops: per-route hop budget; defaults to ``overlay.n``.
        record_paths: also record every walk's visited-node list.

    Raises:
        ValueError: on mismatched inputs or out-of-range sources/keys.
    """
    return frontier_route_many(
        overlay.csr, overlay.metric, sources, target_keys,
        max_hops=max_hops, record_paths=record_paths,
    )


def sample_overlay_lookups(
    overlay: BaselineOverlay,
    n_routes: int,
    rng: np.random.Generator,
    targets: str = "peers",
    target_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a lookup workload for an overlay in two vectorized rng calls.

    All sources come from one ``rng.integers`` draw and all keys from one
    :func:`repro.workloads.point_queries` (or ``rng.random``) draw, so a
    seed names one workload.

    Args:
        overlay: the overlay under test.
        n_routes: number of lookups.
        rng: random source.
        targets: ``"peers"`` draws keys from ``target_ids`` (or uniform
            when none are supplied); ``"uniform"`` draws uniform keys.
        target_ids: key population to draw from in ``"peers"`` mode —
            pass the overlay's peer identifiers to look up actual peers.

    Raises:
        ValueError: for an unknown target mode.
    """
    if targets not in ("peers", "uniform"):
        raise ValueError(f"unknown targets mode {targets!r}")
    sources = rng.integers(overlay.n, size=n_routes).astype(np.int64)
    if targets == "peers" and target_ids is not None and len(target_ids):
        keys = point_queries(np.asarray(target_ids, dtype=float), n_routes, rng)
    else:
        keys = rng.random(n_routes)
    return sources, np.asarray(keys, dtype=float)


def measure_overlay_batch(
    overlay: BaselineOverlay,
    n_routes: int,
    rng: np.random.Generator,
    targets: str = "peers",
    target_ids: np.ndarray | None = None,
) -> LookupStats:
    """Route ``n_routes`` random lookups over the batch frontier kernel.

    The workload comes from :func:`sample_overlay_lookups` (two
    vectorized rng draws) and is routed in one
    :func:`route_many_overlay` batch.

    Raises:
        ValueError: for an unknown target mode.
    """
    sources, keys = sample_overlay_lookups(
        overlay, n_routes, rng, targets=targets, target_ids=target_ids
    )
    return summarize_lookups(route_many_overlay(overlay, sources, keys))
