"""Constructors for the paper's overlay models.

Three builders share one code path (:func:`build_from_positions`):

* :func:`build_uniform_model` — Section 3's *Model for uniform key
  distribution*: i.i.d. uniform identifiers, ``log2 N`` long links chosen
  ``∝ 1/d(u, v)`` with the ``d ≥ 1/N`` cutoff.
* :func:`build_skewed_model` — Section 4's *Model for skewed key
  distribution*: identifiers drawn from an arbitrary density ``f``, long
  links chosen ``∝ 1/|∫_u^v f|`` (eq. (7)), implemented by running the
  uniform machinery in the normalised space ``F(R)`` exactly as Figure 1
  prescribes.
* :func:`build_naive_model` — the mis-specified baseline: skewed
  identifiers but the *uniform* criterion applied to raw distances.  The
  paper's point is that this graph loses routing efficiency as skew
  grows; experiment E6 measures exactly that.

All three default to the whole-population bulk sampling engine
(:mod:`repro.core.bulk_construction`), which draws every long link in
vectorized passes and hands :class:`SmallWorldGraph` its CSR adjacency
pre-assembled; the scalar ``"fast"``/``"exact"`` samplers remain as
per-peer reference paths (``GraphConfig(sampler=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.bulk_construction import bulk_exact_links, bulk_links, symmetrize_flat
from repro.core.graph import LongLinkRows, SmallWorldGraph
from repro.core.links import make_sampler
from repro.core.theory import default_out_degree
from repro.distributions import Distribution
from repro.keyspace import IntervalSpace, KeySpace

__all__ = [
    "GraphConfig",
    "build_uniform_model",
    "build_skewed_model",
    "build_naive_model",
    "build_from_positions",
]


@dataclass(frozen=True)
class GraphConfig:
    """Tunable knobs of the graph construction.

    Attributes:
        out_degree: number of long-range links per peer; ``None`` means
            the paper's ``log2 N``.
        cutoff_mass: minimum normalised distance for long links; ``None``
            means the paper's ``1/N``.  The harmonic samplers
            (``"bulk"``/``"fast"``) need a positive cutoff (their ``1/x``
            draw has no mass otherwise); study the degenerate no-cutoff
            variant with a tiny positive value (E13 uses ``1e-9``) or
            ``0.0`` under the ``"exact"``/``"exact-bulk"`` samplers.
        space: interval (paper default) or ring topology.
        sampler: link-sampling engine —

            * ``"bulk"`` (default) — whole-population vectorized
              inverse-CDF sampling with direct CSR assembly
              (:func:`repro.core.bulk_construction.bulk_links`);
              statistically equivalent to ``"fast"`` but orders of
              magnitude faster at scale;
            * ``"fast"`` — the scalar per-peer inverse-CDF reference
              (the literal Section 4.2 construction loop);
            * ``"exact"`` — scalar full weight vector, ground truth;
            * ``"exact-bulk"`` — the same ground truth evaluated in
              blocked rows of the ``n × n`` weight matrix
              (:func:`repro.core.bulk_construction.bulk_exact_links`),
              for mid-size populations.
        dedupe: whether long-link sets are kept duplicate-free.
        max_retries: retry budget — per link for the scalar fast sampler,
            per whole-population redraw round for the bulk sampler.
        bidirectional: additionally install every long link in the
            reverse direction (an engineering variant several deployed
            DHTs use; off by default to match the directed model).
        workers: run the ``"bulk"`` sampler sharded over this many worker
            processes (:func:`repro.parallel.bulk_links_parallel`).
            ``None`` (the default) keeps the classic single-pass sampler;
            any explicit count — including 1 — switches to the sharded
            sampler, whose output is bit-identical across worker counts
            for a given rng state (but a different, statistically
            equivalent sample than the single-pass path).  Construction
            deliberately ignores the global ``--workers`` default:
            opting in changes which random graph you get, so it must be
            explicit.
        snapshot: persist every graph built under this config to the
            given :mod:`repro.store` snapshot directory (written once,
            right after construction); later runs reload it with
            :func:`repro.store.load_graph` instead of rebuilding.
    """

    out_degree: int | None = None
    cutoff_mass: float | None = None
    space: KeySpace = field(default_factory=IntervalSpace)
    sampler: str = "bulk"
    dedupe: bool = True
    max_retries: int = 64
    bidirectional: bool = False
    workers: int | None = None
    snapshot: str | None = None

    def resolve_out_degree(self, n: int) -> int:
        """Return the concrete long-link budget for an ``n``-peer graph."""
        if self.out_degree is not None:
            if self.out_degree < 0:
                raise ValueError(f"out_degree must be >= 0, got {self.out_degree}")
            return self.out_degree
        return default_out_degree(n)

    def resolve_cutoff(self, n: int) -> float:
        """Return the concrete normalised-distance cutoff (paper: ``1/N``)."""
        if self.cutoff_mass is not None:
            if self.cutoff_mass < 0:
                raise ValueError(f"cutoff_mass must be >= 0, got {self.cutoff_mass}")
            return self.cutoff_mass
        return 1.0 / n

    def with_(self, **changes) -> "GraphConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def build_from_positions(
    ids: np.ndarray,
    normalized_ids: np.ndarray,
    rng: np.random.Generator,
    config: GraphConfig | None = None,
    normalize=float,
    model: str = "custom",
) -> SmallWorldGraph:
    """Build a small-world graph over explicitly given peer positions.

    This is the shared engine: both models differ only in what
    ``normalized_ids`` contains (see module docstring).

    Args:
        ids: peer identifiers (any order; sorted internally).
        normalized_ids: the same peers' positions in normalised space;
            must be co-monotone with ``ids``.
        rng: random source for link sampling.
        config: construction knobs; defaults to :class:`GraphConfig()`.
        normalize: callable mapping a raw key to normalised space (used
            later by normalised-metric routing).
        model: label stored on the graph for reports.

    Raises:
        ValueError: on empty input or mismatched lengths.
    """
    config = config or GraphConfig()
    ids = np.asarray(ids, dtype=float)
    normalized_ids = np.asarray(normalized_ids, dtype=float)
    if ids.ndim != 1 or len(ids) == 0:
        raise ValueError("ids must be a non-empty 1-d array")
    if ids.shape != normalized_ids.shape:
        raise ValueError("ids and normalized_ids must have the same shape")
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    normalized_ids = normalized_ids[order]
    n = len(ids)
    k = config.resolve_out_degree(n)
    cutoff = config.resolve_cutoff(n)
    if config.sampler in ("bulk", "exact-bulk"):
        if config.sampler == "bulk":
            if config.workers is not None:
                from repro.parallel.dispatch import bulk_links_parallel

                indptr, flat = bulk_links_parallel(
                    normalized_ids, k, cutoff, config.space, rng,
                    dedupe=config.dedupe, max_rounds=config.max_retries,
                    workers=config.workers,
                )
            else:
                indptr, flat = bulk_links(
                    normalized_ids, k, cutoff, config.space, rng,
                    dedupe=config.dedupe, max_rounds=config.max_retries,
                )
        else:
            indptr, flat = bulk_exact_links(
                normalized_ids, k, cutoff, config.space, rng, dedupe=config.dedupe
            )
        if config.bidirectional:
            sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            indptr, flat = symmetrize_flat(sources, flat, n)
        graph = SmallWorldGraph.from_flat_links(
            ids=ids,
            normalized_ids=normalized_ids,
            long_indptr=indptr,
            long_flat=flat,
            space=config.space,
            normalize=normalize,
            model=model,
            cutoff_mass=cutoff,
        )
        return _maybe_snapshot(graph, config)
    sampler = make_sampler(config.sampler, dedupe=config.dedupe, max_retries=config.max_retries)
    long_links = [
        sampler.sample(normalized_ids, i, k, cutoff, config.space, rng) for i in range(n)
    ]
    if config.bidirectional:
        long_links = _symmetrize(long_links, n)
    graph = SmallWorldGraph(
        ids=ids,
        normalized_ids=normalized_ids,
        long_links=long_links,
        space=config.space,
        normalize=normalize,
        model=model,
        cutoff_mass=cutoff,
    )
    return _maybe_snapshot(graph, config)


def _maybe_snapshot(graph: SmallWorldGraph, config: GraphConfig) -> SmallWorldGraph:
    """Persist ``graph`` when the config names a snapshot directory."""
    if config.snapshot is not None:
        from repro.store import save_graph

        save_graph(graph, config.snapshot)
    return graph


def _symmetrize(long_links: list[np.ndarray], n: int) -> LongLinkRows:
    """Install the reverse of every long link (deduplicated, self-free).

    Vectorized CSR transpose-merge: concatenate the edge list with its
    transpose, key-sort and unique into flat rows, viewed per peer — no
    per-edge Python loop, so ``bidirectional=True`` stays cheap at scale.
    """
    counts = np.fromiter((len(links) for links in long_links), dtype=np.int64, count=n)
    sources = np.repeat(np.arange(n, dtype=np.int64), counts)
    if int(counts.sum()):
        targets = np.concatenate(
            [np.asarray(links, dtype=np.int64) for links in long_links]
        )
    else:
        targets = np.empty(0, dtype=np.int64)
    return LongLinkRows.from_indptr(*symmetrize_flat(sources, targets, n))


def build_uniform_model(
    n: int | None = None,
    rng: np.random.Generator | None = None,
    config: GraphConfig | None = None,
    ids: np.ndarray | None = None,
) -> SmallWorldGraph:
    """Build Section 3's uniform-distribution, logarithmic-outdegree graph.

    Args:
        n: number of peers (ignored when ``ids`` is given).
        rng: random source (required).
        config: construction knobs.
        ids: reuse an existing peer population instead of sampling one.

    Raises:
        ValueError: when neither ``n`` nor ``ids`` is provided.
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    if ids is None:
        if n is None or n < 1:
            raise ValueError("provide n >= 1 or an explicit ids array")
        ids = rng.random(n)
    ids = np.sort(np.asarray(ids, dtype=float))
    return build_from_positions(
        ids, ids.copy(), rng, config, normalize=float, model="uniform"
    )


def build_skewed_model(
    distribution: Distribution,
    n: int | None = None,
    rng: np.random.Generator | None = None,
    config: GraphConfig | None = None,
    ids: np.ndarray | None = None,
) -> SmallWorldGraph:
    """Build Section 4's skewed-distribution graph (eq. (7) criterion).

    Peer identifiers are drawn from ``distribution`` (or supplied via
    ``ids``); long links are chosen with probability inversely
    proportional to the probability mass between the peers, realised by
    running the uniform construction in CDF-normalised space.

    Raises:
        ValueError: when neither ``n`` nor ``ids`` is provided.
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    if ids is None:
        if n is None or n < 1:
            raise ValueError("provide n >= 1 or an explicit ids array")
        ids = distribution.sample(n, rng)
    ids = np.sort(np.asarray(ids, dtype=float))
    normalized = np.asarray(distribution.cdf(ids), dtype=float)
    graph = build_from_positions(
        ids,
        normalized,
        rng,
        config,
        normalize=lambda key: float(distribution.cdf(key)),
        model="skewed",
    )
    return graph


def build_naive_model(
    distribution: Distribution,
    n: int | None = None,
    rng: np.random.Generator | None = None,
    config: GraphConfig | None = None,
    ids: np.ndarray | None = None,
) -> SmallWorldGraph:
    """Build the mis-specified baseline: skewed peers, raw-distance criterion.

    This is "Kleinberg without the fix": identifiers follow the skewed
    density but long links are chosen ``∝ 1/|v - u|`` with the raw
    ``1/N`` cutoff, i.e. the Model 1 rule applied where its uniformity
    assumption is violated.  Used by experiment E6 to show why eq. (7)
    is necessary.

    Raises:
        ValueError: when neither ``n`` nor ``ids`` is provided.
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    if ids is None:
        if n is None or n < 1:
            raise ValueError("provide n >= 1 or an explicit ids array")
        ids = distribution.sample(n, rng)
    ids = np.sort(np.asarray(ids, dtype=float))
    return build_from_positions(
        ids, ids.copy(), rng, config, normalize=float, model="naive"
    )
