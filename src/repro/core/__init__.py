"""The paper's core contribution: small-world models, routing and bounds.

Public surface:

* model builders — :func:`build_uniform_model` (Section 3),
  :func:`build_skewed_model` (Section 4, eq. (7)),
  :func:`build_naive_model` (the mis-specified baseline) — all defaulting
  to the whole-population bulk construction engine
  (:mod:`repro.core.bulk_construction`: :func:`bulk_links` /
  :func:`bulk_exact_links` with direct-to-CSR assembly);
* the vectorized batch router — :func:`route_many` /
  :func:`sample_batch` over the cached :class:`CSRAdjacency` edge
  arrays — behind :func:`greedy_route` (a batch of one) and bulk
  :func:`sample_routes`, plus the per-lookup neighbour-of-neighbour
  :func:`lookahead_route`;
* partition analysis of the Theorem 1 proof internals;
* the analytic constants of the proofs (:mod:`repro.core.theory`);
* classic Kleinberg lattices for the Section 2 background experiments.
"""

from repro.core.adjacency import CSRAdjacency, build_csr, csr_from_flat_links
from repro.core.batch_routing import (
    BatchRouteResult,
    route_many,
    sample_batch,
)
from repro.core.bulk_construction import (
    bulk_exact_links,
    bulk_harmonic_positions,
    bulk_links,
    symmetrize_flat,
)
from repro.core.builder import (
    GraphConfig,
    build_from_positions,
    build_naive_model,
    build_skewed_model,
    build_uniform_model,
)
from repro.core.graph import SmallWorldGraph
from repro.core.metric_routing import (
    ClockwiseMetric,
    GreedyValueMetric,
    LatticeMetric,
    PrefixDigitMetric,
    RoutingMetric,
    TorusZoneMetric,
    TrieMetric,
    frontier_route_many,
)
from repro.core.kleinberg import (
    KleinbergRing,
    KleinbergTorus,
    build_kleinberg_ring,
    build_kleinberg_torus,
)
from repro.core.partitions import (
    AdvanceStats,
    advance_stats,
    partition_index,
    trace_partitions,
)
from repro.core.routing import RouteResult, greedy_route, lookahead_route, sample_routes
from repro.core.theory import (
    advance_probability_bound,
    default_out_degree,
    expected_hops_bound,
    harmonic_normalizer_bound,
    n_partitions,
    partition_hops_bound,
)

__all__ = [
    "GraphConfig",
    "SmallWorldGraph",
    "build_uniform_model",
    "build_skewed_model",
    "build_naive_model",
    "build_from_positions",
    "RouteResult",
    "BatchRouteResult",
    "CSRAdjacency",
    "build_csr",
    "csr_from_flat_links",
    "bulk_links",
    "bulk_exact_links",
    "bulk_harmonic_positions",
    "symmetrize_flat",
    "RoutingMetric",
    "GreedyValueMetric",
    "ClockwiseMetric",
    "PrefixDigitMetric",
    "TrieMetric",
    "TorusZoneMetric",
    "LatticeMetric",
    "frontier_route_many",
    "greedy_route",
    "lookahead_route",
    "route_many",
    "sample_batch",
    "sample_routes",
    "partition_index",
    "trace_partitions",
    "AdvanceStats",
    "advance_stats",
    "advance_probability_bound",
    "partition_hops_bound",
    "expected_hops_bound",
    "harmonic_normalizer_bound",
    "default_out_degree",
    "n_partitions",
    "KleinbergRing",
    "KleinbergTorus",
    "build_kleinberg_ring",
    "build_kleinberg_torus",
]
