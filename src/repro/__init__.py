"""repro — small-world overlays for non-uniformly distributed key spaces.

A production-quality reproduction of Girdzijauskas, Datta & Aberer,
*On Small World Graphs in Non-uniformly Distributed Key Spaces*
(ICDE 2005).  The package provides:

* the paper's two models — uniform key distribution with logarithmic
  outdegree (Section 3) and the skew-adapted eq. (7) construction
  (Section 4) — plus greedy routing and the proofs' analytic bounds
  (:mod:`repro.core`);
* the key-space geometries and an analytic distribution library
  (:mod:`repro.keyspace`, :mod:`repro.distributions`);
* a message-level overlay simulator with join protocols — known ``f``,
  or ``f`` estimated from sampled peer ids — maintenance and churn
  (:mod:`repro.overlay`);
* faithful baseline DHTs — Chord, Pastry, P-Grid, Symphony, Mercury,
  CAN (:mod:`repro.baselines`);
* load-balancing mechanisms and metrics (:mod:`repro.loadbalance`),
  workload generators (:mod:`repro.workloads`), graph analysis
  (:mod:`repro.analysis`) and the full experiment harness
  (:mod:`repro.experiments`, CLI: ``python -m repro``).

Quickstart::

    import numpy as np
    from repro import PowerLaw, build_skewed_model, sample_routes

    rng = np.random.default_rng(7)
    graph = build_skewed_model(PowerLaw(alpha=1.5), n=2048, rng=rng)
    routes = sample_routes(graph, 500, rng)
    print(sum(r.hops for r in routes) / len(routes))   # ~log2(2048) hops

Performance architecture
------------------------

Greedy lookups are embarrassingly parallel, and the hot path is built
around that fact in four layers:

1. **CSR adjacency** (:mod:`repro.core.adjacency`): each graph is
   born holding its edges as ``indptr``/``indices`` int64 arrays —
   every row its ring/interval neighbours, then its long links — plus
   one ``long_start`` boundary per row (graphs are immutable
   snapshots).  Degree and link-length analytics, the per-peer
   ``long_links`` views and the router's neighbour/long hop split all
   read these arrays.
2. **Batch routing** (:mod:`repro.core.batch_routing`):
   :func:`route_many` advances *all* active walks one hop per numpy
   step — frontier arrays of current node, distance and hop counters,
   with a per-walk first minimum over one flat, segmented candidate
   vector, in the rule's candidate scan order.  ~17x the routes/sec of
   a per-lookup loop at 10k peers
   (``benchmarks/bench_routing_throughput.py``).  It is the only greedy
   router: :func:`greedy_route` is a batch of one, and the per-lookup
   loop the tests pin it against lives in ``tests/route_oracle.py``.
3. **Bulk sampling** (:func:`sample_batch` / :func:`sample_routes`):
   experiments draw whole workloads at once and aggregate column-wise.
4. **Sharded execution** (:mod:`repro.parallel`): route batches split
   into deterministic shards routed on a shared thread pool, every
   shard reading the caller's own CSR arrays —
   ``route_many(..., workers=N)`` and the CLI's ``--workers`` flag;
   outcome columns are bit-identical to serial for any worker count,
   while round counts sum over the shards.
"""

from repro.core import (
    BatchRouteResult,
    CSRAdjacency,
    GraphConfig,
    RouteResult,
    SmallWorldGraph,
    advance_probability_bound,
    advance_stats,
    build_kleinberg_ring,
    build_kleinberg_torus,
    build_naive_model,
    build_skewed_model,
    build_uniform_model,
    default_out_degree,
    expected_hops_bound,
    greedy_route,
    lookahead_route,
    partition_hops_bound,
    partition_index,
    route_many,
    sample_batch,
    sample_routes,
)
from repro.distributions import (
    Distribution,
    Empirical,
    IntegerBeta,
    Mixture,
    PiecewiseConstant,
    PowerLaw,
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
    make_skewed,
    zipf_distribution,
)
from repro.keyspace import IntervalSpace, KeySpace, RingSpace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "GraphConfig",
    "SmallWorldGraph",
    "RouteResult",
    "BatchRouteResult",
    "CSRAdjacency",
    "build_uniform_model",
    "build_skewed_model",
    "build_naive_model",
    "build_kleinberg_ring",
    "build_kleinberg_torus",
    "greedy_route",
    "lookahead_route",
    "route_many",
    "sample_batch",
    "sample_routes",
    "advance_stats",
    "partition_index",
    "advance_probability_bound",
    "partition_hops_bound",
    "expected_hops_bound",
    "default_out_degree",
    # key spaces
    "KeySpace",
    "IntervalSpace",
    "RingSpace",
    # distributions
    "Distribution",
    "Uniform",
    "PowerLaw",
    "TruncatedNormal",
    "TruncatedExponential",
    "IntegerBeta",
    "PiecewiseConstant",
    "Mixture",
    "Empirical",
    "zipf_distribution",
    "make_skewed",
]
