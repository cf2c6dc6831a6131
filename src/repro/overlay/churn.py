"""Churn processes and failure injection.

Two complementary tools for the robustness claims of Section 3.1
("even in the case of connectivity loss, the routing cost will be at
worst poly-logarithmic given we have at least one long-range link and
the neighboring links intact"):

* *static failure injection* on snapshot graphs —
  :func:`drop_long_links` removes a fraction of long-range edges (one
  draw over the CSR's long slots, rebuilt through
  :meth:`SmallWorldGraph.from_flat_links`),
  :func:`kill_peers` marks a fraction of peers dead (routing then runs
  with the liveness mask) — the controlled setting of experiment E9;
* *dynamic churn* on live networks — :func:`run_churn` alternates
  leave/join/maintenance epochs and measures lookup quality while the
  population turns over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.batch_routing import route_many
from repro.core.graph import SmallWorldGraph
from repro.distributions import Distribution
from repro.overlay.bulk_dynamics import (
    bulk_join,
    bulk_leave,
    bulk_repair,
    sample_cohort_ids,
)
from repro.overlay.network import Network

__all__ = ["drop_long_links", "kill_peers", "ChurnConfig", "ChurnEpoch", "run_churn"]


def drop_long_links(
    graph: SmallWorldGraph, fraction: float, rng: np.random.Generator
) -> SmallWorldGraph:
    """Return a copy of ``graph`` with a random fraction of long links removed.

    Neighbour (ring/interval) edges are untouched — the paper's
    robustness statement assumes they survive.

    Args:
        graph: the snapshot overlay.
        fraction: fraction of long-range edges to delete, in ``[0, 1]``.
        rng: random source.

    Raises:
        ValueError: for a fraction outside ``[0, 1]``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    csr = graph.adjacency
    flat = csr.indices[csr.long_mask()]
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(csr.long_degrees(), out=indptr[1:])
    if fraction > 0.0:
        # One draw over every long link in row order: the same numbers,
        # leaving the same generator state, as one draw per row.
        keep = rng.random(len(flat)) >= fraction
        kept_before = np.zeros(len(flat) + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        indptr = kept_before[indptr]
        flat = flat[keep]
    return SmallWorldGraph.from_flat_links(
        graph.ids.copy(),
        graph.normalized_ids.copy(),
        indptr,
        flat,
        space=graph.space,
        normalize=graph.normalize,
        model=graph.model,
        cutoff_mass=graph.cutoff_mass,
    )


def kill_peers(
    graph: SmallWorldGraph, fraction: float, rng: np.random.Generator
) -> np.ndarray:
    """Return a liveness mask with a random fraction of peers marked dead.

    At least one peer always survives so routing remains well-defined.

    Raises:
        ValueError: for a fraction outside ``[0, 1)``.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    alive = np.ones(graph.n, dtype=bool)
    n_kill = int(round(fraction * graph.n))
    n_kill = min(n_kill, graph.n - 1)
    if n_kill > 0:
        dead = rng.choice(graph.n, size=n_kill, replace=False)
        alive[dead] = False
    return alive


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of one churn simulation.

    Attributes:
        epochs: number of leave/join/measure cycles.
        leave_fraction: fraction of peers departing per epoch.
        join_fraction: fraction (of current size) of peers arriving per
            epoch; equal to ``leave_fraction`` keeps the size stationary.
        maintenance_fraction: fraction of peers refreshed per epoch
            (0 disables maintenance — the decay baseline).
        lookups_per_epoch: lookups measured after each epoch.
        repair_cost_model: how repairs are priced —
            ``"ownership"`` (free resolution, ``maintenance_hops`` stays
            0) or ``"routed"`` (new links charged routed hops, the
            per-peer protocols' convention; see
            :func:`repro.overlay.bulk_dynamics.bulk_repair`).
    """

    epochs: int = 10
    leave_fraction: float = 0.1
    join_fraction: float = 0.1
    maintenance_fraction: float = 0.2
    lookups_per_epoch: int = 100
    repair_cost_model: str = "ownership"


@dataclass
class ChurnEpoch:
    """Measurements taken at the end of one churn epoch."""

    epoch: int
    n_peers: int
    mean_hops: float
    success_rate: float
    dangling_links: int
    maintenance_hops: int = 0
    failed_reasons: dict[str, int] = field(default_factory=dict)


def run_churn(
    network: Network,
    distribution: Distribution,
    config: ChurnConfig,
    rng: np.random.Generator,
    workers: int | None = None,
) -> list[ChurnEpoch]:
    """Subject a live network to churn and record per-epoch lookup quality.

    Each epoch: a random ``leave_fraction`` of peers departs silently,
    ``join_fraction`` fresh peers join via the known-``f`` protocol,
    ``maintenance_fraction`` of peers refresh their links, and
    ``lookups_per_epoch`` random lookups are measured.

    Each epoch runs on the bulk engine —
    :func:`~repro.overlay.bulk_dynamics.bulk_leave` /
    :func:`~repro.overlay.bulk_dynamics.bulk_join` /
    :func:`~repro.overlay.bulk_dynamics.bulk_repair` cohort passes, with
    the epoch's lookups batch-routed over a :meth:`Network.snapshot`
    through :func:`repro.core.route_many` (hop-for-hop identical to
    :meth:`Network.route`).  Link resolution then costs no routed hops,
    so ``maintenance_hops`` is 0 under the default
    ``repair_cost_model="ownership"``; configure ``"routed"`` to price
    repairs in routed hops.

    ``workers`` shards the per-epoch lookup phase over worker threads
    (:mod:`repro.parallel`; bit-identical results — the churn/repair
    cohort passes themselves stay on the calling thread).

    Raises:
        ValueError: if the network starts empty.
    """
    if network.n == 0:
        raise ValueError("cannot churn an empty network")
    history = []
    baseline_degrees: np.ndarray | None = None
    for epoch in range(config.epochs):
        ids = network.ids_array()
        n_leave = min(int(round(config.leave_fraction * len(ids))), len(ids) - 2)
        if n_leave > 0:
            bulk_leave(network, rng.choice(ids, size=n_leave, replace=False))
        n_join = int(round(config.join_fraction * network.n))
        if n_join > 0:
            cohort = sample_cohort_ids(network, distribution, n_join, rng)
            bulk_join(network, cohort, distribution, rng)
        maintenance_hops = 0
        if config.maintenance_fraction > 0.0 and network.n > 1:
            repair = bulk_repair(
                network, rng, distribution=distribution,
                fraction=config.maintenance_fraction, refresh=True,
                cost_model=config.repair_cost_model,
            )
            maintenance_hops = repair.lookup_hops
        mean_hops = float("nan")
        success_rate = 0.0
        reasons: dict[str, int] = {}
        snap = None
        if config.lookups_per_epoch > 0 and network.n > 0:
            live = network.ids_array()
            sources = rng.integers(len(live), size=config.lookups_per_epoch)
            keys = live[rng.integers(len(live), size=config.lookups_per_epoch)]
            snap = network.snapshot()
            batch = route_many(snap, sources, keys, workers=workers)
            mean_hops = batch.mean_hops
            success_rate = batch.success_rate
            for label in batch.reasons[~batch.success].tolist():
                reasons[label] = reasons.get(label, 0) + 1
        if telemetry.enabled() and network.n > 0:
            # Degree-drift feed for repro.monitor: chi-square distance of
            # this epoch's out-degree histogram from the epoch-0 one.
            from repro.monitor.anomaly import chi_square_distance

            if snap is None:
                snap = network.snapshot()
            degrees = np.bincount(
                np.asarray(snap.adjacency.out_degrees(), dtype=np.int64)
            )
            if baseline_degrees is None:
                baseline_degrees = degrees
            drift = chi_square_distance(baseline_degrees, degrees)
            telemetry.gauge_set("churn.degree_drift", drift)
            telemetry.trace(
                "churn.epoch",
                epoch=epoch,
                n_peers=network.n,
                degree_drift=drift,
            )
        history.append(
            ChurnEpoch(
                epoch=epoch,
                n_peers=network.n,
                mean_hops=mean_hops,
                success_rate=success_rate,
                dangling_links=network.dangling_link_count(),
                maintenance_hops=maintenance_hops,
                failed_reasons=reasons,
            )
        )
    return history
