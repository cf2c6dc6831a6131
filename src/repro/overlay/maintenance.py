"""Routing-table maintenance: the iterative revision loop of Section 4.2.

"At each peer an iterative process of revising its routing table
according to the current knowledge on f has to be employed. [...] Such
iterative process can be performed indefinitely if the function f changes
over time in the system."

A maintenance round visits peers and rebuilds their long-range links
using the peer's *current* knowledge — either the true ``f`` (known-f
deployments) or a fresh estimate from sampled identifiers.  The same
machinery repairs dangling links after churn and re-adapts the topology
when the key distribution drifts (experiment E9/E10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.links import harmonic_target_positions
from repro.core.theory import default_out_degree
from repro.distributions import Distribution, Empirical
from repro.overlay.bulk_dynamics import bulk_repair
from repro.overlay.join import uniform_id_sample
from repro.overlay.network import Network

__all__ = ["MaintenanceReport", "refresh_peer", "maintenance_round"]


@dataclass
class MaintenanceReport:
    """Aggregate cost/effect of one maintenance round.

    Attributes:
        peers_refreshed: how many peers rebuilt their links.
        links_installed: total long links after refresh.
        dangling_repaired: dangling links that were dropped and replaced.
        lookup_hops: routing hops spent resolving new link targets.
    """

    peers_refreshed: int = 0
    links_installed: int = 0
    dangling_repaired: int = 0
    lookup_hops: int = 0


def refresh_peer(
    network: Network,
    peer_id: float,
    rng: np.random.Generator,
    distribution: Distribution | None = None,
    sample_size: int = 64,
    out_degree: int | None = None,
    cutoff: float | None = None,
) -> MaintenanceReport:
    """Rebuild one peer's long-range links from current knowledge.

    Args:
        network: the live overlay.
        peer_id: peer to refresh (must be live).
        rng: random source.
        distribution: the true ``f`` when globally known; ``None`` makes
            the peer estimate it from ``sample_size`` sampled ids.
        sample_size: gossip budget when estimating; the estimate is the
            samples' :class:`~repro.distributions.Empirical` CDF.
        out_degree: target long-link count; default ``log2 N``.
        cutoff: eq. (7) minimum mass; default ``1/N``.

    Returns:
        A :class:`MaintenanceReport` for this single peer.

    Raises:
        KeyError: if ``peer_id`` is not live.
    """
    state = network.peer(peer_id)
    report = MaintenanceReport(peers_refreshed=1)
    n = network.n
    if n <= 1:
        state.long_links = []
        return report
    if distribution is None:
        estimate: Distribution = Empirical(
            uniform_id_sample(network.ids_array(), sample_size, rng)
        )
    else:
        estimate = distribution
    k = out_degree if out_degree is not None else default_out_degree(n)
    c = cutoff if cutoff is not None else 1.0 / n
    report.dangling_repaired = sum(
        1 for target in state.long_links if target not in network
    )
    state.long_links = []
    p_norm = float(estimate.cdf(peer_id))
    attempts = 0
    max_attempts = 4 * k
    while len(state.long_links) < k and attempts < max_attempts:
        attempts += 1
        targets = harmonic_target_positions(p_norm, 1, c, network.space, rng)
        if len(targets) == 0:
            break
        key = float(estimate.ppf(float(targets[0])))
        key = min(max(key, 0.0), float(np.nextafter(1.0, 0.0)))
        result = network.route(peer_id, key)
        report.lookup_hops += result.hops
        owner = result.owner_id
        if not result.success or owner == peer_id or owner in state.long_links:
            continue
        mass = abs(float(estimate.cdf(owner)) - p_norm)
        if network.space.is_ring:
            mass = min(mass, 1.0 - mass)
        if mass < c:
            continue
        state.long_links.append(owner)
    report.links_installed = len(state.long_links)
    return report


def maintenance_round(
    network: Network,
    rng: np.random.Generator,
    distribution: Distribution | None = None,
    fraction: float = 1.0,
    sample_size: int = 64,
    out_degree: int | None = None,
    cutoff: float | None = None,
    cost_model: str = "ownership",
) -> MaintenanceReport:
    """Refresh a random fraction of peers (one simulated gossip epoch).

    The round runs vectorized through
    :func:`repro.overlay.bulk_dynamics.bulk_repair` (``refresh=True``):
    whole-cohort redraw rounds instead of per-peer :func:`refresh_peer`
    calls, link targets resolved by ownership search instead of routed
    lookups (so ``lookup_hops`` is 0 under the default
    ``cost_model="ownership"``; pass ``cost_model="routed"`` to price
    installed links in routed hops, as :func:`refresh_peer` does — see
    :func:`bulk_repair`), and — when estimating — one shared estimate per
    round rather than one per peer.

    Args:
        network: the live overlay.
        rng: random source.
        distribution: true ``f`` or ``None`` for estimate-based refresh.
        fraction: fraction of peers refreshed this round, in ``(0, 1]``.
        sample_size, out_degree, cutoff: as in
            :func:`refresh_peer`.
        cost_model: repair-cost convention, ``"ownership"`` or
            ``"routed"``.

    Raises:
        ValueError: for a fraction outside ``(0, 1]`` or an unknown
            cost model.
    """
    bulk = bulk_repair(
        network,
        rng,
        distribution=distribution,
        fraction=fraction,
        refresh=True,
        out_degree=out_degree,
        cutoff=cutoff,
        sample_size=sample_size,
        cost_model=cost_model,
    )
    return MaintenanceReport(
        peers_refreshed=bulk.peers,
        links_installed=bulk.links_installed,
        dangling_repaired=bulk.dangling_dropped,
        lookup_hops=bulk.lookup_hops,
    )
