"""Join protocols: network construction from Section 4.2.

Two regimes, exactly as the paper lays them out:

* :func:`join_known_f` — "each peer knows the global key distribution f":
  the joining peer samples its identifier from ``f``, locates its
  immediate neighbours by routing, then draws ``log2 N`` values from the
  link density ``h_u`` (eq. (7)) and *queries* for them; the owners that
  answer become its long-range neighbours.
* :func:`join_adaptive` — "peers do not have information of the
  distribution f and have to acquire it locally": the joining peer
  samples live peer identifiers (gossip-style), fits an estimator, and
  uses the *estimated* CDF wherever the known-``f`` protocol uses the
  true one.

Both return a :class:`JoinReceipt` with the costs a deployment would
care about (routing hops spent joining), so experiment E10 can price the
protocols as well as score the networks they build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.links import harmonic_target_positions
from repro.core.theory import default_out_degree
from repro.distributions import Distribution, Empirical
from repro.overlay.network import Network

__all__ = [
    "JoinReceipt",
    "join_known_f",
    "join_adaptive",
    "bootstrap_network",
    "uniform_id_sample",
]


def uniform_id_sample(
    ids: np.ndarray, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Return ``n_samples`` peer identifiers drawn uniformly with replacement.

    Raises:
        ValueError: on an empty population or negative sample size.
    """
    ids = np.asarray(ids, dtype=float)
    if len(ids) == 0:
        raise ValueError("cannot sample from an empty population")
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    return ids[rng.integers(0, len(ids), size=n_samples)]


@dataclass
class JoinReceipt:
    """Cost accounting for one join.

    Attributes:
        peer_id: identifier the new peer settled on.
        long_links: long-range neighbour ids installed.
        lookup_hops: total routing hops spent resolving link targets.
        n_lookups: number of link-resolution queries issued.
        sample_size: peer-id samples drawn (adaptive protocol only).
    """

    peer_id: float
    long_links: list[float] = field(default_factory=list)
    lookup_hops: int = 0
    n_lookups: int = 0
    sample_size: int = 0


def _install_links(
    network: Network,
    peer_id: float,
    cdf,
    ppf,
    k: int,
    cutoff: float,
    rng: np.random.Generator,
    receipt: JoinReceipt,
    max_attempts_factor: int = 4,
) -> None:
    """Resolve up to ``k`` long links by drawing h_u targets and routing.

    ``cdf``/``ppf`` are the (true or estimated) normalisation maps.  Each
    drawn normalised target is mapped back to a key, and the query is
    routed *from the joining peer* — the hops are the real join cost.
    Candidates violating the eq. (7) cutoff or duplicating an existing
    link are rejected, up to ``max_attempts_factor * k`` total attempts.
    """
    state = network.peer(peer_id)
    p_norm = float(cdf(peer_id))
    attempts = 0
    max_attempts = max(1, max_attempts_factor * k)
    while len(state.long_links) < k and attempts < max_attempts:
        attempts += 1
        targets = harmonic_target_positions(p_norm, 1, cutoff, network.space, rng)
        if len(targets) == 0:
            break
        key = float(ppf(float(targets[0])))
        key = min(max(key, 0.0), float(np.nextafter(1.0, 0.0)))
        result = network.route(peer_id, key)
        receipt.lookup_hops += result.hops
        receipt.n_lookups += 1
        owner = result.owner_id
        if not result.success or owner == peer_id:
            continue
        if owner in state.long_links:
            continue
        mass = abs(float(cdf(owner)) - p_norm)
        if network.space.is_ring:
            mass = min(mass, 1.0 - mass)
        if mass < cutoff:
            continue
        state.long_links.append(owner)
    receipt.long_links = list(state.long_links)


def join_known_f(
    network: Network,
    distribution: Distribution,
    rng: np.random.Generator,
    peer_id: float | None = None,
    out_degree: int | None = None,
    cutoff: float | None = None,
) -> JoinReceipt:
    """Join one peer using the known-``f`` protocol of Section 4.2.

    Args:
        network: the live overlay (may be empty).
        distribution: the global key/peer distribution ``f``.
        rng: random source.
        peer_id: explicit identifier; default draws one from ``f``.
        out_degree: long links to install; default ``log2 N`` for the
            post-join population size.
        cutoff: eq. (7) minimum mass; default ``1/N`` post-join.

    Returns:
        A :class:`JoinReceipt` describing the installed state and cost.
    """
    if peer_id is None:
        peer_id = float(distribution.sample(1, rng)[0])
    network.add_peer(peer_id)
    receipt = JoinReceipt(peer_id=peer_id)
    n = network.n
    if n == 1:
        return receipt
    k = out_degree if out_degree is not None else default_out_degree(n)
    c = cutoff if cutoff is not None else 1.0 / n
    _install_links(
        network, peer_id, distribution.cdf, distribution.ppf, k, c, rng, receipt
    )
    return receipt


def join_adaptive(
    network: Network,
    rng: np.random.Generator,
    peer_id: float | None = None,
    sample_size: int = 64,
    out_degree: int | None = None,
    cutoff: float | None = None,
) -> JoinReceipt:
    """Join one peer that must *estimate* ``f`` from sampled peer ids.

    Args:
        network: the live overlay (must be non-empty: the joiner needs
            peers to sample; bootstrap the first peer with
            :func:`bootstrap_network` or :func:`join_known_f`).
        rng: random source.
        peer_id: explicit identifier; default draws one from the
            *estimated* distribution — modelling a load-balancing
            placement mechanism that itself only sees samples.
        sample_size: number of peer ids sampled (gossip budget); their
            :class:`~repro.distributions.Empirical` CDF is the estimate.
        out_degree: long links to install; default ``log2 N`` post-join.
        cutoff: eq. (7) minimum mass; default ``1/N`` post-join.

    Raises:
        ValueError: if the network is empty or ``sample_size < 1``.
    """
    if network.n == 0:
        raise ValueError("adaptive join needs at least one live peer to sample")
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    estimate = Empirical(uniform_id_sample(network.ids_array(), sample_size, rng))
    if peer_id is None:
        peer_id = float(estimate.sample(1, rng)[0])
        while peer_id in network:
            peer_id = float(estimate.sample(1, rng)[0])
    network.add_peer(peer_id)
    receipt = JoinReceipt(peer_id=peer_id, sample_size=sample_size)
    n = network.n
    if n == 1:
        return receipt
    k = out_degree if out_degree is not None else default_out_degree(n)
    c = cutoff if cutoff is not None else 1.0 / n
    _install_links(network, peer_id, estimate.cdf, estimate.ppf, k, c, rng, receipt)
    return receipt


def bootstrap_network(
    distribution: Distribution,
    n: int,
    rng: np.random.Generator,
    space=None,
    protocol: str = "known",
    sample_size: int = 64,
) -> tuple[Network, list[JoinReceipt]]:
    """Grow a network from empty to ``n`` peers via successive joins.

    Joins are per-peer — this is the reference construction; see
    :func:`repro.overlay.bulk_dynamics.bulk_bootstrap` for the
    cohort-at-a-time engine.

    Args:
        distribution: the true key/peer distribution.
        n: target population size.
        rng: random source.
        space: key-space geometry (default interval).
        protocol: ``"known"`` (every peer knows ``f``) or ``"adaptive"``
            (peers estimate ``f``; the very first peer joins trivially).
        sample_size: adaptive-protocol gossip budget per joiner.

    Returns:
        The built network and the per-join receipts.

    Raises:
        ValueError: for an unknown protocol or non-positive ``n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if protocol not in ("known", "adaptive"):
        raise ValueError(f"unknown protocol {protocol!r}")
    network = Network(space=space)
    receipts = []
    for i in range(n):
        if protocol == "known" or i == 0:
            peer_id = float(distribution.sample(1, rng)[0])
            while peer_id in network:
                peer_id = float(distribution.sample(1, rng)[0])
            receipts.append(
                join_known_f(network, distribution, rng, peer_id=peer_id)
                if protocol == "known"
                else _trivial_join(network, peer_id)
            )
        else:
            # Adaptive joiners still *place* themselves by the true f (the
            # placement mechanism is the load balancer's job, Section 4.1);
            # what they estimate is the linking criterion.
            peer_id = float(distribution.sample(1, rng)[0])
            while peer_id in network:
                peer_id = float(distribution.sample(1, rng)[0])
            receipts.append(
                join_adaptive(
                    network,
                    rng,
                    peer_id=peer_id,
                    sample_size=sample_size,
                )
            )
    return network, receipts


def _trivial_join(network: Network, peer_id: float) -> JoinReceipt:
    """Insert the very first peer (no links to build, nothing to sample)."""
    network.add_peer(peer_id)
    return JoinReceipt(peer_id=peer_id)
