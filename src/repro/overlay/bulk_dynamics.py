"""Bulk-vectorized live-overlay dynamics: cohort joins, leaves and repair.

PR 2 made *static* construction a handful of numpy passes, but the live
overlay still processed churn one peer at a time: every joiner drew its
``log2 N`` links in a Python loop and resolved each by scalar routing,
so churn experiments stalled three orders of magnitude below the sizes
the static builders reach.  This module is the dynamic counterpart of
:mod:`repro.core.bulk_construction`: whole *cohorts* of joins, leaves
and repairs advance in vectorized rounds over the slab of
:class:`repro.overlay.Network`.

:func:`bulk_join`
    insert a cohort with one sorted-merge splice, then draw every
    outstanding long link of the whole cohort per round — the
    Section 4.2 known-``f`` protocol with the harmonic draw vectorized
    by :func:`repro.core.bulk_construction.bulk_harmonic_positions`,
    link targets resolved by one
    :func:`repro.keyspace.nearest_indices` pass instead of per-link
    greedy routing (the routed query finds exactly the nearest live
    peer, so the resolved owners are identical — only the hop-cost
    accounting is skipped).

:func:`bulk_leave`
    remove a cohort with one masked splice; departed rows park on the
    slab free-list, links *to* the departed dangle until repair —
    identical failure semantics to :meth:`Network.remove_peer`.

:func:`bulk_repair`
    one vectorized maintenance round: purge the free-list's stale rows,
    detect every dangling link of the selected peers in one pass of the
    network's hint-first link resolver, and redraw
    replacements (or, with ``refresh=True``, rebuild the selected rows
    from scratch — the batch form of
    :func:`repro.overlay.maintenance.refresh_peer`).

:func:`bulk_bootstrap`
    grow a network from empty in doubling cohorts, reproducing the
    scalar :func:`repro.overlay.join.bootstrap_network` degree profile
    (each joiner's budget is ``log2`` of the population as of its
    cohort) at bulk speed.

The per-peer protocols remain the reference: the equivalence suite in
``tests/test_bulk_dynamics.py`` holds these cohort passes statistically
indistinguishable from per-peer joins and churn on the dict-of-lists
oracle in ``tests/overlay_oracle.py`` (KS on degree and link-mass
distributions, dangling accounting, ring integrity).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.core.bulk_construction import PairAccumulator, bulk_harmonic_positions
from repro.core.theory import default_out_degree
from repro.distributions import Distribution, Empirical
from repro.keyspace import membership_mask, nearest_indices
from repro.overlay.join import uniform_id_sample
from repro.overlay.network import Network

__all__ = [
    "BulkReport",
    "bulk_join",
    "bulk_leave",
    "bulk_repair",
    "bulk_bootstrap",
    "sample_cohort_ids",
]

#: Retry rounds before giving up on a deficient row; every outstanding
#: link is redrawn once per round, mirroring the scalar protocols'
#: ``max_attempts = 4k`` overall draw budget.
DEFAULT_MAX_ROUNDS = 8


@dataclass
class BulkReport:
    """Aggregate outcome of one bulk overlay operation.

    Attributes:
        peers: cohort size processed (joined, departed, or repaired).
        links_installed: long links held by the processed peers after
            the operation.
        dangling_dropped: links to departed targets removed from live
            rows (repair only).
        stale_purged: stale link slots cleared off free-listed rows of
            departed peers (repair only).
        rounds: vectorized draw rounds spent.
        lookup_hops: routed hops charged for resolving link targets —
            0 under the bulk engine's default ownership resolution;
            populated by :func:`bulk_repair`'s ``cost_model="routed"``.
    """

    peers: int = 0
    links_installed: int = 0
    dangling_dropped: int = 0
    stale_purged: int = 0
    rounds: int = 0
    lookup_hops: int = 0


def _resolve_links(
    live_ids: np.ndarray,
    space,
    rng: np.random.Generator,
    member_idx: np.ndarray,
    want: np.ndarray,
    cdf,
    ppf,
    cutoff: np.ndarray,
    seed_keys: np.ndarray,
    max_rounds: int,
) -> tuple[np.ndarray, int]:
    """Draw harmonic links for ``member_idx`` peers against the live population.

    The vectorized core shared by :func:`bulk_join` and
    :func:`bulk_repair`: each member draws toward ``want[i]`` *distinct*
    live targets under its eq. (7) cutoff ``cutoff[i]``, redrawing only
    its deficit each round (per-member budgets let a cohort reproduce
    the scalar protocol's "``log2 N`` as of my own join" profile).
    ``seed_keys`` (sorted, distinct ``local_row * n + col`` keys)
    pre-populate the accepted set with links the member already holds,
    so repairs never duplicate a kept link.

    Returns:
        ``(accepted, rounds)`` — the union of seeds and new links as
        sorted distinct keys, plus the number of rounds consumed.
    """
    n = len(live_ids)
    m = len(member_idx)
    p_norm = np.asarray(cdf(live_ids[member_idx]), dtype=float)
    left, right = space.spans(p_norm)
    left = np.broadcast_to(np.asarray(left, dtype=float), p_norm.shape)
    right = np.broadcast_to(np.asarray(right, dtype=float), p_norm.shape)
    has_mass = (left > cutoff) | (right > cutoff)

    links = PairAccumulator(m, n, seed=seed_keys)
    have = links.counts
    # A member without harmonic mass beyond the cutoff keeps what it has
    # (the scalar protocols bail out on the first empty draw).
    target = np.where(has_mass, np.maximum(want, have), have)
    rounds = 0
    for _ in range(max_rounds):
        need = target - links.counts
        active = need > 0
        if not active.any():
            break
        rounds += 1
        rows = np.repeat(np.flatnonzero(active), need[active])
        drawn, valid = bulk_harmonic_positions(p_norm[rows], cutoff[rows], space, rng)
        keys = np.clip(
            np.asarray(ppf(np.clip(drawn, 0.0, 1.0)), dtype=float),
            0.0,
            np.nextafter(1.0, 0.0),
        )
        owner = nearest_indices(live_ids, keys, space)
        mass = np.abs(np.asarray(cdf(live_ids[owner]), dtype=float) - p_norm[rows])
        if space.is_ring:
            mass = np.minimum(mass, 1.0 - mass)
        ok = valid & (owner != member_idx[rows]) & (mass >= cutoff[rows])
        links.add(rows[ok], owner[ok])
    return links.keys(), rounds


def _per_member(value, default: np.ndarray, m: int, name: str) -> np.ndarray:
    """Broadcast a scalar/array parameter to one float value per cohort member."""
    if value is None:
        return default
    arr = np.broadcast_to(np.asarray(value, dtype=float), (m,)).copy()
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be positive")
    return arr


def _write_member_rows(
    network: Network,
    slots: np.ndarray,
    keys: np.ndarray,
    m: int,
    live_ids: np.ndarray,
) -> np.ndarray:
    """Install per-member link sets (sorted ``row*n+col`` keys) into the slab.

    Returns the per-member link counts.  One lane-masked fill — the row
    contents end up sorted by target identifier, and every link's hint
    is its target's current slab row.
    """
    n = len(live_ids)
    counts = np.bincount(keys // n, minlength=m) if len(keys) else np.zeros(
        m, dtype=np.int64
    )
    network._ensure_width(int(counts.max(initial=0)))
    width = network._link_tg.shape[1]
    lane = np.arange(width)[None, :] < counts[:, None]
    cols = keys % n
    block = np.full((m, width), np.nan)
    block[lane] = live_ids[cols]
    network._link_tg[slots] = block
    hints = np.full((m, width), -1, dtype=np.int32)
    hints[lane] = network._slot_at[cols]
    network._link_hint[slots] = hints
    network._link_cnt[slots] = counts
    return counts


def _emit_bulk_span(name: str, started: float, cohort: int, **fields) -> None:
    """Record one churn operation: a timer, a cohort counter, a trace event."""
    seconds = time.perf_counter() - started
    telemetry.timer_observe(f"overlay.{name}", seconds)
    telemetry.count(f"overlay.{name}.peers", cohort)
    telemetry.trace(f"overlay.{name}", cohort=cohort, seconds=seconds, **fields)


def bulk_join(
    network: Network,
    ids: np.ndarray,
    distribution: Distribution,
    rng: np.random.Generator,
    out_degree=None,
    cutoff=None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> BulkReport:
    """Join a whole cohort under the known-``f`` protocol in numpy rounds.

    The cohort is spliced into the sorted population at once, then every
    member draws its long links together (see module docstring).  By
    default all members link with the post-join ``log2 N`` budget and
    ``1/N`` cutoff; pass per-member arrays to reproduce a staggered
    arrival schedule (as :func:`bulk_bootstrap` does to match the scalar
    protocol's "``log2 N`` as of my own join" degree profile).

    Args:
        network: the live overlay.
        ids: cohort identifiers; distinct, in ``[0, 1)``, not yet live.
        distribution: the global key distribution ``f``.
        rng: random source.
        out_degree: per-peer link budget, scalar or aligned with ``ids``;
            default ``log2 N`` post-join.
        cutoff: eq. (7) minimum mass, scalar or aligned with ``ids``;
            default ``1/N`` post-join.
        max_rounds: vectorized redraw budget.

    Raises:
        ValueError: for out-of-range, duplicate, or already-live ids.
    """
    ids = np.asarray(ids, dtype=float).ravel()
    report = BulkReport(peers=len(ids))
    m = len(ids)
    if m == 0:
        return report
    tel_on = telemetry.enabled()
    started = time.perf_counter() if tel_on else 0.0
    if not np.all(np.isfinite(ids)) or np.any((ids < 0.0) | (ids >= 1.0)):
        raise ValueError("cohort identifiers must lie in [0, 1)")
    order = np.argsort(ids, kind="stable")
    cohort = ids[order]
    if np.any(np.diff(cohort) == 0):
        raise ValueError("cohort contains duplicate identifiers")
    post_n = network.n + m
    k = _per_member(
        out_degree, np.full(m, default_out_degree(post_n), dtype=float), m, "out_degree"
    )[order].astype(np.int64)
    c = _per_member(cutoff, np.full(m, 1.0 / post_n), m, "cutoff")[order]
    if membership_mask(network.ids_array(), cohort).any():
        raise ValueError("cohort contains identifiers that are already live")

    slots = network._bulk_insert(cohort)
    n = network.n
    if n <= 1:
        return report
    live = network.ids_array()
    member_idx = np.searchsorted(live, cohort)
    accepted, rounds = _resolve_links(
        live, network.space, rng, member_idx, k,
        distribution.cdf, distribution.ppf, c,
        np.empty(0, dtype=np.int64), max_rounds,
    )
    counts = _write_member_rows(network, slots, accepted, m, live)
    report.links_installed = int(counts.sum())
    report.rounds = rounds
    if tel_on:
        _emit_bulk_span(
            "bulk_join", started, m,
            links=report.links_installed, rounds=rounds,
        )
    return report


def bulk_leave(network: Network, ids: np.ndarray) -> BulkReport:
    """Depart a whole cohort silently (links to it dangle until repair).

    Raises:
        KeyError: if any identifier is not live.
        ValueError: for duplicate identifiers in the cohort.
    """
    ids = np.asarray(ids, dtype=float).ravel()
    report = BulkReport(peers=len(ids))
    if len(ids) == 0:
        return report
    leaving = np.sort(ids)
    if np.any(np.diff(leaving) == 0):
        raise ValueError("cohort contains duplicate identifiers")
    present = membership_mask(network.ids_array(), leaving)
    if not present.all():
        missing = float(leaving[~present][0])
        raise KeyError(f"peer {missing!r} not present")
    tel_on = telemetry.enabled()
    started = time.perf_counter() if tel_on else 0.0
    network._bulk_remove(leaving)
    if tel_on:
        _emit_bulk_span("bulk_leave", started, len(ids))
    return report


def bulk_repair(
    network: Network,
    rng: np.random.Generator,
    distribution: Distribution | None = None,
    fraction: float = 1.0,
    refresh: bool = False,
    out_degree: int | None = None,
    cutoff: float | None = None,
    sample_size: int = 64,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    cost_model: str = "ownership",
) -> BulkReport:
    """Run one vectorized repair/maintenance round over the live population.

    Always purges the free-list first: rows of departed peers drop their
    stale link targets (they linger after :meth:`Network.remove_peer` /
    :func:`bulk_leave`, which only splice).  Then a ``fraction`` of live
    peers is selected and either *repaired* (dangling links dropped and
    the row topped back up to the budget, kept links untouched) or, with
    ``refresh=True``, rebuilt from scratch — the batch equivalent of
    :func:`repro.overlay.maintenance.refresh_peer`.

    Where the scalar maintenance path estimates ``f`` per peer, the bulk
    round fits **one** shared estimate per call when ``distribution`` is
    ``None`` (the :class:`~repro.distributions.Empirical` CDF of one
    ``sample_size`` gossip sample of live ids) —
    one estimator per epoch rather than per peer, which is also how a
    deployment would amortise gossip.

    **Repair cost conventions.**  The bulk engine resolves link targets
    by ownership search, which costs no routed hops — the default
    ``cost_model="ownership"`` therefore reports ``lookup_hops = 0``.
    ``cost_model="routed"`` prices the round in the scalar maintenance
    path's convention instead: every *newly installed* link is charged
    the hops of one batch-routed lookup from its owner over the repaired
    topology (kept links are free).  Two deliberate approximations keep
    this a post-hoc price, not a behaviour change: the scalar path also
    pays hops for draws it later rejects, and it routes over the
    half-rebuilt network mid-refresh; the routed model prices only the
    surviving links, after the round.  Experiment tables E9c/E10 record
    which convention each row uses.

    Args:
        network: the live overlay.
        rng: random source.
        distribution: the true ``f`` when globally known.
        fraction: fraction of live peers processed, in ``(0, 1]``.
        refresh: rebuild selected rows instead of topping up.
        out_degree: per-peer budget; default ``log2 N``.
        cutoff: eq. (7) minimum mass; default ``1/N``.
        sample_size: gossip budget for the shared estimate.
        max_rounds: vectorized redraw budget.
        cost_model: ``"ownership"`` (free resolution, the bulk default)
            or ``"routed"`` (price new links in routed hops).

    Raises:
        ValueError: for a fraction outside ``(0, 1]`` or an unknown cost
            model.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if cost_model not in ("ownership", "routed"):
        raise ValueError(f"unknown cost model {cost_model!r}")
    tel_on = telemetry.enabled()
    started = time.perf_counter() if tel_on else 0.0
    report = BulkReport(stale_purged=network._purge_free_slots())
    n = network.n
    if n == 0:
        return report
    if fraction >= 1.0:
        chosen = np.arange(n, dtype=np.int64)
    else:
        chosen = np.sort(
            rng.choice(n, size=max(1, int(round(fraction * n))), replace=False)
        ).astype(np.int64)
    m = len(chosen)
    report.peers = m
    slots = network._slot_at[chosen]
    if n == 1:
        network._link_cnt[slots] = 0
        return report

    live = network.ids_array()
    if distribution is None:
        estimate: Distribution = Empirical(uniform_id_sample(live, sample_size, rng))
    else:
        estimate = distribution
    k = np.full(
        m, out_degree if out_degree is not None else default_out_degree(n),
        dtype=np.int64,
    )
    c = np.full(m, cutoff if cutoff is not None else 1.0 / n)

    cols, alive = network._resolve_rows(slots)
    report.dangling_dropped = int(len(alive) - np.count_nonzero(alive))
    if refresh:
        seeds = np.empty(0, dtype=np.int64)
    else:
        rows_local = np.repeat(np.arange(m, dtype=np.int64), network._link_cnt[slots])
        seeds = np.unique(rows_local[alive] * n + cols[alive])

    accepted, rounds = _resolve_links(
        live, network.space, rng, chosen, k,
        estimate.cdf, estimate.ppf, c, seeds, max_rounds,
    )
    new_counts = _write_member_rows(network, slots, accepted, m, live)
    report.links_installed = int(new_counts.sum())
    report.rounds = rounds
    if cost_model == "routed":
        new_keys = np.setdiff1d(accepted, seeds) if len(seeds) else accepted
        if len(new_keys):
            from repro.core.batch_routing import route_many

            batch = route_many(
                network.snapshot(),
                chosen[new_keys // n],
                live[new_keys % n],
            )
            report.lookup_hops = int(batch.hops.sum())
    if tel_on:
        _emit_bulk_span(
            "bulk_repair", started, m,
            links=report.links_installed,
            dangling_dropped=report.dangling_dropped,
            rounds=report.rounds,
        )
    return report


def sample_cohort_ids(
    network: Network,
    distribution: Distribution,
    m: int,
    rng: np.random.Generator,
    max_tries: int = 64,
) -> np.ndarray:
    """Draw ``m`` fresh identifiers from ``f``, none colliding with the live set.

    The vectorized form of the scalar joiners' rejection loop ("sample
    until the id is unused").

    Raises:
        ValueError: for negative ``m`` or when ``max_tries`` batches
            cannot produce enough distinct identifiers (a pathologically
            atomic distribution).
    """
    if m < 0:
        raise ValueError(f"cohort size must be >= 0, got {m}")
    if m == 0:
        return np.empty(0, dtype=float)
    taken = np.sort(network.ids_array())
    out: list[np.ndarray] = []
    got = 0
    for _ in range(max_tries):
        if got >= m:
            break
        draw = distribution.sample(m - got + 8, rng)
        # Dedupe in *draw order* — np.unique alone would sort, and
        # truncating a sorted batch biases the cohort toward small ids.
        _, first_idx = np.unique(draw, return_index=True)
        draw = draw[np.sort(first_idx)]
        fresh = draw[~membership_mask(taken, draw)][: m - got]
        out.append(fresh)
        got += len(fresh)
        taken = np.union1d(taken, fresh)
    if got < m:
        raise ValueError(
            f"could not draw {m} distinct fresh identifiers in "
            f"{max_tries} batches; distribution too atomic"
        )
    return np.concatenate(out)


def bulk_bootstrap(
    distribution: Distribution,
    n: int,
    rng: np.random.Generator,
    space=None,
    out_degree: int | None = None,
    cutoff: float | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> Network:
    """Grow a network from empty to ``n`` peers in doubling cohorts.

    The bulk counterpart of :func:`repro.overlay.join.bootstrap_network`
    (``protocol="known"``): cohort sizes double (1, 1, 2, 4, ...), and
    within each cohort every member is assigned the arrival rank it
    would have had under one-at-a-time joins, so its ``log2 N`` budget
    and ``1/N`` cutoff are exactly the scalar protocol's per-join values
    — the degree profile the equivalence suite pins matches by
    construction, at bulk speed.

    Raises:
        ValueError: for non-positive ``n``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    network = Network(space=space)
    while network.n < n:
        m = min(max(1, network.n), n - network.n)
        cohort = sample_cohort_ids(network, distribution, m, rng)
        ranks = network.n + 1 + np.arange(m, dtype=float)
        bulk_join(
            network, cohort, distribution, rng,
            out_degree=(
                out_degree if out_degree is not None
                else np.maximum(1, np.round(np.log2(ranks)))
            ),
            cutoff=cutoff if cutoff is not None else 1.0 / ranks,
            max_rounds=max_rounds,
        )
    return network
