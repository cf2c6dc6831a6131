"""Bulk graph construction: whole-population vectorized link sampling.

PR 1 made routing cheap (:mod:`repro.core.batch_routing`), which left
*construction* as the hot path: :func:`repro.core.build_from_positions`
used to call a scalar sampler once per peer, and the scalar samplers draw
each of the ``k = log2 N`` links in a Python inner loop — ``O(n·k)``
interpreter-level iterations that cap experiments near ``n ≈ 3e4``.

This module rebuilds the construction layer as whole-population numpy
passes:

:func:`bulk_harmonic_positions`
    the array-valued generalisation of
    :func:`repro.core.links.harmonic_target_positions`: per-peer
    left/right log-masses computed as arrays, side choice and the
    inverse-CDF draw ``cutoff · (span/cutoff)^U`` as single vectorized
    ops.  The scalar function delegates here so the two paths cannot
    drift.

:func:`bulk_links`
    the full Section 4.2 construction for *all* peers at once: draw all
    outstanding link distances in one kernel call, resolve targets with
    one :func:`repro.keyspace.nearest_indices` pass over the sorted
    positions, validate (no self-links, cutoff respected), dedupe rows
    via ``np.unique`` on ``row·n + target`` keys, and redraw only the
    surviving deficit mask in retry rounds.  A deterministic outward scan
    (the same last resort as the per-peer ``FastSampler`` oracle in
    ``tests/builder_oracle.py``) finishes pathological rows.

:func:`bulk_exact_links`
    the ground-truth ``1/d'`` weight-vector sampler evaluated in blocked
    rows of the full ``n × n`` distance matrix — an exponential-race
    (Efraimidis–Spirakis) top-``k`` reproduces weighted sampling without
    replacement, so mid-size populations get an exact reference graph
    without ``n`` Python-level ``rng.choice`` calls.

:func:`symmetrize_flat` / :func:`merge_row_pairs` / :func:`row_counts` /
:func:`split_rows`
    flat CSR-style row utilities shared with the builder's
    ``bidirectional`` option and the baseline overlays (Chord/Symphony
    bulk builders ride on the same primitives).

All functions speak *flat* ragged rows — ``(indptr, flat_targets)``
pairs — so :meth:`repro.core.graph.SmallWorldGraph.from_flat_links` can
assemble the final CSR adjacency directly instead of re-deriving it from
per-node arrays.

The kernels rely on :meth:`KeySpace.spans` / :meth:`KeySpace.shift`
accepting arrays elementwise, which both shipped topologies
(:class:`~repro.keyspace.interval.IntervalSpace`,
:class:`~repro.keyspace.ring.RingSpace`) satisfy through plain ufunc
arithmetic; a third-party space must do the same.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.keyspace import KeySpace, nearest_indices

__all__ = [
    "bulk_harmonic_positions",
    "bulk_links",
    "bulk_exact_links",
    "symmetrize_flat",
    "merge_row_pairs",
    "row_counts",
    "split_rows",
]


def _side_log_masses(
    positions: np.ndarray, cutoff, space: KeySpace, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(left_span, right_span, log_left, log_right)`` arrays.

    ``log_* = ln(span/cutoff)`` clamped to 0 when the span does not reach
    beyond the cutoff — the vectorized form of the per-peer samplers'
    ``math.log(span / cutoff) if span > cutoff else 0.0``.  ``cutoff``
    may be a scalar or an array broadcastable to ``positions`` (the live
    overlay's bulk engine draws for peers that joined under different
    ``1/N`` regimes in one pass).

    With ``rows``, the log transform — the expensive part — only runs on
    those entries; the rest stay 0 (i.e. "no mass", which is exactly how
    :func:`bulk_links` treats rows outside its shard).  Sharded callers
    thus pay O(shard) instead of O(n) per block for this pass.
    """
    left, right = space.spans(positions)
    left = np.broadcast_to(np.asarray(left, dtype=float), positions.shape)
    right = np.broadcast_to(np.asarray(right, dtype=float), positions.shape)
    if rows is None:
        log_left = np.log(np.maximum(left, cutoff) / cutoff)
        log_right = np.log(np.maximum(right, cutoff) / cutoff)
    else:
        cut = np.broadcast_to(np.asarray(cutoff, dtype=float), positions.shape)
        log_left = np.zeros(positions.shape)
        log_right = np.zeros(positions.shape)
        log_left[rows] = np.log(np.maximum(left[rows], cut[rows]) / cut[rows])
        log_right[rows] = np.log(np.maximum(right[rows], cut[rows]) / cut[rows])
    return left, right, log_left, log_right


def bulk_harmonic_positions(
    positions: np.ndarray,
    cutoff: float,
    space: KeySpace,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one harmonic-law target position per entry of ``positions``.

    For every entry: choose a side with probability proportional to that
    side's available ``1/x`` log-mass, draw a distance from the ``1/x``
    density on ``[cutoff, span]`` by inverse CDF, shift, and (on the
    interval) clamp into ``[0, 1)`` in one vectorized step.

    Entries may repeat a position — :func:`bulk_links` passes one entry
    per *outstanding link*, not per peer.

    Args:
        positions: normalised positions, one per requested draw.
        cutoff: minimum normalised distance (the paper's ``1/N``); a
            scalar, or an array broadcastable to ``positions`` for
            per-entry cutoffs.
        space: key-space geometry.
        rng: random source; consumes exactly two uniforms per entry.

    Returns:
        ``(targets, valid)`` arrays shaped like ``positions``: ``valid``
        is False where no side has mass beyond the cutoff (those targets
        just echo the input position and must be ignored).

    Raises:
        ValueError: for non-positive ``cutoff``.
    """
    if np.any(np.asarray(cutoff) <= 0):
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    pos = np.asarray(positions, dtype=float)
    left, right, log_left, log_right = _side_log_masses(pos, cutoff, space)
    return _draw_targets(pos, left, right, log_left, log_right, cutoff, space, rng)


def outward_candidate_indices(idx: int, n: int, is_ring: bool):
    """Yield peer indices by increasing step distance from ``idx``.

    The deterministic last-resort scan order shared by the bulk engine's
    :func:`_fallback_fill` and the per-peer ``FastSampler`` oracle in
    ``tests/builder_oracle.py``: right candidate then left candidate
    at each step, skipping wrapped indices on the interval (a wrapped
    index is not a real peer offset there).  May yield the same index
    twice on small rings (antipode step); consumers dedupe.
    """
    for step in range(1, n):
        for j in ((idx + step) % n, (idx - step) % n):
            if not is_ring and abs(idx - j) != step:
                continue
            if j != idx:
                yield j


def _draw_targets(
    pos: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    log_left: np.ndarray,
    log_right: np.ndarray,
    cutoff: float,
    space: KeySpace,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel body of :func:`bulk_harmonic_positions` with masses given.

    Split out so :func:`bulk_links` can precompute the per-peer spans and
    log-masses once and gather them per retry round instead of
    recomputing logs over every repeated entry.
    """
    total = log_left + log_right
    valid = total > 0.0
    go_left = rng.random(pos.shape) * total < log_left
    span = np.where(go_left, left, right)
    distance = cutoff * (span / cutoff) ** rng.random(pos.shape)
    targets = space.shift(pos, np.where(go_left, -distance, distance))
    if not space.is_ring:
        targets = np.clip(targets, 0.0, np.nextafter(1.0, 0.0))
    return np.where(valid, targets, pos), valid


def _dedupe_sorted(keys: np.ndarray) -> np.ndarray:
    """Diff-dedupe an already-sorted key array (avoids ``np.unique``'s
    hash path, which is several times slower than sort-based paths on
    large int64 key arrays)."""
    if len(keys) <= 1:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort-and-diff dedupe of an arbitrary key array."""
    return _dedupe_sorted(np.sort(keys))


def merge_row_pairs(
    accepted: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int
) -> np.ndarray:
    """Merge new ``(row, col)`` pairs into a sorted, distinct key set.

    Keys are ``row * n + col`` (int64; safe for ``n`` up to ~3e9 edges'
    worth of key space).  Returns the union, sorted ascending — which is
    exactly per-row-ascending order when split back into rows.

    Only the *new* batch is quicksorted; the union is then two sorted
    runs, which the stable sort (timsort) merges in ``O(E)`` — so late
    retry rounds with tiny deficits don't pay a full re-sort of the
    accumulated edge set.
    """
    keys = np.sort(rows.astype(np.int64) * n + cols.astype(np.int64))
    if len(accepted) == 0:
        return _dedupe_sorted(keys)
    return _dedupe_sorted(np.sort(np.concatenate([accepted, keys]), kind="stable"))


def row_counts(keys: np.ndarray, n: int) -> np.ndarray:
    """Per-row pair counts of a ``row * n + col`` key array."""
    return np.bincount(keys // n, minlength=n)


def split_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split sorted distinct keys into flat CSR rows ``(indptr, cols)``."""
    counts = row_counts(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, (keys % n).astype(np.int64)


def bulk_links(
    positions: np.ndarray,
    k: int,
    cutoff: float,
    space: KeySpace,
    rng: np.random.Generator,
    dedupe: bool = True,
    max_rounds: int = 64,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample every peer's long-link set in whole-population passes.

    Statistically equivalent to running the per-peer ``FastSampler``
    oracle (``tests/builder_oracle.py``) once per peer (both
    realise "draw i.i.d. harmonic targets, keep distinct valid ones,
    redraw the rest"), but with ``O(rounds)`` numpy passes instead of
    ``O(n·k)`` Python iterations.

    Args:
        positions: *sorted* normalised peer positions in ``[0, 1)``.
        k: long links requested per peer.
        cutoff: minimum normalised link distance (the paper's ``1/N``).
        space: key-space geometry.
        rng: random source.
        dedupe: count only *distinct* targets toward each peer's budget
            (the default); with ``dedupe=False`` every valid draw counts
            and duplicates collapse at the end, matching the literal
            i.i.d. model.
        max_rounds: retry-round budget before the deterministic fallback
            scan (mirrors the per-peer sampler's ``max_retries``).
        rows: optional array of distinct source-row indices to sample
            links for; every other row stays empty.  Targets still range
            over the whole population.  This is the sharding hook of
            :func:`repro.parallel.dispatch.bulk_links_parallel`, which
            runs one call per contiguous source block.

    Returns:
        ``(indptr, flat_targets)``: peer ``i``'s links are
        ``flat_targets[indptr[i]:indptr[i+1]]``, sorted and distinct.
        Rows may hold fewer than ``k`` targets when the population cannot
        support them.

    Raises:
        ValueError: for non-positive ``cutoff``, negative ``k``,
            unsorted positions or out-of-range ``rows``.
    """
    if cutoff <= 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if np.any(np.diff(positions) < 0):
        raise ValueError("positions must be sorted")
    empty = (np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    if n <= 1 or k == 0:
        return empty

    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= n):
            raise ValueError(f"row indices out of range for {n} peers")
    left, right, log_left, log_right = _side_log_masses(
        positions, cutoff, space, rows=rows
    )
    has_mass = (log_left + log_right) > 0.0
    if rows is not None:
        row_mask = np.zeros(n, dtype=bool)
        row_mask[rows] = True
        has_mass = has_mass & row_mask
    all_rows = np.arange(n, dtype=np.int64)
    need = np.where(has_mass, k, 0).astype(np.int64)
    accepted = np.empty(0, dtype=np.int64)  # sorted distinct row*n+col keys
    tel_on = telemetry.enabled()
    started = time.perf_counter() if tel_on else 0.0
    rounds_used = 0
    # Every outstanding link is redrawn once per round, so max_rounds
    # rounds give each link the same random-retry budget as the scalar
    # sampler's max_retries before the deterministic fallback — no early
    # stall exit, which would bias hard rows toward the fallback and
    # away from the per-peer sampler's distribution.
    for _ in range(max_rounds):
        active = need > 0
        if not active.any():
            break
        rounds_used += 1
        draw_rows = np.repeat(all_rows[active], need[active])
        drawn, valid = _draw_targets(
            positions[draw_rows], left[draw_rows], right[draw_rows],
            log_left[draw_rows], log_right[draw_rows], cutoff, space, rng,
        )
        j = nearest_indices(positions, drawn, space)
        ok = (
            valid
            & (j != draw_rows)
            & (space.pairwise_distances(positions[j], positions[draw_rows]) >= cutoff)
        )
        accepted = merge_row_pairs(accepted, draw_rows[ok], j[ok], n)
        if dedupe:
            need = np.where(has_mass, k - row_counts(accepted, n), 0)
        else:
            # Every *valid* draw (duplicates included) spends budget; the
            # duplicate targets then collapse, as in the literal model.
            need = need - np.bincount(draw_rows[ok], minlength=n)
    fallback_rows = int(np.count_nonzero(need > 0))
    if need.any():
        accepted = _fallback_fill(positions, cutoff, space, need, accepted, dedupe)
    if tel_on:
        registry = telemetry.get_registry()
        registry.timer("construction.bulk_links").observe(
            time.perf_counter() - started
        )
        registry.counter("construction.rounds").inc(rounds_used)
        registry.counter("construction.fallback_rows").inc(fallback_rows)
        telemetry.trace(
            "construction.bulk_links",
            rows=int(len(rows)) if rows is not None else n,
            rounds=rounds_used,
            fallback_rows=fallback_rows,
        )
    return split_rows(accepted, n)


def _fallback_fill(
    positions: np.ndarray,
    cutoff: float,
    space: KeySpace,
    need: np.ndarray,
    accepted: np.ndarray,
    dedupe: bool,
) -> np.ndarray:
    """Deterministic outward scan for rows the random rounds left short.

    Scalar, but only ever touches the (rare) pathological rows — the
    bulk analogue of the per-peer sampler's fallback scan.  With
    ``dedupe=True`` it fills the row's remaining budget with *new*
    distinct targets; with ``dedupe=False`` it mirrors the scalar
    sampler exactly — every exhausted draw lands on the first valid
    target, so the row gains at most that one (possibly already-held)
    neighbour.
    """
    n = len(positions)
    extra: list[int] = []
    for i in np.nonzero(need > 0)[0]:
        i = int(i)
        p = float(positions[i])
        want = int(need[i]) if dedupe else 1
        mine: set[int] = set()
        for j in outward_candidate_indices(i, n, space.is_ring):
            if j in mine:
                continue
            key = i * n + j
            if dedupe:
                pos_in = np.searchsorted(accepted, key)
                if pos_in < len(accepted) and accepted[pos_in] == key:
                    continue
            if space.distance(p, float(positions[j])) >= cutoff:
                mine.add(j)
                extra.append(key)
                if len(mine) >= want:
                    break
    if not extra:
        return accepted
    return _sorted_unique(
        np.concatenate([accepted, np.asarray(extra, dtype=np.int64)])
    )


def bulk_exact_links(
    positions: np.ndarray,
    k: int,
    cutoff: float,
    space: KeySpace,
    rng: np.random.Generator,
    dedupe: bool = True,
    block_size: int = 256,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth ``1/d'`` sampling over blocked rows of the weight matrix.

    Evaluates the full ``n × n`` distance/weight matrix ``block_size``
    rows at a time, then samples each row without a Python-level per-peer
    ``rng.choice``:

    * ``dedupe=True`` — exponential race: draw ``E_j ~ Exp(1)`` per
      candidate and keep the ``k`` smallest ``E_j / w_j``, which realises
      weighted sampling *without* replacement (Efraimidis–Spirakis),
      matching a per-peer sequential ``choice(replace=False)`` (the
      ``ExactSampler`` oracle in ``tests/builder_oracle.py``) in
      distribution.
    * ``dedupe=False`` — ``k`` i.i.d. inverse-CDF draws per row through
      one flattened ``searchsorted`` over offset row CDFs, duplicates
      collapsed, matching the oracle's ``ExactSampler(dedupe=False)``.

    Intended for mid-size ground truth (``n`` up to a few 1e4); memory
    and time are ``O(n · block_size)`` per pass and ``O(n²)`` total.

    Returns and raises as :func:`bulk_links`.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    if n <= 1 or k == 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64)

    accepted = np.empty(0, dtype=np.int64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = np.arange(start, stop, dtype=np.int64)
        dists = space.pairwise_distances(positions[block][:, None], positions[None, :])
        weights = np.where(dists >= cutoff, 1.0, 0.0)
        np.divide(weights, dists, out=weights, where=weights > 0)
        weights[block - start, block] = 0.0
        if dedupe:
            race = np.full(weights.shape, np.inf)
            np.divide(
                rng.exponential(size=weights.shape), weights,
                out=race, where=weights > 0,
            )
            take = min(k, n - 1)
            chosen = np.argpartition(race, take - 1, axis=1)[:, :take]
            finite = np.isfinite(np.take_along_axis(race, chosen, axis=1))
            rows = np.repeat(block, take)[finite.ravel()]
            cols = chosen.ravel()[finite.ravel()]
        else:
            cdf = np.cumsum(weights, axis=1)
            totals = cdf[:, -1]
            live = totals > 0
            if not live.any():
                continue
            b = int(live.sum())
            # One flat searchsorted over per-row CDFs offset by row index.
            flat_cdf = (
                cdf[live] / totals[live, None] + np.arange(b)[:, None]
            ).ravel()
            queries = (rng.random((b, k)) + np.arange(b)[:, None]).ravel()
            idx = np.searchsorted(flat_cdf, queries, side="right")
            cols = (idx % n).astype(np.int64)
            rows = np.repeat(block[live], k)
        accepted = merge_row_pairs(accepted, rows, cols, n)
    return split_rows(accepted, n)


def symmetrize_flat(
    rows: np.ndarray, cols: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Install the reverse of every edge, dropping self-links and duplicates.

    The CSR transpose-merge behind ``GraphConfig(bidirectional=True)``:
    concatenate the edge list with its transpose, key-sort, and unique —
    no per-edge Python ``set`` loop.

    Args:
        rows: edge source indices (flat).
        cols: edge target indices, aligned with ``rows``.
        n: number of peers.

    Returns:
        ``(indptr, flat_targets)`` with every row sorted and distinct.
    """
    all_rows = np.concatenate([rows, cols]).astype(np.int64)
    all_cols = np.concatenate([cols, rows]).astype(np.int64)
    keep = all_rows != all_cols
    keys = _sorted_unique(all_rows[keep] * n + all_cols[keep])
    return split_rows(keys, n)
