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
    the full Section 4.2 construction for *all* peers at once: draw the
    uniforms of every outstanding link, place and resolve the targets in
    cache-sized blocks (:func:`repro.keyspace.nearest_indices` over the
    sorted positions), validate (no self-links, cutoff respected), keep
    each row's distinct targets in a :class:`PairAccumulator`, and
    redraw only the surviving deficit in retry rounds.  The target
    search goes through a :class:`repro.keyspace.BucketIndex` built once
    per call: normalised positions hold about one peer per bucket, so a
    drawn target's lower bound is its bucket's offset plus a step or
    two.  A deterministic outward scan (the same last resort as the
    per-peer ``FastSampler`` oracle in ``tests/builder_oracle.py``)
    finishes pathological rows.

:func:`bulk_exact_links`
    the ground-truth ``1/d'`` weight-vector sampler evaluated in blocked
    rows of the full ``n × n`` distance matrix — an exponential-race
    (Efraimidis–Spirakis) top-``k`` reproduces weighted sampling without
    replacement, so mid-size populations get an exact reference graph
    without ``n`` Python-level ``rng.choice`` calls.

:class:`PairAccumulator`
    the one set of distinct ``row * n + col`` keys behind every retry
    loop: :func:`bulk_links`, :func:`bulk_exact_links`, the Symphony and
    Mercury builders and the live overlay's ``_resolve_links``.  A round
    sorts and dedupes only its own batch, drops pairs already held by
    searching the held runs for that batch, and updates per-row counts;
    the runs merge once at the end.

:func:`symmetrize_flat` / :func:`split_rows`
    the builder's ``bidirectional`` option — one key concatenation, one
    in-place sort, one dedupe — and the split of sorted keys into flat
    CSR rows, with row bounds found by ``searchsorted``.

All functions speak *flat* ragged rows — ``(indptr, flat_targets)``
pairs — so :meth:`repro.core.graph.SmallWorldGraph.from_flat_links` can
assemble the final CSR adjacency directly instead of re-deriving it from
per-node arrays.  The loops these replaced (a full merge and recount of
the accepted set every round) live on in ``tests/builder_oracle.py``,
which the tests hold the outputs to, array for array.

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
from repro.keyspace import KeySpace, bucket_index, nearest_indices

__all__ = [
    "bulk_harmonic_positions",
    "bulk_links",
    "bulk_exact_links",
    "PairAccumulator",
    "symmetrize_flat",
    "split_rows",
]


#: Draws resolved per block of a :func:`bulk_links` round, so a block's
#: temporaries stay in a core's L2 cache (512 KB per float64 array).
_DRAW_BLOCK = 1 << 16


def _side_log_masses(
    positions: np.ndarray, cutoff, space: KeySpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(left_span, right_span, log_left, log_right)`` arrays.

    ``log_* = ln(span/cutoff)`` clamped to 0 when the span does not reach
    beyond the cutoff — the vectorized form of the per-peer samplers'
    ``math.log(span / cutoff) if span > cutoff else 0.0``.  ``cutoff``
    may be a scalar or an array broadcastable to ``positions`` (the live
    overlay's bulk engine draws for peers that joined under different
    ``1/N`` regimes in one pass).
    """
    left, right = space.spans(positions)
    left = np.broadcast_to(np.asarray(left, dtype=float), positions.shape)
    right = np.broadcast_to(np.asarray(right, dtype=float), positions.shape)
    log_left = np.log(np.maximum(left, cutoff) / cutoff)
    log_right = np.log(np.maximum(right, cutoff) / cutoff)
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
    recomputing logs over every repeated entry.  Draws every entry's
    side uniform, then every entry's distance uniform.
    """
    side = rng.random(pos.shape)
    return _place_targets(
        pos, left, right, log_left, log_right, cutoff, space, side,
        rng.random(pos.shape),
    )


def _place_targets(
    pos: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    log_left: np.ndarray,
    log_right: np.ndarray,
    cutoff: float,
    space: KeySpace,
    side: np.ndarray,
    stretch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_draw_targets` with its uniforms given: ``side`` picks each
    entry's side, ``stretch`` its distance ``cutoff · (span/cutoff)^U``."""
    total = log_left + log_right
    valid = total > 0.0
    go_left = side * total < log_left
    span = np.where(go_left, left, right)
    distance = cutoff * (span / cutoff) ** stretch
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


def _row_bounds(keys: np.ndarray, rows: int, n: int) -> np.ndarray:
    """Where each of ``rows`` rows starts in sorted ``row * n + col`` keys."""
    return np.searchsorted(keys, np.arange(rows + 1, dtype=np.int64) * n)


def _split_at(keys: np.ndarray, indptr: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, cols)`` of sorted keys whose row bounds are ``indptr``."""
    starts = np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64) * n, np.diff(indptr)
    )
    return indptr, np.subtract(keys, starts, out=starts)


def split_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split sorted distinct keys into flat CSR rows ``(indptr, cols)``.

    Row bounds come from one ``searchsorted`` of the row starts
    ``r * n``, and each column is its key minus its row start, so no
    int64 ``//`` or ``%`` pass runs over the keys.
    """
    return _split_at(keys, _row_bounds(keys, n, n), n)


class PairAccumulator:
    """Distinct ``(row, col)`` pairs gathered over retry rounds.

    Pairs are held as ``row * n + col`` int64 keys in sorted, pairwise
    disjoint runs.  :meth:`add` sorts and dedupes only the new batch,
    drops the keys some run already holds by searching the runs for the
    batch's keys (never the other way round), appends what is left as a
    new run and adds it to :attr:`counts` — so a late round with a small
    deficit costs what its batch costs, not a re-sort and recount of
    every pair held.  :meth:`keys` merges the runs once.

    Args:
        rows: number of rows; row indices run over ``range(rows)``.
        n: column range; ``row * n + col`` must fit in int64.
        seed: sorted distinct keys held from the start (a repair's kept
            links).

    Attributes:
        counts: ``(rows,)`` int64, the distinct pairs held per row.
    """

    def __init__(self, rows: int, n: int, seed: np.ndarray | None = None):
        self.n = n
        self._runs: list[np.ndarray] = []
        if seed is not None and len(seed):
            seed = np.asarray(seed, dtype=np.int64)
            self._runs.append(seed)
            self.counts = np.diff(_row_bounds(seed, rows, n))
        else:
            self.counts = np.zeros(rows, dtype=np.int64)

    def add(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Hold every pair of ``(rows, cols)`` not held yet.

        ``rows`` must be non-decreasing, as the ``np.repeat`` of ascending
        row indices that every retry loop draws from is: sorting the keys
        then keeps each key aligned with its row, which is how the
        counts are taken without dividing keys by ``n``.

        Raises:
            ValueError: if ``rows`` decreases anywhere.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) > 1 and np.any(rows[1:] < rows[:-1]):
            raise ValueError("rows must be non-decreasing")
        keys = rows * self.n
        keys += cols
        keys.sort()
        if len(keys) > 1:
            fresh = np.empty(len(keys), dtype=bool)
            fresh[0] = True
            np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
            keys, rows = keys[fresh], rows[fresh]
        for run in self._runs:
            if not len(keys):
                break
            at = np.searchsorted(run, keys)
            np.minimum(at, len(run) - 1, out=at)
            held = run[at] == keys
            if held.any():
                keys, rows = keys[~held], rows[~held]
        if len(keys):
            self._runs.append(keys)
            self.counts += np.bincount(rows, minlength=len(self.counts))

    def keys(self) -> np.ndarray:
        """Every held key, ascending (merges the runs into one)."""
        if len(self._runs) > 1:
            # Disjoint sorted runs: timsort merges them in about one pass.
            self._runs = [np.sort(np.concatenate(self._runs), kind="stable")]
        return self._runs[0] if self._runs else np.empty(0, dtype=np.int64)

    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """The held pairs as flat CSR rows ``(indptr, cols)``, rows ascending."""
        indptr = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=indptr[1:])
        return _split_at(self.keys(), indptr, self.n)


def bulk_links(
    positions: np.ndarray,
    k: int,
    cutoff: float,
    space: KeySpace,
    rng: np.random.Generator,
    dedupe: bool = True,
    max_rounds: int = 64,
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

    Returns:
        ``(indptr, flat_targets)``: peer ``i``'s links are
        ``flat_targets[indptr[i]:indptr[i+1]]``, sorted and distinct.
        Rows may hold fewer than ``k`` targets when the population cannot
        support them.

    Raises:
        ValueError: for non-positive ``cutoff``, negative ``k`` or
            unsorted positions.
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

    left, right, log_left, log_right = _side_log_masses(positions, cutoff, space)
    has_mass = (log_left + log_right) > 0.0
    need = np.where(has_mass, k, 0).astype(np.int64)
    index = bucket_index(positions)
    links = PairAccumulator(n, n)
    tel_on = telemetry.enabled()
    started = time.perf_counter() if tel_on else 0.0
    rounds_used = 0
    # Every outstanding link is redrawn once per round, so max_rounds
    # rounds give each link the same random-retry budget as the scalar
    # sampler's max_retries before the deterministic fallback — no early
    # stall exit, which would bias hard rows toward the fallback and
    # away from the per-peer sampler's distribution.
    block_rows = max(1, _DRAW_BLOCK // k)  # need <= k, so <= _DRAW_BLOCK draws
    for _ in range(max_rounds):
        active = np.flatnonzero(need)
        if not len(active):
            break
        rounds_used += 1
        per_row = need[active]
        ends = np.cumsum(per_row)
        draws = int(ends[-1])
        # The round's side uniforms, then its distance uniforms, exactly
        # as one _draw_targets call over all its draws would take them.
        side = rng.random(draws)
        stretch = rng.random(draws)
        # The valid draws, packed block after block.  Preallocated whole
        # so the blocks leave no trail of freed mid-size heap chunks
        # resident after the build.
        ok_rows = np.empty(draws, dtype=np.int64)
        ok_cols = np.empty(draws, dtype=np.int64)
        kept = 0
        for lo in range(0, len(active), block_rows):
            hi = min(lo + block_rows, len(active))
            rows_b, reps = active[lo:hi], per_row[lo:hi]
            d0, d1 = int(ends[lo] - reps[0]), int(ends[hi - 1])
            draw_rows = np.repeat(rows_b, reps)
            pos = np.repeat(positions[rows_b], reps)
            drawn, valid = _place_targets(
                pos, np.repeat(left[rows_b], reps), np.repeat(right[rows_b], reps),
                np.repeat(log_left[rows_b], reps), np.repeat(log_right[rows_b], reps),
                cutoff, space, side[d0:d1], stretch[d0:d1],
            )
            j = nearest_indices(positions, drawn, space, index=index)
            ok = (
                valid
                & (j != draw_rows)
                & (space.pairwise_distances(np.take(positions, j), pos) >= cutoff)
            )
            m = int(np.count_nonzero(ok))
            ok_rows[kept : kept + m] = draw_rows[ok]
            ok_cols[kept : kept + m] = j[ok]
            kept += m
        del side, stretch  # free before the accumulator sorts the round
        ok_rows = ok_rows[:kept]
        links.add(ok_rows, ok_cols[:kept])
        if dedupe:
            need = np.where(has_mass, k - links.counts, 0)
        else:
            # Every *valid* draw (duplicates included) spends budget; the
            # duplicate targets then collapse, as in the literal model.
            need = need - np.bincount(ok_rows, minlength=n)
    fallback_rows = int(np.count_nonzero(need > 0))
    if need.any():
        _fallback_fill(positions, cutoff, space, need, links, dedupe)
    if tel_on:
        registry = telemetry.get_registry()
        registry.timer("construction.bulk_links").observe(
            time.perf_counter() - started
        )
        registry.counter("construction.rounds").inc(rounds_used)
        registry.counter("construction.fallback_rows").inc(fallback_rows)
        telemetry.trace(
            "construction.bulk_links",
            rows=n,
            rounds=rounds_used,
            fallback_rows=fallback_rows,
        )
    return links.split()


def _fallback_fill(
    positions: np.ndarray,
    cutoff: float,
    space: KeySpace,
    need: np.ndarray,
    links: PairAccumulator,
    dedupe: bool,
) -> None:
    """Deterministic outward scan for rows the random rounds left short.

    Scalar, but only ever touches the (rare) pathological rows — the
    bulk analogue of the per-peer sampler's fallback scan.  With
    ``dedupe=True`` it fills the row's remaining budget with *new*
    distinct targets; with ``dedupe=False`` it mirrors the scalar
    sampler exactly — every exhausted draw lands on the first valid
    target, so the row gains at most that one (possibly already-held)
    neighbour.  The targets found are added to ``links``.
    """
    n = len(positions)
    accepted = links.keys()
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
    if extra:
        keys = np.asarray(extra, dtype=np.int64)
        links.add(keys // n, keys % n)


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

    links = PairAccumulator(n, n)
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
        links.add(rows, cols)
    return links.split()


def symmetrize_flat(
    rows: np.ndarray, cols: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Install the reverse of every edge, dropping self-links and duplicates.

    The CSR transpose-merge behind ``GraphConfig(bidirectional=True)``:
    one array holds the edge keys ``row·n + col`` followed by the
    transposed keys ``col·n + row``; one in-place sort and one dedupe
    leave every row sorted and distinct — no per-edge Python ``set``
    loop.

    Args:
        rows: edge source indices (flat).
        cols: edge target indices, aligned with ``rows``.
        n: number of peers.

    Returns:
        ``(indptr, flat_targets)`` with every row sorted and distinct.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    loops = rows == cols
    if loops.any():
        rows, cols = rows[~loops], cols[~loops]
    m = len(rows)
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(rows, n, out=keys[:m])
    keys[:m] += cols
    np.multiply(cols, n, out=keys[m:])
    keys[m:] += rows
    keys.sort()
    return split_rows(_dedupe_sorted(keys), n)
