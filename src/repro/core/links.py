"""The per-peer long-link draw of the Section 4.2 join protocol.

Both models of the paper reduce (Theorem 2, Figure 1) to the same task:
given peer positions that are ~uniform in *normalised* space, pick each
long-range neighbour ``v`` of peer ``u`` with probability

    P[v] ∝ 1 / d'(u, v),    subject to d'(u, v) ≥ cutoff  (default 1/N),

where ``d'`` is the normalised distance (raw distance for Model 1, the
eq. (7) integral for Model 2).  Section 4.2 realises it as a protocol:
"the peer draws log2 N random values according to h_u and queries for
these values; the peers that respond are added as long-range
neighbours".  Static graphs run that draw for the whole population at
once in :mod:`repro.core.bulk_construction`; the live join and
maintenance code draws for one peer at a time through
:func:`harmonic_target_positions`, which delegates to the same kernel so
the two cannot drift.

The per-peer samplers (an ``O(N)``-per-peer exact weight vector and an
independent scalar transcription of the inverse-CDF draw) are the test
oracle of the bulk engine and live in ``tests/builder_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.keyspace import KeySpace

__all__ = ["harmonic_target_positions"]


def harmonic_target_positions(
    position: float,
    k: int,
    cutoff: float,
    space: KeySpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``k`` normalised-space positions from the ``1/x`` link density.

    This is the sampling step of the Section 4.2 join protocol: a joining
    peer at normalised position ``position`` draws values "according to
    h_u" — distance ``x`` from the ``1/x`` density on ``[cutoff, span]``,
    side chosen proportionally to each side's available log-mass — and
    then *queries* for the resulting positions.  Static construction
    applies the same draw and resolves targets directly; live protocols
    resolve them by routing.

    Delegates to the vectorized kernel
    :func:`repro.core.bulk_construction.bulk_harmonic_positions` with a
    ``k``-sized call, so the scalar and bulk paths share one draw formula
    (and one interval clamp) and cannot drift.

    Returns an empty array when no side has mass beyond the cutoff.

    Raises:
        ValueError: for non-positive ``cutoff`` or negative ``k``.
    """
    from repro.core.bulk_construction import bulk_harmonic_positions

    if cutoff <= 0:
        raise ValueError(f"cutoff must be > 0, got {cutoff}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return np.empty(0, dtype=float)
    targets, valid = bulk_harmonic_positions(
        np.full(k, float(position)), cutoff, space, rng
    )
    if not valid.all():
        return np.empty(0, dtype=float)
    return targets
