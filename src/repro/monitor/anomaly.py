"""Anomaly detection and SLO evaluation for monitor series.

Three small, deterministic pieces:

* :class:`EwmaDetector` — rolling EWMA mean/variance with a z-score
  flag.  Fed one window-statistic at a time; a sample whose deviation
  from the running mean exceeds :data:`Z_THRESHOLD` standard deviations
  is flagged (after :data:`WARMUP` samples, so the first windows can't
  alarm on an uninitialised variance).
* :func:`chi_square_distance` — symmetric chi-square distance between
  two histograms, the drift measure for retirement-reason mixes and
  out-degree distributions.
* :func:`evaluate_slo` — two fixed SLO ceilings (hop inflation vs. the
  paper's log²n baseline, and retirement-reason drift) evaluated into
  burn rates: ``burn = observed / budget``, where > 1.0 means the error
  budget is being spent faster than allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: EWMA smoothing factor in (0, 1]; higher tracks faster.
ALPHA = 0.2
#: Flag a sample more than this many standard deviations from the mean.
Z_THRESHOLD = 4.0
#: Samples absorbed before flagging is allowed (they still update).
WARMUP = 8
#: Standard-deviation floor, so a perfectly flat warm-up (std 0) doesn't
#: turn every later wiggle into an alarm.
MIN_STD = 1e-9

#: SLO ceilings: mean hops over :func:`hop_baseline` (the paper-claim
#: watchdog), and the chi-square distance of a window's retirement-reason
#: mix from the first window's.
SLO_BUDGETS = (("hop_inflation", 3.0), ("reason_chi2", 0.25))

__all__ = [
    "EwmaDetector",
    "AnomalyVerdict",
    "chi_square_distance",
    "hop_baseline",
    "SloVerdict",
    "evaluate_slo",
]


@dataclass
class AnomalyVerdict:
    """One detector update: the sample's z-score and whether it alarmed."""

    value: float
    mean: float
    std: float
    z: float
    flagged: bool


class EwmaDetector:
    """EWMA mean/variance z-score detector for one series.

    Flags ``|value - mean| > Z_THRESHOLD * std`` once :data:`WARMUP`
    samples have been absorbed; smoothing is :data:`ALPHA` and the
    standard deviation never drops below :data:`MIN_STD`.
    """

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.var = 0.0

    def update(self, value: float) -> AnomalyVerdict:
        """Absorb one sample, returning its verdict against the prior state."""
        value = float(value)
        if self.count == 0:
            self.count = 1
            self.mean = value
            return AnomalyVerdict(value, value, 0.0, 0.0, False)
        std = math.sqrt(self.var)
        floor = max(MIN_STD, abs(self.mean) * 1e-6)
        z = (value - self.mean) / max(std, floor)
        flagged = self.count >= WARMUP and abs(z) > Z_THRESHOLD
        # West's EWMA variance update: deviation measured against the
        # pre-update mean so a genuine step registers before the mean
        # chases it.
        delta = value - self.mean
        incr = ALPHA * delta
        self.mean += incr
        self.var = (1.0 - ALPHA) * (self.var + delta * incr)
        self.count += 1
        return AnomalyVerdict(value, self.mean, std, z, flagged)


def chi_square_distance(p, q) -> float:
    """Symmetric chi-square distance between two histograms.

    ``0.5 * sum((p_i - q_i)^2 / (p_i + q_i))`` over bins where either
    mass is non-zero, with both inputs normalised to sum 1 first (so
    absolute counts and rates compare alike).  Ranges [0, 1]; 0 means
    identical distributions.  Shorter input is zero-padded.
    """
    p = np.asarray(p, dtype=float).ravel()
    q = np.asarray(q, dtype=float).ravel()
    bins = max(len(p), len(q))
    if len(p) < bins:
        p = np.pad(p, (0, bins - len(p)))
    if len(q) < bins:
        q = np.pad(q, (0, bins - len(q)))
    ps, qs = p.sum(), q.sum()
    if ps <= 0 or qs <= 0:
        return 0.0 if ps == qs else 1.0
    p = p / ps
    q = q / qs
    denom = p + q
    mask = denom > 0
    return float(0.5 * np.sum((p[mask] - q[mask]) ** 2 / denom[mask]))


def hop_baseline(n: int, mean_out_degree: float = 8.0) -> float:
    """Paper-normalised expected greedy hop count for ``n`` peers.

    The source paper's claim is log²(n) routing regardless of key-space
    skew; with out-degree k the constant drops to ~log²(n)/k.  Floored
    at 1 hop.
    """
    if n < 2:
        return 1.0
    return max(1.0, math.log2(n) ** 2 / max(mean_out_degree, 1.0))


@dataclass
class SloVerdict:
    """One objective's evaluation: observed vs. budget → burn rate."""

    objective: str
    observed: float
    budget: float
    burn_rate: float
    breached: bool


def evaluate_slo(stats: dict) -> list[SloVerdict]:
    """Evaluate ``stats`` (a monitor window's summary) against
    :data:`SLO_BUDGETS`.

    Missing stats skip their objective; burn rates > 1.0 are breaches.
    """
    verdicts: list[SloVerdict] = []
    for objective, budget in SLO_BUDGETS:
        observed = stats.get(objective)
        if observed is None:
            continue
        rate = float(observed) / budget
        verdicts.append(
            SloVerdict(objective, float(observed), budget, rate, rate > 1.0)
        )
    return verdicts
