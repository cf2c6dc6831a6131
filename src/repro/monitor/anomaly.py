"""Anomaly detection and SLO evaluation for monitor series.

Three small, deterministic pieces:

* :class:`EwmaDetector` — rolling EWMA mean/variance with a z-score
  flag.  Fed one window-statistic at a time; a sample whose deviation
  from the running mean exceeds ``z_threshold`` standard deviations is
  flagged (after a warm-up period so the first windows can't alarm on
  an uninitialised variance).
* :func:`chi_square_distance` — symmetric chi-square distance between
  two histograms, the drift measure for retirement-reason mixes and
  out-degree distributions.
* :class:`SloPolicy` / :func:`evaluate_slo` — declarative SLO targets
  (hop inflation vs. the paper's log²n baseline, p99 latency, cache
  hit-rate, reason drift, frontier fill) evaluated into burn rates:
  ``burn = observed_overage / budget``, where > 1.0 means the error
  budget is being spent faster than allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EwmaDetector",
    "AnomalyVerdict",
    "chi_square_distance",
    "hop_baseline",
    "SloPolicy",
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

    Args:
        alpha: smoothing factor in (0, 1]; higher tracks faster.
        z_threshold: flag when ``|value - mean| > z_threshold * std``.
        warmup: number of samples absorbed before flagging is allowed
            (they still update the statistics).
        min_std: variance floor so a perfectly flat warm-up (std 0)
            doesn't turn every later wiggle into an alarm.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        z_threshold: float = 4.0,
        warmup: int = 8,
        min_std: float = 1e-9,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if z_threshold <= 0:
            raise ValueError(f"z_threshold must be > 0, got {z_threshold}")
        self.alpha = alpha
        self.z_threshold = z_threshold
        self.warmup = warmup
        self.min_std = min_std
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
        floor = max(self.min_std, abs(self.mean) * 1e-6)
        z = (value - self.mean) / max(std, floor)
        flagged = self.count >= self.warmup and abs(z) > self.z_threshold
        # West's EWMA variance update: deviation measured against the
        # pre-update mean so a genuine step registers before the mean
        # chases it.
        delta = value - self.mean
        incr = self.alpha * delta
        self.mean += incr
        self.var = (1.0 - self.alpha) * (self.var + delta * incr)
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
class SloPolicy:
    """SLO targets; ``None`` disables an objective.

    Attributes:
        hop_inflation_max: budgeted ratio of observed mean hops to
            :func:`hop_baseline` — the paper-claim watchdog.
        latency_p99_ms_max: p99 latency budget (wall-clock objective).
        cache_hit_min: minimum acceptable cache hit-rate (evaluated
            only when a cache is configured).
        reason_chi2_max: budgeted chi-square distance of the window's
            retirement-reason mix from the baseline window.
    """

    hop_inflation_max: float | None = 3.0
    latency_p99_ms_max: float | None = None
    cache_hit_min: float | None = None
    reason_chi2_max: float | None = 0.25


@dataclass
class SloVerdict:
    """One objective's evaluation: observed vs. budget → burn rate."""

    objective: str
    observed: float
    budget: float
    burn_rate: float
    breached: bool


def _burn(observed: float, budget: float, invert: bool = False) -> float:
    """Burn rate of an objective: >1 means over budget.

    ``invert=True`` for floor objectives (cache hit-rate)
    where *lower* observed is worse.
    """
    if invert:
        if observed <= 0:
            return math.inf if budget > 0 else 0.0
        return budget / observed
    if budget <= 0:
        return math.inf if observed > 0 else 0.0
    return observed / budget


def evaluate_slo(policy: SloPolicy, stats: dict) -> list[SloVerdict]:
    """Evaluate ``stats`` (a monitor window's summary) against ``policy``.

    Missing stats skip their objective; burn rates > 1.0 are breaches.
    """
    verdicts: list[SloVerdict] = []

    def add(objective: str, observed, budget, invert=False):
        if budget is None or observed is None:
            return
        rate = _burn(float(observed), float(budget), invert)
        verdicts.append(
            SloVerdict(objective, float(observed), float(budget), rate, rate > 1.0)
        )

    add("hop_inflation", stats.get("hop_inflation"), policy.hop_inflation_max)
    add("latency_p99_ms", stats.get("latency_p99_ms"), policy.latency_p99_ms_max)
    add("cache_hit_rate", stats.get("cache_hit_rate"), policy.cache_hit_min,
        invert=True)
    add("reason_chi2", stats.get("reason_chi2"), policy.reason_chi2_max)
    return verdicts
