"""Active health probes: deterministic synthetic lookups scored for health.

A :class:`HealthProbe` owns a fixed probe workload — :data:`N_PROBES`
sources and keys drawn once from a generator seeded with
:data:`PROBE_SEED` — and routes it against an overlay (the serving
engine's graph, or any CSR + metric pair, including a churned
:class:`repro.overlay.Network` snapshot).  Because the workload never
changes, score movements between overlays are pure overlay signal:

* **reachability** — probe success rate; failures are clustered in key
  space to estimate *partition suspicion* (one contiguous unreachable
  arc smells like a partition; scattered failures smell like churn
  noise).  Suspicion is the largest failure cluster's share of the
  probes, so it never exceeds ``1 - reachability``.
* **hop inflation** — mean probe hops over the paper's log²(n)/k
  baseline (:func:`repro.monitor.anomaly.hop_baseline`); the live
  watchdog for the source paper's central claim.
* **degree drift** — chi-square distance of the probed overlay's
  out-degree histogram from the one captured at probe construction;
  rises as churn or rewiring reshapes the overlay, and reads 0.0 on
  the construction-time overlay itself.

A serving engine never swaps its graph, so :class:`repro.monitor.
Monitor` runs its probe once, at construction; ``run(csr=, alive=)``
scores another snapshot of the overlay against the same baseline.

Probes route *out of band* through the batch kernel — they never enter
a serving engine's outcome log, so ticket outcome columns stay
workload-pure and the serving determinism contract is untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.monitor.anomaly import chi_square_distance, hop_baseline

__all__ = ["HealthProbe", "ProbeReport"]

#: Probe workload size.
N_PROBES = 256
#: Probe workload seed — same seed, same probes, always.
PROBE_SEED = 0xC0FFEE


@dataclass
class ProbeReport:
    """One probe run's scores."""

    n_probes: int
    reachability: float
    partition_suspicion: float
    mean_hops: float
    hop_inflation: float
    degree_drift: float
    unreached: int

    def to_dict(self) -> dict:
        return {
            "n_probes": self.n_probes,
            "reachability": self.reachability,
            "partition_suspicion": self.partition_suspicion,
            "mean_hops": self.mean_hops,
            "hop_inflation": self.hop_inflation,
            "degree_drift": self.degree_drift,
            "unreached": self.unreached,
        }

    @property
    def healthy(self) -> bool:
        """Loose liveness verdict: fully reachable, hops within 3x baseline."""
        return self.reachability >= 0.999 and self.hop_inflation <= 3.0


def _degree_histogram(csr) -> np.ndarray:
    degrees = np.asarray(csr.out_degrees(), dtype=np.int64)
    return np.bincount(degrees) if len(degrees) else np.zeros(1, dtype=np.int64)


class HealthProbe:
    """Deterministic probe workload over one overlay.

    Each probe walk gets a hop budget of ``4 * log²n`` (at least 16),
    tight enough that a broken overlay fails fast instead of wandering.

    Args:
        csr: the overlay's :class:`repro.core.adjacency.CSRAdjacency`.
        metric: the overlay's routing metric (as used by
            :func:`repro.core.metric_routing.frontier_route_many`).
        peer_keys: per-peer key coordinates (``graph.ids``), used to
            place unreached owners in key space for partition clustering.

    Use :meth:`for_engine` to build one straight off a serving engine.
    """

    def __init__(self, csr, metric, peer_keys: np.ndarray):
        self.csr = csr
        self.metric = metric
        self.peer_keys = np.asarray(peer_keys, dtype=float)
        n = csr.n
        self.max_hops = max(16, int(4 * math.log2(max(n, 2)) ** 2))
        rng = np.random.default_rng(PROBE_SEED)
        self.sources = rng.integers(0, n, size=N_PROBES, dtype=np.int64)
        self.keys = rng.random(N_PROBES)
        self._baseline_degrees = _degree_histogram(csr)
        degrees = np.asarray(csr.out_degrees(), dtype=float)
        self._mean_degree = float(degrees.mean()) if len(degrees) else 1.0

    @classmethod
    def for_engine(cls, engine) -> "HealthProbe":
        """Probe a :class:`~repro.serving.engine.ServingEngine`'s overlay."""
        return cls(engine.csr, engine.metric, engine.graph.ids)

    def run(self, csr=None, alive: np.ndarray | None = None) -> ProbeReport:
        """Route the probe workload and score the overlay.

        Args:
            csr: override adjacency (e.g. a fresh ``network.snapshot()``
                after churn); defaults to the construction-time one.
            alive: optional liveness mask forwarded to the router.  Dead
                probe sources are re-homed to live peers so a churned
                overlay stays probeable.
        """
        from repro.core.metric_routing import frontier_route_many

        csr = self.csr if csr is None else csr
        sources = self.sources
        if alive is not None:
            alive = np.asarray(alive, dtype=bool)
            dead = ~alive[sources]
            if dead.any():
                live_ids = np.flatnonzero(alive)
                if len(live_ids) == 0:
                    raise ValueError("no live peers to probe")
                # Deterministic re-homing: probe i falls back to the
                # live peer at its own strided position.
                sources = sources.copy()
                sources[dead] = live_ids[
                    np.flatnonzero(dead) % len(live_ids)
                ]
        result = frontier_route_many(
            csr, self.metric, sources, self.keys,
            alive=alive, max_hops=self.max_hops,
        )
        reached = result.success
        n_unreached = int((~reached).sum())
        reachability = float(reached.mean())
        suspicion = self._partition_suspicion(result.owners[~reached])
        mean_hops = (
            float(result.hops[reached].mean()) if reached.any() else float("inf")
        )
        baseline = hop_baseline(csr.n, self._mean_degree)
        drift = chi_square_distance(
            self._baseline_degrees, _degree_histogram(csr)
        )
        return ProbeReport(
            n_probes=N_PROBES,
            reachability=reachability,
            partition_suspicion=suspicion,
            mean_hops=mean_hops,
            hop_inflation=(
                mean_hops / baseline if math.isfinite(mean_hops) else math.inf
            ),
            degree_drift=drift,
            unreached=n_unreached,
        )

    def _partition_suspicion(self, unreached_owners: np.ndarray) -> float:
        """Fraction of probes whose failures cluster in one key-space arc.

        Sorts the unreached owners' key coordinates on the unit ring and
        splits them into clusters at gaps wider than both 4x the mean
        peer spacing and 1% of the ring; suspicion is the largest
        cluster's share of all probes.  0.0 when everything was reached.
        """
        if len(unreached_owners) == 0:
            return 0.0
        n = max(self.csr.n, 1)
        keys = np.sort(self.peer_keys[np.asarray(unreached_owners, dtype=np.int64)])
        if len(keys) == 1:
            return 1.0 / N_PROBES
        threshold = max(4.0 / n, 0.01)
        gaps = np.diff(keys)
        wrap_gap = (keys[0] + 1.0) - keys[-1]
        splits = np.flatnonzero(gaps > threshold)
        if wrap_gap <= threshold and len(splits):
            # Ring wraps into one cluster across 0: merge first and last.
            sizes = np.diff(np.concatenate([[0], splits + 1, [len(keys)]]))
            sizes = np.concatenate([[sizes[0] + sizes[-1]], sizes[1:-1]])
        elif len(splits):
            sizes = np.diff(np.concatenate([[0], splits + 1, [len(keys)]]))
        else:
            sizes = np.asarray([len(keys)])
        return float(sizes.max()) / N_PROBES
