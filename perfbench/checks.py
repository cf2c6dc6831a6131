"""Correctness checks that fail a benchmark run.

Each check takes outcome columns (or counters) and raises
:class:`CheckFailed` with the first offending lookup; the run then
reports ``"correct": false`` and exits non-zero.
"""

from __future__ import annotations

import numpy as np

from repro.core import batch_routing
from repro.core.metric_routing import GreedyValueMetric
from repro.monitor import hop_baseline


class CheckFailed(Exception):
    """A benchmark output disagrees with what the library must return."""


def _first(mask: np.ndarray) -> int:
    return int(np.flatnonzero(mask)[0])


def all_completed(success: np.ndarray, completed: np.ndarray) -> None:
    """Every timed lookup completed, and succeeded (the overlays are intact)."""
    if not completed.all():
        raise CheckFailed(f"lookup {_first(~completed)} never completed")
    if not success.all():
        raise CheckFailed(f"lookup {_first(~success)} did not succeed")


def replay_matches(graph, sources, keys, owners, hops, reasons, cache_hit) -> None:
    """Routed lookups replayed through ``route_many`` match owners, hops, reasons.

    Cache hits carry no walk (zero hops by definition), so only their
    owner is compared; :func:`cache_hits_match` covers them in full.
    """
    replay = batch_routing.route_many(graph, sources, keys, workers=1)
    routed = ~cache_hit
    for name, got, want in (
        ("owner", owners, replay.owners),
        ("hops", np.where(routed, hops, replay.hops), replay.hops),
        ("reason", np.where(routed, reasons, replay.reason_codes), replay.reason_codes),
    ):
        bad = got != want
        if bad.any():
            i = _first(bad)
            raise CheckFailed(
                f"replay {name} mismatch at sample {i}: stream {got[i]}, "
                f"route_many {want[i]}"
            )


def cache_hits_match(graph, keys, owners, cache_hit) -> None:
    """Every cache hit's owner is the owner the metric resolves for its key."""
    if not cache_hit.any():
        return
    resolved = GreedyValueMetric(graph.ids, graph.space).prepare(keys[cache_hit]).owners
    bad = owners[cache_hit] != resolved
    if bad.any():
        i = _first(bad)
        raise CheckFailed(
            f"cache hit {i} returned owner {owners[cache_hit][i]}, "
            f"prepare resolves {resolved[i]}"
        )


def hops_within_baseline(hops_mean: float, n: int, mean_out_degree: float) -> None:
    """Mean routed hops stay within the paper's log^2(n)/k baseline."""
    bound = hop_baseline(n, mean_out_degree)
    if not hops_mean <= bound:
        raise CheckFailed(
            f"hops_mean {hops_mean:.4f} exceeds the log2(n)^2/k baseline {bound:.4f}"
        )


def churn_epochs(live_after_epoch, n: int, ids_sorted_distinct) -> None:
    """Each epoch returns to ``n`` live peers with sorted, distinct snapshot ids."""
    for epoch, (live, ordered) in enumerate(zip(live_after_epoch, ids_sorted_distinct)):
        if live != n:
            raise CheckFailed(f"epoch {epoch} left {live} live peers, expected {n}")
        if not ordered:
            raise CheckFailed(f"epoch {epoch} snapshot ids are not sorted and distinct")
