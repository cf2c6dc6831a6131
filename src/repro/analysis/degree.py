"""Degree-distribution analysis of built overlays."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import SmallWorldGraph

__all__ = ["DegreeSummary", "degree_summary", "in_degrees"]


def in_degrees(graph: SmallWorldGraph) -> np.ndarray:
    """Return per-peer long-link in-degree (how often a peer is chosen).

    Under the ``1/d'`` criterion with uniform normalised positions, the
    in-degree distribution is approximately Poisson with mean ``log2 N``
    — heavy in-degree concentration would signal a broken sampler.
    """
    csr = graph.adjacency
    return np.bincount(csr.indices[csr.long_mask()], minlength=graph.n).astype(np.int64)


@dataclass
class DegreeSummary:
    """Degree statistics of one overlay graph.

    Attributes:
        mean_out: mean long-link outdegree.
        min_out / max_out: outdegree extremes.
        mean_in: mean long-link in-degree (equals ``mean_out`` by mass
            conservation).
        max_in: the most-referenced peer's in-degree.
        in_cv: coefficient of variation of the in-degree.
    """

    mean_out: float
    min_out: int
    max_out: int
    mean_in: float
    max_in: int
    in_cv: float


def degree_summary(graph: SmallWorldGraph) -> DegreeSummary:
    """Summarise long-link in/out degrees of ``graph``."""
    outs = graph.long_degrees().astype(float)
    ins = in_degrees(graph).astype(float)
    mean_in = float(ins.mean()) if len(ins) else 0.0
    return DegreeSummary(
        mean_out=float(outs.mean()) if len(outs) else 0.0,
        min_out=int(outs.min()) if len(outs) else 0,
        max_out=int(outs.max()) if len(outs) else 0,
        mean_in=mean_in,
        max_in=int(ins.max()) if len(ins) else 0,
        in_cv=float(ins.std() / mean_in) if mean_in > 0 else 0.0,
    )
