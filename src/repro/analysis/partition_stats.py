"""Long-link placement across the doubling partitions (Section 3.1).

"It is interesting to observe that in this case node u has almost equal
probabilities to choose the long-range neighbor from each of these
partitions.  Therefore when each node chooses log2 N long-range
neighbors in the same way, they will be uniformly distributed among the
partitions, whereas in logarithmic-style P2P overlays log2 N neighbors
would be chosen strictly from each partition."

:func:`link_partition_histogram` measures that distribution on a built
graph; experiment E3 compares it with the strict one-per-partition
placement of Chord-style tables.
"""

from __future__ import annotations

import numpy as np

from repro.core.graph import SmallWorldGraph
from repro.core.partitions import partition_indices
from repro.core.theory import n_partitions

__all__ = ["link_partition_histogram", "partition_uniformity"]


def link_partition_histogram(graph: SmallWorldGraph) -> np.ndarray:
    """Count long links falling in each doubling partition of distance.

    Partition ``j`` (1-based) collects links whose *normalised* length
    lies in ``[2^(j-1-m), 2^(j-m))`` with ``m = ⌈log2 N⌉``; index 0
    collects sub-cutoff links (none, when the ``1/N`` cutoff is active).

    Returns:
        Array of length ``m + 1`` with counts per partition index.
    """
    return np.bincount(
        partition_indices(graph.long_link_lengths(normalized=True), graph.n),
        minlength=n_partitions(graph.n) + 1,
    )


def partition_uniformity(graph: SmallWorldGraph) -> float:
    """Quantify how evenly long links spread over partitions (1 = uniform).

    Returns the ratio of the entropy of the link-partition histogram
    (ignoring partition 0) to the maximum possible entropy.  Values near
    1 mean the "almost equal probabilities per partition" prediction of
    Section 3.1 holds.
    """
    counts = link_partition_histogram(graph)[1:]
    total = counts.sum()
    if total == 0 or len(counts) < 2:
        return 1.0
    probs = counts[counts > 0] / total
    entropy = float(-(probs * np.log(probs)).sum())
    return entropy / float(np.log(len(counts)))
