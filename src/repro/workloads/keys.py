"""Key-corpus generators: the data-oriented workloads of the paper's intro.

The motivating applications ("complex queries or information retrieval")
store *semantically meaningful* keys — ordered, non-hashed, skewed.  The
generators here produce such corpora with controlled skew:

* :func:`corpus_from_distribution` — i.i.d. keys from any analytic
  distribution;
* :func:`zipf_corpus` — a dictionary of ordered items with Zipfian item
  frequencies (document/term identifiers).
"""

from __future__ import annotations

import numpy as np

from repro.distributions import Distribution, zipf_distribution

__all__ = ["corpus_from_distribution", "zipf_corpus"]


def corpus_from_distribution(
    distribution: Distribution, n_keys: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_keys`` i.i.d. keys from ``distribution``, sorted.

    Raises:
        ValueError: for negative ``n_keys``.
    """
    if n_keys < 0:
        raise ValueError(f"n_keys must be >= 0, got {n_keys}")
    return np.sort(distribution.sample(n_keys, rng))


def zipf_corpus(
    n_keys: int,
    rng: np.random.Generator,
    n_items: int = 1024,
    exponent: float = 1.0,
) -> np.ndarray:
    """Draw keys for an ordered item dictionary with Zipfian popularity.

    Item ``i`` occupies the cell ``[i/n_items, (i+1)/n_items)``; keys are
    uniform within their item's cell so distinct occurrences of the same
    item remain distinct keys.

    Raises:
        ValueError: for invalid sizes.
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    dist = zipf_distribution(n_items=n_items, exponent=exponent)
    return corpus_from_distribution(dist, n_keys, rng)
