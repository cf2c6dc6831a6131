"""Workload generation: skewed key corpora and query streams."""

from repro.workloads.keys import corpus_from_distribution, zipf_corpus
from repro.workloads.queries import (
    CumulativePicker,
    cumulative_picks,
    point_queries,
    range_queries,
    zipf_point_queries,
)

__all__ = [
    "corpus_from_distribution",
    "zipf_corpus",
    "point_queries",
    "zipf_point_queries",
    "range_queries",
    "CumulativePicker",
    "cumulative_picks",
]
