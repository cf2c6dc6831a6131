"""Graph and routing analysis: scaling fits, degrees, partitions, tests."""

from repro.analysis.degree import DegreeSummary, degree_summary, in_degrees
from repro.analysis.hops import LogFit, fit_log_slope
from repro.analysis.partition_stats import (
    link_partition_histogram,
    partition_uniformity,
)
from repro.analysis.stats_tests import KSResult, bootstrap_mean_ci, ks_two_sample

__all__ = [
    "LogFit",
    "fit_log_slope",
    "DegreeSummary",
    "degree_summary",
    "in_degrees",
    "link_partition_histogram",
    "partition_uniformity",
    "KSResult",
    "ks_two_sample",
    "bootstrap_mean_ci",
]
