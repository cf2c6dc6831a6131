"""Unit tests for doubling-partition bookkeeping (Theorem 1 internals)."""

import math

import numpy as np
import pytest

from repro.core import (
    advance_probability_bound,
    advance_stats,
    greedy_route,
    partition_hops_bound,
    partition_index,
    sample_batch,
    sample_routes,
    trace_partitions,
)
from repro.core.partitions import partition_indices


def _loop_advance_stats(graph, routes):
    """Per-hop reference: the partition of each visited node one at a
    time, then every hop and run walked in Python.  Returns the
    :class:`AdvanceStats` fields plus E2's per-partition hop and
    advance counts."""
    considered = advances = 0
    run_lengths: dict[int, list[int]] = {}
    steps: dict[int, int] = {}
    advanced: dict[int, int] = {}
    for result in routes:
        target = graph.normalized_key(result.target_key)
        trace = [
            partition_index(
                graph.space.distance(float(graph.normalized_ids[i]), target), graph.n
            )
            for i in result.path
        ]
        if len(trace) < 2:
            continue
        run_start = 0
        for pos in range(len(trace) - 1):
            before, after = trace[pos], trace[pos + 1]
            if before >= 1:
                considered += 1
                steps[before] = steps.get(before, 0) + 1
                if after < before:
                    advances += 1
                    advanced[before] = advanced.get(before, 0) + 1
            if after != before:
                if trace[run_start] >= 1:
                    run_lengths.setdefault(trace[run_start], []).append(
                        pos + 1 - run_start
                    )
                run_start = pos + 1
        if trace[run_start] >= 1 and run_start < len(trace) - 1:
            run_lengths.setdefault(trace[run_start], []).append(
                len(trace) - 1 - run_start
            )
    all_runs = [length for lengths in run_lengths.values() for length in lengths]
    return {
        "p_advance": advances / considered if considered else float("nan"),
        "mean_hops_per_partition": float(np.mean(all_runs)) if all_runs else float("nan"),
        "per_partition_hops": {
            j: float(np.mean(lengths)) for j, lengths in sorted(run_lengths.items())
        },
        "n_hops": considered,
        "per_partition_steps": dict(sorted(steps.items())),
        "per_partition_advance": {
            j: advanced.get(j, 0) / steps[j] for j in sorted(steps)
        },
    }


class TestPartitionIndex:
    def test_within_cell_is_zero(self):
        assert partition_index(0.0, 1024) == 0
        assert partition_index(2**-11, 1024) == 0

    def test_first_partition(self):
        # m = 10 for n = 1024; A_1 covers [2^-10, 2^-9).
        assert partition_index(2**-10, 1024) == 1
        assert partition_index(1.5 * 2**-10, 1024) == 1

    def test_boundaries(self):
        m = 10
        for j in range(1, m + 1):
            lo = 2.0 ** (j - 1 - m)
            assert partition_index(lo, 1024) == j
            hi = 2.0 ** (j - m) * 0.999
            assert partition_index(hi, 1024) == j

    def test_top_partition(self):
        assert partition_index(0.75, 1024) == 10
        assert partition_index(0.5, 1024) == 10

    def test_clamped_at_max(self):
        assert partition_index(1.0, 1024) == 10

    def test_non_power_of_two(self):
        # m = ceil(log2(1000)) = 10; 0.4 lies in [0.25, 0.5) = A_9.
        assert partition_index(0.4, 1000) == 9
        assert partition_index(0.6, 1000) == 10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            partition_index(-0.1, 100)
        with pytest.raises(ValueError):
            partition_index(0.1, 1)

    def test_monotone_in_distance(self):
        distances = np.linspace(1e-4, 0.999, 200)
        indices = [partition_index(float(d), 4096) for d in distances]
        assert all(a <= b for a, b in zip(indices, indices[1:]))
        assert partition_indices(distances, 4096).tolist() == indices

    @pytest.mark.parametrize("n", [2**20, 1000, 2])
    def test_power_of_two_boundaries_are_exact(self, n):
        # A float just below 2^k has floor(log2) = k - 1, but math.log2
        # rounds some of them up to k (e.g. 1 - 2^-53 at n = 2^20).
        m = max(1, math.ceil(math.log2(n)))
        k = np.arange(-m - 3, 1)
        power = 2.0**k
        below = np.nextafter(power, 0.0)
        above = np.nextafter(power, 1.0)
        expect_at = np.clip(k + m + 1, 0, m)
        expect_below = np.clip(k + m, 0, m)
        for distances, expected in (
            (power, expect_at),
            (above, expect_at),
            (below, expect_below),
        ):
            assert partition_indices(distances, n).tolist() == expected.tolist()
            assert [partition_index(float(d), n) for d in distances] == expected.tolist()

    def test_rejects_nan_distance(self):
        with pytest.raises(ValueError):
            partition_indices(np.array([0.1, float("nan")]), 100)


class TestTracePartitions:
    def test_trace_length_matches_path(self, uniform_graph, rng):
        result = greedy_route(uniform_graph, 5, 0.87)
        trace = trace_partitions(uniform_graph, result)
        assert len(trace) == len(result.path)

    def test_trace_ends_at_zero_partition(self, uniform_graph, rng):
        for _ in range(10):
            source = int(rng.integers(uniform_graph.n))
            target = float(uniform_graph.ids[int(rng.integers(uniform_graph.n))])
            result = greedy_route(uniform_graph, source, target)
            trace = trace_partitions(uniform_graph, result)
            # The walk ends at the owner: distance below ~1/N, partition 0
            # (or 1 when the owner sits right at a cell boundary).
            assert trace[-1] <= 1

    def test_trace_weakly_decreasing_mostly(self, uniform_graph, rng):
        # Greedy distance decreases strictly, so partition indices are
        # non-increasing along the path.
        result = greedy_route(uniform_graph, 3, 0.456)
        trace = trace_partitions(uniform_graph, result)
        assert all(a >= b for a, b in zip(trace, trace[1:]))


class TestAdvanceStats:
    @pytest.fixture(scope="class")
    def stats(self, uniform_graph):
        rng = np.random.default_rng(4)
        routes = sample_routes(uniform_graph, 400, rng)
        return advance_stats(uniform_graph, routes)

    def test_p_advance_exceeds_paper_bound(self, stats):
        assert stats.p_advance >= advance_probability_bound()

    def test_hops_per_partition_below_paper_bound(self, stats):
        assert stats.mean_hops_per_partition <= partition_hops_bound()

    def test_per_partition_breakdown_positive(self, stats):
        assert stats.per_partition_hops
        for j, mean_run in stats.per_partition_hops.items():
            assert j >= 1
            assert mean_run >= 1.0

    def test_n_hops_counted(self, stats):
        assert stats.n_hops > 100

    def test_empty_routes(self, uniform_graph):
        stats = advance_stats(uniform_graph, [])
        assert math.isnan(stats.p_advance)


class TestAdvanceStatsMatchesLoop:
    @pytest.mark.parametrize("graph_name", ["uniform_graph", "skewed_graph"])
    @pytest.mark.parametrize("max_hops", [None, 3])
    def test_batch_and_list_equal_per_hop_reference(self, request, graph_name, max_hops):
        graph = request.getfixturevalue(graph_name)
        batch = sample_batch(
            graph,
            300,
            np.random.default_rng(21),
            targets="uniform",
            max_hops=max_hops,
            record_paths=True,
        )
        reference = _loop_advance_stats(graph, batch.to_route_results())
        assert reference["n_hops"] > 0
        for routes in (batch, batch.to_route_results()):
            assert vars(advance_stats(graph, routes)) == reference

    def test_batch_without_paths_rejected(self, uniform_graph):
        batch = sample_batch(uniform_graph, 10, np.random.default_rng(0))
        with pytest.raises(ValueError, match="record_paths"):
            advance_stats(uniform_graph, batch)
