"""Unit tests for nearest/successor/predecessor search over sorted ids."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.keyspace import (
    BucketIndex,
    IntervalSpace,
    RingSpace,
    bucket_index,
    lower_bounds,
    nearest_index,
    nearest_indices,
    predecessor_index,
    successor_index,
    successor_indices,
)


@pytest.fixture
def ids():
    return np.array([0.1, 0.3, 0.55, 0.9])


class TestNearestIndex:
    def test_interval_basic(self, ids):
        space = IntervalSpace()
        assert nearest_index(ids, 0.32, space) == 1
        assert nearest_index(ids, 0.05, space) == 0
        assert nearest_index(ids, 0.95, space) == 3

    def test_interval_no_wrap(self, ids):
        # 0.99 is closer to 0.9 than to 0.1 on the interval.
        assert nearest_index(ids, 0.99, IntervalSpace()) == 3

    def test_ring_wraps(self, ids):
        # 0.99 is 0.09 from 0.9 but also 0.11 from 0.1 across the wrap.
        assert nearest_index(ids, 0.99, RingSpace()) == 3
        # 0.02 is 0.08 from 0.1 and 0.12 from 0.9 across the wrap.
        assert nearest_index(ids, 0.02, RingSpace()) == 0
        # 0.97 wraps: 0.07 from 0.9, 0.13 to 0.1 -> index 3.
        assert nearest_index(ids, 0.97, RingSpace()) == 3

    def test_ring_wrap_prefers_high_end(self):
        ids = np.array([0.2, 0.8])
        assert nearest_index(ids, 0.99, RingSpace()) == 1  # 0.19 wrap vs 0.21
        assert nearest_index(ids, 0.01, RingSpace()) == 0  # 0.19 vs 0.21 wrap

    def test_exact_match(self, ids):
        for space in (IntervalSpace(), RingSpace()):
            for i, x in enumerate(ids):
                assert nearest_index(ids, float(x), space) == i

    def test_tie_breaks_to_lower_id(self):
        ids = np.array([0.2, 0.4])
        assert nearest_index(ids, 0.3, IntervalSpace()) == 0

    def test_single_element(self):
        ids = np.array([0.5])
        assert nearest_index(ids, 0.9, IntervalSpace()) == 0
        assert nearest_index(ids, 0.9, RingSpace()) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_index(np.array([]), 0.5, IntervalSpace())

    @given(key=st.floats(min_value=0.0, max_value=0.999999))
    def test_matches_brute_force_interval(self, key):
        ids = np.array([0.05, 0.2, 0.21, 0.5, 0.77, 0.98])
        space = IntervalSpace()
        best = min(range(len(ids)), key=lambda i: (space.distance(ids[i], key), ids[i]))
        assert nearest_index(ids, key, space) == best

    @given(key=st.floats(min_value=0.0, max_value=0.999999))
    def test_matches_brute_force_ring(self, key):
        ids = np.array([0.05, 0.2, 0.21, 0.5, 0.77, 0.98])
        space = RingSpace()
        best = min(range(len(ids)), key=lambda i: (space.distance(ids[i], key), ids[i]))
        assert nearest_index(ids, key, space) == best


class TestSuccessorPredecessor:
    def test_successor_basic(self, ids):
        assert successor_index(ids, 0.31) == 2
        assert successor_index(ids, 0.55) == 2  # inclusive

    def test_successor_wraps(self, ids):
        assert successor_index(ids, 0.95) == 0

    def test_predecessor_basic(self, ids):
        assert predecessor_index(ids, 0.31) == 1
        assert predecessor_index(ids, 0.55) == 1  # strictly less

    def test_predecessor_wraps(self, ids):
        assert predecessor_index(ids, 0.05) == 3

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            successor_index(np.array([]), 0.5)
        with pytest.raises(ValueError):
            predecessor_index(np.array([]), 0.5)

    def test_successor_predecessor_adjacent(self, ids):
        for key in (0.2, 0.4, 0.7):
            succ = successor_index(ids, key)
            pred = predecessor_index(ids, key)
            assert (pred + 1) % len(ids) == succ


# ---------------------------------------------------------------------------
# Bucketed lower bounds
# ---------------------------------------------------------------------------

_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def _probe_keys(ids: np.ndarray, extra) -> np.ndarray:
    """Every id, the midpoints between neighbours, both ends and 1.0."""
    mids = (ids[:-1] + ids[1:]) / 2.0 if len(ids) > 1 else ids[:0]
    return np.concatenate(
        [ids, mids, [0.0, _BELOW_ONE, 1.0], np.asarray(extra, dtype=float)]
    )


def _assert_index_exact(ids: np.ndarray, keys: np.ndarray) -> None:
    """The table's answers equal plain ``searchsorted`` and its consumers."""
    expected = np.searchsorted(ids, keys, side="left")
    forced = BucketIndex(ids)  # the scan itself, whatever the rule says
    ruled = bucket_index(ids)
    for index in (forced, ruled):
        np.testing.assert_array_equal(lower_bounds(ids, keys, index), expected)
        np.testing.assert_array_equal(
            successor_indices(ids, keys, index=index), successor_indices(ids, keys)
        )
        for space in (IntervalSpace(), RingSpace()):
            np.testing.assert_array_equal(
                nearest_indices(ids, keys, space, index=index),
                nearest_indices(ids, keys, space),
            )


_unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


class TestBucketIndex:
    @given(
        ids=st.lists(_unit, min_size=1, max_size=60),
        repeats=st.lists(st.integers(0, 59), max_size=10),
        keys=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=40),
    )
    def test_matches_searchsorted(self, ids, repeats, keys):
        ids = np.asarray(ids)
        ids = np.sort(np.concatenate([ids, ids[[r % len(ids) for r in repeats]]]))
        _assert_index_exact(ids, _probe_keys(ids, keys))

    @pytest.mark.parametrize(
        "ids",
        [
            np.array([0.5]),
            np.array([0.0, _BELOW_ONE]),
            np.array([0.2, 0.2, 0.9]),  # n = 3, a repeated id, empty buckets
            np.array([0.1, 0.1 + 1e-17, 0.4, 0.4, 0.4, 0.7]),
            0.3 + np.arange(500) * 1e-9,  # every id in one bucket
            np.full(40, 0.25),  # one id, repeated into one bucket
        ],
        ids=["n=1", "n=2 ends", "n=3", "repeats", "packed", "one value"],
    )
    def test_edge_populations(self, ids):
        rng = np.random.default_rng(0)
        lo, hi = float(ids[0]), float(ids[-1])
        inside = lo + (hi - lo) * rng.random(200)
        _assert_index_exact(ids, _probe_keys(ids, np.concatenate([inside, rng.random(200)])))

    def test_long_scans_fall_back_exactly(self):
        # Keys past the eighth id of a crowded bucket finish their search
        # with searchsorted; both halves of that path must agree.
        crowd = 0.5 + np.arange(50) * 1e-9
        ids = np.sort(np.concatenate([crowd, np.linspace(0, 1, 200)[:-1]]))
        keys = 0.5 + np.arange(-5, 60) * 0.5e-9
        _assert_index_exact(ids, keys)

    def test_occupancy_rule_sides(self):
        rng = np.random.default_rng(1)
        even = np.sort(rng.random(5000))
        packed = 0.3 + np.arange(5000) * 1e-9
        assert bucket_index(even) is not None
        assert BucketIndex(even).overfull_share < 0.01
        assert bucket_index(packed) is None
        assert BucketIndex(packed).overfull_share == 1.0
        assert bucket_index(np.empty(0)) is None

    def test_large_key_batches_are_chunked_exactly(self):
        rng = np.random.default_rng(2)
        ids = np.sort(rng.random(3000))
        keys = rng.random((3, 70_000))  # several chunks, two-dimensional
        index = bucket_index(ids)
        np.testing.assert_array_equal(
            lower_bounds(ids, keys, index), np.searchsorted(ids, keys)
        )
        np.testing.assert_array_equal(
            nearest_indices(ids, keys, RingSpace(), index=index),
            nearest_indices(ids, keys, RingSpace()),
        )

    def test_index_over_another_array_raises(self):
        ids = np.sort(np.random.default_rng(3).random(100))
        index = BucketIndex(ids)
        with pytest.raises(ValueError, match="different id array"):
            nearest_indices(ids.copy(), np.array([0.5]), IntervalSpace(), index=index)
