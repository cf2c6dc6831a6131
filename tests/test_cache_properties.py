"""The array route cache makes the dict oracle's decisions, call for call.

Hypothesis drives :class:`repro.serving.RouteCache` and the per-key
dict loop it replaced (``cache_oracle.py``) through the same random
sequence of ``lookup``/``insert`` batches over a small key pool, so
batches repeat keys, re-insert resident ones with new owners, run
longer than the capacity and mix ``0.0`` with ``-0.0``.  After every
call the owners, hit masks, counters, size and ``stats()`` must agree.
"""

import numpy as np
from cache_oracle import OracleRouteCache
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import RouteCache

#: Few enough keys that capacities 1-6 keep evicting and re-admitting.
KEYS = (0.0, -0.0, 0.125, 0.25, 1 / 3, 0.5, 0.625, 0.75, 0.9, 0.999)

batches = st.lists(st.sampled_from(KEYS), max_size=14)
calls = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), batches),
        st.tuples(
            st.just("insert"),
            batches,
            st.lists(st.integers(0, 4), min_size=14, max_size=14),
        ),
    ),
    max_size=24,
)


def _check_same(cache, oracle):
    assert (cache.hits, cache.misses, cache.evictions, len(cache)) == (
        oracle.hits, oracle.misses, oracle.evictions, len(oracle),
    )
    assert cache.stats() == oracle.stats()


def _replay(capacity, sequence):
    cache, oracle = RouteCache(capacity), OracleRouteCache(capacity)
    for call in sequence:
        keys = np.array(call[1], dtype=float)
        if call[0] == "lookup":
            owners, hit = cache.lookup(keys)
            want_owners, want_hit = oracle.lookup(keys)
            assert owners.tolist() == want_owners.tolist()
            assert hit.tolist() == want_hit.tolist()
        else:
            owners = np.array(call[2][: len(keys)], dtype=np.int64)
            cache.insert(keys, owners)
            oracle.insert(keys, owners)
        _check_same(cache, oracle)


@settings(max_examples=300)
@given(capacity=st.integers(1, 6), sequence=calls)
def test_matches_dict_oracle(capacity, sequence):
    _replay(capacity, sequence)


def test_resident_key_dropped_before_its_turn_costs_a_second_eviction():
    # 0.1 is the LRU entry: 0.3 evicts it, so 0.1 comes back as a new
    # entry and evicts 0.2 as well.
    _replay(2, [
        ("insert", [0.1, 0.2], [1, 2]),
        ("insert", [0.3, 0.1], [3, 4]),
        ("lookup", [0.1, 0.2, 0.3]),
    ])


def test_key_repeated_after_its_own_eviction_within_one_batch():
    _replay(2, [("insert", [0.1, 0.2, 0.3, 0.1], [1, 2, 3, 4]), ("lookup", [0.1, 0.2, 0.3])])
