"""Key-space geometry: interval and ring metrics plus identifier utilities.

The paper's models live on the one-dimensional unit key space ``[0, 1)``;
this package provides the two topologies the paper discusses (interval in
the proofs, ring "analogously") and the digit/prefix/hash helpers the
baseline DHT implementations need.
"""

from repro.keyspace.base import KeySpace
from repro.keyspace.ids import (
    binary_digits,
    bit_string,
    check_peer_ids,
    check_unit_keys,
    common_prefix_length,
    digit_rows,
    digits,
    from_digits,
    mix_hash,
    mix_hash_array,
    morton_collapse,
    morton_rows,
    morton_spread,
    splitmix64,
)
from repro.keyspace.interval import IntervalSpace
from repro.keyspace.ring import RingSpace
from repro.keyspace.search import (
    BucketIndex,
    bucket_index,
    lower_bounds,
    membership_mask,
    nearest_index,
    nearest_indices,
    predecessor_index,
    successor_index,
    successor_indices,
)

__all__ = [
    "KeySpace",
    "IntervalSpace",
    "RingSpace",
    "BucketIndex",
    "bucket_index",
    "lower_bounds",
    "nearest_index",
    "nearest_indices",
    "successor_index",
    "successor_indices",
    "predecessor_index",
    "membership_mask",
    "binary_digits",
    "digits",
    "digit_rows",
    "check_unit_keys",
    "check_peer_ids",
    "from_digits",
    "bit_string",
    "common_prefix_length",
    "mix_hash",
    "mix_hash_array",
    "splitmix64",
    "morton_spread",
    "morton_rows",
    "morton_collapse",
]
