"""Identifier utilities: digit expansions, prefixes, hashing, Morton codes.

Structured overlays interpret identifiers in ``[0, 1)`` in different ways:

* **P-Grid** and the partition analysis of Section 3.1 use *binary digit*
  expansions (trie paths over recursive halvings of the key space).
* **Pastry** uses base-``2^b`` digit strings and prefix matching.
* **Classic DHT deployments** hash keys with SHA-1 to uniformise them;
  we substitute a deterministic splitmix64-style mixer
  (:func:`mix_hash_array`, one key at a time :func:`mix_hash`) that has
  the same uniformising effect without cryptographic machinery (see
  DESIGN.md, "Simulation substitutions").
* **CAN** maps the 1-d key space into a d-dimensional torus; the
  locality-preserving choice is bit de-interleaving (inverse Morton /
  Z-order), provided by :func:`morton_spread` / :func:`morton_collapse`.

All functions operate on plain floats in ``[0, 1)`` and plain tuples so
they are trivially hashable and testable.
"""

from __future__ import annotations

import numpy as np

__all__ = [
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

#: Number of mantissa bits we trust when converting floats to digit strings.
MAX_BITS = 52


def binary_digits(x: float, depth: int) -> tuple[int, ...]:
    """Return the first ``depth`` binary digits of ``x`` in ``[0, 1)``.

    ``binary_digits(0.8125, 4)`` is ``(1, 1, 0, 1)`` because
    ``0.8125 = 0.1101`` in binary.

    Raises:
        ValueError: if ``x`` is outside ``[0, 1)`` or ``depth`` is not in
            ``[0, MAX_BITS]``.
    """
    return digits(x, base=2, depth=depth)


def digits(x: float, base: int, depth: int) -> tuple[int, ...]:
    """Return the first ``depth`` base-``base`` digits of ``x`` in ``[0, 1)``.

    Raises:
        ValueError: on out-of-range ``x``, ``base < 2`` or a depth that
            exceeds float precision for the given base.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"identifier {x!r} outside [0, 1)")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    bits_needed = depth * max((base - 1).bit_length(), 1)
    if bits_needed > MAX_BITS:
        raise ValueError(
            f"depth {depth} in base {base} exceeds float precision "
            f"({bits_needed} > {MAX_BITS} bits)"
        )
    out = []
    frac = x
    for _ in range(depth):
        frac *= base
        digit = int(frac)
        if digit >= base:  # guard against float round-up at the boundary
            digit = base - 1
        out.append(digit)
        frac -= digit
    return tuple(out)


def check_unit_keys(keys) -> np.ndarray:
    """Return ``keys`` as a float array after checking ``0 <= key < 1``.

    The test is written so that NaN fails it (every comparison with NaN
    is False), unlike the ``(keys < 0) | (keys >= 1)`` form.

    Raises:
        ValueError: naming the first key that is NaN or outside ``[0, 1)``.
    """
    keys = np.asarray(keys, dtype=float)
    bad = ~((keys >= 0.0) & (keys < 1.0))
    if bad.any():
        raise ValueError(f"key {keys[bad][0]!r} outside [0, 1)")
    return keys


def check_peer_ids(ids: np.ndarray) -> None:
    """Check a sorted peer-id array: strictly increasing, inside ``[0, 1)``.

    The rule every :class:`repro.core.SmallWorldGraph` is constructed
    under: :func:`repro.core.build_from_positions` also checks it before
    building any links, and :func:`repro.store.load_graph` reports it as
    a ``StoreError``.  A repeated id would make two peers own one key
    range and strand lookups between them; the strict diff also rejects
    NaN, which fails every comparison.

    Raises:
        ValueError: on a repeated, NaN or out-of-order id, or an id
            outside ``[0, 1)``.
    """
    if not np.all(np.diff(ids) > 0):
        raise ValueError("ids must be strictly increasing")
    if len(ids) and not (ids[0] >= 0.0 and ids[-1] < 1.0):
        raise ValueError(f"ids must lie in [0, 1), got {ids[0]!r} .. {ids[-1]!r}")


def digit_rows(keys, base: int, depth: int) -> np.ndarray:
    """Vectorised :func:`digits` over an array of keys.

    Runs the identical multiply/floor/subtract recurrence elementwise,
    so row ``i`` is bit-for-bit the tuple ``digits(keys[i], base,
    depth)`` returns — the whole-population form the bulk overlay
    builders and the batch routing metrics share.

    Args:
        keys: values in ``[0, 1)``.
        base: digit base (>= 2).
        depth: number of digits per key.

    Raises:
        ValueError: on NaN or out-of-range keys, ``base < 2`` or a depth
            that exceeds float precision (the same rules as :func:`digits`).
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    bits_needed = depth * max((base - 1).bit_length(), 1)
    if bits_needed > MAX_BITS:
        raise ValueError(
            f"depth {depth} in base {base} exceeds float precision "
            f"({bits_needed} > {MAX_BITS} bits)"
        )
    keys = check_unit_keys(keys)
    out = np.empty((len(keys), depth), dtype=np.int32)
    frac = keys.copy()
    for level in range(depth):
        frac *= base
        digit = np.minimum(np.floor(frac), base - 1)
        out[:, level] = digit
        frac -= digit
    return out


def from_digits(seq: tuple[int, ...] | list[int], base: int = 2) -> float:
    """Return the float in ``[0, 1)`` whose base-``base`` expansion starts with ``seq``.

    This is the left endpoint of the key-space cell addressed by the digit
    string; it inverts :func:`digits` up to truncation.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    value = 0.0
    scale = 1.0
    for digit in seq:
        if not 0 <= digit < base:
            raise ValueError(f"digit {digit} out of range for base {base}")
        scale /= base
        value += digit * scale
    return value


def bit_string(x: float, depth: int) -> str:
    """Return the first ``depth`` binary digits of ``x`` as a string."""
    return "".join(str(b) for b in binary_digits(x, depth))


def common_prefix_length(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Return the length of the longest common prefix of two digit tuples."""
    n = 0
    for da, db in zip(a, b):
        if da != db:
            break
        n += 1
    return n


_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array (public-domain constants).

    Wrapping uint64 arithmetic, one numpy pass per step; the one
    implementation behind :func:`mix_hash` and the flight recorder's
    sampling hash.
    """
    z = np.asarray(z, dtype=_U64) + _GOLDEN
    z = (z ^ (z >> _U64(30))) * _MIX1
    z = (z ^ (z >> _U64(27))) * _MIX2
    return z ^ (z >> _U64(31))


def mix_hash_array(keys) -> np.ndarray:
    """Deterministically map keys in ``[0, 1)`` to ~uniform values in ``[0, 1)``.

    Stands in for the SHA-1 hashing that classic DHTs apply to keys: it
    destroys ordering/locality and uniformises arbitrary input skew, which
    is exactly the property the experiments need when comparing "hashed"
    and "order-preserving" regimes.  Each key's integer part of
    ``x·2^53`` goes through :func:`splitmix64`, and the top 53 bits of
    that, over ``2^53``, are the hash.

    Raises:
        ValueError: if any key lies outside ``[0, 1)`` (NaN included).
    """
    keys = np.asarray(keys, dtype=float)
    inside = (keys >= 0.0) & (keys < 1.0)
    if not inside.all():
        bad = float(keys[~inside].flat[0])
        raise ValueError(f"identifier {bad!r} outside [0, 1)")
    z = splitmix64((keys * float(1 << 53)).astype(_U64))
    return (z >> _U64(11)).astype(float) / float(1 << 53)


def mix_hash(x: float) -> float:
    """:func:`mix_hash_array` of one key.

    Raises:
        ValueError: if ``x`` lies outside ``[0, 1)``.
    """
    return float(mix_hash_array(np.array([x], dtype=float))[0])


def morton_spread(x: float, dims: int, bits_per_dim: int = 16) -> tuple[float, ...]:
    """De-interleave the bits of ``x`` into a ``dims``-dimensional point.

    The inverse Z-order mapping: consecutive bits of ``x`` are distributed
    round-robin across the output coordinates, so nearby keys land in
    nearby cells of the ``dims``-dimensional unit torus.  Used to embed
    the 1-d key space into CAN's d-dimensional zone space while retaining
    locality.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"identifier {x!r} outside [0, 1)")
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    total_bits = dims * bits_per_dim
    if total_bits > MAX_BITS:
        raise ValueError(
            f"dims*bits_per_dim = {total_bits} exceeds float precision"
        )
    bits = binary_digits(x, total_bits)
    coords = []
    for d in range(dims):
        value = 0.0
        scale = 1.0
        for level in range(bits_per_dim):
            scale /= 2.0
            value += bits[level * dims + d] * scale
        coords.append(value)
    return tuple(coords)


def morton_rows(keys, dims: int, bits_per_dim: int = 16) -> np.ndarray:
    """Vectorised :func:`morton_spread`: keys → ``(len(keys), dims)`` points.

    Row ``i`` equals ``morton_spread(keys[i], dims, bits_per_dim)``
    bit-for-bit: each coordinate is a sum of dyadic terms with disjoint
    binary digits, so the dot-product accumulation below is exact in
    float regardless of summation order.

    Raises:
        ValueError: on out-of-range keys, ``dims < 1`` or a precision
            overflow (the same rules as :func:`morton_spread`).
    """
    if dims < 1:
        raise ValueError(f"dims must be >= 1, got {dims}")
    bits = digit_rows(keys, 2, dims * bits_per_dim)  # validates [0, 1)
    points = np.empty((len(bits), dims))
    weights = 2.0 ** -np.arange(1, bits_per_dim + 1, dtype=float)
    for d in range(dims):
        points[:, d] = bits[:, d::dims] @ weights
    return points


def morton_collapse(point: tuple[float, ...], bits_per_dim: int = 16) -> float:
    """Interleave the bits of a d-dimensional point back into a key.

    Inverse of :func:`morton_spread` up to ``bits_per_dim`` precision.
    """
    dims = len(point)
    if dims < 1:
        raise ValueError("point must have at least one coordinate")
    per_dim = [binary_digits(c, bits_per_dim) for c in point]
    value = 0.0
    scale = 1.0
    for level in range(bits_per_dim):
        for d in range(dims):
            scale /= 2.0
            value += per_dim[d][level] * scale
    return value
