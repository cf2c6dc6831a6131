"""Unit tests for identifier utilities: digits, hashing, Morton codes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.keyspace import (
    binary_digits,
    bit_string,
    common_prefix_length,
    digit_rows,
    digits,
    from_digits,
    mix_hash,
    mix_hash_array,
    morton_collapse,
    morton_spread,
    splitmix64,
)

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class TestDigits:
    def test_binary_digits_known_value(self):
        assert binary_digits(0.8125, 4) == (1, 1, 0, 1)  # 0.1101b

    def test_binary_digits_zero(self):
        assert binary_digits(0.0, 5) == (0, 0, 0, 0, 0)

    def test_base16_digits(self):
        # 0.6640625 = 10/16 + 10/256 = 0xAA / 256
        assert digits(0.6640625, base=16, depth=2) == (10, 10)

    def test_depth_zero(self):
        assert digits(0.5, base=2, depth=0) == ()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_digits(1.0, 4)
        with pytest.raises(ValueError):
            binary_digits(-0.1, 4)

    def test_rejects_bad_base(self):
        with pytest.raises(ValueError):
            digits(0.5, base=1, depth=4)

    def test_rejects_excessive_depth(self):
        with pytest.raises(ValueError):
            digits(0.5, base=2, depth=60)

    def test_from_digits_roundtrip_prefix(self):
        value = 0.7310791015625
        digs = binary_digits(value, 20)
        recovered = from_digits(digs, base=2)
        assert abs(recovered - value) < 2**-20

    def test_from_digits_rejects_invalid_digit(self):
        with pytest.raises(ValueError):
            from_digits((2,), base=2)

    def test_bit_string(self):
        assert bit_string(0.5, 3) == "100"

    def test_common_prefix_length(self):
        assert common_prefix_length((1, 0, 1), (1, 0, 0)) == 2
        assert common_prefix_length((0,), (1,)) == 0
        assert common_prefix_length((1, 1), (1, 1)) == 2

    @given(x=unit)
    def test_digits_recover_value_to_precision(self, x):
        digs = digits(x, base=2, depth=40)
        assert abs(from_digits(digs, 2) - x) < 2**-40

    @given(x=unit)
    def test_digit_values_in_range(self, x):
        for base in (2, 4, 16):
            for d in digits(x, base=base, depth=8):
                assert 0 <= d < base


class TestDigitRows:
    """The vectorized digits() twin shared by bulk builders and metrics."""

    @pytest.mark.parametrize("base,depth", [(2, 20), (16, 8), (4, 10)])
    def test_rows_match_scalar_digits(self, base, depth):
        keys = np.random.default_rng(5).random(200)
        rows = digit_rows(keys, base, depth)
        for key, row in zip(keys, rows):
            assert tuple(row) == digits(float(key), base, depth)

    def test_rejects_out_of_range_keys(self):
        with pytest.raises(ValueError):
            digit_rows(np.asarray([0.5, 1.0]), 2, 4)
        with pytest.raises(ValueError):
            digit_rows(np.asarray([-0.1]), 2, 4)

    def test_rejects_bad_base_and_depth(self):
        with pytest.raises(ValueError):
            digit_rows(np.asarray([0.5]), 1, 4)
        with pytest.raises(ValueError):
            digit_rows(np.asarray([0.5]), 2, -1)
        with pytest.raises(ValueError):
            digit_rows(np.asarray([0.5]), 2, 60)  # beyond float precision

    def test_empty_input(self):
        assert digit_rows(np.empty(0), 2, 4).shape == (0, 4)


class TestMixHash:
    def test_deterministic(self):
        assert mix_hash(0.123) == mix_hash(0.123)

    def test_in_unit_interval(self):
        for x in np.linspace(0, 0.999, 100):
            h = mix_hash(float(x))
            assert 0.0 <= h < 1.0

    def test_uniformises_skew(self):
        rng = np.random.default_rng(0)
        skewed = rng.beta(0.3, 5.0, size=4000)
        hashed = np.array([mix_hash(float(x)) for x in skewed])
        # Crude uniformity check: all deciles populated within 40% of even.
        counts, __ = np.histogram(hashed, bins=10, range=(0, 1))
        assert counts.min() > 0.6 * 400
        assert counts.max() < 1.4 * 400

    def test_destroys_locality(self):
        a, b = 0.500000, 0.500001
        assert abs(mix_hash(a) - mix_hash(b)) > 1e-3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mix_hash(1.0)


def _reference_splitmix64(z: int) -> int:
    """splitmix64 in Python integers, the scalar transcription of the mixer."""
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _reference_mix_hash(x: float) -> float:
    return (_reference_splitmix64(int(x * (1 << 53))) >> 11) / float(1 << 53)


class TestVectorizedMixHash:
    EDGES = [0.0, 2.0**-53, 0.5, float(np.nextafter(1.0, 0.0))]

    def test_bit_identical_to_scalar_reference(self):
        keys = np.concatenate(
            [self.EDGES, np.random.default_rng(0).random(100_000)]
        )
        hashed = mix_hash_array(keys)
        expected = np.array([_reference_mix_hash(float(x)) for x in keys])
        assert hashed.dtype == np.float64
        np.testing.assert_array_equal(hashed, expected)
        assert mix_hash_array(np.empty(0)).shape == (0,)
        for x in self.EDGES + [0.123, 0.987654321]:
            assert mix_hash(x) == _reference_mix_hash(x)

    def test_splitmix64_matches_integer_reference(self):
        z = np.random.default_rng(1).integers(0, 2**63, 2000, dtype=np.uint64) * np.uint64(2)
        z = np.concatenate([z, np.array([0, 2**64 - 1], dtype=np.uint64)])
        got = splitmix64(z)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [_reference_splitmix64(int(v)) for v in z]

    @pytest.mark.parametrize("bad", [1.0, -1e-300, 1.5, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="outside"):
            mix_hash_array(np.array([0.5, bad]))


class TestMorton:
    def test_roundtrip_2d(self):
        for x in (0.0, 0.25, 0.6180339887, 0.99):
            point = morton_spread(x, dims=2, bits_per_dim=16)
            back = morton_collapse(point, bits_per_dim=16)
            assert abs(back - x) < 2**-30

    def test_roundtrip_1d_is_identity_to_precision(self):
        x = 0.37109375
        (coord,) = morton_spread(x, dims=1, bits_per_dim=20)
        assert abs(coord - x) < 2**-20

    def test_locality_preserved(self):
        # Nearby keys map to nearby points (within a few cell widths).
        a = morton_spread(0.400000, dims=2)
        b = morton_spread(0.400001, dims=2)
        dist = abs(a[0] - b[0]) + abs(a[1] - b[1])
        assert dist < 0.01

    def test_coordinates_in_unit_square(self):
        for x in np.linspace(0, 0.999, 50):
            for c in morton_spread(float(x), dims=2):
                assert 0.0 <= c < 1.0

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            morton_spread(0.5, dims=0)

    def test_rejects_excessive_precision(self):
        with pytest.raises(ValueError):
            morton_spread(0.5, dims=4, bits_per_dim=16)

    def test_collapse_rejects_empty(self):
        with pytest.raises(ValueError):
            morton_collapse(())
