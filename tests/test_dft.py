"""The transform call ``fdas.convolution.dft`` against the direct O(N^2)
reference."""

import numpy as np
import pytest

from fdas.convolution import dft

from conftest import direct_dft, random_series


class TestKnownValues:
    def test_impulse_to_constant(self):
        out = dft([1, 0, 0, 0])
        assert np.allclose(out, np.ones(4), atol=1e-12)

    def test_constant_to_scaled_impulse(self):
        out = dft([1, 1, 1, 1])
        assert np.allclose(out, [4, 0, 0, 0], atol=1e-12)

    def test_inverse_normalization(self):
        out = dft([4, 0, 0, 0], inverse=True)
        assert np.allclose(out, np.ones(4), atol=1e-12)


class TestRoundTrip:
    def test_length_1024_within_tolerance(self, rng):
        x = random_series(rng, 1024)
        back = dft(dft(x), inverse=True)
        assert np.max(np.abs(back - x)) < 1e-4
        # and both directions agree with the direct reference
        assert np.max(np.abs(dft(x) - direct_dft(x))) < 1e-3 * np.max(
            np.abs(direct_dft(x)))

    @pytest.mark.parametrize("size", [4, 64, 1024, 2 ** 16])
    def test_round_trip_sizes(self, rng, size):
        x = random_series(rng, size)
        back = dft(dft(x), inverse=True)
        assert np.max(np.abs(back - x)) < 1e-4 * np.max(np.abs(x))


class TestProperties:
    def test_linearity(self, rng):
        x = random_series(rng, 256, np.complex128)
        y = random_series(rng, 256, np.complex128)
        a, b = 2.5 - 1j, -0.75 + 3j
        lhs = dft(a * x + b * y)
        rhs = a * dft(x) + b * dft(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))

    def test_parseval(self, rng):
        x = random_series(rng, 4096, np.complex128)
        spectrum = dft(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / x.size
        assert abs(time_energy - freq_energy) / time_energy < 1e-4

    @pytest.mark.parametrize("size", [4, 8, 16, 64, 256, 1024, 4096])
    def test_matches_direct_reference(self, rng, size):
        x = random_series(rng, size, np.complex128)
        ref = direct_dft(x)
        got = dft(x)
        assert np.max(np.abs(got - ref)) < 1e-9 * max(np.max(np.abs(ref)), 1e-30)
        ref_inv = direct_dft(x, inverse=True)
        got_inv = dft(x, inverse=True)
        assert np.max(np.abs(got_inv - ref_inv)) < 1e-9 * max(
            np.max(np.abs(ref_inv)), 1e-30)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_batch_rows_equal_one_dimensional_calls(self, rng, dtype,
                                                    direction):
        batch = random_series(rng, 3 * 64, dtype).reshape(3, 64)
        inverse = direction == "inverse"
        got = dft(batch, inverse)
        assert got.shape == (3, 64) and got.dtype == dtype
        assert np.array_equal(got, np.stack([dft(row, inverse) for row in batch]))


class TestSinglePrecision:
    # a complex64 transform runs in single precision: about 8 float32
    # epsilons (1.2e-7) of the peak bound its error up to 4096 points
    BOUND = 1e-6

    @pytest.mark.parametrize("size", [4, 64, 1024, 4096])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_matches_direct_reference(self, rng, size, inverse):
        x = random_series(rng, size)
        got = dft(x, inverse)
        ref = direct_dft(x, inverse)
        assert got.dtype == np.complex64
        assert np.max(np.abs(got - ref)) < self.BOUND * np.max(np.abs(ref))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_out_is_written_and_returned(self, rng, dtype, inverse):
        batch = random_series(rng, 3 * 64, dtype).reshape(3, 64)
        buf = np.empty_like(batch)
        assert dft(batch, inverse, out=buf) is buf
        assert buf.tobytes() == dft(batch, inverse).tobytes()
