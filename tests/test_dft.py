"""Transform engine against the direct O(N^2) reference."""

import numpy as np
import pytest

from fdas.dft import DftPlan, TransformError, dft, forward, inverse

from conftest import direct_dft, random_series


class TestPlan:
    @pytest.mark.parametrize("size", [0, 1, 3, 100])
    def test_rejects_non_pow2(self, size):
        with pytest.raises(TransformError):
            DftPlan(size)

    def test_rejects_bad_direction(self):
        with pytest.raises(TransformError):
            DftPlan(8, "backward")

    def test_length_mismatch(self):
        with pytest.raises(TransformError):
            dft(DftPlan(8), np.zeros(4, dtype=np.complex64))

    def test_batch_last_axis_mismatch(self):
        with pytest.raises(TransformError):
            dft(DftPlan(8), np.zeros((3, 4), dtype=np.complex64))
        with pytest.raises(TransformError):
            dft(DftPlan(8), np.zeros((8, 4), dtype=np.complex64))


class TestKnownValues:
    def test_impulse_to_constant(self):
        out = dft(DftPlan(4), [1, 0, 0, 0])
        assert np.allclose(out, np.ones(4), atol=1e-12)

    def test_constant_to_scaled_impulse(self):
        out = dft(DftPlan(4), [1, 1, 1, 1])
        assert np.allclose(out, [4, 0, 0, 0], atol=1e-12)

    def test_inverse_normalization(self):
        out = dft(DftPlan(4, "inverse"), [4, 0, 0, 0])
        assert np.allclose(out, np.ones(4), atol=1e-12)


class TestRoundTrip:
    def test_length_1024_within_tolerance(self, rng):
        x = random_series(rng, 1024)
        back = inverse(forward(x))
        assert np.max(np.abs(back - x)) < 1e-4
        # and both directions agree with the direct reference
        assert np.max(np.abs(forward(x) - direct_dft(x))) < 1e-3 * np.max(
            np.abs(direct_dft(x)))

    @pytest.mark.parametrize("size", [4, 64, 1024, 2 ** 16])
    def test_round_trip_sizes(self, rng, size):
        x = random_series(rng, size)
        back = inverse(forward(x))
        assert np.max(np.abs(back - x)) < 1e-4 * np.max(np.abs(x))


class TestProperties:
    def test_linearity(self, rng):
        x = random_series(rng, 256, np.complex128)
        y = random_series(rng, 256, np.complex128)
        a, b = 2.5 - 1j, -0.75 + 3j
        lhs = forward(a * x + b * y)
        rhs = a * forward(x) + b * forward(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * np.max(np.abs(rhs))

    def test_parseval(self, rng):
        x = random_series(rng, 4096, np.complex128)
        spectrum = forward(x)
        time_energy = np.sum(np.abs(x) ** 2)
        freq_energy = np.sum(np.abs(spectrum) ** 2) / x.size
        assert abs(time_energy - freq_energy) / time_energy < 1e-4

    @pytest.mark.parametrize("size", [4, 8, 16, 64, 256, 1024, 4096])
    def test_matches_direct_reference(self, rng, size):
        x = random_series(rng, size, np.complex128)
        ref = direct_dft(x)
        got = dft(DftPlan(size), x)
        assert np.max(np.abs(got - ref)) < 1e-9 * max(np.max(np.abs(ref)), 1e-30)
        ref_inv = direct_dft(x, inverse=True)
        got_inv = dft(DftPlan(size, "inverse"), x)
        assert np.max(np.abs(got_inv - ref_inv)) < 1e-9 * max(
            np.max(np.abs(ref_inv)), 1e-30)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_batch_rows_equal_one_dimensional_calls(self, rng, dtype,
                                                    direction):
        batch = random_series(rng, 3 * 64, dtype).reshape(3, 64)
        plan = DftPlan(64, direction)
        got = dft(plan, batch)
        assert got.shape == (3, 64) and got.dtype == dtype
        assert np.array_equal(got, np.stack([dft(plan, row) for row in batch]))

    def test_complex64_in_complex64_out(self, rng):
        x = random_series(rng, 64)
        assert dft(DftPlan(64), x).dtype == np.complex64
        assert dft(DftPlan(64), x.astype(np.complex128)).dtype == np.complex128
