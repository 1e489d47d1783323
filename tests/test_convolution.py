"""Convolution strategies against direct-summation references."""

import numpy as np
import pytest

from fdas.convolution import (ConvolutionError, ConvRawOutput, NaiveFd,
                              NaiveTd, OlaTd, OlsFd, assemble_ols,
                              convolve_bank, fir_naive_td, fir_ols_fd,
                              ola_launch_count, ola_padded_length,
                              ols_chunk_count, power_spectrum)
from fdas.core import FilterBank
from fdas.prep import fop_from

from conftest import direct_convolve, random_series, random_taps, rel_err


def plane_row(x, h, strategy):
    """Power row of one template applied with ``strategy``."""
    out, _ = convolve_bank(x, FilterBank([h]), strategy)
    return fop_from(out).values[0]


class TestPowerSpectrum:
    def test_three_four_five(self):
        assert power_spectrum(np.array([3 + 4j], dtype=np.complex64))[0] == 25.0

    def test_zeros(self):
        out = power_spectrum(np.zeros(16, dtype=np.complex64))
        assert not out.any() and out.dtype == np.float32

    def test_matches_double_precision(self, rng):
        y = random_series(rng, 512)
        ref = np.abs(y.astype(np.complex128)) ** 2
        assert rel_err(power_spectrum(y), ref) < 1e-6


class TestNaiveTd:
    def test_identity_filter(self):
        x = np.array([1, 2, 3, 4], dtype=np.complex64)
        assert np.array_equal(fir_naive_td(x, [1]), x)

    def test_impulse_reproduces_taps(self):
        x = np.array([1, 0, 0, 0], dtype=np.complex64)
        h = np.array([2 + 1j, 3, 4 - 2j], dtype=np.complex64)
        out = fir_naive_td(x, h)
        assert np.allclose(out, [2 + 1j, 3, 4 - 2j, 0])

    def test_matches_direct_reference(self, rng):
        x = random_series(rng, 256)
        h = random_taps(rng, 21)
        assert rel_err(fir_naive_td(x, h), direct_convolve(x, h)) < 1e-5

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConvolutionError):
            fir_naive_td(np.zeros(0, dtype=np.complex64), [1])
        with pytest.raises(ConvolutionError):
            fir_naive_td(np.ones(4, dtype=np.complex64), [])


class TestOlaTd:
    def test_launch_arithmetic_421_taps_128_wide(self):
        # a 421-tap filter split 128 wide launches 4 sub-filters and pays for
        # an effective 512-tap filter
        assert ola_launch_count(421, 128) == 4
        assert ola_padded_length(421, 128) == 512

    def test_single_subarray_degenerates_to_naive(self, rng):
        x = random_series(rng, 400)
        h = random_taps(rng, 128)
        assert np.array_equal(plane_row(x, h, OlaTd(128)),
                              plane_row(x, h, NaiveTd()))

    def test_matches_naive(self, rng):
        x = random_series(rng, 777)
        h = random_taps(rng, 300)
        assert rel_err(plane_row(x, h, OlaTd(64)),
                       plane_row(x, h, NaiveTd())) < 1e-5

    def test_subfilter_count_property(self, rng):
        for _ in range(50):
            n_tap = int(rng.integers(1, 500))
            n_paral = int(rng.integers(1, 300))
            count = ola_launch_count(n_tap, n_paral)
            assert count == -(-n_tap // n_paral)
            assert (count - 1) * n_paral < n_tap <= count * n_paral

    def test_bad_n_paral(self, rng):
        with pytest.raises(ConvolutionError):
            plane_row(random_series(rng, 8), random_taps(rng, 4), OlaTd(0))


class TestNaiveFd:
    def test_impulse(self):
        x = np.zeros(8, dtype=np.complex64)
        x[0] = 1
        out = plane_row(x, np.array([1, 1], dtype=np.complex64), NaiveFd())
        assert np.allclose(out, [1, 1, 0, 0, 0, 0, 0, 0], atol=1e-6)

    def test_identity(self, rng):
        x = random_series(rng, 64)
        assert rel_err(plane_row(x, [1], NaiveFd()), power_spectrum(x)) < 1e-6

    def test_matches_naive_td(self, rng):
        x = random_series(rng, 1000)
        h = random_taps(rng, 421)
        assert rel_err(plane_row(x, h, NaiveFd()), plane_row(x, h, NaiveTd())) < 1e-4


class TestOlsFd:
    def test_chunk_accounting(self):
        # 2048-point chunks with a 421-tap filter: 420 overlapped points,
        # 1628 valid per chunk, 1289 chunks to cover 2^21 channels
        # (1628 * 1288 = 2096864 < 2^21 = 2097152, so the count rounds up)
        assert 2048 - 420 == 1628
        assert ols_chunk_count(2 ** 21, 2048, 420) == 1289
        assert 1628 * 1288 < 2 ** 21 <= 1628 * 1289

    def test_raw_output_structure(self, rng):
        x = random_series(rng, 8192)
        h = random_taps(rng, 100)
        _, raw = fir_ols_fd(x, h, 1024)
        assert raw.overlap == 99
        assert raw.chunk_len == 1024
        assert raw.n_chunks == ols_chunk_count(8192, 1024, 99)
        assert raw.n_cols == 8192
        # every chunk's valid tail accounts for the whole input
        assert raw.n_chunks * raw.advance >= 8192

    def test_matches_naive_td(self, rng):
        x = random_series(rng, 8192)
        h = random_taps(rng, 100)
        series, _ = fir_ols_fd(x, h, 1024)
        assert rel_err(series, fir_naive_td(x, h)) < 1e-4

    def test_single_chunk_degenerates_to_plain_fd(self, rng):
        h = random_taps(rng, 101)
        chunk = 512
        x = random_series(rng, chunk - (h.size - 1))
        _, raw = fir_ols_fd(x, h, chunk)
        assert raw.n_chunks == 1
        assert rel_err(plane_row(x, h, OlsFd(chunk)),
                       plane_row(x, h, NaiveFd())) < 1e-4

    def test_chunk_too_small(self, rng):
        with pytest.raises(ConvolutionError):
            fir_ols_fd(random_series(rng, 64), random_taps(rng, 33), 32)

    def test_metadata_validation(self):
        with pytest.raises(ConvolutionError):
            ConvRawOutput(np.zeros((1, 2, 8), dtype=np.complex64), overlap=8,
                          n_cols=4)
        with pytest.raises(ConvolutionError):
            ConvRawOutput(np.zeros((1, 2, 8), dtype=np.complex64), overlap=3,
                          n_cols=11)


def small_bank(rng, n_templates=5, max_tap=33):
    taps = [random_taps(rng, int(rng.integers(1, max_tap + 1)))
            for _ in range(n_templates)]
    return FilterBank(taps)


class TestConvolveBank:
    def test_launch_count_with_two_filters_per_launch(self, rng):
        # 42 templates processed two per launch need 21 launches
        bank = small_bank(rng, n_templates=42, max_tap=8)
        x = random_series(rng, 256)
        _, st = convolve_bank(x, bank, NaiveFd(), filters_per_launch=2)
        assert st.n_ft_launch == 21
        assert st.input_transforms == 1

    def test_identity_template_row_is_power_spectrum(self, rng):
        x = random_series(rng, 512)
        bank = FilterBank([np.array([1 + 0j], dtype=np.complex64)])
        fop, _ = convolve_bank(x, bank, NaiveTd())
        assert rel_err(fop.values[0], power_spectrum(x)) < 1e-6

    @pytest.mark.parametrize("strategy", [OlaTd(8), NaiveFd(), OlsFd(256)])
    def test_strategies_match_naive_td(self, rng, strategy):
        x = random_series(rng, 2048)
        bank = small_bank(rng)
        ref, _ = convolve_bank(x, bank, NaiveTd())
        out, _ = convolve_bank(x, bank, strategy)
        assert rel_err(fop_from(out).values, ref.values) < 1e-4

    def test_ols_input_transform_reuse(self, rng):
        x = random_series(rng, 2048)
        bank = small_bank(rng)
        raw, st = convolve_bank(x, bank, OlsFd(256))
        assert st.input_transforms == raw.n_chunks  # once per chunk, not per template
        assert raw.n_templates == bank.n_templates

    def test_ols_valid_output_accounting(self, rng):
        x = random_series(rng, 3000)
        bank = small_bank(rng)
        raw, _ = convolve_bank(x, bank, OlsFd(128))
        assert raw.n_chunks * raw.advance >= x.size
        assert assemble_ols(raw, 2).size == x.size

    def test_shift_property(self, rng):
        x = random_series(rng, 1024)
        bank = small_bank(rng, n_templates=3)
        d = 17
        shifted = np.concatenate([np.zeros(d, dtype=np.complex64), x[:-d]])
        for strategy in (NaiveTd(), OlsFd(256)):
            a = fop_from(convolve_bank(x, bank, strategy)[0]).values
            b = fop_from(convolve_bank(shifted, bank, strategy)[0]).values
            scale = max(a.max(), 1e-30)
            assert np.max(np.abs(b[:, d:] - a[:, :-d])) / scale < 1e-4

    def test_thread_count_invariance(self, rng):
        x = random_series(rng, 2048)
        bank = small_bank(rng, n_templates=7)
        for strategy in (NaiveTd(), OlaTd(8), NaiveFd(), OlsFd(256)):
            one = convolve_bank(x, bank, strategy, threads=1)[0]
            four = convolve_bank(x, bank, strategy, threads=4)[0]
            if isinstance(one, ConvRawOutput):
                assert np.array_equal(one.chunks, four.chunks)
            else:
                assert np.array_equal(one.values, four.values)

    def test_per_launch_times_recorded(self, rng):
        x = random_series(rng, 512)
        bank = small_bank(rng, n_templates=6)
        _, st = convolve_bank(x, bank, OlaTd(8))
        launches = ola_launch_count(bank.max_taps, 8)
        assert st.n_ft_launch == 6 * launches
        assert all(t >= 0 for t in st.per_launch)

    def test_chunk_smaller_than_filter_rejected(self, rng):
        x = random_series(rng, 512)
        bank = FilterBank([random_taps(rng, 100)])
        with pytest.raises(ConvolutionError):
            convolve_bank(x, bank, OlsFd(64))
