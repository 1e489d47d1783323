"""Plane preparation: discard, transpose, reorder, and the combination matrix."""

import numpy as np
import pytest

from fdas.convolution import (ConvRawOutput, NaiveFd, NaiveTd, OlaTd, OlsFd,
                              convolve_bank, fir_naive_td, fir_ols_fd,
                              power_spectrum)
from fdas.core import FilterBank, Fop
from fdas.harmonic import (MultipleHpN, MultipleHpR, NaiveMultipleHp, SingleHp,
                           stretch_lookup)
from fdas.prep import (TILE_POINTS, PrepError, RFop, discard, fop_from,
                       prepare, reorder, required_transforms, transpose)

from conftest import random_plane, random_series, random_taps, rel_err


class TestDiscard:
    def test_arithmetic(self):
        # 2 chunks of length 8 with a 3-point overlap leave 5 valid points
        # each; a 10-column plane survives
        chunks = np.arange(16, dtype=np.complex64).reshape(1, 2, 8)
        raw = ConvRawOutput(chunks, overlap=3, n_cols=10)
        out = discard(raw)
        assert out.shape == (1, 10)
        assert np.array_equal(out[0], np.r_[np.arange(3, 8), np.arange(11, 16)])

    def test_zero_overlap_is_identity_concatenation(self):
        chunks = np.arange(16, dtype=np.complex64).reshape(1, 2, 8)
        raw = ConvRawOutput(chunks, overlap=0, n_cols=16)
        assert np.array_equal(discard(raw)[0], np.arange(16))

    def test_recovers_naive_td(self, rng):
        x = random_series(rng, 4096)
        h = random_taps(rng, 60)
        _, raw = fir_ols_fd(x, h, 512)
        assert rel_err(discard(raw)[0], fir_naive_td(x, h)) < 1e-4

    def test_requires_raw(self, rng):
        with pytest.raises(PrepError):
            discard(Fop(random_plane(rng, 3, 4)))


class TestTranspose:
    def test_single_cell(self):
        fop = Fop(np.array([[5.0]], dtype=np.float32))
        out = transpose(fop)
        assert out.values.shape == (1, 1) and out.channel_major

    def test_definition(self):
        fop = Fop(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32))
        out = transpose(fop)
        assert np.array_equal(out.values,
                              np.array([[1, 4], [2, 5], [3, 6]], dtype=np.float32))

    def test_involution_bit_exact(self, rng):
        fop = Fop(random_plane(rng, 85, 4096))
        back = transpose(transpose(fop))
        assert not back.channel_major
        assert np.array_equal(back.values, fop.values)

    def test_logical_plane_preserved(self, rng):
        fop = Fop(random_plane(rng, 5, 16))
        assert np.array_equal(transpose(fop).template_major(), fop.values)


class TestFopFrom:
    def test_plane_passthrough(self, rng):
        fop = Fop(random_plane(rng, 3, 8))
        assert fop_from(fop) is fop

    def test_raw_gets_discard_and_power(self, rng):
        x = random_series(rng, 1024)
        h = random_taps(rng, 30)
        _, raw = fir_ols_fd(x, h, 256)
        fop = fop_from(raw)
        assert rel_err(fop.values[0], power_spectrum(fir_naive_td(x, h))) < 1e-4


def brute_force_block_points(tm, block, block_cols, n_hp):
    """Every (k, row, source column) a block needs, in layout order."""
    rows, cols = tm.shape
    offset = (rows - 1) // 2
    c0 = block * block_cols
    c1 = min(cols, c0 + block_cols)
    out = []
    for k in range(1, n_hp + 1):
        lo, hi = c0 // k, (c1 - 1) // k
        for r in range(rows):
            i = r - offset
            src = (1 if i >= 0 else -1) * (abs(i) // k) + offset
            for c in range(lo, hi + 1):
                out.append(tm[src, c])
    return np.array(out, dtype=np.float32)


def loop_block_sections(tm, block_cols, n_hp):
    """Each block's unpadded contents, built one (block, k) section at a time."""
    rows, cols = tm.shape
    offset = (rows - 1) // 2
    signed = np.arange(rows) - offset
    blocks = []
    for c0 in range(0, cols, block_cols):
        c1 = min(cols, c0 + block_cols)
        sections = []
        for k in range(1, n_hp + 1):
            src = np.sign(signed) * (np.abs(signed) // k) + offset
            sections.append(tm[:, c0 // k:(c1 - 1) // k + 1][src].ravel())
        blocks.append(np.concatenate(sections))
    return blocks


class TestReorder:
    def test_degenerate_identity(self, rng):
        # one harmonic, one block covering the whole plane, power-of-two rows:
        # the single block is exactly the row-major plane
        fop = Fop(random_plane(rng, 4, 32))
        rfop = reorder(fop, 32, 1)
        assert rfop.n_blocks == 1
        assert rfop.block_len == 4 * 32
        assert np.array_equal(rfop.blocks[0], fop.values.ravel())

    def test_small_plane_against_enumeration(self, rng):
        fop = Fop(random_plane(rng, 3, 4))
        rfop = reorder(fop, 2, 2)
        tm = fop.template_major()
        for b in range(rfop.n_blocks):
            expected = brute_force_block_points(tm, b, 2, 2)
            assert np.array_equal(rfop.blocks[b, : expected.size], expected)
            assert not rfop.blocks[b, expected.size:].any()  # tail padding
        # duplication inflates the total size beyond the plane
        assert rfop.total_points > fop.values.size

    def test_lookup_reproduces_stretch_lookup(self, rng):
        fop = Fop(random_plane(rng, 5, 16))
        rfop = reorder(fop, 4, 3)
        for k in range(1, 4):
            for i in range(-2, 3):
                for j in range(16):
                    assert rfop.lookup(k, i, j) == stretch_lookup(fop, k, i, j)

    def test_size_monotone_in_harmonics(self, rng):
        fop = Fop(random_plane(rng, 5, 64))
        sizes = [reorder(fop, 8, n_hp).total_points for n_hp in range(1, 6)]
        assert sizes == sorted(sizes)

    def test_block_length_is_power_of_two(self, rng):
        fop = Fop(random_plane(rng, 7, 48))
        rfop = reorder(fop, 5, 4)
        assert rfop.block_len & (rfop.block_len - 1) == 0

    @pytest.mark.parametrize("block_cols", [3, 16, 1])
    def test_multi_tile_plane_against_block_loop(self, rng, block_cols):
        # a plane of several tiles; a block width of 3 divides neither the
        # channel count nor the tile's point count
        fop = Fop(random_plane(rng, 21, 8192))
        assert fop.values.size > TILE_POINTS
        rfop = reorder(fop, block_cols, 8)
        expected = loop_block_sections(fop.values, block_cols, 8)
        assert rfop.n_blocks == len(expected)
        longest = max(e.size for e in expected)
        assert rfop.block_len == 1 << (longest - 1).bit_length()
        for b, e in enumerate(expected):
            assert np.array_equal(rfop.blocks[b, :e.size], e)
            assert not rfop.blocks[b, e.size:].any()  # tail padding

    def test_from_transposed_plane_matches(self, rng):
        fop = Fop(random_plane(rng, 5, 16))
        a = reorder(fop, 4, 2)
        b = reorder(transpose(fop), 4, 2)
        assert np.array_equal(a.blocks, b.blocks)


class TestCombinationMatrix:
    @pytest.mark.parametrize("conv_s,hm_s,expected", [
        (OlaTd(128), SingleHp(), (False, False, False)),
        (NaiveTd(), SingleHp(), (False, False, False)),
        (OlaTd(128), NaiveMultipleHp(), (False, False, False)),
        (OlaTd(128), MultipleHpN(1), (False, True, False)),
        (OlaTd(128), MultipleHpR(16, 4), (False, True, True)),
        (OlsFd(2048), SingleHp(), (True, False, False)),
        (OlsFd(2048), NaiveMultipleHp(), (True, True, False)),
        (OlsFd(2048), MultipleHpN(1), (True, True, False)),
        (OlsFd(2048), MultipleHpR(16, 4), (True, True, True)),
        (NaiveFd(), NaiveMultipleHp(), (False, False, False)),
        (NaiveFd(), MultipleHpN(1), (False, True, False)),
    ])
    def test_required_transforms(self, conv_s, hm_s, expected):
        assert required_transforms(conv_s, hm_s) == expected

    def test_unknown_strategy(self):
        with pytest.raises(PrepError):
            required_transforms(NaiveTd(), object())


class TestPrepare:
    def test_identity_passthrough_costs_nothing(self, rng):
        fop = Fop(random_plane(rng, 5, 32))
        pr = prepare(fop, OlaTd(8), NaiveMultipleHp(), n_hp=4)
        assert pr.plane is fop
        assert pr.t_total == 0.0
        assert (pr.b_discard, pr.b_transpose, pr.b_reorder) == (False, False, False)

    def test_transpose_only_path(self, rng):
        fop = Fop(random_plane(rng, 5, 32))
        pr = prepare(fop, OlaTd(8), MultipleHpN(2), n_hp=4)
        assert pr.plane.channel_major
        assert pr.b_transpose and not pr.b_discard and not pr.b_reorder
        assert np.array_equal(pr.plane.template_major(), fop.values)

    def test_full_chain_for_chunked_streaming(self, rng):
        x = random_series(rng, 1024)
        bank = FilterBank([random_taps(rng, 20) for _ in range(3)])
        raw, _ = convolve_bank(x, bank, OlsFd(128))
        pr = prepare(raw, OlsFd(128), MultipleHpR(8, 4), n_hp=2)
        assert isinstance(pr.plane, RFop)
        assert (pr.b_discard, pr.b_transpose, pr.b_reorder) == (True, True, True)
        assert pr.fop.n_templates == 3 and pr.fop.n_channels == 1024

    def test_raw_without_discard_rejected(self, rng):
        x = random_series(rng, 256)
        bank = FilterBank([random_taps(rng, 8)])
        raw, _ = convolve_bank(x, bank, OlsFd(64))
        with pytest.raises(PrepError):
            prepare(raw, NaiveTd(), SingleHp(), n_hp=2)
