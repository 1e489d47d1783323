"""Plane preparation: discard, transpose, reorder, and the combination matrix."""

import tracemalloc

import numpy as np
import pytest

from fdas.convolution import (CONV_KINDS, ConvRawOutput, NaiveFd, NaiveTd,
                              OlaTd, OlsFd, assemble_ols, convolve_bank,
                              fir_naive_td, fir_ols_fd, power_spectrum)
from fdas.core import (FdasConfig, FilterBank, Fop, FormatError,
                       generate_input, synthetic_bank)
from fdas.harmonic import (HM_KINDS, MultipleHpN, MultipleHpR, NaiveMultipleHp,
                           SingleHp, ThresholdTable, harmonic_sum,
                           harmonic_sum_naive, stretch_lookup)
from fdas.prep import (TILE_POINTS, PrepError, RFop, discard, fop_from,
                       prepare, reorder, stretch_rows, transpose)

from conftest import random_plane, random_series, random_taps, rel_err


class TestDiscard:
    def test_arithmetic(self):
        # 2 chunks of length 8 with a 3-point overlap leave 5 valid points
        # each; a 10-column plane of their powers survives
        chunks = np.arange(16, dtype=np.complex64).reshape(1, 2, 8)
        raw = ConvRawOutput(chunks, overlap=3, n_cols=10)
        out = discard(raw)
        assert out.shape == (1, 10) and out.dtype == np.float32
        assert np.array_equal(out[0],
                              np.r_[np.arange(3, 8), np.arange(11, 16)] ** 2)

    def test_zero_overlap_is_identity_concatenation(self):
        chunks = np.arange(16, dtype=np.complex64).reshape(1, 2, 8)
        raw = ConvRawOutput(chunks, overlap=0, n_cols=16)
        assert np.array_equal(discard(raw)[0], np.arange(16) ** 2)

    def test_power_sums_both_components(self):
        chunks = np.full((1, 1, 4), 3 + 4j, dtype=np.complex64)
        raw = ConvRawOutput(chunks, overlap=1, n_cols=3)
        assert np.array_equal(discard(raw)[0], [25, 25, 25])

    @pytest.mark.parametrize("overlap,n_chunks,n_cols", [
        (3, 3, 15), (3, 1, 4), (0, 2, 13), (3, 3, 12)],
        ids=["whole-chunks", "partial-only", "no-overlap", "whole-and-partial"])
    def test_bytes_equal_power_of_assembled_series(self, rng, overlap,
                                                   n_chunks, n_cols):
        chunks = random_series(rng, 3 * n_chunks * 8).reshape(3, n_chunks, 8)
        raw = ConvRawOutput(chunks, overlap=overlap, n_cols=n_cols)
        want = np.stack([power_spectrum(assemble_ols(raw, t)) for t in range(3)])
        assert discard(raw).tobytes() == want.tobytes()

    def test_recovers_naive_td(self, rng):
        x = random_series(rng, 4096)
        h = random_taps(rng, 60)
        _, raw = fir_ols_fd(x, h, 512)
        assert rel_err(discard(raw)[0], power_spectrum(fir_naive_td(x, h))) < 1e-4

    def test_requires_raw(self, rng):
        with pytest.raises(PrepError):
            discard(Fop(random_plane(rng, 3, 4)))


class TestTranspose:
    def test_single_cell(self):
        fop = Fop(np.array([[5.0]], dtype=np.float32))
        out = transpose(fop)
        assert isinstance(out, np.ndarray) and out.shape == (1, 1)

    def test_definition(self):
        fop = Fop(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32))
        out = transpose(fop)
        assert out.flags.c_contiguous
        assert np.array_equal(out,
                              np.array([[1, 4], [2, 5], [3, 6]], dtype=np.float32))

    def test_involution_bit_exact(self, rng):
        fop = Fop(random_plane(rng, 85, 4096))
        back = transpose(Fop(transpose(fop)))
        assert back.tobytes() == fop.values.tobytes()


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

    def test_channel_major_plane_cannot_be_built(self, rng):
        # a plane is template-major, so fop_from and prepare never see another
        values = random_plane(rng, 3, 8)
        with pytest.raises(FormatError, match="template-major, not channel-major"):
            Fop(np.ascontiguousarray(values.T), channel_major=True)


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
        assert rfop.blocks.size > fop.values.size

    def test_lookup_reproduces_stretch_lookup(self, rng):
        fop = Fop(random_plane(rng, 5, 16))
        rfop = reorder(fop, 4, 3)
        for k in range(1, 4):
            for i in range(-2, 3):
                for j in range(16):
                    assert rfop.lookup(k, i, j) == stretch_lookup(fop, k, i, j)

    @pytest.mark.parametrize("block_cols", [1, 3, 16])
    def test_source_is_the_stretched_source_columns(self, rng, block_cols):
        # output ranges that split blocks, span several, or hold one column
        fop = Fop(random_plane(rng, 7, 100))
        rfop = reorder(fop, block_cols, 5)
        tm = fop.template_major()
        for k in range(1, 6):
            for c0, c1 in [(0, 100), (5, 6), (7, 41), (33, 97), (99, 100)]:
                expected = tm[stretch_rows(7, k), c0 // k:(c1 - 1) // k + 1]
                assert np.array_equal(rfop.source(k, c0, c1), expected.T)

    def test_size_monotone_in_harmonics(self, rng):
        fop = Fop(random_plane(rng, 5, 64))
        sizes = [reorder(fop, 8, n_hp).blocks.size for n_hp in range(1, 6)]
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


class TestCombinationMatrix:
    @pytest.mark.parametrize("chunked,hm_s,expected", [
        (False, SingleHp(), (False, False, False)),
        (False, NaiveMultipleHp(), (False, False, False)),
        (False, MultipleHpN(1), (False, True, False)),
        (False, MultipleHpR(16, 4), (False, True, True)),
        (True, SingleHp(), (True, False, False)),
        (True, NaiveMultipleHp(), (True, True, False)),
        (True, MultipleHpN(1), (True, True, False)),
        (True, MultipleHpR(16, 4), (True, True, True)),
    ], ids=lambda v: getattr(v, "kind", None))
    def test_table_over_chunked_and_kind(self, rng, chunked, hm_s, expected):
        if chunked:
            chunks = random_series(rng, 3 * 2 * 8).reshape(3, 2, 8)
            result = ConvRawOutput(chunks, overlap=3, n_cols=10)
        else:
            result = Fop(random_plane(rng, 3, 10))
        pr = prepare(result, hm_s, n_hp=2)
        assert (pr.b_discard, pr.b_transpose, pr.b_reorder) == expected

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
    def test_required_transforms(self, rng, conv_s, hm_s, expected):
        # the convolution result's type alone says which transforms fire
        bank = FilterBank([random_taps(rng, 20) for _ in range(3)])
        result, _ = convolve_bank(random_series(rng, 4096), bank, conv_s)
        assert isinstance(result, ConvRawOutput) == expected[0]
        pr = prepare(result, hm_s, n_hp=2)
        assert (pr.b_discard, pr.b_transpose, pr.b_reorder) == expected

    def test_unknown_strategy(self, rng):
        with pytest.raises(PrepError, match="unknown harmonic strategy"):
            prepare(Fop(random_plane(rng, 3, 8)), object(), n_hp=2)

    def test_every_registered_pair_runs(self):
        # each strategy at its defaults: one registered without a
        # convolve_bank branch or a row of prepare's table fails here
        cfg = FdasConfig.desk_scale(n_chan=256, n_temp=3, n_hp=2, n_cand=4)
        x = generate_input(cfg, [(200, 2, 10.0)], 0.5, seed=1)
        bank = synthetic_bank(cfg, seed=1)
        for conv_kind, conv_cls in CONV_KINDS.items():
            result, _ = convolve_bank(x, bank, conv_cls())
            for hm_kind, hm_cls in HM_KINDS.items():
                pr = prepare(result, hm_cls(), cfg.n_hp)
                assert pr.fop.template_major().shape == (3, 256)
                thresholds = ThresholdTable.from_plane(pr.fop, cfg.n_hp)
                _, want = harmonic_sum_naive(pr.fop, thresholds, cfg)
                got = harmonic_sum(pr.plane, thresholds, cfg)
                assert got.same_as(want), (conv_kind, hm_kind)


class TestInputChecks:
    @pytest.mark.parametrize("call,message", [
        (lambda fop: reorder(fop, 4, 2).lookup(3, 0, 0),
         r"harmonic 3 out of range \[1, 2\]"),
        (lambda fop: reorder(fop, 4, 2).lookup(1, 0, 16),
         r"channel 16 out of range \[0, 16\)"),
        (lambda fop: reorder(fop, 0, 1), "block_cols and n_hp must be >= 1"),
        (lambda fop: fop_from(object()), "cannot build a plane from object")],
        ids=["lookup-harmonic", "lookup-channel", "reorder-0-cols",
             "fop-from-object"])
    def test_typed_error(self, rng, call, message):
        with pytest.raises(PrepError, match=message):
            call(Fop(random_plane(rng, 3, 16)))


class TestPrepare:
    def test_identity_passthrough_costs_nothing(self, rng):
        fop = Fop(random_plane(rng, 5, 32))
        pr = prepare(fop, NaiveMultipleHp(), n_hp=4)
        assert pr.plane is fop
        assert (pr.t_discard, pr.t_transpose, pr.t_reorder) == (0.0, 0.0, 0.0)
        assert (pr.b_discard, pr.b_transpose, pr.b_reorder) == (False, False, False)

    def test_transpose_only_path(self, rng):
        # the transpose is timed for the model; the reader gets the plane
        fop = Fop(random_plane(rng, 5, 32))
        pr = prepare(fop, MultipleHpN(2), n_hp=4)
        assert pr.plane is fop and pr.fop is fop
        assert pr.b_transpose and not pr.b_discard and not pr.b_reorder
        assert pr.t_transpose > 0 and pr.t_discard == pr.t_reorder == 0.0

    def test_full_chain_for_chunked_streaming(self, rng):
        x = random_series(rng, 1024)
        bank = FilterBank([random_taps(rng, 20) for _ in range(3)])
        raw, _ = convolve_bank(x, bank, OlsFd(128))
        pr = prepare(raw, MultipleHpR(8, 4), n_hp=2)
        assert isinstance(pr.plane, RFop)
        assert (pr.b_discard, pr.b_transpose, pr.b_reorder) == (True, True, True)
        assert pr.fop.template_major().shape == (3, 1024)


def traced_peak(fn):
    """Bytes ``fn()`` allocates above its starting level, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del out
    return peak


class TestPeakAllocation:
    """Allocation peaks per stage, as multiples of the plane, at 2^14 channels,
    21 templates and 129 taps through 2048-point overlap-save chunks."""

    @pytest.fixture(scope="class")
    def raw(self, mid_scale):
        return convolve_bank(*mid_scale, OlsFd(2048))[0]

    def plane_bytes(self, raw):
        return raw.n_templates * raw.n_cols * np.dtype(np.float32).itemsize

    def test_fop_from_holds_about_one_plane(self, raw):
        assert traced_peak(lambda: fop_from(raw)) <= 1.25 * self.plane_bytes(raw)

    def test_discard_and_transpose_hold_two_planes(self, raw):
        peak = traced_peak(lambda: prepare(raw, NaiveMultipleHp(), n_hp=8))
        assert peak <= 2.25 * self.plane_bytes(raw)

    def test_ols_convolution_holds_its_chunks_and_no_complex128(self, mid_scale,
                                                                raw):
        # complex64 spectra, one product buffer and the chunks; each inverse
        # lands in its chunk rows
        peak = traced_peak(lambda: convolve_bank(*mid_scale, OlsFd(2048)))
        assert peak <= 1.25 * raw.chunks.nbytes
