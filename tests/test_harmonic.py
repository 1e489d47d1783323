"""Harmonic summing: stretch lookups, the reference accumulation, and the
optimised traversals."""

import time

import numpy as np
import pytest

from fdas import harmonic
from fdas.core import FdasConfig, Fop
from fdas.harmonic import (CandidateList, HarmonicError, MultipleHpN,
                           MultipleHpR, NaiveMultipleHp, SingleHp,
                           ThresholdTable, harmonic_sum, harmonic_sum_naive,
                           stretch_lookup)
from fdas.prep import TILE_POINTS, _tile_cols, reorder, transpose

from conftest import random_plane


def cfg_for(rows, cols, n_hp=8, n_cand=16):
    return FdasConfig.desk_scale(n_temp=rows, n_chan=cols, n_hp=n_hp,
                                 n_cand=n_cand)


def brute_force_candidates(fop, thresholds, config):
    """Stretch, accumulate, and threshold by explicit loops."""
    tm = fop.template_major()
    rows, cols = tm.shape
    offset = (rows - 1) // 2
    hp_prev = np.zeros((rows, cols), dtype=np.float32)
    points = []
    for k in range(1, config.n_hp + 1):
        hp = np.empty_like(hp_prev)
        for r in range(rows):
            i = r - offset
            src_r = (1 if i >= 0 else -1) * (abs(i) // k) + offset
            for j in range(cols):
                hp[r, j] = hp_prev[r, j] + tm[src_r, j // k]
        for r in range(rows):
            for j in range(cols):
                if hp[r, j] > thresholds.ta[k - 1, r]:
                    points.append((k, r - offset, j, hp[r, j]))
        hp_prev = hp
    if not points:
        return CandidateList(np.empty(0, dtype=CandidateList([], 1).entries.dtype),
                             config.n_cand)
    ks, is_, js, ps = zip(*points)
    return CandidateList.from_points(ks, is_, js, ps, config.n_cand)


def loop_multi_n_points_read(rows, cols, group_cols, n_hp):
    """Distinct source points the column groups load, group by group."""
    signed = np.arange(rows) - (rows - 1) // 2
    total = 0
    for c0 in range(0, cols, group_cols):
        c1 = min(cols, c0 + group_cols)
        for k in range(1, n_hp + 1):
            distinct_rows = np.unique(np.sign(signed) * (np.abs(signed) // k))
            total += distinct_rows.size * ((c1 - 1) // k - c0 // k + 1)
    return total


class TestStretchLookup:
    def test_k1_is_identity(self, rng):
        fop = Fop(random_plane(rng, 5, 16))
        for i in range(-2, 3):
            for j in range(16):
                assert stretch_lookup(fop, 1, i, j) == fop.power(i, j)

    def test_trunc_toward_zero_rule(self, rng):
        fop = Fop(random_plane(rng, 9, 16))
        assert stretch_lookup(fop, 2, -3, 7) == fop.power(-1, 3)
        assert stretch_lookup(fop, 2, 3, 7) == fop.power(1, 3)
        assert stretch_lookup(fop, 4, -3, 15) == fop.power(0, 3)

    def test_full_plane_against_loops(self, rng):
        fop = Fop(random_plane(rng, 5, 16))
        tm = fop.template_major()
        k = 3
        for i in range(-2, 3):
            src_i = (1 if i >= 0 else -1) * (abs(i) // k)
            for j in range(16):
                assert stretch_lookup(fop, k, i, j) == tm[src_i + 2, j // k]

    def test_bounds(self, rng):
        fop = Fop(random_plane(rng, 5, 16))
        with pytest.raises(HarmonicError):
            stretch_lookup(fop, 0, 0, 0)
        with pytest.raises(HarmonicError):
            stretch_lookup(fop, 1, 0, 16)


class TestThresholdTable:
    def test_positive_finite_required(self):
        with pytest.raises(HarmonicError):
            ThresholdTable(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(HarmonicError):
            ThresholdTable(np.full((2, 3), np.inf, dtype=np.float32))

    def test_constant_per_harmonic(self):
        table = ThresholdTable.constant([1.0, 2.0], 2, 4)
        assert table.value(1, 0) == 1.0
        assert table.value(2, -1) == 2.0

    def test_from_plane_scales_with_harmonic(self, rng):
        fop = Fop(random_plane(rng, 5, 64))
        table = ThresholdTable.from_plane(fop, 4)
        levels = table.ta[:, 0]
        assert (np.diff(levels) > 0).all()


class TestNaiveReference:
    def test_zero_plane_yields_nothing(self):
        cfg = cfg_for(3, 8, n_hp=2)
        fop = Fop(np.zeros((3, 8), dtype=np.float32))
        table = ThresholdTable.constant(0.5, 2, 3)
        planes, cands = harmonic_sum_naive(fop, table, cfg)
        assert len(cands) == 0
        assert len(planes) == 2

    def test_hand_evaluated_single_row(self):
        # plane [1,2,3,4]: the second harmonic adds the floor(j/2) stretch
        # [1,1,2,2], giving [2,3,5,6]
        cfg = cfg_for(1, 4, n_hp=2, n_cand=4)
        fop = Fop(np.array([[1, 2, 3, 4]], dtype=np.float32))
        table = ThresholdTable.constant(100.0, 2, 1)
        planes, _ = harmonic_sum_naive(fop, table, cfg)
        assert np.array_equal(planes[0], [[1, 2, 3, 4]])
        assert np.array_equal(planes[1], [[2, 3, 5, 6]])

    def test_first_plane_is_input_bit_exact(self, rng):
        cfg = cfg_for(5, 32)
        fop = Fop(random_plane(rng, 5, 32))
        table = ThresholdTable.constant(1.0, cfg.n_hp, 5)
        planes, _ = harmonic_sum_naive(fop, table, cfg)
        assert np.array_equal(planes[0], fop.values)

    def test_recurrence_exact(self, rng):
        # each plane is bitwise the single-precision sum of its predecessor
        # and the stretched plane (same adds in the same order)
        cfg = cfg_for(5, 32, n_hp=4)
        fop = Fop(random_plane(rng, 5, 32))
        tm = fop.template_major()
        table = ThresholdTable.constant(1.0, 4, 5)
        planes, _ = harmonic_sum_naive(fop, table, cfg)
        from fdas.prep import stretch_rows
        for k in range(2, 5):
            sp = tm[stretch_rows(5, k)][:, np.arange(32) // k]
            assert np.array_equal(planes[k - 1], planes[k - 2] + sp)

    def test_matches_loop_oracle(self, rng):
        cfg = cfg_for(5, 32, n_hp=3, n_cand=6)
        fop = Fop(random_plane(rng, 5, 32))
        table = ThresholdTable.constant(1.2, 3, 5)
        _, got = harmonic_sum_naive(fop, table, cfg)
        ref = brute_force_candidates(fop, table, cfg)
        assert got.same_as(ref)

    def test_dimension_mismatch(self, rng):
        cfg = cfg_for(5, 16)
        fop = Fop(random_plane(rng, 5, 16))
        with pytest.raises(HarmonicError):
            harmonic_sum_naive(fop, ThresholdTable.constant(1.0, 2, 5), cfg)


class TestCandidateList:
    def test_canonical_order(self):
        cands = CandidateList.from_points(
            [2, 1, 1, 1], [0, 1, -1, 0], [5, 3, 9, 3], [1.0, 2.0, 2.0, 7.0],
            n_cand=10)
        e = cands.entries
        assert list(e["harmonic"]) == [1, 1, 1, 2]
        # within harmonic 1: power desc, then channel, then template
        assert list(e["power"][:3]) == [7.0, 2.0, 2.0]
        assert list(e["channel"][:3]) == [3, 3, 9]
        assert list(e["template"][:3]) == [0, 1, -1]

    def test_per_harmonic_cap(self):
        cands = CandidateList.from_points(
            np.ones(10, dtype=int), np.zeros(10, dtype=int), np.arange(10),
            np.arange(10, dtype=np.float32), n_cand=4)
        assert len(cands) == 4
        assert list(cands.entries["power"]) == [9, 8, 7, 6]

    def test_csv_round_trip(self, tmp_path, rng):
        cands = CandidateList.from_points(
            [1, 2, 2], [0, -1, 1], [10, 20, 30],
            np.array([1.5, 2.25, 0.1], dtype=np.float32) * np.float32(np.pi),
            n_cand=4)
        path = tmp_path / "cands.csv"
        cands.to_csv(path)
        assert path.read_text().splitlines()[0] == "harmonic,template,channel,power"
        loaded = CandidateList.from_csv(path, 4)
        assert loaded.same_as(cands)

    def test_csv_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("harmonic,template,channel,power\n1,0,ten,5.0\n")
        with pytest.raises(HarmonicError, match="malformed"):
            CandidateList.from_csv(path, 4)
        path.write_text("wrong,header\n")
        with pytest.raises(HarmonicError, match="header"):
            CandidateList.from_csv(path, 4)


def run_all_strategies(fop, table, cfg, block_cols=8):
    rfop = reorder(fop, block_cols, cfg.n_hp)
    outputs = {}
    outputs["single"] = harmonic_sum(fop, SingleHp(), table, cfg)
    outputs["naive-multi"] = harmonic_sum(fop, NaiveMultipleHp(), table, cfg)
    outputs["multi-n"] = harmonic_sum(fop, MultipleHpN(3), table, cfg)
    outputs["multi-r"] = harmonic_sum(rfop, MultipleHpR(block_cols, 4), table, cfg)
    return outputs


class TestStrategies:
    def test_all_match_reference_exactly(self, rng):
        for trial in range(5):
            rows = int(rng.choice([5, 9, 17]))
            cols = int(rng.choice([32, 64]))
            cfg = cfg_for(rows, cols, n_hp=8, n_cand=12)
            fop = Fop(random_plane(rng, rows, cols))
            table = ThresholdTable.from_plane(fop, 8, sigma_factor=1.0)
            _, ref = harmonic_sum_naive(fop, table, cfg)
            assert len(ref) > 0  # the comparison must not be vacuous
            for e in ref.entries:  # every entry strictly above its threshold
                assert e["power"] > table.value(int(e["harmonic"]),
                                                int(e["template"]))
            for name, (cands, _) in run_all_strategies(fop, table, cfg).items():
                assert cands.same_as(ref), f"{name} diverged on trial {trial}"

    def test_transposed_plane_same_candidates(self, rng):
        cfg = cfg_for(5, 32)
        fop = Fop(random_plane(rng, 5, 32))
        table = ThresholdTable.from_plane(fop, cfg.n_hp, sigma_factor=1.0)
        _, ref = harmonic_sum_naive(fop, table, cfg)
        cands, _ = harmonic_sum(transpose(fop), NaiveMultipleHp(), table, cfg)
        assert cands.same_as(ref)

    def test_access_statistics(self, rng):
        cfg = cfg_for(9, 64)
        fop = Fop(random_plane(rng, 9, 64))
        table = ThresholdTable.from_plane(fop, cfg.n_hp)
        _, s_single = harmonic_sum(fop, SingleHp(), table, cfg)
        _, s_naive = harmonic_sum(fop, NaiveMultipleHp(), table, cfg)
        _, s_n = harmonic_sum(fop, MultipleHpN(4), table, cfg)
        n_points = cfg.n_hp * 9 * 64
        assert s_single.plane_writes == n_points
        assert s_single.points_read == n_points
        assert s_naive.plane_writes == 0
        assert s_naive.points_read == n_points
        assert s_n.points_read <= s_naive.points_read  # block reuse never reads more

    def test_elapsed_spans_candidate_selection(self, rng, monkeypatch):
        cfg = cfg_for(9, 64)
        fop = Fop(random_plane(rng, 9, 64))
        table = ThresholdTable.from_plane(fop, cfg.n_hp, sigma_factor=1.0)
        finish = harmonic._Collector.finish

        def slow_finish(self, n_cand):
            time.sleep(0.05)
            return finish(self, n_cand)

        monkeypatch.setattr(harmonic._Collector, "finish", slow_finish)
        for plane, strategy in [(fop, SingleHp()), (fop, NaiveMultipleHp()),
                                (fop, MultipleHpN(4)),
                                (reorder(fop, 8, cfg.n_hp), MultipleHpR(8, 4))]:
            _, stats = harmonic_sum(plane, strategy, table, cfg)
            assert stats.elapsed >= 0.05, strategy.kind

    def test_streamed_and_blockwise_agree(self, rng):
        cfg = cfg_for(9, 64)
        fop = Fop(random_plane(rng, 9, 64))
        table = ThresholdTable.from_plane(fop, cfg.n_hp, sigma_factor=1.0)
        rfop = reorder(fop, 16, cfg.n_hp)
        a, _ = harmonic_sum(rfop, MultipleHpR(16, 4), table, cfg)
        b, _ = harmonic_sum(fop, MultipleHpN(16), table, cfg)
        assert a.same_as(b)

    def test_monotone_thresholds(self, rng):
        cfg = cfg_for(5, 32, n_cand=64)
        fop = Fop(random_plane(rng, 5, 32))
        low = ThresholdTable.constant(0.5, cfg.n_hp, 5)
        high = ThresholdTable(low.ta * np.float32(2.0))
        _, loose = harmonic_sum_naive(fop, low, cfg)
        _, tight = harmonic_sum_naive(fop, high, cfg)
        loose_set = {tuple(e) for e in loose.entries[["harmonic", "template",
                                                      "channel"]].tolist()}
        tight_set = {tuple(e) for e in tight.entries[["harmonic", "template",
                                                      "channel"]].tolist()}
        assert tight_set <= loose_set

    def test_wrong_plane_kind(self, rng):
        cfg = cfg_for(5, 32)
        fop = Fop(random_plane(rng, 5, 32))
        rfop = reorder(fop, 8, cfg.n_hp)
        table = ThresholdTable.constant(1.0, cfg.n_hp, 5)
        with pytest.raises(HarmonicError):
            harmonic_sum(fop, MultipleHpR(8, 4), table, cfg)
        with pytest.raises(HarmonicError):
            harmonic_sum(rfop, SingleHp(), table, cfg)
        with pytest.raises(HarmonicError):
            harmonic_sum(rfop, object(), table, cfg)

    def test_block_width_mismatch(self, rng):
        cfg = cfg_for(5, 32)
        fop = Fop(random_plane(rng, 5, 32))
        rfop = reorder(fop, 8, cfg.n_hp)
        table = ThresholdTable.constant(1.0, cfg.n_hp, 5)
        with pytest.raises(HarmonicError):
            harmonic_sum(rfop, MultipleHpR(16, 4), table, cfg)


class TestMultiTilePlane:
    """Every traversal over a plane of several tiles (prep.TILE_POINTS)."""

    @pytest.fixture(scope="class")
    def case(self):
        rows, cols = 21, 8192
        fop = Fop(random_plane(np.random.default_rng(4321), rows, cols))
        assert fop.values.size > TILE_POINTS
        # keep every above-threshold point, and let most points pass
        cfg = cfg_for(rows, cols, n_hp=8, n_cand=rows * cols)
        table = ThresholdTable.constant(1.0, 8, rows)
        _, ref = harmonic_sum_naive(fop, table, cfg)
        assert len(ref) > fop.values.size
        return fop, cfg, table, ref

    @pytest.mark.parametrize("block_cols", [3, 16, 1])
    def test_multi_r_matches_reference(self, case, block_cols):
        fop, cfg, table, ref = case
        rfop = reorder(fop, block_cols, cfg.n_hp)
        cands, _ = harmonic_sum(rfop, MultipleHpR(block_cols, 4), table, cfg)
        assert cands.same_as(ref)

    @pytest.mark.parametrize("block_cols", [3, 16, 1])
    def test_multi_n_matches_reference(self, case, block_cols):
        fop, cfg, table, ref = case
        cands, _ = harmonic_sum(transpose(fop), MultipleHpN(block_cols), table,
                                cfg)
        assert cands.same_as(ref)

    @pytest.mark.parametrize("strategy", [SingleHp(), NaiveMultipleHp()],
                             ids=lambda s: s.kind)
    def test_plane_at_a_time_matches_reference(self, case, strategy):
        fop, cfg, table, ref = case
        cands, _ = harmonic_sum(transpose(fop), strategy, table, cfg)
        assert cands.same_as(ref)

    def test_every_strategy_accumulates_over_bounded_tiles(self, case,
                                                          monkeypatch):
        fop, cfg, table, _ = case
        rows, cols = fop.values.shape
        calls = []
        monkeypatch.setattr(harmonic, "_accumulate",
                            lambda read, n_cols, tile_cols, *rest:
                            calls.append((n_cols, tile_cols)))
        for plane, strategy, group in [
                (fop, SingleHp(), 1), (fop, NaiveMultipleHp(), 1),
                (fop, MultipleHpN(3), 3),
                (reorder(fop, 16, cfg.n_hp), MultipleHpR(16, 4), 16)]:
            calls.clear()
            harmonic_sum(plane, strategy, table, cfg)
            assert _tile_cols(rows, group) < cols  # the plane spans tiles
            assert calls == [(cols, _tile_cols(rows, group))], strategy.kind

    @pytest.mark.parametrize("rows,cols,group_cols", [
        (9, 4096, 1), (21, 8192, 16), (21, 8192, 3), (17, 4096, 5)])
    def test_multi_n_points_read_matches_group_loop(self, rows, cols,
                                                    group_cols):
        cfg = cfg_for(rows, cols, n_hp=8)
        fop = Fop(np.zeros((rows, cols), dtype=np.float32))
        table = ThresholdTable.constant(1.0, 8, rows)
        _, stats = harmonic_sum(fop, MultipleHpN(group_cols), table, cfg)
        assert stats.points_read == loop_multi_n_points_read(rows, cols,
                                                             group_cols, 8)

