"""Harmonic summing: stretch lookups, the reference accumulation, and the
optimised traversals."""

import re
import time
import tracemalloc

import numpy as np
import pytest

from fdas import harmonic, prep
from fdas.cli import main
from fdas.core import FdasConfig, Fop, storage_row
from fdas.harmonic import (CANDIDATE_DTYPE, CandidateList, HarmonicError,
                           MultipleHpN, MultipleHpR, NaiveMultipleHp, SingleHp,
                           ThresholdTable, access_counts, harmonic_sum,
                           harmonic_sum_naive, stretch_lookup)
from fdas.harness import RunSpec, execute
from fdas.prep import TILE_POINTS, _tile_cols, reorder

from conftest import random_plane, select_candidates, stretched_sums


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
    return oracle_list(points, config.n_cand)


def oracle_list(points, n_cand):
    """The oracle's selection of (harmonic, template, channel, power) points."""
    return CandidateList(np.array(select_candidates(points, n_cand),
                                  dtype=CANDIDATE_DTYPE))


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
        tm = fop.template_major()
        for i in range(-2, 3):
            for j in range(16):
                assert stretch_lookup(fop, 1, i, j) == tm[storage_row(i, 5), j]

    def test_trunc_toward_zero_rule(self, rng):
        fop = Fop(random_plane(rng, 9, 16))
        tm = fop.template_major()
        assert stretch_lookup(fop, 2, -3, 7) == tm[storage_row(-1, 9), 3]
        assert stretch_lookup(fop, 2, 3, 7) == tm[storage_row(1, 9), 3]
        assert stretch_lookup(fop, 4, -3, 15) == tm[storage_row(0, 9), 3]

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

    @pytest.mark.parametrize("call,message", [
        (lambda: ThresholdTable(np.ones(3, dtype=np.float32)), "must be 2-D"),
        (lambda: ThresholdTable.constant(1.0, 2, 3).row(0),
         r"harmonic 0 out of range \[1, 2\]"),
        (lambda: MultipleHpN(0), "cols_per_group must be >= 1, got 0")],
        ids=["1-d-table", "row-0", "multi-n-0"])
    def test_typed_error(self, call, message):
        with pytest.raises(HarmonicError, match=message):
            call()

    def test_multi_n_cols_0_exits_2(self, tmp_path, capsys):
        assert main(["run", "--out", str(tmp_path / "x"), "--hm", "multi-n",
                     "--hm-cols", "0"]) == 2
        assert "cols_per_group must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_constant_per_harmonic(self):
        table = ThresholdTable.constant([1.0, 2.0], 2, 4)
        assert table.row(1)[storage_row(0, 4)] == 1.0
        assert table.row(2)[storage_row(-1, 4)] == 2.0

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
        loaded = CandidateList.from_csv(path)
        assert loaded.same_as(cands)

    def test_csv_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("harmonic,template,channel,power\n1,0,ten,5.0\n")
        with pytest.raises(HarmonicError, match="malformed"):
            CandidateList.from_csv(path)
        path.write_text("wrong,header\n")
        with pytest.raises(HarmonicError, match="header"):
            CandidateList.from_csv(path)

    @pytest.mark.parametrize("row", [
        "1,0,5,2.0,junk", "1,0,6", "1,0,6,nan", "1,0,6,inf", "1,0,6,-1.0",
        "1,0,6,1e39", "-3,0,7,1.0", "0,0,7,1.0", "1,0,99999999999,1.0",
        "99999999999,0,7,1.0", "1,-99999999999,7,1.0"],
        ids=["five-fields", "three-fields", "nan-power", "inf-power",
             "negative-power", "float32-overflow", "negative-harmonic",
             "harmonic-0", "int32-overflow-channel", "int32-overflow-harmonic",
             "int32-overflow-template"])
    def test_csv_rows_to_csv_never_writes_rejected(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"harmonic,template,channel,power\n1,0,4,3.0\n{row}\n")
        fields = re.escape(str(row.split(",")))
        with pytest.raises(HarmonicError, match=f"malformed candidate row {fields}"):
            CandidateList.from_csv(path)


def run_all_strategies(fop, table, cfg, block_cols=8):
    """Each strategy's candidates on the plane ``prepare`` hands it."""
    strategies = (SingleHp(), NaiveMultipleHp(), MultipleHpN(3),
                  MultipleHpR(block_cols, 4))
    return {s.kind: harmonic_sum(prep.prepare(fop, s, cfg.n_hp).plane, table,
                                 cfg)
            for s in strategies}


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
                assert e["power"] > table.row(int(e["harmonic"]))[
                    storage_row(int(e["template"]), rows)]
            for name, cands in run_all_strategies(fop, table, cfg).items():
                assert cands.same_as(ref), f"{name} diverged on trial {trial}"

    def test_access_statistics(self):
        n_points = 8 * 9 * 64
        # (points read, plane writes) of each strategy over 9 x 64 with 8
        # harmonics. multi-n: 16 groups of 4 columns load [64, 32, 32, 16,
        # 25, 21, 23, 16] source columns per harmonic, of [9, 5, 3, 3, 1, 1,
        # 1, 1] distinct stretched rows. multi-r: 4 blocks of 16 columns, the
        # largest holding 47 section columns of 9 rows, padded from 423 to
        # 512 points.
        expected = {SingleHp(): (n_points, n_points),
                    NaiveMultipleHp(): (n_points, 0),
                    MultipleHpN(4): (965, 0),
                    MultipleHpR(16, 4): (2048, 0)}
        for strategy, counts in expected.items():
            assert access_counts(strategy, 9, 64, 8) == counts, strategy.kind
        with pytest.raises(HarmonicError):
            access_counts(object(), 9, 64, 8)

    def test_access_counts_at_full_scale(self):
        # 2^21 channels x 85 templates x 8 harmonics; multi-n counts from a
        # formula per harmonic and builds no reordered layout (544 MiB)
        access_counts(MultipleHpN(2), 9, 64, 8)  # numpy's lazy imports first
        for strategy, read in [(MultipleHpN(1), 490_733_568),
                               (MultipleHpN(16), 280_868_582)]:
            tracemalloc.start()
            try:
                assert access_counts(strategy, 85, 2 ** 21, 8) == (read, 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 ** 20, strategy
        assert access_counts(MultipleHpR(16), 85, 2 ** 21, 8) == (536_870_912, 0)

    def test_reordered_plane_geometry_is_built_once(self, rng, monkeypatch):
        # reorder builds the layout; harmonic_sum reads the plane's own copy,
        # and execute counts multi-r's traffic off the rFOP it built
        calls = []
        section_geometry = prep._section_geometry
        for module in (prep, harmonic):
            monkeypatch.setattr(module, "_section_geometry",
                                lambda *args: calls.append(args)
                                or section_geometry(*args))
        cfg = cfg_for(9, 256)
        fop = Fop(random_plane(rng, 9, 256))
        table = ThresholdTable.from_plane(fop, cfg.n_hp, sigma_factor=1.0)
        _, ref = harmonic_sum_naive(fop, table, cfg)
        assert harmonic_sum(reorder(fop, 16, cfg.n_hp), table, cfg).same_as(ref)
        assert len(calls) == 1
        calls.clear()
        st = execute(RunSpec(config=cfg, hm_kind="multi-r", hm_cols=4, seed=3))[2]
        assert len(calls) == 1
        assert (st.points_read, st.plane_writes) == access_counts(
            MultipleHpR(4), 9, 256, cfg.n_hp)

    def test_elapsed_spans_candidate_selection(self, monkeypatch):
        # execute's t_hm is the stage's one clock; selection falls inside it
        from_points = CandidateList.from_points

        def slow_from_points(cls, *args):
            time.sleep(0.05)
            return from_points(*args)

        monkeypatch.setattr(CandidateList, "from_points",
                            classmethod(slow_from_points))
        config = cfg_for(9, 1024)
        for hm_kind in harmonic.HM_KINDS:
            spec = RunSpec(config=config, hm_kind=hm_kind, seed=3)
            assert execute(spec)[2].t_hm >= 0.05, hm_kind

    def test_streamed_and_blockwise_agree(self, rng):
        cfg = cfg_for(9, 64)
        fop = Fop(random_plane(rng, 9, 64))
        table = ThresholdTable.from_plane(fop, cfg.n_hp, sigma_factor=1.0)
        rfop = reorder(fop, 16, cfg.n_hp)
        a = harmonic_sum(rfop, table, cfg)
        b = harmonic_sum(fop, table, cfg)
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
        table = ThresholdTable.constant(1.0, cfg.n_hp, 5)
        with pytest.raises(HarmonicError):
            harmonic_sum(object(), table, cfg)
        with pytest.raises(HarmonicError, match="harmonics"):
            harmonic_sum(reorder(fop, 8, cfg.n_hp - 1), table, cfg)


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
        cands = harmonic_sum(reorder(fop, block_cols, cfg.n_hp), table, cfg)
        assert cands.same_as(ref)

    @pytest.fixture(scope="class")
    def matches_ref(self, case):
        """Check that a strategy's prepared plane is the case's plane itself,
        which multi-n, whatever its column-group width, single and
        naive-multi all sum, and sum it against ref once."""
        fop, cfg, table, ref = case
        summed = []

        def check(strategy):
            plane = prep.prepare(fop, strategy, cfg.n_hp).plane
            assert plane is fop
            if not summed:
                assert harmonic_sum(plane, table, cfg).same_as(ref)
                summed.append(plane)
        return check

    @pytest.mark.parametrize("block_cols", [3, 16, 1])
    def test_multi_n_matches_reference(self, matches_ref, block_cols):
        matches_ref(MultipleHpN(block_cols))

    @pytest.mark.parametrize("strategy", [SingleHp(), NaiveMultipleHp()],
                             ids=lambda s: s.kind)
    def test_plane_at_a_time_matches_reference(self, matches_ref, strategy):
        matches_ref(strategy)

    def test_every_strategy_accumulates_over_bounded_tiles(self, case,
                                                          monkeypatch):
        fop, cfg, table, _ = case
        rows, cols = fop.values.shape
        calls = []
        monkeypatch.setattr(harmonic, "_accumulate",
                            lambda read, n_cols, tile_cols, *rest:
                            calls.append((n_cols, tile_cols)))
        # the tile width depends on the plane alone, not on a strategy's
        # column groups or blocks
        assert _tile_cols(rows, 1) < cols  # the plane spans tiles
        for plane in [fop, reorder(fop, 17, cfg.n_hp)]:
            calls.clear()
            harmonic_sum(plane, table, cfg)
            assert calls == [(cols, _tile_cols(rows, 1))], type(plane).__name__

    @pytest.mark.parametrize("rows,cols,group_cols", [
        (9, 4096, 1), (21, 8192, 16), (21, 8192, 3), (17, 4096, 5)])
    def test_multi_n_points_read_matches_group_loop(self, rows, cols,
                                                    group_cols):
        assert access_counts(MultipleHpN(group_cols), rows, cols, 8) == (
            loop_multi_n_points_read(rows, cols, group_cols, 8), 0)

    @pytest.mark.parametrize("rows,cols", [(9, 16384), (21, 8192)])
    @pytest.mark.parametrize("block_cols", [1, 3, 16, 17])
    def test_multi_r_points_read_is_the_streamed_blocks(self, rows, cols,
                                                        block_cols):
        # multi-r streams every block whole, its zero padding included
        assert _tile_cols(rows, 1) < cols  # the plane spans tiles
        rfop = reorder(Fop(np.zeros((rows, cols), dtype=np.float32)),
                       block_cols, 8)
        assert access_counts(MultipleHpR(block_cols, 4), rows, cols, 8) == (
            rfop.blocks.size, 0)


class TestTilePreCap:
    """Each tile passes on only its n_cand strongest points per harmonic."""

    def test_tied_powers_match_oracle(self):
        # integer levels make ties at every tile's cut, in every harmonic
        rows, cols = 9, 16384
        levels = np.random.default_rng(99).integers(0, 4, (rows, cols))
        fop = Fop(levels.astype(np.float32))
        cfg = cfg_for(rows, cols, n_hp=8, n_cand=3)
        table = ThresholdTable.constant(1.0, cfg.n_hp, rows)
        planes, naive = harmonic_sum_naive(fop, table, cfg)
        signed = np.arange(rows) - (rows - 1) // 2
        points = []
        for k, hp in enumerate(planes, start=1):
            rr, cc = np.nonzero(hp > table.ta[k - 1][:, None])
            points += zip([k] * rr.size, signed[rr].tolist(), cc.tolist(),
                          hp[rr, cc].tolist())
        ref = oracle_list(points, cfg.n_cand)
        assert len(ref) == cfg.n_hp * cfg.n_cand
        assert naive.same_as(ref)
        assert _tile_cols(rows, 1) < cols  # the plane spans tiles
        for name, cands in run_all_strategies(fop, table, cfg).items():
            assert cands.same_as(ref), name

    def test_one_sort_of_bounded_size(self, monkeypatch):
        # every point passes, and no tile's cut is tied at this seed
        rows, cols = 9, 16384
        rng = np.random.default_rng(7)
        fop = Fop((1.0 + rng.random((rows, cols))).astype(np.float32))
        cfg = cfg_for(rows, cols, n_hp=8, n_cand=5)
        table = ThresholdTable.constant(0.5, cfg.n_hp, rows)
        from_points = CandidateList.from_points
        sizes = []

        def spy(cls, harmonics, *rest):
            sizes.append(len(harmonics))
            return from_points(harmonics, *rest)

        monkeypatch.setattr(CandidateList, "from_points", classmethod(spy))
        _, ref = harmonic_sum_naive(fop, table, cfg)
        assert sizes == [cfg.n_hp * rows * cols]  # the reference is uncapped
        n_tiles = -(-cols // _tile_cols(rows, 1))
        assert n_tiles > 1
        for name, plane in [("template-major", fop),
                            ("reordered", reorder(fop, 16, cfg.n_hp))]:
            sizes.clear()
            cands = harmonic_sum(plane, table, cfg)
            assert len(sizes) == 1, name
            assert sizes[0] <= n_tiles * cfg.n_hp * cfg.n_cand, name
            assert cands.same_as(ref), name


class TestRunningFloor:
    """No tile passes on a point below the n_cand-th strongest power earlier
    tiles passed on in its harmonic, once that floor tops its thresholds."""

    def test_falling_plane_sorts_one_tile_of_points(self, monkeypatch):
        # integer powers falling with the column, exact in float32: a column
        # step (128) outweighs any harmonic's summed template rows (< 128), so
        # no two points tie, every harmonic's strongest points lie in the
        # first tile, and every later point is below the floor
        rows, cols = 9, 16384
        cc, rr = np.meshgrid(np.arange(cols), np.arange(rows))
        fop = Fop(((cols - 1 - cc) * 128 + rr + 1).astype(np.float32))
        cfg = cfg_for(rows, cols, n_hp=8, n_cand=5)
        table = ThresholdTable.constant(0.5, cfg.n_hp, rows)  # every point passes
        _, ref = harmonic_sum_naive(fop, table, cfg)
        assert -(-cols // _tile_cols(rows, 1)) == 3
        from_points = CandidateList.from_points
        sizes = []

        def spy(cls, harmonics, *rest):
            sizes.append(len(harmonics))
            return from_points(harmonics, *rest)

        monkeypatch.setattr(CandidateList, "from_points", classmethod(spy))
        for name, plane in [("template-major", fop),
                            ("reordered", reorder(fop, 16, cfg.n_hp))]:
            sizes.clear()
            assert harmonic_sum(plane, table, cfg).same_as(ref), name
            assert sizes == [cfg.n_hp * cfg.n_cand], name

    def test_floor_keeps_ties(self):
        # a point tied with the floor can still make the cap on its channel,
        # so _above keeps it, as the per-tile cut keeps ties
        hp = np.array([[1, 4, 2], [4, 3, 5]], dtype=np.float32)  # column x row
        signed = np.array([-1, 0, 1])

        def kept(ta_row):
            _, t, c, p = harmonic._above(2, hp, np.array(ta_row, np.float32),
                                         signed, 10, 5, np.float32(4))
            return sorted(zip(c.tolist(), t.tolist(), p.tolist()))

        assert kept([0.5] * 3) == [(10, 0, 4.0), (11, -1, 4.0), (11, 1, 5.0)]
        # a floor not above every threshold of the row leaves the row compare
        assert kept([0.5, 4.5, 0.5]) == [(10, -1, 1.0), (10, 1, 2.0),
                                         (11, -1, 4.0), (11, 1, 5.0)]

    def test_per_template_thresholds_match_reference(self, monkeypatch):
        rows, cols, n_hp = 9, 16384, 8
        rng = np.random.default_rng(5150)
        fop = Fop(random_plane(rng, rows, cols))
        # thresholds about each harmonic's median, varying by template; in odd
        # harmonics one template's threshold is above every power, so the
        # floor never tops that row and the row compare is kept throughout
        medians = [np.median(p) for p in stretched_sums(fop.values, n_hp)]
        ta = np.array(medians)[:, None] * rng.uniform(0.7, 1.3, (n_hp, rows))
        ta[0::2, 0] = 1e6
        table = ThresholdTable(ta.astype(np.float32))
        cfg = cfg_for(rows, cols, n_hp=n_hp, n_cand=5)
        _, ref = harmonic_sum_naive(fop, table, cfg)
        assert len(ref) == n_hp * cfg.n_cand
        assert _tile_cols(rows, 1) < cols  # the plane spans tiles
        above, floor_used = harmonic._above, set()

        def spy(k, hp, ta_row, signed, col_offset, n_cand=None, floor=-np.inf):
            floor_used.add((k % 2, bool(floor > ta_row.max())))
            return above(k, hp, ta_row, signed, col_offset, n_cand, floor)

        monkeypatch.setattr(harmonic, "_above", spy)
        for name, cands in run_all_strategies(fop, table, cfg).items():
            assert cands.same_as(ref), name
        # odd harmonics only ever compare rows; even ones reach the floor
        assert floor_used == {(1, False), (0, False), (0, True)}


class TestTileEdges:
    """Tiles narrower than n_hp start off multiples of k, so every harmonic's
    in-place add runs its head, body and tail parts."""

    @pytest.mark.parametrize("n_cand", [4, 7 * 64])
    @pytest.mark.parametrize("tile_width", [1, 3, 5, 7])
    def test_strategies_match_stretched_sums(self, monkeypatch, tile_width,
                                             n_cand):
        rows, cols, n_hp = 7, 64, 8
        rng = np.random.default_rng(2024 + tile_width)
        fop = Fop(random_plane(rng, rows, cols))
        planes = stretched_sums(fop.values, n_hp)
        # per-template thresholds about each harmonic's median
        scale = rng.uniform(0.7, 1.3, (n_hp, rows))
        table = ThresholdTable((np.array([np.median(p) for p in planes])[:, None]
                                * scale).astype(np.float32))
        assert len(set(table.ta[0].tolist())) == rows
        signed = np.arange(rows) - (rows - 1) // 2
        points = []
        for k, hp in enumerate(planes, start=1):
            rr, cc = np.nonzero(hp > table.ta[k - 1][:, None])
            points += zip([k] * rr.size, signed[rr].tolist(), cc.tolist(),
                          hp[rr, cc].tolist())
        assert len(points) > rows * cols  # the comparison is not vacuous
        ref = oracle_list(points, n_cand)

        cfg = cfg_for(rows, cols, n_hp=n_hp, n_cand=n_cand)
        monkeypatch.setattr(prep, "TILE_POINTS", tile_width * rows)
        assert _tile_cols(rows, 1) == tile_width
        runs = [("template-major", fop)]
        runs += [(f"reordered {b}", reorder(fop, b, n_hp)) for b in (1, 3, 16)]
        for name, plane in runs:
            assert harmonic_sum(plane, table, cfg).same_as(ref), name
