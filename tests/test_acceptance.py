"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from fdas.convolution import (CONV_KINDS, NaiveFd, NaiveTd, OlaTd, OlsFd,
                              assemble_ols, convolve_bank, fir_ols_fd,
                              ola_launch_count, ola_padded_length)
from fdas.core import FdasConfig, FilterBank, Fop, load_fop
from fdas.harmonic import (HM_KINDS, MultipleHpN, MultipleHpR, NaiveMultipleHp,
                           SingleHp, ThresholdTable, harmonic_sum,
                           harmonic_sum_naive)
from fdas.harness import RunSpec, execute, measure_sweep, run_pipeline
from fdas.pipeline import (DeviceModel, StageTiming, choose_buffering,
                           contended_period, ideal_period, multi_device_period,
                           simulate_overlap, sweep, total_latency)
from fdas.prep import discard, fop_from, prepare

from conftest import random_plane, random_series, random_taps
from test_pipeline import REFERENCE_ROWS, reference_timing, step_oracle


def fundamental_channels(cands):
    """Channels of the harmonic-1 candidates."""
    return cands.entries["channel"][cands.entries["harmonic"] == 1]


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL  {title}")
        raise
    print(f"[criterion {num:02d}] PASS  {title}")


def random_bank(rng, n_templates, max_tap):
    return FilterBank([random_taps(rng, int(rng.integers(1, max_tap + 1)))
                       for _ in range(n_templates)])


def test_c01_convolution_strategy_equivalence():
    rng = np.random.default_rng(101)
    sizes = [2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13, 2 ** 14]
    tap_caps = [5, 33, 100, 256, 421]
    strategies = ([OlaTd(n) for n in (32, 64, 128)] + [NaiveFd()] +
                  [OlsFd(c) for c in (1024, 2048, 4096)])
    started = time.perf_counter()
    with criterion(1, "all convolution strategies agree within 1e-4 on 100 "
                      "random instances in under 60 s"):
        for instance in range(100):
            n = sizes[instance % len(sizes)]
            cap = tap_caps[instance % len(tap_caps)]
            x = random_series(rng, n)
            bank = random_bank(rng, 3, cap)
            ref = convolve_bank(x, bank, NaiveTd())[0].values
            scale = max(float(ref.max()), 1e-30)
            for strategy in strategies:
                out = fop_from(convolve_bank(x, bank, strategy)[0]).values
                err = float(np.max(np.abs(out - ref))) / scale
                assert err < 1e-4, (instance, strategy, err)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_c02_ola_launch_arithmetic():
    with criterion(2, "a 421-tap filter split 128 wide launches 4 sub-filters "
                      "with an effective 512-tap length"):
        assert ola_launch_count(421, 128) == 4
        assert ola_padded_length(421, 128) == 512


def test_c03_ols_chunk_accounting():
    rng = np.random.default_rng(103)
    with criterion(3, "2048-point chunks with 421 taps keep 1628 valid points "
                      "each, discard removes exactly 420, length preserved"):
        n = 2 ** 13
        x = random_series(rng, n)
        h = random_taps(rng, 421)
        series, raw = fir_ols_fd(x, h, 2048)
        assert raw.overlap == 420
        assert raw.advance == 1628
        assert discard(raw).shape == (1, n)
        assert series.size == n
        assert assemble_ols(raw).size == n


def test_c04_harmonic_strategies_match_reference():
    rng = np.random.default_rng(104)
    with criterion(4, "all four harmonic strategies equal the brute-force "
                      "reference exactly on 50 random planes (up to 17x4096)"):
        for instance in range(50):
            rows = int(rng.choice([5, 9, 17]))
            cols = int(rng.choice([256, 1024, 4096]))
            cfg = FdasConfig.desk_scale(n_temp=rows, n_chan=cols, n_hp=8,
                                        n_cand=32)
            fop = Fop(random_plane(rng, rows, cols))
            table = ThresholdTable.from_plane(fop, 8, sigma_factor=1.0)
            _, ref = harmonic_sum_naive(fop, table, cfg)
            assert len(ref) > 0
            block_cols = 16
            runs = [harmonic_sum(prepare(fop, strategy, 8).plane, table, cfg)
                    for strategy in (SingleHp(), NaiveMultipleHp(),
                                     MultipleHpN(4), MultipleHpR(block_cols, 4))]
            for cands in runs:
                assert cands.same_as(ref), instance


def test_c05_stage_latency_additivity():
    with criterion(5, "stage totals (347, 560, 122) and (190, 633, 149) ms "
                      "give 1029 and 972 ms exactly"):
        assert total_latency(StageTiming.from_totals(347, 560, 122)) == 1029
        assert total_latency(StageTiming.from_totals(190, 633, 149)) == 972


def test_c06_buffering_rule():
    rng = np.random.default_rng(106)
    with criterion(6, "buffering choice matches every reference combination "
                      "row and the half-latency rule on 10^4 random triples"):
        for name, t_fdas, period, buffering in REFERENCE_ROWS:
            st = reference_timing(t_fdas, period, buffering)
            assert choose_buffering(st) == buffering, name
        triples = rng.uniform(1e-3, 10.0, size=(10_000, 3))
        for a, b, c in triples:
            expected = 3 if max(a, b, c) < (a + b + c) / 2 else 2
            assert choose_buffering(StageTiming.from_totals(a, b, c)) == expected
        for a, b, c in triples[:500]:
            s = float(rng.uniform(1e-2, 1e3))
            assert choose_buffering(StageTiming.from_totals(a * s, b * s, c * s)) \
                == choose_buffering(StageTiming.from_totals(a, b, c))


def test_c07_multi_device_partitioning():
    rng = np.random.default_rng(107)
    with criterion(7, "max(a,b,c)/n <= max(a,b,c/n) on 10^4 triples and the "
                      "three-device period of the 570 ms row is 190 ms"):
        triples = rng.uniform(1e-3, 10.0, size=(10_000, 3))
        for n in (2, 3, 4):
            lhs = triples.max(axis=1) / n
            rhs = np.maximum(triples[:, 0],
                             np.maximum(triples[:, 1], triples[:, 2] / n))
            assert (lhs <= rhs + 1e-15).all()
        st = reference_timing(856, 570, 2)
        assert multi_device_period(st, 3, "multi-input",
                                   DeviceModel.nominal()) == 190.0


def test_c08_pipeline_speedup_bounds():
    with criterion(8, "measured sweep speedups stay within the buffering "
                      "depth and a balanced case reaches at least 1.9x"):
        cfg = FdasConfig.desk_scale(n_chan=1024, n_temp=5, n_tap=17, n_cand=16)
        rows, plane_bytes = measure_sweep(cfg, reps=1, seed=8)
        assert len(rows) == len(CONV_KINDS) * len(HM_KINDS)
        report = sweep(rows, DeviceModel.nominal(), plane_bytes=plane_bytes)
        for row in report:
            speedup = row["t_fdas"] / row["period_ideal"]
            assert speedup <= row["buffering"] + 1e-9, row["combination"]
        balanced = StageTiming.from_totals(1.0, 1.0, 0.0)
        buffering = choose_buffering(balanced)
        assert buffering == 2
        speedup = total_latency(balanced) / ideal_period(balanced, buffering)
        assert speedup >= 1.9


def test_c09_contention_against_event_oracle():
    with criterion(9, "overlapping launches stretch, the saturating transpose "
                      "pends its partner, and the contended period matches an "
                      "independent simulation within 1%"):
        ms = 1e-3
        st = StageTiming(
            per_launch=[10 * ms] * 21,
            t_discard=40 * ms, b_discard=True,
            t_transpose=30 * ms, b_transpose=True,
            t_hm=60 * ms,
            demands={"ft": 0.6, "discard": 0.6, "transpose": 1.5, "hm": 0.1})
        dev = DeviceModel(1.0, 1e9, 1e9, 1.0)
        streams = [[(t, st.demands["ft"]) for t in st.per_launch],
                   [(st.t_discard, st.demands["discard"]),
                    (st.t_transpose, st.demands["transpose"])],
                   [(st.t_hm, st.demands["hm"])]]
        finish = []
        for n in range(1, 22):
            partial = [streams[0][:n], list(streams[1]), list(streams[2])]
            finish.append(simulate_overlap(partial, 1.0)[0])
        durations = np.diff([0.0] + finish)
        blocked = int(np.argmax(durations))
        assert durations[0] > 1.2 * 10 * ms          # stretched by the discard
        assert durations[blocked] > 3 * 10 * ms       # pended by the transpose
        assert durations[-1] == pytest.approx(10 * ms, rel=1e-6)
        assert np.mean(durations[:blocked + 1]) > np.mean(durations[blocked + 1:])
        got = contended_period(st, dev, 3)
        oracle = max(step_oracle(streams, 1.0, dt=1e-5))
        assert abs(got - oracle) / oracle < 0.01


def test_c10_end_to_end_tone_recovery():
    with criterion(10, "a clean injected tone is recovered by every strategy "
                       "combination, and at 10x noise in >= 95% of 100 trials"):
        cfg = FdasConfig.desk_scale(n_chan=1024, n_temp=5, n_tap=17, n_cand=16)
        channel, amplitude = 600, 10.0
        for conv_kind in CONV_KINDS:
            for hm_kind in HM_KINDS:
                spec = RunSpec(config=cfg, conv_kind=conv_kind,
                               conv_param=256 if conv_kind == "ols-fd" else None,
                               hm_kind=hm_kind,
                               injections=((channel, cfg.n_hp, amplitude),),
                               noise_sigma=0.0, threshold=1e-6, seed=42)
                _, cands, _, _ = execute(spec)
                assert channel in fundamental_channels(cands), (conv_kind, hm_kind)
        sigma = amplitude / 10.0  # signal-to-noise of 10
        ks = np.arange(1, cfg.n_hp + 1)
        per_k = 2 * ks * sigma ** 2 + 16 * np.sqrt(ks) * sigma ** 2
        hits = 0
        for trial in range(100):
            spec = RunSpec(config=cfg, conv_kind="ols-fd", conv_param=256,
                           hm_kind="naive-multi",
                           injections=((channel, cfg.n_hp, amplitude),),
                           noise_sigma=sigma, seed=1000 + trial)
            fop, _, _, plane = execute(spec)
            table = ThresholdTable.constant(per_k.astype(np.float32),
                                            cfg.n_hp, fop.n_templates)
            cands = harmonic_sum(plane, table, cfg)
            if channel in fundamental_channels(cands):
                hits += 1
        assert hits >= 95, f"recovered {hits}/100"


def test_c11_determinism_across_threads(tmp_path):
    with criterion(11, "identical run specifications produce bit-identical "
                       "plane files and candidate CSVs for 1, 2 and 8 threads"):
        cfg = FdasConfig.desk_scale(n_chan=1024, n_temp=5, n_tap=17, n_cand=16)
        blobs = []
        for threads in (1, 2, 8):
            spec = RunSpec(config=cfg, conv_kind="ols-fd", conv_param=256,
                           hm_kind="multi-r",
                           injections=((300, 8, 12.0),), noise_sigma=0.4,
                           seed=77, threads=threads)
            out = tmp_path / f"threads-{threads}"
            paths = run_pipeline(spec, out)
            blobs.append((paths["fop"].read_bytes(),
                          paths["candidates"].read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]
        repeat = run_pipeline(
            RunSpec(config=cfg, conv_kind="ols-fd", conv_param=256,
                    hm_kind="multi-r", injections=((300, 8, 12.0),),
                    noise_sigma=0.4, seed=77, threads=2),
            tmp_path / "repeat")
        assert repeat["fop"].read_bytes() == blobs[0][0]
        assert repeat["candidates"].read_bytes() == blobs[0][1]
        assert load_fop(repeat["fop"]).rows == 5
