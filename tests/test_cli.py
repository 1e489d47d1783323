"""Command-line harness: artifacts, determinism, exit codes."""

import argparse
import functools
import itertools
import json
import math
import re
import time
import types
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fdas import convolution, harmonic, harness, prep
from fdas import pipeline as pl
from fdas.cli import build_parser, main
from fdas.convolution import CONV_KINDS
from fdas.core import FdasConfig, InputError, load_fop, save_config
from fdas.harmonic import HM_KINDS, CandidateList
from fdas.harness import (VERIFY_TEMPLATES, RunSpec, SpecError, execute,
                          measure_sweep, verification_checks)
from fdas.pipeline import PipelinePlan, StageTiming

DESK = dict(n_chan=1024, n_temp=5, n_tap=17, n_cand=16)


@pytest.fixture
def desk_config(tmp_path):
    path = tmp_path / "config.json"
    save_config(FdasConfig.desk_scale(**DESK), path)
    return str(path)


def run_cli(*args):
    return main(list(args))


class TestGen:
    def test_writes_deterministic_series(self, tmp_path, desk_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli("gen", "--config", desk_config, "--out", str(out),
                           "--seed", "9", "--inject", "100:2:5.0",
                           "--noise", "0.5") == 0
        a = (out1 / "input.npy").read_bytes()
        b = (out2 / "input.npy").read_bytes()
        assert a == b
        series = np.load(out1 / "input.npy")
        assert series.shape == (1024,) and series.dtype == np.complex64

    def test_needs_no_runnable_combination(self, tmp_path):
        # gen convolves nothing, so a filter longer than the default
        # overlap-save chunk is no reason to refuse it
        cfg_path = tmp_path / "cfg.json"
        save_config(FdasConfig.desk_scale(n_tap=4096), cfg_path)
        assert run_cli("gen", "--config", str(cfg_path),
                       "--out", str(tmp_path / "g")) == 0
        assert (tmp_path / "g" / "input.npy").exists()

    def test_run_reads_the_config_gen_wrote(self, tmp_path, desk_config):
        gen_out, run_out = tmp_path / "g", tmp_path / "r"
        assert run_cli("gen", "--config", desk_config, "--out", str(gen_out)) == 0
        written = json.loads((gen_out / "config.json").read_text())
        assert list(written) == [f.name for f in fields(FdasConfig)]
        assert run_cli("run", "--config", str(gen_out / "config.json"),
                       "--out", str(run_out)) == 0
        assert sorted(p.name for p in run_out.iterdir()) == [
            "candidates.csv", "fop.fop", "plan.json", "timing.json"]


class TestRun:
    def test_artifacts_round_trip(self, tmp_path, desk_config):
        out = tmp_path / "run"
        rc = run_cli("run", "--config", desk_config, "--out", str(out),
                     "--conv", "ols-fd", "--conv-param", "256",
                     "--hm", "multi-r", "--inject", "200:8:20.0", "--seed", "3")
        assert rc == 0
        fop = load_fop(out / "fop.fop")
        assert fop.rows == 5 and fop.cols == 1024
        cands = CandidateList.from_csv(out / "candidates.csv")
        assert 200 in cands.entries["channel"][cands.entries["harmonic"] == 1]
        timing = StageTiming.from_dict(json.loads((out / "timing.json").read_text()))
        assert timing.t_fdas > 0
        assert timing.b_discard and timing.b_transpose and timing.b_reorder
        plan = json.loads((out / "plan.json").read_text())
        assert plan["buffering"] in (1, 2, 3)
        assert plan["period"] <= plan["t_fdas"] + 1e-12

    def test_identical_specs_are_bit_identical(self, tmp_path, desk_config):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("run", "--config", desk_config, "--out", str(out),
                           "--conv", "naive-fd", "--hm", "multi-n",
                           "--inject", "100:4:10.0", "--noise", "0.25",
                           "--seed", "11") == 0
            outs.append(out)
        for artifact in ("fop.fop", "candidates.csv"):
            assert (outs[0] / artifact).read_bytes() == \
                (outs[1] / artifact).read_bytes()

    def test_thread_count_does_not_change_artifacts(self, tmp_path, desk_config):
        blobs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"t{threads}"
            assert run_cli("run", "--config", desk_config, "--out", str(out),
                           "--conv", "ols-fd", "--conv-param", "128",
                           "--hm", "naive-multi", "--inject", "300:8:15.0",
                           "--noise", "0.5", "--seed", "21",
                           "--threads", threads) == 0
            blobs.append(((out / "fop.fop").read_bytes(),
                          (out / "candidates.csv").read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_bad_chunk_exits_2(self, tmp_path, desk_config):
        rc = run_cli("run", "--config", desk_config, "--out", str(tmp_path / "x"),
                     "--conv", "ols-fd", "--conv-param", "8")
        assert rc == 2

    @pytest.mark.parametrize("flags", [("--conv", "ola-td", "--conv-param", "0"),
                                       ("--hm", "multi-r", "--hm-cols", "0"),
                                       ("--conv", "naive-td", "--conv-param", "7"),
                                       ("--devices", "0"),
                                       ("--hm", "single", "--hm-cols", "4"),
                                       ("--filters-per-launch", "0"),
                                       ("--templates", "0"),
                                       ("--noise", "-1"),
                                       ("--threshold", "0"),
                                       ("--threshold", "-1"),
                                       ("--threshold", "nan"),
                                       ("--threshold", "inf"),
                                       ("--threshold", "1e39")])
    def test_zero_strategy_parameter_exits_2(self, tmp_path, desk_config,
                                             flags):
        # 0 is a value to validate, not a request for the default; a parameter
        # the strategy does not take would have no effect. Run values outside
        # their range are rejected the same way, before any output is made
        rc = run_cli("run", "--config", desk_config, "--out", str(tmp_path / "x"),
                     *flags)
        assert rc == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ['{"n_chan": null}', '{"n_chan": 1024.0}'],
                             ids=["null-number", "float-integer"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run_cli("run", "--config", str(cfg_path),
                       "--out", str(tmp_path / "x")) == 2
        key = next(iter(json.loads(text)))
        assert capsys.readouterr().err.startswith(f"error: {key}: expected")
        assert not (tmp_path / "x").exists()

    def test_runtime_error_exits_1(self, tmp_path, capsys, desk_config,
                                   monkeypatch):
        # a stage that fails on a valid spec is a runtime failure
        def failing_bank(*args, **kwargs):
            raise convolution.ConvolutionError("stage failed")

        monkeypatch.setattr(convolution, "convolve_bank", failing_bank)
        rc = run_cli("run", "--config", desk_config, "--out", str(tmp_path / "x"))
        assert rc == 1
        assert capsys.readouterr().err == "error: stage failed\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text", ["1:2", "a:1:1"])
    def test_malformed_injection_exits_2(self, tmp_path, capsys, desk_config,
                                         text):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", desk_config, "--out", str(tmp_path / "x"),
                    "--inject", text)
        assert exc.value.code == 2
        assert "--inject" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_template_count_override(self, tmp_path, desk_config):
        # half-plane style runs drop one template row
        out = tmp_path / "half"
        assert run_cli("run", "--config", desk_config, "--out", str(out),
                       "--templates", "4", "--hm", "multi-r",
                       "--inject", "100:4:10.0") == 0
        assert load_fop(out / "fop.fop").rows == 4

    def test_plan_carries_device_assignment(self, tmp_path, desk_config):
        out = tmp_path / "plan"
        assert run_cli("run", "--config", desk_config, "--out", str(out),
                       "--devices", "3") == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["n_devices"] == 3
        assert set(plan["period_multidevice"]) == {"single-input", "multi-input",
                                                   "multi-config"}
        assert plan["period_contended"] >= plan["period"] - 1e-12
        assert list(plan) == [f.name for f in fields(PipelinePlan)]

    def test_tight_time_limit_flags_reconfiguration(self, tmp_path):
        # device reconfiguration takes ~1 s; a 50 ms limit rules it out
        cfg_path = tmp_path / "cfg.json"
        save_config(FdasConfig.desk_scale(**DESK, t_limit=0.05), cfg_path)
        out = tmp_path / "limited"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert any("reconfig" in note for note in plan["notes"])

    def test_unknown_flag_exits_2(self, capsys):
        # the retired --hm-ppi and --scheme are refused like a misspelt flag
        for flags in (["--frobnicate"], ["--hm-ppi", "4"],
                      ["--scheme", "multi-input"]):
            with pytest.raises(SystemExit) as exc:
                run_cli("run", *flags)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(flags)}" in \
                capsys.readouterr().err

    def test_help_lists_documented_flags(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("run", "--help")
        text = capsys.readouterr().out
        for flag in ("--config", "--conv", "--conv-param", "--hm", "--hm-cols",
                     "--devices", "--seed", "--threads", "--out"):
            assert flag in text


class TestExecute:
    def test_thresholds_are_timed_in_t_hm(self, monkeypatch):
        from_plane = harmonic.ThresholdTable.from_plane

        def slow_from_plane(cls, *args, **kwargs):
            time.sleep(0.05)
            return from_plane(*args, **kwargs)

        monkeypatch.setattr(harmonic.ThresholdTable, "from_plane",
                            classmethod(slow_from_plane))
        spec = RunSpec(config=FdasConfig.desk_scale(**DESK), seed=3)
        assert spec.threshold is None  # thresholds come from the plane
        assert execute(spec)[2].t_hm >= 0.05

    def test_stage_times_fit_in_the_run(self, monkeypatch):
        # two threads run five 20 ms launches side by side, in at least three
        # rounds; as wall spans the three stages add up to no more than the run
        fd_template = convolution._fd_template

        def slow_fd_template(*args):
            time.sleep(0.02)
            return fd_template(*args)

        monkeypatch.setattr(convolution, "_fd_template", slow_fd_template)
        spec = RunSpec(config=FdasConfig.desk_scale(**DESK), conv_kind="naive-fd",
                       threads=2, seed=3)
        t0 = time.perf_counter()
        st = execute(spec)[2]
        wall = time.perf_counter() - t0
        assert 0.06 <= st.t_ft and st.t_fdas <= wall

    def test_raw_chunks_released_before_harmonic_sum(self, monkeypatch):
        raw, alive_at_hm = [], []
        convolve_bank, harmonic_sum = (convolution.convolve_bank,
                                       harmonic.harmonic_sum)

        def keep_ref(*args, **kwargs):
            result, st = convolve_bank(*args, **kwargs)
            raw.append(weakref.ref(result))
            return result, st

        def check_raw(*args, **kwargs):
            alive_at_hm.append(raw[0]() is not None)
            return harmonic_sum(*args, **kwargs)

        monkeypatch.setattr(convolution, "convolve_bank", keep_ref)
        monkeypatch.setattr(harmonic, "harmonic_sum", check_raw)
        spec = RunSpec(config=FdasConfig.desk_scale(**DESK), conv_kind="ols-fd",
                       conv_param=256, seed=3)
        execute(spec)
        assert alive_at_hm == [False]

    @pytest.mark.parametrize("hm_kind", list(HM_KINDS))
    @pytest.mark.parametrize("conv_kind", list(CONV_KINDS))
    def test_threads_leave_plane_and_candidates_unchanged(self, conv_kind,
                                                          hm_kind):
        # criterion 11 for every combination, not only ols-fd + multi-r
        outs = []
        for threads in (1, 3):
            spec = RunSpec(config=FdasConfig.desk_scale(**DESK),
                           conv_kind=conv_kind,
                           conv_param=256 if conv_kind == "ols-fd" else None,
                           hm_kind=hm_kind, seed=7, threads=threads,
                           injections=((800, 8, 10.0), (300, 4, 6.0)),
                           noise_sigma=0.5)
            fop, candidates, _, _ = execute(spec)
            assert len(candidates) > 0
            outs.append((fop.values.tobytes(), candidates.entries.tobytes()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("hm_kind", list(HM_KINDS))
    @pytest.mark.parametrize("conv_kind", list(CONV_KINDS))
    def test_readers_get_the_template_major_plane(self, monkeypatch, conv_kind,
                                                  hm_kind):
        # the host reads one layout: harmonic_sum and reorder get the plane
        # the convolution built; the transpose is only timed for the model
        got = {}

        def spy(name, fn):
            def recording(plane, *rest):
                got[name] = plane
                return fn(plane, *rest)
            return recording

        monkeypatch.setattr(harmonic, "harmonic_sum",
                            spy("harmonic_sum", harmonic.harmonic_sum))
        monkeypatch.setattr(prep, "reorder", spy("reorder", prep.reorder))
        spec = RunSpec(config=FdasConfig.desk_scale(**DESK), conv_kind=conv_kind,
                       conv_param=256 if conv_kind == "ols-fd" else None,
                       hm_kind=hm_kind, seed=7)
        fop, _, st, plane = execute(spec)
        assert got["harmonic_sum"] is plane
        if hm_kind == "multi-r":
            assert got["reorder"] is fop and isinstance(plane, prep.RFop)
        else:
            assert "reorder" not in got and plane is fop
        assert not fop.channel_major
        assert st.b_transpose == prep._TRANSPOSED[hm_kind][conv_kind == "ols-fd"]
        assert (st.t_transpose > 0) == st.b_transpose

    def test_seeded_config_space_fuzz(self):
        # every desk-scale config the spec accepts runs and matches the brute
        # force on its own plane; the one refusal is the overlap-save chunk rule
        rng = np.random.default_rng(2601)
        found = refused = 0
        for seed in range(200):
            n_chan = 1 << int(rng.integers(0, 11))
            cfg = FdasConfig.desk_scale(
                n_chan=n_chan, n_temp=2 * int(rng.integers(0, 8)) + 1,
                n_tap=int(rng.integers(1, 2 * n_chan + 41)),
                n_hp=int(rng.integers(1, 20)), n_cand=int(rng.integers(1, 40)))
            conv_kind = str(rng.choice(list(CONV_KINDS)))
            hm_kind = str(rng.choice(list(HM_KINDS)))
            conv_param = {"ola-td": 1 << int(rng.integers(0, 9)),
                          "ols-fd": 1 << int(rng.integers(1, 13))}.get(conv_kind)
            hm_cols = (int(rng.integers(1, 21))
                       if hm_kind in ("multi-n", "multi-r") else None)
            tone = (((int(rng.integers(0, n_chan)), int(rng.integers(1, 9)),
                      float(rng.uniform(1, 20))),) if rng.random() < 0.5 else ())
            threshold = float(rng.uniform(0.05, 5)) if rng.random() < 0.5 else None
            try:
                spec = RunSpec(config=cfg, conv_kind=conv_kind,
                               conv_param=conv_param, hm_kind=hm_kind,
                               hm_cols=hm_cols, seed=seed,
                               threads=int(rng.integers(1, 4)),
                               filters_per_launch=int(rng.integers(1, 4)),
                               threshold=threshold, injections=tone,
                               noise_sigma=float(rng.choice([0.0, 0.5])))
            except SpecError as exc:
                assert "must exceed n_tap-1" in str(exc), exc
                refused += 1
                continue
            fop, candidates, _, _ = execute(spec)
            if threshold is None:
                table = harmonic.ThresholdTable.from_plane(fop, cfg.n_hp)
            else:
                table = harmonic.ThresholdTable.constant(threshold, cfg.n_hp,
                                                         fop.n_templates)
            _, reference = harmonic.harmonic_sum_naive(fop, table, cfg)
            assert candidates.same_as(reference), spec
            found += len(candidates) > 0
        # both outcomes are drawn often, and most runs find candidates
        assert 0 < refused < 50 and found > 100


class TestVerify:
    def test_passes_and_is_deterministic(self, capsys):
        assert run_cli("verify", "--scale", "1024") == 0
        first = capsys.readouterr().out
        assert run_cli("verify", "--scale", "1024") == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("scale", sorted(VERIFY_TEMPLATES))
    def test_every_check_passes_at_every_scale(self, scale):
        checks = verification_checks(scale)
        assert [c.name for c in checks] == [c.name for c in verification_checks()]
        assert all(c.passed for c in checks), [c.name for c in checks
                                               if not c.passed]

    def test_checks_every_registered_strategy(self, monkeypatch):
        # a kind added to a registry is verified with no other edit
        monkeypatch.setitem(CONV_KINDS, "naive-td-2", convolution.NaiveTd)
        monkeypatch.setitem(HM_KINDS, "single-2", harmonic.SingleHp)
        checks = {c.name: c.passed for c in verification_checks()}
        assert checks["convolution ols-fd vs naive-td-2"]
        assert checks["harmonic single-2 vs reference"]
        assert len(checks) == 12 + 4 + 1

    def test_bad_scale_exits_2(self):
        assert run_cli("verify", "--scale", "1000") == 2

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        checks = functools.partial(verification_checks, corrupt=(1, 7, 1000.0))
        monkeypatch.setattr(harness, "verification_checks", checks)
        assert run_cli("verify", "--scale", "1024") == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"\d+ of \d+ checks failed: harmonic .*", last)

    def test_corruption_is_detected_and_named(self):
        checks = verification_checks(1024, seed=0, corrupt=(1, 7, 1000.0))
        failing = [c for c in checks if not c.passed]
        assert failing, "a corrupted plane must fail at least one check"
        assert all(c.name.startswith("harmonic") for c in failing)
        assert any("seed 0" in c.detail for c in failing)


class TestSweep:
    def test_from_timings_file(self, tmp_path):
        timings = [
            {"combination": "platform-a", "t_ft": 347, "t_fop": 560, "t_hm": 122},
            {"combination": "platform-b", "t_ft": 190, "t_fop": 633, "t_hm": 149},
        ]
        tfile = tmp_path / "timings.json"
        tfile.write_text(json.dumps(timings))
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--timings", str(tfile), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        got = {r["combination"]: r["t_fdas"] for r in report}
        assert got == {"platform-a": 1029, "platform-b": 972}

    def test_tight_time_limit_notes_rows(self, tmp_path):
        # the config's t_limit reaches the sweep as it reaches `fdas run`
        cfg_path = tmp_path / "cfg.json"
        save_config(FdasConfig.desk_scale(**DESK, t_limit=0.05), cfg_path)
        tfile = tmp_path / "timings.json"
        tfile.write_text(json.dumps(
            [{"combination": "platform-a", "t_ft": 347, "t_fop": 560, "t_hm": 122}]))
        out = tmp_path / "sweep"
        assert run_cli("sweep", "--timings", str(tfile), "--config", str(cfg_path),
                       "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert all(any("reconfig" in note for note in row["notes"])
                   for row in report)

    def test_malformed_timings_exit_2(self, tmp_path):
        tfile = tmp_path / "bad.json"
        tfile.write_text("{oops")
        assert run_cli("sweep", "--timings", str(tfile),
                       "--out", str(tmp_path / "s")) == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("rows,named", [
        ([1], ""), ([{"combination": "x", "t_ft": "a"}], "t_ft"),
        ([{"combination": "x", "per_launch": [1], "t_klo": None}], "t_klo"),
        ([{"combination": "x", "per_launch": [1], "demands": [1]}], "demands"),
        ([{"combination": "x", "per_launch": [1], "demands": {"hm": "x"}}],
         "demands['hm']"),
        ([{"combination": "x", "per_launch": [1], "b_discard": "no"}],
         "b_discard"),
        ([{"combination": ["x"], "t_ft": 1}], "combination"),
        # json writes inf as Infinity and reads 1e400 as the same inf
        ([{"combination": "x", "t_ft": math.nan}],
         "t_ft must be a finite number >= 0, got nan"),
        ([{"combination": "x", "t_ft": math.inf}], "t_ft must be"),
        ([{"combination": "x", "per_launch": [1, math.nan]}],
         "per_launch[1] must be a finite number >= 0, got nan"),
        ([{"combination": "x", "per_launch": [math.inf]}], "per_launch[0]"),
        ([{"combination": "x", "per_launch": [1], "demands": {"hm": math.nan}}],
         "demands['hm'] must be a finite number >= 0, got nan"),
        ([{"combination": "x", "t_ft": 1, "demands": {"ft": math.inf}}],
         "demands['ft']"),
        ([{"combination": "x", "t_ft": 1, "t_hm": True}], "t_hm"),
        ([{"combination": "x", "t_ft": 1, "demands": None}], "demands"),
        ([{"combination": "x", "t_ft": 1, "t_fop": math.nan}],
         "t_fop must be a finite number >= 0, got nan"),
        # finite parts whose sums overflow a float
        ([{"combination": "x", "per_launch": [1e308, 1e308, 1e308]}],
         "t_ft must be finite, got inf"),
        ([{"combination": "x", "t_ft": 1e308, "t_hm": 1e308}],
         "t_fdas must be finite, got inf")],
        ids=["not-an-object", "text-time", "null-time", "list-demands",
             "text-demand", "text-flag", "list-combination", "nan-time",
             "inf-time", "nan-launch", "inf-launch", "nan-demand", "inf-demand",
             "bool-time", "null-demands", "nan-fop", "overflow-launches",
             "overflow-total"])
    def test_malformed_timing_row_exits_2(self, tmp_path, capsys, monkeypatch,
                                          rows, named):
        # a row that reached the overlap model would be a row let through
        def no_model(*args):
            raise AssertionError("a malformed row reached the model")

        monkeypatch.setattr(pl, "simulate_overlap", no_model)
        tfile = tmp_path / "bad.json"
        tfile.write_text(json.dumps(rows))
        assert run_cli("sweep", "--timings", str(tfile),
                       "--out", str(tmp_path / "s")) == 2
        err = capsys.readouterr().err
        assert "row 0" in err and named in err
        assert not (tmp_path / "s").exists()

    def test_empty_combination_list_exits_2(self, tmp_path):
        tfile = tmp_path / "empty.json"
        tfile.write_text("[]")
        assert run_cli("sweep", "--timings", str(tfile),
                       "--out", str(tmp_path / "s")) == 2

    def test_measure_sweep_needs_a_combination(self):
        with pytest.raises(SpecError, match="at least one combination"):
            measure_sweep(FdasConfig.desk_scale(**DESK), [])

    def test_measured_mode_repeatability(self, tmp_path, monkeypatch):
        # Two sweeps read the same injected clock, restarted for each, so
        # their reports must be byte-identical: the wall clock would only
        # measure the machine's jitter. The clock's step grows with every
        # call, so the three repetitions read different times and the
        # median repetition is a real choice.
        cfg_path = tmp_path / "cfg.json"
        save_config(FdasConfig.desk_scale(), cfg_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            calls = itertools.count(1)
            now = [0.0]

            def perf_counter():
                now[0] += 1e-4 * next(calls)
                return now[0]

            clock = types.SimpleNamespace(perf_counter=perf_counter)
            for module in (convolution, prep, harness):
                monkeypatch.setattr(module, "time", clock)
            assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out),
                           "--reps", "3", "--conv", "ols-fd",
                           "--hm", "multi-n") == 0
        for name in ("report.json", "report.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_exit_2(self, tmp_path, reps):
        assert run_cli("sweep", "--out", str(tmp_path / "s"), "--reps", reps,
                       "--conv", "naive-td", "--hm", "single") == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag", [
        ["--reps", "0"], ["--reps", "5"], ["--threads", "0"], ["--seed", "3"],
        ["--conv", "ols-fd"], ["--hm", "single"]], ids=lambda f: " ".join(f))
    def test_measured_flags_with_timings_exit_2(self, tmp_path, capsys, flag):
        tfile = tmp_path / "timings.json"
        tfile.write_text(json.dumps(
            [{"combination": "platform-a", "t_ft": 347, "t_fop": 560, "t_hm": 122}]))
        assert run_cli("sweep", "--timings", str(tfile),
                       "--out", str(tmp_path / "s"), *flag) == 2
        assert flag[0] in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("devices", ["0", "-2"])
    def test_bad_devices_exit_2_before_measuring(self, tmp_path, monkeypatch,
                                                 devices):
        def no_measuring(*args, **kwargs):
            raise AssertionError("measured before checking --devices")

        monkeypatch.setattr(harness, "measure_sweep", no_measuring)
        assert run_cli("sweep", "--out", str(tmp_path / "s"), "--devices",
                       devices, "--conv", "naive-td", "--hm", "single") == 2
        assert not (tmp_path / "s").exists()


class TestFileErrors:
    """An input file that cannot be read exits 2 and an output that cannot be
    written exits 1, each with one ``error:`` line and no output directory."""

    @pytest.fixture
    def unreadable(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe{")  # not UTF-8
        return {"missing": tmp_path / "missing.json", "directory": tmp_path,
                "binary": binary}

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    @pytest.mark.parametrize("command", ["gen", "run", "sweep"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, unreadable,
                                       command, kind):
        path, out = unreadable[kind], tmp_path / "out"
        assert run_cli(command, "--config", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {path}: cannot read (")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_timings_exit_2(self, tmp_path, capsys, unreadable, kind):
        path, out = unreadable[kind], tmp_path / "out"
        assert run_cli("sweep", "--timings", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: timing file {path}: cannot read (")
        assert err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("command", [["gen"], ["run"],
                                         ["sweep", "--timings", "timings.json"]],
                             ids=lambda c: c[0])
    def test_out_naming_a_file_exits_1(self, tmp_path, capsys, monkeypatch,
                                       desk_config, command):
        monkeypatch.chdir(tmp_path)
        Path("timings.json").write_text(
            json.dumps([{"combination": "a", "t_ft": 1, "t_fop": 1, "t_hm": 1}]))
        Path("taken").write_text("kept")

        def no_search(spec):  # --out is checked before the search runs
            raise AssertionError("harness.execute ran")

        monkeypatch.setattr(harness, "execute", no_search)
        assert run_cli(*command, "--config", desk_config, "--out", "taken") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert Path("taken").read_text() == "kept"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "taken", "timings.json"]

    def test_out_under_a_file_exits_1_before_the_search(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("kept")
        monkeypatch.setattr(harness, "execute", lambda spec: pytest.fail("searched"))
        assert run_cli("run", "--out", "taken/sub") == 1
        assert capsys.readouterr().err == "error: taken: not a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


class TestRunSpecValidation:
    def test_rejects_bad_scheme(self):
        with pytest.raises(SpecError):
            RunSpec(config=FdasConfig.desk_scale(), scheme="ring")

    @pytest.mark.parametrize("fields,message", [
        (dict(conv_kind="bogus"), "unknown convolution strategy"),
        (dict(seed=-1), "seed must be >= 0"),
        # counts that are not integers: each would build and run, or fail
        # deep in execute with a TypeError
        (dict(threads=1.5), "threads must be an integer, got 1.5"),
        (dict(threads=True), "threads must be an integer, got True"),
        (dict(n_devices=1.5), "n_devices must be an integer"),
        (dict(n_templates=True), "n_templates must be an integer"),
        (dict(hm_kind="multi-n", hm_cols=2.0), "cols_per_group must be an integer"),
        (dict(n_templates=2.5), "n_templates must be an integer"),
        (dict(filters_per_launch=1.5), "filters_per_launch must be an integer"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(conv_param=1024.0), "chunk must be a power of two, got 1024.0"),
        (dict(hm_kind="multi-r", hm_ppi=4.0), "points_per_item must be an integer")],
        ids=["bogus-conv", "negative-seed", "threads-float", "threads-bool",
             "devices-float", "templates-bool", "hm-cols-float",
             "templates-float", "filters-float", "seed-float",
             "conv-param-float", "hm-ppi-float"])
    def test_built_spec_is_valid(self, fields, message):
        with pytest.raises(SpecError, match=message):
            RunSpec(config=FdasConfig.desk_scale(), **fields)

    @pytest.mark.parametrize("command", [
        ["gen", "--noise", "1"], ["run"], ["verify"],
        ["sweep", "--conv", "naive-td", "--hm", "single"]],
        ids=lambda c: c[0])
    def test_negative_seed_exits_2(self, tmp_path, capsys, desk_config, command):
        # numpy's generators would raise a ValueError deep in the run
        out = tmp_path / "out"
        where = [] if command[0] == "verify" else ["--config", desk_config,
                                                  "--out", str(out)]
        assert run_cli(*command, *where, "--seed", "-1") == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "run"])
    def test_negative_noise_exits_2(self, tmp_path, capsys, desk_config, command):
        out = tmp_path / "out"
        assert run_cli(command, "--config", desk_config, "--out", str(out),
                       "--noise", "-1") == 2
        assert capsys.readouterr().err == "error: noise_sigma must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", [
        ["--noise", "nan"], ["--noise", "inf"],
        ["--inject", "800:8:nan"], ["--inject", "800:8:inf"]],
        ids=["noise-nan", "noise-inf", "amplitude-nan", "amplitude-inf"])
    @pytest.mark.parametrize("command", ["gen", "run"])
    def test_non_finite_noise_or_amplitude_exits_2(self, tmp_path, capsys,
                                                   desk_config, command, flag):
        # one check, in core.check_generation: no argparse usage text
        out = tmp_path / "out"
        assert run_cli(command, "--config", desk_config, "--out", str(out),
                       *flag) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err and "usage:" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [
        ["--inject", "5:0:1.0"], ["--inject", "99999:1:1.0"],
        ["--inject", "5:1:0"], ["--inject", "5:1:-1.0"],
        ["--noise", "1e39"], ["--inject", "5:1:1e39"]],
        ids=["zero-harmonics", "channel-out-of-range", "zero-amplitude",
             "negative-amplitude", "noise-overflow", "amplitude-overflow"])
    @pytest.mark.parametrize("command", ["gen", "run"])
    @pytest.mark.filterwarnings("error")  # no overflow warning either
    def test_invalid_or_overflowing_input_exits_2(self, tmp_path, capsys,
                                                  desk_config, command, flag):
        out = tmp_path / "out"
        assert run_cli(command, "--config", desk_config, "--out", str(out),
                       *flag) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("amplitude", ["1e25", "3e38"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("conv_kind", list(CONV_KINDS))
    @pytest.mark.filterwarnings("error")  # no overflow warning either
    def test_power_overflow_exits_2(self, tmp_path, capsys, desk_config,
                                    conv_kind, threads, amplitude):
        # a finite complex64 series whose filter-output power is not finite
        # in float32 (3e38 overflows the convolution itself)
        out = tmp_path / "out"
        assert run_cli("run", "--config", desk_config, "--out", str(out),
                       "--conv", conv_kind, "--threads", threads,
                       "--inject", f"100:1:{amplitude}") == 2
        err = capsys.readouterr().err
        assert err == ("error: the filter-output power overflows float32; "
                       "scale the input series down\n")
        assert not out.exists()

    @pytest.mark.parametrize("injection,message", [
        ((5, 0, 1.0), "harmonics must be >= 1"),
        ((1024, 1, 1.0), r"channel 1024 out of range \[0, 1024\)"),
        ((-1, 1, 1.0), "channel -1 out of range"),
        ((5.0, 1, 1.0), "channel and harmonics must be integers"),
        ((5, True, 1.0), "channel and harmonics must be integers"),
        ((5, 1, 0.0), "amplitude must be finite and > 0"),
        ((5, 1, float("nan")), "amplitude must be finite and > 0")],
        ids=["zero-harmonics", "channel-n-chan", "channel-negative",
             "channel-float", "harmonics-bool", "zero-amplitude", "nan-amplitude"])
    def test_each_injection_checked_when_built(self, injection, message):
        with pytest.raises(InputError, match=message):
            RunSpec(config=FdasConfig.desk_scale(**DESK),
                    injections=((100, 2, 5.0), injection))

    def test_rejects_bad_devices(self):
        with pytest.raises(SpecError):
            RunSpec(config=FdasConfig.desk_scale(), n_devices=0)

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_strategy_choices_are_the_registries(self, command):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices[command]._actions}
        assert list(choices["conv"]) == list(CONV_KINDS)
        assert list(choices["hm"]) == list(HM_KINDS)

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for sub in ("gen", "run", "verify", "sweep"):
            assert sub in text
