"""Command-line harness: artifacts, determinism, exit codes."""

import argparse
import json

import numpy as np
import pytest

from fdas.cli import build_parser, main
from fdas.convolution import CONV_KINDS
from fdas.core import FdasConfig, load_fop, save_config
from fdas.harmonic import HM_KINDS, CandidateList
from fdas.harness import RunSpec, SpecError, verification_checks
from fdas.pipeline import StageTiming

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


class TestRun:
    def test_artifacts_round_trip(self, tmp_path, desk_config):
        out = tmp_path / "run"
        rc = run_cli("run", "--config", desk_config, "--out", str(out),
                     "--conv", "ols-fd", "--conv-param", "256",
                     "--hm", "multi-r", "--inject", "200:8:20.0", "--seed", "3")
        assert rc == 0
        fop = load_fop(out / "fop.fop")
        assert fop.rows == 5 and fop.cols == 1024
        cands = CandidateList.from_csv(out / "candidates.csv", 16)
        assert 200 in cands.channels_for(1)
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
                                       ("--hm", "naive-multi", "--hm-ppi", "0"),
                                       ("--hm", "single", "--hm-cols", "4"),
                                       ("--filters-per-launch", "0"),
                                       ("--templates", "0"),
                                       ("--noise", "-1")])
    def test_zero_strategy_parameter_exits_2(self, tmp_path, desk_config,
                                             flags):
        # 0 is a value to validate, not a request for the default; a parameter
        # the strategy does not take would have no effect. Run values outside
        # their range are rejected the same way, before any output is made
        rc = run_cli("run", "--config", desk_config, "--out", str(tmp_path / "x"),
                     *flags)
        assert rc == 2
        assert not (tmp_path / "x").exists()

    def test_runtime_error_exits_1(self, tmp_path, desk_config):
        # injection channel beyond the plane is caught while running, not
        # while validating the spec
        rc = run_cli("run", "--config", desk_config, "--out", str(tmp_path / "x"),
                     "--inject", "99999:1:1.0")
        assert rc == 1

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
                       "--devices", "3", "--scheme", "single-input") == 0
        plan = json.loads((out / "plan.json").read_text())
        assert plan["n_devices"] == 3 and plan["scheme"] == "single-input"
        assert set(plan["period_multidevice"]) == {"single-input", "multi-input",
                                                   "multi-config"}
        assert plan["period_contended"] >= plan["period"] - 1e-12

    def test_tight_time_limit_flags_reconfiguration(self, tmp_path):
        # device reconfiguration takes ~1 s; a 50 ms limit rules it out
        cfg_path = tmp_path / "cfg.json"
        save_config(FdasConfig.desk_scale(**DESK, t_limit=0.05), cfg_path)
        out = tmp_path / "limited"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
        plan = json.loads((out / "plan.json").read_text())
        assert any("reconfig" in note for note in plan["notes"])

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--frobnicate")
        assert exc.value.code == 2

    def test_help_lists_documented_flags(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("run", "--help")
        text = capsys.readouterr().out
        for flag in ("--config", "--conv", "--conv-param", "--hm", "--hm-cols",
                     "--hm-ppi", "--devices", "--scheme", "--seed", "--threads",
                     "--out"):
            assert flag in text


class TestVerify:
    def test_passes_and_is_deterministic(self, capsys):
        assert run_cli("verify", "--scale", "1024") == 0
        first = capsys.readouterr().out
        assert run_cli("verify", "--scale", "1024") == 0
        assert capsys.readouterr().out == first

    def test_bad_scale_exits_2(self):
        assert run_cli("verify", "--scale", "1000") == 2

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

    def test_empty_combination_list_exits_2(self, tmp_path):
        tfile = tmp_path / "empty.json"
        tfile.write_text("[]")
        assert run_cli("sweep", "--timings", str(tfile),
                       "--out", str(tmp_path / "s")) == 2

    def test_measured_mode_repeatability(self, tmp_path):
        # measure the slowest combination at a scale where the period is
        # dominated by real work, so run-to-run jitter stays within 20%
        cfg_path = tmp_path / "cfg.json"
        save_config(FdasConfig.desk_scale(), cfg_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            assert run_cli("sweep", "--config", str(cfg_path), "--out", str(out),
                           "--reps", "3", "--conv", "ols-fd",
                           "--hm", "multi-n") == 0
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        assert {r["combination"] for r in r1} == {r["combination"] for r in r2}
        p1 = {r["combination"]: r["period_ideal"] for r in r1}
        p2 = {r["combination"]: r["period_ideal"] for r in r2}
        for combo in p1:
            assert abs(p1[combo] - p2[combo]) / max(p1[combo], 1e-9) < 0.2


class TestRunSpecValidation:
    def test_rejects_bad_scheme(self):
        with pytest.raises(SpecError):
            RunSpec(config=FdasConfig.desk_scale(), scheme="ring")

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
