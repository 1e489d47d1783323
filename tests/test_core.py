"""Configuration, data types, file formats, and input synthesis."""

import json
import tracemalloc

import numpy as np
import pytest

from fdas.cli import main
from fdas.core import (ConfigError, FdasConfig, FdasError, FilterBank, Fop,
                       FormatError, InputError, as_series, generate_input,
                       load_config, load_fop, save_config, save_fop,
                       signed_range, storage_row, synthetic_bank)


class TestConfig:
    def test_defaults_match_requirements_table(self):
        cfg = FdasConfig()
        assert cfg.n_temp == 85
        assert cfg.n_chan == 2 ** 21
        assert cfg.n_tap == 421
        assert cfg.n_hp == 8
        assert cfg.n_cand == 200
        assert cfg.t_limit is None

    def test_empty_file_gives_all_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("")
        assert load_config(path) == FdasConfig()
        path.write_text("{}")
        assert load_config(path) == FdasConfig()

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_temp": 9, "n_chan": 4096}))
        cfg = load_config(path)
        assert cfg.n_temp == 9 and cfg.n_chan == 4096
        assert cfg.n_tap == 421 and cfg.n_cand == 200

    def test_round_trip(self, tmp_path):
        cfg = FdasConfig.desk_scale(t_limit=2.5)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_unknown_field_named(self, tmp_path):
        # a retired key such as n_beams is refused like a misspelt one
        path = tmp_path / "cfg.json"
        for key, value in (("n_taps", 10), ("n_beams", 2000)):
            path.write_text(json.dumps({key: value}))
            with pytest.raises(ConfigError, match=f"^{key}: unknown config field$"):
                load_config(path)

    def test_wrong_type_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_temp": "many"}))
        with pytest.raises(ConfigError, match="n_temp"):
            load_config(path)

    @pytest.mark.parametrize("raw", [{"t_limit": True}, {"t_limit": False}],
                             ids=["t_limit-true", "t_limit-false"])
    def test_boolean_for_float_field_named(self, tmp_path, raw):
        # JSON booleans are ints to Python; a float field rejects them as an
        # integer field does, naming the field and the type
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        key = next(iter(raw))
        with pytest.raises(ConfigError, match=f"{key}: expected a number"):
            load_config(path)

    @pytest.mark.parametrize("text", ['{"t_limit": NaN}', '{"t_limit": Infinity}',
                                      '{"t_limit": 1e400}'],
                             ids=["t_limit-nan", "t_limit-inf", "t_limit-1e400"])
    def test_null_or_non_finite_number_named(self, tmp_path, text):
        # Python's json reads NaN, Infinity and 1e400 as floats
        path = tmp_path / "cfg.json"
        path.write_text(text)
        key = next(iter(json.loads(text)))
        with pytest.raises(ConfigError, match=f"{key}: expected a number"):
            load_config(path)

    def test_in_memory_values_checked_by_type(self):
        with pytest.raises(ConfigError, match="n_chan: expected an integer"):
            FdasConfig(n_chan=1024.0)
        with pytest.raises(ConfigError, match="n_hp: expected an integer"):
            FdasConfig(n_hp=True)
        # numpy scalars are numbers like any other
        cfg = FdasConfig(n_chan=np.int64(1024), t_limit=np.float32(1.5))
        assert cfg.n_chan == 1024 and cfg.t_limit == 1.5

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("bad", [dict(n_temp=8), dict(n_chan=1000),
                                     dict(n_tap=0), dict(n_hp=0),
                                     dict(n_cand=0)])
    def test_invariants_enforced(self, bad):
        with pytest.raises(ConfigError):
            FdasConfig(**bad)

    def test_full_scale_plane_size(self):
        # full plane is ~713 MB, matching the stated ~710 MB footprint
        size = FdasConfig().n_temp * FdasConfig().n_chan * 4
        assert size == 713031680
        assert abs(size / 1e6 - 710) / 710 < 0.01


class TestInputChecks:
    @pytest.mark.parametrize("text,message", [
        ('{"t_limit": 0}', "t_limit: must be > 0, got 0"),
        ("[]", "top level must be an object")], ids=["zero-t-limit", "list"])
    def test_config_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        assert main(["gen", "--config", str(path), "--out",
                     str(tmp_path / "x")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("call,error,message", [
        (lambda: FilterBank([np.ones((2, 2))]), FdasError,
         "template 0: must be a non-empty 1-D array"),
        (lambda: generate_input(FdasConfig.desk_scale(), noise_sigma=1e39),
         InputError, "overflow"),
        (lambda: generate_input(FdasConfig.desk_scale(), [(8, 4, 2e38)]),
         InputError, "overflow")],
        ids=["2-d-template", "noise-overflow", "summed-amplitude-overflow"])
    def test_typed_error(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


class TestSignedIndexing:
    @pytest.mark.parametrize("n_rows", [1, 3, 9, 85, 42])
    def test_bijection(self, n_rows):
        seen = set()
        for i in signed_range(n_rows):
            row = storage_row(int(i), n_rows)
            assert signed_range(n_rows)[row] == i
            seen.add(row)
        assert seen == set(range(n_rows))

    def test_symmetric_for_odd(self):
        r = signed_range(9)
        assert r[0] == -4 and r[-1] == 4 and r[4] == 0

    def test_out_of_range(self):
        with pytest.raises(FdasError):
            storage_row(5, 9)
        with pytest.raises(FdasError):
            storage_row(-5, 9)


class TestFopType:
    def test_validation(self):
        with pytest.raises(FormatError):
            Fop(np.zeros(4, dtype=np.float32))  # 1-D
        with pytest.raises(FormatError):
            Fop(np.array([[1.0, -2.0]], dtype=np.float32))  # negative power
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(FormatError, match="non-finite"):
                Fop(np.array([[1.0, bad]], dtype=np.float32))

    @pytest.mark.parametrize("shape", [(5, 0), (0, 8)])
    def test_empty_plane_rejected(self, shape):
        with pytest.raises(FormatError, match=f"{shape[0]}x{shape[1]}"):
            Fop(np.zeros(shape, dtype=np.float32))

    def test_validation_builds_no_plane_sized_temporary(self):
        values = np.ones((21, 2 ** 19), dtype=np.float32)
        tracemalloc.start()
        try:
            Fop(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * values.nbytes

    def test_logical_lookup(self, rng):
        values = (rng.standard_normal((5, 8)) ** 2).astype(np.float32)
        fop = Fop(values)
        tm = fop.template_major()
        assert tm[storage_row(-2, 5), 3] == values[0, 3]
        assert tm[storage_row(2, 5), 7] == values[4, 7]
        assert fop.n_templates == 5 and tm.shape == (5, 8)


class TestFopFile:
    def test_zero_round_trip(self, tmp_path):
        fop = Fop(np.zeros((3, 8), dtype=np.float32))
        path = tmp_path / "z.fop"
        save_fop(fop, path)
        loaded = load_fop(path)
        assert loaded.rows == 3 and loaded.cols == 8
        assert np.array_equal(loaded.values, fop.values)

    def test_random_round_trip_bit_exact(self, tmp_path, rng):
        fop = Fop((rng.standard_normal((7, 33)) ** 2).astype(np.float32))
        path = tmp_path / "r.fop"
        save_fop(fop, path)
        assert np.array_equal(load_fop(path).values, fop.values)
        save_fop(load_fop(path), tmp_path / "r2.fop")
        assert (tmp_path / "r.fop").read_bytes() == (tmp_path / "r2.fop").read_bytes()

    def test_length_mismatch_is_structural_error(self, tmp_path):
        # header says 5x8 but the payload carries 39 values
        import struct
        path = tmp_path / "bad.fop"
        payload = np.arange(39, dtype="<f4").tobytes()
        path.write_bytes(b"FOP1" + struct.pack("<II", 5, 8) + payload)
        with pytest.raises(FormatError, match="39"):
            load_fop(path)

    @pytest.mark.parametrize("n_bytes,carried", [(41 * 4, 41), (40 * 4 + 2, 40)],
                             ids=["long", "ragged"])
    def test_payload_long_or_ragged(self, tmp_path, n_bytes, carried):
        import struct
        path = tmp_path / "bad.fop"
        path.write_bytes(b"FOP1" + struct.pack("<II", 5, 8) + b"\x00" * n_bytes)
        with pytest.raises(FormatError, match=f"carries {carried} values"):
            load_fop(path)

    def test_shorter_than_header(self, tmp_path):
        path = tmp_path / "short.fop"
        path.write_bytes(b"FOP1\x05\x00")
        with pytest.raises(FormatError, match="bad magic"):
            load_fop(path)

    @pytest.mark.parametrize("rows,cols", [(5, 0), (0, 8)])
    def test_empty_plane_header(self, tmp_path, rows, cols):
        import struct
        path = tmp_path / "empty.fop"
        path.write_bytes(b"FOP1" + struct.pack("<II", rows, cols))
        with pytest.raises(FormatError, match=f"{rows}x{cols}"):
            load_fop(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_fop(path)


class TestGenerateInput:
    def test_zero_case(self):
        cfg = FdasConfig.desk_scale()
        out = generate_input(cfg, [], 0.0, seed=42)
        assert out.dtype == np.complex64
        assert out.shape == (cfg.n_chan,)
        assert not out.any()

    def test_determinism(self):
        cfg = FdasConfig.desk_scale()
        a = generate_input(cfg, [(800, 3, 2.0)], 0.7, seed=7)
        b = generate_input(cfg, [(800, 3, 2.0)], 0.7, seed=7)
        assert a.tobytes() == b.tobytes()
        c = generate_input(cfg, [(800, 3, 2.0)], 0.7, seed=8)
        assert a.tobytes() != c.tobytes()

    def test_peak_at_injected_channel(self):
        cfg = FdasConfig.desk_scale()
        out = generate_input(cfg, [(800, 1, 10.0)], 0.0, seed=0)
        power = np.abs(out.astype(np.complex128)) ** 2
        assert int(np.argmax(power)) == 800

    def test_harmonics_at_integer_fractions(self):
        cfg = FdasConfig.desk_scale()
        out = generate_input(cfg, [(800, 4, 10.0)], 0.0, seed=0)
        hot = set(np.nonzero(np.abs(out) > 0)[0])
        assert hot == {800, 400, 266, 200}

    def test_injection_validation(self):
        cfg = FdasConfig.desk_scale()
        with pytest.raises(FdasError, match="out of range"):
            generate_input(cfg, [(cfg.n_chan, 1, 1.0)])
        with pytest.raises(FdasError):
            generate_input(cfg, [(0, 1, -1.0)])
        with pytest.raises(FdasError):
            generate_input(cfg, [], noise_sigma=-0.1)


class TestFilterBank:
    def test_validation(self):
        with pytest.raises(FdasError):
            FilterBank([])
        with pytest.raises(FdasError):
            FilterBank([np.array([np.nan + 0j])])

    def test_synthetic_bank(self):
        cfg = FdasConfig.desk_scale()
        bank = synthetic_bank(cfg, seed=3)
        assert bank.n_templates == cfg.n_temp
        assert bank.max_taps <= cfg.n_tap
        centre = bank.templates[(cfg.n_temp - 1) // 2]
        assert centre.size == 1 and centre[0] == 1.0 + 0j
        again = synthetic_bank(cfg, seed=3)
        assert all(np.array_equal(a, b)
                   for a, b in zip(bank.templates, again.templates))

    def test_template_count_override(self):
        cfg = FdasConfig.desk_scale()
        bank = synthetic_bank(cfg, seed=3, n_templates=cfg.n_temp - 1)
        assert bank.n_templates == cfg.n_temp - 1


class TestAsSeries:
    def test_validation(self):
        with pytest.raises(FdasError):
            as_series(np.zeros((2, 2), dtype=np.complex64))
        with pytest.raises(FdasError):
            as_series(np.array([np.inf + 0j], dtype=np.complex64))
        with pytest.raises(FdasError):
            as_series(np.zeros(4, dtype=np.complex64), n_chan=8)
