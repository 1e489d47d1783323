"""Core data types, configuration, file formats, and synthetic input generation.

A series is a 1-D complex64 numpy array holding one dedispersed frequency
series. The filter-output plane (FOP) is a dense float32 power matrix with one
row per filter template and one column per frequency channel; template rows
are indexed by a signed template number centred on zero.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

FOP_MAGIC = b"FOP1"


class FdasError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(FdasError):
    """Invalid configuration value or malformed configuration file."""


class FormatError(FdasError):
    """Structurally invalid binary artifact (a FOP file or plane)."""


class InputError(FdasError):
    """Noise or injections that make no finite complex64 input series."""


def is_pow2(n: int) -> bool:
    return is_int(n) and n >= 1 and (n & (n - 1)) == 0


def is_finite_number(value) -> bool:
    """A finite real number, numpy scalars included; a bool is no number here."""
    try:  # math.isfinite overflows on an int too large for a float
        return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value))
    except OverflowError:
        return False


def is_int(value) -> bool:
    """An integer, numpy integers included; a bool is no integer here."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise ValueError(f"next_pow2 needs n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class FdasConfig:
    """Search-engine sizing parameters.

    Defaults are the full-scale survey requirements. ``desk_scale`` gives a
    configuration small enough for the brute-force oracles to run in seconds
    while preserving the structural ratios (odd template count, power-of-two
    channel count, chunk sizes larger than the filter overlap).
    """

    n_temp: int = 85
    n_chan: int = 2 ** 21
    n_tap: int = 421
    n_hp: int = 8
    n_cand: int = 200
    t_limit: float | None = None

    def __post_init__(self):
        for f in fields(self):  # every int is a count >= 1, t_limit None or > 0
            value = getattr(self, f.name)
            if f.type == "int":
                if not is_int(value):
                    raise ConfigError(f"{f.name}: expected an integer, got {value!r}")
                if value < 1:
                    raise ConfigError(f"{f.name}: must be >= 1, got {value}")
            elif value is not None:
                if not is_finite_number(value):
                    raise ConfigError(f"{f.name}: expected a number, got {value!r}")
                if value <= 0:
                    raise ConfigError(f"{f.name}: must be > 0, got {value}")
        if self.n_temp % 2 == 0:
            raise ConfigError(f"n_temp: must be odd, got {self.n_temp}")
        if not is_pow2(self.n_chan):
            raise ConfigError(f"n_chan: must be a power of two, got {self.n_chan}")

    @classmethod
    def desk_scale(cls, **overrides) -> "FdasConfig":
        base = dict(n_chan=2 ** 12, n_temp=9, n_tap=33, n_hp=8, n_cand=16)
        base.update(overrides)
        return cls(**base)


def load_config(path) -> FdasConfig:
    """Load a JSON config; fields missing from the file take the defaults.

    An empty file is a valid config (all defaults). An unknown key raises
    ConfigError naming it; ``FdasConfig`` checks every value, and a wrongly
    typed, null or non-finite one raises ConfigError naming its field.
    """
    text = Path(path).read_text()
    try:
        raw = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = raw.keys() - {f.name for f in fields(FdasConfig)}
    if unknown:
        raise ConfigError(f"{min(unknown)}: unknown config field")
    return FdasConfig(**raw)


def save_config(config: FdasConfig, path) -> None:
    Path(path).write_text(json.dumps(asdict(config), indent=2) + "\n")


# --- signed template index mapping ------------------------------------------

def template_offset(n_rows: int) -> int:
    """Storage row of signed template index 0."""
    return (n_rows - 1) // 2


def storage_row(i: int, n_rows: int) -> int:
    """Map signed template index i to a storage row (bijective)."""
    row = i + template_offset(n_rows)
    if not 0 <= row < n_rows:
        raise FdasError(f"template index {i} out of range for {n_rows} rows")
    return row


def signed_range(n_rows: int) -> np.ndarray:
    """Signed template indices in storage order."""
    return np.arange(n_rows) - template_offset(n_rows)


# --- series ------------------------------------------------------------------

def _all_finite(arr: np.ndarray) -> bool:
    """Every part of a complex64 array is finite. Its min and max propagate
    NaN and +-inf, so no mask the size of the array is built."""
    parts = arr.view(np.float32)
    return bool(np.isfinite(parts.min()) and np.isfinite(parts.max()))


def as_series(x, n_chan: int | None = None) -> np.ndarray:
    """Validate/convert x to a 1-D complex64 series."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise FdasError("series must be a non-empty 1-D array")
    arr = arr.astype(np.complex64, copy=False)
    if not _all_finite(arr):
        raise FdasError("series contains non-finite values")
    if n_chan is not None and arr.size != n_chan:
        raise FdasError(f"series length {arr.size} != n_chan {n_chan}")
    return arr


def check_generation(n_chan: int, injections, noise_sigma: float) -> None:
    """Raise InputError unless noise_sigma is finite and >= 0 and every
    (channel, harmonics, amplitude) injection has an integer channel in
    [0, n_chan), an integer harmonics >= 1 and a finite amplitude > 0."""
    if not is_finite_number(noise_sigma):
        raise InputError(f"noise_sigma must be finite, got {noise_sigma}")
    if noise_sigma < 0:
        raise InputError("noise_sigma must be >= 0")
    for channel, harmonics, amplitude in injections:
        if not (is_int(channel) and is_int(harmonics)):
            raise InputError("injection channel and harmonics must be integers, "
                             f"got {channel!r} and {harmonics!r}")
        if not 0 <= channel < n_chan:
            raise InputError(f"injection channel {channel} out of range [0, {n_chan})")
        if harmonics < 1:
            raise InputError(f"injection harmonics must be >= 1, got {harmonics}")
        if not (is_finite_number(amplitude) and amplitude > 0):
            raise InputError(
                f"injection amplitude must be finite and > 0, got {amplitude}")


def generate_input(config: FdasConfig, injections=(), noise_sigma: float = 0.0,
                   seed: int = 0) -> np.ndarray:
    """Synthesize a frequency series with optional harmonic tone injections.

    Each injection is a (channel, harmonics, amplitude) triple: the tone adds
    ``amplitude`` at channel//k for k = 1..harmonics, so the stated channel
    carries a power peak and so do its integer fractions, which is what the
    harmonic-summing stretch lookups accumulate. noise_sigma is the
    per-component standard deviation of complex Gaussian noise. Deterministic
    for a fixed seed. Inputs that ``check_generation`` rejects, or that
    overflow complex64, raise InputError.
    """
    check_generation(config.n_chan, injections, noise_sigma)
    n = config.n_chan
    data = np.zeros(n, dtype=np.complex64)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if noise_sigma > 0:
            rng = np.random.default_rng(seed)
            re = rng.standard_normal(n, dtype=np.float32)
            im = rng.standard_normal(n, dtype=np.float32)
            data += noise_sigma * (re + 1j * im).astype(np.complex64)
        for channel, harmonics, amplitude in injections:
            for k in range(1, harmonics + 1):
                data[channel // k] += np.complex64(amplitude)
    if not _all_finite(data):
        raise InputError("noise and injections overflow the complex64 series")
    return data


# --- filter bank ---------------------------------------------------------------

@dataclass
class FilterBank:
    """Bank of complex FIR templates; per-template tap counts may differ."""

    templates: list

    def __post_init__(self):
        if not self.templates:
            raise FdasError("filter bank must hold at least one template")
        cleaned = []
        for t, h in enumerate(self.templates):
            arr = np.asarray(h).astype(np.complex64)
            if arr.ndim != 1 or arr.size == 0:
                raise FdasError(f"template {t}: must be a non-empty 1-D array")
            if not _all_finite(arr):
                raise FdasError(f"template {t}: contains non-finite coefficients")
            cleaned.append(arr)
        self.templates = cleaned

    @property
    def n_templates(self) -> int:
        return len(self.templates)

    @property
    def max_taps(self) -> int:
        return max(len(h) for h in self.templates)


def synthetic_bank(config: FdasConfig, seed: int = 0,
                   n_templates: int | None = None) -> FilterBank:
    """Random unit-energy templates; the centre template is the identity tap.

    n_templates defaults to config.n_temp; an explicit value (e.g. n_temp - 1
    for half-plane runs) overrides it.
    """
    n = config.n_temp if n_templates is None else n_templates
    if n < 1:
        raise FdasError(f"n_templates must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    centre = template_offset(n)
    templates = []
    for t in range(n):
        if t == centre:
            templates.append(np.array([1.0 + 0.0j], dtype=np.complex64))
            continue
        length = int(rng.integers(max(1, config.n_tap // 2), config.n_tap + 1))
        taps = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        taps /= np.sqrt(np.sum(np.abs(taps) ** 2))
        templates.append(taps.astype(np.complex64))
    return FilterBank(templates)


# --- filter-output plane -------------------------------------------------------

@dataclass
class Fop:
    """Filter-output plane of real power values.

    A canonical plane is template-major (storage row = template); after
    transposition ``channel_major`` is True and the storage axes are swapped.
    Signed template index i maps to storage row i + (n_templates - 1) // 2.
    Planes are immutable after construction by convention.
    """

    values: np.ndarray
    channel_major: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float32)
        if v.ndim != 2:
            raise FormatError("FOP values must be a 2-D matrix")
        if v.size == 0:
            raise FormatError(f"FOP plane {v.shape[0]}x{v.shape[1]} is empty")
        # min and max propagate NaN and +-inf, so no plane-sized mask is built
        lo, hi = v.min(), v.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise FormatError("FOP contains non-finite values")
        if lo < 0:
            raise FormatError("FOP powers must be non-negative")
        self.values = v

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def n_templates(self) -> int:
        return self.cols if self.channel_major else self.rows

    @property
    def nbytes(self) -> int:
        return self.values.nbytes

    def template_major(self) -> np.ndarray:
        """The plane in logical (template, channel) orientation (a view)."""
        return self.values.T if self.channel_major else self.values


def save_fop(fop: Fop, path) -> None:
    """Write the binary FOP file (magic, u32 rows, u32 cols, f32 values, LE)."""
    if fop.channel_major:
        raise FormatError("FOP files store template-major planes; transpose first")
    with open(path, "wb") as fh:
        fh.write(FOP_MAGIC)
        fh.write(struct.pack("<II", fop.rows, fop.cols))
        fh.write(np.ascontiguousarray(fop.values, dtype="<f4").tobytes())


def load_fop(path) -> Fop:
    """Read a FOP file; the payload is read once, straight into the plane."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[:4] != FOP_MAGIC:
            raise FormatError(f"{path}: not a FOP file (bad magic)")
        rows, cols = struct.unpack("<II", head[4:])
        payload = Path(path).stat().st_size - 12
        if payload != rows * cols * 4:
            raise FormatError(
                f"{path}: header says {rows}x{cols} ({rows * cols} values) "
                f"but file carries {payload // 4} values"
            )
        values = np.fromfile(fh, dtype="<f4", count=rows * cols)
    return Fop(values.reshape(rows, cols))
