"""Filter-bank convolution strategies and power spectra.

Four interchangeable routes apply a bank of FIR templates to one input series:
direct time-domain summation, coefficient-split overlap-add, single-transform
frequency-domain convolution, and chunked overlap-save. All use the causal
zero-history boundary (x[i-j] = 0 for i-j < 0) and agree on the resulting
filter-output plane within single-precision tolerance.

Both time-domain routes run one kernel: sub-filters convolved directly and
added in at their delays. ``naive-td`` is its one-split case, with one
sub-filter as wide as the longest template.

Both frequency-domain routes run one kernel on numpy's FFT, called only
through ``dft``, in complex64 from the padded input to the stored chunks:
the input chunks are transformed once in one batched call, and each template
is one forward transform, a broadcast multiply and one batched inverse over
all chunks. ``naive-fd`` is its one-chunk case, with no overlap and a chunk
that holds the whole linear convolution. The inverse runs per template, never
over the whole bank at once, so the working set stays one template's chunks:
each worker thread multiplies into one reused product buffer, and each
overlap-save inverse is written straight into the template's chunk rows.
Their power plane is built later by the plane-preparation discard, so no
plane-sized temporary lies between the chunks and the plane. Every power
plane, whichever route builds it, is squared by ``power_spectrum`` straight
into the template's plane row and checked once by ``power_plane``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (FdasError, FilterBank, Fop, FormatError, InputError,
                   as_series, is_pow2, next_pow2)
from .pipeline import StageTiming


class ConvolutionError(FdasError):
    """Invalid convolution input or strategy parameters."""


# --- strategies -----------------------------------------------------------------

@dataclass(frozen=True)
class NaiveTd:
    """Direct time-domain summation, one full-length filter per template."""

    kind = "naive-td"


@dataclass(frozen=True)
class OlaTd:
    """Overlap-add: the coefficient array is split into n_paral-tap sub-filters."""

    n_paral: int = 128
    kind = "ola-td"

    def __post_init__(self):
        if not is_pow2(self.n_paral):
            raise ConvolutionError(
                f"ola-td n_paral must be a power of two, got {self.n_paral}")


@dataclass(frozen=True)
class NaiveFd:
    """Single full-length frequency-domain convolution per template."""

    kind = "naive-fd"


@dataclass(frozen=True)
class OlsFd:
    """Overlap-save: the input is chunked with an n_tap-1 point overlap."""

    chunk: int = 2048
    kind = "ols-fd"

    def __post_init__(self):
        if not is_pow2(self.chunk):
            raise ConvolutionError(
                f"ols-fd chunk must be a power of two, got {self.chunk}")


CONV_KINDS = {"naive-td": NaiveTd, "ola-td": OlaTd, "naive-fd": NaiveFd,
              "ols-fd": OlsFd}


# --- elementary operations --------------------------------------------------------

def dft(x, inverse: bool = False, out=None) -> np.ndarray:
    """Transform along the last axis: exp(-2*pi*i*j*k/N) unscaled forward,
    the conjugate kernel scaled by 1/N inverse. complex64 stays complex64,
    in single precision; ``out`` works as in numpy."""
    return np.fft.ifft(x, out=out) if inverse else np.fft.fft(x, out=out)


def power_spectrum(y, out=None) -> np.ndarray:
    """Elementwise power re*re + im*im (float32 for complex64 input), the
    one power kernel of every plane writer; ``out`` works as in numpy."""
    arr = np.asarray(y)
    out = np.multiply(arr.real, arr.real, out=out)
    out += arr.imag * arr.imag
    return out


def power_plane(rows: np.ndarray) -> Fop:
    """The Fop of float32 powers squared from a finite series. Squares are
    never negative, so the plane's one failing check is a non-finite power:
    the series' power overflows float32, which InputError reports."""
    try:
        return Fop(rows)
    except FormatError as exc:
        raise InputError("the filter-output power overflows float32; "
                         "scale the input series down") from exc


def fir_naive_td(x, h) -> np.ndarray:
    """y[i] = sum_j x[i-j] h[j], zero history, output length == len(x)."""
    x = np.asarray(x)
    h = np.asarray(h)
    if x.size == 0 or h.size == 0:
        raise ConvolutionError("input and coefficients must be non-empty")
    y = np.convolve(x, h)[: x.size]
    return y.astype(np.complex64 if x.dtype == np.complex64 else np.complex128)


def ola_launch_count(n_tap: int, n_paral: int) -> int:
    """Number of sub-filter launches for an n_tap filter split n_paral wide."""
    return -(-n_tap // n_paral)


def ola_padded_length(n_tap: int, n_paral: int) -> int:
    """Effective filter length after zero-padding the last sub-array."""
    return ola_launch_count(n_tap, n_paral) * n_paral


# --- chunked overlap-save ----------------------------------------------------------

@dataclass
class ConvRawOutput:
    """Per-template chunked outputs with the invalid overlap prefixes present.

    The first ``overlap`` points of every chunk are circular-wrap artefacts
    and must be discarded before the plane is consumed; each chunk then
    contributes chunk_len - overlap valid columns.
    """

    chunks: np.ndarray  # (n_templates, n_chunks, chunk_len) complex64
    overlap: int
    n_cols: int

    def __post_init__(self):
        arr = np.asarray(self.chunks, dtype=np.complex64)
        if arr.ndim != 3:
            raise ConvolutionError("raw chunks must be a 3-D array")
        self.chunks = arr
        if not 0 <= self.overlap < self.chunk_len:
            raise ConvolutionError(
                f"overlap {self.overlap} out of range for chunk length {self.chunk_len}")
        if self.n_cols > self.n_chunks * self.advance:
            raise ConvolutionError(
                f"{self.n_chunks} chunks of {self.advance} valid points "
                f"cannot cover {self.n_cols} columns")

    @property
    def n_templates(self) -> int:
        return self.chunks.shape[0]

    @property
    def n_chunks(self) -> int:
        return self.chunks.shape[1]

    @property
    def chunk_len(self) -> int:
        return self.chunks.shape[2]

    @property
    def advance(self) -> int:
        return self.chunk_len - self.overlap


def ols_chunk_count(n: int, chunk: int, overlap: int) -> int:
    """Chunks needed to cover n points when each yields chunk - overlap."""
    if chunk <= overlap:
        raise ConvolutionError(f"chunk {chunk} too small for overlap {overlap}")
    return -(-n // (chunk - overlap))


def _chunk_spectra(x: np.ndarray, chunk: int, overlap: int) -> np.ndarray:
    """Zero-prefix the input, cut overlapping chunks and transform them all in
    one batch: row m is the spectrum of chunk m, shape (n_chunks, chunk)."""
    advance = chunk - overlap
    n_chunks = ols_chunk_count(x.size, chunk, overlap)
    padded = np.zeros(overlap + n_chunks * advance, dtype=np.complex64)
    padded[overlap: overlap + x.size] = x
    chunks = np.lib.stride_tricks.sliding_window_view(padded, chunk)[::advance]
    return dft(chunks)


def _fd_template(spectra: np.ndarray, h: np.ndarray, size: int,
                 work: np.ndarray, out=None) -> np.ndarray:
    """Circular convolution of one template with every row of ``spectra``
    (complex64 input spectra of ``size`` points): one forward transform of
    the template, a broadcast multiply into ``work`` (shaped like
    ``spectra``) and one batched inverse into ``out``, all in complex64."""
    hh = np.zeros(size, dtype=np.complex64)
    hh[: h.size] = h
    np.multiply(spectra, dft(hh), out=work)
    return dft(work, inverse=True, out=out)


def assemble_ols(raw: ConvRawOutput, template: int = 0) -> np.ndarray:
    """Drop each chunk's invalid prefix and concatenate the valid points."""
    valid = raw.chunks[template, :, raw.overlap:]
    return valid.reshape(-1)[: raw.n_cols]


def fir_ols_fd(x, h, chunk: int):
    """Chunked overlap-save convolution of a single filter.

    Returns the assembled series (valid points only) together with the raw
    chunked output whose per-chunk invalid prefixes are still present.
    """
    raw, _ = convolve_bank(x, FilterBank([h]), OlsFd(chunk))
    return assemble_ols(raw, 0), raw


# --- bank application ----------------------------------------------------------------

def _template_groups(n_templates: int, filters_per_launch: int) -> list:
    if filters_per_launch < 1:
        raise ConvolutionError("filters_per_launch must be >= 1")
    return [list(range(g, min(g + filters_per_launch, n_templates)))
            for g in range(0, n_templates, filters_per_launch)]


def convolve_bank(x, bank: FilterBank, strategy, *, filters_per_launch: int = 1,
                  threads: int = 1):
    """Apply every template of the bank to one series.

    Returns (Fop, StageTiming) for strategies that emit the power plane
    directly and (ConvRawOutput, StageTiming) for chunked overlap-save, whose
    invalid points are removed later by the plane-preparation discard. The
    forward transform(s) of the input are computed once and reused across all
    templates (visible in StageTiming.input_transforms). ``per_launch`` holds
    one entry per launch and adds up to the wall span of the launch phase at
    any thread count. Results are independent of the thread count.
    """
    x = as_series(x)
    n = x.size
    groups = _template_groups(bank.n_templates, filters_per_launch)
    input_transform_time = 0.0
    input_transforms = 0
    if not isinstance(strategy, OlsFd):
        rows = np.empty((bank.n_templates, n), dtype=np.float32)

    if isinstance(strategy, (NaiveTd, OlaTd)):
        # naive-td is the one-split case. The split is sized once for the
        # bank's longest template; shorter templates just carry zero taps
        width = strategy.n_paral if isinstance(strategy, OlaTd) else bank.max_taps
        count = ola_launch_count(bank.max_taps, width)

        def run_group(group):
            stamps = []
            partial = {t: np.zeros(n, dtype=np.complex64) for t in group}
            for p in range(count):
                for t in group:
                    sub = bank.templates[t][p * width:(p + 1) * width]
                    if sub.size and sub.any():
                        part = np.convolve(x, sub)
                        delay = p * width
                        if delay < n:
                            partial[t][delay:] += part[: n - delay]
                stamps.append(time.perf_counter())
            for t in group:
                power_spectrum(partial[t], out=rows[t])
            stamps[-1] = time.perf_counter()  # the last launch writes the rows
            return stamps

    elif isinstance(strategy, (NaiveFd, OlsFd)):
        # naive-fd is the one-chunk case: no overlap, and one chunk long
        # enough to hold the whole linear convolution
        ols = isinstance(strategy, OlsFd)
        overlap = bank.max_taps - 1 if ols else 0
        size = strategy.chunk if ols else next_pow2(n + bank.max_taps - 1)
        t0 = time.perf_counter()
        with np.errstate(over="ignore", invalid="ignore"):  # see launch()
            spectra = _chunk_spectra(x, size, overlap)
        input_transform_time = time.perf_counter() - t0
        input_transforms = spectra.shape[0]
        if ols:
            chunk_rows = np.empty((bank.n_templates,) + spectra.shape,
                                  dtype=np.complex64)
        local = threading.local()  # one product buffer per worker thread

        def run_group(group):
            if not hasattr(local, "work"):
                local.work = np.empty_like(spectra)
            for t in group:
                h = bank.templates[t]
                if ols:
                    _fd_template(spectra, h, size, local.work, out=chunk_rows[t])
                else:
                    y = _fd_template(spectra, h, size, local.work)
                    power_spectrum(y[0, :n], out=rows[t])
            return [time.perf_counter()]

    else:
        raise ConvolutionError(f"unknown convolution strategy {strategy!r}")

    def launch(group):
        # an input too large for float32 leaves inf or NaN in the output,
        # which power_plane reports; numpy's error state is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            return run_group(group)

    start = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(launch, groups))
    else:
        results = [launch(g) for g in groups]
    out = (ConvRawOutput(chunks=chunk_rows, overlap=overlap, n_cols=n)
           if isinstance(strategy, OlsFd) else power_plane(rows))
    # each launch returned the time it completed; sorted, the gaps split the
    # launch phase, which the last launch ends once the output is built
    stamps = sorted(t for times in results for t in times)
    stamps[-1] = time.perf_counter()
    st = StageTiming(per_launch=np.diff([start, *stamps]),
                     t_input_transform=input_transform_time,
                     input_transforms=input_transforms)
    return out, st
