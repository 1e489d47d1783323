"""Plane-preparation transforms between convolution output and harmonic input.

Three transforms adapt any convolution output to any harmonic-summing input:
discard strips the invalid chunk prefixes of overlap-save output and squares
the valid points through ``power_spectrum``, template by template, into the
float32 template-major plane, with no plane-sized temporary; that is the one
orientation a ``Fop`` takes and every host reader reads. reorder builds from
it the duplicated/padded streaming layout of the block-streaming harmonic
strategy; transpose is the FPGA chain's layout change, which ``prepare``
times and drops. ``prepare`` decides which
subset fires from the convolution result (chunked or not) and one table keyed
by the harmonic strategy's kind; when none is needed it costs nothing.
Reorder and every traversal of ``fdas.harmonic`` run over tiles of about
``TILE_POINTS`` plane points: linear in plane size, with bounded index
arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (FdasError, Fop, next_pow2, signed_range, storage_row,
                   template_offset)
from .convolution import ConvRawOutput, power_plane, power_spectrum

TILE_POINTS = 1 << 16  # plane points per tile of whole blocks


class PrepError(FdasError):
    """Unknown combination or inconsistent plane metadata."""


def stretch_rows(n_rows: int, k: int) -> np.ndarray:
    """Storage rows of the k-stretched source for every template row.

    The signed template axis stretches by truncation toward zero, keeping the
    axis symmetric about template 0.
    """
    signed = signed_range(n_rows)
    src = np.sign(signed) * (np.abs(signed) // k)
    return (src + template_offset(n_rows)).astype(np.intp)


def discard(raw: ConvRawOutput) -> np.ndarray:
    """Float32 power plane of the valid columns, (n_templates, n_cols).

    Per template the first ``overlap`` points of every chunk are dropped and
    the remainders are squared through ``power_spectrum`` straight into one
    preallocated plane: whole chunks into a (chunks x advance) view of the
    template's row, then the partial last chunk. No plane-sized complex or
    squared temporary is made. A power that overflows float32 is left as
    inf, for ``power_plane`` to report.
    """
    if not isinstance(raw, ConvRawOutput):
        raise PrepError("discard expects chunked convolution output")
    advance, n_cols = raw.advance, raw.n_cols
    full, tail = divmod(n_cols, advance)
    cut = full * advance
    plane = np.empty((raw.n_templates, n_cols), dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for row, chunks in zip(plane, raw.chunks):
            valid = chunks[:, raw.overlap:]
            power_spectrum(valid[:full], out=row[:cut].reshape(full, advance))
            if tail:
                power_spectrum(valid[full, :tail], out=row[cut:])
    return plane


def fop_from(result) -> Fop:
    """The template-major power plane of any convolution result."""
    if isinstance(result, ConvRawOutput):
        return power_plane(discard(result))
    if not isinstance(result, Fop):
        raise PrepError(f"cannot build a plane from {type(result).__name__}")
    return result


def transpose(fop: Fop) -> np.ndarray:
    """The checked plane's values transposed into a C-ordered copy, unscanned."""
    return np.ascontiguousarray(fop.values.T)


# --- reordered plane -------------------------------------------------------------

def _section_geometry(cols: int, block_cols: int, n_hp: int, rows: int):
    """Streaming layout ``(lo, width, base, block_len)``: per (block, k - 1),
    the section's first source column, column count, and base, the flat
    address of (template row r, source column s) being base + s + r * width;
    and the common block length, the largest block padded to a power of two."""
    c0 = np.arange(0, cols, block_cols, dtype=np.int64)[:, None]
    ks = np.arange(1, n_hp + 1)
    lo = c0 // ks
    width = (np.minimum(c0 + block_cols, cols) - 1) // ks - lo + 1
    size = rows * width
    block_len = next_pow2(int(size.sum(axis=1).max()))
    base = c0 // block_cols * block_len + np.cumsum(size, axis=1) - size - lo
    return lo, width, base, block_len


def _tile_cols(rows: int, group_cols: int) -> int:
    """Columns in one tile: whole column groups, about TILE_POINTS points."""
    return max(1, TILE_POINTS // (rows * group_cols)) * group_cols


@dataclass
class RFop:
    """Reordered/padded plane whose blocks stream sequentially.

    Block b serves output columns [b*block_cols, (b+1)*block_cols) of every
    harmonic plane. Within a block the sections are harmonic-major: for each
    k = 1..n_hp a row-major (template row x source column) section holds
    every source point those output columns need, rows stretched per template
    (duplicates included), columns covering floor(c0/k)..floor((c1-1)/k).
    Blocks are padded with zeros to one common power-of-two length. The
    layout lives in memory only; ``reorder`` builds it and its ``geometry``.
    """

    blocks: np.ndarray  # (n_blocks, block_len) float32
    block_cols: int
    n_hp: int
    n_rows: int
    n_chan: int
    geometry: tuple  # (lo, width, base, block_len) of _section_geometry

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_len(self) -> int:
        return self.blocks.shape[1]

    def lookup(self, k: int, i: int, j: int) -> np.float32:
        """Stretched source value for harmonic k at (signed template i, col j).

        Pure layout arithmetic; returns exactly the float32 the source plane
        holds at (trunc(i/k), floor(j/k)).
        """
        if not 1 <= k <= self.n_hp:
            raise PrepError(f"harmonic {k} out of range [1, {self.n_hp}]")
        if not 0 <= j < self.n_chan:
            raise PrepError(f"channel {j} out of range [0, {self.n_chan})")
        return self.source(k, j, j + 1)[0, storage_row(i, self.n_rows)]

    def source(self, k: int, c0: int, c1: int) -> np.ndarray:
        """Harmonic k's source for output columns [c0, c1): one row per
        source column c0 // k .. (c1 - 1) // k, template rows stretched, each
        from the block of the first output column in [c0, c1) that reads it."""
        _, width, base, _ = self.geometry
        src = np.arange(c0 // k, (c1 - 1) // k + 1)
        b = np.maximum(c0, src * k) // self.block_cols
        row_step = np.arange(self.n_rows) * width[b, k - 1][:, None]
        return self.blocks.reshape(-1)[(base[b, k - 1] + src)[:, None] + row_step]


def reorder(fop: Fop, block_cols: int, n_hp: int) -> RFop:
    """Build the streaming layout for block_cols output columns per block.

    Some source points land in several blocks (duplication), so the total
    size never shrinks below the plane; each block is zero-padded at its tail
    to the common power-of-two length.
    """
    if block_cols < 1 or n_hp < 1:
        raise PrepError("block_cols and n_hp must be >= 1")
    rows, cols = fop.values.shape
    lo, width, base, block_len = _section_geometry(cols, block_cols, n_hp, rows)
    n_blocks = lo.shape[0]
    blocks = np.zeros((n_blocks, block_len), dtype=np.float32)
    flat = blocks.reshape(-1)
    row_step = np.arange(rows)[:, None]
    step = _tile_cols(rows, block_cols) // block_cols
    for k in range(1, n_hp + 1):
        row_map = stretch_rows(rows, k)[:, None]
        for b0 in range(0, n_blocks, step):
            b = np.arange(b0, min(n_blocks, b0 + step))
            w = width[b, k - 1]
            # every (block, section column) of the tile, block-major
            bi, j = np.nonzero(np.arange(w.max()) < w[:, None])
            b, w = b[bi], w[bi]
            src = lo[b, k - 1] + j
            flat[base[b, k - 1] + src + row_step * w] = fop.values[row_map, src]
    return RFop(blocks=blocks, block_cols=block_cols, n_hp=n_hp, n_rows=rows,
                n_chan=cols, geometry=(lo, width, base, block_len))


# --- combination matrix -----------------------------------------------------------

# Per harmonic kind, whether its FPGA kernel reads the transposed plane (after
# a time-domain kernel, after chunked output). Chunked overlap-save output
# always needs the discard, and only ``multi-r`` the reorder. The one
# asymmetry: the naive multi-plane method reads the raw-template orientation
# directly after a time-domain kernel, but the chunked frequency path hands it
# a transposed plane.
_TRANSPOSED = {"single": (False, False), "naive-multi": (False, True),
               "multi-n": (True, True), "multi-r": (True, True)}


@dataclass
class PrepResult:
    """Outcome of the preparation step: plane, canonical plane, and timings."""

    plane: object            # fop itself, or for multi-r the RFop built from it
    fop: Fop                 # canonical template-major power plane
    b_discard: bool = False
    b_transpose: bool = False
    b_reorder: bool = False
    t_discard: float = 0.0
    t_transpose: float = 0.0  # the FPGA chain's transpose; its copy is dropped
    t_reorder: float = 0.0


def _timed(fn, *args):
    """(fn(*args), its wall time in seconds)."""
    t0 = time.perf_counter()
    return fn(*args), time.perf_counter() - t0


def prepare(result, hm_strategy, n_hp: int) -> PrepResult:
    """Apply exactly the transforms the combination needs, timing each one.

    The result's type (chunked overlap-save output or a plane) and the
    ``_TRANSPOSED`` row of the harmonic strategy's kind decide them; their
    flags and wall times become the preparation stage of the throughput
    model. Readers get ``fop`` or its rFOP; a transpose is only timed. When
    no transform is needed the input plane passes through at zero cost.
    """
    kind = getattr(hm_strategy, "kind", None)
    if kind not in _TRANSPOSED:
        raise PrepError(f"unknown harmonic strategy {hm_strategy!r}")
    b1 = isinstance(result, ConvRawOutput)
    b2, b3 = _TRANSPOSED[kind][b1], kind == "multi-r"
    fop, t_discard = _timed(fop_from, result)
    # the model's timed transpose; no host reader takes the copy
    t_transpose = _timed(transpose, fop)[1] if b2 else 0.0
    plane, t_reorder = (_timed(reorder, fop, hm_strategy.cols_per_group, n_hp)
                        if b3 else (fop, 0.0))
    return PrepResult(plane=plane, fop=fop, b_discard=b1, b_transpose=b2,
                      b_reorder=b3, t_discard=t_discard if b1 else 0.0,
                      t_transpose=t_transpose, t_reorder=t_reorder)
