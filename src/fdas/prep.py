"""Plane-preparation transforms between convolution output and harmonic input.

Three transforms adapt any convolution output to any harmonic-summing input:
discard strips the invalid chunk prefixes of overlap-save output and squares
the valid points, template by template, into the float32 power plane with no
plane-sized temporary; transpose flips the plane orientation, and reorder
builds the duplicated/padded streaming layout consumed by the block-streaming
harmonic strategy. Which
subset fires is read off the convolution result (chunked or not) and the
harmonic strategy's kind; when none is needed the preparation is the
identity with zero cost. Reorder and every traversal of ``fdas.harmonic``
run over tiles of about ``TILE_POINTS`` plane points: linear in plane size,
with bounded index arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (FdasError, Fop, next_pow2, signed_range, storage_row,
                   template_offset)
from .convolution import ConvRawOutput

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
    the remainders' powers, ``power_spectrum``'s float32 re*re + im*im, are
    written straight into one preallocated plane: whole chunks through a
    (chunks x advance) view of the template's row, then the partial last
    chunk. No plane-sized complex or squared temporary is made.
    """
    if not isinstance(raw, ConvRawOutput):
        raise PrepError("discard expects chunked convolution output")
    advance, n_cols = raw.advance, raw.n_cols
    full, tail = divmod(n_cols, advance)
    cut = full * advance
    plane = np.empty((raw.n_templates, n_cols), dtype=np.float32)
    im = np.empty(max(cut, tail), dtype=np.float32)
    for row, chunks in zip(plane, raw.chunks):
        valid = chunks[:, raw.overlap:]
        _power_into(valid[:full], row[:cut].reshape(full, advance),
                    im[:cut].reshape(full, advance))
        if tail:
            _power_into(valid[full, :tail], row[cut:], im[:tail])
    return plane


def _power_into(v: np.ndarray, out: np.ndarray, im: np.ndarray) -> None:
    """out = v.real * v.real + v.imag * v.imag in out's float32, im a scratch."""
    np.multiply(v.real, v.real, out=out)
    np.multiply(v.imag, v.imag, out=im)
    np.add(out, im, out=out)


def fop_from(result) -> Fop:
    """Canonical template-major power plane from any convolution result."""
    if isinstance(result, Fop):
        if result.channel_major:
            return transpose(result)
        return result
    if isinstance(result, ConvRawOutput):
        return Fop(discard(result))
    raise PrepError(f"cannot build a plane from {type(result).__name__}")


def transpose(fop: Fop) -> Fop:
    """Swap the storage axes; bit-exact involution."""
    return Fop(np.ascontiguousarray(fop.values.T),
               channel_major=not fop.channel_major)


# --- reordered plane -------------------------------------------------------------

def _section_geometry(cols: int, block_cols: int, n_hp: int, rows: int):
    """Streaming layout ``(lo, width, off, max_needed)``: per (block, k - 1),
    the section's first source column, column count and start in the block;
    and the largest block's unpadded size."""
    c0 = np.arange(0, cols, block_cols, dtype=np.int64)[:, None]
    ks = np.arange(1, n_hp + 1)
    lo = c0 // ks
    width = (np.minimum(c0 + block_cols, cols) - 1) // ks - lo + 1
    size = rows * width
    return lo, width, np.cumsum(size, axis=1) - size, int(size.sum(axis=1).max())


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
    layout lives in memory only; ``reorder`` builds it.
    """

    blocks: np.ndarray  # (n_blocks, block_len) float32
    block_cols: int
    n_hp: int
    n_rows: int
    n_chan: int

    @property
    def n_blocks(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_len(self) -> int:
        return self.blocks.shape[1]

    @cached_property
    def geometry(self):
        """``_section_geometry`` of this plane."""
        return _section_geometry(self.n_chan, self.block_cols, self.n_hp,
                                 self.n_rows)

    def lookup(self, k: int, i: int, j: int) -> np.float32:
        """Stretched source value for harmonic k at (signed template i, col j).

        Pure layout arithmetic; returns exactly the float32 the source plane
        holds at (trunc(i/k), floor(j/k)).
        """
        if not 1 <= k <= self.n_hp:
            raise PrepError(f"harmonic {k} out of range [1, {self.n_hp}]")
        if not 0 <= j < self.n_chan:
            raise PrepError(f"channel {j} out of range [0, {self.n_chan})")
        return self.stretched(k, np.array([j]))[storage_row(i, self.n_rows), 0]

    def stretched(self, k: int, cols: np.ndarray) -> np.ndarray:
        """Harmonic k's stretched source (template row x column) for output
        columns ``cols``, gathered straight from the flat blocks."""
        lo, width, off, _ = self.geometry
        b = cols // self.block_cols
        start = b * self.block_len + off[b, k - 1] + cols // k - lo[b, k - 1]
        rows = np.arange(self.n_rows)[:, None]
        return self.blocks.reshape(-1)[start + rows * width[b, k - 1]]


def reorder(fop: Fop, block_cols: int, n_hp: int) -> RFop:
    """Build the streaming layout for block_cols output columns per block.

    Some source points land in several blocks (duplication), so the total
    size never shrinks below the plane; each block is zero-padded at its tail
    to the common power-of-two length.
    """
    if block_cols < 1 or n_hp < 1:
        raise PrepError("block_cols and n_hp must be >= 1")
    tm = fop.template_major()
    rows, cols = tm.shape
    lo, width, off, needed = _section_geometry(cols, block_cols, n_hp, rows)
    n_blocks = lo.shape[0]
    blocks = np.zeros((n_blocks, next_pow2(needed)), dtype=np.float32)
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
            start = b * blocks.shape[1] + off[b, k - 1] + j
            flat[start + row_step * w] = tm[row_map, lo[b, k - 1] + j]
    return RFop(blocks=blocks, block_cols=block_cols, n_hp=n_hp,
                n_rows=rows, n_chan=cols)


# --- combination matrix -----------------------------------------------------------

def required_transforms(chunked: bool, hm_strategy) -> tuple[bool, bool, bool]:
    """(discard, transpose, reorder) booleans for a kernel combination.

    Chunked overlap-save output always needs the discard; the transpose and
    reorder follow the input plane each harmonic method consumes. The one
    asymmetry: the plane-at-a-time and naive multi-plane methods read the
    raw-template orientation directly after a time-domain kernel, but the
    chunked frequency path hands them a transposed plane.
    """
    needs_transpose = {"single": False, "naive-multi": chunked,
                       "multi-n": True, "multi-r": True}
    kind = getattr(hm_strategy, "kind", None)
    if kind not in needs_transpose:
        raise PrepError(f"unknown harmonic strategy {hm_strategy!r}")
    return chunked, needs_transpose[kind], kind == "multi-r"


@dataclass
class PrepResult:
    """Outcome of the preparation step: plane, canonical plane, and timings."""

    plane: object            # Fop or RFop, as the harmonic strategy needs
    fop: Fop                 # canonical template-major power plane
    b_discard: bool = False
    b_transpose: bool = False
    b_reorder: bool = False
    t_discard: float = 0.0
    t_transpose: float = 0.0
    t_reorder: float = 0.0


def prepare(result, hm_strategy, n_hp: int) -> PrepResult:
    """Apply exactly the transforms the combination needs, timing each one.

    ``required_transforms`` derives them from the result's type (chunked
    overlap-save output or a plane) and the harmonic strategy; their flags
    and wall times become the preparation stage of the throughput model.
    When no transform is needed the input plane passes through untouched and
    the preparation cost is zero.
    """
    b1, b2, b3 = required_transforms(isinstance(result, ConvRawOutput),
                                     hm_strategy)
    t_discard = t_transpose = t_reorder = 0.0
    t0 = time.perf_counter()
    fop = fop_from(result)
    if b1:
        t_discard = time.perf_counter() - t0

    plane: object = fop
    if b2:
        t0 = time.perf_counter()
        plane = transpose(fop)
        t_transpose = time.perf_counter() - t0
    if b3:
        t0 = time.perf_counter()
        plane = reorder(plane, hm_strategy.cols_per_group, n_hp)
        t_reorder = time.perf_counter() - t0
    return PrepResult(plane=plane, fop=fop, b_discard=b1, b_transpose=b2,
                      b_reorder=b3, t_discard=t_discard, t_transpose=t_transpose,
                      t_reorder=t_reorder)
