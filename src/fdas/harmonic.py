"""Harmonic-plane accumulation and threshold candidate detection.

The plane is stretched by each integer k (truncation toward zero on the
signed template axis, floor on the channel axis), the stretched planes are
summed cumulatively, and points exceeding their per-(harmonic, template)
threshold are selected, capped per harmonic. The brute-force accumulation is
the reference. A harmonic strategy is its traffic formula: ``access_counts``
gives the off-chip points each one reads and writes, and ``harmonic_sum``
runs the one accumulation for all four, reading the template-major plane or
its rFOP as it is handed, over column tiles of about ``prep.TILE_POINTS`` plane
points, so its time is linear in the plane size and its candidates are those
of the reference bit for bit. Tiles are channel-major (column x template
row), and their width depends on the plane alone. Each harmonic k is read at
source resolution, one row per source column, and each source column is
added in place to the k output columns it feeds through a broadcast view, so
no k-stretched tile is gathered. Each tile passes on only its n_cand strongest
points per harmonic (ties included), none below the floor earlier tiles set,
so the one final sort sees at most n_tiles x n_hp x n_cand points plus ties.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import FdasConfig, FdasError, Fop, is_int, signed_range, storage_row
from .prep import (TILE_POINTS, RFop, _section_geometry, _tile_cols,
                   stretch_rows)


class HarmonicError(FdasError):
    """Dimension mismatch, bad index, unknown strategy, or not a plane."""


# --- strategies -----------------------------------------------------------------

@dataclass(frozen=True)
class SingleHp:
    """One harmonic plane at a time; the write of each plane is modelled."""

    kind = "single"


@dataclass(frozen=True)
class NaiveMultipleHp:
    """All harmonic planes per point, nothing materialised, no reuse."""

    kind = "naive-multi"


def _check_count(name: str, value) -> None:
    if not is_int(value):
        raise HarmonicError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise HarmonicError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class MultipleHpN:
    """Loads the distinct source points needed per column group, then sums."""

    cols_per_group: int = 1
    kind = "multi-n"

    def __post_init__(self):
        _check_count("cols_per_group", self.cols_per_group)


@dataclass(frozen=True)
class MultipleHpR:
    """Streams pre-reordered blocks; needs the reordered plane as input."""

    cols_per_group: int = 16
    points_per_item: int = 4
    kind = "multi-r"

    def __post_init__(self):
        _check_count("cols_per_group", self.cols_per_group)
        _check_count("points_per_item", self.points_per_item)


HM_KINDS = {"single": SingleHp, "naive-multi": NaiveMultipleHp,
            "multi-n": MultipleHpN, "multi-r": MultipleHpR}


# --- thresholds -----------------------------------------------------------------

@dataclass
class ThresholdTable:
    """Detection thresholds indexed by (harmonic k, signed template i)."""

    ta: np.ndarray  # (n_hp, n_templates) float32

    def __post_init__(self):
        arr = np.asarray(self.ta, dtype=np.float32)
        if arr.ndim != 2:
            raise HarmonicError("threshold table must be 2-D (harmonic x template)")
        if not np.isfinite(arr).all() or (arr <= 0).any():
            raise HarmonicError("thresholds must be finite and > 0")
        self.ta = arr

    @property
    def n_hp(self) -> int:
        return self.ta.shape[0]

    @property
    def n_templates(self) -> int:
        return self.ta.shape[1]

    @classmethod
    def constant(cls, levels, n_hp: int, n_templates: int) -> "ThresholdTable":
        """One threshold per harmonic (scalar or per-harmonic sequence)."""
        levels = np.broadcast_to(np.asarray(levels, dtype=np.float32), (n_hp,))
        return cls(np.repeat(levels[:, None], n_templates, axis=1))

    @classmethod
    def from_plane(cls, fop: Fop, n_hp: int, sigma_factor: float = 6.0
                   ) -> "ThresholdTable":
        """Per-harmonic thresholds k*mean + sigma_factor*sqrt(k)*std of the
        plane, summed in float64 over tiles of ``TILE_POINTS`` in memory order."""
        flat = fop.values.ravel("K")
        tiles = [flat[i:i + TILE_POINTS] for i in range(0, flat.size, TILE_POINTS)]
        mean = sum(t.sum(dtype=np.float64) for t in tiles) / flat.size
        var, buf = 0.0, np.empty(min(flat.size, TILE_POINTS))  # one float64 tile
        for t in tiles:
            d = np.subtract(t, mean, out=buf[:t.size], dtype=np.float64)
            var += np.square(d, out=d).sum()
        std = np.sqrt(var / flat.size)
        ks = np.arange(1, n_hp + 1, dtype=np.float64)
        levels = np.maximum(ks * mean + sigma_factor * np.sqrt(ks) * std,
                            np.finfo(np.float32).tiny)
        return cls.constant(levels.astype(np.float32), n_hp, fop.n_templates)

    def row(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.n_hp:
            raise HarmonicError(f"harmonic {k} out of range [1, {self.n_hp}]")
        return self.ta[k - 1]


# --- candidates -----------------------------------------------------------------

CANDIDATE_DTYPE = np.dtype([("harmonic", "<i4"), ("template", "<i4"),
                            ("channel", "<i4"), ("power", "<f4")])

CSV_HEADER = list(CANDIDATE_DTYPE.names)
_I32 = np.iinfo(np.int32)  # harmonic, template and channel are int32 fields


@dataclass
class CandidateList:
    """Detected peaks in canonical order: (harmonic, power desc, channel,
    template); ``from_points`` keeps at most n_cand entries per harmonic."""

    entries: np.ndarray

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=CANDIDATE_DTYPE)

    @classmethod
    def from_points(cls, harmonics, templates, channels, powers,
                    n_cand: int) -> "CandidateList":
        """Canonically sort raw above-threshold points, keep top n_cand per k."""
        h = np.asarray(harmonics, dtype=np.int32)
        t = np.asarray(templates, dtype=np.int32)
        c = np.asarray(channels, dtype=np.int32)
        p = np.asarray(powers, dtype=np.float32)
        order = np.lexsort((t, c, -p, h))
        sorted_h = h[order]
        rank = np.arange(order.size) - np.searchsorted(sorted_h, sorted_h)
        sel = order[rank < n_cand]
        out = np.empty(sel.size, dtype=CANDIDATE_DTYPE)
        out["harmonic"] = h[sel]
        out["template"] = t[sel]
        out["channel"] = c[sel]
        out["power"] = p[sel]
        return cls(out)

    def __len__(self) -> int:
        return self.entries.size

    def same_as(self, other: "CandidateList") -> bool:
        if self.entries.size != other.entries.size:
            return False
        return all(np.array_equal(self.entries[f], other.entries[f])
                   for f in CANDIDATE_DTYPE.names)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for e in self.entries:
                writer.writerow([int(e["harmonic"]), int(e["template"]),
                                 int(e["channel"]), repr(float(e["power"]))])

    @classmethod
    def from_csv(cls, path) -> "CandidateList":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise HarmonicError(f"{path}: unexpected candidate CSV header")
            rows = []
            for r in reader:  # the rows to_csv writes, and no others
                try:
                    h, t, c, p = r  # exactly four fields
                    h, t, c, p = int(h), int(t), int(c), float(p)
                    if (h < 1 or not _I32.min <= min(t, c) <= max(h, t, c) <= _I32.max
                            or not 0 <= p <= float(np.finfo(np.float32).max)):
                        raise ValueError
                except ValueError:
                    raise HarmonicError(f"{path}: malformed candidate row {r}") from None
                rows.append((h, t, c, np.float32(p)))
        return cls(rows)


def _above(k: int, hp: np.ndarray, ta_row: np.ndarray, signed: np.ndarray,
           col_offset: int, n_cand: int | None = None, floor: float = -np.inf):
    """(harmonic, template, channel, power) of the points of channel-major
    tile ``hp`` (column x template row) of harmonic k strictly above
    threshold. With ``n_cand``, only those at least as strong as the
    n_cand-th strongest (ties kept): any weaker point has n_cand strictly
    stronger ones in harmonic k, so the cap never keeps it; nor any point
    below ``floor``, compared alone once it tops the row's thresholds."""
    above = hp >= floor if floor > ta_row.max() else hp > ta_row
    idx = np.flatnonzero(above)  # 2-D nonzero is ~5x slower
    p = hp.ravel()[idx]
    if n_cand is not None and p.size > n_cand:
        keep = p >= np.partition(p, p.size - n_cand)[p.size - n_cand]
        idx, p = idx[keep], p[keep]
    cc, rr = np.divmod(idx, hp.shape[1])
    return (np.full(idx.size, k, dtype=np.int32), signed[rr].astype(np.int32),
            (cc + col_offset).astype(np.int32), p)


def _select(parts: list, n_cand: int) -> CandidateList:
    """One canonical sort and cap over the concatenated ``_above`` parts."""
    h, t, c, p = (map(np.concatenate, zip(*parts)) if parts
                  else (np.empty(0),) * 4)
    return CandidateList.from_points(h, t, c, p, n_cand)


# --- stretch lookup ---------------------------------------------------------------

def stretch_lookup(fop: Fop, k: int, i: int, j: int) -> np.float32:
    """Plane value feeding harmonic k at (signed template i, channel j).

    Truncates i/k toward zero and floors j/k, i.e. the k = 1 stretch is the
    plane itself.
    """
    if k < 1:
        raise HarmonicError(f"harmonic must be >= 1, got {k}")
    rows, cols = fop.values.shape
    if not 0 <= j < cols:
        raise HarmonicError(f"channel {j} out of range [0, {cols})")
    src_i = (1 if i >= 0 else -1) * (abs(i) // k)
    return fop.values[storage_row(src_i, rows), j // k]


def _check_thresholds(thresholds: ThresholdTable, n_hp: int, rows: int) -> None:
    if thresholds.n_hp < n_hp or thresholds.n_templates != rows:
        raise HarmonicError(
            f"threshold table {thresholds.ta.shape} does not cover "
            f"{n_hp} harmonics x {rows} templates")


# --- reference accumulation ---------------------------------------------------------

def harmonic_sum_naive(fop: Fop, thresholds: ThresholdTable,
                       config: FdasConfig):
    """Brute-force reference: returns (harmonic planes, candidate list).

    Plane k is the elementwise float32 sum of stretched planes 1..k in
    ascending order (plane 1 equals the input plane bit-exactly); candidates
    per harmonic are the top-n_cand points strictly above threshold.
    """
    tm = fop.values
    rows, cols = tm.shape
    _check_thresholds(thresholds, config.n_hp, rows)
    signed = signed_range(rows)
    hp = np.zeros((rows, cols), dtype=np.float32)
    planes, parts = [], []
    for k in range(1, config.n_hp + 1):
        sp = tm[stretch_rows(rows, k)][:, np.arange(cols) // k]
        hp = hp + sp
        planes.append(hp)
        parts.append(_above(k, np.ascontiguousarray(hp.T), thresholds.row(k),
                            signed, 0))
    return planes, _select(parts, config.n_cand)


# --- optimised traversals -------------------------------------------------------------

def _add_stretched(hp: np.ndarray, src: np.ndarray, k: int, c0: int) -> None:
    """Add harmonic k's source to the channel-major tile ``hp`` in place.

    ``hp`` holds output columns c0, c0 + 1, ... (column x template row) and
    row s of ``src`` holds source column c0 // k + s, already row-stretched.
    Source column s feeds its k output columns: a head up to the first
    multiple of k, a body of whole groups of k added through a broadcast
    view, and a tail of fewer than k columns.
    """
    n, rows = hp.shape
    head = min(n, -c0 % k)
    hp[:head] += src[0]
    s0 = (c0 + head) // k - c0 // k
    m = (n - head) // k
    body = hp[head:head + m * k].reshape(m, k, rows)  # a view: hp is C-ordered
    body += src[s0:s0 + m, None, :]
    if head + m * k < n:
        hp[head + m * k:] += src[s0 + m]


def _accumulate(read, cols: int, tile_cols: int, n_hp: int,
                thresholds: ThresholdTable, signed: np.ndarray,
                n_cand: int) -> CandidateList:
    """Accumulate harmonics tile by tile of output columns, pre-capping each
    tile's points per harmonic at n_cand, then sort and cap once.

    Tiles are channel-major (column x template row), so each column's
    templates are contiguous. ``read(k, c0, c1)`` returns harmonic k's source
    at source resolution: one row per source column c0 // k .. (c1 - 1) // k,
    template rows already stretched. ``_add_stretched`` adds it in place, so
    no k-stretched tile is gathered or allocated.
    """
    parts, best = [], [np.empty(0, dtype=np.float32)] * n_hp
    for c0 in range(0, cols, tile_cols):
        c1 = min(cols, c0 + tile_cols)
        hp = np.zeros((c1 - c0, signed.size), dtype=np.float32)
        for k in range(1, n_hp + 1):
            _add_stretched(hp, read(k, c0, c1), k, c0)
            b = best[k - 1]  # harmonic k's n_cand strongest powers passed on
            parts.append(_above(k, hp, thresholds.row(k), signed, c0, n_cand,
                                b[0] if b.size == n_cand else -np.inf))
            if parts[-1][3].size:  # keep the least of them, the floor, first
                b = np.concatenate((b, parts[-1][3]))
                best[k - 1] = np.partition(b, max(0, b.size - n_cand))[-n_cand:]
    return _select(parts, n_cand)


def access_counts(strategy, rows: int, cols: int, n_hp: int) -> tuple[int, int]:
    """(points read, harmonic-plane points written) off-chip, as modelled,
    by one strategy's pass over a rows x cols plane.

    ``single`` and ``naive-multi`` read the whole plane per harmonic, and
    ``single`` writes each harmonic plane it builds. ``multi-n`` loads each
    column group's distinct stretched rows per harmonic k: over groups of g
    columns, ceil(cols/g) + ceil(cols/k) - ceil(cols/lcm(g, k)) source
    columns, one per group plus one per multiple of k inside a group that
    does not start it. ``multi-r`` streams whole padded blocks:
    ``reorder(...).blocks.size`` points.
    """
    if isinstance(strategy, (SingleHp, NaiveMultipleHp)):
        read = n_hp * rows * cols
        return read, read if isinstance(strategy, SingleHp) else 0
    if isinstance(strategy, MultipleHpR):
        lo, _, _, block_len = _section_geometry(cols, strategy.cols_per_group,
                                                n_hp, rows)
        return lo.shape[0] * block_len, 0
    if not isinstance(strategy, MultipleHpN):
        raise HarmonicError(f"unknown harmonic strategy {strategy!r}")
    g = strategy.cols_per_group
    return sum(np.unique(stretch_rows(rows, k)).size
               * (-(-cols // g) - (-cols // k) + (-cols // math.lcm(g, k)))
               for k in range(1, n_hp + 1)), 0


def harmonic_sum(plane, thresholds: ThresholdTable,
                 config: FdasConfig) -> CandidateList:
    """Accumulate harmonics over ``plane``; candidates match the reference
    exactly.

    The reader follows the plane's type: an ``RFop`` (the reordered plane)
    is read through its blocks, a template-major ``Fop`` directly.
    Either way the accumulation runs over the same bounded tiles, sized by
    the plane alone, and each tile keeps its n_cand strongest points per
    harmonic, none below the running floor, for the one final sort.
    """
    n_hp = config.n_hp
    if isinstance(plane, RFop):
        if plane.n_hp != n_hp:
            raise HarmonicError(
                f"reordered plane carries {plane.n_hp} harmonics, config wants {n_hp}")
        rows, cols, read = plane.n_rows, plane.n_chan, plane.source
    elif isinstance(plane, Fop):
        tm = plane.values
        rows, cols = tm.shape
        row_maps = {k: stretch_rows(rows, k) for k in range(1, n_hp + 1)}

        def read(k, c0, c1):  # only the source columns the tile needs
            return tm[:, c0 // k:(c1 - 1) // k + 1][row_maps[k]].T
    else:
        raise HarmonicError(
            f"cannot run harmonic summing on {type(plane).__name__}")

    _check_thresholds(thresholds, n_hp, rows)
    return _accumulate(read, cols, _tile_cols(rows, 1), n_hp,
                       thresholds, signed_range(rows), config.n_cand)
