"""Harmonic-plane accumulation and threshold candidate detection.

The plane is stretched by each integer k (truncation toward zero on the
signed template axis, floor on the channel axis), the stretched planes are
summed cumulatively, and points exceeding their per-(harmonic, template)
threshold are collected, capped per harmonic. The brute-force accumulation is
the reference. The four traversal strategies share one accumulation over
column tiles of about ``prep.TILE_POINTS`` plane points, so their time is
linear in the plane size; they differ only in the source they read (the plane
or the reordered plane), the column-group width a tile is made of, and the
memory traffic they model, and must emit bit-identical candidate lists.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import numpy as np

from .core import FdasConfig, FdasError, Fop, signed_range, storage_row
from .prep import RFop, _section_geometry, _tile_cols, stretch_rows


class HarmonicError(FdasError):
    """Dimension mismatch, bad index, or wrong plane kind for a strategy."""


# --- strategies -----------------------------------------------------------------

@dataclass(frozen=True)
class SingleHp:
    """One harmonic plane at a time; the write of each plane is modelled."""

    kind = "single"


@dataclass(frozen=True)
class NaiveMultipleHp:
    """All harmonic planes per point, nothing materialised, no reuse."""

    kind = "naive-multi"


@dataclass(frozen=True)
class MultipleHpN:
    """Loads the distinct source points needed per column group, then sums."""

    cols_per_group: int = 1
    kind = "multi-n"

    def __post_init__(self):
        if self.cols_per_group < 1:
            raise HarmonicError(
                f"cols_per_group must be >= 1, got {self.cols_per_group}")


@dataclass(frozen=True)
class MultipleHpR:
    """Streams pre-reordered blocks; needs the reordered plane as input."""

    cols_per_group: int = 16
    points_per_item: int = 4
    kind = "multi-r"

    def __post_init__(self):
        if self.cols_per_group < 1:
            raise HarmonicError(
                f"cols_per_group must be >= 1, got {self.cols_per_group}")
        if self.points_per_item < 1:
            raise HarmonicError(
                f"points_per_item must be >= 1, got {self.points_per_item}")


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
        """Per-harmonic thresholds k*mean + sigma_factor*sqrt(k)*std of the plane."""
        tm = fop.template_major()
        mean = float(np.mean(tm, dtype=np.float64))
        std = float(np.std(tm, dtype=np.float64))
        ks = np.arange(1, n_hp + 1, dtype=np.float64)
        levels = np.maximum(ks * mean + sigma_factor * np.sqrt(ks) * std,
                            np.finfo(np.float32).tiny)
        return cls.constant(levels.astype(np.float32), n_hp, fop.n_templates)

    def row(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.n_hp:
            raise HarmonicError(f"harmonic {k} out of range [1, {self.n_hp}]")
        return self.ta[k - 1]

    def value(self, k: int, i: int) -> np.float32:
        return self.row(k)[storage_row(i, self.n_templates)]


# --- candidates -----------------------------------------------------------------

CANDIDATE_DTYPE = np.dtype([("harmonic", "<i4"), ("template", "<i4"),
                            ("channel", "<i4"), ("power", "<f4")])

CSV_HEADER = ["harmonic", "template", "channel", "power"]


@dataclass
class CandidateList:
    """Detected peaks in canonical order: (harmonic, power desc, channel,
    template), at most n_cand entries per harmonic."""

    entries: np.ndarray
    n_cand: int

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
        if h.size == 0:
            return cls(np.empty(0, dtype=CANDIDATE_DTYPE), n_cand)
        order = np.lexsort((t, c, -p, h))
        h, t, c, p = h[order], t[order], c[order], p[order]
        keep = []
        for k in np.unique(h):
            idx = np.nonzero(h == k)[0][:n_cand]
            keep.append(idx)
        sel = np.concatenate(keep)
        out = np.empty(sel.size, dtype=CANDIDATE_DTYPE)
        out["harmonic"] = h[sel]
        out["template"] = t[sel]
        out["channel"] = c[sel]
        out["power"] = p[sel]
        return cls(out, n_cand)

    def __len__(self) -> int:
        return self.entries.size

    def count(self, k: int) -> int:
        return int(np.count_nonzero(self.entries["harmonic"] == k))

    def same_as(self, other: "CandidateList") -> bool:
        if self.entries.size != other.entries.size:
            return False
        return all(np.array_equal(self.entries[f], other.entries[f])
                   for f in CANDIDATE_DTYPE.names)

    def channels_for(self, k: int) -> np.ndarray:
        return self.entries["channel"][self.entries["harmonic"] == k]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for e in self.entries:
                writer.writerow([int(e["harmonic"]), int(e["template"]),
                                 int(e["channel"]), repr(float(e["power"]))])

    @classmethod
    def from_csv(cls, path, n_cand: int) -> "CandidateList":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != CSV_HEADER:
                raise HarmonicError(f"{path}: unexpected candidate CSV header")
            try:
                rows = [(int(r[0]), int(r[1]), int(r[2]), np.float32(float(r[3])))
                        for r in reader]
            except (ValueError, IndexError) as exc:
                raise HarmonicError(f"{path}: malformed candidate row ({exc})") \
                    from exc
        out = np.array(rows, dtype=CANDIDATE_DTYPE) if rows else \
            np.empty(0, dtype=CANDIDATE_DTYPE)
        return cls(out, n_cand)


class _Collector:
    """Accumulates above-threshold points across work units."""

    def __init__(self):
        self._h = []
        self._t = []
        self._c = []
        self._p = []

    def gather(self, k: int, hp_span: np.ndarray, ta_row: np.ndarray,
               signed_rows: np.ndarray, col_offset: int) -> None:
        mask = hp_span > ta_row[:, None]
        if not mask.any():
            return
        rr, cc = np.nonzero(mask)
        self._h.append(np.full(rr.size, k, dtype=np.int32))
        self._t.append(signed_rows[rr].astype(np.int32))
        self._c.append((cc + col_offset).astype(np.int32))
        self._p.append(hp_span[rr, cc])

    def finish(self, n_cand: int) -> CandidateList:
        if not self._h:
            return CandidateList(np.empty(0, dtype=CANDIDATE_DTYPE), n_cand)
        return CandidateList.from_points(np.concatenate(self._h),
                                         np.concatenate(self._t),
                                         np.concatenate(self._c),
                                         np.concatenate(self._p), n_cand)


# --- stretch lookup ---------------------------------------------------------------

def stretch_lookup(fop: Fop, k: int, i: int, j: int) -> np.float32:
    """Plane value feeding harmonic k at (signed template i, channel j).

    Truncates i/k toward zero and floors j/k, i.e. the k = 1 stretch is the
    plane itself.
    """
    if k < 1:
        raise HarmonicError(f"harmonic must be >= 1, got {k}")
    tm = fop.template_major()
    rows, cols = tm.shape
    if not 0 <= j < cols:
        raise HarmonicError(f"channel {j} out of range [0, {cols})")
    src_i = (1 if i >= 0 else -1) * (abs(i) // k)
    return tm[storage_row(src_i, rows), j // k]


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
    tm = fop.template_major()
    rows, cols = tm.shape
    _check_thresholds(thresholds, config.n_hp, rows)
    signed = signed_range(rows)
    hp = np.zeros((rows, cols), dtype=np.float32)
    planes = []
    coll = _Collector()
    for k in range(1, config.n_hp + 1):
        sp = tm[stretch_rows(rows, k)][:, np.arange(cols) // k]
        hp = hp + sp
        planes.append(hp)
        coll.gather(k, hp, thresholds.row(k), signed, 0)
    return planes, coll.finish(config.n_cand)


# --- optimised traversals -------------------------------------------------------------

@dataclass
class HmRunStats:
    """Access accounting of one harmonic-summing pass."""

    points_read: int = 0
    plane_writes: int = 0
    elapsed: float = 0.0


def _accumulate(read, cols: int, tile_cols: int, n_hp: int, coll: _Collector,
                thresholds: ThresholdTable, signed: np.ndarray) -> None:
    """Accumulate harmonics tile by tile of output columns; ``read(k, c)``
    returns the k-stretched source (template row x column) of columns c."""
    for c0 in range(0, cols, tile_cols):
        cols_idx = np.arange(c0, min(cols, c0 + tile_cols))
        hp = np.zeros((signed.size, cols_idx.size), dtype=np.float32)
        for k in range(1, n_hp + 1):
            hp = hp + read(k, cols_idx)
            coll.gather(k, hp, thresholds.row(k), signed, c0)


def harmonic_sum(plane, strategy, thresholds: ThresholdTable,
                 config: FdasConfig):
    """Run one traversal strategy; candidates match the reference exactly.

    The block-streaming strategy needs the reordered plane; the others need a
    standard plane (either orientation). All accumulate over the same bounded
    tiles, differing in source reader, tile group width and access statistics.
    ``stats.elapsed`` is the wall span of the whole call, selection included.
    """
    t_start = time.perf_counter()
    n_hp = config.n_hp
    stats = HmRunStats()
    if isinstance(strategy, MultipleHpR) != isinstance(plane, RFop):
        raise HarmonicError(f"{strategy!r} cannot run on {type(plane).__name__}:"
                            " multi-r, and only multi-r, needs the reordered plane")

    if isinstance(plane, RFop):
        if plane.n_hp != n_hp:
            raise HarmonicError(
                f"reordered plane carries {plane.n_hp} harmonics, config wants {n_hp}")
        if strategy.cols_per_group != plane.block_cols:
            raise HarmonicError(
                f"strategy processes {strategy.cols_per_group} columns per group "
                f"but the reordered plane has {plane.block_cols}-column blocks")
        rows, cols, group = plane.n_rows, plane.n_chan, plane.block_cols
        read = plane.stretched
        stats.points_read = plane.total_points  # blocks stream whole, pad included
    else:
        if not isinstance(plane, Fop):
            raise HarmonicError(
                f"cannot run harmonic summing on {type(plane).__name__}")
        tm = plane.template_major()
        rows, cols = tm.shape
        row_maps = {k: stretch_rows(rows, k) for k in range(1, n_hp + 1)}

        def read(k, c):  # only the source columns the tile needs
            lo = c[0] // k
            return tm[:, lo:c[-1] // k + 1][row_maps[k]][:, c // k - lo]

        if isinstance(strategy, (SingleHp, NaiveMultipleHp)):
            # every harmonic reads the whole plane, no reuse; single also
            # writes each harmonic plane it builds off-chip
            group = 1
            stats.points_read = n_hp * rows * cols
            if isinstance(strategy, SingleHp):
                stats.plane_writes = stats.points_read
        elif isinstance(strategy, MultipleHpN):
            # each column group loads the distinct stretched rows of its sections
            group = strategy.cols_per_group
            _, width, _, _ = _section_geometry(cols, group, n_hp, rows)
            distinct = [np.unique(row_maps[k]).size for k in range(1, n_hp + 1)]
            stats.points_read = int(width.sum(axis=0) @ distinct)
        else:
            raise HarmonicError(f"unknown harmonic strategy {strategy!r}")

    _check_thresholds(thresholds, n_hp, rows)
    coll = _Collector()
    _accumulate(read, cols, _tile_cols(rows, group), n_hp, coll, thresholds,
                signed_range(rows))
    candidates = coll.finish(config.n_cand)
    stats.elapsed = time.perf_counter() - t_start
    return candidates, stats
