"""End-to-end orchestration behind the CLI: runs, verification, measurement.

A RunSpec names one (convolution x harmonic) combination plus its parameters;
run_pipeline drives generation, convolution, plane preparation, harmonic
summing, and the throughput model, writing all artifacts. The verification
suite cross-checks every strategy against its brute-force reference at desk
scale, and measure_sweep times every combination to feed the model.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import convolution as conv
from . import harmonic as hm
from . import pipeline as pl
from . import prep
from .core import (FdasConfig, FdasError, Fop, check_generation,
                   generate_input, is_int, next_pow2, save_fop, synthetic_bank)


class SpecError(FdasError):
    """Run specification outside the supported combination matrix."""


def check_seed(seed: int) -> None:
    if not is_int(seed):
        raise SpecError(f"seed must be an integer, got {seed!r}")
    if seed < 0:  # numpy's generators take only seeds >= 0
        raise SpecError(f"seed must be >= 0, got {seed}")


VERIFY_TEMPLATES = {2 ** 10: 5, 2 ** 11: 7, 2 ** 12: 9, 2 ** 13: 13, 2 ** 14: 17}


def _make_strategy(kinds: dict, stage: str, kind: str, *params):
    """Build ``kinds[kind]``, giving its fields in order the parameters that
    are not None; the dataclass holds the defaults and validates the rest.
    A parameter the strategy has no field for is rejected, not dropped."""
    cls = kinds.get(kind)
    if cls is None:
        raise SpecError(f"unknown {stage} strategy {kind!r}")
    names = [f.name for f in fields(cls)]
    extra = [p for p in params[len(names):] if p is not None]
    if extra:
        raise SpecError(f"{stage} strategy {kind!r} has no parameter for "
                        f"{extra}; it takes {names or 'none'}")
    try:
        return cls(**{name: p for name, p in zip(names, params) if p is not None})
    except FdasError as exc:
        raise SpecError(str(exc)) from exc


@dataclass
class RunSpec:
    """One end-to-end pipeline run: combination, parameters, seed, outputs."""

    config: FdasConfig
    conv_kind: str = "ols-fd"
    conv_param: int | None = None
    hm_kind: str = "naive-multi"
    hm_cols: int | None = None
    hm_ppi: int | None = None
    n_devices: int = 1
    scheme: str = "multi-input"
    seed: int = 0
    threads: int = 1
    filters_per_launch: int = 1
    threshold: float | None = None
    injections: tuple = ()
    noise_sigma: float = 0.0
    n_templates: int | None = None

    def __post_init__(self):
        for name in ("n_devices", "threads", "filters_per_launch", "n_templates"):
            value = getattr(self, name)  # n_templates None: from the config
            if value is not None and not is_int(value):
                raise SpecError(f"{name} must be an integer, got {value!r}")
            if value is not None and value < 1:
                raise SpecError(f"{name} must be >= 1")
        check_generation(self.config.n_chan, self.injections, self.noise_sigma)
        if self.threshold is not None:
            with np.errstate(over="ignore"):  # held as float32 in the table
                level = np.float32(self.threshold)
            if not 0 < level < np.inf:
                raise SpecError("threshold must be finite and > 0 as a float32, "
                                f"got {self.threshold}")
        if self.scheme not in pl.SCHEMES:
            raise SpecError(f"scheme must be one of {pl.SCHEMES}")
        check_seed(self.seed)
        self.strategies()  # a built spec names a valid combination

    def strategies(self):
        conv_s = _make_strategy(conv.CONV_KINDS, "convolution", self.conv_kind,
                                self.conv_param)
        hm_s = _make_strategy(hm.HM_KINDS, "harmonic", self.hm_kind,
                              self.hm_cols, self.hm_ppi)
        n_tap_cap = self.config.n_tap
        if isinstance(conv_s, conv.OlsFd) and conv_s.chunk <= n_tap_cap - 1:
            raise SpecError(
                f"ols-fd chunk {conv_s.chunk} must exceed n_tap-1 = {n_tap_cap - 1}")
        return conv_s, hm_s


def _stage_demand(read_bytes: float, write_bytes: float, duration: float) -> float:
    return (read_bytes + write_bytes) / duration if duration > 0 else 0.0


def attach_demands(st: pl.StageTiming, series_bytes: int, plane_bytes: int,
                   raw_bytes: int, rfop_bytes: int) -> None:
    """Default per-stage bandwidth demands: bytes moved over measured time."""
    ft_out = raw_bytes if raw_bytes else plane_bytes
    st.demands = {
        "ft": _stage_demand(series_bytes * max(st.n_ft_launch, 1), ft_out, st.t_ft),
        "discard": _stage_demand(raw_bytes, plane_bytes, st.t_discard),
        "transpose": _stage_demand(plane_bytes, plane_bytes, st.t_transpose),
        "reorder": _stage_demand(plane_bytes, rfop_bytes, st.t_reorder),
        "hm": _stage_demand(st.points_read * 4, st.plane_writes * 4, st.t_hm),
    }


def execute(spec: RunSpec):
    """Run the pipeline in memory; returns (fop, candidates, timing, plane)."""
    cfg = spec.config
    conv_s, hm_s = spec.strategies()
    bank = synthetic_bank(cfg, seed=spec.seed, n_templates=spec.n_templates)
    series = generate_input(cfg, spec.injections, spec.noise_sigma, spec.seed)
    result, st = conv.convolve_bank(series, bank, conv_s,
                                    filters_per_launch=spec.filters_per_launch,
                                    threads=spec.threads)
    raw_bytes = result.chunks.nbytes if isinstance(result, conv.ConvRawOutput) else 0
    pr = prep.prepare(result, hm_s, cfg.n_hp)
    del result  # the raw overlap-save chunks are 2.5x the plane
    st.t_discard, st.t_transpose, st.t_reorder = (pr.t_discard, pr.t_transpose,
                                                  pr.t_reorder)
    st.b_discard, st.b_transpose, st.b_reorder = (pr.b_discard, pr.b_transpose,
                                                  pr.b_reorder)
    t0 = time.perf_counter()
    if spec.threshold is not None:
        thresholds = hm.ThresholdTable.constant(spec.threshold, cfg.n_hp,
                                                pr.fop.n_templates)
    else:
        thresholds = hm.ThresholdTable.from_plane(pr.fop, cfg.n_hp)
    candidates = hm.harmonic_sum(pr.plane, thresholds, cfg)
    st.t_hm = time.perf_counter() - t0
    if pr.b_reorder:  # multi-r streams the whole padded blocks it was given
        st.points_read, st.plane_writes = pr.plane.blocks.size, 0
    else:
        st.points_read, st.plane_writes = hm.access_counts(
            hm_s, *pr.fop.values.shape, cfg.n_hp)
    rfop_bytes = pr.plane.blocks.nbytes if pr.b_reorder else 0
    attach_demands(st, series.nbytes, pr.fop.nbytes, raw_bytes, rfop_bytes)
    return pr.fop, candidates, st, pr.plane


def output_dir(out_dir) -> Path:
    """``out_dir`` as a Path, creating nothing; raises before any work the
    OSError its ``mkdir`` would, if it or its nearest existing parent is not
    a directory."""
    out = Path(out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"{existing}: not a directory")
    return out


def run_pipeline(spec: RunSpec, out_dir) -> dict:
    """Execute the spec, then write fop/candidates/timing/plan artifacts."""
    out = output_dir(out_dir)  # an unusable --out fails before the search
    fop, candidates, st, _ = execute(spec)
    dev = pl.DeviceModel.nominal()
    plan = pl.plan_pipeline(st, dev, plane_bytes=fop.nbytes,
                            n_devices=spec.n_devices, scheme=spec.scheme,
                            t_limit=spec.config.t_limit)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "fop": out / "fop.fop",
        "candidates": out / "candidates.csv",
        "timing": out / "timing.json",
        "plan": out / "plan.json",
    }
    save_fop(fop, paths["fop"])
    candidates.to_csv(paths["candidates"])
    paths["timing"].write_text(json.dumps(st.to_dict(), indent=2) + "\n")
    paths["plan"].write_text(json.dumps(asdict(plan), indent=2) + "\n")
    return paths


# --- verification ----------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _rel_close(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a.astype(np.complex128) - b.astype(np.complex128)))) \
        <= tol * scale


def verification_checks(scale: int = 2 ** 10, seed: int = 0,
                        corrupt: tuple | None = None) -> list:
    """Cross-strategy equivalence suite at the given channel count.

    ``corrupt`` is a test hook: (row, col, delta) flips one plane value before
    the harmonic comparisons, which the checks must catch.
    """
    if scale not in VERIFY_TEMPLATES:
        raise SpecError(
            f"verify scale must be one of {sorted(VERIFY_TEMPLATES)}, got {scale}")
    check_seed(seed)
    cfg = FdasConfig.desk_scale(n_chan=scale, n_temp=VERIFY_TEMPLATES[scale])
    rng = np.random.default_rng(seed)
    series = (rng.standard_normal(cfg.n_chan) +
              1j * rng.standard_normal(cfg.n_chan)).astype(np.complex64)
    bank = synthetic_bank(cfg, seed=seed)
    results: list = []

    # every registered strategy is checked, with these parameters if it takes any
    params = {"ola-td": (8,), "ols-fd": (next_pow2(2 * bank.max_taps),),
              "multi-n": (2,), "multi-r": (16, 4)}

    def strategy(kinds: dict, stage: str, name: str):
        return _make_strategy(kinds, stage, name, *params.get(name, ()))

    # pairwise convolution equivalence
    fops = {}
    for name in conv.CONV_KINDS:
        strat = strategy(conv.CONV_KINDS, "convolution", name)
        fops[name] = prep.fop_from(conv.convolve_bank(series, bank, strat)[0])
    names = list(fops)
    for a_idx in range(len(names)):
        for b_idx in range(a_idx + 1, len(names)):
            a, b = names[a_idx], names[b_idx]
            ok = _rel_close(fops[a].values, fops[b].values, 1e-4)
            results.append(CheckResult(
                f"convolution {a} vs {b}", ok,
                "" if ok else f"planes diverge beyond 1e-4 (seed {seed})"))

    # assembled overlap-save chunks vs direct time-domain, complex outputs
    h = bank.templates[0]
    chunk = max(256, 2 * len(h))
    assembled, _ = conv.fir_ols_fd(series, h, chunk)
    direct = conv.fir_naive_td(series, h)
    ok = _rel_close(assembled, direct, 1e-4)
    results.append(CheckResult(
        "overlap-save assembly vs naive time-domain", ok,
        "" if ok else f"series diverge beyond 1e-4 (seed {seed})"))

    # harmonic strategies vs brute-force reference
    fop = reference_fop = fops["naive-td"]
    if corrupt is not None:
        row, col, delta = corrupt
        values = fop.values.copy()
        values[row, col] += np.float32(delta)
        fop = Fop(values)
    thresholds = hm.ThresholdTable.from_plane(reference_fop, cfg.n_hp,
                                              sigma_factor=2.0)
    _, reference = hm.harmonic_sum_naive(reference_fop, thresholds, cfg)
    planes = {name: prep.prepare(fop, strategy(hm.HM_KINDS, "harmonic", name),
                                 cfg.n_hp).plane for name in hm.HM_KINDS}
    for name, plane in planes.items():
        cands = hm.harmonic_sum(plane, thresholds, cfg)
        ok = cands.same_as(reference)
        results.append(CheckResult(
            f"harmonic {name} vs reference", ok,
            "" if ok else f"candidate lists differ (seed {seed})"))

    # reordered-plane lookups reproduce direct stretch lookups
    probe = np.random.default_rng(seed + 1)
    ok = True
    for _ in range(200):
        k = int(probe.integers(1, cfg.n_hp + 1))
        i = int(probe.integers(-(cfg.n_temp - 1) // 2, (cfg.n_temp - 1) // 2 + 1))
        j = int(probe.integers(0, cfg.n_chan))
        if planes["multi-r"].lookup(k, i, j) != hm.stretch_lookup(fop, k, i, j):
            ok = False
            break
    results.append(CheckResult(
        "reordered-plane lookup vs stretch lookup", ok,
        "" if ok else f"layout lookup mismatch (seed {seed})"))
    return results


# --- measured sweep -----------------------------------------------------------------

def measure_sweep(config: FdasConfig, combos: list | None = None, reps: int = 5,
                  threads: int = 1, seed: int = 0) -> tuple[list, int]:
    """Time every combination end-to-end; returns the (name, median-latency
    StageTiming) rows that feed the model and the plane's byte size."""
    if combos is None:
        combos = [(c, h) for c in conv.CONV_KINDS for h in hm.HM_KINDS]
    if not combos:
        raise SpecError("sweep needs at least one combination")
    if reps < 1:
        raise SpecError(f"reps must be >= 1, got {reps}")
    rows = []
    plane_bytes = 0
    for conv_kind, hm_kind in combos:
        spec = RunSpec(config=config, conv_kind=conv_kind, hm_kind=hm_kind,
                       seed=seed, threads=threads)
        runs = []
        for _ in range(reps):
            fop, _, st, _ = execute(spec)
            runs.append(st)
            plane_bytes = fop.nbytes
        runs.sort(key=lambda s: s.t_fdas)
        rows.append((f"{conv_kind}+{hm_kind}", runs[len(runs) // 2]))
    return rows, plane_bytes
