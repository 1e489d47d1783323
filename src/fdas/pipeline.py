"""Analytic pipeline throughput model.

Composes per-stage latencies (filter convolution, plane preparation, harmonic
summing) into a single-array latency, selects a multiple-buffering depth,
estimates the steady-state pipeline period under off-chip bandwidth
contention, and evaluates multi-device partitioning schemes. All functions are
pure and unit-agnostic (any consistent time unit works).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .core import FdasError, is_finite_number

SCHEMES = ("single-input", "multi-input", "multi-config")


class ModelError(FdasError):
    """Invalid model input (negative times, zero bandwidth, bad scheme)."""


@dataclass
class StageTiming:
    """Per-stage latency decomposition of one pipeline pass.

    The convolution stage is a sequence of kernel launches (per_launch, each
    padded by the launch overhead t_klo); the preparation stage is the subset
    of {discard, transpose, reorder} enabled by the booleans, ``t_transpose``
    timing a copy no host reader takes; harmonic summing, thresholds included,
    is one span. ``demands`` maps stage names ('ft', 'discard', 'transpose',
    'reorder', 'hm') to off-chip bandwidth demand in bytes/s and may be left
    empty when contention is not modelled.

    The fields are the ``timing.json`` record, in file order; ``to_dict``
    appends the derived totals t_ft, t_fop and t_fdas. Each ``t_*``, total,
    launch time and demand must be finite and >= 0, each ``b_*`` a bool.

    Every ``t_*`` is a wall span, and ``per_launch`` splits the launch phase
    at launch completions, so its sum is that phase's wall span at any
    thread count.
    """

    per_launch: list = field(default_factory=list)
    t_klo: float = 0.0
    t_input_transform: float = 0.0
    t_discard: float = 0.0
    t_transpose: float = 0.0
    t_reorder: float = 0.0
    b_discard: bool = False
    b_transpose: bool = False
    b_reorder: bool = False
    t_hm: float = 0.0
    demands: dict = field(default_factory=dict)
    input_transforms: int = 0
    points_read: int = 0
    plane_writes: int = 0

    def __post_init__(self):
        if not isinstance(self.demands, dict):
            raise ModelError(f"demands must map stages to numbers, got {self.demands!r}")
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        values += [(f"per_launch[{i}]", t) for i, t in enumerate(self.per_launch)]
        values += [(f"demands[{k!r}]", d) for k, d in self.demands.items()]
        for name, value in values:
            if name.startswith("b_") and not isinstance(value, bool):
                raise ModelError(f"{name} must be true or false, got {value!r}")
            if name.startswith(("t_", "per_launch[", "demands[")) and not (
                    is_finite_number(value) and value >= 0):
                raise ModelError(f"{name} must be a finite number >= 0, got {value!r}")
        self.per_launch = [float(t) for t in self.per_launch]
        for name in ("t_ft", "t_fop", "t_fdas"):  # finite parts may sum past a float
            if not is_finite_number(getattr(self, name)):
                raise ModelError(f"{name} must be finite, got {getattr(self, name)!r}")

    @classmethod
    def from_totals(cls, t_ft: float, t_fop: float, t_hm: float,
                    demands: dict | None = None) -> "StageTiming":
        """Build a timing record from stage totals only."""
        for name, t in (("t_ft", t_ft), ("t_fop", t_fop)):  # the file's keys
            if not (is_finite_number(t) and t >= 0):
                raise ModelError(f"{name} must be a finite number >= 0, got {t!r}")
        return cls(per_launch=[t_ft], t_discard=t_fop, b_discard=bool(t_fop > 0),
                   t_hm=t_hm, demands=dict(demands or {}))

    @property
    def n_ft_launch(self) -> int:
        return len(self.per_launch)

    @property
    def t_ft(self) -> float:
        return (sum(self.per_launch) + self.n_ft_launch * self.t_klo
                + self.t_input_transform)

    @property
    def t_fop(self) -> float:
        return (self.b_discard * self.t_discard
                + self.b_transpose * self.t_transpose
                + self.b_reorder * self.t_reorder)

    @property
    def t_fdas(self) -> float:
        return self.t_ft + self.t_fop + self.t_hm

    def stage_times(self) -> tuple[float, float, float]:
        return (self.t_ft, self.t_fop, self.t_hm)

    def to_dict(self) -> dict:
        return {**asdict(self), "t_ft": self.t_ft, "t_fop": self.t_fop,
                "t_fdas": self.t_fdas}

    @classmethod
    def from_dict(cls, raw: dict) -> "StageTiming":
        """Accepts either the full breakdown or bare stage totals; keys that
        are not fields (the derived totals, retired keys) are ignored."""
        if "per_launch" in raw:
            return cls(**{f.name: raw[f.name] for f in fields(cls) if f.name in raw})
        st = cls.from_totals(raw.get("t_ft", 0.0), raw.get("t_fop", 0.0),
                             raw.get("t_hm", 0.0))
        # a "demands": null stays an error; from_totals reads None as no demands
        return replace(st, demands=raw["demands"]) if "demands" in raw else st


@dataclass(frozen=True)
class DeviceModel:
    """Accelerator-card limits relevant to the model."""

    global_memory_bandwidth: float  # bytes/s
    off_chip_capacity: float        # bytes
    host_link_bandwidth: float      # bytes/s
    reconfig_time: float            # seconds

    def __post_init__(self):
        for name in ("global_memory_bandwidth", "off_chip_capacity",
                     "host_link_bandwidth", "reconfig_time"):
            if getattr(self, name) <= 0:
                raise ModelError(f"{name} must be > 0")

    @classmethod
    def nominal(cls) -> "DeviceModel":
        # nominal high-end card: 144-bit DDR3-2133, 2x4GB, PCIe Gen3 x8,
        # ~1 s reconfiguration
        return cls(global_memory_bandwidth=38.4e9,
                   off_chip_capacity=8 * 2 ** 30,
                   host_link_bandwidth=7.88e9,
                   reconfig_time=1.0)


@dataclass
class PipelinePlan:
    """A buffering/device assignment and its predicted periods; the fields
    are the ``plan.json`` record, in file order."""

    buffering: int
    n_devices: int
    scheme: str
    period: float
    t_fdas: float
    period_contended: float
    period_multidevice: dict
    degraded: bool = False
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if self.buffering not in (1, 2, 3):
            raise ModelError(f"buffering must be 1, 2 or 3, got {self.buffering}")
        if self.n_devices < 1:
            raise ModelError("n_devices must be >= 1")
        if self.scheme not in SCHEMES:
            raise ModelError(f"scheme must be one of {SCHEMES}")
        if self.period > self.t_fdas * (1 + 1e-12):
            raise ModelError("plan period cannot exceed the single-array latency")


def total_latency(st: StageTiming) -> float:
    """Single-input-array latency: the sum of the three stage latencies."""
    return st.t_fdas


def choose_buffering(st: StageTiming) -> int:
    """3 when the longest stage is under half the total latency, else 2."""
    t_total = total_latency(st)
    if t_total <= 0:
        raise ModelError("cannot choose buffering for an all-zero timing")
    return 3 if max(st.stage_times()) < t_total / 2 else 2


def ideal_period(st: StageTiming, buffering: int) -> float:
    """Steady-state period without contention.

    Triple buffering overlaps all three stages, so the period is the longest
    stage. Double buffering with three active stages alternates the longest
    stage against the other two, giving max(longest, total - longest). No
    buffering processes arrays serially.
    """
    return _buffered_period(st.stage_times(), buffering)


def _buffered_period(stages, buffering: int) -> float:
    """The buffering rule applied to the (ft, fop, hm) stage durations."""
    longest = max(stages)
    if buffering == 3:
        return longest
    if buffering == 2:
        return max(longest, sum(stages) - longest)
    if buffering == 1:
        return sum(stages)
    raise ModelError(f"buffering must be 1, 2 or 3, got {buffering}")


# --- contention ---------------------------------------------------------------

def _stage_streams(st: StageTiming) -> dict:
    """Task streams (duration, demand) per pipeline stage."""
    d = st.demands
    ft = []
    if st.t_input_transform > 0:
        ft.append((st.t_input_transform, d.get("ft", 0.0)))
    ft.extend((t + st.t_klo, d.get("ft", 0.0)) for t in st.per_launch)
    fop = []
    if st.b_discard and st.t_discard > 0:
        fop.append((st.t_discard, d.get("discard", 0.0)))
    if st.b_transpose and st.t_transpose > 0:
        fop.append((st.t_transpose, d.get("transpose", 0.0)))
    if st.b_reorder and st.t_reorder > 0:
        fop.append((st.t_reorder, d.get("reorder", 0.0)))
    hm = [(st.t_hm, d.get("hm", 0.0))] if st.t_hm > 0 else []
    return {"ft": ft, "fop": fop, "hm": hm}


def simulate_overlap(streams: list, bandwidth: float) -> list:
    """Completion time of each stream when run concurrently from t=0.

    Streams are ordered task lists (duration, demand). Head tasks of all
    unfinished streams run together; when their combined demand exceeds the
    bandwidth every running task is slowed by total_demand/bandwidth; a task
    whose demand alone exceeds the bandwidth runs exclusively and pends its
    partners (earliest-eligible first). Event-driven and exact.
    """
    if bandwidth <= 0:
        raise ModelError("bandwidth must be > 0")
    n = len(streams)
    queues = [list(s) for s in streams]
    remaining = [q[0][0] if q else 0.0 for q in queues]
    eligible = [0.0] * n
    done = [not q for q in queues]
    completion = [0.0] * n
    t = 0.0
    while not all(done):
        heads = [(s, queues[s][0][1]) for s in range(n) if not done[s]]
        # zero-duration heads finish at once, without advancing time
        finished = [s for s, _ in heads if remaining[s] <= 0]
        if not finished:
            over = [(eligible[s], s) for s, dem in heads if dem > bandwidth]
            if over:
                active = [min(over)[1]]
                factor = 1.0
            else:
                active = [s for s, _ in heads]
                total = sum(dem for _, dem in heads)
                factor = max(1.0, total / bandwidth)
            dt = min(remaining[s] * factor for s in active)
            t += dt
            for s in active:
                remaining[s] -= dt / factor
            finished = [s for s in active if remaining[s] <= 1e-12 * dt]
        for s in finished:  # pop the head; load the next task or finish
            queues[s].pop(0)
            eligible[s] = t
            if queues[s]:
                remaining[s] = queues[s][0][0]
            else:
                done[s] = True
                completion[s] = t
    return completion


def contended_period(st: StageTiming, dev: DeviceModel, buffering: int) -> float:
    """Steady-state period when concurrent stages share off-chip bandwidth.

    Concurrency follows the buffering depth: with triple buffering all three
    stages of consecutive arrays are resident together; with double buffering
    adjacent stage pairs overlap. Contended stage durations come from the
    overlap simulation, and the period composes them with the same rule as
    ideal_period, so zero contention reproduces the ideal period exactly.
    """
    streams = _stage_streams(st)
    bw = dev.global_memory_bandwidth
    if buffering == 3:
        stages = simulate_overlap([streams["ft"], streams["fop"], streams["hm"]], bw)
    elif buffering == 2:
        c_ft, c_fop1 = simulate_overlap([streams["ft"], streams["fop"]], bw)
        c_fop2, c_hm = simulate_overlap([streams["fop"], streams["hm"]], bw)
        stages = (c_ft, max(c_fop1, c_fop2), c_hm)
    else:
        stages = st.stage_times()
    return _buffered_period(stages, buffering)


# --- multiple devices -----------------------------------------------------------

def multi_device_period(st: StageTiming, n: int, scheme: str,
                        dev: DeviceModel, plane_bytes: float = 0.0) -> float:
    """Pipeline period with n devices under the given partitioning scheme.

    single-input splits the harmonic-summing work of one array across devices;
    multi-input feeds each device its own array; multi-config dedicates devices
    to stages, paying one plane hand-off over the host link per period.
    """
    if n < 1:
        raise ModelError(f"n_devices must be >= 1, got {n}")
    if scheme not in SCHEMES:
        raise ModelError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    t_ft, t_fop, t_hm = st.stage_times()
    single_input = max(t_ft, t_fop, t_hm / n)
    multi_input = max(t_ft, t_fop, t_hm) / n
    if scheme == "single-input":
        return single_input
    if scheme == "multi-input":
        return multi_input
    transfer = (plane_bytes / dev.host_link_bandwidth
                if n > 1 and plane_bytes > 0 else 0.0)
    return max(t_ft, t_fop, t_hm) + transfer


# --- planning and sweeping ------------------------------------------------------

def plan_pipeline(st: StageTiming, dev: DeviceModel,
                  plane_bytes: float = 0.0, n_devices: int = 1,
                  scheme: str = "multi-input",
                  t_limit: float | None = None) -> PipelinePlan:
    """Select buffering (degrading on capacity limits) and predict the ideal,
    contended and per-scheme multi-device periods."""
    buffering = choose_buffering(st)
    notes = []
    degraded = False
    while buffering > 1 and buffering * plane_bytes > dev.off_chip_capacity:
        buffering -= 1
        degraded = True
    if degraded:
        notes.append(f"off-chip capacity holds only {buffering} plane(s); "
                     f"buffering degraded accordingly")
    if t_limit is not None and dev.reconfig_time > t_limit:
        notes.append(
            f"reconfiguration ({dev.reconfig_time}s) exceeds the time limit "
            f"({t_limit}s); reconfiguration-based scheduling rejected")
    return PipelinePlan(
        buffering=buffering, n_devices=n_devices, scheme=scheme,
        period=ideal_period(st, buffering), t_fdas=total_latency(st),
        period_contended=contended_period(st, dev, buffering),
        period_multidevice={s: multi_device_period(st, n_devices, s, dev=dev,
                                                   plane_bytes=plane_bytes)
                            for s in SCHEMES},
        degraded=degraded, notes=notes)


def sweep(rows: list, dev: DeviceModel, n_devices: int = 1,
          plane_bytes: float = 0.0, t_limit: float | None = None) -> list:
    """Evaluate (name, StageTiming) combinations and rank them by period.

    Each row holds the periods of one ``plan_pipeline`` evaluation. Returns
    report rows sorted by contended period (ties keep input order).
    """
    if not rows:
        raise ModelError("sweep needs at least one combination")
    report = []
    for name, st in rows:
        plan = plan_pipeline(st, dev, plane_bytes, n_devices, t_limit=t_limit)
        row = {
            "combination": name,
            "t_ft": st.t_ft,
            "t_fop": st.t_fop,
            "t_hm": st.t_hm,
            "t_fdas": plan.t_fdas,
            "buffering": plan.buffering,
            "period_ideal": plan.period,
            "period_contended": plan.period_contended,
            "period_multidevice": plan.period_multidevice,
        }
        if plan.notes:
            row["notes"] = list(plan.notes)
        report.append(row)
    report.sort(key=lambda r: r["period_contended"])
    return report


def write_report_json(report: list, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n")


def write_report_csv(report: list, path) -> None:
    """One column per scalar report field, then one per multi-device scheme."""
    cols = ["combination", "t_ft", "t_fop", "t_hm", "t_fdas", "buffering",
            "period_ideal", "period_contended"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols + [f"period_{scheme}" for scheme in SCHEMES])
        for row in report:
            writer.writerow([row[c] for c in cols] +
                            [row["period_multidevice"][s] for s in SCHEMES])


def load_timing_rows(path) -> list:
    """Load sweep input: a JSON array of objects, each a string
    ``combination`` and a ``StageTiming.from_dict`` record, which checks its
    values. A malformed row or an unreadable file raises ModelError naming it."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"timing file {path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ModelError(f"timing file {path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, list):
        raise ModelError(f"timing file {path}: top level must be an array")
    rows = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ModelError(f"timing file {path}: row {i} is not an object")
        if not isinstance(entry.get("combination"), str):
            raise ModelError(f"timing file {path}: row {i} needs a string 'combination'")
        try:
            rows.append((entry["combination"], StageTiming.from_dict(entry)))
        except (ModelError, TypeError) as exc:
            raise ModelError(f"timing file {path}: row {i}: {exc}") from exc
    return rows
