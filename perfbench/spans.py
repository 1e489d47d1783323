"""In-memory spans around the program's public calls, and the per-layer
metrics derived from them.

The tracer wraps module attributes of the ``fdas`` package from outside: the
calls ``harness.execute`` makes (bank, input, convolution, preparation,
thresholds, harmonic sum), the model calls the benchmark makes, and, as child
spans, the DFT inside convolution, the three plane transforms inside
preparation and candidate selection inside harmonic summing. Spans of one
search share its id. Peak allocation per span comes from ``tracemalloc``
when it is tracing.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

MIB = 1 << 20


@dataclass
class Span:
    id: int
    search: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    peak_alloc: int = 0  # bytes allocated above the span's starting level
    alloc_start: int = 0
    alloc_max: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.search = -1
        self._root: Span | None = None
        self._local = threading.local()
        self._ids = itertools.count()  # next() on a count is atomic

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        s = Span(next(self._ids), self.search, name,
                 parent.id if parent is not None else None,
                 threading.get_ident(), 0.0)
        # tracemalloc keeps one peak for the whole process, so only the main
        # thread resets it; a span folds its peak into its parent's on exit
        track = (threading.current_thread() is threading.main_thread()
                 and tracemalloc.is_tracing())
        if track:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].alloc_max = max(stack[-1].alloc_max, peak)
            tracemalloc.reset_peak()
            s.alloc_start = s.alloc_max = current
        stack.append(s)
        if parent is None:
            self._root = s
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            if self._root is s:
                self._root = None
            if track:
                s.alloc_max = max(s.alloc_max, tracemalloc.get_traced_memory()[1])
                s.peak_alloc = s.alloc_max - s.alloc_start
                if stack:
                    stack[-1].alloc_max = max(stack[-1].alloc_max, s.alloc_max)
            self.spans.append(s)

    def write(self, path) -> None:
        """One JSON line per span, with its self time."""
        children: dict = {}
        for s in self.spans:
            children.setdefault(s.parent, []).append(s)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "search": s.search, "name": s.name,
                    "parent": s.parent, "thread": s.thread,
                    "start": s.start, "end": s.end, "duration_s": s.duration,
                    "self_s": self_time(s, children.get(s.id, [])),
                    "peak_alloc_bytes": s.peak_alloc, **s.attrs}) + "\n")


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """Span time minus the part of it that its child spans cover."""
    return span.duration - covered(
        (max(c.start, span.start), min(c.end, span.end)) for c in children)


# --- wrapping the program's functions ---------------------------------------

def _rfop_points(rfop) -> tuple[int, int]:
    """(points the layout uses, points allocated), from its geometry."""
    rows, cols, width = rfop.n_rows, rfop.n_chan, rfop.block_cols
    used = 0
    for b in range(rfop.n_blocks):
        c0, c1 = b * width, min(cols, (b + 1) * width)
        used += sum(rows * ((c1 - 1) // k - c0 // k + 1)
                    for k in range(1, rfop.n_hp + 1))
    return used, rfop.blocks.size


def _record_convolution(args, out):
    result = out[0]
    arr = getattr(result, "chunks", None)
    if arr is None:
        arr = result.values
    return {"bytes_out": arr.nbytes}


def _record_prepare(args, out):
    """Bytes each transform reads and writes, as the harness's demand model
    counts them: discard raw -> plane, transpose plane -> plane,
    reorder plane -> blocks."""
    result, pr = args[0], out
    plane_bytes = pr.fop.nbytes
    b_in = b_out = 0
    if pr.b_discard:
        b_in += result.chunks.nbytes
        b_out += plane_bytes
    if pr.b_transpose:
        b_in += plane_bytes
        b_out += plane_bytes
    rec = {}
    if pr.b_reorder:
        b_in += plane_bytes
        b_out += pr.plane.blocks.nbytes
        rec["rfop_used"], rec["rfop_alloc"] = _rfop_points(pr.plane)
    rec.update(bytes_in=b_in, bytes_out=b_out)
    return rec


# (module, attribute, class or None, span name, recorder)
TARGETS = (
    ("fdas.harness", "synthetic_bank", None, "synthetic_bank", None),
    ("fdas.harness", "generate_input", None, "generate_input", None),
    ("fdas.convolution", "convolve_bank", None, "convolve_bank",
     _record_convolution),
    ("fdas.convolution", "dft", None, "dft",
     lambda args, out: {"points": args[0].size}),
    ("fdas.prep", "prepare", None, "prepare", _record_prepare),
    ("fdas.prep", "discard", None, "discard", None),
    ("fdas.prep", "transpose", None, "transpose", None),
    ("fdas.prep", "reorder", None, "reorder", None),
    ("fdas.harmonic", "from_plane", "ThresholdTable", "ThresholdTable", None),
    ("fdas.harmonic", "constant", "ThresholdTable", "ThresholdTable", None),
    ("fdas.harmonic", "harmonic_sum", None, "harmonic_sum", None),
    ("fdas.harmonic", "from_points", "CandidateList", "from_points",
     lambda args, out: {"points": len(args[1]), "kept": len(out)}),
    ("fdas.pipeline", "plan_pipeline", None, "plan_pipeline", None),
    ("fdas.pipeline", "contended_period", None, "contended_period", None),
)


def _wrap(tracer: Tracer, name: str, fn, recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
        if recorder is not None:
            s.attrs.update(recorder(args, out))
        return out
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target that exists; restore the originals on exit.

    Yields the names of targets the program no longer has."""
    import importlib

    saved, missing = [], []
    try:
        for mod_name, attr, cls_name, span, recorder in TARGETS:
            owner = importlib.import_module(mod_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, span, original.__func__, recorder))
            else:
                wrapped = _wrap(tracer, span, original, recorder)
            setattr(owner, attr, wrapped)
            saved.append((owner, attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics --------------------------------------------------------

def layer_metrics(spans, root: Span, st) -> dict:
    """Per-layer figures of one traced search (spans share root.search)."""
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def busy(name):
        return covered((s.start, s.end) for s in by_name.get(name, []))

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, []))

    def peak_mib(name):
        return max((s.peak_alloc for s in by_name.get(name, [])), default=0) / MIB

    conv_self = sum(self_time(s, children.get(s.id, []))
                    for s in by_name.get("convolve_bank", []))
    hm_spans = {s.id for s in by_name.get("harmonic_sum", [])}
    selects = [s for s in by_name.get("from_points", []) if s.parent in hm_spans]
    select_s = covered((s.start, s.end) for s in selects)
    above = sum(s.attrs["points"] for s in selects)
    kept = sum(s.attrs["kept"] for s in selects)
    rfop_used, rfop_alloc = total("prepare", "rfop_used"), total("prepare", "rfop_alloc")
    return {
        "core.input_s": busy("generate_input"),
        "core.bank_s": busy("synthetic_bank"),
        "dft.calls": len(by_name.get("dft", [])),
        "dft.points": total("dft", "points"),
        "dft.busy_s": busy("dft"),
        "convolution.busy_s": busy("convolve_bank"),
        "convolution.self_s": conv_self,
        "convolution.reported_ft_s": st.t_ft,
        "convolution.launches": st.n_ft_launch,
        "convolution.input_transforms": st.input_transforms,
        "convolution.bytes_out": total("convolve_bank", "bytes_out"),
        "convolution.peak_alloc_mb": peak_mib("convolve_bank"),
        "prep.busy_s": busy("prepare"),
        "prep.discard_s": busy("discard"),
        "prep.transpose_s": busy("transpose"),
        "prep.reorder_s": busy("reorder"),
        "prep.bytes_in": total("prepare", "bytes_in"),
        "prep.bytes_out": total("prepare", "bytes_out"),
        "prep.rfop_fill": rfop_used / rfop_alloc if rfop_alloc else 0.0,
        "prep.rfop_alloc_points": rfop_alloc,
        "prep.peak_alloc_mb": peak_mib("prepare"),
        "harmonic.threshold_s": busy("ThresholdTable"),
        "harmonic.busy_s": busy("harmonic_sum"),
        "harmonic.accumulate_s": busy("harmonic_sum") - select_s,
        "harmonic.select_s": select_s,
        "harmonic.reported_s": st.t_hm,
        "harmonic.points_read": st.points_read,
        "harmonic.plane_writes": st.plane_writes,
        "harmonic.above_threshold": above,
        "harmonic.kept": kept,
        "harmonic.kept_ratio": kept / above if above else 0.0,
        "harmonic.peak_alloc_mb": peak_mib("harmonic_sum"),
        "pipeline.model_s": busy("plan_pipeline"),
        "pipeline.period_contended_s": busy("contended_period"),
        "pipeline.unaccounted_s": root.duration - st.t_fdas,
    }
