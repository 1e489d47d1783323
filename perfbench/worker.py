"""One workload process of the benchmark; ``run.py`` starts it.

Usage: worker.py MODE --workload NAME --seed N --seconds S --t0 T

MODE is one of
  setup      import, validate and run the first search; report set-up time
  reference  as setup, then run the correctness gate on that search
  main       as setup, then the timed closed loop, untraced
  trace      as setup, then untraced and traced searches in turn

T is the parent's ``time.monotonic()`` just before it started this process,
so set-up time counts interpreter start and imports. ``main`` and ``trace``
read the reference candidates (hex) on standard input. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# The timed loop runs past --seconds until it has TAIL_BEYOND + 1 searches,
# so that a percentile with TAIL_BEYOND searches beyond it exists, but never
# past CAP_FACTOR x --seconds.
TAIL_BEYOND = 10
CAP_FACTOR = 3


def import_program():
    """Import ``fdas`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "fdas" / "__init__.py").is_file():
        sys.exit(f"worker: no program source under {src}")
    sys.path.insert(0, str(src))
    import fdas
    if Path(fdas.__file__).resolve().parent != src / "fdas":
        sys.exit(f"worker: imported fdas from {fdas.__file__}, not {src}")
    import numpy
    return numpy.__version__


def first_search(args):
    """Build and validate the spec and run the untimed first search."""
    from gate import candidate_bytes
    from workloads import build_spec, search

    spec = build_spec(args.workload, args.seed)
    spec.strategies()
    fop, candidates, st, plane, _ = search(spec)
    setup_s = time.monotonic() - args.t0
    return spec, fop, candidate_bytes(candidates), setup_s


def machine_probe() -> float:
    """Median time of a fixed numpy FFT kernel. It is stored with each result
    so that drift in the shared machine's speed shows next to the metrics.
    It runs in the reference process, so its arrays stay out of the peak RSS
    of the timed one."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(1 << 18) + 0j
    times = []
    for _ in range(7):
        t = time.perf_counter()
        for _ in range(5):
            np.fft.fft(x)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def closed_loop(spec, seconds: float, reference: bytes, search=None,
                on_search=None, min_searches: int = 1):
    """Run searches back to back for ``seconds`` and at least
    ``min_searches`` (within the cap); one caller, no overlap.

    Returns (durations, failed, elapsed). A search fails when it raises or
    its candidates are not bit-identical to the reference.
    """
    from gate import candidate_bytes
    from workloads import search as plain_search

    search = search or plain_search
    durations, failed = [], 0
    start = time.perf_counter()
    deadline, cap = start + seconds, start + CAP_FACTOR * seconds
    while True:
        t = time.perf_counter()
        try:
            out = search(spec)
        except Exception:  # a failed search is counted, the loop goes on
            traceback.print_exc()
            out = None
        durations.append(time.perf_counter() - t)
        if out is None or candidate_bytes(out[1]) != reference:
            failed += 1
        if out is not None and on_search is not None:
            on_search(out)
        del out  # free this search's plane before the next one starts
        now = time.perf_counter()
        if now >= cap or (now >= deadline and len(durations) >= min_searches):
            break
    return durations, failed, time.perf_counter() - start


def traced_loop(tracer, spec, seconds: float, reference: bytes,
                alloc: bool = False):
    """The closed loop with spans on; returns the loop's figures and the
    per-layer metrics of each search. With ``alloc``, tracemalloc runs too:
    it slows every numpy allocation, so allocation peaks come from a loop
    of their own and the timings from a loop without it."""
    import tracemalloc
    from spans import installed, layer_metrics
    from workloads import search

    per_search = []

    def on_search(out):
        mine = [s for s in tracer.spans if s.search == tracer.search]
        root = next(s for s in mine if s.parent is None)
        per_search.append(layer_metrics(mine, root, out[2]))

    def traced_search(spec_):
        tracer.search += 1
        with tracer.span("search"):
            return search(spec_)

    if alloc:
        tracemalloc.start()
    try:
        with installed(tracer) as missing:
            loop = closed_loop(spec, seconds, reference, traced_search, on_search)
    finally:
        tracemalloc.stop()
    return loop, per_search, missing


def trace_run(spec, seconds: float, reference: bytes, spans_path: Path) -> dict:
    """Untraced and traced searches taken in turn for ``seconds``, so that
    drift in machine speed falls on both alike; then one search with
    allocation tracing."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced, timed, failed = [], [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        durations, f, _ = closed_loop(spec, 0.0, reference)
        plain += durations
        (durations, g, _), layers, missing = traced_loop(tracer, spec, 0.0,
                                                         reference)
        traced += durations
        timed += layers
        failed += f + g
        if time.perf_counter() >= deadline:
            break
    (durations, f, _), allocs, _ = traced_loop(tracer, spec, 0.0, reference,
                                               alloc=True)
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)
    layers = {name: statistics.median(m[name] for m in timed)
              for name in timed[0]} if timed else {}
    for name in layers:
        if name.endswith(".peak_alloc_mb"):
            layers[name] = max((m[name] for m in allocs), default=0.0)
    return dict(durations=plain, failed=failed + f, elapsed=sum(plain),
                traced_durations=traced, alloc_searches=len(durations),
                layers=layers, unwrapped=missing,
                spans=str(spans_path.relative_to(ROOT)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "reference", "main", "trace"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--t0", type=float, required=True)
    args = p.parse_args(argv)

    reference = None
    if args.mode in ("main", "trace"):
        reference = bytes.fromhex(sys.stdin.read().strip())
    numpy_version = import_program()
    spec, fop, first, setup_s = first_search(args)
    out = {"setup_s": setup_s, "numpy": numpy_version,
           "python": platform.python_version()}

    if args.mode == "reference":
        from gate import reference_check, search_thresholds
        out.update(reference_check(spec, fop, search_thresholds(spec, fop)))
        out["first_match"] = bytes.fromhex(out["candidates"]) == first
        out["machine_probe_s"] = machine_probe()
    elif args.mode in ("main", "trace"):
        out["first_match"] = first == reference
        del fop
        if args.mode == "main":
            durations, failed, elapsed = closed_loop(
                spec, args.seconds, reference, min_searches=TAIL_BEYOND + 1)
            out.update(durations=durations, failed=failed, elapsed=elapsed)
        else:
            out.update(trace_run(spec, args.seconds, reference, OUT /
                                 f"spans-{args.workload}-seed{args.seed}.jsonl"))
        out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                              / 1024)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
