"""fdas search benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload ols-survey --seed 1 --seconds 30 --trace 0

Every process it starts runs the same in-memory search ``fdas run`` does
(``harness.execute``, then ``plan_pipeline`` and ``contended_period``), in a
closed loop with one caller. The processes run one after another:

1. ``reference``: set-up, then the correctness gate (numpy reference plane,
   brute-force reference candidates);
2. with ``--trace 0``, ``SETUP_PROBES`` processes that only set up;
3. ``main`` (``--trace 0``): set-up, then the timed loop, untraced; or
   ``trace`` (``--trace 1``): set-up, then untraced and traced searches in
   turn for ``--seconds``.

``setup_s`` is the median set-up time of every process of the run. The last
line of standard output is the result JSON object; the line before it is the
run record (versions, machine, workload parameters, raw samples).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import TAIL_BEYOND  # noqa: E402
from workloads import WORKLOADS, parameters  # noqa: E402

SETUP_PROBES = 1
# Threads come only from the workload's own ``threads``.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
DEADLINE_S = 170.0   # every run must end within 180 s


class ChildFailed(Exception):
    pass


def child(mode: str, args, deadline: float, stdin: str = "") -> dict:
    """Run one worker process to completion; its last stdout line is JSON."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    t0 = time.monotonic()
    remaining = deadline - t0
    if remaining <= 0:
        raise ChildFailed(f"{mode}: no time left before the {DEADLINE_S:.0f} s deadline")
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], input=stdin, env=env,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"{mode}: timed out") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def tail(durations: list) -> tuple[float, float, int]:
    """(value, percentile, searches beyond) of the highest percentile that
    leaves TAIL_BEYOND searches beyond it; the maximum when the loop hit its
    time cap with too few searches for that."""
    ordered = sorted(durations)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > TAIL_BEYOND else 0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")

    deadline = time.monotonic() + DEADLINE_S
    try:
        ref = child("reference", args, deadline)
        probes = [] if args.trace else [child("setup", args, deadline)
                                        for _ in range(SETUP_PROBES)]
        run = child("trace" if args.trace else "main", args, deadline,
                    stdin=ref["candidates"])
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    durations = run["durations"]
    attempted = (len(durations) + len(run.get("traced_durations", []))
                 + run.get("alloc_searches", 0))
    failed = run["failed"]
    correct = (ref["plane_ok"] and ref["first_match"] and run["first_match"]
               and failed == 0)
    setups = [ref["setup_s"], *(pr["setup_s"] for pr in probes), run["setup_s"]]
    p50 = statistics.median(durations)
    tail_s, tail_pct, tail_beyond = tail(durations)

    if args.trace:
        metrics = dict(run["layers"])
        metrics["trace.overhead_s"] = (statistics.median(run["traced_durations"])
                                       - p50)
    else:
        metrics = {"setup_s": statistics.median(setups), "search_s_p50": p50,
                   "search_s_tail": tail_s,
                   "searches_per_s": len(durations) / run["elapsed"],
                   "peak_rss_mb": run["peak_rss_mb"]}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    record = {
        "workload": parameters(args.workload, args.seed),
        "seconds": args.seconds, "trace": args.trace,
        "python": run["python"], "numpy": run["numpy"],
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "child_env": CHILD_ENV, "loop": "closed, one caller",
        "machine_probe_s": ref["machine_probe_s"],
        "setup_samples_s": setups,
        "searches": len(durations), "search_durations_s": durations,
        "tail_percentile": tail_pct,
        "tail_beyond": tail_beyond,
        "error_rate": failed / attempted,
        "plane_rel_error": ref["plane_rel_error"],
        "plane_ok": ref["plane_ok"], "reference_candidates": ref["n_candidates"],
        "first_search_match": ref["first_match"] and run["first_match"],
    }
    if args.trace:
        record.update(traced_searches=len(run["traced_durations"]),
                      traced_durations_s=run["traced_durations"],
                      alloc_searches=run["alloc_searches"],
                      unwrapped=run["unwrapped"], spans=run["spans"])
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for name, unit in units.items():
        print(f"{args.workload:12s} {name:30s} {metrics[name]:14.6g} {unit}")
    print(f"{args.workload:12s} {'error_rate':30s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} searches)")
    if not args.trace:
        print(f"{args.workload:12s} {'search_s_tail':30s} is p{tail_pct:.1f} "
              f"of {len(durations)} searches")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
