"""Command-line harness.

Subcommands: ``gen`` synthesizes an input series, ``run`` executes one
convolution x harmonic combination end-to-end and writes all artifacts,
``verify`` cross-checks every strategy against its brute-force reference, and
``sweep`` evaluates combinations through the throughput model from measured or
file-provided timings. Exit codes: 0 success, 1 runtime failure, 2 invalid
specification or unparsable input.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import harness
from . import pipeline as pl
from .core import (ConfigError, FdasConfig, FdasError, generate_input,
                   load_config, save_config)


def _parse_injection(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"injection must be channel:harmonics:amplitude, got {text!r}")
    try:
        return int(parts[0]), int(parts[1]), float(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_cfg(args) -> FdasConfig:
    if args.config:
        return load_config(args.config)
    return FdasConfig.desk_scale()


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="JSON config file")
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--out", metavar="DIR", default="out", help="output directory")


def _add_generation(p: argparse.ArgumentParser) -> None:
    p.add_argument("--inject", metavar="C:H:A", type=_parse_injection,
                   action="append", default=[],
                   help="tone at channel C with H harmonics of amplitude A")
    p.add_argument("--noise", type=float, default=0.0,
                   help="per-component noise standard deviation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdas",
        description="Filter-bank pulsar-search pipeline and throughput model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="synthesize an input series")
    _add_common(p_gen)
    _add_generation(p_gen)

    p_run = sub.add_parser("run", help="run one combination end to end")
    _add_common(p_run)
    _add_generation(p_run)
    p_run.add_argument("--conv", choices=harness.ALL_CONV, default="ols-fd")
    p_run.add_argument("--conv-param", type=int, default=None, metavar="N",
                       help="sub-filter width (ola-td) or chunk size (ols-fd)")
    p_run.add_argument("--hm", choices=harness.ALL_HM, default="naive-multi")
    p_run.add_argument("--hm-cols", type=int, default=None, metavar="N",
                       help="columns per work group (parallel lanes for single)")
    p_run.add_argument("--hm-ppi", type=int, default=None, metavar="N",
                       help="points per work item (multi-r)")
    p_run.add_argument("--devices", type=int, default=1)
    p_run.add_argument("--scheme", choices=pl.SCHEMES, default="multi-input")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--threshold", type=float, default=None,
                       help="constant detection threshold (default: from plane)")
    p_run.add_argument("--prep-path", choices=("device", "host"), default="device")
    p_run.add_argument("--prep-ops", default=None, metavar="OPS",
                       help="comma list of discard,transpose,reorder (validated)")
    p_run.add_argument("--templates", type=int, default=None,
                       help="override the template count (e.g. half plane)")
    p_run.add_argument("--filters-per-launch", type=int, default=1)

    p_ver = sub.add_parser("verify", help="cross-strategy equivalence checks")
    p_ver.add_argument("--scale", type=int, default=2 ** 10,
                       help="channel count (2^10..2^14)")
    p_ver.add_argument("--seed", type=int, default=0)

    p_sw = sub.add_parser("sweep", help="rank combinations by pipeline period")
    _add_common(p_sw)
    p_sw.add_argument("--timings", metavar="PATH",
                      help="JSON timing rows instead of measuring")
    p_sw.add_argument("--devices", type=int, default=1)
    p_sw.add_argument("--reps", type=int, default=5,
                      help="repetitions per combination when measuring")
    p_sw.add_argument("--threads", type=int, default=1)
    p_sw.add_argument("--conv", choices=harness.ALL_CONV, default=None,
                      help="restrict measured sweep to one convolution kind")
    p_sw.add_argument("--hm", choices=harness.ALL_HM, default=None,
                      help="restrict measured sweep to one harmonic kind")
    return parser


def cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    series = generate_input(cfg, args.inject, args.noise, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "input.npy", series)
    save_config(cfg, out / "config.json")
    print(f"wrote {out / 'input.npy'} ({series.size} channels)")
    return 0


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    prep_ops = None
    if args.prep_ops is not None:
        prep_ops = tuple(s for s in args.prep_ops.split(",") if s)
    spec = harness.RunSpec(
        config=cfg, conv_kind=args.conv, conv_param=args.conv_param,
        hm_kind=args.hm, hm_cols=args.hm_cols, hm_ppi=args.hm_ppi,
        prep_path=args.prep_path, prep_ops=prep_ops, n_devices=args.devices,
        scheme=args.scheme, seed=args.seed, threads=args.threads,
        filters_per_launch=args.filters_per_launch, threshold=args.threshold,
        injections=tuple(args.inject), noise_sigma=args.noise,
        n_templates=args.templates)
    spec.strategies()  # validate before doing any work
    paths = harness.run_pipeline(spec, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_verify(args) -> int:
    checks = harness.verification_checks(args.scale, args.seed)
    width = max(len(c.name) for c in checks)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        print(f"{c.name:<{width}}  {'PASS' if c.passed else 'FAIL'}"
              f"{('  ' + c.detail) if c.detail else ''}")
    if failed:
        print(f"{len(failed)} of {len(checks)} checks failed: {failed[0].name}"
              f" ({failed[0].detail})")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


def cmd_sweep(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dev = pl.DeviceModel.nominal()
    if args.timings:
        rows = pl.load_timing_rows(args.timings)
        plane_bytes = 0
    else:
        cfg = _load_cfg(args)
        combos = [(c, h)
                  for c in (harness.ALL_CONV if args.conv is None else [args.conv])
                  for h in (harness.ALL_HM if args.hm is None else [args.hm])]
        rows, plane_bytes = harness.measure_sweep(
            cfg, combos, reps=args.reps, threads=args.threads, seed=args.seed)
    report = pl.sweep(rows, dev, n_devices=args.devices, plane_bytes=plane_bytes)
    pl.write_report_json(report, out / "report.json")
    pl.write_report_csv(report, out / "report.csv")
    for row in report:
        print(f"{row['combination']:<24} t_fdas={row['t_fdas']:.6g} "
              f"buffering={row['buffering']} period={row['period_contended']:.6g}")
    print(f"wrote {out / 'report.json'} and {out / 'report.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "run": cmd_run, "verify": cmd_verify,
                "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except (harness.SpecError, ConfigError, pl.ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FdasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
