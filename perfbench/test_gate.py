"""Self-tests of the benchmark's correctness gate and tracer.

Run with ``python3 -m pytest perfbench`` or ``python3 perfbench/test_gate.py``
from the repository root. They use a desk-scale search, not the benchmark's
workloads, so they finish in seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from fdas import convolution, prep  # noqa: E402
from fdas.core import FdasConfig, Fop  # noqa: E402
from fdas.harness import RunSpec  # noqa: E402
from gate import (candidate_bytes, reference_check,  # noqa: E402
                  search_thresholds)
from spans import Tracer, covered, installed, layer_metrics  # noqa: E402
from worker import closed_loop  # noqa: E402
from workloads import search  # noqa: E402


def desk_spec(**overrides) -> RunSpec:
    cfg = FdasConfig.desk_scale(n_chan=2 ** 12, n_temp=9, n_tap=33)
    fields = dict(config=cfg, conv_kind="ols-fd", conv_param=256,
                  hm_kind="naive-multi", seed=3, noise_sigma=0.5,
                  injections=((3000, 8, 10.0), (2100, 8, 10.0)))
    fields.update(overrides)
    return RunSpec(**fields)


def gate(spec):
    """The reference the benchmark derives from the first search."""
    fop, candidates, *_ = search(spec)
    check = reference_check(spec, fop, search_thresholds(spec, fop))
    return check, candidate_bytes(candidates)


def flip_top_value(pr):
    """The same preparation, with one ulp flipped in the plane's peak."""
    values = pr.plane.values.copy()
    flat = values.reshape(-1).view(np.uint32)
    flat[int(np.argmax(values))] ^= 1
    return dataclasses.replace(pr, plane=Fop(values, pr.plane.channel_major))


def test_honest_search_passes_the_gate():
    spec = desk_spec()
    check, first = gate(spec)
    assert check["plane_ok"], check["plane_rel_error"]
    assert bytes.fromhex(check["candidates"]) == first
    assert check["n_candidates"] > 0
    durations, failed, _ = closed_loop(spec, 0.0, first)
    assert (len(durations), failed) == (1, 0)


def test_one_flipped_plane_value_gives_nonzero_error_rate():
    spec = desk_spec()
    check, _ = gate(spec)
    reference = bytes.fromhex(check["candidates"])
    honest = prep.prepare
    prep.prepare = lambda *a, **k: flip_top_value(honest(*a, **k))
    try:
        durations, failed, _ = closed_loop(spec, 0.0, reference)
    finally:
        prep.prepare = honest
    assert failed / len(durations) > 0


def test_plane_check_catches_a_wrong_plane():
    spec = desk_spec()
    fop, *_ = search(spec)
    values = fop.values.copy()
    values[0, 100] += values.max()
    check = reference_check(spec, Fop(values), search_thresholds(spec, fop))
    assert not check["plane_ok"]


def test_traced_search_matches_and_restores():
    spec = desk_spec(conv_kind="ols-fd", hm_kind="multi-r", hm_cols=16)
    _, untraced, *_ = search(spec)
    original = convolution.dft
    tracer = Tracer()
    with installed(tracer) as missing:
        with tracer.span("search") as root:
            _, traced, st, *_ = search(spec)
    assert convolution.dft is original and prep.prepare.__module__ == "fdas.prep"
    assert missing == []
    assert candidate_bytes(traced) == candidate_bytes(untraced)
    m = layer_metrics(tracer.spans, root, st)
    assert m["dft.calls"] > 0 and m["prep.reorder_s"] > 0
    assert 0 < m["prep.rfop_fill"] <= 1
    assert m["convolution.self_s"] <= m["convolution.busy_s"]
    assert m["harmonic.select_s"] <= m["harmonic.busy_s"]


def test_covered_counts_overlaps_once():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([]) == 0.0


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")
