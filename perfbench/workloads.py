"""The benchmark's workloads and the one search they all time.

A workload is a fixed search shape; the seed picks the noise, the filter bank
and three tone injections, and reaches the program only through
``RunSpec.seed`` and ``RunSpec.injections``. This module imports nothing from
``fdas`` at import time, so the orchestrator can read the table without
loading the program.
"""

from __future__ import annotations

import random

N_HP = 8
N_CAND = 16
NOISE_SIGMA = 0.5
INJECTIONS = 3
INJECTION_HARMONICS = 8
INJECTION_AMPLITUDE = 10.0

# Each entry: search shape, strategies, threads and threshold mode. The
# reasons each one exists are in BENCHMARK.json ("why").
WORKLOADS = {
    "ols-survey": dict(n_chan=2 ** 17, n_temp=43, n_tap=211,
                       conv_kind="ols-fd", conv_param=2048,
                       hm_kind="naive-multi", hm_cols=None, hm_ppi=None,
                       threads=1, threshold=None),
    "rfop-stream": dict(n_chan=2 ** 14, n_temp=21, n_tap=129,
                        conv_kind="ols-fd", conv_param=2048,
                        hm_kind="multi-r", hm_cols=16, hm_ppi=4,
                        threads=1, threshold=None),
    "td-dense": dict(n_chan=2 ** 15, n_temp=21, n_tap=129,
                     conv_kind="ola-td", conv_param=128,
                     hm_kind="multi-n", hm_cols=16, hm_ppi=None,
                     threads=2, threshold=1.0),
}


def injections(workload: str, seed: int) -> tuple:
    """Three (channel, harmonics, amplitude) tones drawn from the seed.

    Channels lie in the upper three quarters of the band so that every
    harmonic fraction channel // k is a distinct, in-range channel.
    """
    n_chan = WORKLOADS[workload]["n_chan"]
    rng = random.Random(f"{workload}:{seed}")
    return tuple((rng.randrange(n_chan // 4, n_chan), INJECTION_HARMONICS,
                  INJECTION_AMPLITUDE) for _ in range(INJECTIONS))


def parameters(workload: str, seed: int) -> dict:
    """Everything that defines one workload run, for the run record."""
    w = WORKLOADS[workload]
    return dict(w, workload=workload, seed=seed, n_hp=N_HP, n_cand=N_CAND,
                noise_sigma=NOISE_SIGMA,
                threshold_mode="plane" if w["threshold"] is None else "constant",
                injections=[list(i) for i in injections(workload, seed)])


def build_spec(workload: str, seed: int):
    """The ``RunSpec`` that ``fdas run`` would execute for this workload."""
    from fdas.core import FdasConfig
    from fdas.harness import RunSpec

    w = WORKLOADS[workload]
    cfg = FdasConfig.desk_scale(n_chan=w["n_chan"], n_temp=w["n_temp"],
                                n_tap=w["n_tap"], n_hp=N_HP, n_cand=N_CAND)
    return RunSpec(config=cfg, conv_kind=w["conv_kind"],
                   conv_param=w["conv_param"], hm_kind=w["hm_kind"],
                   hm_cols=w["hm_cols"], hm_ppi=w["hm_ppi"], seed=seed,
                   threads=w["threads"], threshold=w["threshold"],
                   injections=injections(workload, seed),
                   noise_sigma=NOISE_SIGMA)


def search(spec):
    """One search, as ``fdas run`` does it minus the file writes.

    Returns (fop, candidates, timing, plane, contended period).
    """
    from fdas import harness
    from fdas import pipeline as pl

    fop, candidates, st, plane = harness.execute(spec)
    dev = pl.DeviceModel.nominal()
    plan = pl.plan_pipeline(st, dev, plane_bytes=fop.nbytes,
                            n_devices=spec.n_devices, scheme=spec.scheme,
                            t_limit=spec.config.t_limit)
    period = pl.contended_period(st, dev, plan.buffering)
    return fop, candidates, st, plane, period
