"""Correctness gate: an independent reference plane and reference candidates.

The reference plane is computed with numpy's own FFT in complex128 from the
same series and filter bank the program uses; no ``fdas`` transform or
convolution code is involved. The reference candidates come from the
brute-force ``harmonic_sum_naive`` on the program's plane (once that plane has
matched the reference) and the thresholds the search uses. Every timed search
must return a candidate list bit-identical to them.
"""

from __future__ import annotations

import numpy as np

PLANE_RTOL = 1e-4


def reference_plane(series: np.ndarray, templates) -> np.ndarray:
    """Template-major power plane |x * h|^2 with zero history, via np.fft."""
    n = series.size
    size = 1 << (n + max(len(h) for h in templates) - 2).bit_length()
    spectrum = np.fft.fft(series.astype(np.complex128), size)
    plane = np.empty((len(templates), n), dtype=np.float64)
    for row, h in enumerate(templates):
        y = np.fft.ifft(spectrum * np.fft.fft(np.asarray(h, np.complex128), size))
        plane[row] = np.abs(y[:n]) ** 2
    return plane


def plane_error(values: np.ndarray, reference: np.ndarray) -> float:
    """Largest absolute difference as a share of the reference's peak power."""
    if values.shape != reference.shape:
        return float("inf")
    scale = max(float(np.max(np.abs(reference))), 1e-30)
    return float(np.max(np.abs(values.astype(np.float64) - reference))) / scale


def candidate_bytes(candidates) -> bytes:
    """The exact bytes of a candidate list; equal bytes mean bit-identical."""
    return np.ascontiguousarray(candidates.entries).tobytes()


def reference_check(spec, fop, thresholds) -> dict:
    """Compare the program's plane with the numpy reference and build the
    reference candidates from it. Returns the check's findings."""
    from fdas import harmonic as hm
    from fdas.core import generate_input, synthetic_bank

    cfg = spec.config
    series = generate_input(cfg, spec.injections, spec.noise_sigma, spec.seed)
    bank = synthetic_bank(cfg, seed=spec.seed, n_templates=spec.n_templates)
    err = plane_error(fop.template_major(), reference_plane(series, bank.templates))
    _, reference = hm.harmonic_sum_naive(fop, thresholds, cfg)
    return {"plane_rel_error": err, "plane_ok": err <= PLANE_RTOL,
            "candidates": candidate_bytes(reference).hex(),
            "n_candidates": len(reference)}


def search_thresholds(spec, fop):
    """The threshold table ``execute`` derives for this spec."""
    from fdas import harmonic as hm

    if spec.threshold is not None:
        return hm.ThresholdTable.constant(spec.threshold, spec.config.n_hp,
                                          fop.n_templates)
    return hm.ThresholdTable.from_plane(fop, spec.config.n_hp)
