"""Shared fixtures and independent reference implementations.

The reference (oracle) routines here are deliberately written as direct
summations in double precision, independent of the package's own code paths.
"""

import numpy as np
import pytest


def direct_dft(x, inverse=False):
    """O(N^2) discrete Fourier transform by explicit kernel matrix."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    sign = 2j if inverse else -2j
    kernel = np.exp(sign * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    out = kernel @ x
    return out / n if inverse else out


def direct_convolve(x, h):
    """Zero-history FIR by shift-and-accumulate in double precision."""
    x = np.asarray(x, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    n = x.size
    y = np.zeros(n, dtype=np.complex128)
    for j in range(min(h.size, n)):
        y[j:] += h[j] * x[: n - j]
    return y


def rel_err(a, b):
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-30)
    return float(np.max(np.abs(a - b)) / scale)


def random_series(rng, n, dtype=np.complex64):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)


def random_taps(rng, n_tap, dtype=np.complex64):
    return (rng.standard_normal(n_tap) + 1j * rng.standard_normal(n_tap)).astype(dtype)


def select_candidates(points, n_cand):
    """Candidate selection by plain sorting: per harmonic, ascending, the first
    n_cand of its (harmonic, template, channel, power) points ordered by
    (power desc, channel, template)."""
    kept = []
    for k in sorted({pt[0] for pt in points}):
        ranked = sorted((pt for pt in points if pt[0] == k),
                        key=lambda pt: (-pt[3], pt[2], pt[1]))
        kept.extend(ranked[:n_cand])
    return kept


def stretched_sums(plane, n_hp):
    """Harmonic planes 1..n_hp of a template-major plane by direct indexing.

    Plane k at (storage row r, channel j) is the float32 sum, over m = 1..k in
    ascending order, of plane[row of trunc(i / m), j // m], where i is the
    signed template of row r and the row of signed template 0 is
    (rows - 1) // 2.
    """
    plane = np.asarray(plane, dtype=np.float32)
    rows, cols = plane.shape
    zero = (rows - 1) // 2
    signed = np.arange(rows) - zero
    acc = np.zeros_like(plane)
    planes = []
    for m in range(1, n_hp + 1):
        src_rows = np.trunc(signed / m).astype(int) + zero
        acc = acc + plane[src_rows[:, None], np.arange(cols)[None, :] // m]
        planes.append(acc)
    return planes


def random_plane(rng, rows, cols):
    """Random non-negative float32 power plane."""
    return (rng.standard_normal((rows, cols)) ** 2).astype(np.float32)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
