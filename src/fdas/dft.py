"""Iterative power-of-two discrete Fourier transform.

The forward kernel is exp(-2*pi*i*j*k/N) with no scaling; the inverse uses the
conjugate kernel scaled by 1/N, so inverse(forward(x)) == x. Implemented
in-repo (iterative radix-2 with vectorised butterflies) so the direct O(N^2)
reference transform used in the tests checks an independent code path. A
batch ``(..., N)`` is transformed along its last axis in one call; every row
is bit-identical to a 1-D call on that row, because no butterfly group
crosses a row boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FdasError, is_pow2


class TransformError(FdasError):
    """Invalid transform size or mismatched input length."""


_DIRECTIONS = ("forward", "inverse")

# caches shared across plans; keyed on values only, safe under the GIL
_BITREV: dict[int, np.ndarray] = {}
_TWIDDLES: dict[tuple[int, int], np.ndarray] = {}


def _bit_reverse_indices(n: int) -> np.ndarray:
    idx = _BITREV.get(n)
    if idx is None:
        bits = n.bit_length() - 1
        fwd = np.arange(n, dtype=np.int64)
        rev = np.zeros(n, dtype=np.int64)
        for _ in range(bits):
            rev = (rev << 1) | (fwd & 1)
            fwd >>= 1
        idx = _BITREV[n] = rev
    return idx


def _twiddles(m: int, sign: int) -> np.ndarray:
    tw = _TWIDDLES.get((m, sign))
    if tw is None:
        half = m // 2
        tw = np.exp(sign * 2j * np.pi * np.arange(half) / m)
        _TWIDDLES[(m, sign)] = tw
    return tw


@dataclass(frozen=True)
class DftPlan:
    """Transform descriptor; immutable and safe to share across threads."""

    size: int
    direction: str = "forward"

    def __post_init__(self):
        if not is_pow2(self.size) or self.size < 2:
            raise TransformError(f"size must be a power of two >= 2, got {self.size}")
        if self.direction not in _DIRECTIONS:
            raise TransformError(f"direction must be one of {_DIRECTIONS}")

    @property
    def inverse(self) -> bool:
        return self.direction == "inverse"


def dft(plan: DftPlan, x) -> np.ndarray:
    """Apply the plan along the last axis of x, which must hold plan.size points.

    Accumulation runs in complex128; the result is cast back to complex64 for
    complex64 input.
    """
    arr = np.asarray(x)
    if arr.ndim == 0 or arr.shape[-1] != plan.size:
        raise TransformError(
            f"input shape {arr.shape} does not end in plan size {plan.size}")
    out_dtype = np.complex64 if arr.dtype == np.complex64 else np.complex128
    a = arr[..., _bit_reverse_indices(plan.size)].astype(np.complex128, copy=False)
    sign = 1 if plan.inverse else -1
    m = 2
    n = plan.size
    while m <= n:
        half = m // 2
        tw = _twiddles(m, sign)
        a = a.reshape(-1, m)
        t = a[:, half:] * tw
        np.subtract(a[:, :half], t, out=a[:, half:])
        a[:, :half] += t
        m <<= 1
    if plan.inverse:
        a /= n
    return a.reshape(arr.shape).astype(out_dtype, copy=False)


def forward(x) -> np.ndarray:
    return dft(DftPlan(len(x), "forward"), x)


def inverse(x) -> np.ndarray:
    return dft(DftPlan(len(x), "inverse"), x)
