"""Kernel functions for density estimation.

The paper (§2.2, Eq. 2) uses a Gaussian kernel; we additionally provide
the standard compact-support kernels so the bandwidth/kernel ablation
benchmark can vary them.  Every kernel is a product kernel over
dimensions, normalized so it integrates to one in each dimension.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

import numpy as np

from repro.exceptions import ConfigurationError

#: A kernel maps scaled offsets ``u = (x - x_i) / h`` to nonnegative
#: weights; input of shape ``(..., dim)``, output of shape ``(...)``.
KernelFn = Callable[[np.ndarray], np.ndarray]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Below this exponent ``np.exp`` leaves the normal range (``exp(-700)``
#: is ~1e-304; the smallest normal double is ``exp(-708.4)``).
_EXP_CLAMP = -700.0
#: Below this exponent the true ``exp`` is under half the smallest
#: subnormal (``exp(-745.13)``), so it rounds to exactly ``0.0``.
_EXP_ZERO = -746.0


def _exp_nonpositive(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.exp(x)``, bit for bit, without numpy's slow underflow path.

    numpy's SIMD ``exp`` costs about 1 ns per element when the result
    is a normal double, but about 17 ns when it underflows to zero and
    about 120 ns when it is subnormal — and a narrow Gaussian kernel
    drives half of its entries there.  This evaluates ``exp`` on the
    exponent clamped at ``_EXP_CLAMP`` (always a normal result), zeroes
    the clamped entries by multiplying with the unclamped mask, and
    recomputes the exact ``exp`` on the thin ``[_EXP_ZERO, _EXP_CLAMP)``
    band only (gather/scatter, not a boolean-mask assignment).  Below
    ``_EXP_ZERO`` the exact result is ``0.0`` as well, so the output is
    identical to ``np.exp(x)``, NaN and ``-inf`` included.

    *out*, when given, must be a float64 array shaped like *x*; it may
    be *x* itself.
    """
    x = np.asarray(x, dtype=float)
    if out is None:
        out = np.empty_like(x)
    keep = np.greater_equal(x, _EXP_CLAMP)
    band = np.flatnonzero(np.less(x, _EXP_CLAMP) & np.greater_equal(x, _EXP_ZERO))
    band_exp = np.exp(x.flat[band])
    np.maximum(x, _EXP_CLAMP, out=out)
    np.exp(out, out=out)
    np.multiply(out, keep, out=out)
    out.flat[band] = band_exp
    return out


def _gaussian_factor(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-dimension Gaussian ``exp(-u^2 / 2) / sqrt(2 pi)``, elementwise.

    Built in one buffer with the underflow-free ``exp``; *out* may be
    *u* itself.
    """
    out = np.square(u, out=out)
    out *= -0.5
    _exp_nonpositive(out, out=out)
    out /= _SQRT_2PI
    return out


def gaussian_kernel(u: np.ndarray) -> np.ndarray:
    """Product Gaussian kernel — the paper's Eq. (2) per dimension."""
    return _gaussian_factor(np.asarray(u, dtype=float)).prod(axis=-1)


def epanechnikov_kernel(u: np.ndarray) -> np.ndarray:
    """Product Epanechnikov kernel, optimal in the AMISE sense."""
    u = np.asarray(u, dtype=float)
    per_dim = 0.75 * np.clip(1.0 - np.square(u), 0.0, None)
    return per_dim.prod(axis=-1)


def triangular_kernel(u: np.ndarray) -> np.ndarray:
    """Product triangular kernel."""
    u = np.asarray(u, dtype=float)
    per_dim = np.clip(1.0 - np.abs(u), 0.0, None)
    return per_dim.prod(axis=-1)


def uniform_kernel(u: np.ndarray) -> np.ndarray:
    """Product boxcar kernel (counting within a cube)."""
    u = np.asarray(u, dtype=float)
    per_dim = 0.5 * (np.abs(u) <= 1.0)
    return per_dim.prod(axis=-1)


_KERNELS: Dict[str, KernelFn] = {
    "gaussian": gaussian_kernel,
    "epanechnikov": epanechnikov_kernel,
    "triangular": triangular_kernel,
    "uniform": uniform_kernel,
}


def get_kernel(name: str) -> KernelFn:
    """Look up a kernel function by name."""
    try:
        return _KERNELS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel {name!r}; known: {sorted(_KERNELS)}"
        ) from None


def kernel_names() -> list[str]:
    """Names of all registered kernels."""
    return sorted(_KERNELS)
