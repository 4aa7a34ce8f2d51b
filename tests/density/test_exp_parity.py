"""Bit-parity of the underflow-free Gaussian ``exp`` and the exact grid."""

import math

import numpy as np

from repro.density.grid import DensityGrid
from repro.density.kde import KernelDensityEstimator
from repro.density.kernels import _exp_nonpositive, gaussian_kernel

_SMALLEST_NORMAL = np.finfo(float).tiny


def _identical(a, b):
    """Equal values, NaN positions and sign bits."""
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def test_exp_matches_numpy_on_edge_sweep():
    edges = np.array(
        [
            -np.inf,
            -0.0,
            0.0,
            -1e-300,
            -700.0,
            np.nextafter(-700.0, -np.inf),
            np.nextafter(-700.0, 0.0),
            -708.3964185322641,
            -708.396418532264,
            -745.1332191019411,
            -745.1332191019412,
            -746.0,
            np.nextafter(-746.0, 0.0),
            np.nextafter(-746.0, -np.inf),
            -1e308,
            np.nan,
        ]
    )
    assert _identical(_exp_nonpositive(edges), np.exp(edges))


def test_exp_matches_numpy_on_dense_sweep():
    x = np.random.default_rng(3).uniform(-800.0, 0.0, size=200_000)
    assert _identical(_exp_nonpositive(x), np.exp(x))
    # Both sides of the clamp and the recomputed band are exercised.
    assert (x < -746.0).any() and ((x >= -746.0) & (x < -700.0)).any()


def test_exp_in_place_and_non_contiguous():
    x = np.random.default_rng(4).uniform(-760.0, 0.0, size=(300, 40))
    view = x.T
    assert _identical(_exp_nonpositive(view), np.exp(view))
    buf = x.copy()
    out = _exp_nonpositive(buf, out=buf)
    assert out is buf
    assert _identical(buf, np.exp(x))


def test_gaussian_kernel_matches_seed_formula():
    u = np.random.default_rng(5).normal(0.0, 25.0, size=(500, 2))
    seed = (np.exp(-0.5 * np.square(u)) / math.sqrt(2.0 * math.pi)).prod(axis=-1)
    assert _identical(gaussian_kernel(u), seed)


def test_exact_grid_matches_seed_formula_on_narrow_bandwidth():
    rng = np.random.default_rng(6)
    points = np.vstack(
        [rng.normal(0.0, 1.0, size=(800, 2)), rng.normal(6.0, 0.5, size=(400, 2))]
    )
    bandwidth = np.array([0.08, 0.1])
    grid = DensityGrid(
        points,
        resolution=40,
        estimator=KernelDensityEstimator(points, bandwidth=bandwidth),
    )

    # The seed's exact evaluation, written out.
    hx, hy = bandwidth
    ux = (grid.grid_x[:, np.newaxis] - points[np.newaxis, :, 0]) / hx
    uy = (grid.grid_y[:, np.newaxis] - points[np.newaxis, :, 1]) / hy
    kx = np.exp(-0.5 * np.square(ux)) / math.sqrt(2.0 * math.pi)
    ky = np.exp(-0.5 * np.square(uy)) / math.sqrt(2.0 * math.pi)
    norm = 1.0 / (points.shape[0] * hx * hy)
    expected = (kx @ ky.T) * norm

    # The fixture really drives exp into underflow and subnormals.
    exponents = np.concatenate([(-0.5 * np.square(ux)).ravel(),
                                (-0.5 * np.square(uy)).ravel()])
    assert np.mean(exponents < -745.2) >= 0.4
    raw = np.exp(exponents)
    assert np.any((raw > 0.0) & (raw < _SMALLEST_NORMAL))

    assert _identical(grid.density, expected)
