"""Principal component analysis for query-cluster subspace selection.

Fig. 4 of the paper determines the *query cluster subspace*: given the
covariance matrix of the query cluster ``Np`` (expressed in the current
subspace coordinates), it takes the eigenvectors whose variance is small
*relative to the variance of the whole data set along the same
direction*.  The ratio ``lambda_i / gamma_i`` — cluster variance over
global variance per eigenvector — is the discrimination score; small is
good (the cluster is tight where the data at large is spread out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DimensionalityError, EmptyDatasetError
from repro.obs.metrics import counter
from repro.obs.trace import span

_DISCRIMINATIONS = counter("geometry.discrimination_calls")


@dataclass(frozen=True)
class PCAResult:
    """Eigen decomposition of a covariance matrix.

    Attributes
    ----------
    eigenvalues:
        ``(d,)`` eigenvalues sorted ascending; these are the variances of
        the analyzed point set along each eigenvector.
    eigenvectors:
        ``(d, d)`` array whose *rows* are the unit eigenvectors, ordered
        to match ``eigenvalues``.
    mean:
        ``(d,)`` mean of the analyzed points.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mean: np.ndarray


def covariance_matrix(points: np.ndarray) -> np.ndarray:
    """Sample covariance matrix of row *points* (``(n, d) -> (d, d)``).

    Uses the maximum-likelihood normalization ``1/n`` — the paper's
    analysis only consumes variance *ratios*, for which the choice of
    normalization cancels, and ``1/n`` stays finite for ``n = 1``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionalityError("points must be a 2-D array")
    if pts.shape[0] == 0:
        raise EmptyDatasetError("cannot compute covariance of zero points")
    centered = pts - pts.mean(axis=0)
    return (centered.T @ centered) / pts.shape[0]


def principal_components(points: np.ndarray) -> PCAResult:
    """Principal components of row *points*.

    Eigenvalues/vectors of the sample covariance, sorted by ascending
    eigenvalue (the paper wants the *least*-variance directions first).
    """
    pts = np.asarray(points, dtype=float)
    cov = covariance_matrix(pts)
    # Covariance is symmetric PSD: eigh is exact and returns ascending order.
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    # Numerical noise can produce tiny negative eigenvalues; clip to zero.
    eigenvalues = np.clip(eigenvalues, 0.0, None)
    return PCAResult(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors.T,
        mean=pts.mean(axis=0),
    )


def variance_along_directions(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Variance of *points* along each unit row-vector of *directions*.

    This is the paper's ``gamma_i``: the variance of the entire data set
    along eigenvector ``i`` of the query cluster.
    """
    pts = np.asarray(points, dtype=float)
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim == 1:
        dirs = dirs[np.newaxis, :]
    if pts.shape[1] != dirs.shape[1]:
        raise DimensionalityError(
            f"points dim {pts.shape[1]} != directions dim {dirs.shape[1]}"
        )
    coords = pts @ dirs.T  # (n, m) coordinates along each direction
    return coords.var(axis=0)


def discrimination_ratios(
    cluster_points: np.ndarray,
    all_points: np.ndarray,
    *,
    eps: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Variance ratios ``lambda_i / gamma_i`` per cluster eigenvector.

    Parameters
    ----------
    cluster_points:
        The query cluster ``Np`` in current-subspace coordinates.
    all_points:
        The full (current) data set in the same coordinates.
    eps:
        Floor applied to the global variance to avoid division by zero
        on degenerate directions.

    Returns
    -------
    (ratios, eigenvectors):
        ``ratios[i]`` is the discrimination score of eigenvector
        ``eigenvectors[i]`` (rows); both sorted by ascending ratio, so
        the first entries are the most discriminating directions.
    """
    _DISCRIMINATIONS.inc()
    with span("geometry.discrimination", dim=int(np.shape(all_points)[-1])):
        pca = principal_components(cluster_points)
        global_var = variance_along_directions(all_points, pca.eigenvectors)
        return _ranked_ratios(pca, global_var, eps)


def _covariance_discrimination_ratios(
    cluster_points: np.ndarray,
    global_cov: np.ndarray,
    *,
    eps: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`discrimination_ratios` given the data's covariance matrix.

    ``gamma_i`` is read off *global_cov* as ``v_i^T Sigma v_i`` —
    ``O(d^3)`` instead of an ``O(n d^2)`` pass over the data.  Callers
    that rank many query clusters against the same data set (the
    projection search) compute ``Sigma`` once and reuse it.
    """
    _DISCRIMINATIONS.inc()
    with span("geometry.discrimination", dim=int(global_cov.shape[0])):
        pca = principal_components(cluster_points)
        vecs = pca.eigenvectors
        global_var = np.einsum("ij,jk,ik->i", vecs, global_cov, vecs)
        return _ranked_ratios(pca, global_var, eps)


def _ranked_ratios(
    pca: PCAResult, global_var: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray]:
    """``lambda_i / gamma_i`` and eigenvectors, by ascending ratio."""
    ratios = pca.eigenvalues / np.maximum(global_var, eps)
    order = np.argsort(ratios, kind="stable")
    return ratios[order], pca.eigenvectors[order]


def axis_discrimination_ratios(
    cluster_points: np.ndarray,
    all_points: np.ndarray,
    *,
    eps: float = 1e-12,
) -> tuple[np.ndarray, np.ndarray]:
    """Axis-parallel variant of :func:`discrimination_ratios`.

    Instead of cluster eigenvectors, uses the coordinate axes of the
    current space (paper §2.1: "instead of using the principal
    components ... we use the original set of axis directions").

    Returns
    -------
    (ratios, axes):
        ``axes`` are the axis indices sorted by ascending variance ratio.
    """
    cluster = np.asarray(cluster_points, dtype=float)
    data = np.asarray(all_points, dtype=float)
    if cluster.shape[0] == 0:
        raise EmptyDatasetError("empty query cluster")
    _DISCRIMINATIONS.inc()
    with span("geometry.discrimination", dim=int(data.shape[1]), axis_parallel=True):
        cluster_var = cluster.var(axis=0)
        global_var = np.maximum(data.var(axis=0), eps)
        ratios = cluster_var / global_var
        order = np.argsort(ratios, kind="stable")
        return ratios[order], order
