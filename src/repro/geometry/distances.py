"""Distance metrics and projected distances.

The paper's search process measures proximity with the Euclidean metric
inside candidate subspaces (``Pdist(x1, x2, E)``), while the motivating
theory (Beyer et al.; Aggarwal et al. on fractional metrics) concerns
the behaviour of whole families of ``L_p`` metrics in high dimension.
This module implements both: a small registry of metrics usable
anywhere in the library, and subspace-projected distances.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.exceptions import ConfigurationError, DimensionalityError
from repro.geometry.subspace import Subspace

MetricFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _broadcast(points: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    if pts.ndim == 1:
        pts = pts[np.newaxis, :]
    if q.ndim != 1:
        raise DimensionalityError("query must be a single 1-D point")
    if pts.shape[1] != q.shape[0]:
        raise DimensionalityError(
            f"points have dimension {pts.shape[1]}, query has {q.shape[0]}"
        )
    return pts, q


def minkowski_distance(points: np.ndarray, query: np.ndarray, p: float) -> np.ndarray:
    """``L_p`` distances from each row of *points* to *query*.

    Supports fractional ``0 < p < 1`` (a distance-like dissimilarity
    studied by Aggarwal, Hinneburg & Keim for high-dimensional data) as
    well as the classical ``p >= 1`` metrics and ``p = inf``.
    """
    pts, q = _broadcast(points, query)
    diff = np.abs(pts - q)
    if np.isinf(p):
        return diff.max(axis=1)
    if p <= 0:
        raise ConfigurationError(f"p must be positive, got {p}")
    return np.power(np.power(diff, p).sum(axis=1), 1.0 / p)


def euclidean_distance(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``L_2`` distances from each row of *points* to *query*."""
    pts, q = _broadcast(points, query)
    return np.sqrt(np.square(pts - q).sum(axis=1))


def manhattan_distance(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``L_1`` distances from each row of *points* to *query*."""
    return minkowski_distance(points, query, 1.0)


def chebyshev_distance(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """``L_inf`` distances from each row of *points* to *query*."""
    return minkowski_distance(points, query, np.inf)


def fractional_distance(
    points: np.ndarray, query: np.ndarray, p: float = 0.5
) -> np.ndarray:
    """Fractional ``L_p`` dissimilarity with ``0 < p < 1``."""
    if not 0 < p < 1:
        raise ConfigurationError(f"fractional metric needs 0 < p < 1, got {p}")
    return minkowski_distance(points, query, p)


_METRICS: Dict[str, MetricFn] = {
    "euclidean": euclidean_distance,
    "l2": euclidean_distance,
    "manhattan": manhattan_distance,
    "l1": manhattan_distance,
    "chebyshev": chebyshev_distance,
    "linf": chebyshev_distance,
}


def get_metric(name: str) -> MetricFn:
    """Look up a metric by name.

    Names ``"l<p>"`` with a numeric ``p`` (e.g. ``"l0.5"``) resolve to
    the corresponding Minkowski metric.
    """
    key = name.lower()
    if key in _METRICS:
        return _METRICS[key]
    if key.startswith("l"):
        try:
            p = float(key[1:])
        except ValueError:
            pass
        else:
            return lambda pts, q: minkowski_distance(pts, q, p)
    raise ConfigurationError(
        f"unknown metric {name!r}; known: {sorted(set(_METRICS))} or 'l<p>'"
    )


def projected_distance(
    x1: np.ndarray,
    x2: np.ndarray,
    subspace: Subspace,
    *,
    metric: MetricFn = euclidean_distance,
) -> float:
    """``Pdist(x1, x2, E)`` — distance between projections onto *subspace*."""
    p1 = subspace.project(np.asarray(x1, dtype=float))
    p2 = subspace.project(np.asarray(x2, dtype=float))
    return float(metric(p1[np.newaxis, :], p2)[0])


def projected_distances_to_query(
    points: np.ndarray,
    query: np.ndarray,
    subspace: Subspace,
    *,
    metric: MetricFn = euclidean_distance,
) -> np.ndarray:
    """``Pdist(q, x, E)`` for every row ``x`` of *points* at once."""
    coords = subspace.project(np.asarray(points, dtype=float))
    q = subspace.project(np.asarray(query, dtype=float))
    if coords.ndim == 1:
        coords = coords[np.newaxis, :]
    return metric(coords, q)


def k_smallest_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the *k* smallest entries of *values*, sorted ascending.

    Deterministic tie-break: equal values are ordered by index, so
    repeated runs with identical inputs select identical neighbors.
    The result equals ``np.argsort(values, kind="stable")[:k]`` exactly,
    ties, infinities and NaN included.

    Selection is ``O(n)``: a partition finds the *k*-th smallest value,
    and only the candidates not above it are stable-sorted.  Those
    candidates are a prefix of the full stable order, so its first *k*
    entries are the answer.  When ``k >= n`` or the *k*-th value is
    NaN the full stable sort is used instead.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if k <= 0:
        return np.empty(0, dtype=int)
    if k < n:
        kth = np.partition(values, k - 1)[k - 1]
        if kth == kth:  # not NaN
            candidates = np.flatnonzero(values <= kth)
            order = np.argsort(values[candidates], kind="stable")
            return candidates[order[:k]]
    return np.argsort(values, kind="stable")[:k]


def nearest_neighbors(
    points: np.ndarray,
    query: np.ndarray,
    k: int,
    *,
    metric: MetricFn = euclidean_distance,
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force k-nearest neighbors of *query* among *points*.

    Returns
    -------
    (indices, distances):
        Both of length ``min(k, n)``, sorted by increasing distance.
    """
    dists = metric(points, query)
    idx = k_smallest_indices(dists, k)
    return idx, dists[idx]
