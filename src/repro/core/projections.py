"""Query-centered projection discovery (paper Figs. 3 and 4).

``find_query_centered_projection`` iteratively refines a candidate
subspace ``E_p`` starting from the whole current subspace ``E_c``:

1. find the ``s`` nearest points to the query under the projected
   distance in ``E_p`` — the provisional *query cluster* ``N_p``;
2. recompute ``E_p`` as the query-cluster subspace of ``N_p`` — the
   ``l_p`` directions minimizing the cluster-to-global variance ratio
   (Fig. 4), drawn from cluster principal components (general case) or
   from the original attributes (axis-parallel case);
3. halve ``l_p`` and repeat until ``l_p = 2``.

The gradual alternation between refining ``N_p`` and ``E_p`` is the
paper's mechanism for locking onto a projection in which the query's
natural cluster stands out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DimensionalityError, SubspaceError
from repro.geometry.distances import k_smallest_indices
from repro.geometry.pca import (
    _covariance_discrimination_ratios,
    axis_discrimination_ratios,
    covariance_matrix,
)
from repro.geometry.subspace import Subspace
from repro.obs.metrics import counter
from repro.obs.trace import span

_REFINEMENTS = counter("projection.refinements")


@dataclass(frozen=True)
class ProjectionSearchResult:
    """Output of one minor iteration's projection search.

    Attributes
    ----------
    projection:
        The 2-D projection subspace ``E_proj`` in ambient coordinates.
    remainder:
        ``E_new = E_c - E_proj`` — the orthogonal complement within the
        current subspace, from which later projections are drawn.
    query_cluster_indices:
        Indices (into the live point array) of the final provisional
        query cluster ``N_p``.
    refinement_dims:
        The sequence of ``l_p`` values traversed, for diagnostics.
    """

    projection: Subspace
    remainder: Subspace
    query_cluster_indices: np.ndarray
    refinement_dims: tuple[int, ...] = field(default=())


def find_query_centered_projection(
    points: np.ndarray,
    query: np.ndarray,
    current: Subspace,
    support: int,
    *,
    axis_parallel: bool = False,
    restarts: int = 1,
    rng: np.random.Generator | None = None,
) -> ProjectionSearchResult:
    """One run of the paper's ``FindQueryCenteredProjections`` (Fig. 3).

    Parameters
    ----------
    points:
        ``(n, d)`` live data points in ambient coordinates.
    query:
        ``(d,)`` query point in ambient coordinates.
    current:
        The current subspace ``E_c`` (dimension >= 2).
    support:
        The number ``s`` of nearest points forming the provisional
        query cluster at each refinement step.
    axis_parallel:
        Use original-attribute directions instead of principal
        components when carving the query-cluster subspace.
    restarts:
        Number of refinement runs.  The first run starts from all of
        ``E_c`` exactly as in the paper; extra runs start from random
        coordinate subsets of ``E_c``, and the most discriminative
        outcome (lowest query-cluster variance ratio in the final
        view) wins.  Restarts recover from the known failure mode of
        full-dimensional seeding — when distances in ``E_c`` carry
        almost no signal, the first provisional neighbor set is noise
        and the refinement cannot lock on.
    rng:
        Source of randomness for the restart seeds (required when
        ``restarts > 1``).

    Returns
    -------
    ProjectionSearchResult
    """
    if current.dim < 2:
        raise SubspaceError(
            f"projection search needs a current subspace of dim >= 2, "
            f"got {current.dim}"
        )
    pts = np.asarray(points, dtype=float)
    q = np.asarray(query, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != current.ambient_dim:
        raise DimensionalityError("points must be (n, ambient_dim)")
    if q.shape != (current.ambient_dim,):
        raise DimensionalityError("query must be an ambient-dim vector")
    if restarts < 1:
        raise SubspaceError("restarts must be at least 1")
    if restarts > 1 and rng is None:
        raise SubspaceError("restarts > 1 requires an rng")

    # Work in E_c coordinates: rows of `coords` are Proj(x, E_c).
    coords = current.project(pts)
    q_coords = current.project(q)
    n, l_c = coords.shape
    support = max(1, min(support, n))
    # gamma_i of every refinement of every restart is v_i^T Sigma v_i
    # against this one covariance (the axis-parallel case reads the
    # per-axis variances directly and needs none).
    cov = None if axis_parallel else covariance_matrix(coords)

    with span(
        "projection.find",
        n=int(n),
        current_dim=int(l_c),
        restarts=restarts,
        axis_parallel=axis_parallel,
    ) as find_span:
        best: tuple[float, np.ndarray, np.ndarray, tuple[int, ...]] | None = None
        for attempt in range(restarts):
            _REFINEMENTS.inc()
            if attempt == 0 or l_c <= 3:
                seed = np.eye(l_c)
            elif attempt == 1:
                seed = _axis_contrast_seed(coords, q_coords, support)
            else:
                half = max(2, l_c // 2)
                chosen = np.sort(rng.choice(l_c, size=half, replace=False))
                seed = np.zeros((half, l_c))
                for row, axis in enumerate(chosen):
                    seed[row, axis] = 1.0
            with span("projection.refine", attempt=attempt):
                ep_basis, dims = _refine_projection(
                    coords, q_coords, seed, support, cov
                )
            offsets = (coords - q_coords) @ ep_basis.T
            dists = np.sqrt(np.square(offsets).sum(axis=1))
            cluster_idx = k_smallest_indices(dists, support)
            score = _view_score(dists, cluster_idx, coords @ ep_basis.T)
            if best is None or score < best[0]:
                best = (score, ep_basis, cluster_idx, dims)

        _, ep_basis, cluster_idx, dims = best
        projection = Subspace(ep_basis @ current.basis)
        remainder = _remainder_subspace(
            projection, current, axis_parallel=axis_parallel
        )
        find_span.set(refinement_dims=list(dims), best_score=float(best[0]))
    return ProjectionSearchResult(
        projection=projection,
        remainder=remainder,
        query_cluster_indices=cluster_idx,
        refinement_dims=dims,
    )


def _axis_contrast_seed(
    coords: np.ndarray, q_coords: np.ndarray, support: int
) -> np.ndarray:
    """Seed subspace from the axes with highest query-local contrast.

    For each coordinate of the current space, compare the distance to
    the ``s``-th nearest point *along that single axis* against the
    axis's global spread.  Axes along which the query has unusually
    many close points are the likeliest carriers of the query's local
    cluster structure; the top half of them form the seed.
    """
    n, l_c = coords.shape
    offsets = np.abs(coords - q_coords)  # (n, l_c) per-axis distances
    k = min(max(support, 1), n - 1) if n > 1 else 1
    # Per-axis distance to the k-th nearest point along that axis.
    partitioned = np.partition(offsets, k - 1, axis=0)
    local_radius = np.maximum(partitioned[k - 1], 1e-12)
    spread = np.maximum(coords.std(axis=0), 1e-12)
    contrast = spread / local_radius
    half = max(2, l_c // 2)
    chosen = np.sort(np.argsort(-contrast, kind="stable")[:half])
    seed = np.zeros((half, l_c))
    for row, axis in enumerate(chosen):
        seed[row, axis] = 1.0
    return seed


def _refine_projection(
    coords: np.ndarray,
    q_coords: np.ndarray,
    seed_basis: np.ndarray,
    support: int,
    cov: np.ndarray | None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The Fig. 3 refinement loop from a given starting subspace.

    *cov* is the covariance of *coords*, or ``None`` for axis-parallel
    directions (see :func:`_query_cluster_subspace`).  Returns the final
    2-row basis (in ``E_c`` coordinates) and the sequence of
    dimensionalities traversed.
    """
    l_c = coords.shape[1]
    ep_basis = seed_basis
    lp = ep_basis.shape[0]
    dims = [lp]
    while lp > 2:
        new_lp = max(2, lp // 2)
        # Provisional query cluster: s nearest under Pdist(q, x, E_p).
        offsets = (coords - q_coords) @ ep_basis.T
        dists = np.sqrt(np.square(offsets).sum(axis=1))
        cluster_idx = k_smallest_indices(dists, support)
        ep_basis = _query_cluster_subspace(coords[cluster_idx], coords, new_lp, cov)
        lp = new_lp
        dims.append(lp)
    if ep_basis.shape[0] != 2:
        # E_c was exactly 2-dimensional: the projection is E_c itself.
        ep_basis = np.eye(l_c)[:2] if l_c == 2 else ep_basis[:2]
    return ep_basis, tuple(dims)


def _view_score(
    view_dists: np.ndarray, cluster_idx: np.ndarray, view_coords: np.ndarray
) -> float:
    """Query-local density score of a final 2-D view (lower is better).

    The squared in-view radius of the provisional query cluster,
    normalized by the view's global spread.  A view in which the query
    sits inside a genuinely tight cluster scores far lower than a noise
    view, where the ``s``-nearest radius matches the background point
    density.  (A naive cluster-variance score is tautological here —
    the ``s`` nearest points of *any* view look tight in that view.)
    """
    if cluster_idx.size == 0:
        return float("inf")
    radius_sq = float(np.square(view_dists[cluster_idx]).max())
    spread = float(np.sqrt(np.prod(np.maximum(view_coords.var(axis=0), 1e-12))))
    return radius_sq / max(spread, 1e-12)


def _query_cluster_subspace(
    cluster_coords: np.ndarray,
    all_coords: np.ndarray,
    lp: int,
    cov: np.ndarray | None,
) -> np.ndarray:
    """The paper's ``QueryClusterSubspace`` (Fig. 4), in E_c coordinates.

    Returns an orthonormal ``(lp, l_c)`` basis of the directions along
    which the cluster's variance is smallest relative to the global
    variance.  With ``cov=None`` the directions are the coordinate axes
    (the axis-parallel case); otherwise they are the cluster's principal
    components, and *cov* is the covariance of *all_coords*.
    """
    if cov is None:
        _, axes = axis_discrimination_ratios(cluster_coords, all_coords)
        chosen = np.sort(axes[:lp])
        basis = np.zeros((lp, all_coords.shape[1]))
        for row, axis in enumerate(chosen):
            basis[row, axis] = 1.0
        return basis
    _, eigenvectors = _covariance_discrimination_ratios(cluster_coords, cov)
    return eigenvectors[:lp]


def _remainder_subspace(
    projection: Subspace, current: Subspace, *, axis_parallel: bool
) -> Subspace:
    """``E_new = E_c - E_proj`` preserving axis-parallelism when asked.

    The generic SVD complement may return rotated bases inside the
    degenerate null space; when the caller wants axis-parallel
    subspaces end to end, we instead subtract chosen axes explicitly.
    """
    if current.dim == projection.dim:
        return Subspace.empty(current.ambient_dim)
    if axis_parallel and current.is_axis_parallel() and projection.is_axis_parallel():
        current_axes = _axes_of(current)
        proj_axes = set(_axes_of(projection))
        remaining = [a for a in current_axes if a not in proj_axes]
        return Subspace.from_axes(remaining, current.ambient_dim)
    return projection.complement_within(current)


def _axes_of(subspace: Subspace) -> list[int]:
    """Attribute indices spanned by an axis-parallel subspace."""
    axes = []
    for row in subspace.basis:
        nonzero = np.flatnonzero(np.abs(row) > 1e-8)
        if nonzero.size != 1:
            raise SubspaceError("subspace is not axis-parallel")
        axes.append(int(nonzero[0]))
    return sorted(axes)


def orthogonal_projection_sequence(
    points: np.ndarray,
    query: np.ndarray,
    ambient_dim: int,
    support: int,
    *,
    axis_parallel: bool = False,
    max_projections: int | None = None,
    restarts: int = 1,
    rng: np.random.Generator | None = None,
) -> list[ProjectionSearchResult]:
    """The full graded sequence of one major iteration's projections.

    Repeatedly calls :func:`find_query_centered_projection`, feeding
    each call the previous remainder, until fewer than two dimensions
    are left — producing the paper's ``d/2`` mutually orthogonal views
    ordered from most to least discriminative.

    This standalone helper powers diagnostics and benchmarks that need
    the projection sequence without the interactive loop.
    """
    results: list[ProjectionSearchResult] = []
    current = Subspace.full(ambient_dim)
    budget = max_projections if max_projections is not None else ambient_dim // 2
    while current.dim >= 2 and len(results) < budget:
        result = find_query_centered_projection(
            points,
            query,
            current,
            support,
            axis_parallel=axis_parallel,
            restarts=restarts,
            rng=rng,
        )
        results.append(result)
        current = result.remainder
    return results
