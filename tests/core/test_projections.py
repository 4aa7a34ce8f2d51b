"""Unit tests for repro.core.projections (Figs. 3-4)."""

import numpy as np
import pytest

from repro.core import projections
from repro.core.projections import (
    find_query_centered_projection,
    orthogonal_projection_sequence,
)
from repro.exceptions import SubspaceError
from repro.geometry.pca import (
    _covariance_discrimination_ratios,
    covariance_matrix,
    discrimination_ratios,
    principal_components,
    variance_along_directions,
)
from repro.geometry.subspace import Subspace


@pytest.fixture
def embedded_cluster(rng):
    """Cluster tight in dims (0, 1), uniform elsewhere, in 8 dims.

    Returns (points, query, member_mask).
    """
    n_members, n_noise, d = 150, 450, 8
    anchor = np.full(d, 0.5)
    members = rng.uniform(0, 1, size=(n_members, d))
    members[:, 0] = anchor[0] + rng.normal(0, 0.01, n_members)
    members[:, 1] = anchor[1] + rng.normal(0, 0.01, n_members)
    noise = rng.uniform(0, 1, size=(n_noise, d))
    points = np.vstack([members, noise])
    mask = np.zeros(600, dtype=bool)
    mask[:150] = True
    query = members[0]
    return points, query, mask


class TestFindProjection:
    def test_finds_signal_plane(self, embedded_cluster):
        points, query, mask = embedded_cluster
        result = find_query_centered_projection(
            points, query, Subspace.full(8), support=30,
            restarts=4, rng=np.random.default_rng(0),
        )
        # The projection should be (close to) the (e0, e1) plane: both
        # signal axes are nearly contained in it.
        proj = result.projection
        e0 = np.eye(8)[0]
        e1 = np.eye(8)[1]
        r0 = np.linalg.norm(proj.basis @ e0)
        r1 = np.linalg.norm(proj.basis @ e1)
        assert r0 > 0.9 and r1 > 0.9

    def test_projection_properties(self, embedded_cluster):
        points, query, _ = embedded_cluster
        current = Subspace.full(8)
        result = find_query_centered_projection(points, query, current, 30)
        assert result.projection.dim == 2
        assert result.remainder.dim == 6
        assert result.projection.is_orthogonal_to(result.remainder)
        assert result.projection.is_contained_in(current)

    def test_refinement_dims_halve(self, embedded_cluster):
        points, query, _ = embedded_cluster
        result = find_query_centered_projection(
            points, query, Subspace.full(8), 30
        )
        dims = result.refinement_dims
        assert dims[0] == 8
        assert dims[-1] == 2
        for a, b in zip(dims, dims[1:]):
            assert b == max(2, a // 2)

    def test_query_cluster_mostly_members(self, embedded_cluster):
        points, query, mask = embedded_cluster
        result = find_query_centered_projection(
            points, query, Subspace.full(8), 30,
            restarts=4, rng=np.random.default_rng(0),
        )
        cluster = result.query_cluster_indices
        assert cluster.size == 30
        assert mask[cluster].mean() > 0.8

    def test_axis_parallel_projection(self, embedded_cluster):
        points, query, _ = embedded_cluster
        result = find_query_centered_projection(
            points, query, Subspace.full(8), 30, axis_parallel=True
        )
        assert result.projection.is_axis_parallel()
        assert result.remainder.is_axis_parallel()

    def test_two_dim_current_returns_itself(self, rng):
        points = rng.normal(size=(50, 4))
        query = points[0]
        current = Subspace.from_axes([1, 3], 4)
        result = find_query_centered_projection(points, query, current, 10)
        assert result.projection.dim == 2
        assert result.projection.is_contained_in(current)
        assert result.remainder.dim == 0

    def test_rejects_1d_current(self, rng):
        points = rng.normal(size=(20, 3))
        with pytest.raises(SubspaceError):
            find_query_centered_projection(
                points, points[0], Subspace.from_axes([0], 3), 5
            )

    def test_restarts_require_rng(self, embedded_cluster):
        points, query, _ = embedded_cluster
        with pytest.raises(SubspaceError):
            find_query_centered_projection(
                points, query, Subspace.full(8), 30, restarts=3
            )

    def test_restarts_deterministic(self, embedded_cluster):
        points, query, _ = embedded_cluster
        a = find_query_centered_projection(
            points, query, Subspace.full(8), 30,
            restarts=4, rng=np.random.default_rng(5),
        )
        b = find_query_centered_projection(
            points, query, Subspace.full(8), 30,
            restarts=4, rng=np.random.default_rng(5),
        )
        assert np.allclose(a.projection.basis, b.projection.basis)

    def test_support_clamped_to_population(self, rng):
        points = rng.normal(size=(10, 4))
        result = find_query_centered_projection(
            points, points[0], Subspace.full(4), support=500
        )
        assert result.query_cluster_indices.size == 10


class TestOrthogonalSequence:
    def test_produces_mutually_orthogonal_planes(self, embedded_cluster):
        points, query, _ = embedded_cluster
        results = orthogonal_projection_sequence(points, query, 8, 30)
        assert len(results) == 4
        for i, a in enumerate(results):
            assert a.projection.dim == 2
            for b in results[i + 1 :]:
                assert a.projection.is_orthogonal_to(b.projection)

    def test_planes_span_space(self, embedded_cluster):
        points, query, _ = embedded_cluster
        results = orthogonal_projection_sequence(points, query, 8, 30)
        total = results[0].projection
        for r in results[1:]:
            total = total.direct_sum(r.projection)
        assert total.dim == 8

    def test_max_projections(self, embedded_cluster):
        points, query, _ = embedded_cluster
        results = orthogonal_projection_sequence(
            points, query, 8, 30, max_projections=2
        )
        assert len(results) == 2

    def test_first_projection_most_discriminative(self, embedded_cluster):
        """Graded subspace determination: signal axes come first."""
        points, query, _ = embedded_cluster
        results = orthogonal_projection_sequence(
            points, query, 8, 30, restarts=4, rng=np.random.default_rng(0)
        )
        first = results[0].projection
        signal = Subspace.from_axes([0, 1], 8)
        # Overlap of first projection with the signal plane is high.
        overlap = np.linalg.norm(first.basis @ signal.basis.T)
        assert overlap > 1.3  # max possible is sqrt(2) ~ 1.414

    def test_odd_dimension(self, rng):
        points = rng.normal(size=(100, 7))
        results = orthogonal_projection_sequence(points, points[0], 7, 10)
        assert len(results) == 3  # floor(7/2), one dimension unused


def _reference_cluster_subspace(cluster_coords, all_coords, lp, cov):
    """Fig. 4 with gamma_i re-projected from every point per refinement."""
    assert cov is not None
    pca = principal_components(cluster_coords)
    gamma = variance_along_directions(all_coords, pca.eigenvectors)
    ratios = pca.eigenvalues / np.maximum(gamma, 1e-12)
    return pca.eigenvectors[np.argsort(ratios, kind="stable")][:lp]


class TestCovarianceGamma:
    """One covariance per projection search, same answer as re-projecting."""

    @pytest.fixture(params=["embedded8", "clustered16"])
    def workload(self, request, embedded_cluster):
        if request.param == "embedded8":
            points, query, _ = embedded_cluster
            return points, query, Subspace.full(8)
        rng = np.random.default_rng(17)
        points = rng.normal(size=(900, 16)) * rng.uniform(0.5, 3.0, size=16)
        points[:200, 3:8] = rng.normal(0.0, 0.05, size=(200, 5))
        return points, points[0], Subspace.from_axes(list(range(1, 15)), 16)

    def test_projection_matches_per_refinement_reference(
        self, workload, monkeypatch
    ):
        points, query, current = workload

        def search():
            return find_query_centered_projection(
                points, query, current, support=30, axis_parallel=False,
                restarts=4, rng=np.random.default_rng(2),
            )

        fast = search()
        calls = []

        def reference(*args):
            calls.append(1)
            return _reference_cluster_subspace(*args)

        monkeypatch.setattr(projections, "_query_cluster_subspace", reference)
        slow = search()
        assert len(calls) > 4  # every restart refined at least once
        assert np.array_equal(fast.projection.basis, slow.projection.basis)
        assert np.array_equal(
            fast.query_cluster_indices, slow.query_cluster_indices
        )
        assert fast.refinement_dims == slow.refinement_dims

    def test_covariance_gamma_agrees_with_reprojection(self, workload):
        # Both sides share the cluster PCA (lambda_i, v_i), so the ratios
        # lambda_i / gamma_i agree exactly as far as the gammas do.
        points, _, current = workload
        coords = current.project(points)
        cov = covariance_matrix(coords)
        rng = np.random.default_rng(8)
        for size in (5, 30, 120):
            cluster = coords[rng.choice(coords.shape[0], size=size, replace=False)]
            fast_ratios, fast_vecs = _covariance_discrimination_ratios(cluster, cov)
            ratios, vecs = discrimination_ratios(cluster, coords)
            np.testing.assert_allclose(fast_ratios, ratios, rtol=1e-12, atol=0)
            assert np.array_equal(fast_vecs, vecs)
