"""Unit tests for repro.analysis.structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.structure import structure_ladder, view_structure
from repro.density.connectivity import (
    connected_region,
    points_in_region,
    region_count_at,
)
from repro.density.grid import DensityGrid
from repro.exceptions import ConfigurationError


@pytest.fixture
def three_blob_view(rng):
    a = np.array([0.2, 0.2]) + rng.normal(0, 0.02, size=(200, 2))
    b = np.array([0.8, 0.2]) + rng.normal(0, 0.02, size=(120, 2))
    c = np.array([0.5, 0.8]) + rng.normal(0, 0.02, size=(60, 2))
    points = np.vstack([a, b, c])
    query = np.array([0.8, 0.2])  # inside blob b (second largest)
    grid = DensityGrid(points, resolution=40, include=query)
    return grid, points, query


class TestViewStructure:
    def test_finds_three_regions(self, three_blob_view):
        grid, points, query = three_blob_view
        tau = grid.density.max() * 0.05
        structure = view_structure(grid, points, query, tau)
        assert structure.region_count == 3

    def test_regions_sorted_by_size(self, three_blob_view):
        grid, points, query = three_blob_view
        tau = grid.density.max() * 0.05
        structure = view_structure(grid, points, query, tau)
        counts = [r.point_count for r in structure.regions]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 150  # the big blob

    def test_query_region_identified(self, three_blob_view):
        grid, points, query = three_blob_view
        tau = grid.density.max() * 0.05
        structure = view_structure(grid, points, query, tau)
        region = structure.query_region
        assert region is not None
        assert structure.query_region_rank == 1  # second largest
        # The query region's centroid is near blob b's center.
        assert abs(region.centroid[0] - 0.8) < 0.1
        assert abs(region.centroid[1] - 0.2) < 0.1

    def test_no_region_above_peak(self, three_blob_view):
        grid, points, query = three_blob_view
        structure = view_structure(grid, points, query, grid.density.max() * 2)
        assert structure.region_count == 0
        assert structure.query_region is None
        assert structure.query_region_rank is None

    def test_peak_density_positive(self, three_blob_view):
        grid, points, query = three_blob_view
        tau = grid.density.max() * 0.05
        structure = view_structure(grid, points, query, tau)
        for region in structure.regions:
            assert region.peak_density >= tau


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=10, max_value=80),
)
@settings(max_examples=30, deadline=None)
def test_view_structure_agrees_with_engine_connectivity(seed, n):
    """The analysis labelling and the engine's merge tree see one partition.

    Probed at every cell birth level, i.e. every threshold at which the
    qualifying set changes.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 1.0, size=(n, 2))
    query = points[int(rng.integers(n))]
    grid = DensityGrid(points, resolution=int(rng.integers(4, 16)))
    for tau in np.unique(grid.merge_tree.births):
        structure = view_structure(grid, points, query, tau)
        assert structure.region_count == region_count_at(grid, tau)
        region = connected_region(grid, query, tau)
        member = points_in_region(grid, region, points)
        found = structure.query_region
        if not region.seeded:
            assert found is None
            continue
        assert found is not None
        assert found.cell_count == region.cell_count
        assert found.point_count == int(member.sum())
        assert np.allclose(found.centroid, points[member].mean(axis=0))


class TestStructureLadder:
    def test_ladder_produces_plateau(self, three_blob_view):
        grid, points, query = three_blob_view
        ladder = structure_ladder(grid, points, query, steps=8)
        assert len(ladder) == 8
        counts = [s.region_count for s in ladder]
        # Somewhere on the ladder, all three blobs are distinguished.
        assert max(counts) >= 3

    def test_ladder_step_validation(self, three_blob_view):
        grid, points, query = three_blob_view
        with pytest.raises(ConfigurationError):
            structure_ladder(grid, points, query, steps=0)

    def test_uniform_noise_never_plateaus_at_k(self, rng):
        points = rng.uniform(size=(400, 2))
        grid = DensityGrid(points, resolution=40)
        ladder = structure_ladder(grid, points, points[0], steps=8)
        counts = [s.region_count for s in ladder]
        # Noise shows either one blob (low tau) or confetti (high tau),
        # never a long stable plateau; here we just check validity.
        assert all(c >= 0 for c in counts)
