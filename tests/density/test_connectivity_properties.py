"""Property-based tests for grid connectivity (hypothesis).

Covers the structural invariants of the merge tree's region lookup
(transposition symmetry, seed membership, idempotence, threshold
monotonicity) and pins its regions and component counts to the
independent ``scipy.ndimage.label`` oracle on random grids *and* on real
density-grid corner tests.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.density.connectivity import (
    MIN_CORNERS_ABOVE,
    connected_region,
    region_count_at,
)
from repro.density.grid import DensityGrid
from repro.density.merge_tree import MergeTree
from tests.density import oracle

#: Threshold separating the two birth levels of :func:`_tree_of`.
_TAU = 0.5


@st.composite
def boolean_grids(draw):
    """Random boolean grids of varied shape and fill fraction."""
    rows = draw(st.integers(min_value=1, max_value=14))
    cols = draw(st.integers(min_value=1, max_value=14))
    fill = draw(st.floats(min_value=0.0, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    return rng.random((rows, cols)) < fill


@st.composite
def grids_with_seed_cell(draw):
    """A random boolean grid plus a cell index inside it."""
    q = draw(boolean_grids())
    i = draw(st.integers(min_value=0, max_value=q.shape[0] - 1))
    j = draw(st.integers(min_value=0, max_value=q.shape[1] - 1))
    return q, (i, j)


@st.composite
def point_clouds(draw):
    """Small random 2-D point clouds (for real DensityGrid cases)."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=10, max_value=60))
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, 2))


def _tree_of(qualifies: np.ndarray) -> MergeTree:
    """A merge tree whose qualifying set at :data:`_TAU` is *qualifies*."""
    return MergeTree.from_births(np.where(qualifies, 1.0, 0.0))


def _region(qualifies: np.ndarray, cell: tuple[int, int]) -> np.ndarray:
    return _tree_of(qualifies).region_at(_TAU, cell)


# ----------------------------------------------------------------------
# MergeTree.region_at invariants
# ----------------------------------------------------------------------
@given(grids_with_seed_cell())
@settings(max_examples=60, deadline=None)
def test_flood_fill_transposition_invariance(case):
    """The region of the transposed grid from the swapped seed transposes."""
    q, (i, j) = case
    direct = _region(q, (i, j))
    transposed = _region(q.T, (j, i))
    assert np.array_equal(transposed, direct.T)


@given(grids_with_seed_cell())
@settings(max_examples=60, deadline=None)
def test_flood_fill_seed_membership(case):
    """The seed is in its own region iff it qualifies; mask ⊆ qualifies."""
    q, cell = case
    mask = _region(q, cell)
    assert mask[cell] == q[cell]
    if not q[cell]:
        assert not mask.any()
    # The region never escapes the qualifying set.
    assert not np.any(mask & ~q)


@given(grids_with_seed_cell())
@settings(max_examples=60, deadline=None)
def test_flood_fill_idempotent_on_own_region(case):
    """Looking up the region from any member cell reproduces it."""
    q, cell = case
    tree = _tree_of(q)
    mask = tree.region_at(_TAU, cell)
    members = np.argwhere(mask)
    if members.size == 0:
        return
    other = tuple(int(v) for v in members[len(members) // 2])
    assert np.array_equal(tree.region_at(_TAU, other), mask)


@given(grids_with_seed_cell(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_flood_fill_monotone_in_threshold(case, keep):
    """Raising tau never grows the region from the same seed.

    Cells of ``q_lo`` that survive into the nested ``q_hi`` get birth
    level 2, the rest of ``q_lo`` level 1: one tree then holds both
    qualifying sets, ``q_lo`` at ``tau = 0.5`` and ``q_hi`` at 1.5.
    """
    q_lo, cell = case
    rng = np.random.default_rng(int(keep * 10_000))
    q_hi = q_lo & (rng.random(q_lo.shape) < keep)  # nested: q_hi ⊆ q_lo
    q_hi[cell] = q_lo[cell]  # keep the seed's own status comparable
    tree = MergeTree.from_births(q_lo.astype(float) + q_hi.astype(float))
    mask_hi = tree.region_at(1.5, cell)
    mask_lo = tree.region_at(0.5, cell)
    assert np.array_equal(mask_hi, oracle.region_mask(q_hi, cell))
    assert np.all(mask_lo[mask_hi])


@given(point_clouds(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_region_monotone_in_tau_on_real_grids(points, frac):
    """On a real density grid, R(τ_hi, Q) ⊆ R(τ_lo, Q)."""
    grid = DensityGrid(points, resolution=12)
    query = points[0]
    peak = float(grid.density.max())
    lo = connected_region(grid, query, 0.4 * frac * peak)
    hi = connected_region(grid, query, frac * peak)
    assert np.all(lo.mask[hi.mask])


# ----------------------------------------------------------------------
# Merge tree vs the ndimage oracle
# ----------------------------------------------------------------------
@given(boolean_grids())
@settings(max_examples=60, deadline=None)
def test_component_labels_match_flood_fill_partition(q):
    """Each oracle label class is exactly one merge-tree region."""
    tree = _tree_of(q)
    for i, j in np.argwhere(q):
        cell = (int(i), int(j))
        assert np.array_equal(
            tree.region_at(_TAU, cell), oracle.region_mask(q, cell)
        )


@given(boolean_grids())
@settings(max_examples=80, deadline=None)
def test_count_components_vectorized_equals_bfs(q):
    """The merge-tree component count agrees with the oracle everywhere."""
    assert _tree_of(q).component_count_at(_TAU) == oracle.component_count(q)


@given(point_clouds(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=20, deadline=None)
def test_region_count_methods_agree_on_real_grids(points, frac):
    """``region_count_at`` matches the oracle on genuine corner-test grids."""
    grid = DensityGrid(points, resolution=12)
    tau = frac * float(grid.density.max())
    qualifies = grid.corners_above(tau) >= MIN_CORNERS_ABOVE
    assert region_count_at(grid, tau) == oracle.component_count(qualifies)


def test_corner_test_qualifying_grid_roundtrip(blob_2d):
    """End-to-end: corner-test grids give the oracle's component count."""
    points, _ = blob_2d
    grid = DensityGrid(points, resolution=20)
    for frac in (0.0, 0.1, 0.3, 0.7):
        tau = frac * float(grid.density.max())
        qualifies = grid.corners_above(tau) >= MIN_CORNERS_ABOVE
        assert region_count_at(grid, tau) == oracle.component_count(qualifies)
