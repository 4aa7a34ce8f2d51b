"""View structure analysis — what else lives in a projection.

The paper's discussion of Figure 9 notes that the density separator's
contour generally produces *several* closed regions — the query's and
other clusters' — and its HD-Eye reference ([16]) mines exactly that
multi-peak structure.  This module summarizes a 2-D projection beyond
the query's own cluster: how many distinct density regions exist across
separator heights, how large they are, and where they peak.

Used by diagnostics-style reporting ("the view contains 3 well-formed
clusters, the query sits in the second largest") and by tests of the
visual substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.density.connectivity import MIN_CORNERS_ABOVE
from repro.density.grid import DensityGrid
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class RegionSummary:
    """One connected density region at a given separator height.

    Attributes
    ----------
    cell_count:
        Number of elementary rectangles in the region.
    point_count:
        Number of data points inside the region.
    peak_density:
        Maximum corner density within the region.
    centroid:
        Mean position of the region's member points (NaN when empty).
    contains_query:
        Whether the query point falls inside this region.
    """

    cell_count: int
    point_count: int
    peak_density: float
    centroid: tuple[float, float]
    contains_query: bool


@dataclass(frozen=True)
class ViewStructure:
    """The multi-region structure of one projection at one height.

    Attributes
    ----------
    threshold:
        The separator height analyzed.
    regions:
        All connected regions, largest (by point count) first.
    """

    threshold: float
    regions: tuple[RegionSummary, ...]

    @property
    def region_count(self) -> int:
        """Number of distinct regions at the threshold."""
        return len(self.regions)

    @property
    def query_region(self) -> RegionSummary | None:
        """The region containing the query, if any."""
        for region in self.regions:
            if region.contains_query:
                return region
        return None

    @property
    def query_region_rank(self) -> int | None:
        """Size rank (0 = largest) of the query's region, if any."""
        for rank, region in enumerate(self.regions):
            if region.contains_query:
                return rank
        return None


def view_structure(
    grid: DensityGrid,
    points_2d: np.ndarray,
    query_2d: np.ndarray,
    threshold: float,
) -> ViewStructure:
    """Enumerate all density-connected regions of a view at *threshold*.

    The same Definition-2.2 qualifying set as the query cluster, labelled
    exhaustively: every maximal group of 4-adjacent elementary
    rectangles with at least three corners above the threshold becomes
    one region.
    """
    qualifies = grid.corners_above(threshold) >= MIN_CORNERS_ABOVE
    labels, region_count = ndimage.label(qualifies)
    labels -= 1

    pts = np.asarray(points_2d, dtype=float)
    cells = grid.cells_of(pts)
    point_labels = labels[cells[:, 0], cells[:, 1]]
    query_cell = grid.cell_of(np.asarray(query_2d, dtype=float))
    query_label = labels[query_cell]

    # Per-region peak corner density.
    density = grid.density
    corner_max = np.maximum.reduce(
        [density[:-1, :-1], density[1:, :-1], density[:-1, 1:], density[1:, 1:]]
    )
    summaries = []
    for rid in range(region_count):
        member = point_labels == rid
        count = int(member.sum())
        centroid = (
            tuple(float(v) for v in pts[member].mean(axis=0))
            if count
            else (float("nan"), float("nan"))
        )
        summaries.append(
            RegionSummary(
                cell_count=int((labels == rid).sum()),
                point_count=count,
                peak_density=float(corner_max[labels == rid].max()),
                centroid=centroid,
                contains_query=bool(rid == query_label),
            )
        )
    summaries.sort(key=lambda r: (-r.point_count, -r.cell_count))
    return ViewStructure(threshold=threshold, regions=tuple(summaries))


def structure_ladder(
    grid: DensityGrid,
    points_2d: np.ndarray,
    query_2d: np.ndarray,
    *,
    steps: int = 8,
) -> list[ViewStructure]:
    """View structure across a geometric ladder of separator heights.

    The region count as a function of height is the classic mode-counting
    curve: clustered views show a stable plateau of k regions; noise
    shows either one blob or confetti depending on the height.
    """
    if steps < 1:
        raise ConfigurationError("steps must be at least 1")
    peak = float(grid.density.max())
    if peak <= 0:
        return []
    taus = np.geomspace(peak * 1e-3, peak * 0.9, steps)
    return [view_structure(grid, points_2d, query_2d, float(t)) for t in taus]
