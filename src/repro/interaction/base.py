"""The user-agent protocol — the human side of the cooperation.

The paper's system needs exactly one thing from the human per minor
iteration: after seeing the visual profile of a projection, either a
noise threshold ``tau`` separating the query cluster (possibly after a
few adjustments, Fig. 6) or a decision to ignore the view.  That
interaction is captured by :class:`UserAgent.review_view`, which
receives a :class:`ProjectionView` and returns a :class:`UserDecision`.

The search core never learns what kind of entity produced the decision;
oracle, heuristic, scripted, and terminal users are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.density.profiles import VisualProfile
from repro.exceptions import InteractionError
from repro.geometry.subspace import Subspace


@dataclass(frozen=True)
class ProjectionView:
    """Everything presented to the user for one minor iteration.

    Attributes
    ----------
    profile:
        The density profile (Fig. 5) of the chosen 2-D projection.
    projected_points:
        ``(n_live, 2)`` coordinates of the current data set in the
        projection.
    query_2d:
        The query's coordinates in the projection.
    subspace:
        The 2-D projection subspace within the ambient space.
    live_indices:
        Original dataset indices of the current (possibly pruned)
        points, aligned with ``projected_points`` rows.
    major_index, minor_index:
        Zero-based iteration counters, so users can weigh early
        (well-graded) views differently from late (noisy) ones.
    total_points:
        Size of the original data set (before pruning); lets users
        recognize a converged live set.  Zero when unknown.
    """

    profile: VisualProfile
    projected_points: np.ndarray
    query_2d: np.ndarray
    subspace: Subspace
    live_indices: np.ndarray
    major_index: int
    minor_index: int
    total_points: int = 0

    @property
    def n_points(self) -> int:
        """Number of live points shown in this view."""
        return self.projected_points.shape[0]


@dataclass(frozen=True)
class UserDecision:
    """The user's reaction to one projection view.

    Attributes
    ----------
    accepted:
        False when the user chose to ignore the projection (paper: "an
        arbitrarily high value of the noise threshold").
    selected_mask:
        Boolean mask over the view's live points; True marks membership
        in the user's query cluster.  All-False when rejected.
    threshold:
        The noise threshold the user settled on (None when the decision
        was made by polygonal separation or rejection).
    weight:
        The user's importance weight for this view (the paper's ``w_i``
        extension, §2.3: "it is also possible to weight different query
        clusters by importance").  1 reproduces the paper's default.
    note:
        Free-form explanation, recorded in the session audit trail.
    """

    accepted: bool
    selected_mask: np.ndarray
    threshold: float | None = None
    weight: float = 1.0
    note: str = ""

    def __post_init__(self) -> None:
        mask = np.asarray(self.selected_mask, dtype=bool)
        object.__setattr__(self, "selected_mask", mask)
        if self.weight <= 0:
            raise InteractionError("decision weight must be positive")
        if self.accepted and not mask.any():
            # An accepted view that selects nothing is indistinguishable
            # from rejection downstream; normalize to rejected.
            object.__setattr__(self, "accepted", False)

    @classmethod
    def reject(cls, n_points: int, note: str = "view rejected") -> "UserDecision":
        """A rejection decision over *n_points* live points."""
        return cls(
            accepted=False,
            selected_mask=np.zeros(n_points, dtype=bool),
            threshold=None,
            note=note,
        )

    @property
    def selected_count(self) -> int:
        """Number of points placed in the query cluster."""
        return int(self.selected_mask.sum())


@runtime_checkable
class UserAgent(Protocol):
    """The protocol every user implementation satisfies."""

    def review_view(self, view: ProjectionView) -> UserDecision:
        """Inspect one projection and either separate a cluster or reject."""
        ...


def validate_decision(decision: UserDecision, view: ProjectionView) -> UserDecision:
    """Check a decision is structurally consistent with its view.

    Raises
    ------
    InteractionError
        When the mask length does not match the number of live points.
    """
    if decision.selected_mask.shape != (view.n_points,):
        raise InteractionError(
            f"decision mask has shape {decision.selected_mask.shape}, "
            f"view has {view.n_points} points"
        )
    return decision


@dataclass
class ThresholdSweep:
    """Shared helper: query-cluster size as a function of threshold.

    Sweeps a geometric ladder of thresholds between the grid's median
    and peak density and records the resulting cluster sizes.  Both
    simulated users pick their ``tau`` from this curve — mirroring the
    paper's human who "can look at density separated views for many
    different values of the noise threshold" before settling.
    """

    thresholds: np.ndarray
    sizes: np.ndarray
    masks: list[np.ndarray] = field(repr=False, default_factory=list)

    @classmethod
    def over_view(cls, view: ProjectionView, *, steps: int = 24) -> "ThresholdSweep":
        """Sweep *steps* thresholds over the view's useful density range.

        The ladder tops out just below the query's own density — any
        separator above that disconnects the query's region entirely —
        and bottoms out at the grid's median density (the background
        level below which everything merges).

        The whole ladder is answered by one merge-tree pass
        (:meth:`~repro.density.profiles.VisualProfile.cluster_sweep`);
        the resulting sizes and masks are element-identical to the
        per-``tau`` path.
        """
        density = view.profile.grid.density
        peak = float(density.max())
        query_density = view.profile.statistics.query_density
        hi = min(peak, query_density) * 0.999
        floor = float(np.median(density))
        if hi <= 0:
            return cls(thresholds=np.empty(0), sizes=np.empty(0, dtype=int))
        lo = min(max(floor, hi * 1e-4), hi * 0.5)
        taus = np.geomspace(max(lo, 1e-12), hi, steps)
        sizes, mask_rows = view.profile.cluster_sweep(
            view.projected_points, taus
        )
        masks = [mask_rows[pos].copy() for pos in range(steps)]
        return cls(thresholds=taus, sizes=sizes, masks=masks)

    @property
    def is_empty(self) -> bool:
        """True when no threshold produced a non-empty cluster."""
        return self.sizes.size == 0 or int(self.sizes.max()) == 0
