"""Query refinement — relevance-feedback iteration on top of the search.

The paper's related work (MARS, FALCON, ref [22]/[28]) refines the
*query itself* from user feedback.  The interactive session produces
exactly the signal those systems need: a meaningfulness-weighted
neighbor set.  This module closes the loop:

1. run a session for query ``Q``;
2. move the query toward the probability-weighted centroid of its
   meaningful neighbors (classical Rocchio-style query-point movement);
3. re-run, and keep iterating while the neighbor set keeps improving.

Useful when the initial query sits at the fringe of its natural cluster
— the first session recovers part of the cluster, the moved query sits
deeper inside it, and the next session recovers the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.analysis.quality import natural_neighbors
from repro.core.engine import SearchResult
from repro.core.search import InteractiveNNSearch
from repro.core.termination import top_set_overlap
from repro.exceptions import ConfigurationError
from repro.interaction.base import UserAgent


@dataclass(frozen=True)
class RefinementStep:
    """One round of search + query movement."""

    query: np.ndarray
    result: SearchResult = field(hash=False)
    neighbors: np.ndarray = field(hash=False)

    @property
    def neighbor_count(self) -> int:
        """Size of this round's natural neighbor set."""
        return int(self.neighbors.size)

    @property
    def plateau_quality(self) -> float:
        """Mean meaningfulness probability of the natural set (0 if empty).

        A label-free proxy for the round's quality: a crisp session
        gives its natural neighbors probabilities near 1; a mushy one
        (query drifted into a bad spot) drags the plateau down.
        """
        if self.neighbors.size == 0:
            return 0.0
        return float(self.result.probabilities[self.neighbors].mean())


@dataclass(frozen=True)
class RefinedSearch:
    """Outcome of an iterative refinement run.

    Attributes
    ----------
    steps:
        All rounds, in order.
    converged:
        True when iteration stopped because consecutive neighbor sets
        stabilized (rather than hitting the round limit or a quality
        regression).
    """

    steps: tuple[RefinementStep, ...]
    converged: bool

    @property
    def final(self) -> RefinementStep:
        """The last refinement step."""
        return self.steps[-1]

    @property
    def best(self) -> RefinementStep:
        """The highest-quality step — the answer a caller should use.

        Query movement can overshoot (the probability-weighted centroid
        averages noise coordinates toward the data center); the best
        round by plateau quality is kept regardless of where iteration
        stopped.
        """
        return max(self.steps, key=lambda s: s.plateau_quality)


def moved_query(
    query: np.ndarray,
    points: np.ndarray,
    result: SearchResult,
    *,
    step: float = 1.0,
) -> np.ndarray:
    """Rocchio-style query movement toward the meaningful neighbors.

    The target is the probability-weighted centroid of the points with
    nonzero meaningfulness; ``step`` interpolates between the current
    query (0) and that centroid (1).  With no meaningful neighbors the
    query stays put.
    """
    if not 0.0 <= step <= 1.0:
        raise ConfigurationError("step must be in [0, 1]")
    weights = result.probabilities
    total = weights.sum()
    if total <= 0:
        return np.asarray(query, dtype=float).copy()
    centroid = (weights[:, np.newaxis] * points).sum(axis=0) / total
    q = np.asarray(query, dtype=float)
    return (1.0 - step) * q + step * centroid


def refine_search(
    search: InteractiveNNSearch,
    query: np.ndarray,
    user_factory: Callable[[np.ndarray], UserAgent],
    *,
    max_rounds: int = 3,
    movement_step: float = 1.0,
    stability_overlap: float = 0.9,
    quality_tolerance: float = 0.05,
) -> RefinedSearch:
    """Iterate search + query movement until the neighbor set stabilizes.

    Parameters
    ----------
    search:
        A configured search over the target dataset.
    query:
        The initial query point.
    user_factory:
        Builds a fresh user for each round's query (oracle users are
        query-specific; stateless users can ignore the argument).
    max_rounds:
        Maximum refinement rounds.
    movement_step:
        Rocchio interpolation factor per round.
    stability_overlap:
        Stop when consecutive natural neighbor sets overlap at least
        this much.
    quality_tolerance:
        Stop (without keeping the new round as best) when a round's
        plateau quality falls more than this below the best so far —
        the query has drifted somewhere worse.
    """
    if max_rounds < 1:
        raise ConfigurationError("max_rounds must be at least 1")
    points = search.dataset.points
    current = np.asarray(query, dtype=float)
    steps: list[RefinementStep] = []
    converged = False
    best_quality = -1.0
    for _ in range(max_rounds):
        user = user_factory(current)
        result = search.run(current, user)
        neighbors = natural_neighbors(
            result.probabilities,
            iterations=len(result.session.major_records),
        )
        step_record = RefinementStep(
            query=current, result=result, neighbors=neighbors
        )
        previous = steps[-1] if steps else None
        steps.append(step_record)
        if step_record.plateau_quality < best_quality - quality_tolerance:
            break  # the query drifted somewhere worse; stop here
        best_quality = max(best_quality, step_record.plateau_quality)
        if (
            previous is not None
            and neighbors.size
            and previous.neighbors.size
            and top_set_overlap(previous.neighbors, neighbors)
            >= stability_overlap
        ):
            converged = True
            break
        current = moved_query(current, points, result, step=movement_step)
    return RefinedSearch(steps=tuple(steps), converged=converged)
