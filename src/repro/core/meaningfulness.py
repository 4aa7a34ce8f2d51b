"""Meaningfulness quantification (paper §3, Fig. 8, Eqs. 3-8).

After one major iteration of ``m = d/2`` projections, the user's
preference count ``v(j)`` for point ``j`` is compared against the count
a *coherence-free* user would produce.  Under the null hypothesis that
picks in different projections are independent, ``Y_j = sum_i w_i
X_ij`` with ``X_ij ~ Bernoulli(n_i / N)``, giving

    E[Y_j]   = sum_i w_i n_i / N
    var(Y_j) = sum_i w_i^2 (n_i / N)(1 - n_i / N)

The meaningfulness coefficient ``M(j) = (v(j) - E[Y_j]) / sqrt(var)``
is approximately standard normal for large ``d``, and the
meaningfulness probability is ``P(j) = max(2 Phi(M(j)) - 1, 0)``.
Probabilities are averaged across major iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from repro.core.arraycodec import decode_floats, encode_array
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class IterationStatistics:
    """Null-hypothesis statistics of one major iteration.

    Attributes
    ----------
    pick_counts:
        ``n_i`` — number of points picked in each of the iteration's
        projections (rejected views contribute 0).
    population:
        ``N`` — number of candidate points during the iteration.
    weights:
        ``w_i`` — per-projection weights (paper uses all ones).
    expected:
        ``E[Y_j]`` (identical for every point).
    variance:
        ``var(Y_j)`` (identical for every point).
    """

    pick_counts: np.ndarray
    population: int
    weights: np.ndarray
    expected: float
    variance: float


def iteration_statistics(
    pick_counts: np.ndarray,
    population: int,
    *,
    weights: np.ndarray | None = None,
) -> IterationStatistics:
    """Compute ``E[Y]`` and ``var(Y)`` from per-projection pick counts."""
    n_i = np.asarray(pick_counts, dtype=float)
    if population <= 0:
        raise ConfigurationError("population must be positive")
    if np.any(n_i < 0) or np.any(n_i > population):
        raise ConfigurationError(
            "pick counts must lie in [0, population]"
        )
    if weights is None:
        w = np.ones_like(n_i)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != n_i.shape:
            raise ConfigurationError("weights shape must match pick_counts")
        if np.any(w <= 0):
            raise ConfigurationError("weights must be positive")
    frac = n_i / population
    expected = float(np.sum(w * frac))
    variance = float(np.sum(np.square(w) * frac * (1.0 - frac)))
    return IterationStatistics(
        pick_counts=n_i,
        population=population,
        weights=w,
        expected=expected,
        variance=variance,
    )


def meaningfulness_coefficients(
    preference_counts: np.ndarray, stats: IterationStatistics
) -> np.ndarray:
    """``M(j) = (v(j) - E[Y]) / sqrt(var(Y))`` for every point.

    When the variance is zero (no picks at all, or every projection
    picked everything) there is no signal; the coefficient is defined
    as 0 so downstream probabilities become 0.
    """
    v = np.asarray(preference_counts, dtype=float)
    if stats.variance <= 0:
        return np.zeros_like(v)
    return (v - stats.expected) / np.sqrt(stats.variance)


def meaningfulness_probabilities(
    preference_counts: np.ndarray, stats: IterationStatistics
) -> np.ndarray:
    """``P(j) = max(2 Phi(M(j)) - 1, 0)`` — Eq. (7) per point."""
    m = meaningfulness_coefficients(preference_counts, stats)
    return np.maximum(2.0 * norm.cdf(m) - 1.0, 0.0)


class MeaningfulnessAccumulator:
    """Cross-iteration aggregation of meaningfulness (Eq. 8).

    Maintains the running sum of per-iteration probabilities ``p^i_j``
    for every original data point; :meth:`averages` divides by the
    number of iterations, as the paper notes ("the true value ... may
    be obtained by dividing this value by Lambda").

    Points pruned from the live set simply stop receiving updates and
    keep the average of the iterations they participated in.
    """

    def __init__(self, n_points: int) -> None:
        if n_points <= 0:
            raise ConfigurationError("n_points must be positive")
        self._sums = np.zeros(n_points)
        self._iterations = 0

    @property
    def iterations(self) -> int:
        """Number of major iterations accumulated."""
        return self._iterations

    @property
    def sums(self) -> np.ndarray:
        """Raw probability sums (the paper's stored ``P`` vector)."""
        return self._sums.copy()

    def update(
        self,
        live_indices: np.ndarray,
        preference_counts: np.ndarray,
        stats: IterationStatistics,
    ) -> np.ndarray:
        """Fold one major iteration into the accumulator.

        Parameters
        ----------
        live_indices:
            Original indices of the live points, aligned with
            *preference_counts*.
        preference_counts:
            ``v(j)`` over live points for the finished iteration.
        stats:
            The iteration's null statistics.

        Returns
        -------
        numpy.ndarray
            The per-live-point probabilities ``p^i_j`` of this iteration.
        """
        idx = np.asarray(live_indices, dtype=int)
        probs = meaningfulness_probabilities(preference_counts, stats)
        if probs.shape != idx.shape:
            raise ConfigurationError(
                "preference_counts must align with live_indices"
            )
        self._sums[idx] += probs
        self._iterations += 1
        return probs

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Lossless JSON-compatible snapshot (see checkpointing docs)."""
        return {
            "n_points": int(self._sums.shape[0]),
            "sums": encode_array(self._sums),
            "iterations": self._iterations,
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MeaningfulnessAccumulator":
        """Rebuild an accumulator from a :meth:`state_dict` snapshot."""
        accumulator = cls(int(state["n_points"]))
        sums = decode_floats(state["sums"])
        if sums.shape != accumulator._sums.shape:
            raise ConfigurationError("sums length does not match n_points")
        accumulator._sums = sums
        accumulator._iterations = int(state["iterations"])
        return accumulator

    def averages(self) -> np.ndarray:
        """Final meaningfulness probabilities ``P(j)`` (Eq. 8)."""
        if self._iterations == 0:
            return np.zeros_like(self._sums)
        return self._sums / self._iterations

    def top_indices(self, count: int) -> np.ndarray:
        """Indices of the *count* highest-probability points.

        Ties break deterministically by index.
        """
        averages = self.averages()
        order = np.argsort(-averages, kind="stable")
        return order[: max(count, 0)]
