"""Preference-count bookkeeping (paper Fig. 7).

The search maintains ``v(i)`` — how many of the iteration's projections
placed point ``i`` inside the user's query cluster.  This module owns
that state: counts live over the *original* point indices so the
pruning of the live set between major iterations cannot misalign them.
"""

from __future__ import annotations

import numpy as np

from repro.core.arraycodec import decode_floats, encode_array
from repro.exceptions import ConfigurationError


class PreferenceCounter:
    """Per-point user preference counts for one major iteration.

    Parameters
    ----------
    n_points:
        Size of the original data set; counts are indexed by original
        point id.
    """

    def __init__(self, n_points: int) -> None:
        if n_points <= 0:
            raise ConfigurationError("n_points must be positive")
        self._counts = np.zeros(n_points)
        self._pick_sizes: list[int] = []
        self._weights: list[float] = []

    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """Copy of the current ``v(i)`` vector (original indexing)."""
        return self._counts.copy()

    @property
    def pick_sizes(self) -> list[int]:
        """``n_i`` per recorded projection (0 for rejected views)."""
        return list(self._pick_sizes)

    @property
    def weights(self) -> list[float]:
        """``w_i`` per recorded projection."""
        return list(self._weights)

    @property
    def projections_recorded(self) -> int:
        """Number of projections folded in so far."""
        return len(self._pick_sizes)

    # ------------------------------------------------------------------
    def record(
        self,
        live_indices: np.ndarray,
        selected_mask: np.ndarray,
        *,
        weight: float = 1.0,
    ) -> None:
        """Fold one projection's user selection into the counts.

        Parameters
        ----------
        live_indices:
            Original indices of the live points shown in the view.
        selected_mask:
            Boolean mask over the live points; True = picked.
        weight:
            The projection's importance weight ``w_i``.
        """
        idx = np.asarray(live_indices, dtype=int)
        mask = np.asarray(selected_mask, dtype=bool)
        if mask.shape != idx.shape:
            raise ConfigurationError("mask must align with live_indices")
        if weight <= 0:
            raise ConfigurationError("weight must be positive")
        picked = idx[mask]
        self._counts[picked] += weight
        self._pick_sizes.append(int(mask.sum()))
        self._weights.append(float(weight))

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Lossless JSON-compatible snapshot (see checkpointing docs)."""
        return {
            "n_points": int(self._counts.shape[0]),
            "counts": encode_array(self._counts),
            "pick_sizes": list(self._pick_sizes),
            "weights": list(self._weights),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "PreferenceCounter":
        """Rebuild a counter from a :meth:`state_dict` snapshot."""
        restored = cls(int(state["n_points"]))
        counts = decode_floats(state["counts"])
        if counts.shape != restored._counts.shape:
            raise ConfigurationError("counts length does not match n_points")
        restored._counts = counts
        restored._pick_sizes = [int(s) for s in state["pick_sizes"]]
        restored._weights = [float(w) for w in state["weights"]]
        return restored

    def counts_for(self, live_indices: np.ndarray) -> np.ndarray:
        """``v(j)`` restricted to (and aligned with) *live_indices*."""
        return self._counts[np.asarray(live_indices, dtype=int)]

    def unpicked(self, live_indices: np.ndarray) -> np.ndarray:
        """Original indices among *live_indices* never picked this iteration."""
        idx = np.asarray(live_indices, dtype=int)
        return idx[self._counts[idx] == 0]


#: Pruning requires at least this many accepted views — condemning a
#: point on one view's evidence is statistically unjustified (see
#: :func:`prune_unpicked`).
MIN_ACCEPTED_VIEWS_TO_PRUNE = 2


def prune_unpicked(
    live: np.ndarray, preferences: PreferenceCounter
) -> np.ndarray:
    """Drop never-picked points (Fig. 2), unless that empties the set.

    The survivors are **exactly** the live points with a non-zero
    preference count this iteration — pruning removes zero-count ids
    and nothing else (property-tested in
    ``tests/core/test_counting_properties.py``).  Two guards keep the
    live set from collapsing:

    * when the user rejects every view there is no preference signal at
      all, so nothing is pruned (the meaningfulness probabilities
      already reflect the absence of signal);
    * pruning requires at least :data:`MIN_ACCEPTED_VIEWS_TO_PRUNE`
      accepted views — condemning a point on a single view's evidence
      can permanently lose cluster members that one view's separator
      happened to miss;
    * if pruning would delete every live point, the set is kept
      unchanged.
    """
    live = np.asarray(live, dtype=int)
    accepted_views = sum(1 for size in preferences.pick_sizes if size > 0)
    if accepted_views < MIN_ACCEPTED_VIEWS_TO_PRUNE:
        return live
    counts = preferences.counts_for(live)
    survivors = live[counts > 0]
    if survivors.size == 0:
        return live
    return survivors
