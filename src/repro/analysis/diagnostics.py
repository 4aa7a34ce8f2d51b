"""Meaningfulness diagnosis (paper §4.2).

The paper's headline secondary capability: when the data is truly noisy
in every projection, the system should *say so* rather than return
arbitrary neighbors.  The diagnosis combines three signals gathered
during a search run:

1. the **steep-drop test** on the final probabilities (clustered data
   shows a plateau near 1 then a cliff; uniform data is flat);
2. the **view quality** the user saw (uniform data yields profiles with
   low relief and low query percentiles — Fig. 12);
3. the **user's acceptance rate** (a discerning user rejects most views
   of meaningless data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.quality import SteepDrop, natural_neighbors, steep_drop_analysis
from repro.core.engine import SearchResult


@dataclass(frozen=True)
class MeaningfulnessDiagnosis:
    """Verdict on whether NN search was meaningful for a query.

    Attributes
    ----------
    meaningful:
        The overall verdict.
    natural_count:
        Size of the natural neighbor set found (0 when none stood out).
    steep_drop:
        Steep-drop analysis of the final probabilities (reported for
        reference; the verdict uses the iterations-aware natural set).
    acceptance_rate:
        Fraction of presented views the user accepted.
    mean_view_relief:
        Average peak-to-median density ratio over presented views.
    max_probability:
        The best meaningfulness probability achieved by any point.
    explanation:
        Human-readable reasoning for the verdict.
    """

    meaningful: bool
    natural_count: int
    steep_drop: SteepDrop
    acceptance_rate: float
    mean_view_relief: float
    max_probability: float
    explanation: str


def diagnose(
    result: SearchResult,
    *,
    min_acceptance: float = 0.15,
    min_max_probability: float = 0.6,
) -> MeaningfulnessDiagnosis:
    """Diagnose one finished search run.

    Parameters
    ----------
    result:
        The search outcome to judge.
    min_acceptance:
        Below this view-acceptance rate the user evidently saw nothing
        coherent.
    min_max_probability:
        Unless some point reaches this probability, no neighbor stood
        out from chance.
    """
    probs = result.probabilities
    drop = steep_drop_analysis(probs)
    iterations = len(result.session.major_records)
    min_natural = max(5, result.support // 3)
    natural = (
        natural_neighbors(
            probs, iterations=iterations, min_set_size=min_natural
        )
        if iterations
        else np.empty(0, dtype=int)
    )
    session = result.session
    total_views = session.total_views
    acceptance = session.accepted_views / total_views if total_views else 0.0
    reliefs = [
        record.profile_statistics.peak_to_median
        for record in session.minor_records
    ]
    mean_relief = float(np.mean(reliefs)) if reliefs else 0.0
    max_prob = float(probs.max()) if probs.size else 0.0

    reasons = []
    if natural.size < min_natural:
        reasons.append(
            "no natural cluster stands out in the meaningfulness distribution"
        )
    if acceptance < min_acceptance:
        reasons.append(
            f"user accepted only {acceptance:.0%} of presented views"
        )
    if max_prob < min_max_probability:
        reasons.append(
            f"no point exceeded probability {min_max_probability:.2f} "
            f"(best {max_prob:.2f})"
        )
    meaningful = not reasons
    if meaningful:
        plateau = float(probs[natural].mean())
        explanation = (
            f"natural cluster of {natural.size} points with plateau "
            f"{plateau:.2f}; user accepted {acceptance:.0%} of views"
        )
    else:
        explanation = "; ".join(reasons)
    return MeaningfulnessDiagnosis(
        meaningful=meaningful,
        natural_count=int(natural.size),
        steep_drop=drop,
        acceptance_rate=acceptance,
        mean_view_relief=mean_relief,
        max_probability=max_prob,
        explanation=explanation,
    )
