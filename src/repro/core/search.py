"""The interactive nearest-neighbor search driver (paper Fig. 2).

One :class:`InteractiveNNSearch` run alternates between the computer's
work — finding graded, mutually orthogonal query-centered projections —
and the user's work — separating the query cluster in each view.  After
every major iteration the user's preference counts become
meaningfulness probabilities; the run terminates when the top-``s``
ranking stabilizes (or iteration bounds are hit) and returns the ``s``
points with the highest probabilities.

Since the sans-io refactor the loop itself lives in
:class:`repro.core.engine.SearchEngine`; this module is the classic
blocking facade: it steps the engine, obtains each decision from a
:class:`~repro.interaction.base.UserAgent` synchronously, and returns
the identical :class:`~repro.core.engine.SearchResult` the monolithic
loop produced.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import SearchConfig
from repro.core.engine import SearchEngine, SearchResult, ViewRequest
from repro.data.dataset import Dataset
from repro.interaction.base import UserAgent, validate_decision
from repro.obs.trace import Tracer, current_tracer, span

__all__ = [
    "InteractiveNNSearch",
    "drive",
]


def drive(
    engine: SearchEngine, query: np.ndarray, user: UserAgent
) -> SearchResult:
    """Run an engine to completion against a blocking :class:`UserAgent`.

    The canonical synchronous driver: every :class:`ViewRequest` is
    answered by ``user.review_view`` on the calling thread.  Exposed so
    callers holding a pre-built engine (e.g. one restored from a
    checkpoint, via an *event* already in hand) can finish it with a
    plain user agent; :meth:`InteractiveNNSearch.run` builds on it.
    """
    event = engine.start(query)
    return drive_pending(engine, event, user)


def drive_pending(
    engine: SearchEngine,
    event: ViewRequest | SearchResult,
    user: UserAgent,
) -> SearchResult:
    """Finish a started engine from its last event (see :func:`drive`)."""
    while isinstance(event, ViewRequest):
        with span("user.decision"):
            decision = validate_decision(user.review_view(event.view), event.view)
        event = engine.submit(decision)
    return event


class InteractiveNNSearch:
    """The human-computer cooperative search system.

    Parameters
    ----------
    dataset:
        The searched data set.
    config:
        Search parameters; defaults reproduce the paper's setup.
    """

    def __init__(self, dataset: Dataset, config: SearchConfig | None = None) -> None:
        self._dataset = dataset
        self._config = config or SearchConfig()

    @property
    def dataset(self) -> Dataset:
        """The searched data set."""
        return self._dataset

    @property
    def config(self) -> SearchConfig:
        """The active configuration."""
        return self._config

    # ------------------------------------------------------------------
    def run(
        self, query: np.ndarray, user: UserAgent, *, trace: bool = False
    ) -> SearchResult:
        """Execute the full interactive loop for one query.

        Parameters
        ----------
        query:
            ``(d,)`` query point ``Q`` in ambient coordinates.
        user:
            Any :class:`~repro.interaction.base.UserAgent`.
        trace:
            Record a per-phase timing trace of this run and attach it
            as :attr:`SearchResult.trace`.  When an ambient tracer is
            already active (e.g. the CLI's ``--trace`` flag), the run's
            spans join that trace instead and ``result.trace`` stays
            ``None``.  Tracing is purely observational: the returned
            neighbors are identical with or without it.

        Returns
        -------
        SearchResult
        """
        if trace and current_tracer() is None:
            tracer = Tracer(kind="search.run")
            with tracer.activate():
                result = self._execute(query, user)
            return replace(result, trace=tracer.report())
        return self._execute(query, user)

    def _execute(self, query: np.ndarray, user: UserAgent) -> SearchResult:
        """The blocking loop: a thin driver over :class:`SearchEngine`."""
        return drive(SearchEngine(self._dataset, self._config), query, user)
