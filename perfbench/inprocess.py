"""In-process workloads: ``SearchEngine.start/submit`` in a closed loop.

One client, no think time: each query's next step starts as soon as the
oracle has reviewed the previous view.  The dialogue runs as a coroutine
on an asyncio event loop, the way
:class:`repro.interaction.driver.AsyncUserDriver` embeds the engine, and
a liveness probe on the same loop reads the session registry (what the
service's ``/healthz`` reports) on an open-loop schedule.  A probe due
during a step or a review can only run when it returns, so
``probe_ms_*`` measures how long in-process work stalls everyone else.
"""

from __future__ import annotations

import asyncio
import resource
import time

from common import Measurement, SETUP_REPEATS, make_dataset, pick_queries
from common import enough, precision, result_errors, search_config


def _warm_up(dataset, precomputed, config, query_index: int) -> None:
    """Two untimed steps (one decision) of a query outside the measured set."""
    from repro.core.engine import SearchEngine, ViewRequest
    from repro.interaction.oracle import OracleUser

    engine = SearchEngine(dataset, config, precomputed=precomputed)
    event = engine.start(dataset.points[query_index])
    if isinstance(event, ViewRequest):
        engine.submit(OracleUser(dataset, query_index).review_view(event.view))
    engine.close()


async def _yield_to_probes() -> None:
    # A probe timer that expired during the step is queued behind this
    # coroutine's wake-up; yielding twice lets it run before the next step.
    await asyncio.sleep(0)
    await asyncio.sleep(0)


class _Probe:
    """Open-loop liveness probes scheduled with ``loop.call_at``.

    Probes are due every ``1 / hz`` seconds whatever the loop is doing;
    when the loop frees up, every probe that fell due meanwhile runs at
    once, each timed from its own due time.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, hz: float, measurement: Measurement):
        from repro.obs.registry import SESSIONS

        self._loop = loop
        self._period = 1.0 / hz
        self._registry = SESSIONS
        self._m = measurement
        self._due = loop.time() + self._period
        self._handle = loop.call_at(self._due, self._fire)

    def _fire(self) -> None:
        while self._due <= self._loop.time():
            self._m.attempted += 1
            try:
                self._registry.counts()
            except Exception as exc:  # a failed probe is a counted failure
                self._m.fail(f"probe: {exc!r}")
            else:
                self._m.probe_ms.append((self._loop.time() - self._due) * 1000.0)
            self._due += self._period
        self._handle = self._loop.call_at(self._due, self._fire)

    def stop(self) -> None:
        self._handle.cancel()


async def _dialogue(workload, seconds, dataset, precomputed, config, candidates, m, recorder) -> None:
    from repro.core.engine import SearchEngine, SearchResult
    from repro.interaction.oracle import OracleUser

    support = config.effective_support(dataset.dim)
    probe = _Probe(asyncio.get_running_loop(), workload.probe_hz, m)
    started = time.perf_counter()
    try:
        for done, index in enumerate(candidates):
            if enough(workload, seconds, done, len(m.step_ms)):
                break
            if recorder is not None:
                recorder.context["query"] = index
            engine = SearchEngine(dataset, config, precomputed=precomputed)
            user = OracleUser(dataset, index)
            event = None
            try:
                decision = None
                while not isinstance(event, SearchResult):
                    m.attempted += 1
                    t0 = time.perf_counter()
                    if decision is None:
                        event = engine.start(dataset.points[index])
                    else:
                        event = engine.submit(decision)
                    m.step_ms.append((time.perf_counter() - t0) * 1000.0)
                    await _yield_to_probes()
                    if not isinstance(event, SearchResult):
                        decision = user.review_view(event.view)
                        await _yield_to_probes()
            except Exception as exc:
                m.fail(f"query {index}: step failed: {exc!r}")
            finally:
                m.views_reviewed += user.views_reviewed
                m.views_accepted += user.views_accepted
            m.attempted += 1
            if not isinstance(event, SearchResult):
                m.fail(f"query {index}: ended without a SearchResult")
                continue
            errors = result_errors(event.neighbor_indices, dataset.size, support)
            for error in errors:
                m.fail(f"query {index}: {error}")
            if not errors:
                m.precisions.append(precision(dataset, index, event.neighbor_indices))
    finally:
        m.wall_s = time.perf_counter() - started
        probe.stop()


def run(workload, seed: int, seconds: int, recorder=None) -> Measurement:
    """Measure one in-process workload; *recorder* set means traced."""
    from repro.core.engine import DatasetPrecomputation
    from repro.obs.metrics import counter_values

    m = Measurement()
    config = search_config(workload)
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dataset = make_dataset(workload, seed)
        precomputed = DatasetPrecomputation(dataset)
        warmups, candidates = pick_queries(dataset, seed, SETUP_REPEATS)
        _warm_up(dataset, precomputed, config, warmups[repeat])
        m.setup_s.append(time.perf_counter() - t0)

    before = counter_values()
    if recorder is not None:
        recorder.enabled = True
    asyncio.run(
        _dialogue(workload, seconds, dataset, precomputed, config, candidates, m, recorder)
    )
    if recorder is not None:
        recorder.enabled = False
    m.take_counters(before, counter_values())
    m.counts["steps"] = len(m.step_ms)
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m
