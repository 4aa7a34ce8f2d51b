"""Spans recorded from outside the program, for the traced run only.

The ``install_*`` functions replace public functions of the program's
layers with wrappers that record one :class:`repro.obs.trace.Span` per call (name,
start, end, parent, and the query or request id of the step that caused
it).  Nothing is wrapped in an untraced run, so it records nothing per
call.  Spans stay in memory and are written once, at exit, in the
Chrome trace format of :func:`repro.obs.export.save_chrome_trace`.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from typing import Any, Callable

import numpy as np

from repro.obs.trace import Span, TraceReport


class SpanRecorder:
    """Per-thread span stacks; finished root spans are kept in order."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self.enabled = False
        #: ``(density, projected, query_2d, bandwidth, resolution)`` of
        #: every binned view, compared with an exact grid after the run.
        self.binned_views: list[tuple] = []
        #: Attributes stamped on root spans (the workload sets ``query``).
        self.context: dict[str, Any] = {}
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs=None) -> Span | None:
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else None
        attributes = dict(attrs or {})
        if parent is None:
            for key, value in self.context.items():
                attributes.setdefault(key, value)
        else:
            attributes["parent"] = parent.name
            for key in ("query", "request_id"):
                if key in parent.attributes:
                    attributes.setdefault(key, parent.attributes[key])
        span = Span(
            name=name,
            attributes=attributes,
            thread_id=threading.get_ident(),
            start_wall=time.perf_counter(),
            start_cpu=time.process_time(),
        )
        stack.append(span)
        return span

    def close(self, span: Span | None) -> None:
        if span is None:
            return
        span.end_wall = time.perf_counter()
        span.end_cpu = time.process_time()
        stack = self._stack()
        stack.pop()
        (stack[-1].children if stack else self.roots).append(span)

    def call(self, name: str, func: Callable, args, kwargs, attrs=None):
        span = self.open(name, attrs)
        try:
            return func(*args, **kwargs)
        finally:
            self.close(span)

    def report(self, **metadata: Any) -> TraceReport:
        return TraceReport(roots=tuple(self.roots), metadata=metadata)


def _patch(owner: Any, attr: str, recorder: SpanRecorder, name: str) -> None:
    """Wrap the function or method ``owner.attr`` in a span."""
    func = getattr(owner, attr)

    @functools.wraps(func)
    def wrapped(*args, **kwargs):
        return recorder.call(name, func, args, kwargs)

    setattr(owner, attr, wrapped)


def install_engine(recorder: SpanRecorder) -> None:
    """Wrap the engine-side layers (in process, or in the server)."""
    import repro.core.engine as engine_mod
    from repro.core.counting import PreferenceCounter
    from repro.core.meaningfulness import MeaningfulnessAccumulator
    from repro.density.grid import DensityGrid
    from repro.density.profiles import VisualProfile

    _patch(engine_mod.SearchEngine, "start", recorder, "core.engine.step")
    _patch(engine_mod.SearchEngine, "submit", recorder, "core.engine.step")
    _patch(engine_mod, "find_query_centered_projection", recorder, "core.projections.find")
    _patch(VisualProfile, "exact_statistics", recorder, "density.profiles.exact_statistics")
    _patch(engine_mod, "iteration_statistics", recorder, "core.meaningfulness.statistics")
    _patch(MeaningfulnessAccumulator, "update", recorder, "core.meaningfulness.update")
    _patch(PreferenceCounter, "record", recorder, "core.counting.record")

    build = VisualProfile.__dict__["build"].__func__

    def traced_build(cls, projected_points, query_2d, **kwargs):
        profile = recorder.call(
            "density.profiles.build", build, (cls, projected_points, query_2d), kwargs
        )
        if recorder.enabled and profile.grid.mode == "binned":
            recorder.binned_views.append(
                (
                    profile.grid.density,
                    np.asarray(projected_points, dtype=float),
                    profile.query_2d,
                    profile.grid.estimator.bandwidth,
                    profile.grid.resolution,
                )
            )
        return profile

    VisualProfile.build = classmethod(functools.wraps(build)(traced_build))

    tree_getter = DensityGrid.merge_tree.fget
    built: weakref.WeakSet = weakref.WeakSet()

    def traced_tree(grid):
        if grid in built:
            return tree_getter(grid)
        built.add(grid)
        return recorder.call("density.merge_tree.first_access", tree_getter, (grid,), {})

    DensityGrid.merge_tree = property(traced_tree, doc=DensityGrid.merge_tree.__doc__)

    _patch(engine_mod, "prune_unpicked", recorder, "core.counting.prune")


def install_oracle(recorder: SpanRecorder) -> None:
    from repro.interaction.oracle import OracleUser

    _patch(OracleUser, "review_view", recorder, "interaction.oracle.review")


def install_server(recorder: SpanRecorder) -> None:
    """Wrap the service-side layers of the server process."""
    import repro.core.serialization as ser_mod
    import repro.service.app as app_mod
    from repro.service.store import SpilloverSessionStore

    install_engine(recorder)
    to_bytes = app_mod.checkpoint_to_bytes

    def traced_to_bytes(engine):
        span = recorder.open("core.serialization.encode")
        try:
            payload = to_bytes(engine)
        finally:
            recorder.close(span)
        if span is not None:
            span.attributes["bytes"] = len(payload)
        return payload

    app_mod.checkpoint_to_bytes = traced_to_bytes
    _patch(app_mod, "checkpoint_from_bytes", recorder, "core.serialization.decode")
    _patch(app_mod, "resume_engine", recorder, "core.serialization.resume")
    # resume_engine and checkpoint_to_dict look the fingerprint up in
    # their own module; the service looks it up in its own.
    _patch(ser_mod, "dataset_fingerprint", recorder, "core.serialization.fingerprint")
    _patch(app_mod, "dataset_fingerprint", recorder, "core.serialization.fingerprint")
    _patch(app_mod, "view_event", recorder, "service.wire.encode")
    _patch(app_mod, "result_event", recorder, "service.wire.encode")
    _patch(app_mod, "json_response", recorder, "service.wire.encode")
    _patch(SpilloverSessionStore, "put", recorder, "service.store.put")
    _patch(SpilloverSessionStore, "get", recorder, "service.store.get")

    dispatch = app_mod.SessionService.dispatch

    async def traced_dispatch(self, request):
        # dispatch has no await inside: its whole body runs as one
        # uninterrupted slice of the event loop, so no other request's
        # span can interleave with this one.
        span = recorder.open(
            "service.app.dispatch",
            {"request_id": request.request_id, "path": request.path},
        )
        try:
            response = await dispatch(self, request)
        finally:
            recorder.close(span)
        if span is not None and request.path.startswith("/sessions"):
            span.attributes["bytes"] = len(response.body)
        return response

    app_mod.SessionService.dispatch = traced_dispatch


def exact_max_rel_err(binned_views) -> float:
    """Max over views of sup|binned - exact| / max exact on the same grid."""
    from repro.density.cache import disabled_density_cache
    from repro.density.grid import DensityGrid
    from repro.density.kde import KernelDensityEstimator

    worst = 0.0
    with disabled_density_cache():
        for density, points, query_2d, bandwidth, resolution in binned_views:
            exact = DensityGrid(
                points,
                resolution=resolution,
                include=query_2d,
                estimator=KernelDensityEstimator(points, bandwidth=bandwidth),
            ).density
            worst = max(worst, float(np.abs(density - exact).max() / exact.max()))
    return worst


#: Every per-layer metric: ``(name, unit, better)``.
LAYERS = (
    ("core.engine.steps", "count", "lower"),
    ("core.engine.majors", "count", "lower"),
    ("core.engine.views", "count", "lower"),
    ("core.engine.self_s", "s", "lower"),
    ("core.engine.missed_queries", "count", "lower"),
    ("core.projections.calls", "count", "lower"),
    ("core.projections.busy_s", "s", "lower"),
    ("core.projections.ms_p50", "ms", "lower"),
    ("density.profiles.build_calls", "count", "lower"),
    ("density.profiles.build_busy_s", "s", "lower"),
    ("density.profiles.exact_stats_calls", "count", "lower"),
    ("density.profiles.exact_stats_busy_s", "s", "lower"),
    ("density.binned.cells", "count", "lower"),
    ("density.binned.max_rel_err", "fraction", "lower"),
    ("density.merge_tree.builds", "count", "lower"),
    ("density.merge_tree.busy_s", "s", "lower"),
    ("density.cache.hits", "count", "higher"),
    ("density.cache.misses", "count", "lower"),
    ("density.cache.hit_ratio", "fraction", "higher"),
    ("core.meaningfulness.busy_s", "s", "lower"),
    ("core.counting.busy_s", "s", "lower"),
    ("core.counting.pruned_points", "count", "higher"),
    ("interaction.oracle.busy_s", "s", "lower"),
    ("interaction.oracle.accept_ratio", "fraction", "higher"),
    ("core.serialization.encode_busy_s", "s", "lower"),
    ("core.serialization.checkpoint_bytes", "bytes", "lower"),
    ("core.serialization.decode_busy_s", "s", "lower"),
    ("core.serialization.resume_busy_s", "s", "lower"),
    ("core.serialization.fingerprint_calls", "count", "lower"),
    ("core.serialization.fingerprint_busy_s", "s", "lower"),
    ("core.serialization.views_per_decision", "ratio", "lower"),
    ("service.wire.encode_busy_s", "s", "lower"),
    ("service.wire.response_bytes", "bytes", "lower"),
    ("service.wire.decode_busy_s", "s", "lower"),
    ("service.app.requests", "count", "higher"),
    ("service.app.errors", "count", "lower"),
    ("service.app.handler_busy_s", "s", "lower"),
    ("service.app.loop_busy_frac", "fraction", "lower"),
    ("service.http.wait_ms_p50", "ms", "lower"),
    ("service.store.put_busy_s", "s", "lower"),
    ("service.store.get_busy_s", "s", "lower"),
    ("service.store.resident_bytes", "bytes", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def layer_metrics(report: TraceReport, m, *, service: bool, overhead_frac: float) -> dict[str, float]:
    """The per-layer metrics of one traced run (0 where a layer is idle)."""
    agg = report.aggregate()

    def busy(*names: str) -> float:
        return sum(agg[n]["wall_total"] for n in names if n in agg)

    def calls(name: str) -> int:
        return int(agg[name]["count"]) if name in agg else 0

    c = m.counts
    hits, misses = c["cache_hits"], c["cache_misses"]
    projections = [s.wall * 1000.0 for s in report.find("core.projections.find")]
    values = {
        "core.engine.steps": c["steps"],
        "core.engine.majors": c["majors"],
        "core.engine.views": c["views"],
        "core.engine.self_s": agg.get("core.engine.step", {}).get("self_wall_total", 0.0),
        "core.engine.missed_queries": c["missed_queries"],
        "core.projections.calls": calls("core.projections.find"),
        "core.projections.busy_s": busy("core.projections.find"),
        "core.projections.ms_p50": float(np.median(projections)) if projections else 0.0,
        "density.profiles.build_calls": calls("density.profiles.build"),
        "density.profiles.build_busy_s": busy("density.profiles.build"),
        "density.profiles.exact_stats_calls": calls("density.profiles.exact_statistics"),
        "density.profiles.exact_stats_busy_s": busy("density.profiles.exact_statistics"),
        "density.binned.cells": c["binned_cells"],
        "density.merge_tree.builds": c["merge_tree_builds"],
        "density.merge_tree.busy_s": busy("density.merge_tree.first_access"),
        "density.cache.hits": hits,
        "density.cache.misses": misses,
        "density.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.meaningfulness.busy_s": busy("core.meaningfulness.statistics", "core.meaningfulness.update"),
        "core.counting.busy_s": busy("core.counting.record", "core.counting.prune"),
        "core.counting.pruned_points": c["pruned_points"],
        "interaction.oracle.busy_s": busy("interaction.oracle.review"),
        "interaction.oracle.accept_ratio": (
            m.views_accepted / m.views_reviewed if m.views_reviewed else 0.0
        ),
        "core.serialization.encode_busy_s": busy("core.serialization.encode"),
        "core.serialization.checkpoint_bytes": c.get("checkpoint_bytes", 0),
        "core.serialization.decode_busy_s": busy("core.serialization.decode"),
        "core.serialization.resume_busy_s": busy("core.serialization.resume"),
        "core.serialization.fingerprint_calls": calls("core.serialization.fingerprint"),
        "core.serialization.fingerprint_busy_s": busy("core.serialization.fingerprint"),
        "core.serialization.views_per_decision": (
            c["views"] / c["decisions"] if service and c.get("decisions") else 0.0
        ),
        "service.wire.encode_busy_s": busy("service.wire.encode"),
        "service.wire.response_bytes": c.get("response_bytes", 0),
        "service.wire.decode_busy_s": busy("service.wire.decode"),
        "service.app.handler_busy_s": busy("service.app.dispatch"),
        "service.app.loop_busy_frac": busy("service.app.dispatch") / m.wall_s if m.wall_s else 0.0,
        "service.store.put_busy_s": busy("service.store.put"),
        "service.store.get_busy_s": busy("service.store.get"),
        "trace.overhead_frac": overhead_frac,
    }
    values.update(m.layers)
    return {name: float(values.get(name, 0.0)) for name, _, _ in LAYERS}


def layer_table(report: TraceReport, step_s: float) -> str:
    """Per-span table: calls, busy and self time, share of step time."""
    agg = report.aggregate()
    lines = [f"{'span':<38} {'lane':>4} {'calls':>6} {'busy s':>9} {'self s':>9} {'% step':>7}"]
    lanes = {s.name: s.lane for s in report.iter_spans()}
    for name, entry in sorted(agg.items(), key=lambda item: -item[1]["wall_total"]):
        share = 100.0 * entry["wall_total"] / step_s if step_s else 0.0
        lines.append(
            f"{name:<38} {lanes[name]:>4} {int(entry['count']):>6} "
            f"{entry['wall_total']:>9.3f} {entry['self_wall_total']:>9.3f} {share:>6.1f}%"
        )
    return "\n".join(lines)
