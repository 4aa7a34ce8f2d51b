"""OpenMetrics exposition, metrics files, the end-of-run digest, and the
session series in the live ``/metrics``."""

from __future__ import annotations

import json
import urllib.request

from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.openmetrics import (
    render_metrics_digest,
    render_openmetrics,
    write_metrics,
)
from repro.obs.registry import SESSIONS
from repro.service.app import ServiceRuntime, SessionService


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("batch.parallel.tasks").inc(8)
    registry.gauge("kde.cache.entries").set(25)
    h = registry.histogram("kde.grid.eval_seconds", buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        h.observe(value)
    return registry


class TestRendering:
    def test_counter_total_suffix(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_batch_parallel_tasks counter" in text
        assert "repro_batch_parallel_tasks_total 8" in text

    def test_gauge_verbatim(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_kde_cache_entries gauge" in text
        assert "repro_kde_cache_entries 25" in text

    def test_histogram_cumulative_buckets(self):
        text = render_openmetrics(_populated_registry())
        assert 'repro_kde_grid_eval_seconds_bucket{le="0.01"} 1' in text
        assert 'repro_kde_grid_eval_seconds_bucket{le="0.1"} 2' in text
        assert 'repro_kde_grid_eval_seconds_bucket{le="1.0"} 3' in text
        assert 'repro_kde_grid_eval_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_kde_grid_eval_seconds_count 4" in text
        assert "repro_kde_grid_eval_seconds_sum 5.555" in text

    def test_quantile_gauge_family(self):
        text = render_openmetrics(_populated_registry())
        assert "# TYPE repro_kde_grid_eval_seconds_quantile gauge" in text
        assert 'repro_kde_grid_eval_seconds_quantile{q="0.5"}' in text
        assert 'repro_kde_grid_eval_seconds_quantile{q="0.99"}' in text

    def test_ends_with_eof(self):
        assert render_openmetrics(_populated_registry()).endswith("# EOF\n")

    def test_empty_registry_is_just_eof(self):
        assert render_openmetrics(MetricsRegistry()) == "# EOF\n"

    def test_dotted_names_sanitized(self):
        text = render_openmetrics(_populated_registry())
        # No raw dots survive in metric names.
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            assert "." not in line.split(" ", 1)[0].split("{", 1)[0]


class TestWriteMetrics:
    def test_prom_suffix_writes_text(self, tmp_path):
        path = write_metrics(
            tmp_path / "metrics.prom", _populated_registry()
        )
        content = path.read_text()
        assert content.endswith("# EOF\n")
        assert "repro_batch_parallel_tasks_total" in content

    def test_json_suffix_writes_schema_versioned_document(self, tmp_path):
        path = write_metrics(
            tmp_path / "metrics.json", _populated_registry()
        )
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.metrics"
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        assert (
            payload["metrics"]["batch.parallel.tasks"]["value"] == 8.0
        )

    def test_parent_directories_created(self, tmp_path):
        path = write_metrics(
            tmp_path / "deep" / "dir" / "m.prom", MetricsRegistry()
        )
        assert path.exists()

    def test_prom_file_has_no_session_series(self, tmp_path):
        # Per-session series belong to the live service's /metrics
        # only; a file export describes the registry alone.
        sid = SESSIONS.register(dataset="test-ds", n_points=10, dim=3)
        try:
            path = write_metrics(tmp_path / "m.prom", _populated_registry())
            assert "repro_session_steps" not in path.read_text()
        finally:
            SESSIONS.finish(sid, reason="test")


class TestDigest:
    def test_cache_line_and_histogram_percentiles(self):
        registry = MetricsRegistry()
        registry.counter("kde.cache.hit").inc(15)
        registry.counter("kde.cache.miss").inc(25)
        h = registry.histogram("kde.grid.eval_seconds", buckets=(0.01, 0.1))
        for _ in range(10):
            h.observe(0.05)
        digest = render_metrics_digest(registry)
        assert "kde grid cache: 15 hits / 25 misses" in digest
        assert "37.5%" in digest
        assert "kde.grid.eval_seconds: n=10" in digest
        assert "ms" in digest  # seconds histograms shown in milliseconds

    def test_parallel_counters_shown_when_nonzero(self):
        registry = MetricsRegistry()
        registry.counter("batch.parallel.tasks").inc(4)
        registry.counter("batch.parallel.retries").inc(0)
        digest = render_metrics_digest(registry)
        assert "batch.parallel.tasks: 4" in digest
        assert "batch.parallel.retries" not in digest

    def test_empty_registry_fallback(self):
        digest = render_metrics_digest(MetricsRegistry())
        assert "(no instruments populated)" in digest


class TestHealthAndSessions:
    def test_live_exposition_includes_session_series(self):
        # The session service's /metrics is the one live exposition; it
        # splices every registered session's series above the terminator.
        sid = SESSIONS.register(dataset="test-ds", n_points=10, dim=3)
        try:
            with ServiceRuntime(SessionService()) as runtime:
                url = f"{runtime.base_url}/metrics"
                with urllib.request.urlopen(url, timeout=10) as response:
                    body = response.read().decode()
            assert f'repro_session_steps{{session="{sid}"' in body
            assert body.endswith("# EOF\n")
            assert body.count("# EOF") == 1
            # Session series sit above the terminator, not after it.
            assert body.index("repro_session_steps") < body.index("# EOF")
        finally:
            SESSIONS.finish(sid, reason="test")
