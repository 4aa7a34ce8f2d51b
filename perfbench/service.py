"""The ``service_resume`` workload: the session service under load.

The service runs in its own process (:mod:`server`).  This load
generator is one process with two keep-alive connections:

* the main thread runs oracle sessions one after another (closed loop,
  one client, no think time) with ``"view": "full"``, rebuilding each
  view locally as a UI would;
* a second thread sends ``GET /healthz`` probes on an open-loop
  schedule and times each from when it was due, so a probe stuck
  behind a decision on the server's event loop shows its full wait.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path

from common import OUT_DIR, SETUP_REPEATS, Measurement
from common import enough, make_dataset, pick_queries, precision
from common import quantile, result_errors, search_config

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"


class _Server:
    """One server process; ``stop`` returns its peak RSS in MB."""

    def __init__(self, workload, seed: int, trace_out=None, access_log=None):
        cmd = [sys.executable, str(HERE / "server.py"), "--workload", workload.name, "--seed", str(seed)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out), "--access-log", str(access_log)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split()[1])

    def stop(self) -> float:
        try:
            out, _ = self.proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("server did not stop within 30 s")
        rss = [line for line in out.splitlines() if line.startswith("maxrss_kb ")]
        return int(rss[0].split()[1]) / 1024.0 if rss else 0.0


class _Sessions:
    """Drives oracle sessions over one connection and checks every reply."""

    def __init__(self, dataset, config, m: Measurement, recorder=None):
        self.dataset = dataset
        self.config = config
        self.payload = asdict(config)
        self.m = m
        self.recorder = recorder
        self.request_ids: list[str] = []
        self.first_neighbors = None

    async def _post(self, client, path, body, expected, timed=True):
        self.m.attempted += 1
        t0 = time.perf_counter()
        status, reply = await client.request("POST", path, body)
        if timed:
            self.m.step_ms.append((time.perf_counter() - t0) * 1000.0)
            self.request_ids.append(client.last_request_id)
        echoed = client.last_response_headers.get("x-request-id")
        if status != expected:
            raise RuntimeError(f"POST {path} returned {status}: {reply!r}"[:300])
        if echoed != client.last_request_id:
            raise RuntimeError(f"POST {path} did not echo X-Request-Id")
        return reply

    async def query(self, client, index: int, *, max_decisions=None, timed=True):
        """Run one session; returns its neighbor indices (or ``None``)."""
        from repro.interaction.base import validate_decision
        from repro.interaction.oracle import OracleUser
        from repro.service.wire import decision_to_payload, view_from_event

        user = OracleUser(self.dataset, index)
        if self.recorder is not None:
            self.recorder.context["query"] = index
        body = {"dataset": "bench", "query_index": index, "config": self.payload, "view": "full"}
        reply = await self._post(client, "/sessions", body, 201, timed)
        session, event = reply["session"], reply["event"]
        decisions = 0
        try:
            while event["type"] == "view_request":
                if max_decisions is not None and decisions >= max_decisions:
                    return None
                if self.recorder is not None:
                    view = self.recorder.call("service.wire.decode", view_from_event, (event, self.config), {})
                else:
                    view = view_from_event(event, self.config)
                decision = validate_decision(user.review_view(view), view)
                payload = decision_to_payload(decision, view, step=event["step"])
                reply = await self._post(client, f"/sessions/{session}/decision", payload, 200, timed)
                event = reply["event"]
                decisions += 1
        finally:
            if timed:
                self.m.views_reviewed += user.views_reviewed
                self.m.views_accepted += user.views_accepted
                self.m.counts["decisions"] = self.m.counts.get("decisions", 0) + decisions
        return event["neighbor_indices"]

    async def run(self, port: int, workload, seconds: int, candidates) -> None:
        from repro.service.client import ServiceClient

        support = self.config.effective_support(self.dataset.dim)
        async with ServiceClient(HOST, port) as client:
            for done, index in enumerate(candidates):
                if enough(workload, seconds, done, len(self.m.step_ms)):
                    break
                neighbors = None
                try:
                    neighbors = await self.query(client, index)
                except Exception as exc:
                    self.m.fail(f"query {index}: {exc!r}"[:300])
                    await client.close()
                if done == 0:
                    self.first_neighbors = neighbors
                self.m.attempted += 1
                if neighbors is None:
                    self.m.fail(f"query {index}: ended without a SearchResult")
                    continue
                errors = result_errors(neighbors, self.dataset.size, support)
                for error in errors:
                    self.m.fail(f"query {index}: {error}")
                if not errors:
                    self.m.precisions.append(precision(self.dataset, index, neighbors))


def _probe_thread(port: int, hz: float, stop: threading.Event, m: Measurement, probes: list):
    """Open-loop ``/healthz`` probes on their own connection and loop.

    *m* belongs to this thread alone until it is joined.
    """
    from repro.service.client import ServiceClient

    async def main():
        async with ServiceClient(HOST, port) as client:
            origin = time.perf_counter()
            k = 0
            while not stop.is_set():
                k += 1
                due = origin + k / hz
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                if stop.is_set():
                    break
                sent = time.perf_counter()
                m.attempted += 1
                try:
                    status, _ = await client.request("GET", "/healthz")
                except Exception as exc:
                    m.fail(f"probe: {exc!r}")
                    continue
                done = time.perf_counter()
                if status != 200 or client.last_response_headers.get("x-request-id") != client.last_request_id:
                    m.fail(f"probe: status {status} or request id not echoed")
                    continue
                m.probe_ms.append((done - due) * 1000.0)
                m.probe_late_ms.append((sent - due) * 1000.0)
                probes.append((client.last_request_id, (done - due) * 1000.0))

    asyncio.run(main())


async def _get_json(port: int, path: str):
    from repro.service.client import ServiceClient

    async with ServiceClient(HOST, port) as client:
        return await client.expect(200, "GET", path)


def _counters(port: int) -> dict[str, float]:
    metrics = asyncio.run(_get_json(port, "/metrics.json"))["metrics"]
    return {name: entry["value"] for name, entry in metrics.items() if entry.get("type") == "counter"}


def _in_process_neighbors(dataset, config, index: int):
    """The resume-parity reference: the same query run in process."""
    from repro.core.engine import SearchEngine, SearchResult
    from repro.interaction.oracle import OracleUser

    engine = SearchEngine(dataset, config)
    user = OracleUser(dataset, index)
    event = engine.start(dataset.points[index])
    while not isinstance(event, SearchResult):
        event = engine.submit(user.review_view(event.view))
    return [int(i) for i in event.neighbor_indices]


def run(workload, seed: int, seconds: int, recorder=None) -> Measurement:
    """Measure the service workload; *recorder* set means traced."""
    m = Measurement()
    config = search_config(workload)
    dataset = make_dataset(workload, seed)
    warmups, candidates = pick_queries(dataset, seed, SETUP_REPEATS)
    trace_out = access_log = None
    if recorder is not None:
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"server-spans-{workload.name}-s{seed}.json"
        access_log = OUT_DIR / f"access-{workload.name}-s{seed}.jsonl"
        access_log.unlink(missing_ok=True)
    sessions = _Sessions(dataset, config, m, recorder)

    async def warm_up(port: int, index: int) -> None:
        from repro.service.client import ServiceClient

        async with ServiceClient(HOST, port) as client:
            await sessions.query(client, index, max_decisions=1, timed=False)

    server = None
    for repeat in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        last = repeat == SETUP_REPEATS - 1
        server = _Server(workload, seed, trace_out if last else None, access_log if last else None)
        try:
            asyncio.run(warm_up(server.port, warmups[repeat]))
        except BaseException:
            server.stop()
            raise
        m.setup_s.append(time.perf_counter() - t0)
        if not last:
            server.stop()

    probes: list = []
    probed = Measurement()
    try:
        before = _counters(server.port)
        stop = threading.Event()
        prober = threading.Thread(
            target=_probe_thread, args=(server.port, workload.probe_hz, stop, probed, probes)
        )
        started = time.perf_counter()
        prober.start()
        try:
            if recorder is not None:
                recorder.enabled = True
            asyncio.run(sessions.run(server.port, workload, seconds, candidates))
        finally:
            if recorder is not None:
                recorder.enabled = False
            m.wall_s = time.perf_counter() - started
            stop.set()
            prober.join()
            m.attempted += probed.attempted
            m.failures += probed.failures
            m.probe_ms, m.probe_late_ms = probed.probe_ms, probed.probe_late_ms
        after = _counters(server.port)
        health = asyncio.run(_get_json(server.port, "/healthz"))
    finally:
        m.peak_rss_mb = server.stop()
    m.take_counters(before, after)
    m.counts["steps"] = len(m.step_ms)

    reference = _in_process_neighbors(dataset, config, candidates[0])
    m.attempted += 1
    if sessions.first_neighbors != reference:
        m.fail(
            f"resume parity: service returned {sessions.first_neighbors} for query "
            f"{candidates[0]}, in process {reference}"
        )

    if recorder is not None:
        _traced_service(recorder, m, trace_out, access_log, sessions, probes, before, after, health)
    return m


def _traced_service(recorder, m, trace_out, access_log, sessions, probes, before, after, health):
    """Fold the server's spans and access log into the client's recorder."""
    from repro.obs.export import span_from_dict

    measured = set(sessions.request_ids) | {rid for rid, _ in probes}
    served_spans = [
        span_from_dict(payload).relane(1)
        for payload in json.loads(Path(trace_out).read_text())
        if payload["attributes"].get("request_id") in measured
    ]
    recorder.roots.extend(served_spans)
    m.counts["checkpoint_bytes"] = sum(
        s.attributes["bytes"] for root in served_spans for s in root.find("core.serialization.encode")
    )
    m.counts["response_bytes"] = sum(root.attributes.get("bytes", 0) for root in served_spans)

    # A probe's wait: its latency from when it was due, less the time
    # the server spent handling it.
    served = {}
    for line in Path(access_log).read_text().splitlines():
        entry = json.loads(line)
        served[entry["request_id"]] = entry["latency_ms"]
    waits = [client_ms - served[rid] for rid, client_ms in probes if rid in served]
    m.layers["service.http.wait_ms_p50"] = quantile(waits, 50)
    # /metrics.json counts itself once in each snapshot.
    m.layers["service.app.requests"] = after.get("service.requests", 0) - before.get("service.requests", 0) - 1
    m.layers["service.app.errors"] = after.get("service.errors", 0) - before.get("service.errors", 0)
    m.layers["service.store.resident_bytes"] = health["store"].get("memory_bytes", 0)
