"""The repository benchmark: interaction-step latency, head-of-line
blocking and precision of the interactive search, on three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing recorded per
call.  ``--trace 1`` first runs the same workload untraced in a child
process (for ``trace.overhead_frac`` and the count-repeat check), then
runs it again with every layer wrapped in spans, writes the spans as a
Chrome trace and the per-layer table under ``perfbench/out/``, and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common
from common import OUT_DIR, WORKLOADS, host_facts, quantile

COUNTS_PREFIX = "counts "


def _untraced_reference(args) -> tuple[dict, dict]:
    """Run this workload untraced in a fresh process: ``(result, counts)``."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise RuntimeError(f"untraced reference run exited with {done.returncode}")
    counts = next(
        (json.loads(line[len(COUNTS_PREFIX):]) for line in lines if line.startswith(COUNTS_PREFIX)),
        {},
    )
    return json.loads(lines[-1]), counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.require_program()
    workload = WORKLOADS[args.workload]

    import inprocess
    import service
    import tracing

    recorder = reference = None
    reference_counts: dict = {}
    if args.trace:
        reference, reference_counts = _untraced_reference(args)
        recorder = tracing.SpanRecorder()
        tracing.install_oracle(recorder)
        if not workload.service:
            tracing.install_engine(recorder)

    runner = service if workload.service else inprocess
    m = runner.run(workload, args.seed, args.seconds, recorder)
    m.counts["missed_queries"] = sum(p < 0.5 for p in m.precisions)

    for name, value in sorted(reference_counts.items()):
        if m.counts.get(name) != value:
            m.fail(f"count {name} = {m.counts.get(name)} traced, {value} untraced")
    for error in common.check_repeat(args.workload, args.seed, args.seconds, m.counts):
        m.fail(error)

    facts = host_facts()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}: {workload.why}")
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))
    e2e = m.end_to_end()
    for name, (value, unit, samples) in e2e.items():
        print(f"  {name:<16} {value:>12.4f} {unit:<8} n={samples}")
    if m.precisions:
        print(
            f"  queries: {len(m.precisions)} completed, {m.counts['missed_queries']} missed "
            f"(precision < 0.5); mean precision {sum(m.precisions) / len(m.precisions):.4f}"
        )
    if m.probe_late_ms:
        print(
            f"  probe generator late: p50 {quantile(m.probe_late_ms, 50):.2f} ms, "
            f"max {max(m.probe_late_ms):.2f} ms over {len(m.probe_late_ms)} probes"
        )
    for failure in m.failures:
        print(f"  FAILED: {failure}")
    print(COUNTS_PREFIX + json.dumps(m.counts, sort_keys=True))

    if args.trace:
        metrics = _traced_metrics(args, workload, recorder, m, reference, facts)
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}
    print(
        json.dumps(
            {
                "correct": not m.failures,
                "attempted": m.attempted,
                "failed": len(m.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not m.failures else 1


def _traced_metrics(args, workload, recorder, m, reference, facts) -> dict:
    import tracing
    from repro.obs.export import save_chrome_trace

    if recorder.binned_views:
        m.layers["density.binned.max_rel_err"] = tracing.exact_max_rel_err(recorder.binned_views)
    untraced_p50 = reference["metrics"]["step_ms_p50"]["value"]
    traced_p50 = m.end_to_end()["step_ms_p50"][0]
    report = recorder.report(workload=args.workload, seed=args.seed, host=facts)
    layers = tracing.layer_metrics(
        report, m, service=workload.service, overhead_frac=traced_p50 / untraced_p50 - 1.0
    )
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    trace_path = save_chrome_trace(report, OUT_DIR / f"trace-{stem}.json")
    table = tracing.layer_table(report, sum(m.step_ms) / 1000.0)
    lines = [table, ""] + [f"{name:<40} {value:.6g} {unit}" for (name, unit, _), value in zip(tracing.LAYERS, layers.values())]
    (OUT_DIR / f"layers-{stem}.txt").write_text("\n".join(lines) + "\n")
    print(table)
    print(f"spans written to {trace_path}")
    units = {name: unit for name, unit, _ in tracing.LAYERS}
    return {name: {"value": value, "unit": units[name]} for name, value in layers.items()}


if __name__ == "__main__":
    raise SystemExit(main())
