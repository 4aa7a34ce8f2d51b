"""Session-service process of the ``service_resume`` workload.

Started by the load generator as ``python3 perfbench/server.py --workload
W --seed N [--trace-out PATH --access-log PATH]``.  It generates the
workload's data set from the seed, publishes it as ``bench`` through
:class:`repro.service.app.SessionService` on a
:class:`repro.service.app.ServiceRuntime` (as ``python -m repro serve``
does), prints ``port <N>`` once it accepts connections, and serves until
its standard input closes.  It then prints ``maxrss_kb <N>``, its peak
resident memory, and with ``--trace-out`` writes the spans it recorded.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from common import WORKLOADS, make_dataset, require_program


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--access-log")
    args = parser.parse_args()
    require_program()

    from repro.service.app import ServiceRuntime, SessionService
    from repro.service.store import SpilloverSessionStore

    recorder = None
    if args.trace_out:
        from tracing import SpanRecorder, install_server

        recorder = SpanRecorder()
        install_server(recorder)
        recorder.enabled = True

    service = SessionService(store=SpilloverSessionStore(), access_log=args.access_log)
    service.register_dataset("bench", make_dataset(WORKLOADS[args.workload], args.seed))
    runtime = ServiceRuntime(service).start()
    try:
        print(f"port {runtime.port}", flush=True)
        sys.stdin.read()
    finally:
        runtime.stop()
        service.close()
    if recorder is not None:
        from repro.obs.export import span_to_dict

        with open(args.trace_out, "w") as out:
            json.dump([span_to_dict(root) for root in recorder.roots], out)
    print(f"maxrss_kb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
