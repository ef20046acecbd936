"""One workload in one fresh process (started by ``run.py``, never by hand).

Prints marked JSON lines to stdout: ``setup_done`` as soon as the first
verified op result exists — ``run.py`` timestamps that line to get
``setup_s`` — and, unless ``--phase setup``, one ``result``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

MARK = "@@e2e "


def emit(event: str, **body) -> None:
    print(MARK + json.dumps({"event": event, **body}), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--phase", choices=("setup", "full"), default="full")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import harness
    from spans import Recorder

    ctx = harness.Context(seed=args.seed, seconds=args.seconds, quick=bool(args.quick),
                          out_dir=args.out)
    workload = importlib.import_module(f"wl_{args.workload}").Workload(ctx)
    workload.setup()
    emit("setup_done", checks=workload.checks, check_failures=workload.check_failures)
    if args.phase == "setup":
        return 0

    if args.trace:
        import spec

        ctx.recorder = Recorder()
        measured = workload.layers()
        measured["bench.fail_share"] = workload.check_failures / max(1, workload.checks)
        # Every per-layer name appears in every traced run; a layer this
        # workload does not exercise did no work here and reads 0.
        metrics = {name: float(measured.pop(name, 0.0)) for name in spec.PER_LAYER}
        if measured:
            raise SystemExit(f"metrics not in spec.PER_LAYER: {sorted(measured)}")
        trace_path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json")
        ctx.recorder.write_chrome(trace_path)
        self_ms = {name: value / 1e6 for name, value in ctx.recorder.self_times_ns().items()}
        emit("result", metrics=metrics, attempted=max(1, workload.checks),
             failed=workload.check_failures,
             details={"trace": trace_path, "spans": len(ctx.recorder.spans),
                      "self_time_ms": self_ms})
        return 0

    samples = workload.measure()
    metrics, details = samples.end_to_end()
    metrics["peak_mem_mib"] = workload.peak_mem_mib()
    emit("result", metrics=metrics, attempted=details["attempted"] + workload.checks,
         failed=details["failed"] + workload.check_failures, details=details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
