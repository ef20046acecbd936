"""The end-to-end benchmark.

One run of one workload, as the driver calls it (last stdout line is the
result object)::

    python3 benchmarks/e2e/run.py --workload call_tiny --seed 1 --seconds 10 --trace 0

Everything, for people — all five workloads untraced, then traced, every
metric printed by name with its unit, results kept under ``out/``::

    python3 benchmarks/e2e/run.py [--seed S] [--quick] [--repeat K]

Each workload runs in its own fresh process, one at a time, with BLAS
pinned to one thread (unpinned OpenBLAS on a 2-core box made atax take
54-244 ms a call; pinned it takes ~24 ms), ``PYTHONHASHSEED=0`` and a
native artifact cache that starts empty.  All files are written under
``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import spec  # noqa: E402
from worker import MARK  # noqa: E402

#: Set-ups timed per run (each in its own process); ``setup_s`` is their median.
SETUPS = 3
CHILD_TIMEOUT_S = 170


def child_env(scratch: str) -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SOURCE
    env["TMPDIR"] = scratch
    env["REPRO_NATIVE_CACHE_DIR"] = os.path.join(scratch, "native")
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool,
              phase: str, scratch: str) -> tuple[float, dict]:
    """Run one worker process; returns (spawn -> ``setup_done`` seconds, result)."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--quick", str(int(quick)), "--phase", phase, "--out", scratch]
    started = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=HERE,
                             env=child_env(scratch))
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    setup_s, result = None, None
    try:
        for line in child.stdout:
            if not line.startswith(MARK):
                continue
            event = json.loads(line[len(MARK):])
            if event["event"] == "setup_done":
                setup_s = time.perf_counter() - started
            elif event["event"] == "result":
                result = event
        code = child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
            child.wait()
    if code != 0 or setup_s is None or (phase == "full" and result is None):
        raise RuntimeError(f"worker for {workload} failed (exit code {code})")
    return setup_s, result


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool = False, setups: int = SETUPS) -> dict:
    """One run of one workload: the result object plus ``details``."""
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT)
    try:
        setup_times = []
        for _ in range(0 if trace else setups - 1):
            setup_times.append(run_child(workload, seed, seconds, 0, quick, "setup", scratch)[0])
        setup_s, result = run_child(workload, seed, seconds, trace, quick, "full", scratch)
        setup_times.append(setup_s)
        trace_file = result["details"].get("trace")
        if trace_file:
            kept = os.path.join(OUT, os.path.basename(trace_file))
            shutil.move(trace_file, kept)
            result["details"]["trace"] = os.path.relpath(kept, ROOT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if trace:
        units = {name: unit for name, (unit, _, _) in spec.PER_LAYER.items()}
    else:
        units = {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
        result["metrics"]["setup_s"] = statistics.median(setup_times)
        result["details"]["setup_s_all"] = setup_times
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
        "details": result["details"],
    }


def environment(seed: int) -> dict:
    compiler = shutil.which("cc") or shutil.which("gcc")
    version = None
    if compiler:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    import numpy

    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cc": version, "platform": platform.platform()}


def print_run(workload: str, run: dict, owned_only: bool) -> None:
    for name, metric in run["metrics"].items():
        if owned_only and workload not in spec.PER_LAYER[name][2]:
            continue
        print(f"  {workload:<13} {name:<38} {metric['value']:>14.6g} {metric['unit']}")


def run_everything(seed: int, quick: bool, repeat: int, output: str | None) -> int:
    seconds = 1.0 if quick else float(spec.RUN_SECONDS)
    setups = 1 if quick else SETUPS
    names = list(spec.WORKLOADS)
    document = {"environment": environment(seed), "quick": quick, "seconds": seconds,
                "runs": []}
    print(json.dumps(document["environment"]))
    failed = 0
    for index in range(repeat):
        # Another order each repeat, so no workload always follows the same one.
        order = names[index % len(names):] + names[:index % len(names)]
        if index % 2:
            order.reverse()
        print(f"untraced pass {index + 1}/{repeat} (peak_mem_mib: tracemalloc sees NumPy "
              "buffers, not C malloc inside native segments)")
        for workload in order:
            run = run_workload(workload, seed, seconds, 0, quick, setups)
            print_run(workload, run, owned_only=False)
            print(f"  {workload:<13} {'fail_share':<38} "
                  f"{run['failed'] / run['attempted']:>14.6g} ratio "
                  f"({run['failed']} of {run['attempted']})")
            failed += run["failed"]
            document["runs"].append({"workload": workload, "repeat": index, "trace": 0, **run})
    print("traced pass (per-layer metrics, each from the workload that exercises the layer)")
    for workload in names:
        run = run_workload(workload, seed, seconds, 1, quick)
        print_run(workload, run, owned_only=True)
        print(f"  {workload:<13} trace: {run['details']['trace']}")
        failed += run["failed"]
        document["runs"].append({"workload": workload, "repeat": 0, "trace": 1, **run})
    path = output or os.path.join(OUT, f"e2e-seed{seed}{'-quick' if quick else ''}.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"results: {os.path.relpath(path)}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and counts: checks the harness, not the numbers")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced sets to run (compare.py compares two result files)")
    parser.add_argument("--output", help="result file (default: out/e2e-seed<S>.json)")
    args = parser.parse_args()
    # A terminated run still stops its worker and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"run.py: no program to measure: {SOURCE}/repro is missing", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_everything(args.seed, args.quick, args.repeat, args.output)

    run = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
    print_run(args.workload, run, owned_only=bool(args.trace))
    run.pop("details")
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
