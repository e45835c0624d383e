"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the repository root.

Every measurement happens in a fresh interpreter (``child.py``), so no
in-process memo, codegen cache or trace-attached pre-pass survives
from one run to the next.  With ``--trace 0`` it runs the workload
once untraced and takes set-up time as the median of that run's
set-up and ``SETUP_SAMPLES - 1`` set-up-only interpreters; it prints
every ``end_to_end`` metric of ``BENCHMARK.json``.  With ``--trace 1``
it runs the workload untraced and then traced, and prints every
``per_layer`` metric, ``trace.overhead`` being the ratio of the two
walls.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
#: Every child must end by then (the whole run is allowed 180 s).
BUDGET_S = 170.0


class ChildFailed(Exception):
    pass


def child_env(root: str) -> dict[str, str]:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith(("T1000_", "REPRO_"))
    }
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(root: str, work: str, args, *, trace: int = 0,
              setup_only: bool = False, record: bool = False,
              deadline: float) -> dict:
    """Run ``child.py`` in its own session; kill the whole process
    group if it overruns ``deadline`` (a monotonic time)."""
    run_dir = tempfile.mkdtemp(dir=work)
    out = os.path.join(run_dir, "result.json")
    argv = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--work", run_dir, "--out", out,
    ]
    if setup_only:
        argv.append("--setup-only")
    if record:
        argv.append("--record")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        argv + ["--t0", repr(t0)], cwd=root, env=child_env(root),
        stdout=sys.stderr, start_new_session=True,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"{args.workload} child overran its time budget")
    finally:
        # the child stops what it starts; reap anything it left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise ChildFailed(f"{args.workload} child exited {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def measure(root: str, work: str, args, spec: dict) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        untraced = run_child(root, work, args, deadline=deadline)
        traced = run_child(root, work, args, trace=1, deadline=deadline)
        # keep the spans after the work directory goes
        os.replace(traced["spans"], os.path.join(
            os.path.dirname(work), f"{args.workload}.spans.json"))
        values = dict(traced["metrics"])
        values["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
        wanted = spec["per_layer"]
        runs = (untraced, traced)
        if traced.get("missing"):
            print("unwrapped entry points: " + ", ".join(traced["missing"]),
                  file=sys.stderr)
    else:
        main_run = run_child(root, work, args, deadline=deadline)
        setups = [main_run["setup_s"]] + [
            run_child(root, work, args, setup_only=True,
                      deadline=deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        values = dict(main_run["metrics"])
        values["setup_s"] = statistics.median(setups)
        wanted = spec["end_to_end"]
        runs = (main_run,)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in values:   # absent only if its entry point is gone
            metrics[name] = {"value": values[name], "unit": entry["unit"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no repro sources under ./src; run from the "
              "repository root", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}",
              file=sys.stderr)
        return 2

    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        result = measure(root, work, args, spec)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
