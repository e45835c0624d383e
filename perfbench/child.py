"""One workload run in a fresh interpreter (started by ``run.py``).

Sets the workload up, runs its timed window once, checks its outputs
after the window, tears it down and writes a JSON result file.  With
``--trace 1`` the layer wrappers of ``layers.py`` record spans during
the window; otherwise simulator invocations are only counted.
``--setup-only`` stops after set-up (the extra set-up samples).
``--record`` adds the reference digests of this run's outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import layers
from workloads import WORKLOADS, own_cpu_s

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    tracer = layers.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](
        args.work, args.seed, args.seconds, reference, tracer)
    try:
        workload.setup()
        if tracer is not None:
            layers.install(tracer)
        elif not args.setup_only:
            layers.install_op_counter(workload)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(workload, tracer, args)
            result["setup_s"] = setup_s
            if args.record:
                result["reference"] = workload.record()
    finally:
        workload.teardown()
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(workload, tracer, args) -> dict:
    if tracer is not None:
        tracer.enabled = True
    cpu0 = own_cpu_s()
    start = time.perf_counter()
    try:
        workload.run()
    except Exception:
        traceback.print_exc()
        workload.op_failures += 1
    end = time.perf_counter()
    cpu = own_cpu_s() - cpu0
    ops = workload.ops
    if tracer is not None:
        tracer.enabled = False
        ops = ops or (tracer.counts["functional.trace.runs"]
                      + tracer.counts["functional.validate.runs"]
                      + tracer.counts["ooo.simulate.calls"])
    try:
        workload.check()
    except Exception as exc:
        traceback.print_exc()
        workload.check_failures.append(f"check raised {exc!r}")
    for message in workload.check_failures:
        print(f"check failed: {message}", file=sys.stderr)

    attempted = max(1, ops + workload.checks)
    failed = workload.op_failures + len(workload.check_failures)
    result = {
        "attempted": attempted,
        "failed": failed,
        "wall_s": end - start,
    }
    if tracer is None:
        result["metrics"] = dict(
            workload.cost_metrics(end - start, cpu, ops),
            peak_rss_mb=workload.peak_rss_mb(),
        )
        return result

    metrics = layers.layer_metrics(tracer)
    metrics.update(workload.serve_metrics())
    model = workload.model() or {
        name: tracer.counts[name]
        for name in ("model.sim_cycles", "model.sim_insts")
    }
    metrics.update(model)
    metrics["trace.coverage"] = tracer.coverage(start, end)
    metrics["failed_frac"] = failed / attempted
    result["spans"] = os.path.join(args.work, "spans.json")
    tracer.write(result["spans"])
    result["metrics"] = metrics
    result["missing"] = sorted(tracer.missing)
    return result


if __name__ == "__main__":
    sys.exit(main())
