"""The benchmark's three workloads.

Each workload is set up, run once (the timed window), checked and torn
down inside one fresh interpreter (see ``child.py``).  ``ops`` counts
the operations ``cpu_ms_per_op`` divides by: simulator invocations
(functional runs and timing replays) for the in-process workloads,
served requests for ``serve-sweep``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import time

DEFAULT_SEED = 1

#: Explore pass 1: the paper's monotone axes (pruned) crossed with one
#: core axis and one cache-geometry axis, over every workload.
EXPLORE_AXES = {
    "algorithm": ["selective"],
    "select_pfus": [2],
    "n_pfus": [1, 2, 4],
    "reconfig_latency": [10, 100],
    "ruu_size": [32, 64],
    "dl1.nsets": [64, 128],
}
#: Pass 2 adds one seeded reconfiguration latency below every pass-1
#: value, so every group gains a new dominating point to simulate while
#: the rest of the grid is served warm from the store.
EXPLORE_EXTRA_LATENCIES = range(10)

#: serve-sweep: the two rewritten traces swept, and the request window.
SERVE_WORKLOADS = ("gsm_decode", "gsm_encode")
SERVE_WINDOW = 2
SERVE_REQUESTS_PER_SECOND = 20
#: Requests per chunk; serve-sweep's wall and CPU per request are the
#: medians over chunks, so a burst of host noise moves one chunk only.
SERVE_CHUNK = 40
SERVE_CHECK_SAMPLE = 8
SERVE_COMPUTE_SAMPLE = 20


def digest(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (linear interpolation, as numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def own_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


class Workload:
    """Interface: ``setup`` (counted in setup_s), ``run`` (the timed
    window), ``check`` (output checks, after the window), ``teardown``.
    """

    name = ""

    def __init__(self, work_dir: str, seed: int, seconds: int,
                 reference: dict, tracer=None):
        self.work_dir = work_dir
        self.seed = seed
        self.seconds = seconds
        self.reference = reference.get(self.name, {})
        self.tracer = tracer
        #: operations completed and failed in the timed window
        self.ops = 0
        self.op_failures = 0
        self.checks = 0
        self.check_failures: list[str] = []

    def setup(self) -> None:
        pass

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    def expect(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.check_failures.append(message)

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb()

    def cost_metrics(self, wall: float, cpu: float,
                     ops: int) -> dict[str, float]:
        """``wall_s`` and ``cpu_ms_per_op`` of the timed window."""
        return {"wall_s": wall, "cpu_ms_per_op": cpu / max(1, ops) * 1e3}

    def model(self) -> dict[str, int]:
        """Seed-independent simulated counts (``model.*``), or empty to
        take the traced run's replay totals."""
        return {}

    def serve_metrics(self) -> dict[str, float]:
        """serve.*/wire.* per-layer values (zero: no requests served)."""
        return {
            "serve.latency_p50_ms": 0.0,
            "serve.latency_p95_ms": 0.0,
            "serve.compute_ms": 0.0,
            "serve.worker_busy_frac": 0.0,
            "serve.frontend_cpu_ms": 0.0,
            "serve.batch_mean": 0.0,
            "serve.trace_cache.hit_ratio": 0.0,
            "wire.sent_bytes_per_req": 0.0,
            "wire.recv_bytes_per_req": 0.0,
        }


# ----------------------------------------------------------------------


class ReportCold(Workload):
    """``t1000 report`` at scale 1, no store, one job at a time."""

    name = "report-cold"

    def setup(self) -> None:
        from repro.harness import cli

        self.cli = cli
        self.out = os.path.join(self.work_dir, "report")

    def run(self) -> None:
        rc = self.cli.main([
            "report", "--out", self.out, "--scale", "1", "--no-cache",
            "--jobs", "1", "--sim-jobs", "1",
        ])
        if rc != 0:
            self.op_failures += 1

    def artefact_digests(self) -> dict[str, str]:
        found = {}
        for name in sorted(os.listdir(self.out)):
            with open(os.path.join(self.out, name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
        return found

    def check(self) -> None:
        found = self.artefact_digests() if os.path.isdir(self.out) else {}
        expected = self.reference.get("artefacts", {})
        self.expect(bool(expected), "no reference digests recorded")
        self.expect(sorted(found) == sorted(expected),
                    f"artefact set {sorted(found)} != {sorted(expected)}")
        for name, want in expected.items():
            self.expect(found.get(name) == want,
                        f"{name}: digest differs from the reference")

    def record(self) -> dict:
        return {"artefacts": self.artefact_digests()}


class ExploreGrid(Workload):
    """A cold design-space grid, then the same grid widened by one
    seeded axis value against the now-warm store."""

    name = "explore-grid"

    def specs(self):
        from repro.explore import SweepSpec

        axes = {name: list(values) for name, values in EXPLORE_AXES.items()}
        first = SweepSpec.from_json({
            "name": "perfbench-grid", "workloads": list(self.all_workloads),
            "axes": axes, "prune": True,
        })
        extra = random.Random(self.seed).choice(EXPLORE_EXTRA_LATENCIES)
        widened = dict(axes, reconfig_latency=[extra] + axes["reconfig_latency"])
        second = SweepSpec.from_json({
            "name": "perfbench-grid-widened",
            "workloads": list(self.all_workloads),
            "axes": widened, "prune": True,
        })
        return first, second

    def setup(self) -> None:
        from repro.engine import EngineConfig, ExperimentEngine
        from repro.workloads import WORKLOAD_NAMES

        self.all_workloads = WORKLOAD_NAMES
        self.engine_for = lambda: ExperimentEngine(EngineConfig(
            cache_dir=self.store_dir, jobs=1, sim_jobs=1,
        ))
        self.store_dir = os.path.join(self.work_dir, "store")
        os.makedirs(self.store_dir)
        self.first_spec, self.second_spec = self.specs()

    def run(self) -> None:
        # looked up here, after the traced run has wrapped it
        from repro.explore import run_sweep

        # two engines on one store: pass 2 starts with an empty
        # in-process memo, as a second ``t1000 explore run`` would
        self.first = run_sweep(self.first_spec, self.engine_for())
        if self.tracer is not None:
            self.first_counts = dict(self.tracer.counts)
        self.second = run_sweep(self.second_spec, self.engine_for())

    @staticmethod
    def cycles(outcome) -> list:
        return sorted(
            [r.point_id, r.cycles, r.baseline_cycles] for r in outcome.results
        )

    def check(self) -> None:
        self.expect(
            digest(self.cycles(self.first)) == self.reference.get("pass1"),
            "pass 1 point cycles differ from the reference digest")
        if self.seed == DEFAULT_SEED:
            self.expect(
                digest(self.cycles(self.second))
                == self.reference.get("pass2_default_seed"),
                "pass 2 point cycles differ from the reference digest")
        first = {r.point_id: r for r in self.first.results}
        warm = [r for r in self.second.results if r.status == "warm"]
        self.expect(bool(warm), "pass 2 found nothing warm")
        for result in warm:
            before = first.get(result.point_id)
            self.expect(
                before is not None
                and (before.cycles, before.baseline_cycles)
                == (result.cycles, result.baseline_cycles),
                f"warm point {result.point_id} differs from pass 1")
        self.expect(self.second.n_simulated > 0,
                    "pass 2 simulated nothing new")

    def model(self) -> dict[str, int]:
        # pass 1 only: pass 2's grid depends on the seed
        return {name: self.first_counts.get(name, 0)
                for name in ("model.sim_cycles", "model.sim_insts")}

    def record(self) -> dict:
        return {
            "pass1": digest(self.cycles(self.first)),
            "pass2_default_seed": digest(self.cycles(self.second)),
        }


class ServeSweep(Workload):
    """A closed-loop by-ref simulate sweep through an in-process
    gateway and one-worker server."""

    name = "serve-sweep"

    def setup(self) -> None:
        from repro import api
        from repro.gateway import Gateway, GatewayConfig
        from repro.serve import ServeClient, ServeConfig, ToolflowServer
        from repro.sim.functional import FunctionalSimulator

        self.api = api
        self.programs = []
        for workload in SERVE_WORKLOADS:
            program = api.compile(workload=workload)
            selection = api.select(profile=api.profile(program=program),
                                   algorithm="selective", pfus=2)
            rewritten, defs = api.rewrite(program=program,
                                          selection=selection,
                                          validate=False)
            trace = FunctionalSimulator(rewritten, ext_defs=defs).run(
                collect_trace=True).trace
            self.programs.append((rewritten, defs, trace))

        self.server = ToolflowServer(ServeConfig(
            workers=1, worker_max_requests=1_000_000,
        )).start()
        host, port = self.server.address
        self.gateway = Gateway(GatewayConfig(
            backends=(f"{host}:{port}",),
        )).start()
        with ServeClient(self.server.address, timeout=60) as direct:
            self.worker_pid = direct.stats()["workers"]["pids"][0]
        self.client = ServeClient(self.gateway.address, timeout=60).connect()
        self.refs = []
        self.anchors = []
        for rewritten, defs, trace in self.programs:
            ref = self.client.trace_ref(program=rewritten, ext_defs=defs,
                                        trace=trace)
            self.client.put_trace(ref)
            # the anchor point (default machine) fills the worker's
            # per-trace pre-pass before the window opens
            self.anchors.append(self.client.simulate(
                program=ref, machine=api.MachineConfig()))
            self.refs.append(ref)
        self.points = self.make_points()

    def make_points(self) -> list:
        rng = random.Random(self.seed)
        count = max(5 * SERVE_CHUNK, SERVE_CHUNK * round(
            SERVE_REQUESTS_PER_SECOND * self.seconds / SERVE_CHUNK))
        points = []
        for index in range(count):
            points.append((index % len(SERVE_WORKLOADS), self.api.MachineConfig(
                n_pfus=rng.choice((1, 2, 3, 4)),
                reconfig_latency=rng.randrange(0, 301),
                ruu_size=rng.choice((16, 32, 64, 128)),
            )))
        return points

    def server_counters(self) -> tuple[float, float, int, int]:
        batch = self.server.recorder.metrics.value(
            "serve.batch.size", op="simulate")
        cache = self.server.trace_cache.stats()
        return (batch.sum if batch else 0, batch.count if batch else 0,
                cache["hits"], cache["misses"])

    def run(self) -> None:
        from collections import deque

        from repro.serve import ServeError

        client = self.client
        self.results: dict[int, object] = {}
        sent0, recv0 = client.bytes_sent, client.bytes_received
        counters0 = self.server_counters()
        worker0 = proc_cpu_s(self.worker_pid)
        own0 = own_cpu_s()
        start = time.perf_counter()
        self.marks = [(start, own0, worker0)]
        self.latencies: list[float] = []
        pending: deque = deque()
        cursor = 0
        while cursor < len(self.points) or pending:
            while cursor < len(self.points) and len(pending) < SERVE_WINDOW:
                ref_index, machine = self.points[cursor]
                pending.append((cursor, time.perf_counter(),
                                client.simulate_submit(
                                    program=self.refs[ref_index],
                                    machine=machine)))
                cursor += 1
            index, sent, call = pending.popleft()
            try:
                self.results[index] = call.result()
            except ServeError:
                self.op_failures += 1
            done = time.perf_counter()
            self.latencies.append(done - sent)
            if self.tracer is not None:
                self.tracer.record("serve.request", sent, done)
            if len(self.latencies) % SERVE_CHUNK == 0:
                self.marks.append((done, own_cpu_s(),
                                   proc_cpu_s(self.worker_pid)))
        self.wall = time.perf_counter() - start
        self.ops = len(self.latencies)
        self.own_cpu = own_cpu_s() - own0
        self.worker_cpu = proc_cpu_s(self.worker_pid) - worker0
        counters1 = self.server_counters()
        self.window = [b - a for a, b in zip(counters0, counters1)]
        self.sent = client.bytes_sent - sent0
        self.received = client.bytes_received - recv0
        self.worker_rss = proc_peak_rss_mb(self.worker_pid)

    def cost_metrics(self, wall: float, cpu: float,
                     ops: int) -> dict[str, float]:
        chunks = [
            (b[0] - a[0], (b[1] - a[1]) + (b[2] - a[2]))
            for a, b in zip(self.marks, self.marks[1:])
        ]
        per_request_s = statistics.median(w for w, _ in chunks) / SERVE_CHUNK
        cpu_per_request_s = statistics.median(c for _, c in chunks) / SERVE_CHUNK
        return {
            "wall_s": per_request_s * len(self.points),
            "cpu_ms_per_op": cpu_per_request_s * 1e3,
        }

    @staticmethod
    def canonical(stats) -> str:
        from repro.engine.store import stats_to_json

        return json.dumps(stats_to_json(stats), sort_keys=True)

    def check(self) -> None:
        self.expect(len(self.results) == len(self.points),
                    f"{len(self.points) - len(self.results)} request(s) "
                    "got no answer")
        rng = random.Random(self.seed + 1)
        sample = sorted(rng.sample(sorted(self.results),
                                   min(SERVE_CHECK_SAMPLE, len(self.results))))
        for ref_index, (rewritten, defs, _) in enumerate(self.programs):
            chosen = [i for i in sample if self.points[i][0] == ref_index]
            if not chosen:
                continue
            expected = self.api.simulate(
                program=rewritten, ext_defs=defs,
                machine=[self.points[i][1] for i in chosen])
            for index, stats in zip(chosen, expected):
                self.expect(
                    self.canonical(self.results[index])
                    == self.canonical(stats),
                    f"point {index} differs from in-process api.simulate")

    def compute_ms(self) -> float:
        """p50 of the same points replayed in-process (pre-pass warm)."""
        from repro.sim.ooo import OoOSimulator

        for rewritten, defs, trace in self.programs:
            OoOSimulator(rewritten, self.api.MachineConfig(),
                         ext_defs=defs).simulate(trace)
        times = []
        for ref_index, machine in self.points[:SERVE_COMPUTE_SAMPLE]:
            rewritten, defs, trace = self.programs[ref_index]
            start = time.perf_counter()
            OoOSimulator(rewritten, machine, ext_defs=defs).simulate(trace)
            times.append(time.perf_counter() - start)
        return percentile(times, 50) * 1e3

    def serve_metrics(self) -> dict[str, float]:
        batch_sum, batch_count, hits, misses = self.window
        n = len(self.points)
        return {
            "serve.latency_p50_ms": percentile(self.latencies, 50) * 1e3,
            "serve.latency_p95_ms": percentile(self.latencies, 95) * 1e3,
            "serve.compute_ms": self.compute_ms(),
            "serve.worker_busy_frac": self.worker_cpu / self.wall,
            "serve.frontend_cpu_ms": self.own_cpu / n * 1e3,
            "serve.batch_mean": batch_sum / batch_count if batch_count else 0.0,
            "serve.trace_cache.hit_ratio": (
                hits / (hits + misses) if hits + misses else 0.0),
            "wire.sent_bytes_per_req": self.sent / n,
            "wire.recv_bytes_per_req": self.received / n,
        }

    def peak_rss_mb(self) -> float:
        return own_peak_rss_mb() + self.worker_rss

    def model(self) -> dict[str, int]:
        return {
            "model.sim_cycles": sum(s.cycles for s in self.anchors),
            "model.sim_insts": sum(s.instructions for s in self.anchors),
        }

    def teardown(self) -> None:
        # set-up may have stopped before any of these existed
        if hasattr(self, "client"):
            self.client.close()
        if hasattr(self, "gateway"):
            self.gateway.stop(grace=10)
        if hasattr(self, "server"):
            self.server.stop(grace=10)


WORKLOADS = {cls.name: cls for cls in (ReportCold, ExploreGrid, ServeSweep)}
