"""Experiment execution engine.

The engine is the batch front door for every T1000 experiment: requests
become jobs in a dependency DAG (timing depends on rewrite depends on
selection depends on profile), jobs execute inline or across a process
pool, and every intermediate artefact is cached in a persistent
content-addressed store shared between processes and invocations.

Typical use::

    from repro.engine import EngineConfig, ExperimentEngine, make_spec

    engine = ExperimentEngine(EngineConfig(jobs=4, cache_dir="~/.t1000"))
    results = engine.run_batch([
        make_spec("gsm_encode", "selective", 2, 10),
        make_spec("gsm_encode", "greedy", None, 0),
    ])
    print(engine.report())

Environment knobs (used by :func:`default_engine`, which the figure
drivers fall back to): ``T1000_JOBS``, ``T1000_CACHE_DIR``,
``T1000_NO_CACHE``.

Parallelism lives in the job DAG (``jobs``): each timing replay inside a
job runs serially.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.engine.pipeline import (
    ArtifactPipeline,
    ExperimentResult,
    ExperimentSpec,
    core_machine,
    execute_job,
    get_default_pipeline,
    make_spec,
    run_stage,
)
from repro.engine.scheduler import (
    Job,
    JobGraph,
    JobResult,
    JobTimeoutError,
    Scheduler,
    SchedulerError,
    TransientJobError,
)
from repro.engine.store import (
    SCHEMA_VERSION,
    ArtifactKey,
    ArtifactStore,
    StoreStats,
    machine_fingerprint,
    machine_from_json,
    machine_to_json,
    make_key,
    program_fingerprint,
    read_json,
    stats_from_json,
    stats_to_json,
    write_json_atomic,
)
from repro.engine.telemetry import JobRecord, Telemetry
from repro.errors import ConfigurationError, ReproError
from repro.extinst import BASELINE, Selection
from repro.extinst.registry import normalize_select_pfus
from repro.extinst.serialize import selection_from_json

__all__ = [
    "ArtifactKey", "ArtifactPipeline", "ArtifactStore", "EngineConfig",
    "EngineError", "ExperimentEngine", "ExperimentResult", "ExperimentSpec",
    "Job", "JobGraph", "JobRecord", "JobResult", "JobTimeoutError",
    "SCHEMA_VERSION", "Scheduler", "SchedulerError", "StoreStats",
    "Telemetry", "TransientJobError", "core_machine", "default_engine",
    "execute_job", "get_default_pipeline", "machine_fingerprint",
    "machine_from_json", "machine_to_json", "make_key", "make_spec",
    "program_fingerprint", "read_json", "stats_from_json", "stats_to_json",
    "write_json_atomic",
]


class EngineError(ReproError):
    """Raised when a batch cannot be completed (failed/skipped jobs)."""


@dataclass(frozen=True)
class EngineConfig:
    """How the engine executes and caches a batch.

    ``no_cache`` wins over ``cache_dir`` (explicit opt-out).  A
    ``job_timeout`` of None disables wall-clock budgets; ``retries`` is
    the number of extra attempts for transient failures/timeouts.
    Whether a rewrite is checked against the original program is part
    of each experiment request (``ExperimentSpec.validate``), not of
    the engine.
    ``sim_jobs`` is accepted for compatibility with older callers and
    must be 1: every timing replay runs serially.
    """

    jobs: int = 1
    cache_dir: str | None = None
    no_cache: bool = False
    job_timeout: float | None = None
    retries: int = 1
    sim_jobs: int = 1

    def __post_init__(self) -> None:
        if self.sim_jobs != 1:
            raise ConfigurationError(
                f"sim_jobs={self.sim_jobs!r}: timing replays are serial, "
                f"so sim_jobs must be 1 (use jobs= for parallelism)"
            )

    def resolved_cache_dir(self) -> str | None:
        if self.no_cache or not self.cache_dir:
            return None
        return os.path.abspath(os.path.expanduser(self.cache_dir))


class ExperimentEngine:
    """Facade: experiment batches in, ordered results out."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.telemetry = Telemetry()
        cache_dir = self.config.resolved_cache_dir()
        if cache_dir is not None:
            self.store: ArtifactStore | None = ArtifactStore(
                cache_dir, telemetry=self.telemetry
            )
            self.pipeline = ArtifactPipeline(
                store=self.store, telemetry=self.telemetry
            )
        else:
            # Storeless engines share the process-wide pipeline so labs,
            # figure drivers, and repeated CLI calls reuse artefacts.
            self.store = None
            self.pipeline = get_default_pipeline()
        self._cache_dir = cache_dir

    # ------------------------------------------------------------------

    def _scheduler(self) -> Scheduler:
        return Scheduler(
            jobs=max(1, self.config.jobs),
            telemetry=self.telemetry,
            default_timeout=self.config.job_timeout,
            default_retries=None,
        )

    def _runner(self):
        """Inline runs go through this engine's pipeline; pool runs give
        each worker its own pipeline keyed by the cache dir."""
        if self.config.jobs <= 1:
            return lambda payload: run_stage(self.pipeline, payload)
        return execute_job

    def _execute(self, graph: JobGraph) -> dict[str, JobResult]:
        results = self._scheduler().run(graph, self._runner())
        # Pool workers (and the shared storeless pipeline) count into
        # their own telemetry; fold each job's delta into this run's.
        # A store-backed inline pipeline already shares self.telemetry.
        own_counts = self.pipeline.telemetry is self.telemetry
        if self.config.jobs > 1 or not own_counts:
            for result in results.values():
                value = result.value
                if isinstance(value, dict) and "telemetry" in value:
                    # Pool workers' counts never reached this process's
                    # observability recorder, so bridge them on merge;
                    # inline counts were bridged at incr time.
                    self.telemetry.merge_counts(
                        value["telemetry"], bridge=self.config.jobs > 1
                    )
        failures = [
            r for r in results.values() if r.status in ("failed", "skipped")
        ]
        if failures:
            detail = "; ".join(
                f"{r.job_id}: {r.status} ({r.error})" for r in failures[:5]
            )
            raise EngineError(
                f"{len(failures)} job(s) did not complete: {detail}"
            )
        if self.store is not None:
            self.store.flush_counters()
        return results

    # ------------------------------------------------------------------
    # graph construction

    def _job(
        self, graph: JobGraph, job_id: str, stage: str,
        deps: tuple[str, ...] = (), **payload,
    ) -> str:
        """Add one ``stage`` job (deduplicated by id); returns its id."""
        graph.add(Job(
            job_id=job_id, kind=stage,
            payload={"stage": stage, "cache_dir": self._cache_dir, **payload},
            deps=deps,
            timeout=self.config.job_timeout, retries=self.config.retries,
        ))
        return job_id

    def _profile_deps(
        self, graph: JobGraph, workload: str, scale: int
    ) -> tuple[str, ...]:
        """The profile job a workload's artefacts depend on — store mode
        only: without a shared store artefacts cannot cross processes,
        so each leaf job computes its own chain."""
        if self.store is None:
            return ()
        return (self._job(graph, f"profile:{workload}@{scale}", "profile",
                          workload=workload, scale=scale),)

    # ------------------------------------------------------------------
    # public API

    def run_batch(self, specs: list[ExperimentSpec]) -> list[ExperimentResult]:
        """Run a batch of experiments; results come back in spec order."""
        return self.run_explore_points([
            {"id": spec.token(), "workload": spec.workload,
             "scale": spec.scale, "algorithm": spec.algorithm,
             "select_pfus": spec.select_pfus, "validate": spec.validate,
             "machine": spec.machine}
            for spec in specs
        ])

    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        return self.run_batch([spec])[0]

    def run_explore_points(
        self, requests: list[dict]
    ) -> list[ExperimentResult]:
        """Execute experiments, each one design point.

        Each request is a dict with keys ``workload``, ``scale``,
        ``algorithm``, ``select_pfus``, ``validate``, ``machine`` (a
        :class:`~repro.sim.ooo.MachineConfig`), and ``id`` (a short
        token used for job naming).  With a store, each point depends on
        a prepare job (rewrite + trace) and on one baseline job per
        (workload, scale, core geometry), so parallel points never race
        on the same artefact; results come back in request order.
        """
        graph = JobGraph()
        leaf_ids: list[str] = []
        for req in requests:
            workload, scale = req["workload"], req["scale"]
            point = {key: req[key] for key in (
                "workload", "scale", "algorithm", "select_pfus", "validate")}
            profile_deps = self._profile_deps(graph, workload, scale)
            core = core_machine(req["machine"])
            base_id = (f"explore:base:{workload}@{scale}"
                       f":{machine_fingerprint(core)[:12]}")
            base = dict(point, algorithm=BASELINE, select_pfus=None,
                        machine=machine_to_json(core))
            if req["algorithm"] == BASELINE:
                leaf_ids.append(
                    self._job(graph, base_id, "explore", profile_deps, **base)
                )
                continue
            deps: tuple[str, ...] = ()
            if self.store is not None:
                sel = ("unl" if req["select_pfus"] is None
                       else req["select_pfus"])
                deps = (
                    self._job(graph, base_id, "explore", profile_deps, **base),
                    self._job(
                        graph,
                        f"prepare:{workload}@{scale}:{req['algorithm']}"
                        f":sel={sel}:val={int(req['validate'])}",
                        "prepare", profile_deps, **point,
                    ),
                )
            leaf_ids.append(self._job(
                graph, f"explore:{req['id']}", "explore", deps,
                machine=machine_to_json(req["machine"]), **point,
            ))
        results = self._execute(graph)
        return [results[leaf].value["value"] for leaf in leaf_ids]

    def select_batch(
        self, requests: list[tuple[str, int, str, int | None]]
    ) -> list[Selection]:
        """Compute selections for ``(workload, scale, algorithm,
        select_pfus)`` requests, in request order."""
        graph = JobGraph()
        leaf_ids: list[str] = []
        for workload, scale, algorithm, select_pfus in requests:
            select_pfus = normalize_select_pfus(algorithm, select_pfus)
            sel = "unl" if select_pfus is None else select_pfus
            leaf_ids.append(self._job(
                graph, f"select:{workload}@{scale}:{algorithm}:sel={sel}",
                "select", self._profile_deps(graph, workload, scale),
                workload=workload, scale=scale, algorithm=algorithm,
                select_pfus=select_pfus,
            ))
        results = self._execute(graph)
        return [
            selection_from_json(results[leaf].value["value"])
            for leaf in leaf_ids
        ]

    def report(self) -> str:
        """Per-run telemetry summary (jobs, cache traffic, simulations)."""
        return self.telemetry.report()


# ----------------------------------------------------------------------
# process-wide default engine (figure drivers fall back to this)

_DEFAULT_ENGINE: ExperimentEngine | None = None


def default_engine() -> ExperimentEngine:
    """Engine configured from ``T1000_JOBS``/``T1000_CACHE_DIR``/
    ``T1000_NO_CACHE``; storeless and serial when the env says nothing."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = ExperimentEngine(EngineConfig(
            jobs=int(os.environ.get("T1000_JOBS") or 1),
            cache_dir=os.environ.get("T1000_CACHE_DIR") or None,
            no_cache=bool(os.environ.get("T1000_NO_CACHE")),
        ))
    return _DEFAULT_ENGINE
