"""Sweep execution: cache-aware scheduling, pruning, result assembly.

:func:`run_sweep` is the one entry point.  It expands a
:class:`~repro.explore.spec.SweepSpec`, classifies points as *warm*
(their timing artefact already sits in the engine store — never
re-simulated, which is also what makes a crashed sweep resumable with
zero repeated work), plans dominated-point pruning, executes the
remaining cold points — in-process through the
:class:`~repro.engine.ExperimentEngine` job graph, or across a
:mod:`repro.serve` fleet when given a
:class:`~repro.serve.client.ServeClient` — and assembles
:class:`~repro.explore.pareto.PointResult` rows plus one
:class:`~repro.explore.prune.SkipRecord` per pruned point, so coverage
is never silently truncated.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any

from repro.engine import ExperimentEngine, default_engine, machine_fingerprint
from repro.engine.pipeline import core_machine
from repro.explore.pareto import ParetoReport, PointResult
from repro.explore.prune import PrunePlan, SkipRecord
from repro.explore.prune import plan as prune_plan
from repro.explore.spec import SweepPoint, SweepSpec
from repro.explore.state import SweepState
from repro.hwcost.area import selection_area
from repro.obs import get_recorder

log = logging.getLogger("repro.explore")


@dataclass
class SweepOutcome:
    """Everything a sweep produced, plus where it was persisted."""

    spec: SweepSpec
    results: list[PointResult]
    skipped: list[SkipRecord]
    n_simulated: int
    n_warm: int
    n_pruned: int
    state_path: str | None = None
    log_lines: list[str] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return len(self.results) + self.n_pruned

    def report(self) -> ParetoReport:
        return ParetoReport(
            results=list(self.results),
            skipped=[record.to_json() for record in self.skipped],
        )

    def summary(self) -> str:
        return (
            f"sweep {self.spec.name}: {self.n_points} point(s): "
            f"simulated {self.n_simulated}, warm {self.n_warm}, "
            f"pruned {self.n_pruned}"
        )


# ----------------------------------------------------------------------
# warm classification


def warm_point_ids(
    engine: ExperimentEngine, points: list[SweepPoint]
) -> set[str]:
    """Points whose timing artefact is already in the engine store.

    Storeless engines report nothing warm (in-process memo hits still
    avoid recomputation, but cannot be known before running).
    """
    if engine.store is None:
        return set()
    warm: set[str] = set()
    fingerprints: dict[tuple[str, int], str] = {}
    for point in points:
        key = (point.workload, point.scale)
        fingerprint = fingerprints.get(key)
        if fingerprint is None:
            fingerprint = engine.pipeline.fingerprint(*key)
            fingerprints[key] = fingerprint
        if engine.store.contains(point.timing_key(fingerprint)):
            warm.add(point.point_id)
    return warm


# ----------------------------------------------------------------------
# execution backends: both return point_id -> (cycles, baseline, n_configs)
# plus selection areas keyed by (workload, scale, algorithm, select_pfus)


def _run_points_engine(
    engine: ExperimentEngine, points: list[SweepPoint]
) -> tuple[dict[str, tuple[int, int, int]], dict[tuple, int]]:
    requests = [
        {
            "id": point.point_id,
            "workload": point.workload,
            "scale": point.scale,
            "algorithm": point.algorithm,
            "select_pfus": point.select_pfus,
            "validate": point.validate,
            "machine": point.machine,
        }
        for point in points
    ]
    results = engine.run_explore_points(requests)
    measured = {
        point.point_id: (
            result.stats.cycles, result.baseline_cycles, result.n_configs
        )
        for point, result in zip(points, results)
    }
    areas: dict[tuple, int] = {}
    for point in points:
        if point.algorithm == "baseline":
            continue
        key = (
            point.workload, point.scale, point.algorithm, point.select_pfus
        )
        if key not in areas:
            selection = engine.pipeline.selection(*key)
            areas[key] = selection_area(selection)
    return measured, areas


def _simulate_resilient(client, pending, kwargs: dict) -> Any:
    """Resolve a pipelined simulate, falling back to a synchronous
    retry loop if the server sheds load."""
    from repro.serve import protocol

    try:
        return pending.result()
    except protocol.OverloadedError as exc:
        delay = exc.retry_after_ms / 1000.0
    for attempt in range(8):
        time.sleep(delay * (attempt + 1))
        try:
            return client.simulate(**kwargs)
        except protocol.OverloadedError as exc:
            delay = exc.retry_after_ms / 1000.0
    raise protocol.OverloadedError("server stayed overloaded")


def _run_points_serve(
    client, points: list[SweepPoint]
) -> tuple[dict[str, tuple[int, int, int]], dict[tuple, int]]:
    """Run a sweep's points against a toolflow service.

    One compile+profile per (workload, scale); one select+rewrite per
    selection identity; simulates pipelined via ``simulate_submit`` so
    the whole machine fan-out is in flight at once.  The service path
    has no artifact store: every point reported from it counts as
    simulated.
    """
    measured: dict[str, tuple[int, int, int]] = {}
    areas: dict[tuple, int] = {}
    by_program: dict[tuple[str, int], list[SweepPoint]] = {}
    for point in points:
        by_program.setdefault((point.workload, point.scale), []).append(point)

    for (workload, scale), members in by_program.items():
        program = client.compile(workload=workload, scale=scale)
        profile = client.profile(program=program)

        # Digest-addressed handle: the program bundle crosses the wire
        # at most once per owning backend, and every fan-out point after
        # that is a ~100-byte by-reference request.
        base_ref = client.trace_ref(program=program)

        # Baseline denominators: one per distinct core geometry.
        cores: dict[str, Any] = {}
        for point in members:
            core = core_machine(point.machine)
            cores.setdefault(machine_fingerprint(core), core)
        base_pending = [
            (fp, core, client.simulate_submit(program=base_ref, machine=core))
            for fp, core in cores.items()
        ]
        base_cycles = {
            fp: _simulate_resilient(
                client, pending, dict(program=base_ref, machine=core)
            ).cycles
            for fp, core, pending in base_pending
        }

        # One select+rewrite per selection identity, then fan out the
        # machine grid as pipelined simulates.
        prepared: dict[tuple, tuple] = {}
        pendings: list[tuple[SweepPoint, Any, Any, dict]] = []
        for point in members:
            if point.algorithm == "baseline":
                fp = machine_fingerprint(point.machine)
                cycles = base_cycles[fp]
                measured[point.point_id] = (cycles, cycles, 0)
                continue
            skey = (point.algorithm, point.select_pfus)
            if skey not in prepared:
                selection = client.select(
                    profile=profile, algorithm=point.algorithm,
                    pfus=point.select_pfus,
                )
                rewritten, defs = client.rewrite(
                    program=program, selection=selection,
                    validate=point.validate,
                )
                # The ref pins ext_defs alongside the rewritten program,
                # so the simulate fan-out below carries neither by value.
                ref = client.trace_ref(program=rewritten, ext_defs=defs)
                prepared[skey] = (ref, selection)
                areas[(workload, scale) + skey] = selection_area(selection)
            ref, selection = prepared[skey]
            kwargs = dict(program=ref, machine=point.machine)
            pendings.append((
                point, selection, client.simulate_submit(**kwargs), kwargs
            ))
        for point, selection, pending, kwargs in pendings:
            stats = _simulate_resilient(client, pending, kwargs)
            fp = machine_fingerprint(core_machine(point.machine))
            measured[point.point_id] = (
                stats.cycles, base_cycles[fp], selection.n_configs
            )
    return measured, areas


# ----------------------------------------------------------------------
# the driver


def run_sweep(
    spec: SweepSpec,
    engine: ExperimentEngine | None = None,
    *,
    prune: bool | None = None,
    client=None,
) -> SweepOutcome:
    """Run (or resume) a sweep and return its assembled outcome.

    ``prune`` overrides the spec's flag when given.  With ``client``
    set, points execute on a toolflow service instead of the local
    engine (no store: nothing is warm, nothing persists).  Re-running
    against the same store re-simulates nothing — warm points are
    recognised before scheduling and their results fetched from cache.
    """
    engine = engine or default_engine()
    do_prune = spec.prune if prune is None else prune
    rec = get_recorder()
    lines: list[str] = []

    with rec.span("explore.sweep", sweep=spec.name,
                  backend="serve" if client is not None else "engine"):
        points = spec.expand()
        warm_ids = (
            warm_point_ids(engine, points) if client is None else set()
        )
        if do_prune:
            plan = prune_plan(points, warm_ids)
        else:
            plan = PrunePlan(simulate=list(points), skips={})

        with rec.span("explore.execute", points=len(plan.simulate)):
            if client is not None:
                measured, areas = _run_points_serve(client, plan.simulate)
            else:
                measured, areas = _run_points_engine(engine, plan.simulate)

        results: list[PointResult] = []
        speedups: dict[str, float] = {}
        for point in plan.simulate:
            cycles, baseline_cycles, n_configs = measured[point.point_id]
            speedup = baseline_cycles / cycles
            speedups[point.point_id] = speedup
            if point.algorithm == "baseline":
                area = 0
            else:
                area = areas[(
                    point.workload, point.scale,
                    point.algorithm, point.select_pfus,
                )]
            results.append(PointResult(
                point_id=point.point_id,
                workload=point.workload,
                scale=point.scale,
                algorithm=point.algorithm,
                select_pfus=point.select_pfus,
                n_pfus=(
                    0 if point.algorithm == "baseline"
                    else point.machine.n_pfus
                ),
                reconfig_latency=(
                    0 if point.algorithm == "baseline"
                    else point.machine.reconfig_latency
                ),
                cycles=cycles,
                baseline_cycles=baseline_cycles,
                speedup=speedup,
                area_luts=area,
                n_configs=n_configs,
                status="warm" if point.point_id in warm_ids else "simulated",
                axes=point.axes,
            ))

        skipped: list[SkipRecord] = []
        for point_id in sorted(plan.skips):
            pruned, dominator = plan.skips[point_id]
            record = SkipRecord(
                point_id=pruned.point_id,
                label=pruned.label(),
                dominated_by=dominator.point_id,
                dominated_by_label=dominator.label(),
                bound_speedup=speedups.get(dominator.point_id),
            )
            skipped.append(record)
            bound = (
                f" (speedup <= {record.bound_speedup:.3f})"
                if record.bound_speedup is not None else ""
            )
            line = (
                f"prune: {record.label} dominated by "
                f"{record.dominated_by_label}{bound}"
            )
            lines.append(line)
            log.info(line)

        n_warm = sum(1 for r in results if r.status == "warm")
        n_simulated = len(results) - n_warm
        for status, count in (
            ("simulated", n_simulated), ("warm", n_warm),
            ("pruned", len(skipped)),
        ):
            engine.telemetry.incr(f"explore.points.{status}", count)
            if count and rec.enabled:
                rec.counter(
                    "explore.points", sweep=spec.name, status=status
                ).inc(count)

        state_path: str | None = None
        if client is None and engine.store is not None:
            state = SweepState(
                spec=spec,
                statuses={
                    **{r.point_id: r.status for r in results},
                    **{record.point_id: "pruned" for record in skipped},
                },
                results={r.point_id: r for r in results},
                skipped=[record.to_json() for record in skipped],
            )
            state_path = str(state.save(engine.store.root))

    outcome = SweepOutcome(
        spec=spec, results=results, skipped=skipped,
        n_simulated=n_simulated, n_warm=n_warm, n_pruned=len(skipped),
        state_path=state_path, log_lines=lines,
    )
    lines.append(outcome.summary())
    log.info(outcome.summary())
    return outcome
