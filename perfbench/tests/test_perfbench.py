"""The benchmark's own tests (not part of the repository's suite).

Run from the repository root:

    python3 -m pytest -q perfbench/tests

The end-to-end cases run every workload for real (report-cold and
explore-grid are fixed-size, about 20-30 s each; serve-sweep is
shortened by ``--seconds 1``), so the whole file takes a few minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
with open(os.path.join(PERFBENCH, "reference.json")) as fh:
    REFERENCE = json.load(fh)


def bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=400,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_shortened_run_emits_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), "--workload", "report-cold", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# a corrupted output fails its check


def test_report_check_fails_on_corrupted_artefact(tmp_path):
    report = workloads.ReportCold(str(tmp_path), 1, 1, REFERENCE)
    report.out = str(tmp_path / "report")
    os.mkdir(report.out)
    for name in REFERENCE["report-cold"]["artefacts"]:
        (tmp_path / "report" / name).write_text("corrupted\n")
    report.check()
    assert len(report.check_failures) == len(
        REFERENCE["report-cold"]["artefacts"])


def _outcome(results, n_simulated=1):
    return types.SimpleNamespace(results=results, n_simulated=n_simulated)


def _point(point_id, cycles, status="simulated"):
    return types.SimpleNamespace(point_id=point_id, cycles=cycles,
                                 baseline_cycles=1000, status=status)


def test_explore_check_fails_when_warm_point_differs(tmp_path):
    grid = workloads.ExploreGrid(str(tmp_path), 5, 1, REFERENCE)
    grid.first = _outcome([_point("a", 700), _point("b", 800)])
    grid.second = _outcome([_point("a", 700, "warm"),
                            _point("b", 801, "warm")])
    grid.check()
    assert "warm point b differs from pass 1" in grid.check_failures
    # and the recorded pass-1 digest does not match made-up cycles
    assert any("pass 1" in message for message in grid.check_failures)


def test_serve_check_fails_on_corrupted_answer(tmp_path):
    from repro import api

    sweep = workloads.ServeSweep(str(tmp_path), 3, 1, REFERENCE)
    sweep.api = api
    program = api.compile(workload="gsm_decode")
    selection = api.select(profile=api.profile(program=program),
                           algorithm="selective", pfus=2)
    rewritten, defs = api.rewrite(program=program, selection=selection)
    sweep.programs = [(rewritten, defs, None)]
    sweep.points = [(0, api.MachineConfig(ruu_size=16 * (i + 1)))
                    for i in range(3)]
    answers = api.simulate(program=rewritten, ext_defs=defs,
                           machine=[m for _, m in sweep.points])
    sweep.results = dict(enumerate(answers))
    sweep.check()
    assert sweep.check_failures == []

    answers[1].cycles += 1
    sweep.checks, sweep.check_failures = 0, []
    sweep.check()
    assert sweep.check_failures == [
        "point 1 differs from in-process api.simulate"]
