"""End-to-end tests for the experiment engine (store + scheduler + CLI).

The acceptance bar from the engine's design: a warm cache re-runs zero
simulations, and a parallel run produces byte-identical tables to a
serial one.
"""

import re

import pytest

from repro.engine import EngineConfig, ExperimentEngine, make_spec
from repro.harness.cli import main
from repro.harness.figures import fig2_greedy
from repro.utils.tables import format_table

WORKLOAD = "epic"


def make_engine(tmp_path, **kwargs):
    return ExperimentEngine(EngineConfig(
        cache_dir=str(tmp_path / "cache"), **kwargs
    ))


@pytest.fixture(scope="module")
def reference_rows():
    """Serial, storeless reference result (shared process-wide pipeline)."""
    return fig2_greedy(workloads=(WORKLOAD,))


class TestColdVsWarm:
    def test_warm_run_identical_and_simulation_free(self, tmp_path,
                                                    reference_rows):
        cold = make_engine(tmp_path)
        cold_out = fig2_greedy(workloads=(WORKLOAD,), engine=cold)
        assert format_table(*cold_out) == format_table(*reference_rows)
        assert cold.telemetry.total("sim") > 0

        warm = make_engine(tmp_path)     # fresh engine, same cache dir
        warm_out = fig2_greedy(workloads=(WORKLOAD,), engine=warm)
        assert format_table(*warm_out) == format_table(*cold_out)
        assert warm.telemetry.total("sim") == 0, \
            "warm cache must not re-run any simulation"
        assert warm.telemetry.cache_misses == 0
        assert warm.telemetry.cache_hits > 0

    def test_store_stats_accumulate(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.run(make_spec(WORKLOAD, "greedy", 2, 10))
        stats = engine.store.stats()
        assert stats.artifacts > 0
        assert stats.puts == stats.artifacts
        assert stats.counters.get("sim.timing", 0) > 0


class TestRunSummary:
    def test_simulation_breakdown_sums_to_total(self, tmp_path):
        engine = make_engine(tmp_path)
        fig2_greedy(workloads=(WORKLOAD,), engine=engine)
        total = engine.telemetry.total("sim")
        assert engine.telemetry.counters["sim.validate"] > 0
        [line] = [ln for ln in engine.report().splitlines()
                  if "simulations:" in ln]
        parts = dict(re.findall(r"(\w+)=(\d+)", line))
        assert int(line.split("simulations:")[1].split()[0]) == total
        assert sum(map(int, parts.values())) == total
        [line] = [ln for ln in engine.store.stats().render().splitlines()
                  if ln.startswith("simulations:")]
        parts = dict(re.findall(r"(\w+)=(\d+)", line))
        assert sum(map(int, parts.values())) == total


class TestParallel:
    def test_parallel_matches_serial(self, tmp_path, reference_rows):
        engine = make_engine(tmp_path, jobs=2)
        out = fig2_greedy(workloads=(WORKLOAD,), engine=engine)
        assert format_table(*out) == format_table(*reference_rows)

    def test_parallel_storeless_matches_serial(self, reference_rows):
        engine = ExperimentEngine(EngineConfig(jobs=2))
        out = fig2_greedy(workloads=(WORKLOAD,), engine=engine)
        assert format_table(*out) == format_table(*reference_rows)

    def test_worker_telemetry_folded_into_run(self, tmp_path):
        engine = make_engine(tmp_path, jobs=2)
        engine.run(make_spec(WORKLOAD, "greedy", 2, 10))
        # simulations happened in workers, but the parent's report sees them
        assert engine.telemetry.total("sim") > 0
        assert "simulations:" in engine.report()


class TestCorruptionRecovery:
    def test_corrupt_artifact_recomputed(self, tmp_path, reference_rows):
        cold = make_engine(tmp_path)
        fig2_greedy(workloads=(WORKLOAD,), engine=cold)
        # vandalise every cached artefact
        for path in cold.store._object_files():
            path.write_bytes(b"\x00garbage")
        warm = make_engine(tmp_path)
        out = fig2_greedy(workloads=(WORKLOAD,), engine=warm)
        assert format_table(*out) == format_table(*reference_rows)
        assert warm.telemetry.total("cache.corrupt") > 0
        assert warm.telemetry.total("sim") > 0   # recomputed, not crashed


class TestCli:
    def test_cold_then_warm_output_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["fig2", "--workloads", WORKLOAD, "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "artifacts:" in out
        hits = int(out.split("hits: ")[1].split()[0])
        assert hits > 0, "second CLI run should have hit the cache"
        # the simulation counters prove the warm run computed nothing new
        assert "simulations: functional=3 timing=3" in out

    def test_jobs_flag_matches_serial(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["fig2", "--workloads", WORKLOAD,
                     "--cache-dir", cache]) == 0
        serial = capsys.readouterr().out
        assert main(["fig2", "--workloads", WORKLOAD, "--cache-dir", cache,
                     "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_clear(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["fig2", "--workloads", WORKLOAD, "--cache-dir", cache])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        assert "artifacts: 0 (0 bytes)" in capsys.readouterr().out

    def test_cache_gc(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        main(["fig2", "--workloads", WORKLOAD, "--cache-dir", cache])
        capsys.readouterr()
        assert main(["cache", "gc", "--cache-dir", cache,
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 artefact(s) kept" in out

    def test_cache_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("T1000_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "no cache directory" in capsys.readouterr().err

    def test_cache_stats_missing_dir_is_a_clean_error(self, tmp_path,
                                                      capsys):
        """A typo'd --cache-dir must produce a human-readable message and
        exit 2 — not a traceback, and not a freshly created empty store."""
        missing = tmp_path / "no" / "such" / "store"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "Traceback" not in err
        assert not missing.exists(), "inspection must not create the store"

    def test_no_cache_flag_disables_store(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["fig2", "--workloads", WORKLOAD,
                     "--cache-dir", str(cache), "--no-cache"]) == 0
        capsys.readouterr()
        assert not (cache / "objects").exists() or \
            not any((cache / "objects").glob("*/*"))

    def test_engine_report_flag(self, tmp_path, capsys):
        assert main(["fig2", "--workloads", WORKLOAD,
                     "--cache-dir", str(tmp_path / "cache"),
                     "--engine-report"]) == 0
        captured = capsys.readouterr()
        assert "engine run summary" in captured.err
        assert "engine run summary" not in captured.out
