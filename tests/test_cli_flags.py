"""Uniform CLI flags: every ``t1000`` subcommand accepts the engine
flags (``--jobs``/``--cache-dir``/``--no-cache``/``--engine-report``)
and the observability flags (``--trace-out``/``--metrics-out``), and the
obs flags actually produce well-formed files."""

import pytest

from repro.harness.cli import build_parser, main
from repro.obs import load_jsonl, load_trace_events

# (subcommand argv prefix, takes engine flags)
SUBCOMMANDS = [
    (["fig2"], True),
    (["fig6"], True),
    (["fig7"], True),
    (["stats"], True),
    (["sweep-reconfig"], True),
    (["sweep-pfu"], True),
    (["profile", "gsm_encode"], True),
    (["pipeview", "gsm_encode"], True),
    (["report"], True),
    (["select", "gsm_encode", "-o", "sel.json"], True),
    (["run", "gsm_encode"], True),
    (["fuzz"], False),
    (["cache", "stats"], False),
    (["cache", "clear"], False),
    (["cache", "gc"], False),
]


@pytest.mark.parametrize(
    "argv,engine", SUBCOMMANDS, ids=lambda v: "-".join(v) if isinstance(v, list) else ""
)
def test_every_subcommand_parses_obs_flags(argv, engine):
    parser = build_parser()
    args = parser.parse_args(
        argv + ["--trace-out", "t.json", "--metrics-out", "m.jsonl"]
    )
    assert args.trace_out == "t.json"
    assert args.metrics_out == "m.jsonl"


@pytest.mark.parametrize(
    "argv", [argv for argv, engine in SUBCOMMANDS if engine],
    ids=lambda v: "-".join(v),
)
def test_experiment_subcommands_parse_engine_flags(argv, tmp_path):
    """Regression: profile/pipeview/select used to reject these."""
    parser = build_parser()
    args = parser.parse_args(argv + [
        "--jobs", "2", "--no-cache", "--cache-dir", str(tmp_path),
        "--engine-report",
    ])
    assert args.jobs == 2
    assert args.no_cache is True
    assert args.cache_dir == str(tmp_path)
    assert args.engine_report is True


def test_sim_jobs_accepts_only_serial_replay(capsys):
    """``--sim-jobs``/``EngineConfig.sim_jobs`` remain only so existing
    callers that pass 1 keep working; any other value is rejected."""
    from repro.engine import EngineConfig
    from repro.errors import ConfigurationError

    parser = build_parser()
    assert parser.parse_args(["report", "--sim-jobs", "1"]).sim_jobs == 1
    with pytest.raises(SystemExit):
        parser.parse_args(["report", "--sim-jobs", "2"])
    assert "invalid choice" in capsys.readouterr().err
    assert EngineConfig(sim_jobs=1).sim_jobs == 1
    with pytest.raises(ConfigurationError, match="sim_jobs"):
        EngineConfig(sim_jobs=2)


def test_metrics_report_subcommand_parses():
    args = build_parser().parse_args(
        ["metrics", "report", "a.jsonl", "b.jsonl", "--top", "3"]
    )
    assert args.files == ["a.jsonl", "b.jsonl"]
    assert args.top == 3


def test_obs_flags_produce_well_formed_files(tmp_path, capsys, monkeypatch):
    # --no-cache runs on the process-wide storeless pipeline; a fresh one
    # keeps an earlier test's warm memo from skipping the simulations
    # whose metrics this test checks.
    monkeypatch.setattr("repro.engine.pipeline._DEFAULT_PIPELINE", None)
    metrics = str(tmp_path / "m.jsonl")
    trace = str(tmp_path / "t.json")
    rc = main(["run", "gsm_encode", "--algorithm", "selective", "--pfus", "2",
               "--no-cache", "--metrics-out", metrics, "--trace-out", trace])
    assert rc == 0
    data = load_jsonl(metrics)
    assert data["meta"]["version"] == 1
    names = {row["name"] for row in data["metrics"]}
    assert any(n.startswith("sim.stall.") for n in names)
    assert "engine.jobs.ok" in names
    payload = load_trace_events(trace)
    assert any(e["ph"] == "X" for e in payload["traceEvents"])

    capsys.readouterr()
    rc = main(["metrics", "report", metrics])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-stage stall cycles" in out
    assert "gsm_encode [selective]" in out


def test_engine_flags_honored_on_profile(tmp_path, capsys):
    rc = main(["profile", "gsm_encode", "--no-cache", "--jobs", "1",
               "--engine-report"])
    assert rc == 0
    assert capsys.readouterr().out.strip()


def test_select_honors_cache_dir(tmp_path, capsys):
    out = str(tmp_path / "sel.json")
    rc = main(["select", "gsm_encode", "--algorithm", "selective",
               "--pfus", "2", "-o", out,
               "--cache-dir", str(tmp_path / "store")])
    assert rc == 0
    assert (tmp_path / "store").is_dir()
    assert "wrote" in capsys.readouterr().out
