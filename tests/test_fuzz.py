"""Tests for the differential fuzzing module."""

import random

import pytest

from repro.asm import assemble
from repro.fuzz import (
    FuzzResult,
    check_program,
    check_simulators,
    random_asm_program,
    random_machine,
    random_minic_program,
    run_campaign,
)


class TestGenerators:
    def test_asm_generator_deterministic(self):
        a = random_asm_program(random.Random(7))
        b = random_asm_program(random.Random(7))
        assert a == b

    def test_asm_generator_assembles(self):
        for seed in range(5):
            program = assemble(random_asm_program(random.Random(seed)))
            program.validate()

    def test_minic_generator_compiles(self):
        from repro.cc import compile_source

        for seed in range(5):
            compile_source(random_minic_program(random.Random(seed)))

    def test_generators_vary_with_seed(self):
        texts = {random_asm_program(random.Random(s)) for s in range(8)}
        assert len(texts) == 8


class TestCheckProgram:
    def test_folds_and_validates(self):
        program = assemble(random_asm_program(random.Random(3)))
        folded = check_program(program)
        assert folded >= 0

    def test_campaign_clean(self):
        result = run_campaign(n_programs=6, seed=123)
        assert result.ok
        assert result.runs == 6
        assert "OK" in result.summary()

    def test_campaign_reproducible(self):
        a = run_campaign(n_programs=4, seed=9)
        b = run_campaign(n_programs=4, seed=9)
        assert a.folded_sites == b.folded_sites

    def test_flavors(self):
        for flavor in ("asm", "minic"):
            result = run_campaign(n_programs=2, seed=1, flavor=flavor)
            assert result.ok

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            run_campaign(n_programs=1, flavor="cobol")

    def test_cli(self, capsys):
        from repro.harness.cli import main

        assert main(["fuzz", "-n", "3", "--seed", "5"]) == 0
        assert "fuzz:" in capsys.readouterr().out


class TestSimulatorDifferential:
    def test_random_programs_agree_across_paths(self):
        """Property: on random programs the compiled interpreter and the
        dense-window replay are indistinguishable from the reference
        loops (state, trace, profile, SimStats)."""
        for seed in range(6):
            program = assemble(random_asm_program(random.Random(seed)))
            check_simulators(program)

    def test_rewritten_programs_agree_across_paths(self):
        """The same property on programs containing ext instructions."""
        from repro.extinst import apply_selection, selective_select
        from repro.profiling import profile_program

        program = assemble(random_asm_program(random.Random(11)))
        selection = selective_select(profile_program(program), 2)
        rewritten, defs = apply_selection(program, selection)
        check_simulators(rewritten, defs)

    def test_random_machines_cover_pfu_and_latency_models(self):
        """A fixed seed's draws reach both reconfiguration models, both
        ext-latency models and the unlimited-PFU bank."""
        rng = random.Random(2026)
        machines = [random_machine(rng) for _ in range(40)]
        assert {m.reconfig_model for m in machines} == {"fixed", "bitstream"}
        assert {m.ext_latency_model for m in machines} == \
            {"single_cycle", "mapped"}
        assert None in {m.n_pfus for m in machines}
        again = random.Random(2026)
        assert machines == [random_machine(again) for _ in range(40)]

    def test_divergence_raises(self, monkeypatch):
        """A simulator-path divergence must surface as AssertionError
        (which the campaign records as a failure)."""
        import repro.sim.compile as compile_mod

        program = assemble(random_asm_program(random.Random(2)))
        original = compile_mod.run_compiled

        def corrupted(sim, max_steps, collect_trace, entry_label,
                      profile=False):
            result = original(
                sim, max_steps, collect_trace, entry_label, profile
            )
            result.regs[8] ^= 1
            return result

        monkeypatch.setattr(compile_mod, "run_compiled", corrupted)
        with pytest.raises(AssertionError):
            check_simulators(program)


class TestFailureReporting:
    def test_failure_detected_and_reported(self, monkeypatch):
        """Inject a fault into the rewriter and check the campaign
        reports it instead of crashing."""
        import repro.fuzz as fuzz_mod

        def broken_check(program, n_pfus_choices=(2,), rng=None):
            raise AssertionError("injected fault")

        monkeypatch.setattr(fuzz_mod, "check_program", broken_check)
        result = fuzz_mod.run_campaign(n_programs=2, seed=0)
        assert not result.ok
        assert len(result.failures) == 2
        assert "injected fault" in result.failures[0]["error"]
        assert "seed" in result.failures[0]


class TestReplay:
    def test_replay_regenerates_identical_source(self, monkeypatch):
        """A seed printed in a failure report must rebuild the exact
        program: campaign generation and replay share one construction
        path (``build_program``)."""
        import repro.fuzz as fuzz_mod

        seen = []

        def spy_check(program, n_pfus_choices=(1, 2, 4, None), rng=None):
            seen.append(program)
            return 0

        monkeypatch.setattr(fuzz_mod, "check_program", spy_check)
        # Capture the per-program seeds the campaign derives.
        rng = random.Random(11)
        expected_seeds = [rng.randrange(2**31) for _ in range(3)]
        fuzz_mod.run_campaign(n_programs=3, seed=11, flavor="asm")
        for seed, campaign_program in zip(expected_seeds, seen):
            replayed, source = fuzz_mod.build_program(seed, "asm")
            assert source == random_asm_program(random.Random(seed))
            assert [str(i) for i in replayed.text] == \
                [str(i) for i in campaign_program.text]

    def test_replay_reproduces_reported_failure(self, monkeypatch):
        """The CLI contract: ``t1000 fuzz --replay-seed S --flavor F``
        hits the same failure the campaign printed."""
        import repro.fuzz as fuzz_mod

        def broken_check(program, n_pfus_choices=(2,), rng=None):
            raise AssertionError("injected fault")

        monkeypatch.setattr(fuzz_mod, "check_program", broken_check)
        campaign = fuzz_mod.run_campaign(n_programs=1, seed=3,
                                         flavor="asm")
        [failure] = campaign.failures
        replayed = fuzz_mod.replay(failure["seed"], failure["flavor"])
        assert not replayed.ok
        [refailure] = replayed.failures
        assert refailure["seed"] == failure["seed"]
        assert refailure["source"] == failure["source"]
        assert refailure["error"] == failure["error"]

    def test_replay_of_healthy_seed_passes(self):
        from repro.fuzz import replay

        result = replay(12345, "asm")
        assert result.ok
        assert result.runs == 1

    def test_replay_rejects_unknown_flavor(self):
        from repro.fuzz import build_program

        with pytest.raises(ValueError):
            build_program(1, "both")

    def test_cli_failure_report_prints_reproduce_hint(self, monkeypatch,
                                                      capsys):
        import repro.fuzz as fuzz_mod
        from repro.harness.cli import main

        def broken_check(program, n_pfus_choices=(2,), rng=None):
            raise AssertionError("injected fault")

        monkeypatch.setattr(fuzz_mod, "check_program", broken_check)
        assert main(["fuzz", "-n", "1", "--seed", "3",
                     "--flavor", "asm"]) == 1
        out = capsys.readouterr().out
        assert "reproduce with: t1000 fuzz --replay-seed" in out
        seed = int(out.split("--replay-seed ")[1].split()[0])
        monkeypatch.undo()
        assert main(["fuzz", "--replay-seed", str(seed),
                     "--flavor", "asm"]) == 0
