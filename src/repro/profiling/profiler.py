"""Execution profiles used by the selection algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import opcode_info
from repro.program.cfg import ControlFlowGraph, build_cfg
from repro.program.loops import Loop, find_natural_loops
from repro.program.program import Program, program_from_json, program_to_json
from repro.sim.functional import FunctionalSimulator


@dataclass
class ProgramProfile:
    """Per-static-instruction execution statistics plus loop structure.

    ``base_cycles_estimate`` is the §5.1 "total application time" proxy:
    each executed instruction weighted by its base-machine execution
    latency. Gain ratios of candidate sequences are computed against it.
    """

    program: Program
    exec_counts: list[int]
    max_operand_width: list[int]
    max_result_width: list[int]
    cfg: ControlFlowGraph
    loops: list[Loop]
    base_cycles_estimate: int
    dynamic_instructions: int
    final_regs: list[int] = field(default_factory=list)

    def block_count(self, bid: int) -> int:
        """Execution count of a basic block (count of its first instruction)."""
        blk = self.cfg.blocks[bid]
        if blk.start >= len(self.exec_counts):
            return 0
        return self.exec_counts[blk.start]

    def innermost_loop_of(self, index: int) -> Loop | None:
        """Deepest loop containing instruction ``index`` (None if not looped)."""
        bid = self.cfg.block_of[index]
        best: Loop | None = None
        for loop in self.loops:
            if bid in loop.body and (best is None or loop.depth > best.depth):
                best = loop
        return best

    def outermost_loop_of(self, index: int) -> Loop | None:
        """Shallowest loop containing instruction ``index``.

        The selective algorithm budgets PFUs per *top-level* loop: since a
        nested loop's extended instructions are a subset of its enclosing
        loop's, capping the outermost loop caps every loop in the nest.
        """
        bid = self.cfg.block_of[index]
        best: Loop | None = None
        for loop in self.loops:
            if bid in loop.body and (best is None or loop.depth < best.depth):
                best = loop
        return best

    def hottest_loops(self, top: int = 5) -> list[tuple[Loop, int]]:
        """Loops ranked by executed instructions inside them."""
        ranked = []
        for loop in self.loops:
            weight = sum(
                self.exec_counts[i] for i in loop.instr_indices(self.cfg)
            )
            ranked.append((loop, weight))
        ranked.sort(key=lambda pair: -pair[1])
        return ranked[:top]


def profile_program(program: Program, max_steps: int = 50_000_000) -> ProgramProfile:
    """Run the program once with profiling and build a :class:`ProgramProfile`."""
    result = FunctionalSimulator(program).run(max_steps=max_steps, profile=True)
    assert result.exec_counts is not None and result.bitwidths is not None
    base_cycles = sum(
        count * opcode_info(instr.op).latency
        for count, instr in zip(result.exec_counts, program.text)
    )
    cfg = build_cfg(program)
    return ProgramProfile(
        program=program,
        exec_counts=result.exec_counts,
        max_operand_width=result.bitwidths.max_operand_width,
        max_result_width=result.bitwidths.max_result_width,
        cfg=cfg,
        loops=find_natural_loops(cfg),
        base_cycles_estimate=base_cycles,
        dynamic_instructions=result.steps,
        final_regs=list(result.regs),
    )


#: The per-static-instruction columns of a :class:`ProgramProfile`.
_COLUMNS = ("exec_counts", "max_operand_width", "max_result_width")


def profile_to_json(profile: ProgramProfile) -> dict:
    """A profile as JSON: its program, the per-instruction columns and
    the scalar fields (the CFG and loops are rebuilt from the program)."""
    doc = {name: list(getattr(profile, name)) for name in _COLUMNS}
    doc.update(program=program_to_json(profile.program),
               base_cycles_estimate=profile.base_cycles_estimate,
               dynamic_instructions=profile.dynamic_instructions,
               final_regs=list(profile.final_regs))
    return doc


def profile_from_json(doc: dict) -> ProgramProfile:
    """Inverse of :func:`profile_to_json`."""
    program = program_from_json(doc["program"])
    columns = {name: [int(v) for v in doc[name]] for name in _COLUMNS}
    if any(len(column) != len(program.text) for column in columns.values()):
        raise ValueError("profile columns do not match the program length")
    cfg = build_cfg(program)
    return ProgramProfile(
        program=program, cfg=cfg, loops=find_natural_loops(cfg),
        base_cycles_estimate=int(doc["base_cycles_estimate"]),
        dynamic_instructions=int(doc["dynamic_instructions"]),
        final_regs=[int(v) for v in doc["final_regs"]], **columns,
    )
