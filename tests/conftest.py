"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import base64
import pickle
import struct

import pytest

from repro.asm import assemble
from repro.sim.functional import ExecutionResult, FunctionalSimulator


def run_asm(source: str, **kwargs) -> ExecutionResult:
    """Assemble and execute assembly source, returning the result."""
    program = assemble(source)
    return FunctionalSimulator(program).run(**kwargs)


def loop_program(body_lines: list[str], iterations: int = 100) -> str:
    """Wrap body lines in a counted loop with a halt."""
    body = "\n".join(f"    {line}" for line in body_lines)
    return (
        f".text\nmain:\n    li $s0, {iterations}\nloop:\n{body}\n"
        "    addiu $s0, $s0, -1\n    bgtz $s0, loop\n    halt\n"
    )


class _CreatesFile:
    """Unpickling this object opens ``path`` for writing (creating it):
    a harmless stand-in for code a hostile pickle would run."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def hostile_pickle(marker) -> str:
    """A base64 ``$pickle`` payload whose unpickling creates ``marker``."""
    return base64.b64encode(pickle.dumps(_CreatesFile(marker))).decode()


def hostile_v1_bundle(marker) -> bytes:
    """A version-1 RSB1 simulate bundle with pickled sections; decoding
    its program section would create ``marker``."""
    program = pickle.dumps(_CreatesFile(marker))
    defs = pickle.dumps(None)
    header = struct.pack("<4sHBxQII", b"RSB1", 1, 0, 50_000_000,
                         len(program), len(defs))
    return header + program + defs


@pytest.fixture(scope="session")
def gsm_encode_lab():
    from repro.harness.runner import WorkloadLab

    return WorkloadLab("gsm_encode", scale=1)


@pytest.fixture(scope="session")
def epic_lab():
    from repro.harness.runner import WorkloadLab

    return WorkloadLab("epic", scale=1)
