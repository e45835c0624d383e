"""Selection serialisation — the paper's "second input file".

§3.1: "The simulator takes as input SimpleScalar PISA object code files.
A second input file specifies the instruction sequences that have been
selected as extended instructions." This module provides that file
format: a JSON document carrying the configuration table and rewrite
sites, so selection (a compile-time analysis) and simulation can run as
separate processes — ``t1000 select`` writes one, ``t1000 run
--selection`` consumes it.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ExtInstError
from repro.extinst.extdef import ExtInstDef, ExtOp, OperandRef
from repro.extinst.selection import RewriteSite, Selection
from repro.isa.opcodes import opcode_by_name

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# ExtInstDef


def _ref_to_json(ref: OperandRef) -> list:
    return list(ref)


def _ref_from_json(data: Any) -> OperandRef:
    if (
        not isinstance(data, list)
        or not data
        or data[0] not in ("in", "node", "imm", "zero")
    ):
        raise ExtInstError(f"bad operand reference in selection file: {data!r}")
    if data[0] == "zero":
        return ("zero",)
    if len(data) != 2 or not isinstance(data[1], int):
        raise ExtInstError(f"bad operand reference in selection file: {data!r}")
    return (data[0], data[1])


def extdef_to_json(extdef: ExtInstDef) -> dict:
    return {
        "n_inputs": extdef.n_inputs,
        "name": extdef.name,
        "latency": extdef.latency,
        "nodes": [
            [node.op.value, _ref_to_json(node.a), _ref_to_json(node.b)]
            for node in extdef.nodes
        ],
    }


def extdef_from_json(data: dict) -> ExtInstDef:
    nodes = []
    for entry in data["nodes"]:
        op = opcode_by_name(entry[0])
        if op is None:
            raise ExtInstError(f"unknown opcode in selection file: {entry[0]!r}")
        nodes.append(ExtOp(op, _ref_from_json(entry[1]), _ref_from_json(entry[2])))
    return ExtInstDef(
        nodes=tuple(nodes),
        n_inputs=int(data["n_inputs"]),
        name=str(data.get("name", "")),
        latency=int(data.get("latency", 1)),
    )


def ext_defs_to_json(ext_defs: dict[int, ExtInstDef]) -> list:
    """A configuration table as sorted ``[conf, extdef]`` pairs (the
    canonical form: equal tables encode to equal JSON)."""
    return [[conf, extdef_to_json(ext_defs[conf])]
            for conf in sorted(ext_defs)]


def ext_defs_from_json(data: list) -> dict[int, ExtInstDef]:
    """Inverse of :func:`ext_defs_to_json`."""
    return {int(conf): extdef_from_json(entry) for conf, entry in data}


# ----------------------------------------------------------------------
# Selection


def selection_to_json(selection: Selection) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "algorithm": selection.algorithm,
        "meta": selection.meta,
        "ext_defs": {
            str(conf): extdef_to_json(extdef)
            for conf, extdef in selection.ext_defs.items()
        },
        "sites": [
            {
                "bid": site.bid,
                "nodes": list(site.nodes),
                "conf": site.conf,
                "input_regs": list(site.input_regs),
                "output_reg": site.output_reg,
            }
            for site in selection.sites
        ],
    }


def selection_from_json(data: dict) -> Selection:
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ExtInstError(f"unsupported selection file version {version!r}")
    ext_defs = {
        int(conf): extdef_from_json(entry)
        for conf, entry in data["ext_defs"].items()
    }
    sites = [
        RewriteSite(
            bid=int(s["bid"]),
            nodes=tuple(int(n) for n in s["nodes"]),
            conf=int(s["conf"]),
            input_regs=tuple(int(r) for r in s["input_regs"]),
            output_reg=int(s["output_reg"]),
        )
        for s in data["sites"]
    ]
    for site in sites:
        if site.conf not in ext_defs:
            raise ExtInstError(
                f"selection file site at block {site.bid} references "
                f"undefined configuration {site.conf}"
            )
    return Selection(
        ext_defs=ext_defs,
        sites=sites,
        algorithm=str(data.get("algorithm", "loaded")),
        meta=dict(data.get("meta", {})),
    )


def selection_dumps(selection: Selection) -> str:
    """The selection file contents as a string (canonical formatting)."""
    return json.dumps(selection_to_json(selection), indent=2, sort_keys=True) + "\n"


def selection_loads(text: str) -> Selection:
    """Parse a selection file from a string.

    Raises :class:`~repro.errors.ExtInstError` for malformed documents —
    including syntactically valid JSON that is not a selection object.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExtInstError(f"selection file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ExtInstError(
            f"selection file must be a JSON object, got {type(data).__name__}"
        )
    return selection_from_json(data)


def save_selection(selection: Selection, path: str) -> None:
    """Write a selection file (the §3.1 "second input file")."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(selection_dumps(selection))


def load_selection(path: str) -> Selection:
    """Read a selection file written by :func:`save_selection`."""
    with open(path, encoding="utf-8") as fh:
        return selection_loads(fh.read())
