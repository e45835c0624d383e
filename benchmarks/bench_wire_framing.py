"""Wire cost of a config sweep: digest-addressed frames vs by-value.

The zero-copy framing's acceptance benchmark: one client sweeps a
machine-configuration grid over one rewritten program twice against
the same server — once through a digest-addressed :class:`TraceRef`
(the program bundle crosses the wire exactly once, every sweep point is
a ~100-byte by-reference request), and once by value, where every
request re-ships the typed ``$program`` and ``$ext_defs`` envelopes.

Asserted shape: the two runs are byte-identical, and the framed sweep
sends at least 3x fewer bytes per simulate request; the measured
throughput numbers are recorded, not asserted.
"""

import json
import statistics
import time

from conftest import write_result

from repro import api
from repro.engine.store import stats_to_json
from repro.serve import ServeConfig, ToolflowServer
from repro.serve.client import ServeClient

_SOURCE = (
    ".text\nmain: li $s0, 8000\n    li $t1, 3\nloop:\n"
    "    sll $t2, $t1, 4\n    addu $t2, $t2, $t1\n    andi $t2, $t2, 1023\n"
    "    xor $t3, $t2, $t1\n    andi $t1, $t3, 255\n    addiu $t1, $t1, 1\n"
    "    addiu $s0, $s0, -1\n    bgtz $s0, loop\n    halt\n"
)

_POINTS = 16
_GRID = [api.MachineConfig(ruu_size=16 + 8 * i) for i in range(_POINTS)]
_TRIALS = 3


def _canonical(stats) -> str:
    return json.dumps(stats_to_json(stats), sort_keys=True)


def _sweep(client, **payload) -> tuple:
    """One pipelined sweep; returns (answers, sweep_bytes, seconds)."""
    sent_before = client.bytes_sent
    started = time.perf_counter()
    pending = [
        client.simulate_submit(machine=machine, **payload)
        for machine in _GRID
    ]
    answers = [_canonical(call.result()) for call in pending]
    elapsed = time.perf_counter() - started
    return answers, client.bytes_sent - sent_before, elapsed


def test_wire_framing_bytes_per_request():
    program = api.compile(source=_SOURCE, name="wire_bench")
    selection = api.select(profile=api.profile(program=program),
                           algorithm="selective", pfus=2)
    rewritten, defs = api.rewrite(program=program, selection=selection)
    by_value = dict(program=rewritten, ext_defs=defs)
    config = ServeConfig(workers=2, max_queue=256)
    with ToolflowServer(config) as server:
        with ServeClient(server.address, timeout=120.0) as client:
            client.wait_ready()
            ref = client.trace_ref(**by_value)
            # Warmup pays the one need_trace round trip and the trace
            # memo; the measured sweeps are steady-state.
            client.simulate(program=ref, machine=_GRID[0])
            framed_times = []
            for _ in range(_TRIALS):
                framed, framed_bytes, seconds = _sweep(client, program=ref)
                framed_times.append(seconds)
            assert client.need_trace_retries <= 1, \
                "trace cache dropped the bundle mid-sweep"

            client.simulate(machine=_GRID[0], **by_value)
            value_times = []
            for _ in range(_TRIALS):
                valued, value_bytes, seconds = _sweep(client, **by_value)
                value_times.append(seconds)

    # Framing must be invisible: byte-identical answers per point.
    assert framed == valued, "framed responses diverged from by-value"

    framed_per_request = framed_bytes / _POINTS
    value_per_request = value_bytes / _POINTS
    reduction = value_per_request / framed_per_request
    framed_s = statistics.median(framed_times)
    value_s = statistics.median(value_times)
    lines = [
        f"Wire framing bytes per simulate request "
        f"({_POINTS}-config sweep, median of {_TRIALS})",
        f"  framed:    {framed_per_request:.0f} B/request, "
        f"{framed_s:.3f}s ({_POINTS / framed_s:.1f} req/s)",
        f"  by value:  {value_per_request:.0f} B/request, "
        f"{value_s:.3f}s ({_POINTS / value_s:.1f} req/s)",
        f"  bytes reduction: {reduction:.1f}x",
    ]
    write_result("wire_framing.txt", "\n".join(lines))
    assert reduction >= 3.0, (
        f"framed sweep sent only {reduction:.1f}x fewer bytes per "
        f"request than the by-value path (expected >= 3x)"
    )
