"""Concurrent load driver for the toolflow service.

The library behind ``t1000 client smoke`` and the CI serve-smoke job:
drives a mixed batch of requests (compile / profile / select / rewrite /
simulate / sweeps / health) from many client threads, absorbs
``overloaded`` backpressure with retries, and checks the service's two
core guarantees:

- **no dropped responses** — every issued request is answered, either
  with a result or an explicit error;
- **batching is invisible** — every ``simulate`` answer is byte-identical
  (via the canonical :func:`~repro.engine.store.stats_to_json` encoding)
  to the same request executed serially through :mod:`repro.api`.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from typing import Any

from repro import api
from repro.extinst.registry import GREEDY
from repro.engine.store import stats_to_json
from repro.serve import protocol
from repro.serve.client import ServeClient

#: Tiny self-contained kernels so the smoke is fast but exercises real
#: compile -> ... -> simulate chains.
_SMOKE_SOURCES = {
    "smoke_mac": """
.text
main:
    li $s0, 400
    li $t1, 3
loop:
    sll  $t2, $t1, 4
    addu $t2, $t2, $t1
    andi $t2, $t2, 1023
    xor  $t3, $t2, $t1
    andi $t1, $t3, 255
    addiu $t1, $t1, 1
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $v0, $t2
    halt
""",
    "smoke_shift": """
.text
main:
    li $s0, 300
    li $t4, 9
loop:
    srl  $t5, $t4, 1
    or   $t5, $t5, $t4
    andi $t5, $t5, 511
    addu $t4, $t5, $t4
    andi $t4, $t4, 127
    addiu $s0, $s0, -1
    bgtz $s0, loop
    move $v0, $t4
    halt
""",
}


def _canonical(stats) -> str:
    return json.dumps(stats_to_json(stats), sort_keys=True)


@dataclasses.dataclass
class SmokeReport:
    """Outcome of one load run."""

    issued: int = 0
    answered: int = 0
    ok: int = 0
    server_errors: int = 0
    overloaded: int = 0
    mismatches: list[str] = dataclasses.field(default_factory=list)
    dropped: int = 0
    #: Wire traffic, summed over every client thread's socket counters.
    bytes_sent: int = 0
    bytes_received: int = 0
    need_trace_retries: int = 0

    @property
    def passed(self) -> bool:
        return self.dropped == 0 and not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.passed else "FAILED"
        per_request = (
            f", wire {self.bytes_sent}B out / {self.bytes_received}B in"
            f" ({self.bytes_sent // max(1, self.issued)}B sent/request)"
        )
        return (
            f"serve smoke: {self.issued} request(s) issued, "
            f"{self.answered} answered ({self.ok} ok, "
            f"{self.server_errors} explicit error(s), "
            f"{self.overloaded} overloaded), "
            f"{self.dropped} dropped, {len(self.mismatches)} "
            f"mismatch(es){per_request} — {status}"
        )


def run_smoke(
    address: "str | tuple[str, int]",
    clients: int = 8,
    requests: int = 50,
    timeout: float = 60.0,
) -> SmokeReport:
    """Drive ``requests`` mixed requests from ``clients`` threads.

    The request mix cycles through the five toolflow ops plus machine
    sweeps and health probes; ``simulate`` responses are verified
    byte-for-byte against a serial in-process :mod:`repro.api` run of
    the same inputs.
    """
    # Local ground truth, computed once (programs are tiny).
    programs = {
        name: api.compile(source=source, name=name)
        for name, source in _SMOKE_SOURCES.items()
    }
    machines = [
        api.MachineConfig(),
        api.MachineConfig(n_pfus=1, reconfig_latency=40),
        api.MachineConfig(n_pfus=4, reconfig_latency=0),
    ]
    expected = {
        (name, i): _canonical(api.simulate(program=program, machine=machine))
        for name, program in programs.items()
        for i, machine in enumerate(machines)
    }

    report = SmokeReport(issued=requests)
    lock = threading.Lock()
    tickets = iter(range(requests))

    def next_ticket() -> int | None:
        with lock:
            return next(tickets, None)

    def record(field: str, amount: int = 1) -> None:
        with lock:
            setattr(report, field, getattr(report, field) + amount)

    def one_request(client: ServeClient, ticket: int) -> None:
        names = sorted(programs)
        name = names[ticket % len(names)]
        program = programs[name]
        kind = ticket % 5
        if kind == 0:       # full front half of the toolflow
            compiled = client.call_with_backoff("compile", {
                "source": _SMOKE_SOURCES[name], "name": name,
            })
            profile = client.profile(program=compiled)
            client.select(profile=profile, algorithm=GREEDY)
        elif kind == 4:     # health probe mixed into the load
            client.health()
        elif kind == 3:     # client-side sweep (one request, n configs)
            sweep = client.simulate(program=program, machine=list(machines))
            for i, stats in enumerate(sweep):
                if _canonical(stats) != expected[(name, i)]:
                    with lock:
                        report.mismatches.append(
                            f"sweep {name} config {i} diverged"
                        )
        else:               # single simulate (the micro-batched path)
            index = ticket % len(machines)
            stats = client.simulate(program=program,
                                    machine=machines[index])
            if _canonical(stats) != expected[(name, index)]:
                with lock:
                    report.mismatches.append(
                        f"simulate {name} config {index} diverged"
                    )

    def drive() -> None:
        with ServeClient(address, timeout=timeout) as client:
            try:
                _drive_tickets(client)
            finally:
                with lock:
                    report.bytes_sent += client.bytes_sent
                    report.bytes_received += client.bytes_received
                    report.need_trace_retries += client.need_trace_retries

    def _drive_tickets(client: ServeClient) -> None:
        while True:
            ticket = next_ticket()
            if ticket is None:
                return
            try:
                one_request(client, ticket)
            except protocol.OverloadedError:
                # An explicit 429-style answer IS an answer: the
                # no-drops guarantee is about silence, not success.
                record("overloaded")
                record("answered")
                record("server_errors")
            except protocol.ServeError as exc:
                if isinstance(exc, protocol.ServerClosedError):
                    record("dropped")
                    with lock:
                        report.mismatches.append(
                            f"ticket {ticket}: no response ({exc})"
                        )
                else:
                    record("answered")
                    record("server_errors")
            else:
                record("answered")
                record("ok")

    threads = [
        threading.Thread(target=drive, name=f"smoke-{i}", daemon=True)
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    report.dropped += report.issued - report.answered - report.dropped
    return report


# ----------------------------------------------------------------------
# throughput (multi-node curves)


@dataclasses.dataclass
class ThroughputPoint:
    """One measured (clients, requests) -> requests/second point."""

    clients: int
    requests: int
    seconds: float
    ok: int
    errors: int
    bytes_sent: int = 0
    bytes_received: int = 0

    @property
    def rps(self) -> float:
        return self.requests / self.seconds if self.seconds else 0.0

    def summary(self) -> str:
        return (
            f"{self.clients} client(s): {self.requests} request(s) in "
            f"{self.seconds:.2f}s = {self.rps:.1f} req/s "
            f"({self.ok} ok, {self.errors} error(s), "
            f"{self.bytes_sent // max(1, self.requests)}B sent/request, "
            f"{self.bytes_received // max(1, self.requests)}B recv/request)"
        )


def run_throughput(
    address: "str | tuple[str, int]",
    clients: int = 4,
    requests: int = 64,
    distinct_programs: int = 8,
    timeout: float = 60.0,
    admission_class: str | None = None,
) -> ThroughputPoint:
    """Measure simulate throughput against one endpoint.

    Each client thread pipelines its share of the requests on one
    connection (the sweep driver's pattern).  Requests cycle over
    ``distinct_programs`` distinct payloads, so against a gateway the
    consistent-hash ring spreads them across the fleet — running this
    with 1 and N backends gives the multi-node scaling curve.
    """
    source = _SMOKE_SOURCES["smoke_mac"]
    programs = [
        api.compile(source=source, name=f"throughput_{i}")
        for i in range(distinct_programs)
    ]
    counts = {"ok": 0, "errors": 0, "bytes_sent": 0, "bytes_received": 0}
    lock = threading.Lock()
    shares = [
        range(worker, requests, clients) for worker in range(clients)
    ]

    def drive(share) -> None:
        ok = errors = sent = received = 0
        try:
            with ServeClient(address, timeout=timeout,
                             admission_class=admission_class) as client:
                try:
                    pending = [
                        client.simulate_submit(
                            program=programs[ticket % len(programs)]
                        )
                        for ticket in share
                    ]
                    for call in pending:
                        try:
                            call.result()
                            ok += 1
                        except protocol.ServeError:
                            errors += 1
                finally:
                    sent = client.bytes_sent
                    received = client.bytes_received
        except protocol.ServeError:
            errors += len(share) - ok - errors
        with lock:
            counts["ok"] += ok
            counts["errors"] += errors
            counts["bytes_sent"] += sent
            counts["bytes_received"] += received

    threads = [
        threading.Thread(target=drive, args=(share,),
                         name=f"throughput-{i}", daemon=True)
        for i, share in enumerate(shares)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return ThroughputPoint(
        clients=clients, requests=requests, seconds=elapsed,
        ok=counts["ok"], errors=counts["errors"],
        bytes_sent=counts["bytes_sent"],
        bytes_received=counts["bytes_received"],
    )


# ----------------------------------------------------------------------
# trace-ref sweep (the zero-copy framing's acceptance check)


@dataclasses.dataclass
class SweepReport:
    """Outcome of one digest-addressed config sweep."""

    points: int
    ok: int = 0
    mismatches: list[str] = dataclasses.field(default_factory=list)
    bytes_sent: int = 0
    bytes_received: int = 0
    #: ``need_trace`` recoveries during warmup (at most one expected —
    #: the first by-ref simulate against a cold cache).
    warmup_retries: int = 0
    #: ``need_trace`` recoveries *after* warmup; any nonzero value means
    #: the cache dropped the bundle mid-sweep and the pass fails.
    sweep_retries: int = 0
    trace_uploads: int = 0
    #: Server-side ``serve.trace_cache`` stats, when the endpoint
    #: exposes them (a direct backend does; a gateway's ``stats`` is
    #: fleet-level, so the fields stay ``None`` there and the hit-rate
    #: assertion is skipped).
    cache_hits: "int | None" = None
    cache_misses: "int | None" = None

    @property
    def passed(self) -> bool:
        if self.ok != self.points or self.mismatches:
            return False
        if self.sweep_retries != 0:
            return False
        if self.cache_hits is not None:
            return self.cache_hits > 0
        return True

    def summary(self) -> str:
        status = "OK" if self.passed else "FAILED"
        cache = (
            f"cache hits {self.cache_hits} / misses {self.cache_misses}"
            if self.cache_hits is not None else "cache stats n/a"
        )
        return (
            f"trace-ref sweep: {self.ok}/{self.points} point(s) "
            f"byte-identical, {len(self.mismatches)} mismatch(es), "
            f"{self.warmup_retries} warmup / {self.sweep_retries} sweep "
            f"need_trace retr(ies), {self.trace_uploads} upload(s), "
            f"{cache}, wire {self.bytes_sent}B out "
            f"({self.bytes_sent // max(1, self.points)}B sent/point) "
            f"— {status}"
        )


def run_sweep(
    address: "str | tuple[str, int]",
    points: int = 16,
    timeout: float = 120.0,
    admission_class: str | None = None,
) -> SweepReport:
    """Pipeline a ``points``-config sweep through one digest-addressed
    :class:`~repro.serve.client.TraceRef` and verify the framing's
    promises: every answer byte-identical to a serial in-process run,
    the bundle shipped at most once (zero ``need_trace`` retries after
    warmup), and the server's trace cache actually hit.
    """
    program = api.compile(source=_SMOKE_SOURCES["smoke_mac"],
                          name="sweep_mac")
    machines = [
        api.MachineConfig(ruu_size=16 + 8 * i) for i in range(points)
    ]
    expected = [
        _canonical(api.simulate(program=program, machine=machine))
        for machine in machines
    ]

    report = SweepReport(points=points)
    with ServeClient(address, timeout=timeout,
                     admission_class=admission_class) as client:
        ref = client.trace_ref(program=program)
        # Warmup: the first by-ref simulate pays the one need_trace
        # round trip (miss -> upload -> retry) against a cold cache.
        warm = client.simulate(program=ref, machine=machines[0])
        if _canonical(warm) != expected[0]:
            report.mismatches.append("warmup point diverged")
        report.warmup_retries = client.need_trace_retries

        pending = [
            client.simulate_submit(program=ref, machine=machine)
            for machine in machines
        ]
        for i, call in enumerate(pending):
            try:
                stats = call.result()
            except protocol.ServeError as exc:
                report.mismatches.append(f"point {i}: {exc}")
                continue
            if _canonical(stats) != expected[i]:
                report.mismatches.append(
                    f"point {i} (ruu_size={machines[i].ruu_size}) diverged"
                )
            else:
                report.ok += 1

        report.sweep_retries = (
            client.need_trace_retries - report.warmup_retries
        )
        report.trace_uploads = client.trace_uploads
        report.bytes_sent = client.bytes_sent
        report.bytes_received = client.bytes_received
        try:
            cache = client.stats().get("trace_cache")
        except protocol.ServeError:
            cache = None
        if isinstance(cache, dict):
            report.cache_hits = cache.get("hits")
            report.cache_misses = cache.get("misses")
    return report
