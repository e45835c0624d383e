"""Digest-addressed simulate payloads end to end (serve path).

One in-process server; clients exercise the ``$trace_ref`` handshake:
cold-cache ``need_trace`` recovery, explicit ``put_trace`` warmup, the
ship-once guarantee across a config sweep (measured in actual socket
bytes), trace-carrying bundles, and byte identity of every by-ref
response against the by-value path.
"""

import json

import pytest

from repro import api
from repro.engine.store import stats_to_json
from repro.serve import ServeConfig, ToolflowServer, protocol
from repro.serve.client import ServeClient
from repro.serve.loadtest import _SMOKE_SOURCES, run_sweep
from repro.sim.functional import FunctionalSimulator


def canonical(stats) -> str:
    return json.dumps(stats_to_json(stats), sort_keys=True)


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(workers=1, max_queue=128)
    with ToolflowServer(config) as srv:
        with ServeClient(srv.address, timeout=60.0) as client:
            client.wait_ready()
        yield srv


@pytest.fixture(scope="module")
def program():
    return api.compile(source=_SMOKE_SOURCES["smoke_mac"],
                       name="traceref_mac")


@pytest.fixture(scope="module")
def machines():
    return [api.MachineConfig(ruu_size=r) for r in (16, 32, 48, 64)]


@pytest.fixture(scope="module")
def expected(program, machines):
    return [canonical(api.simulate(program=program, machine=machine))
            for machine in machines]


class TestByRefSimulate:
    def test_cold_cache_recovers_via_one_upload(self, server, program,
                                                machines, expected):
        with ServeClient(server.address, timeout=60.0) as client:
            ref = client.trace_ref(program=program)
            stats = client.simulate(program=ref, machine=machines[0])
            assert canonical(stats) == expected[0]
            assert client.need_trace_retries == 1
            assert client.trace_uploads == 1
            # Bundle is cached now: the next point needs no upload.
            stats = client.simulate(program=ref, machine=machines[1])
            assert canonical(stats) == expected[1]
            assert client.trace_uploads == 1

    def test_explicit_put_trace_warmup_avoids_the_miss(
        self, server, program, machines, expected
    ):
        with ServeClient(server.address, timeout=60.0) as client:
            ref = client.trace_ref(program=program)
            client.put_trace(ref)
            stats = client.simulate(program=ref, machine=machines[2])
            assert canonical(stats) == expected[2]
            assert client.need_trace_retries == 0

    def test_sweep_ships_bundle_once(self, server, program, machines,
                                     expected):
        # The typed program section of this 12-instruction program is
        # smaller than four by-ref request lines, so the bundle carries
        # its trace to stay kilobytes large.
        trace = FunctionalSimulator(program).run(collect_trace=True).trace
        with ServeClient(server.address, timeout=60.0) as client:
            ref = client.trace_ref(program=program, trace=trace)
            client.put_trace(ref)
            sent_before = client.bytes_sent
            pending = [client.simulate_submit(program=ref, machine=machine)
                       for machine in machines]
            answers = [canonical(call.result()) for call in pending]
            assert answers == expected
            assert client.need_trace_retries == 0
            sweep_bytes = client.bytes_sent - sent_before
            # By-reference points are ~100-byte requests; the bundle
            # (kilobytes) must not have been re-shipped per point.
            assert sweep_bytes < ref.nbytes
            assert sweep_bytes / len(machines) < 512

    def test_unknown_digest_without_ref_is_need_trace(self, server):
        with ServeClient(server.address, timeout=60.0) as client:
            with pytest.raises(protocol.NeedTraceError) as info:
                client.call("simulate", {"trace_ref": "0" * 16})
            assert info.value.digest == "0" * 16

    def test_trace_ref_rejects_conflicting_inline_params(self, server,
                                                         program):
        with ServeClient(server.address, timeout=60.0) as client:
            ref = client.trace_ref(program=program)
            with pytest.raises(protocol.BadRequestError):
                client.simulate(program=ref, ext_defs=[])

    def test_server_stats_expose_cache_hits(self, server):
        with ServeClient(server.address, timeout=60.0) as client:
            cache = client.stats()["trace_cache"]
        assert cache["hits"] > 0
        assert cache["entries"] >= 1


class TestTraceShippedBundles:
    def test_client_computed_trace_is_byte_identical(
        self, server, program, machines, expected
    ):
        result = FunctionalSimulator(program).run(collect_trace=True)
        with ServeClient(server.address, timeout=60.0) as client:
            ref = client.trace_ref(program=program, trace=result.trace)
            stats = client.simulate(program=ref, machine=machines[0])
            assert canonical(stats) == expected[0]


class TestEscapeHatch:
    def test_inline_ref_degrades_transparently(self, server, program,
                                               machines, expected):
        """By-value simulates (typed ``$program`` params on every
        request, no framing anywhere on the wire) answer exactly what
        the by-ref path answers."""
        with ServeClient(server.address, timeout=60.0) as client:
            answers = [
                canonical(client.simulate(program=program, machine=machine))
                for machine in machines
            ]
            assert answers == expected
            assert client.trace_uploads == 0


class TestSweepReport:
    def test_run_sweep_passes_against_a_live_server(self, server):
        report = run_sweep(server.address, points=4, timeout=60.0)
        assert report.passed, report.summary()
        assert report.ok == 4
        assert report.sweep_retries == 0
        assert report.warmup_retries <= 1
        assert report.cache_hits > 0
        assert "OK" in report.summary()
