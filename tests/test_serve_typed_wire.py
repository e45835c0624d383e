"""The pickle-free serve wire.

Typed JSON codecs carry every served value; a ``$pickle`` envelope or
a version-1 (pickled) RSB1 bundle is refused as ``bad_request`` without
being opened — directly and through a gateway — and the worker that
would have decoded it survives.  Also: codec round trips over every
workload, a served toolflow byte-identical to in-process ``repro.api``,
canonical serve cache keys, the plain-dict machine fix, and an import
guard keeping ``pickle`` out of the wire modules.
"""

import ast
import dataclasses
import json
import pathlib
import threading
import time

import pytest

from repro import api, wire
from repro.engine.store import program_fingerprint, stats_to_json
from repro.extinst.serialize import extdef_from_json, selection_to_json
from repro.gateway import Gateway, GatewayConfig
from repro.serve import ServeConfig, ToolflowServer, protocol
from repro.serve.client import ServeClient
from repro.serve.ops import OpRunner, _ext_defs_digest
from repro.sim.cache.hierarchy import HierarchyConfig
from repro.workloads import WORKLOAD_NAMES

from conftest import hostile_pickle, hostile_v1_bundle

SRC_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

SOURCE = """
.text
main:
    li $s0, 60
    li $t1, 7
loop:
    sll  $t2, $t1, 2
    addu $t2, $t2, $t1
    andi $t2, $t2, 1023
    xor  $t3, $t2, $t1
    andi $t1, $t3, 255
    addiu $s0, $s0, -1
    bgtz $s0, loop
    halt
"""


def canonical(value) -> str:
    return json.dumps(protocol.encode_value(value), sort_keys=True)


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(workers=1, debug_ops=True)
    with ToolflowServer(config) as srv:
        with ServeClient(srv.address, timeout=60.0) as client:
            client.wait_ready()
        yield srv


@pytest.fixture(scope="module")
def gateway(server):
    host, port = server.address
    with Gateway(GatewayConfig(backends=(f"{host}:{port}",),
                               health_interval=0.2)) as gw:
        with ServeClient(gw.address, timeout=60.0) as client:
            client.wait_ready()
        yield gw


@pytest.fixture(scope="module")
def program():
    return api.compile(source=SOURCE, name="typed_wire")


def worker_pids(server) -> list:
    with ServeClient(server.address, timeout=30.0) as client:
        return client.stats()["workers"]["pids"]


@pytest.fixture(params=["direct", "gateway"])
def endpoint(request, server):
    if request.param == "direct":
        return server.address
    return request.getfixturevalue("gateway").address


class TestHostilePayloads:
    @pytest.mark.parametrize("op, param", [("profile", "program"),
                                           ("simulate", "program"),
                                           ("select", "profile")])
    def test_pickle_param_is_bad_request(self, server, endpoint, tmp_path,
                                         op, param):
        marker = tmp_path / "unpickled"
        pids = worker_pids(server)
        with ServeClient(endpoint, timeout=60.0) as client:
            with pytest.raises(protocol.BadRequestError, match="pickle"):
                client.call(op, {param: {"$pickle": hostile_pickle(marker)}})
        assert not marker.exists()
        assert worker_pids(server) == pids

    def test_v1_bundle_upload_is_refused(self, server, endpoint, tmp_path):
        marker = tmp_path / "unpickled"
        blob = hostile_v1_bundle(marker)
        digest = wire.chunks_digest([blob])
        with ServeClient(endpoint, timeout=60.0) as client:
            with pytest.raises(protocol.BadRequestError, match="version 1"):
                client.call(protocol.PUT_TRACE_OP, {"digest": digest},
                            frame_chunks=[blob])
            with pytest.raises(protocol.NeedTraceError):
                client.call("simulate", {"trace_ref": digest})
        assert not marker.exists()

    def test_v1_bundle_is_refused_before_decoding(self, tmp_path):
        marker = tmp_path / "unpickled"
        with pytest.raises(wire.FrameError, match="version 1"):
            wire.decode_bundle(hostile_v1_bundle(marker))
        assert not marker.exists()


class TestPlainDictMachine:
    """A plain field dict with a nested ``hierarchy`` is decoded through
    ``machine_from_json``; a malformed one fails alone."""

    MACHINE = api.MachineConfig(
        n_pfus=2, hierarchy=HierarchyConfig(mem_latency=40))

    def items(self, program) -> list:
        nested = dataclasses.asdict(self.MACHINE)
        malformed = {"hierarchy": {"il1": nested["hierarchy"]["il1"]}}
        return [protocol.encode_value(api.MachineConfig()) if m is None
                else m for m in (nested, malformed, None)]

    def check(self, program, outcomes) -> None:
        nested, malformed, default = outcomes
        assert nested == canonical(
            api.simulate(program=program, machine=self.MACHINE))
        assert malformed == protocol.BAD_REQUEST
        assert default == canonical(api.simulate(program=program))

    def test_one_batch_in_process(self, program):
        encoded = protocol.encode_value(program)
        reply = OpRunner().run_job({"op": "simulate", "items": [
            {"program": encoded, "machine": machine}
            for machine in self.items(program)
        ]})
        outcomes = [
            canonical(protocol.decode_value(r["value"])) if r["ok"]
            else r["error"]["code"] for r in reply["results"]
        ]
        self.check(program, outcomes)

    def test_served_batch_keeps_the_worker(self, server, program):
        pids = worker_pids(server)
        encoded = protocol.encode_value(program)
        # Occupy the one worker so the three simulates queue into one
        # coalesced batch behind it.
        def occupy():
            with ServeClient(server.address, timeout=60.0) as client:
                client.call("_sleep", {"seconds": 0.4})

        sleeper = threading.Thread(target=occupy)
        sleeper.start()
        time.sleep(0.1)
        outcomes = []
        with ServeClient(server.address, timeout=60.0) as client:
            pending = [client.submit("simulate", {"program": encoded,
                                                  "machine": machine})
                       for machine in self.items(program)]
            for call in pending:
                try:
                    outcomes.append(canonical(call.result()))
                except protocol.ServeError as exc:
                    outcomes.append(exc.code)
        sleeper.join()
        self.check(program, outcomes)
        assert worker_pids(server) == pids


@pytest.fixture(scope="module")
def toolflows():
    """(workload, program, profile, selection, rewritten, ext_defs) for
    every workload."""
    flows = []
    for workload in WORKLOAD_NAMES:
        program = api.compile(workload=workload)
        profile = api.profile(program=program)
        selection = api.select(profile=profile, algorithm="selective",
                               pfus=2)
        rewritten, defs = api.rewrite(program=program, selection=selection,
                                      validate=False)
        flows.append((workload, program, profile, selection, rewritten,
                      defs))
    return flows


def wire_round_trip(value):
    return protocol.decode_value(
        json.loads(json.dumps(protocol.encode_value(value))))


class TestCodecRoundTrips:
    def test_program_codec_over_every_workload(self, toolflows):
        for workload, program, _, _, rewritten, _ in toolflows:
            for original in (program, rewritten):
                decoded = wire_round_trip(original)
                assert decoded.render() == original.render(), workload
                assert decoded.labels == original.labels, workload
                assert decoded.data == original.data, workload
                assert decoded.symbols == original.symbols, workload
                assert program_fingerprint(decoded) == \
                    program_fingerprint(original), workload

    def test_ext_defs_codec_over_every_workload(self, toolflows):
        folded = [(workload, defs) for workload, *_, defs in toolflows
                  if defs]
        assert folded
        for workload, defs in folded:
            assert wire_round_trip(defs) == defs, workload

    def test_profile_round_trip_selects_identically(self, toolflows):
        for workload, _, profile, selection, _, _ in toolflows[:3]:
            decoded = wire_round_trip(profile)
            again = api.select(profile=decoded, algorithm="selective",
                               pfus=2)
            assert selection_to_json(again) == \
                selection_to_json(selection), workload


class TestServedToolflowMatchesApi:
    def test_every_stage_is_byte_identical(self, server):
        workload = "g721_encode"
        program = api.compile(workload=workload)
        profile = api.profile(program=program)
        selection = api.select(profile=profile, algorithm="selective",
                               pfus=2)
        rewritten, defs = api.rewrite(program=program, selection=selection)
        machine = api.MachineConfig(n_pfus=2, reconfig_latency=10)
        stats = api.simulate(program=rewritten, ext_defs=defs,
                             machine=machine)
        with ServeClient(server.address, timeout=120.0) as client:
            served_program = client.compile(workload=workload)
            served_profile = client.profile(program=served_program)
            served_selection = client.select(
                profile=served_profile, algorithm="selective", pfus=2)
            served = client.rewrite(program=served_program,
                                    selection=served_selection)
            served_stats = client.simulate(
                program=served[0], ext_defs=served[1], machine=machine)
        assert canonical(served_program) == canonical(program)
        assert canonical(served_profile) == canonical(profile)
        assert canonical(served_selection) == canonical(selection)
        assert canonical(served) == canonical((rewritten, defs))
        assert json.dumps(stats_to_json(served_stats)) == \
            json.dumps(stats_to_json(stats))


class TestCanonicalCacheKeys:
    DEFS = {
        3: {"n_inputs": 2, "name": "mac", "latency": 1,
            "nodes": [["sll", ["in", 0], ["imm", 4]],
                      ["addu", ["node", 0], ["in", 1]]]},
        1: {"n_inputs": 1, "name": "mask", "latency": 1,
            "nodes": [["andi", ["in", 0], ["imm", 255]]]},
    }

    def build(self, order) -> dict:
        return {conf: extdef_from_json(json.loads(json.dumps(
            self.DEFS[conf]))) for conf in order}

    def test_equal_tables_digest_equally(self):
        first, second = self.build([3, 1]), self.build([1, 3])
        assert first == second and first is not second
        assert _ext_defs_digest(first) == _ext_defs_digest(second)

    def test_digest_is_pinned(self):
        assert _ext_defs_digest(self.build([1, 3])) == "5746d13bce66eaac"
        assert _ext_defs_digest({}) == _ext_defs_digest(None) == "none"


class TestNoPickleOnTheWire:
    def test_wire_modules_never_import_pickle(self):
        paths = [SRC_ROOT / "wire.py"]
        for package in ("serve", "gateway"):
            paths += sorted((SRC_ROOT / package).rglob("*.py"))
        offenders = []
        for path in paths:
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                offenders += [
                    f"{path.relative_to(SRC_ROOT)}:{node.lineno}: {name}"
                    for name in names
                    if name.split(".")[0] in ("pickle", "cPickle", "dill")
                ]
        assert len(paths) > 10
        assert not offenders, "\n".join(offenders)
