"""Wire protocol for the toolflow service.

Two framings share one value codec:

- **client <-> server**: line-delimited JSON (one request or response
  object per ``\\n``-terminated line, UTF-8).  Requests look like::

      {"id": 7, "op": "simulate", "params": {...}, "timeout_ms": 30000}

  and responses either ``{"id": 7, "ok": true, "result": ...}`` or
  ``{"id": 7, "ok": false, "error": {"code": "...", "message": "..."}}``.
  The ``id`` is chosen by the client and echoed verbatim, so a client
  may pipeline requests and correlate out-of-order responses.

- **server <-> worker**: length-prefixed frames over the worker
  subprocess's stdin/stdout pipes (``!I`` byte count, the kind byte
  ``J``, then compact JSON with binary chunks hoisted out-of-band, so
  by-ref simulate jobs carry their trace bundle as raw bytes).

A request line may also declare binary **attachments**: a top-level
``"frames": [nbytes, ...]`` list means that many raw binary frames
follow the newline, back to back.  Frame bytes are never JSON-escaped
or base64'd — the ``put_trace`` op uses this to upload a
:mod:`repro.wire` simulate bundle, and the digest-addressed
``$trace_ref`` form of ``simulate`` then refers to it by content
digest (a cache miss answers the typed :data:`NEED_TRACE` error and
the client re-uploads once).  Responses stay pure JSON lines, so the
gateway can relay them verbatim.

Toolflow values travel inside the JSON as typed envelopes
(:func:`encode_value` / :func:`decode_value`), one canonical JSON codec
per type, kept beside the type: ``$program``, ``$profile``,
``$ext_defs``, ``$selection``, ``$selection_params``, ``$machine``,
``$stats`` and ``$list``.  Nothing on the wire is pickled, so decoding
a request never runs code the caller chose; an unknown envelope
(including the retired ``$pickle``) is a ``bad_request``.  See
``docs/serving.md``, "Trust boundary".
"""

from __future__ import annotations

import functools
import json
import struct
from typing import Any, BinaryIO

from repro.errors import ReproError
from repro.wire import DEFAULT_MAX_STEPS  # noqa: F401  (re-export)

#: Protocol version, echoed by the ``health`` endpoint.
PROTOCOL_VERSION = 1

#: Hard cap on one JSON line (64 MiB) — guards the server against a
#: runaway or malicious client stream.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Hard cap on the total binary attachment bytes one request may
#: declare via ``"frames"`` (256 MiB).
MAX_FRAME_BYTES = 256 * 1024 * 1024

# ----------------------------------------------------------------------
# error codes

#: Request rejected at admission: the bounded queue is full.  The client
#: should back off and retry (the response carries ``retry_after_ms``).
OVERLOADED = "overloaded"
#: The request's deadline passed while it was queued (or the server
#: default timeout elapsed); it was never executed.
DEADLINE_EXCEEDED = "deadline_exceeded"
#: The request was malformed (unknown op, bad JSON, missing params).
BAD_REQUEST = "bad_request"
#: The operation raised inside the worker; ``message`` carries the
#: exception text.
OP_FAILED = "op_failed"
#: The worker executing the request crashed and retries were exhausted.
WORKER_CRASHED = "worker_crashed"
#: The server is draining and no longer admits new work.
SHUTTING_DOWN = "shutting_down"
#: A ``$trace_ref`` digest is not (or no longer) in this backend's
#: trace cache; the client should ``put_trace`` the bundle and retry.
NEED_TRACE = "need_trace"

ERROR_CODES = frozenset({
    OVERLOADED, DEADLINE_EXCEEDED, BAD_REQUEST, OP_FAILED,
    WORKER_CRASHED, SHUTTING_DOWN, NEED_TRACE,
})

#: The five toolflow operations (mirroring :mod:`repro.api`) plus the
#: two inline endpoints answered by the server itself.
TOOLFLOW_OPS = ("compile", "profile", "select", "rewrite", "simulate")
INLINE_OPS = ("health", "stats")
#: Uploads a :mod:`repro.wire` simulate bundle (the request's first
#: binary attachment) into the backend's digest-addressed trace cache.
PUT_TRACE_OP = "put_trace"


class ServeError(ReproError):
    """Base class for service-level failures, tagged with a wire code."""

    code = OP_FAILED

    def __init__(self, message: str, **details: Any):
        self.details = details
        super().__init__(message)


class OverloadedError(ServeError):
    """The server refused admission; retry after ``retry_after_ms``."""

    code = OVERLOADED

    @property
    def retry_after_ms(self) -> int:
        return int(self.details.get("retry_after_ms", 100))


class DeadlineExceededError(ServeError):
    code = DEADLINE_EXCEEDED


class BadRequestError(ServeError):
    code = BAD_REQUEST


class RemoteOpError(ServeError):
    """The toolflow operation itself raised on the server side."""

    code = OP_FAILED


class WorkerCrashedError(ServeError):
    code = WORKER_CRASHED


class ServerClosedError(ServeError):
    code = SHUTTING_DOWN


class NeedTraceError(ServeError):
    """The referenced trace bundle is not cached on this backend.

    :class:`~repro.serve.client.ServeClient` treats this as a
    self-healing miss: upload the bundle with ``put_trace``, retry the
    request once."""

    code = NEED_TRACE

    @property
    def digest(self) -> str:
        return str(self.details.get("digest", ""))


_ERROR_CLASSES: dict[str, type[ServeError]] = {
    OVERLOADED: OverloadedError,
    DEADLINE_EXCEEDED: DeadlineExceededError,
    BAD_REQUEST: BadRequestError,
    OP_FAILED: RemoteOpError,
    WORKER_CRASHED: WorkerCrashedError,
    SHUTTING_DOWN: ServerClosedError,
    NEED_TRACE: NeedTraceError,
}


def error_for(code: str, message: str, **details: Any) -> ServeError:
    """The typed client-side exception for a wire error payload."""
    cls = _ERROR_CLASSES.get(code, RemoteOpError)
    return cls(message, **details)


# ----------------------------------------------------------------------
# value codec


@functools.lru_cache(maxsize=None)
def _codecs() -> dict:
    """``envelope tag -> (type, encode, decode)`` for every typed wire
    value.  Built on first use: the codec must not force the simulator
    stack into thin clients that only ship scalars."""
    from repro.engine import store
    from repro.extinst import Selection, params, serialize
    from repro.profiling import ProgramProfile, profiler
    from repro.program import program
    from repro.sim.ooo import MachineConfig, SimStats

    return {
        "$stats": (SimStats, store.stats_to_json, store.stats_from_json),
        "$selection": (Selection, serialize.selection_to_json,
                       serialize.selection_from_json),
        "$machine": (MachineConfig, _machine_to_json, machine_from_wire),
        "$program": (program.Program, program.program_to_json,
                     program.program_from_json),
        "$profile": (ProgramProfile, profiler.profile_to_json,
                     profiler.profile_from_json),
        "$selection_params": (params.SelectionParams, params.params_to_json,
                              params.params_from_json),
        # encoded by shape, not type (see encode_value)
        "$ext_defs": (None, None, serialize.ext_defs_from_json),
        "$list": (None, None, _decode_list),
    }


def _is_ext_defs(value: dict) -> bool:
    from repro.extinst.extdef import ExtInstDef

    return bool(value) and all(
        isinstance(k, int) and isinstance(v, ExtInstDef)
        for k, v in value.items()
    )


def encode_value(value: Any) -> Any:
    """JSON-safe envelope for a toolflow value.

    Scalars and ``None`` pass through; lists/tuples and string-keyed
    dicts are encoded recursively; each toolflow type has one typed
    JSON envelope (``{"$program": ...}``, ``{"$stats": ...}``, ...).
    A value with no codec raises :class:`BadRequestError`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return {"$list": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        if all(isinstance(k, str) and not k.startswith("$") for k in value):
            return {k: encode_value(v) for k, v in value.items()}
        if _is_ext_defs(value):
            from repro.extinst.serialize import ext_defs_to_json

            return {"$ext_defs": ext_defs_to_json(value)}
    for tag, (cls, encode, _) in _codecs().items():
        if cls is not None and type(value) is cls:
            return {tag: encode(value)}
    raise BadRequestError(
        f"no wire codec for a value of type {type(value).__name__}"
    )


def _decode_list(items: Any) -> list:
    if not isinstance(items, list):
        raise TypeError("$list envelope must carry an array")
    return [decode_value(item) for item in items]


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`.

    A malformed or unknown envelope — including the retired
    ``$pickle`` one — raises :class:`BadRequestError`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        tags = [k for k in value if k.startswith("$")]
        if not tags:
            return {k: decode_value(v) for k, v in value.items()}
        codec = _codecs().get(tags[0])
        if codec is None or len(value) != 1:
            raise BadRequestError(
                f"unknown wire envelope {tags[0]!r} (values travel as "
                f"typed JSON envelopes; pickle is not accepted)"
            )
        try:
            return codec[2](value[tags[0]])
        except BadRequestError:
            raise
        except (TypeError, KeyError, ValueError, IndexError,
                AttributeError, ReproError) as exc:
            raise BadRequestError(
                f"bad {tags[0]} envelope: {type(exc).__name__}: {exc}"
            ) from None
    raise BadRequestError(f"cannot decode wire value of type {type(value)!r}")


def _machine_to_json(config) -> dict:
    """A ``MachineConfig`` as the sparse dict of non-default fields.

    Sweep requests carry one of these per point; most points differ
    from the default machine in one or two fields, so the sparse form
    keeps by-reference simulate requests at ~100 bytes."""
    import dataclasses

    doc = dataclasses.asdict(config)
    defaults = dataclasses.asdict(type(config)())
    return {k: v for k, v in doc.items() if v != defaults[k]}


def machine_from_wire(doc: Any):
    """A ``MachineConfig`` from a (sparse or full) field dict, through
    the store's :func:`~repro.engine.store.machine_from_json`."""
    from repro.engine.store import machine_from_json

    if not isinstance(doc, dict):
        raise BadRequestError("a machine must be a JSON object")
    try:
        return machine_from_json(doc)
    except (TypeError, KeyError, ReproError) as exc:
        raise BadRequestError(f"bad machine: {exc}") from None


def blob_digest(value: Any) -> str:
    """Stable digest of an *encoded* wire value (micro-batch grouping,
    gateway routing).

    The input must already be JSON-safe (i.e. have passed through
    :func:`encode_value`); a raw object raises a typed
    :class:`BadRequestError` rather than being silently ``repr``-ed
    into the digest, which would make "equal" payloads digest unequal
    across processes."""
    import hashlib

    try:
        blob = json.dumps(value, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"cannot digest non-JSON-safe wire value: {exc}"
        ) from None
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# JSON-lines framing (client <-> server)


def dump_line(obj: dict) -> bytes:
    """One wire line for ``obj`` (compact JSON + newline).

    Raises a typed :class:`BadRequestError` if ``obj`` holds a value
    JSON cannot represent — a payload that was never routed through
    :func:`encode_value` must fail loudly, not get ``repr``-stringified
    into a response the client would happily decode."""
    try:
        return json.dumps(obj, separators=(",", ":")).encode() + b"\n"
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"payload is not JSON-safe (missing encode_value?): {exc}"
        ) from None


def parse_line(line: bytes) -> dict:
    """Parse one wire line; raises :class:`BadRequestError` on garbage."""
    try:
        obj = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"malformed JSON line: {exc}") from None
    if not isinstance(obj, dict):
        raise BadRequestError("wire line is not a JSON object")
    return obj


def ok_response(request_id: Any, result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any, code: str, message: str, **details: Any
) -> dict:
    error: dict[str, Any] = {"code": code, "message": message}
    if details:
        error.update(details)
    return {"id": request_id, "ok": False, "error": error}


# ----------------------------------------------------------------------
# length-prefixed framing (server <-> worker pipes)
#
# Frame layout: ``!I`` total byte count, the kind byte ``J``, ``!I``
# json length, compact-JSON doc, then raw binary chunks back to back.
# The doc is ``{"body": ..., "chunks": [nbytes, ...]}`` where every
# ``bytes``-like value in the original object was hoisted into the
# chunk tail and replaced by a ``{"$bin": i}`` marker — so a by-ref
# simulate job's trace bundle crosses the pipe without a copy into the
# JSON text.

_FRAME_HEADER = struct.Struct("!I")
_FRAME_JSON = b"J"


def _hoist_binary(value: Any, chunks: list) -> Any:
    """``value`` with bytes-likes swapped for ``{"$bin": i}`` markers
    (chunks appended in marker order).  Raises :class:`TypeError` for
    a payload that already carries a marker."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        chunks.append(value)
        return {"$bin": len(chunks) - 1}
    if isinstance(value, (list, tuple)):
        return [_hoist_binary(item, chunks) for item in value]
    if isinstance(value, dict):
        if "$bin" in value:
            raise TypeError("payload already carries a $bin marker")
        return {k: _hoist_binary(v, chunks) for k, v in value.items()}
    return value


def _lower_binary(value: Any, chunks: list) -> Any:
    """Inverse of :func:`_hoist_binary`."""
    if isinstance(value, list):
        return [_lower_binary(item, chunks) for item in value]
    if isinstance(value, dict):
        if set(value) == {"$bin"}:
            return chunks[value["$bin"]]
        return {k: _lower_binary(v, chunks) for k, v in value.items()}
    return value


def write_frame(stream: BinaryIO, obj: Any) -> None:
    """Write one ``J`` frame (JSON body + out-of-band binary chunks,
    written without re-copying the chunks) and flush.

    Raises :class:`BadRequestError` if ``obj`` holds a value JSON
    cannot represent."""
    chunks: list = []
    try:
        doc = json.dumps(
            {"body": _hoist_binary(obj, chunks),
             "chunks": [len(c) for c in chunks]},
            separators=(",", ":"),
        ).encode()
    except (TypeError, ValueError) as exc:
        raise BadRequestError(
            f"pipe frame payload is not JSON-safe: {exc}"
        ) from None
    total = 1 + _FRAME_HEADER.size + len(doc) + sum(len(c) for c in chunks)
    stream.write(_FRAME_HEADER.pack(total) + _FRAME_JSON
                 + _FRAME_HEADER.pack(len(doc)) + doc)
    for chunk in chunks:
        stream.write(chunk)
    stream.flush()


def _read_exact(stream: BinaryIO, length: int) -> bytes:
    payload = b""
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise EOFError("truncated frame payload")
        payload += chunk
    return payload


def read_frame(stream: BinaryIO) -> Any | None:
    """Read one frame; ``None`` on a clean EOF at a frame boundary,
    :class:`EOFError` on a truncated frame or an unknown frame kind."""
    header = stream.read(_FRAME_HEADER.size)
    if not header:
        return None
    if len(header) < _FRAME_HEADER.size:
        raise EOFError("truncated frame header")
    (length,) = _FRAME_HEADER.unpack(header)
    payload = _read_exact(stream, length)
    kind, payload = payload[:1], payload[1:]
    if kind != _FRAME_JSON:
        raise EOFError(f"unknown pipe frame kind {kind!r}")
    (doc_len,) = _FRAME_HEADER.unpack_from(payload)
    doc = json.loads(payload[_FRAME_HEADER.size:_FRAME_HEADER.size + doc_len])
    chunks, offset = [], _FRAME_HEADER.size + doc_len
    for nbytes in doc["chunks"]:
        chunks.append(payload[offset:offset + nbytes])
        offset += nbytes
    return _lower_binary(doc["body"], chunks)
