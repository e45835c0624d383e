"""Client library for the toolflow service.

:class:`ServeClient` mirrors the :mod:`repro.api` facade over a socket:
the five toolflow methods take the same keyword arguments and return
the same dataclasses, so moving a script from in-process to served is a
one-line change::

    from repro.serve.client import ServeClient

    with ServeClient("127.0.0.1:7077") as client:
        program = client.compile(workload="gsm_encode")
        profile = client.profile(program=program)
        selection = client.select(profile=profile, pfus=2)
        rewritten, defs = client.rewrite(program=program,
                                         selection=selection)
        stats = client.simulate(program=rewritten, ext_defs=defs)

Semantics:

- **connect/retry** — the client lazily connects and transparently
  reconnects; connection-level failures are retried ``retries`` times
  with decorrelated-jitter backoff (each delay drawn uniformly from
  ``[base, 3 * previous]``, capped), so a fleet of clients does not
  reconnect in lockstep when a backend restarts.  Toolflow ops are
  pure functions of their payload, so re-sending after an ambiguous
  failure is safe.
- **timeouts** — ``timeout`` bounds the socket wait client-side and is
  shipped as the request's server-side deadline (``timeout_ms``), so a
  request that would miss its deadline is dropped by the broker rather
  than executed for nobody.
- **backpressure** — an ``overloaded`` response raises
  :class:`~repro.serve.protocol.OverloadedError` carrying
  ``retry_after_ms``; :meth:`ServeClient.call_with_backoff` is the
  retrying convenience loop.
- **pipelining** — :meth:`ServeClient.submit` sends a request without
  waiting and returns a :class:`PendingCall`; many requests can be in
  flight on one connection and resolved in any order (out-of-order
  responses are stashed by id until their owner asks).  The design
  space explorer (:mod:`repro.explore`) uses this to batch a sweep's
  simulate calls against a fleet.
- **send-once traces** — :meth:`ServeClient.trace_ref` wraps a
  simulate payload as a digest-addressed :class:`TraceRef`; passing it
  as ``program=`` makes every request carry a 16-hex-char digest
  instead of the ``$program`` envelope, with the binary bundle uploaded
  at most once per backend (a ``need_trace`` miss triggers one
  ``put_trace`` upload and a retry, transparently).  Responses are
  byte-identical to by-value ``simulate(program=..., ext_defs=...)``.

Every value the client sends or receives is a typed JSON envelope
(:func:`repro.serve.protocol.encode_value`); nothing is pickled.
"""

from __future__ import annotations

import itertools
import random
import socket
import time
from typing import Any, Mapping, Sequence

from repro import wire
from repro.serve import protocol

#: Distinguishes "argument not given" from an explicit ``None`` in
#: :meth:`ServeClient.select`, mirroring :func:`repro.api.select`.
_UNSET = object()

_CONNECT_ERRORS = (ConnectionError, socket.timeout, TimeoutError, OSError)

#: Ceiling for one reconnect delay, seconds.
_BACKOFF_CAP = 5.0


def _jittered_backoff(base: float, prev: float,
                      cap: float = _BACKOFF_CAP) -> float:
    """Next decorrelated-jitter reconnect delay.

    Draws uniformly from ``[base, 3 * prev]`` and caps the result: the
    window widens with each failure (exponential-ish growth) while the
    randomness decorrelates clients, so a backend restart is not met by
    every waiting client reconnecting on the same tick."""
    return min(cap, random.uniform(base, max(base, prev * 3.0)))


class TraceRef:
    """A digest-addressed simulate payload (program + ``ext_defs`` +
    ``max_steps`` + optionally the precomputed trace).

    Build one with :meth:`ServeClient.trace_ref` and pass it as the
    ``program=`` argument of :meth:`ServeClient.simulate` /
    :meth:`~ServeClient.simulate_submit`.  Encoding and digesting are
    lazy and cached, so a 400-point sweep hashes the bundle once.
    """

    def __init__(self, program, ext_defs=None, max_steps: int | None = None,
                 trace=None):
        self.program = program
        self.ext_defs = ext_defs
        self.max_steps = max_steps
        self.trace = trace
        self._chunks: list | None = None
        self._digest: str | None = None

    def chunks(self) -> list:
        """The encoded bundle as a zero-copy chunk list."""
        if self._chunks is None:
            self._chunks = wire.bundle_chunks(
                self.program, self.ext_defs, self.max_steps,
                trace=self.trace,
            )
        return self._chunks

    @property
    def digest(self) -> str:
        if self._digest is None:
            self._digest = wire.chunks_digest(self.chunks())
        return self._digest

    @property
    def nbytes(self) -> int:
        return sum(len(c) for c in self.chunks())


class PendingCall:
    """Handle for a pipelined request sent with :meth:`ServeClient.submit`.

    ``result()`` blocks until the response arrives (draining and
    stashing any other pipelined responses it passes on the way) and
    raises the same typed errors as :meth:`ServeClient.call`.  A
    pending by-ref simulate additionally recovers from ``need_trace``:
    upload the bundle, re-issue synchronously.
    """

    def __init__(self, client: "ServeClient", request_id: int, op: str,
                 retry: tuple | None = None):
        self._client = client
        self.request_id = request_id
        self.op = op
        self._response: dict | None = None
        self._retry = retry

    def result(self) -> Any:
        if self._response is None:
            self._response = self._client._read_response(self.request_id)
        try:
            return self._client._decode_response(self._response)
        except protocol.NeedTraceError:
            if self._retry is None:
                raise
            params, timeout_ms, ref = self._retry
            # Re-issue synchronously; call() itself recovers a repeat
            # miss with one upload.  Re-issuing first (rather than
            # uploading first) means a batch of pipelined misses — a
            # failover lands the whole sweep's responses at once —
            # uploads exactly once, not once per pending call.
            return self._client.call(self.op, params,
                                     timeout_ms=timeout_ms, trace_ref=ref)


def _parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    if isinstance(address, tuple):
        return address[0], int(address[1])
    host, _, port = address.rpartition(":")
    if not host or not port.isdigit():
        raise protocol.BadRequestError(
            f"address must be 'host:port' or (host, port), got {address!r}"
        )
    return host, int(port)


class ServeClient:
    """One synchronous connection to a :class:`ToolflowServer`."""

    def __init__(
        self,
        address: "str | tuple[str, int]",
        timeout: float = 30.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
        admission_class: str | None = None,
    ):
        self.address = _parse_address(address)
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        #: Tag every request with a gateway admission class
        #: (``"interactive"`` or ``"sweep"``).  Plain backends ignore
        #: the field; a :mod:`repro.gateway` uses it to prioritise
        #: interactive traffic over bulk sweeps.
        self.admission_class = admission_class
        #: Wire accounting, visible to loadtest/benchmark reporting.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.need_trace_retries = 0
        self.trace_uploads = 0
        self._sock: socket.socket | None = None
        self._rfile = None
        self._ids = itertools.count(1)
        self._stash: dict[Any, dict] = {}

    # ------------------------------------------------------------------
    # connection management

    def connect(self) -> "ServeClient":
        if self._sock is None:
            sock = socket.create_connection(self.address,
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._rfile = sock.makefile("rb")
        return self

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None
        # A stashed response can only arrive on the connection its
        # request went out on; once that is gone, pending calls are too.
        self._stash.clear()

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the request loop

    def _request_payload(self, op: str, params: dict | None,
                         timeout_ms: int | None,
                         frame_chunks: list | None) -> tuple[int, list]:
        """Fresh (request_id, send buffers) for one request.

        ``frame_chunks`` is a zero-copy chunk list forming one binary
        attachment; its total size is declared on the JSON line and the
        chunks ride behind the newline untouched."""
        request_id = next(self._ids)
        request: dict[str, Any] = {
            "id": request_id, "op": op, "params": params or {},
        }
        request["timeout_ms"] = (
            timeout_ms if timeout_ms is not None
            else int(self.timeout * 1000)
        )
        if self.admission_class is not None:
            request["class"] = self.admission_class
        buffers: list = []
        if frame_chunks is not None:
            request["frames"] = [sum(len(c) for c in frame_chunks)]
            buffers.extend(frame_chunks)
        return request_id, [protocol.dump_line(request), *buffers]

    def _send_buffers(self, buffers: list) -> None:
        """Vectored send: every buffer (header line, bundle chunks)
        goes to the kernel as-is — ``sendmsg`` when available, a
        single joined ``sendall`` otherwise."""
        views = [memoryview(b).cast("B") for b in buffers]
        self.bytes_sent += sum(len(v) for v in views)
        sendmsg = getattr(self._sock, "sendmsg", None)
        if sendmsg is None:  # pragma: no cover - exotic platforms
            self._sock.sendall(b"".join(views))
            return
        while views:
            sent = sendmsg(views)
            if sent <= 0:
                raise ConnectionError("socket send made no progress")
            while views and sent >= len(views[0]):
                sent -= len(views[0])
                views.pop(0)
            if views and sent:
                views[0] = views[0][sent:]

    def _roundtrip(self, op: str, params: dict | None,
                   timeout_ms: int | None,
                   frame_chunks: list | None = None) -> dict:
        """One request/response exchange with reconnect retries."""
        last_exc: Exception | None = None
        delay = self.retry_backoff
        for attempt in range(self.retries + 1):
            request_id, buffers = self._request_payload(
                op, params, timeout_ms, frame_chunks)
            try:
                self.connect()
                self._send_buffers(buffers)
                return self._read_response(request_id)
            except _CONNECT_ERRORS as exc:
                last_exc = exc
                self.close()
                if attempt < self.retries:
                    delay = _jittered_backoff(self.retry_backoff, delay)
                    time.sleep(delay)
        raise protocol.ServerClosedError(
            f"cannot reach server at {self.address[0]}:"
            f"{self.address[1]}: {last_exc}"
        ) from last_exc

    def call(self, op: str, params: dict | None = None,
             timeout_ms: int | None = None, *,
             frame_chunks: list | None = None,
             trace_ref: "TraceRef | None" = None) -> Any:
        """Send one request and return its decoded result.

        Raises the typed :class:`~repro.serve.protocol.ServeError`
        subclass matching the server's error code — except
        ``need_trace`` when ``trace_ref`` is given, which is recovered
        by uploading the bundle and retrying."""
        try:
            return self._decode_response(
                self._roundtrip(op, params, timeout_ms, frame_chunks))
        except protocol.NeedTraceError:
            if trace_ref is None:
                raise
            self._recover_need_trace(trace_ref)
            return self._decode_response(
                self._roundtrip(op, params, timeout_ms, frame_chunks))

    def submit(self, op: str, params: dict | None = None,
               timeout_ms: int | None = None, *,
               trace_ref: "TraceRef | None" = None) -> PendingCall:
        """Send one request without waiting; resolve via the returned
        :class:`PendingCall`.

        Unlike :meth:`call` there is no transparent reconnect: a
        reconnect would orphan every other request in flight on the
        connection, so connection failures surface to the caller (who
        can safely resubmit the whole batch — toolflow ops are pure).
        """
        request_id, buffers = self._request_payload(
            op, params, timeout_ms, None)
        self.connect()
        self._send_buffers(buffers)
        retry = (None if trace_ref is None
                 else (params, timeout_ms, trace_ref))
        return PendingCall(self, request_id, op, retry=retry)

    def _recover_need_trace(self, ref: "TraceRef") -> None:
        """The miss path of the send-once protocol: count the retry,
        upload the bundle, let the caller re-issue."""
        self.need_trace_retries += 1
        self.put_trace(ref)

    def _decode_response(self, response: dict) -> Any:
        if response.get("ok"):
            return protocol.decode_value(response.get("result"))
        error = response.get("error") or {}
        code = error.get("code", protocol.OP_FAILED)
        message = error.get("message", "unknown server error")
        details = {k: v for k, v in error.items()
                   if k not in ("code", "message")}
        raise protocol.error_for(code, message, **details)

    def _read_response(self, request_id: Any) -> dict:
        stashed = self._stash.pop(request_id, None)
        if stashed is not None:
            return stashed
        while True:
            line = self._rfile.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            self.bytes_received += len(line)
            response = protocol.parse_line(line)
            rid = response.get("id")
            if rid in (request_id, None):
                return response
            # A response to another pipelined request: keep it for the
            # PendingCall that owns it.  (Stale ids from an abandoned
            # attempt cannot appear here — an abandoned call closes the
            # connection, and the stash is cleared with it.)
            self._stash[rid] = response

    def call_with_backoff(
        self, op: str, params: dict | None = None,
        max_attempts: int = 8, timeout_ms: int | None = None,
    ) -> Any:
        """Like :meth:`call`, but honours ``overloaded`` backpressure by
        sleeping the server's ``retry_after_ms`` hint and retrying."""
        for attempt in range(max_attempts):
            try:
                return self.call(op, params, timeout_ms=timeout_ms)
            except protocol.OverloadedError as exc:
                if attempt == max_attempts - 1:
                    raise
                time.sleep(exc.retry_after_ms / 1000.0 * (attempt + 1))

    # ------------------------------------------------------------------
    # the five toolflow ops (mirroring repro.api signatures)

    def compile(self, *, source: str | None = None,
                workload: str | None = None, scale: int = 1,
                lang: str | None = None, name: str | None = None):
        params = {"source": source, "workload": workload, "scale": scale,
                  "lang": lang, "name": name}
        return self.call("compile",
                         {k: v for k, v in params.items() if v is not None
                          or k in ("source", "workload")})

    def profile(self, *, program, max_steps: int | None = None):
        params: dict[str, Any] = {"program": protocol.encode_value(program)}
        if max_steps is not None:
            params["max_steps"] = max_steps
        return self.call("profile", params)

    def select(self, *, profile, algorithm: str | None = None,
               pfus: "int | None" = _UNSET,  # type: ignore[assignment]
               params=None):
        """Mirror of :func:`repro.api.select`: arguments left unset are
        omitted from the request, so the server applies the same
        defaults and override semantics as the in-process facade."""
        payload: dict[str, Any] = {
            "profile": protocol.encode_value(profile),
        }
        if algorithm is not None:
            payload["algorithm"] = algorithm
        if pfus is not _UNSET:
            payload["pfus"] = pfus
        if params is not None:
            payload["params"] = protocol.encode_value(params)
        return self.call("select", payload)

    def rewrite(self, *, program, selection, validate: bool = True):
        result = self.call("rewrite", {
            "program": protocol.encode_value(program),
            "selection": protocol.encode_value(selection),
            "validate": validate,
        })
        rewritten, ext_defs = result
        return rewritten, ext_defs

    def trace_ref(self, *, program, ext_defs=None,
                  max_steps: int | None = None, trace=None) -> TraceRef:
        """A digest-addressed handle for the simulate payload.

        Pass the result as ``program=`` to :meth:`simulate` /
        :meth:`simulate_submit`; the bundle ships at most once per
        backend.  ``trace`` may carry a locally computed
        :class:`~repro.sim.trace.DynTrace` to spare the backend its
        functional run."""
        return TraceRef(program, ext_defs=ext_defs, max_steps=max_steps,
                        trace=trace)

    def put_trace(self, ref: TraceRef) -> dict:
        """Upload ``ref``'s bundle into the backend trace cache.

        Usually implicit (the ``need_trace`` recovery inside
        :meth:`call`); explicit warmup avoids even the first miss."""
        self.trace_uploads += 1
        return self.call(protocol.PUT_TRACE_OP, {"digest": ref.digest},
                         frame_chunks=ref.chunks())

    def _simulate_params(self, program, machine, ext_defs, max_steps
                         ) -> "tuple[dict, TraceRef | None]":
        """Wire params for a simulate — by-ref when ``program`` is a
        :class:`TraceRef`, by value otherwise."""
        if isinstance(program, TraceRef):
            if ext_defs is not None or max_steps is not None:
                raise protocol.BadRequestError(
                    "ext_defs/max_steps are fixed by the TraceRef; pass "
                    "them to trace_ref() instead")
            params: dict[str, Any] = {"trace_ref": program.digest}
            self._add_machines(params, machine)
            return params, program
        params = {
            "program": protocol.encode_value(program),
            "ext_defs": protocol.encode_value(ext_defs),
        }
        if max_steps is not None:
            params["max_steps"] = max_steps
        self._add_machines(params, machine)
        return params, None

    @staticmethod
    def _add_machines(params: dict, machine) -> None:
        if isinstance(machine, (list, tuple)):
            params["machines"] = [protocol.encode_value(m) for m in machine]
        else:
            params["machine"] = protocol.encode_value(machine)

    def simulate(self, *, program, machine=None, ext_defs=None,
                 max_steps: int | None = None,
                 timeout_ms: int | None = None):
        """Simulate ``program`` (a ``Program`` or a :class:`TraceRef`);
        pass a sequence of machines for a sweep (returns a list of
        :class:`~repro.sim.ooo.SimStats` in order)."""
        params, ref = self._simulate_params(
            program, machine, ext_defs, max_steps)
        return self.call("simulate", params, timeout_ms=timeout_ms,
                         trace_ref=ref)

    def simulate_submit(self, *, program, machine=None, ext_defs=None,
                        max_steps: int | None = None,
                        timeout_ms: int | None = None) -> PendingCall:
        """Pipelined :meth:`simulate`: send now, collect later.

        Submit a batch of these, then ``result()`` each — the sweep
        driver's pattern for fanning one rewritten program across many
        machine configurations without a round trip per point.
        """
        params, ref = self._simulate_params(
            program, machine, ext_defs, max_steps)
        return self.submit("simulate", params, timeout_ms=timeout_ms,
                           trace_ref=ref)

    # ------------------------------------------------------------------
    # service endpoints

    def health(self) -> dict:
        return self.call("health")

    def stats(self) -> dict:
        return self.call("stats")

    def wait_ready(self, timeout: float = 15.0,
                   poll: float = 0.1) -> dict:
        """Poll ``health`` until the server answers (startup helper)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.health()
            except protocol.ServeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)


def connect(address: "str | tuple[str, int]", **kwargs: Any) -> ServeClient:
    """Connect to a toolflow server (convenience constructor)."""
    return ServeClient(address, **kwargs).connect()
