"""The asyncio HTTP front of the serving layer.

A deliberately small stdlib-only server, and the package's only HTTP
server: an :class:`asyncio.Protocol` parses one HTTP/1.1 request per
connection from its receive buffer (``Connection: close``) and answers

* ``POST /v1/predict`` — body ``{"inputs": [[...], ...]}`` (or one
  flat sample); encoded, micro-batched through
  :class:`repro.serve.batcher.MicroBatcher` and decoded back to
  ``{"outputs": [...], "samples": n}``.  Overload returns 503,
  a missed deadline 504, a malformed payload or ``Content-Length``
  400, a body over 8 MiB 413, a slow request 408, an over-long header
  line or header block 431, and any other failure a JSON 500 — only a
  client that hangs up mid-request goes unanswered;
* ``GET /healthz`` — liveness;
* ``GET /model`` — the loaded artifact's summary (system kind,
  benchmark, bit interface, schema version, digest);
* ``GET /metrics`` — the OpenMetrics exposition of the process-wide
  registry, including the ``serve_*`` families.

:class:`BackgroundServer` runs the same service on a daemon thread
with its own event loop — the harness used by the ``serve --smoke``
CI step and the tests.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config import knobs
from repro.obs import openmetrics
from repro.obs.log import get_logger
from repro.serve.artifact import LoadedModel
from repro.serve.batcher import (
    BatchPolicy,
    DeadlineExceeded,
    InferenceEngine,
    MicroBatcher,
    RequestError,
    ServeError,
)

__all__ = ["BackgroundServer", "InferenceService", "run_service"]

_log = get_logger("serve.service")

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_LINE_BYTES = 64 * 1024  # one request or header line; longer is a 431
_MAX_HEADER_LINES = 100  # header lines per request; more is a 431
_READ_TIMEOUT_S = 10.0  # to send request line, headers and body; then 408

_Response = Tuple[int, str, str, bytes]


class InferenceService:
    """One loaded model behind an asyncio HTTP endpoint."""

    def __init__(
        self,
        model: LoadedModel,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        policy: Optional[BatchPolicy] = None,
    ) -> None:
        self.model = model
        self.engine = InferenceEngine(model.system)
        self.batcher = MicroBatcher(self.engine.predict, policy=policy)
        self.host = host
        self.port = int(knobs.get_int("REPRO_SERVE_PORT") or 0) if port is None else port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> "InferenceService":
        """Bind the listening socket (port 0 picks an ephemeral one)."""
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self, loop), self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info(
            "inference service listening",
            extra={"fields": {"host": self.host, "port": self.port,
                              "system": self.model.kind,
                              "benchmark": self.model.meta.get("benchmark")}},
        )
        return self

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- request handling ------------------------------------------------

    def _route(self, method: str, target: str,
               body: bytes) -> "Union[_Response, concurrent.futures.Future[np.ndarray]]":
        """The response to one request, or the batcher's future for it."""
        if method == "GET" and target == "/healthz":
            return _json_ok({"status": "ok", "system": self.model.kind})
        if method == "GET" and target == "/model":
            return _json_ok(self._model_summary())
        if method == "GET" and target == "/metrics":
            payload = openmetrics.render().encode()
            return 200, "OK", openmetrics.CONTENT_TYPE, payload
        if method == "POST" and target == "/v1/predict":
            return self._submit(body)
        return _json_error(404, "Not Found", f"no route for {method} {target}")

    def _submit(self, body: bytes) -> "Union[_Response, concurrent.futures.Future[np.ndarray]]":
        try:
            payload = json.loads(body.decode() or "null")
        except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
            return _json_error(400, "Bad Request", f"body is not JSON: {exc}")
        if not isinstance(payload, dict) or "inputs" not in payload:
            return _json_error(400, "Bad Request",
                               'body must be {"inputs": [[...], ...]}')
        try:
            values = self.engine.validate(payload["inputs"])
        except RequestError as exc:
            return _json_error(400, "Bad Request", str(exc))
        try:
            return self.batcher.submit(values)
        except ServeError as exc:  # QueueOverflow included
            return _json_error(503, "Service Unavailable", str(exc))

    def _model_summary(self) -> Dict[str, object]:
        meta = self.model.meta
        return {
            "system": self.model.kind,
            "benchmark": meta.get("benchmark"),
            "interface": meta.get("interface"),
            "schema_version": meta.get("schema_version"),
            "digest": meta.get("digest"),
            "members": len(meta.get("members") or []),
            "path": str(self.model.path),
        }


def _predicted(future: "concurrent.futures.Future[np.ndarray]") -> _Response:
    """The response to a completed batcher future."""
    try:
        outputs = np.asarray(future.result())
    except DeadlineExceeded as exc:
        return _json_error(504, "Gateway Timeout", str(exc))
    except ServeError as exc:
        return _json_error(500, "Internal Server Error", str(exc))
    return _json_ok({"outputs": outputs.tolist(), "samples": int(outputs.shape[0])})


class _BadRequest(Exception):
    """A malformed request; ``args[0]`` is the 4xx response it gets."""


class _Connection(asyncio.Protocol):
    """One connection: read one request, answer it, close.

    Bytes accumulate in one receive buffer and are parsed as they
    arrive; the read deadline is one ``call_later`` handle, and a
    predict request is answered from the batcher's future through
    ``call_soon_threadsafe`` — no task, stream reader or wrapped future
    per request.
    """

    def __init__(self, service: InferenceService,
                 loop: asyncio.AbstractEventLoop) -> None:
        self._service = service
        self._loop = loop
        self._transport: Optional[asyncio.Transport] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._buffer = bytearray()
        self._offset = 0  # start of the first unparsed byte
        self._request_line: Optional[List[str]] = None
        self._headers: Dict[str, str] = {}
        self._header_lines = 0
        self._body_length: Optional[int] = None  # known once the header block ends
        self._eof = False
        self._read = False  # the request is read (or refused): ignore further bytes

    # -- asyncio.Protocol ------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self._timer = self._loop.call_later(_READ_TIMEOUT_S, self._timed_out)

    def data_received(self, data: bytes) -> None:
        if not self._read:
            self._buffer += data
            self._advance()

    def eof_received(self) -> bool:
        self._eof = True
        if not self._read:
            self._advance()
        return True  # keep the write side open for the response

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._read = True
        if self._timer is not None:
            self._timer.cancel()

    # -- request ---------------------------------------------------------

    def _timed_out(self) -> None:
        if not self._read:
            self._read = True
            self._send(_json_error(408, "Request Timeout",
                                   f"request not read in {_READ_TIMEOUT_S}s"))

    def _advance(self) -> None:
        """Parse what has arrived; answer once the request is complete."""
        try:
            request = self._parse()
            if request is None:
                if self._eof:  # the client closed mid-body: nobody to answer
                    self._close()
                return
            self._read = True
            assert self._timer is not None
            self._timer.cancel()
            reply = self._service._route(*request)
        except _BadRequest as exc:
            self._read = True
            reply = exc.args[0]
        except Exception as exc:  # answered, so no request drops the connection
            self._read = True
            reply = _internal_error(exc)
        if isinstance(reply, concurrent.futures.Future):
            reply.add_done_callback(
                lambda done: self._loop.call_soon_threadsafe(self._answer, done))
        else:
            self._send(reply)

    def _answer(self, future: "concurrent.futures.Future[np.ndarray]") -> None:
        try:
            reply = _predicted(future)
        except Exception as exc:
            reply = _internal_error(exc)
        self._send(reply)

    def _parse(self) -> Optional[Tuple[str, str, bytes]]:
        """Method, target and body once all have arrived, else ``None``."""
        while self._body_length is None:
            line = self._line()
            if line is None:
                return None
            if self._request_line is None:
                self._request_line = line.decode("latin-1").split()
                if len(self._request_line) < 2:
                    raise _BadRequest(_json_error(400, "Bad Request",
                                                  "malformed request line"))
            elif line in (b"\r\n", b"\n", b""):
                self._body_length = _content_length(self._headers)
            elif self._header_lines == _MAX_HEADER_LINES:
                raise _BadRequest(_json_error(431, "Request Header Fields Too Large",
                                              f"over {_MAX_HEADER_LINES} header lines"))
            else:
                self._header_lines += 1
                name, _, value = line.decode("latin-1").partition(":")
                self._headers[name.strip().lower()] = value.strip()
        assert self._request_line is not None and self._body_length is not None
        end = self._offset + self._body_length
        if len(self._buffer) < end:
            return None
        method, target = self._request_line[:2]
        return method, target, bytes(self._buffer[self._offset:end])

    def _line(self) -> Optional[bytes]:
        """The next line with its ending; at EOF the rest, then ``b""``."""
        start = self._offset
        end = self._buffer.find(b"\n", start) + 1  # 0: no line end yet
        if (end - 1 if end else len(self._buffer)) - start > _MAX_LINE_BYTES:
            raise _BadRequest(_json_error(431, "Request Header Fields Too Large",
                                          f"line over {_MAX_LINE_BYTES} bytes"))
        if not end:
            if not self._eof:
                return None
            end = len(self._buffer)
        self._offset = end
        return bytes(self._buffer[start:end])

    # -- response --------------------------------------------------------

    def _send(self, reply: _Response) -> None:
        status, reason, content_type, body = reply
        if self._transport is None or self._transport.is_closing():
            return  # client went away
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        self._transport.write(head.encode() + body)
        self._close()

    def _close(self) -> None:
        assert self._transport is not None
        self._transport.close()


def _content_length(headers: Dict[str, str]) -> int:
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest(_json_error(400, "Bad Request",
                                      f"invalid Content-Length {raw_length!r}"))
    if length > _MAX_BODY_BYTES:
        raise _BadRequest(_json_error(413, "Payload Too Large",
                                      f"body over {_MAX_BODY_BYTES} bytes"))
    return length


def _internal_error(exc: Exception) -> _Response:
    _log.exception("unhandled error answering a request")
    return _json_error(500, "Internal Server Error", f"{type(exc).__name__}: {exc}")


def _json_ok(payload: Dict[str, object]) -> _Response:
    return 200, "OK", "application/json", json.dumps(payload).encode()


def _json_error(status: int, reason: str, detail: str) -> _Response:
    return status, reason, "application/json", json.dumps({"error": detail}).encode()


class BackgroundServer:
    """Run an :class:`InferenceService` on a daemon thread.

    Use as a context manager::

        with BackgroundServer(model, port=0) as server:
            ... requests against server.url ...
    """

    def __init__(
        self,
        model: LoadedModel,
        host: str = "127.0.0.1",
        port: int = 0,
        policy: Optional[BatchPolicy] = None,
    ) -> None:
        self.service = InferenceService(model, host=host, port=port, policy=policy)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "BackgroundServer":
        loop = asyncio.new_event_loop()
        self._loop = loop
        started = threading.Event()
        failure: Dict[str, BaseException] = {}

        def _run() -> None:
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.service.start())
            except BaseException as exc:  # noqa: B036 - surfaced to start()
                failure["error"] = exc
                started.set()
                return
            started.set()
            loop.run_forever()

        self._thread = threading.Thread(
            target=_run, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=30):
            raise ServeError("inference service did not start within 30s")
        if "error" in failure:
            self._thread.join()
            self._thread = self._loop = None
            loop.close()
            raise ServeError(f"inference service failed to start: {failure['error']!r}")
        return self

    @property
    def url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Close the listening socket, then stop and close the loop.

        Open connections get up to ``timeout`` seconds to finish.  A
        second call is a no-op.
        """
        loop, self._loop = self._loop, None
        thread, self._thread = self._thread, None
        if loop is not None and thread is not None:
            stopped = asyncio.run_coroutine_threadsafe(self.service.stop(), loop)
            concurrent.futures.wait([stopped], timeout=timeout)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=timeout)
            loop.close()
        self.service.batcher.close()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


async def _amain(service: InferenceService) -> None:
    await service.serve_forever()


def run_service(
    model: LoadedModel,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    policy: Optional[BatchPolicy] = None,
) -> None:
    """Blocking entry point used by ``python -m repro serve``."""
    service = InferenceService(model, host=host, port=port, policy=policy)
    try:
        asyncio.run(_amain(service))
    finally:
        service.batcher.close()
