"""The asyncio HTTP front of the serving layer.

A deliberately small stdlib-only server, and the package's only HTTP
server: it parses one HTTP/1.1 request per connection and answers

* ``POST /v1/predict`` — body ``{"inputs": [[...], ...]}`` (or one
  flat sample); encoded, micro-batched through
  :class:`repro.serve.batcher.MicroBatcher` and decoded back to
  ``{"outputs": [...], "samples": n}``.  Overload returns 503,
  a missed deadline 504, a malformed payload 400, a slow request 408,
  an over-long header line or header block 431, and any other failure a JSON 500 —
  no request ends in a dropped connection;
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
from typing import Dict, Optional, Tuple

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
    QueueOverflow,
    RequestError,
    ServeError,
)

__all__ = ["BackgroundServer", "InferenceService", "run_service"]

_log = get_logger("serve.service")

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_LINES = 100  # the reader's limit bounds one line, this the count; then 431
_READ_TIMEOUT_S = 10.0  # to send request line, headers and body; then 408


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
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
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

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                status, reason, content_type, body = await self._respond(reader)
            except (ConnectionError, asyncio.IncompleteReadError):
                raise
            except Exception as exc:  # answered, so no request drops the connection
                _log.exception("unhandled error answering a request")
                status, reason, content_type, body = _json_error(
                    500, "Internal Server Error", f"{type(exc).__name__}: {exc}")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode() + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            writer.close()

    async def _respond(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, str, str, bytes]:
        try:
            method, target, body = await asyncio.wait_for(
                _read_request(reader), _READ_TIMEOUT_S)
        except _BadRequest as exc:
            return exc.args[0]
        except asyncio.TimeoutError:
            return _json_error(408, "Request Timeout", f"request not read in {_READ_TIMEOUT_S}s")
        except ValueError as exc:  # StreamReader: a line over its limit
            return _json_error(431, "Request Header Fields Too Large", str(exc))
        if method == "GET" and target == "/healthz":
            return _json_ok({"status": "ok", "system": self.model.kind})
        if method == "GET" and target == "/model":
            return _json_ok(self._model_summary())
        if method == "GET" and target == "/metrics":
            payload = openmetrics.render().encode()
            return 200, "OK", openmetrics.CONTENT_TYPE, payload
        if method == "POST" and target == "/v1/predict":
            return await self._predict(body)
        return _json_error(404, "Not Found", f"no route for {method} {target}")

    async def _predict(self, body: bytes) -> Tuple[int, str, str, bytes]:
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
            future = self.batcher.submit(values)
        except QueueOverflow as exc:
            return _json_error(503, "Service Unavailable", str(exc))
        except ServeError as exc:
            return _json_error(503, "Service Unavailable", str(exc))
        try:
            outputs = await asyncio.wrap_future(future)
        except DeadlineExceeded as exc:
            return _json_error(504, "Gateway Timeout", str(exc))
        except ServeError as exc:
            return _json_error(500, "Internal Server Error", str(exc))
        return _json_ok({
            "outputs": np.asarray(outputs).tolist(),
            "samples": int(values.shape[0]),
        })

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


class _BadRequest(Exception):
    """A malformed request; ``args[0]`` is the 4xx response it gets."""


async def _read_request(reader: asyncio.StreamReader) -> Tuple[str, str, bytes]:
    """Read one request: its method, target and body."""
    request_line = (await reader.readline()).decode("latin-1").strip()
    parts = request_line.split()
    if len(parts) < 2:
        raise _BadRequest(_json_error(400, "Bad Request", "malformed request line"))
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADER_LINES + 1):
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _BadRequest(_json_error(431, "Request Header Fields Too Large",
                                      f"over {_MAX_HEADER_LINES} header lines"))
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
    body = await reader.readexactly(length) if length else b""
    return parts[0], parts[1], body


def _json_ok(payload: Dict[str, object]) -> Tuple[int, str, str, bytes]:
    return 200, "OK", "application/json", json.dumps(payload).encode()


def _json_error(status: int, reason: str, detail: str) -> Tuple[int, str, str, bytes]:
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
