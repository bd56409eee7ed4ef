"""Fuzzed HTTP requests against the serving front.

Hypothesis writes raw request bytes: request lines and targets, header
blocks with bad, negative and huge ``Content-Length`` values, bare
``\\n`` line ends, over-long lines, truncated header blocks and bodies,
and JSON bodies with ragged, huge, nested or NaN arrays.  Every request
must end in a 2xx or a 4xx response, or in the server closing the
connection, within a deadline; none may get a 5xx or leave an error in
the log (an unhandled exception in the protocol or the event loop).

The read deadline is shortened so truncated requests get their 408
quickly, and the example counts are capped to keep the suite fast.
"""

import json
import logging
import socket
import time
import urllib.parse

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mei import MEI, MEIConfig
from repro.nn.trainer import TrainConfig
from repro.serve import BackgroundServer, load_artifact, save_artifact
from repro.serve import service as service_module

TINY = MEIConfig(in_groups=2, out_groups=1, hidden=6, bits=4)
READ_TIMEOUT_S = 0.1
DEADLINE_S = 10.0
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class _Errors(logging.Handler):
    """Collects ERROR records: a logged unhandled exception fails the example."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    rng = np.random.default_rng(0)
    mei = MEI(TINY, seed=0).train(
        rng.uniform(0.0, 1.0, (32, TINY.in_groups)),
        rng.uniform(0.0, 1.0, (32, TINY.out_groups)),
        TrainConfig(epochs=3, batch_size=16, learning_rate=0.02, shuffle_seed=0),
    )
    path = tmp_path_factory.mktemp("fuzz") / "model.npz"
    save_artifact(mei, path, benchmark="fft")
    errors = _Errors()
    loggers = [logging.getLogger("repro"), logging.getLogger("asyncio")]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service_module, "_READ_TIMEOUT_S", READ_TIMEOUT_S)
        for logger in loggers:
            logger.addHandler(errors)
        try:
            with BackgroundServer(load_artifact(path), port=0) as running:
                running.errors = errors
                yield running
        finally:
            for logger in loggers:
                logger.removeHandler(errors)


def _exchange(url, raw, half_close):
    """Send ``raw``; return the response bytes (b"" when closed unanswered)."""
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=DEADLINE_S) as sock:
        try:
            sock.sendall(raw)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:  # e.g. EPIPE, ECONNRESET, ENOTCONN on the shutdown
            pass  # the server answered and closed before reading it all
        response = b""
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            response += chunk
        else:
            pytest.fail(f"no answer and no close within {DEADLINE_S}s")
    return response


def _check(server, raw, half_close=False):
    before = len(server.errors.records)
    response = _exchange(server.url, raw, half_close)
    if response:
        status_line = response.split(b"\r\n", 1)[0].split()
        assert status_line[0] == b"HTTP/1.1", response[:200]
        status = int(status_line[1])
        assert 200 <= status < 500, response[:300]
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        if status >= 400:
            assert "error" in json.loads(body)
    logged = server.errors.records[before:]
    assert not logged, [r.getMessage() for r in logged]


_eol = st.sampled_from([b"\r\n", b"\n"])
_token = st.binary(min_size=0, max_size=12).filter(lambda b: b"\n" not in b)
_content_length = st.one_of(
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30).map(lambda n: str(n).encode()),
    st.integers(min_value=0, max_value=64).map(lambda n: str(n).encode()),
    st.sampled_from([b"", b"abc", b"-1", b"1e3", b" 7 ", b"0x10", b"\xb2", b"9" * 5000]),
)
_header = st.one_of(
    st.tuples(st.just(b"Content-Length"), _content_length),
    st.tuples(st.sampled_from([b"Content-Type", b"X-Fuzz", b"Host", b""]), _token),
    st.tuples(st.just(b"X-Long"), st.integers(60_000, 70_000).map(lambda n: b"a" * n)),
)
_method = st.sampled_from([b"GET", b"POST", b"PUT", b"", b"\xff\xfe"])
_target = st.sampled_from([b"/v1/predict", b"/healthz", b"/model", b"/metrics",
                           b"/nope", b"", b"*"])


@st.composite
def _framed_requests(draw):
    """Raw request bytes, well framed or not; ``(raw, half_close)``."""
    eol = draw(_eol)
    line = b" ".join(part for part in (draw(_method), draw(_target), b"HTTP/1.1") if part)
    headers = draw(st.lists(_header, max_size=4))
    head = line + eol + b"".join(name + b": " + value + eol for name, value in headers)
    body = draw(st.binary(max_size=64))
    if draw(st.booleans()):  # a complete header block
        head += eol
    return head + body, draw(st.booleans())


_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.sampled_from([0.0, 0.5, 1.0, "0.5", None, True, [], {}]),
)
_inputs = st.one_of(
    st.lists(st.lists(_number, max_size=4), max_size=6),  # ragged rows
    st.lists(_number, max_size=4),  # one flat sample
    st.integers(1, 2_000).map(lambda n: [[0.25, 0.75]] * n),  # many valid rows
    st.integers(1, 200).map(lambda depth: json.loads("[" * depth + "0.5" + "]" * depth)),
    _number,
)


def _json_body(payload):
    return json.dumps(payload).encode()  # NaN and Infinity survive as literals


_bodies = st.one_of(
    st.builds(lambda inputs: _json_body({"inputs": inputs}), _inputs),
    st.builds(_json_body, st.dictionaries(st.text(max_size=6), _number, max_size=3)),
    st.binary(max_size=256),
    st.integers(1, 2_000).map(lambda depth: b"[" * depth),
)


@st.composite
def _predict_requests(draw):
    """A well-framed POST /v1/predict, its body possibly cut short."""
    body = draw(_bodies)
    sent = body[:draw(st.integers(0, len(body)))] if draw(st.booleans()) else body
    head = (b"POST /v1/predict HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n")
    return head + sent, draw(st.booleans())


class TestFuzzedRequests:
    @FUZZ
    @given(request=_framed_requests())
    def test_any_framing_gets_a_4xx_2xx_or_a_close(self, server, request):
        raw, half_close = request
        _check(server, raw, half_close)

    @FUZZ
    @given(request=_predict_requests())
    def test_any_predict_body_gets_a_4xx_2xx_or_a_close(self, server, request):
        raw, half_close = request
        _check(server, raw, half_close)

    def test_server_still_serves_after_the_fuzz(self, server):
        payload = json.dumps({"inputs": [[0.25, 0.75]]}).encode()
        response = _exchange(
            server.url,
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: "
            + str(len(payload)).encode() + b"\r\n\r\n" + payload,
            half_close=False,
        )
        assert response.startswith(b"HTTP/1.1 200 OK")
