"""HTTP front of the serving layer: routes, errors, metrics exposure.

Differential bit-identity over HTTP is covered in
``tests/test_serve_differential.py``; this file owns the protocol
surface — payload validation to 400s, the health/model routes, the
OpenMetrics exposition of the ``serve_*`` families and the
:class:`BackgroundServer` start/stop lifecycle.
"""

import json
import socket
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.core.mei import MEI, MEIConfig
from repro.nn.trainer import TrainConfig
from repro.obs import openmetrics
from repro.serve import BackgroundServer, load_artifact, save_artifact
from repro.serve import service as service_module

TINY = MEIConfig(in_groups=2, out_groups=1, hidden=6, bits=4)


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    rng = np.random.default_rng(0)
    mei = MEI(TINY, seed=0).train(
        rng.uniform(0.0, 1.0, (32, TINY.in_groups)),
        rng.uniform(0.0, 1.0, (32, TINY.out_groups)),
        TrainConfig(epochs=3, batch_size=16, learning_rate=0.02, shuffle_seed=0),
    )
    path = tmp_path_factory.mktemp("serve") / "model.npz"
    save_artifact(mei, path, benchmark="fft")
    return load_artifact(path)


@pytest.fixture
def server(model):
    with BackgroundServer(model, port=0) as running:
        yield running


def _request(url, method="GET", payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class TestPredictRoute:
    def test_predict_matches_in_process_engine(self, server):
        probe = np.random.default_rng(1).uniform(0.0, 1.0, (3, TINY.in_groups))
        status, body = _request(server.url + "/v1/predict", "POST",
                                {"inputs": probe.tolist()})
        assert status == 200
        payload = json.loads(body)
        assert payload["samples"] == 3
        expected = server.service.engine.predict(probe)
        assert np.array_equal(np.asarray(payload["outputs"]), expected)

    def test_flat_sample_is_one_request(self, server):
        status, body = _request(server.url + "/v1/predict", "POST",
                                {"inputs": [0.25, 0.75]})
        assert status == 200
        assert json.loads(body)["samples"] == 1

    @pytest.mark.parametrize("payload", [
        {"inputs": "garbage"},
        {"inputs": [[0.1, 0.2, 0.3]]},     # wrong width
        {"inputs": [[0.1, 2.5]]},          # outside the unit interval
        {"inputs": [[0.1, float("nan")]]},
        {"wrong_key": [[0.1, 0.2]]},
        {"inputs": [[int("1" * 400), 0.5]]},  # overflows float64
    ])
    def test_malformed_payload_is_400(self, server, payload):
        body = json.loads(json.dumps(payload))  # NaN -> "NaN" survives dumps
        status, raw = _request(server.url + "/v1/predict", "POST", body)
        assert status == 400
        assert "error" in json.loads(raw)

    def test_non_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/predict", data=b"not json {", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_deeply_nested_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/predict", data=b"[" * 100_000, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_unexpected_error_is_500_and_server_keeps_serving(
            self, server, monkeypatch):
        def broken(values):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(server.service.engine, "validate", broken)
        status, raw = _request(server.url + "/v1/predict", "POST",
                               {"inputs": [[0.25, 0.75]]})
        assert status == 500
        assert "RuntimeError: engine fault" in json.loads(raw)["error"]
        monkeypatch.undo()
        status, raw = _request(server.url + "/v1/predict", "POST",
                               {"inputs": [[0.25, 0.75]]})
        assert status == 200
        assert json.loads(raw)["samples"] == 1


def _raw_request(url, head, timeout=30):
    """Send raw request bytes; return the status code and JSON body."""
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=timeout) as sock:
        sock.sendall(head)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    status_line, _, rest = response.partition(b"\r\n")
    _, _, body = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(body)


class TestContentLength:
    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_bad_content_length_is_400(self, server, length):
        status, body = _raw_request(
            server.url,
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_valid_content_length_still_served(self, server):
        payload = json.dumps({"inputs": [[0.25, 0.75]]}).encode()
        status, body = _raw_request(
            server.url,
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: "
            + str(len(payload)).encode() + b"\r\n\r\n" + payload,
        )
        assert status == 200
        assert body["samples"] == 1


class TestBoundedRequestRead:
    """A request read never hangs and never escapes as a traceback."""

    @pytest.fixture(autouse=True)
    def short_read_timeout(self, monkeypatch):
        monkeypatch.setattr(service_module, "_READ_TIMEOUT_S", 0.2)

    def test_partial_header_block_times_out_with_408(self, server):
        status, body = _raw_request(
            server.url,
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: 10\r\n",
            timeout=5,
        )
        assert status == 408
        assert "error" in body

    def test_header_line_over_the_reader_limit_is_431(self, server):
        status, body = _raw_request(
            server.url,
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 80_000 + b"\r\n\r\n",
            timeout=5,
        )
        assert status == 431
        assert "error" in body

    def test_header_block_over_the_line_cap_is_431(self, server):
        def healthz(n_headers):
            headers = b"".join(b"X-Header-%d: %d\r\n" % (i, i) for i in range(n_headers))
            return _raw_request(
                server.url, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n", timeout=5
            )

        status, body = healthz(200)
        assert status == 431
        assert "header lines" in body["error"]
        assert healthz(0)[0] == 200
        assert healthz(service_module._MAX_HEADER_LINES)[0] == 200
        assert healthz(service_module._MAX_HEADER_LINES + 1)[0] == 431

    def test_prompt_request_still_served(self, server):
        status, body = _raw_request(server.url, b"GET /healthz HTTP/1.1\r\n\r\n",
                                    timeout=5)
        assert status == 200
        assert body["status"] == "ok"


class TestOtherRoutes:
    def test_healthz(self, server):
        status, body = _request(server.url + "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok", "system": "mei"}

    def test_model_summary(self, server):
        status, body = _request(server.url + "/model")
        assert status == 200
        summary = json.loads(body)
        assert summary["system"] == "mei"
        assert summary["benchmark"] == "fft"
        assert summary["interface"] == {"B_I": TINY.bits, "B_O": TINY.bits,
                                        "B_N": TINY.bits}
        assert summary["members"] == 1
        assert summary["digest"]

    def test_unknown_route_is_404(self, server):
        status, _ = _request(server.url + "/nope")
        assert status == 404

    def test_metrics_exposition_carries_serve_families(self, server):
        probe = [[0.5, 0.5]]
        assert _request(server.url + "/v1/predict", "POST",
                        {"inputs": probe})[0] == 200
        status, body = _request(server.url + "/metrics")
        assert status == 200
        text = body.decode()
        openmetrics.validate(text)
        for family in ("serve_requests", "serve_responses", "serve_batches",
                       "serve_queue_depth", "serve_batch_size",
                       "serve_request_latency_seconds",
                       "serve_queue_wait_seconds", "serve_compute_seconds"):
            assert family in text


class TestBackgroundServerStop:
    def test_stop_closes_loop_and_socket_and_is_idempotent(self, model):
        server = BackgroundServer(model, port=0).start()
        assert _request(server.url + "/healthz")[0] == 200
        loop = server._loop
        address = (server.service.host, server.service.port)
        server.stop()
        assert loop.is_closed()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5).close()
        server.stop()  # no-op
        assert loop.is_closed()


class TestServeSmoke:
    """``python -m repro serve --smoke``: the CI serve check, in process."""

    def _smoke(self, tmp_path, capsys):
        from repro.__main__ import main

        code = main(["serve", "--bench", "fft", "--smoke", "--run-dir", str(tmp_path)])
        return code, json.loads(capsys.readouterr().out)

    def test_every_request_answers(self, tmp_path, capsys):
        code, summary = self._smoke(tmp_path, capsys)
        assert code == 0
        assert summary["failures"] == []
        assert summary["requests"] == {"sent": 40, "ok": 40}

    def test_failing_engine_exits_2(self, tmp_path, capsys, monkeypatch):
        from repro.serve.batcher import InferenceEngine

        def broken(self, values):
            raise RuntimeError("engine fault")

        monkeypatch.setattr(InferenceEngine, "validate", broken)
        code, summary = self._smoke(tmp_path, capsys)
        assert code == 2
        assert summary["requests"] == {"sent": 40, "ok": 0}
        assert any(f.startswith("differential check: HTTP 500") for f in summary["failures"])
