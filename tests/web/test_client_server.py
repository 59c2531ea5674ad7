"""Tests for the in-process test client and the real HTTP server."""

import json
import socket
import urllib.request

import pytest

from repro.web import App, HTTPError, TestClient, serve
from repro.web.server import MAX_BODY_BYTES


@pytest.fixture()
def app():
    a = App()

    @a.route("/ping")
    def ping(request):
        return {"pong": True}

    @a.route("/double", methods=("POST",))
    def double(request):
        return {"out": request.json()["x"] * 2}

    @a.route("/fail")
    def fail(request):
        raise HTTPError(409, "conflict!")

    return a


class TestInProcessClient:
    def test_get(self, app):
        c = TestClient(app)
        assert c.get("/ping").json() == {"pong": True}

    def test_post(self, app):
        c = TestClient(app)
        assert c.post("/double", json_body={"x": 21}).json() == {"out": 42}

    def test_verbs(self, app):
        c = TestClient(app)
        assert c.put("/ping").status == 405
        assert c.delete("/ping").status == 405

    def test_error_status(self, app):
        assert TestClient(app).get("/fail").status == 409


class TestRealServer:
    def test_round_trip_over_socket(self, app):
        with serve(app) as handle:
            assert handle.port > 0
            with urllib.request.urlopen(f"{handle.url}/ping", timeout=5) as resp:
                assert resp.status == 200
                assert json.loads(resp.read()) == {"pong": True}

    def test_post_over_socket(self, app):
        with serve(app) as handle:
            req = urllib.request.Request(
                f"{handle.url}/double",
                data=json.dumps({"x": 5}).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=5) as resp:
                assert json.loads(resp.read()) == {"out": 10}

    def test_error_over_socket(self, app):
        with serve(app) as handle:
            try:
                urllib.request.urlopen(f"{handle.url}/missing", timeout=5)
                raised = False
            except urllib.error.HTTPError as e:
                raised = True
                assert e.code == 404
            assert raised

    def test_stop_idempotent_context(self, app):
        handle = serve(app)
        handle.stop()
        # after stop the port is closed
        with pytest.raises(Exception):
            urllib.request.urlopen(f"{handle.url}/ping", timeout=1)


def _raw_exchange(handle, head: bytes, body: bytes = b"") -> tuple[int, dict]:
    """Send raw bytes, read until the server closes; (status, JSON body)."""
    with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
        sock.sendall(head + body)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    reply = b"".join(chunks)
    status_line, _, rest = reply.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])


def _post_head(length: str) -> bytes:
    return (
        "POST /double HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: application/json\r\nContent-Length: {length}\r\n\r\n"
    ).encode()


class TestContentLength:
    """The socket adapter validates Content-Length before reading a byte."""

    @pytest.mark.parametrize("length", ["abc", "-1", "1.5"])
    def test_bad_length_is_400(self, app, length):
        with serve(app) as handle:
            status, body = _raw_exchange(handle, _post_head(length), b'{"x": 1}')
        assert status == 400 and "Content-Length" in body["error"]

    def test_oversize_length_is_413_without_reading_the_body(self, app):
        with serve(app) as handle:
            # no body follows: a server that tried to read it would hang
            status, body = _raw_exchange(handle, _post_head(str(MAX_BODY_BYTES + 1)))
        assert status == 413 and body["status"] == 413
