"""Tests for the in-process test client and the real HTTP server."""

import contextlib
import json
import re
import socket
import threading
import time
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.web import App, HTTPError, TestClient, serve, server
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


# -- the socket boundary ----------------------------------------------------------


def _workers(handle) -> list[threading.Thread]:
    """The named worker threads of ``handle``'s server that are alive."""
    prefix = f"repro.web.server:{handle.port}/"
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


def _send_all(handle, data: bytes, timeout: float = 10.0) -> bytes:
    """Send ``data``, shut down the write side and read until the server closes."""
    with socket.create_connection((handle.host, handle.port), timeout=timeout) as sock:
        sock.sendall(data)
        with contextlib.suppress(OSError):  # the server may have closed already
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _parse(reply: bytes) -> tuple[int, dict[str, str], bytes]:
    """(status, headers, body) of a raw HTTP reply."""
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *fields = head.decode("latin-1").split("\r\n")
    headers = dict(field.split(": ", 1) for field in fields)
    return int(status_line.split()[1]), headers, body


def _json_reply(handle, data: bytes) -> tuple[int, dict]:
    """Status and JSON body of the reply to ``data``."""
    status, headers, body = _parse(_send_all(handle, data))
    assert headers["Content-Type"] == "application/json"
    assert int(headers["Content-Length"]) == len(body)
    return status, json.loads(body)


class TestMalformedRequests:
    """Requests the server will not read further get a JSON 4xx and a close."""

    @pytest.mark.parametrize(
        "line",
        [
            b"GET /ping\r\n",  # HTTP/0.9: no version
            b"GET /ping HTTP/2.0\r\n",
            b"GET  /ping HTTP/1.1\r\n",
            b"GET /ping HTTP/1.1 extra\r\n",
            b"\x00\xff garbage\r\n",
        ],
    )
    def test_malformed_request_line_is_400(self, app, line):
        with serve(app) as handle:
            status, body = _json_reply(handle, line + b"\r\n")
        assert status == 400 and body["status"] == 400

    # The overlong lines below stop one byte past the limit, so the server
    # reads every byte sent and the client never writes into a closed socket.

    def test_overlong_request_line_is_414(self, app):
        line = b"GET /" + b"a" * (server.MAX_LINE_BYTES - 4)
        with serve(app) as handle:
            status, _ = _json_reply(handle, line)
        assert status == 414

    def test_overlong_header_line_is_431(self, app):
        field = b"X-Big: " + b"a" * (server.MAX_LINE_BYTES - 6)
        with serve(app) as handle:
            status, _ = _json_reply(handle, b"GET /ping HTTP/1.1\r\n" + field)
        assert status == 431

    @pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "repeated"])
    def test_too_many_headers_is_431(self, app, distinct):
        names = [f"X-{i}" if distinct else "X-Same" for i in range(server.MAX_HEADERS + 1)]
        fields = [f"{name}: 1\r\n".encode() for name in names]
        with serve(app) as handle:
            over = b"GET /ping HTTP/1.1\r\n" + b"".join(fields) + b"\r\n"
            at_limit = b"GET /ping HTTP/1.1\r\n" + b"".join(fields[:-1]) + b"\r\n"
            assert _json_reply(handle, over)[0] == 431
            assert _parse(_send_all(handle, at_limit))[0] == 200

    def test_transfer_encoding_is_411_without_reading_a_body(self, app):
        head = b"POST /double HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with serve(app) as handle:
            # no body follows and the write side stays open: a server that
            # tried to read one would hang
            status, body = _raw_exchange(handle, head)
        assert status == 411 and body["status"] == 411

    def test_differing_content_lengths_are_400(self, app):
        head = (
            b"POST /double HTTP/1.1\r\nContent-Length: 8\r\n"
            b"content-length: 9\r\n\r\n"
        )
        with serve(app) as handle:
            status, body = _json_reply(handle, head + b'{"x": 1}')
        assert status == 400 and "Content-Length" in body["error"]

    def test_equal_content_lengths_are_served(self, app):
        head = b"POST /double HTTP/1.1\r\nContent-Length: 8\r\ncontent-length: 8\r\n\r\n"
        with serve(app) as handle:
            status, body = _json_reply(handle, head + b'{"x": 4}')
        assert (status, body) == (200, {"out": 8})

    @pytest.mark.parametrize("path, expected", [("/ping", 405), ("/nowhere", 404)])
    def test_unknown_method_goes_to_the_app(self, app, path, expected):
        with serve(app) as handle:
            status, _ = _json_reply(handle, f"BREW {path} HTTP/1.1\r\n\r\n".encode())
        assert status == expected

    def test_body_cut_short_by_eof_gets_no_reply(self, app):
        head = _post_head("20")
        with serve(app) as handle:
            assert _send_all(handle, head + b'{"x": 1}') == b""
            assert _parse(_send_all(handle, b"GET /ping HTTP/1.0\r\n\r\n"))[0] == 200

    def test_head_gets_headers_without_a_body(self, app):
        app.route("/ping", methods=("HEAD",))(lambda request: {"pong": True})
        with serve(app) as handle:
            status, headers, body = _parse(_send_all(handle, b"HEAD /ping HTTP/1.1\r\n\r\n"))
        assert status == 200 and body == b""
        assert int(headers["Content-Length"]) == len(b'{"pong": true}')

    def test_header_names_reach_the_app_as_sent(self, app):
        seen = {}

        @app.route("/headers")
        def headers(request):
            seen.update(request.headers)
            return {}

        with serve(app) as handle:
            _send_all(handle, b"GET /headers HTTP/1.1\r\nX-Request-Id: r1\r\nhost:  h \r\n\r\n")
        assert seen == {"X-Request-Id": "r1", "host": "h"}


def _fuzz_app() -> App:
    """Handlers that cannot fail, so any 5xx would be the server's."""
    a = App()

    @a.route("/ping")
    def ping(request):
        return {"pong": True}

    @a.route("/echo", methods=("POST", "PUT"))
    def echo(request):
        return {"n": len(request.body)}

    return a


_tokens = st.sampled_from(["GET", "POST", "PUT", "HEAD", "DELETE", "BREW", "get", "G@T", ""])
_targets = st.sampled_from(["/ping", "/echo", "/missing", "//echo", "/echo?x=1", "*", "/[", ""])
_versions = st.sampled_from(["HTTP/1.0", "HTTP/1.1", "HTTP/2.0", "HTTP/1.x", ""])
_field_names = st.sampled_from(
    ["Content-Length", "content-length", "Transfer-Encoding", "Host", "X-Request-Id", "Bad Name", ""]
)
_field_values = (
    st.sampled_from(["0", "5", "16", "-1", "abc", "9999999999", "chunked", ""]) | st.text(max_size=8)
)
_eols = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def _structured_request(draw) -> bytes:
    eol = draw(_eols)
    line = f"{draw(_tokens)} {draw(_targets)} {draw(_versions)}{eol}"
    fields = draw(st.lists(st.tuples(_field_names, _field_values), max_size=4))
    head = line + "".join(f"{n}: {v}{eol}" for n, v in fields) + draw(_eols | st.just(""))
    return head.encode("utf-8") + draw(st.binary(max_size=64))


_raw_requests = _structured_request() | st.binary(max_size=512)


class TestSocketBoundary:
    """The pool and the per-connection deadline, over real sockets."""

    def test_arbitrary_bytes_never_get_a_5xx(self):
        with serve(_fuzz_app()) as handle:

            @given(data=_raw_requests)
            @settings(max_examples=150, deadline=None)
            def check(data):
                # a read that waits out the server's timeout raises here
                reply = _send_all(handle, data, timeout=server.READ_TIMEOUT_S / 2)
                if reply:
                    assert re.match(rb"HTTP/1\.[01] [1-4]\d\d ", reply), reply[:80]

            check()
            assert _parse(_send_all(handle, b"GET /ping HTTP/1.1\r\n\r\n"))[0] == 200
            assert len(_workers(handle)) == server.POOL_SIZE

    def test_pool_bounds_the_threads_a_burst_creates(self, app):
        release, started = threading.Event(), threading.Semaphore(0)

        @app.route("/wait")
        def wait(request):
            started.release()
            release.wait(10)
            return {"done": True}

        baseline = threading.active_count()
        with serve(app) as handle:
            socks = [
                socket.create_connection((handle.host, handle.port), timeout=10)
                for _ in range(2 * server.POOL_SIZE)
            ]
            try:
                for sock in socks:
                    sock.sendall(b"GET /wait HTTP/1.1\r\n\r\n")
                for _ in range(server.POOL_SIZE):
                    assert started.acquire(timeout=10)
                    assert threading.active_count() <= baseline + server.POOL_SIZE
                # every worker is busy: the rest wait in the backlog
                assert not started.acquire(timeout=0.2)
                assert threading.active_count() <= baseline + server.POOL_SIZE
                release.set()
                replies = []
                for sock in socks:
                    chunks = []
                    while chunk := sock.recv(65536):
                        chunks.append(chunk)
                    replies.append(_parse(b"".join(chunks)))
            finally:
                for sock in socks:
                    sock.close()
        assert [status for status, _, _ in replies] == [200] * len(socks)

    def test_stalled_clients_time_out_and_free_their_workers(self, app, monkeypatch):
        monkeypatch.setattr(server, "READ_TIMEOUT_S", 0.2)
        with serve(app) as handle:
            silent = [
                socket.create_connection((handle.host, handle.port), timeout=10)
                for _ in range(server.POOL_SIZE)
            ]
            try:
                t0 = time.perf_counter()
                with urllib.request.urlopen(f"{handle.url}/ping", timeout=10) as resp:
                    assert json.loads(resp.read()) == {"pong": True}
                assert time.perf_counter() - t0 < 5
                for sock in silent:
                    assert sock.recv(1) == b""  # closed by the server
            finally:
                for sock in silent:
                    sock.close()

    def test_a_trickling_client_is_cut_off_at_the_deadline(self, app, monkeypatch):
        monkeypatch.setattr(server, "READ_TIMEOUT_S", 0.3)
        with serve(app) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                # one header byte per 0.05 s: every recv is well inside the
                # timeout, so only a deadline on the whole request ends it
                sock.sendall(b"GET /ping HTTP/1.1\r\nX-Slow: ")
                sock.settimeout(0.05)
                t0, closed = time.perf_counter(), False
                while not closed and time.perf_counter() - t0 < 5:
                    try:
                        sock.sendall(b"a")
                        closed = sock.recv(1) == b""
                    except TimeoutError:
                        continue
                    except OSError:  # reset or broken pipe
                        closed = True
                elapsed = time.perf_counter() - t0
        assert closed and elapsed < 3

    def test_stop_joins_every_worker_of_an_idle_server(self, app):
        handle = serve(app)
        workers = _workers(handle)
        assert len(workers) == server.POOL_SIZE
        handle.stop()
        assert not any(t.is_alive() for t in workers)
        handle.stop()  # a second stop does nothing

    def test_stop_lets_a_request_in_flight_finish(self, app):
        release, entered = threading.Event(), threading.Event()

        @app.route("/slow")
        def slow(request):
            entered.set()
            release.wait(10)
            return {"done": True}

        handle = serve(app)
        workers = _workers(handle)
        assert len(workers) == server.POOL_SIZE
        with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
            sock.sendall(b"GET /slow HTTP/1.1\r\n\r\n")
            assert entered.wait(10)
            stopper = threading.Thread(target=handle.stop)
            stopper.start()
            stopper.join(0.2)
            assert stopper.is_alive()  # waiting for the request in flight
            release.set()
            stopper.join(10)
            assert not stopper.is_alive()
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        status, _, body = _parse(b"".join(chunks))
        assert (status, json.loads(body)) == (200, {"done": True})
        assert not any(t.is_alive() for t in workers)
