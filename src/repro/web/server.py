"""HTTP server adapter: a fixed pool of accept workers on one socket.

Runs an :class:`repro.web.App` on a plain TCP socket.  :func:`serve`
starts :data:`POOL_SIZE` daemon worker threads, named
``repro.web.server:<port>/<i>``, and returns a :class:`ServerHandle`, so
tests and the deploy script can start, probe and stop a real server.

Every worker blocks in ``accept()`` on the one listening socket.  The
kernel hands each new connection to one idle worker: there is no thread
per connection, no selector loop and no hand-off queue, and a burst of
connections waits in the listen backlog instead of creating threads.
The worker reads one request straight from the socket's buffered reader,
calls :meth:`App.handle`, writes status line, headers and body with one
``sendall`` and closes the connection, as an HTTP/1.0 server does.

A client has :data:`READ_TIMEOUT_S` from ``accept()`` to send its whole
request, and the reply has as long again to be sent, so a silent or
trickling client frees its worker; until then it holds one, and
:data:`POOL_SIZE` such connections stall the service for one timeout.  A
reset, a timeout or garbage bytes close that connection only, and its
worker goes back to ``accept()``.

A request the server will not read further gets a JSON error from the
app's error renderer, its body is never read, and the connection closes:

- a request line that is not ``METHOD SP target SP HTTP/1.0|HTTP/1.1``,
  or a header line that is not ``name: value``: 400;
- a request line over :data:`MAX_LINE_BYTES`: 414; a header line over it,
  or more than :data:`MAX_HEADERS` headers: 431;
- any ``Transfer-Encoding``: 411;
- a ``Content-Length`` that is not a non-negative integer, or two that
  differ: 400; one over :data:`MAX_BODY_BYTES`: 413.

A connection closed before a request line, or a body cut short by EOF,
gets no reply.  Any method goes to the app, so one no route takes gets a
404 or 405.  A ``HEAD`` reply carries the headers only.
"""

from __future__ import annotations

import io
import logging
import re
import socket
import threading
import time

from repro.web.app import App, HTTPError, Request, Response

__all__ = ["MAX_BODY_BYTES", "serve", "ServerHandle"]

_log = logging.getLogger(__name__)

#: Worker threads per server: the most requests served at once, and the
#: most threads any burst of connections occupies.
POOL_SIZE = 8

#: Seconds a client has from ``accept()`` to send its whole request, and
#: the reply to be sent; past either, the worker drops the connection.
READ_TIMEOUT_S = 10.0

#: Largest request body the server reads.  The busiest day of the
#: synthetic trace at full scale, sent as one ``/predict`` of feature-only
#: records, is about 4 MiB of JSON.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Longest request line or header line, and most header lines, read.
MAX_LINE_BYTES = 64 * 1024
MAX_HEADERS = 100

_TOKEN = rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_REQUEST_LINE = re.compile(rb"(%s) ([\x21-\x7e]+) HTTP/1\.[01]\r?\n" % _TOKEN)
_HEADER_LINE = re.compile(rb"(%s):[ \t]*([^\r\n]*?)[ \t]*\r?\n" % _TOKEN)
_BLANK_LINES = (b"\r\n", b"\n")


def _body_length(header: str | None) -> int:
    """The declared body length; HTTPError 400/413 when it is unusable."""
    if not header:
        return 0
    try:
        length = int(header)
    except ValueError:
        length = -1
    if length < 0:
        raise HTTPError(400, "Content-Length must be a non-negative integer")
    if length > MAX_BODY_BYTES:
        raise HTTPError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    return length


class _DeadlineReader(io.RawIOBase):
    """A socket's bytes, every read ending by one deadline.

    A socket timeout bounds each ``recv``, so a client sending a byte per
    timeout would hold its worker for as long as it kept sending.
    """

    def __init__(self, conn: socket.socket, deadline: float) -> None:
        self._conn = conn
        self._deadline = deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request not received in time")
        self._conn.settimeout(left)
        return self._conn.recv_into(buffer)


def _read_request_line(rfile) -> Request | None:
    """The request's method and target; None if the client sent nothing."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise HTTPError(414, f"request line exceeds {MAX_LINE_BYTES} bytes")
    start = _REQUEST_LINE.fullmatch(line)
    if start is None:
        raise HTTPError(400, "malformed request line; expected METHOD SP target SP HTTP/1.x")
    try:
        return App.build_request(start[1].decode("ascii"), start[2].decode("ascii"))
    except ValueError as exc:  # urlsplit refuses e.g. a bad IPv6 authority
        raise HTTPError(400, f"malformed request target: {exc}") from exc


def _read_headers(rfile, headers: dict[str, str]) -> int:
    """Read header lines into ``headers`` (names as sent); the body length."""
    lengths: set[str] = set()
    chunked = False
    n_fields = 0  # repeated names count: they collapse in ``headers``
    while (line := rfile.readline(MAX_LINE_BYTES + 1)) not in _BLANK_LINES:
        if len(line) > MAX_LINE_BYTES:
            raise HTTPError(431, f"header line exceeds {MAX_LINE_BYTES} bytes")
        n_fields += 1
        if n_fields > MAX_HEADERS:
            raise HTTPError(431, f"more than {MAX_HEADERS} headers")
        field = _HEADER_LINE.fullmatch(line)
        if field is None:  # EOF included: the head never ended
            raise HTTPError(400, "malformed or incomplete header line")
        name, value = field[1].decode("ascii"), field[2].decode("latin-1")
        headers[name] = value
        key = name.lower()
        if key == "content-length":
            lengths.add(value)
        elif key == "transfer-encoding":
            chunked = True
    if chunked:
        raise HTTPError(411, "Transfer-Encoding is not supported; send Content-Length")
    if len(lengths) > 1:
        raise HTTPError(400, "conflicting Content-Length headers")
    return _body_length(lengths.pop() if lengths else None)


def _reply(app: App, rfile) -> bytes | None:
    """Read one request off ``rfile`` and render its reply; None sends none."""
    request = Request("", "/")  # stands in until a request line parses
    try:
        parsed = _read_request_line(rfile)
        if parsed is None:
            return None
        request = parsed
        length = _read_headers(rfile, request.headers)
        request.body = rfile.read(length) if length else b""
        if len(request.body) < length:  # cut short by EOF
            return None
        response = app.handle(request)
    except HTTPError as exc:
        response = exc.response()
    return _encode(response, head_only=request.method == "HEAD")


def _encode(response: Response, *, head_only: bool) -> bytes:
    """Status line, headers and (unless ``head_only``) body as one buffer."""
    headers = {"Content-Type": "application/json", **response.headers}
    headers["Content-Length"] = str(len(response.body))
    fields = "".join(f"{k}: {v}\r\n" for k, v in headers.items())
    head = f"HTTP/1.0 {response.status_line}\r\n{fields}\r\n".encode("latin-1")
    return head if head_only else head + response.body


class ServerHandle:
    """A running server: its address, and a stop switch."""

    def __init__(self, app: App, sock: socket.socket) -> None:
        self._app = app
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]
        self._stopping = threading.Event()
        self._workers = [
            threading.Thread(
                target=self._accept_loop, name=f"repro.web.server:{self.port}/{i}", daemon=True
            )
            for i in range(POOL_SIZE)
        ]
        for worker in self._workers:
            worker.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                # e.g. EMFILE, which repeats until a descriptor frees
                self._stopping.wait(0.01)
                continue
            self._serve(conn)

    def _serve(self, conn: socket.socket) -> None:
        """Answer one request on ``conn`` and close it; a fault ends ``conn``
        only, never the worker."""
        try:
            with conn:
                if self._stopping.is_set():  # a wake-up from stop(), or too late
                    return
                deadline = time.monotonic() + READ_TIMEOUT_S
                with io.BufferedReader(_DeadlineReader(conn, deadline)) as rfile:
                    reply = _reply(self._app, rfile)
                if reply is not None:
                    conn.settimeout(READ_TIMEOUT_S)  # sendall's whole duration
                    conn.sendall(reply)
                # FIN first: closing with request bytes unread sends a RST,
                # and a RST with no FIN before it can discard the reply
                conn.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # reset, timeout or broken pipe
        except Exception:  # noqa: BLE001 - boundary: a worker outlives every request
            _log.exception("HTTP worker dropped a connection")

    def stop(self) -> None:
        """Stop accepting, let requests in flight finish, join every worker
        and close the socket.  Calling it again does nothing."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        # One connection per worker wakes each one blocked in accept(); a
        # busy worker sees the flag when its request is done.  Unlike
        # shutdown() on a listening socket, this works on every platform.
        host = {"0.0.0.0": "127.0.0.1", "": "127.0.0.1"}.get(self.host, self.host)
        for _ in self._workers:
            with socket.create_connection((host, self.port), timeout=READ_TIMEOUT_S):
                pass
        for worker in self._workers:
            worker.join()
        self._sock.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(app: App, host: str = "127.0.0.1", port: int = 0) -> ServerHandle:
    """Serve ``app`` from :data:`POOL_SIZE` worker threads; ``port=0`` picks
    a free port."""
    return ServerHandle(app, socket.create_server((host, port)))
