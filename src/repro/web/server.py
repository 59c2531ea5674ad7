"""HTTP server adapter on the standard library.

Runs an :class:`repro.web.App` behind
:class:`http.server.ThreadingHTTPServer`.  :func:`serve` returns a
:class:`ServerHandle` running on a daemon thread, so tests and the deploy
script can start, probe and stop a real socket server.

A request whose ``Content-Length`` is not a non-negative integer gets a
400, and one declaring more than :data:`MAX_BODY_BYTES` gets a 413; in
both cases the body is never read and the connection is closed.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.web.app import App, HTTPError

__all__ = ["MAX_BODY_BYTES", "serve", "ServerHandle"]

#: Largest request body the server reads.  The busiest day of the
#: synthetic trace at full scale, sent as one ``/predict`` of feature-only
#: records, is about 4 MiB of JSON.
MAX_BODY_BYTES = 8 * 1024 * 1024


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


def _make_handler(app: App):
    class Handler(BaseHTTPRequestHandler):
        # silence per-request stderr logging
        def log_message(self, fmt, *args):  # noqa: D102
            pass

        def _run(self) -> None:
            request = App.build_request(
                self.command,
                self.path,
                headers={k: v for k, v in self.headers.items()},
            )
            try:
                length = _body_length(self.headers.get("Content-Length"))
            except HTTPError as exc:
                # the unread body would corrupt the next request on this connection
                self.close_connection = True
                response = app._render_error(exc.status, exc.message, request)
            else:
                request.body = self.rfile.read(length) if length else b""
                response = app.handle(request)
            self.send_response(response.status)
            payload = response.body
            headers = dict(response.headers)
            headers.setdefault("Content-Type", "application/json")
            headers["Content-Length"] = str(len(payload))
            for k, v in headers.items():
                self.send_header(k, v)
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(payload)

        do_GET = do_POST = do_PUT = do_DELETE = do_HEAD = _run

    return Handler


class ServerHandle:
    """A running server: address, and a stop switch."""

    def __init__(self, server: ThreadingHTTPServer, thread: threading.Thread) -> None:
        self._server = server
        self._thread = thread

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        self._server.shutdown()
        self._thread.join(timeout=10)
        self._server.server_close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(app: App, host: str = "127.0.0.1", port: int = 0) -> ServerHandle:
    """Start ``app`` on a background thread; ``port=0`` picks a free port."""
    server = ThreadingHTTPServer((host, port), _make_handler(app))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return ServerHandle(server, thread)
