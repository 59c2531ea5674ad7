"""Micro web framework (flask substitute).

The paper deploys MCBound as a flask backend exposing the framework's
operations over HTTP (§III-E).  flask is not available offline, so this
package provides the minimal surface the deployment needs, implemented on
the standard library:

- :class:`repro.web.App` — route registration with path parameters
  (``/models/<int:version>``), per-method dispatch, JSON request/response
  handling and error handlers.
- :class:`repro.web.TestClient` — in-process request driver for tests
  (flask's ``test_client`` equivalent).
- :func:`repro.web.serve` — a real HTTP server for live deployment: a
  fixed pool of worker threads blocked in ``accept()`` on one socket,
  each reading a request straight off its connection and writing the
  reply in one send (see :mod:`repro.web.server`).
"""

from repro.web.app import App, Request, Response, HTTPError
from repro.web.client import TestClient
from repro.web.server import serve, ServerHandle

__all__ = [
    "App",
    "Request",
    "Response",
    "HTTPError",
    "TestClient",
    "serve",
    "ServerHandle",
]
