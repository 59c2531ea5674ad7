"""Application object, routing and request/response types."""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from typing import Callable
from urllib.parse import parse_qs, urlsplit

__all__ = ["Request", "Response", "HTTPError", "App"]

_log = logging.getLogger(__name__)

_STATUS_TEXT = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One HTTP request as seen by a handler."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        """Parse the body as JSON (raises :class:`HTTPError` 400 on garbage)."""
        if not self.body:
            raise HTTPError(400, "expected a JSON body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from exc

    def arg(self, name: str, default: str | None = None) -> str | None:
        """First query-string value of ``name``."""
        values = self.query.get(name)
        return values[0] if values else default


@dataclass
class Response:
    """Handler output."""

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def status_line(self) -> str:
        return f"{self.status} {_STATUS_TEXT.get(self.status, 'Unknown')}"

    def json(self):
        """Decode the body as JSON (test convenience)."""
        return json.loads(self.body.decode("utf-8"))

    @staticmethod
    def from_handler_result(result) -> "Response":
        """Coerce a handler's return value.

        Handlers may return a :class:`Response`, a JSON-serializable object
        (dict/list → 200 application/json), or a ``(obj, status)`` tuple.
        """
        if isinstance(result, Response):
            return result
        status = 200
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], int):
            result, status = result
        body = json.dumps(result).encode("utf-8")
        return Response(status, {"Content-Type": "application/json"}, body)


class HTTPError(Exception):
    """Raise from a handler to produce a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message

    def response(self) -> Response:
        """The JSON error response: ``{"error": message, "status": status}``."""
        body = json.dumps({"error": self.message, "status": self.status}).encode("utf-8")
        return Response(self.status, {"Content-Type": "application/json"}, body)


_PARAM_RE = re.compile(r"<(?:(int|float|str):)?([A-Za-z_][A-Za-z_0-9]*)>")

_CONVERTERS = {"int": int, "float": float, "str": str, None: str}


def _compile_rule(rule: str):
    """Compile ``/models/<int:version>`` into a regex + converters."""
    if not rule.startswith("/"):
        raise ValueError(f"route rule must start with '/': {rule!r}")
    pattern = ""
    converters: dict[str, Callable] = {}
    pos = 0
    for m in _PARAM_RE.finditer(rule):
        pattern += re.escape(rule[pos : m.start()])
        kind, name = m.group(1), m.group(2)
        if name in converters:
            raise ValueError(f"duplicate path parameter {name!r} in {rule!r}")
        converters[name] = _CONVERTERS[kind]
        pattern += f"(?P<{name}>[^/]+)"
        pos = m.end()
    pattern += re.escape(rule[pos:])
    return re.compile(f"^{pattern}$"), converters


class App:
    """Route registry and request dispatcher."""

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._routes: list[tuple[re.Pattern, dict, dict[str, Callable]]] = []

    def route(self, rule: str, methods: tuple[str, ...] = ("GET",)):
        """Decorator registering a handler for ``rule`` and ``methods``.

        The handler receives ``(request, **path_params)``.
        """
        regex, converters = _compile_rule(rule)
        methods = tuple(m.upper() for m in methods)

        def decorator(fn: Callable) -> Callable:
            for pattern, _, table in self._routes:
                if pattern.pattern == regex.pattern:
                    for m in methods:
                        if m in table:
                            raise ValueError(f"duplicate route {m} {rule}")
                    table.update({m: fn for m in methods})
                    return fn
            self._routes.append((regex, converters, {m: fn for m in methods}))
            return fn

        return decorator

    # -- dispatch ------------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Route and execute one request, converting errors to responses."""
        try:
            return self._dispatch(request)
        except HTTPError as exc:
            return exc.response()
        except Exception as exc:  # noqa: BLE001 - boundary: never crash the server
            # the traceback goes to the server log; the client gets type and
            # message only, since frames would leak file paths
            _log.exception("unhandled error in %s %s", request.method, request.path)
            detail = f"{type(exc).__name__}: {exc}"
            return HTTPError(500, f"internal error: {detail}").response()

    def _dispatch(self, request: Request) -> Response:
        path_matched = False
        for regex, converters, table in self._routes:
            m = regex.match(request.path)
            if not m:
                continue
            path_matched = True
            handler = table.get(request.method.upper())
            if handler is None:
                continue
            kwargs = {}
            for name, conv in converters.items():
                try:
                    kwargs[name] = conv(m.group(name))
                except ValueError as exc:
                    raise HTTPError(404, f"bad path parameter {name!r}") from exc
            return Response.from_handler_result(handler(request, **kwargs))
        if path_matched:
            raise HTTPError(405, f"method {request.method} not allowed on {request.path}")
        raise HTTPError(404, f"no route for {request.path}")

    # -- convenience --------------------------------------------------------------

    @staticmethod
    def build_request(
        method: str,
        url: str,
        *,
        headers: dict[str, str] | None = None,
        body: bytes | None = None,
        json_body=None,
    ) -> Request:
        """Construct a :class:`Request` from a URL (used by client & server)."""
        parts = urlsplit(url)
        if json_body is not None:
            if body is not None:
                raise ValueError("pass either body or json_body, not both")
            body = json.dumps(json_body).encode("utf-8")
            headers = {**(headers or {}), "Content-Type": "application/json"}
        return Request(
            method=method.upper(),
            path=parts.path or "/",
            query=parse_qs(parts.query),
            headers=headers or {},
            body=body or b"",
        )
