"""Minimal asyncio HTTP/1.1: request parsing and response rendering.

Exactly the subset the sweep service needs — request line, headers,
``Content-Length`` bodies, query strings — kept separate from routing
so the parser is unit-testable over ``asyncio.StreamReader`` pairs.
Every response carries ``Connection: close``: one request per
connection keeps the server free of keep-alive timer bookkeeping, and
it is what lets a job's event stream (the only long-lived response)
go without a length: its body is ``data: <json>`` lines in the
Server-Sent Events format, and it ends when the server closes.
"""

from __future__ import annotations

import asyncio
import json
from http import HTTPStatus
from typing import Any, Dict, List, NamedTuple, Optional
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = [
    "HTTPError",
    "Request",
    "event_data",
    "json_response",
    "read_request",
    "render_response",
]

MAX_HEADER_LINE = 16 * 1024
MAX_HEADERS = 64
MAX_BODY = 16 * 1024 * 1024


class HTTPError(Exception):
    """Abort request handling with a specific status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class Request(NamedTuple):
    """One parsed request."""

    method: str
    target: str
    path: str
    query: Dict[str, List[str]]
    headers: Dict[str, str]
    body: bytes

    def param(self, name: str, default: Optional[str] = None
              ) -> Optional[str]:
        """Last value of a query parameter (curl-friendly override)."""
        values = self.query.get(name)
        return values[-1] if values else default

    def json(self) -> Any:
        """The body as JSON; 400 on syntax errors."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HTTPError(400, f"invalid JSON body: {exc}") from exc


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return b""
        raise HTTPError(400, "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HTTPError(431, "header line too long") from exc
    if len(line) > MAX_HEADER_LINE:
        raise HTTPError(431, "header line too long")
    return line


async def read_request(reader: asyncio.StreamReader
                       ) -> Optional[Request]:
    """Parse one request; ``None`` on a clean EOF before any bytes."""
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").rstrip("\r\n").split()
    if len(parts) != 3:
        raise HTTPError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HTTPError(505, f"unsupported version {version!r}")
    headers: Dict[str, str] = {}
    while True:
        raw = await _read_line(reader)
        if raw in (b"\r\n", b""):
            break
        if len(headers) >= MAX_HEADERS:
            raise HTTPError(431, "too many headers")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header {raw!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HTTPError(501, "chunked request bodies not supported")
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HTTPError(400, "bad Content-Length") from exc
        if length < 0 or length > MAX_BODY:
            raise HTTPError(413, f"body over {MAX_BODY} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HTTPError(400, "truncated body") from exc
    split = urlsplit(target)
    return Request(
        method=method.upper(),
        target=target,
        path=unquote(split.path),
        query=parse_qs(split.query),
        headers=headers,
        body=body,
    )


def render_response(status: int, body: Optional[bytes] = b"",
                    content_type: str = "application/json") -> bytes:
    """Serialize one ``Connection: close`` response.

    ``body=None`` renders only the head of a stream: no
    ``Content-Length``, so the body runs until the server closes.
    """
    try:
        reason = HTTPStatus(status).phrase
    except ValueError:
        reason = "Unknown"
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Server: repro-sweep-service",
        f"Content-Type: {content_type}",
        ("Cache-Control: no-cache" if body is None
         else f"Content-Length: {len(body)}"),
        "Connection: close",
    ]
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + (body or b"")


def _json(payload: Any) -> str:
    # Sorted keys: byte-stable for tests/curl.
    return json.dumps(payload, sort_keys=True, default=str)


def json_response(status: int, payload: Any) -> bytes:
    """A JSON response."""
    return render_response(status, (_json(payload) + "\n").encode("utf-8"))


def event_data(payload: Any) -> bytes:
    """One Server-Sent Event: a ``data:`` line of JSON, then a blank line."""
    return f"data: {_json(payload)}\n\n".encode("utf-8")
