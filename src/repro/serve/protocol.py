"""Minimal JSON-over-HTTP/1.1 wire helpers (server and client side).

The daemon is dependency-free by design — no aiohttp, no starlette — so this
module implements just enough of HTTP/1.1 over asyncio streams for a JSON
API: request parsing with Content-Length bodies, keep-alive connections, and
a tiny pipelining-free client used by the load generator and the tests.

Limits are deliberately tight (64 KiB headers, 1 MiB bodies): every payload
in the assignment API is small, and tight limits keep a misbehaving client
from ballooning daemon memory.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Maps straight to an HTTP error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "keep-alive").lower() != "close"

    def json(self) -> object:
        """Decode the body as JSON; raises :class:`HttpError` 400 on garbage."""
        if not self.body:
            raise HttpError(400, "expected a JSON body")
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Read one request off the stream; ``None`` on a clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request head too large") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length: {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(400, f"unacceptable Content-Length: {length}")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return Request(method=method.upper(), path=path, headers=headers, body=body)


def encode_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: "dict[str, str] | None" = None,
) -> bytes:
    """Serialize one HTTP/1.1 response.

    ``extra_headers`` (e.g. ``x-trace-id``) are appended after the standard
    set; names and values must be latin-1 encodable.
    """
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n"
        f"{extra}"
        "\r\n"
    )
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: object,
    keep_alive: bool = True,
    extra_headers: "dict[str, str] | None" = None,
) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return encode_response(
        status, body, keep_alive=keep_alive, extra_headers=extra_headers
    )


def text_response(
    status: int,
    text: str,
    content_type: str = "text/plain; version=0.0.4",
    keep_alive: bool = True,
) -> bytes:
    return encode_response(
        status, text.encode("utf-8"), content_type=content_type, keep_alive=keep_alive
    )


class HttpClient:
    """A serial keep-alive JSON client for one daemon connection.

    Not safe for concurrent requests on the same instance — the load
    generator gives each simulated worker its own client, which also makes
    the traffic shape realistic (one connection per worker session).
    """

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        #: Response headers of the most recent request (lower-cased names);
        #: lets callers read e.g. ``x-trace-id`` without changing the
        #: ``(status, body)`` return shape.
        self.last_headers: dict[str, str] = {}
        #: TCP connections this client has opened.  A keep-alive session
        #: stays at 1; every increment past that is a reconnect after a
        #: drop or a ``Connection: close`` response — the loadgen folds
        #: these into its result so connection churn is a gated number.
        self.connections_opened = 0

    async def _ensure_connected(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
            self.connections_opened += 1

    async def request(
        self,
        method: str,
        path: str,
        payload: object | None = None,
        headers: "dict[str, str] | None" = None,
    ) -> tuple[int, object]:
        """Send one request; returns ``(status, decoded_body)``.

        JSON responses are decoded; anything else comes back as ``str``.
        Retries once on a dropped keep-alive connection.  Extra ``headers``
        (e.g. ``x-deadline-ms``) are appended to the standard set.
        """
        body = b""
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self._host}:{self._port}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: keep-alive\r\n"
            f"{extra}"
            "\r\n"
        )
        raw = head.encode("latin-1") + body
        for attempt in (0, 1):
            await self._ensure_connected()
            assert self._reader is not None and self._writer is not None
            try:
                self._writer.write(raw)
                await self._writer.drain()
                return await self._read_response()
            except (ConnectionError, asyncio.IncompleteReadError, EOFError):
                await self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    async def _read_response(self) -> tuple[int, object]:
        assert self._reader is not None
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        self.last_headers = headers
        length = int(headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        if "application/json" in headers.get("content-type", ""):
            return status, json.loads(body) if body else None
        return status, body.decode("utf-8")

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
            self._reader = None
