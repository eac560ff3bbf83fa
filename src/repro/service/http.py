"""The one HTTP core: client pool, retry policy and server kit.

Every plane in this repo — the job service (which hosts the fleet
aggregator), the dist coordinator — and every client of them speaks
HTTP through this module, so the wire contract is written (and tested)
once.

**Client side.**  :func:`http_request` separates two failure planes:

* an HTTP *response* — any status, 4xx/5xx included — is returned as an
  :class:`HttpResponse`; interpreting it is the caller's business;
* a *transport* failure (refused/reset, DNS, socket timeout) raises
  :class:`HttpTransportError` after ``retries`` further attempts spaced
  by :data:`TRANSPORT_BACKOFF` — the paper's discipline on our own
  clients: assume the failure is transient, back off, retry, give up.
  ``retries=0`` is the default because only idempotent requests may be
  replayed; callers opt in for GETs and the at-least-once worker verbs.

Transport is a process-wide :class:`HttpConnectionPool` of keep-alive
connections.  One the server reaped while it sat idle is replayed once
on a fresh socket *without* consuming a retry; that can re-execute a
request the server already processed, which every caller here tolerates
(worker verbs are at-least-once, service GETs idempotent).

**Server side.**  Each plane declares one :class:`Routes` table of
``(method, pattern, handler)`` rows (``{name}`` matches one non-empty
path segment; empty ones are skipped) and an error map, exception class
-> ``(status, code, message, details)``.  Its ``handle(method, target,
body)`` calls the first row matching method and path with a
:class:`Request`, renders a mapped exception through the map and any
other as 500 ``internal``, and answers 404 ``unknown-route`` (``no route
METHOD PATH``, the path as sent) when no row matches.  ``dispatch`` also
names the pattern, or :data:`UNMATCHED`: a label that stays bounded.

:func:`bind_server` mounts a plane's ``handle`` on a stdlib
``ThreadingHTTPServer``: HTTP/1.1 keep-alive, GET/POST/DELETE, a thread
per connection, no access log (each plane's metrics are its log).  What
the skin itself answers, before any plane logic runs:

* ``400 bad-request`` + ``Connection: close`` — ``Content-Length`` is
  not a non-negative integer;
* ``413 too-large`` + ``Connection: close`` — it exceeds
  :data:`MAX_BODY`; the body is never read;
* nothing, to a peer silent for :data:`PEER_TIMEOUT` seconds (an idle
  keep-alive, a declared body that never arrives): the connection is
  dropped and its thread freed.  The timeout bounds socket reads and
  writes, never handler work (a long-poll may outlive it); the pool's
  free replay makes the reap invisible to clients.

A request target in absolute form (``GET http://host/healthz``, which
RFC 9112 section 3.2.2 has servers accept) is routed by its path; its
scheme and authority are dropped unread.  An empty 204/304 carries no
``Content-Type``.  Every error any plane sends is the declared
:class:`ErrorBody`, ``{"error": {"code", "message", "details": [...]}}``
(:func:`error_doc`); JSON goes out through :func:`dumps` (sorted keys,
compact, one trailing newline), and a JSON-object body comes in through
:func:`json_object` and becomes a declared dataclass through
:func:`repro.service.codec.decode`, which raises the same
:class:`BadRequest`.  Which 4xx answers which exception is each plane's
error map, the ``ERRORS`` of its module.

**Both ends** of a JSON door read one declaration: a client sends a
declared request and reads the declared reply through
:func:`json_exchange`.

Both ends set ``TCP_NODELAY``, on every plane: the pool on each socket
it connects, the kit on each socket it accepts.  A request and a reply
each go out as two writes (headers, then body); under Nagle the second
waits for the peer's delayed ACK, ~40 ms on Linux, on every exchange.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import socket
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional

from ..core.backoff import BackoffPolicy
from .codec import BadRequest, decode, encode

#: Spacing of transport retries: 0.05 s doubling to 2 s, unjittered.
TRANSPORT_BACKOFF = BackoffPolicy(base=0.05, ceiling=2.0,
                                  jitter_low=1.0, jitter_high=1.0)

#: Idle sockets kept per (scheme, host, port) before extras are closed.
DEFAULT_MAX_IDLE = 4

#: Seconds between ``serve_forever`` looks at its shutdown flag; the
#: stdlib's 0.5 made a socket campaign's coordinator half a second late.
SERVE_POLL = 0.01

#: Largest request body a plane reads: 12x the biggest legitimate ones,
#: a 20 000-span obs push (2.6 MB) and a 16-cell ``ack_many`` of
#: full-scale figure results (0.2 MB).
MAX_BODY = 32 * 1024 * 1024

#: Seconds a peer may stay silent — between keep-alive requests or in
#: the middle of a body — before its handler thread is reclaimed.
PEER_TIMEOUT = 30.0

JSON = "application/json"

#: What a plane's ``handle(method, target, body)`` returns.
Reply = tuple[int, str, bytes]  # status, content type, payload


class HttpTransportError(Exception):
    """The request never produced an HTTP response (even after retries)."""

    def __init__(self, url: str, reason: object, attempts: int = 1) -> None:
        self.url = url
        self.reason = reason
        self.attempts = attempts
        suffix = f" after {attempts} attempts" if attempts > 1 else ""
        super().__init__(f"{url}: {reason}{suffix}")


@dataclass(frozen=True)
class HttpResponse:
    """A decoded-enough HTTP response: status + raw body."""

    status: int
    body: bytes


#: Transport-plane exceptions: the request died without an HTTP status.
_TRANSPORT_ERRORS = (http.client.HTTPException, ConnectionError,
                     TimeoutError, OSError)


class HttpConnectionPool:
    """Persistent keep-alive connections, keyed by (scheme, host, port).

    Connections are used exclusively while checked out (the pool is
    thread-safe; a connection is not), returned when the response was
    read cleanly, and closed when the server asked for it or anything
    went wrong.  A *reused* connection that fails before yielding a
    response is almost always a keep-alive the server reaped while it
    sat idle — that one replay on a fresh socket is free, every other
    failure follows the caller's retry budget.
    """

    def __init__(self, max_idle_per_host: int = DEFAULT_MAX_IDLE) -> None:
        self.max_idle_per_host = max_idle_per_host
        self._idle: dict[tuple[str, str, int],
                         list[http.client.HTTPConnection]] = {}
        self._lock = threading.Lock()
        #: Lifetime counters: how often keep-alive actually paid off.
        self.created = 0
        self.reused = 0

    # ------------------------------------------------------------------
    def _checkout(self, key: tuple[str, str, int],
                  timeout: float) -> tuple[http.client.HTTPConnection, bool]:
        with self._lock:
            stack = self._idle.get(key)
            while stack:
                conn = stack.pop()
                conn.timeout = timeout
                try:
                    if conn.sock is not None:
                        conn.sock.settimeout(timeout)
                except OSError:
                    # The parked socket died outright (closed fd); skip
                    # it — stale-but-open sockets are caught at request
                    # time instead and get the free replay.
                    conn.close()
                    continue
                self.reused += 1
                return conn, True
            self.created += 1
        scheme, host, port = key
        cls = (http.client.HTTPSConnection if scheme == "https"
               else http.client.HTTPConnection)
        return cls(host, port, timeout=timeout), False

    def _checkin(self, key: tuple[str, str, int],
                 conn: http.client.HTTPConnection) -> None:
        with self._lock:
            stack = self._idle.setdefault(key, [])
            if len(stack) < self.max_idle_per_host:
                stack.append(conn)
                return
        conn.close()

    def clear(self) -> None:
        """Close and forget every idle connection.

        Also registered as an after-fork hook: a forked worker must
        never share its parent's sockets — two processes writing one
        TCP stream is protocol corruption, not concurrency.
        """
        with self._lock:
            stacks, self._idle = list(self._idle.values()), {}
        for stack in stacks:
            for conn in stack:
                conn.close()

    # ------------------------------------------------------------------
    def request(
        self,
        url: str,
        method: str = "GET",
        body: Optional[bytes] = None,
        headers: Optional[Mapping[str, str]] = None,
        timeout: float = 30.0,
        retries: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> HttpResponse:
        """One HTTP exchange over a pooled connection; see module doc."""
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise HttpTransportError(url, f"unsupported URL: {url!r}")
        port = parts.port or (443 if parts.scheme == "https" else 80)
        key = (parts.scheme, parts.hostname, port)
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query

        attempt = 0
        while True:
            conn, reused = self._checkout(key, timeout)
            try:
                if conn.sock is None:
                    # Connect eagerly so TCP_NODELAY is on before the
                    # first write: request headers and body go out as
                    # separate segments, and Nagle would park the second
                    # behind the server's delayed ACK (~40ms a request).
                    conn.connect()
                    conn.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.request(method, target, body=body,
                             headers=dict(headers or {}))
                response = conn.getresponse()
                payload = response.read()
            except _TRANSPORT_ERRORS as exc:
                conn.close()
                if reused:
                    # Stale keep-alive: replay on a fresh socket, free.
                    continue
                reason = getattr(exc, "reason", exc)
                if attempt >= retries:
                    raise HttpTransportError(
                        url, reason, attempts=attempt + 1) from None
                attempt += 1
                sleep(TRANSPORT_BACKOFF.raw_delay(attempt))
                continue
            if response.will_close:
                conn.close()
            else:
                self._checkin(key, conn)
            return HttpResponse(response.status, payload)


#: The process-wide pool every repro client shares by default.
SHARED_POOL = HttpConnectionPool()

if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX only
    os.register_at_fork(after_in_child=SHARED_POOL.clear)


def http_request(
    url: str,
    method: str = "GET",
    body: Optional[bytes] = None,
    headers: Optional[Mapping[str, str]] = None,
    timeout: float = 30.0,
    retries: int = 0,
    sleep: Callable[[float], None] = time.sleep,
    pool: Optional[HttpConnectionPool] = None,
) -> HttpResponse:
    """One HTTP exchange over the shared keep-alive pool (or ``pool``).

    Transport failures are retried ``retries`` times; HTTP error
    statuses are *returned* — a 500 is an answer, not an outage.
    """
    chosen = pool if pool is not None else SHARED_POOL
    return chosen.request(url, method=method, body=body, headers=headers,
                          timeout=timeout, retries=retries, sleep=sleep)


def serve_in_thread(server, name: str = "repro-http-server"
                    ) -> Callable[[], None]:
    """Serve a bound ``socketserver`` server on a daemon thread.

    Returns ``stop()``: it ends the loop within :data:`SERVE_POLL`
    (not the stdlib's half second), closes the listening socket and
    joins the thread.
    """
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": SERVE_POLL},
        name=name, daemon=True)
    thread.start()

    def stop() -> None:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)

    return stop


# ---------------------------------------------------------------------------
# The JSON vocabulary and the server kit (wire contract: module docstring)
# ---------------------------------------------------------------------------

def dumps(doc: Any) -> bytes:
    """Deterministic wire form: sorted keys, compact, trailing newline."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def json_reply(doc: Any, status: int = 200) -> Reply:
    """A JSON document as a route's reply."""
    return status, JSON, dumps(doc)


@dataclass(frozen=True)
class ErrorInfo:
    code: str
    message: str
    details: tuple[str, ...] = ()


@dataclass(frozen=True)
class ErrorBody:
    """The one error document every plane sends."""

    error: ErrorInfo


def error_doc(code: str, message: str,
              details: Optional[Iterable[str]] = None) -> bytes:
    """An :class:`ErrorBody`, encoded."""
    return dumps(encode(ErrorBody(ErrorInfo(code, message,
                                            tuple(details or ())))))


class BadReply(ValueError):
    """A reply that is not JSON, or not the document its door declares."""

    def __init__(self, status: int, problem: object) -> None:
        self.status = status
        super().__init__(f"HTTP {status} reply: {problem}")


def json_exchange(url: str, method: str = "GET", request: Any = None,
                  reply: Optional[type] = None, timeout: float = 30.0,
                  retries: int = 0) -> tuple[int, Any]:
    """Send the dataclass ``request`` (if any); ``(status, document)``.

    A 204 reads None, any other 2xx decodes as ``reply`` (None: parsed
    JSON), any other status as an :class:`ErrorBody`; a reply that does
    not fit raises :class:`BadReply`.  Transport: as
    :func:`http_request`.
    """
    body = None if request is None else dumps(encode(request))
    response = http_request(
        url, method=method, body=body,
        headers={"Content-Type": JSON} if body else {},
        timeout=timeout, retries=retries)
    status = response.status
    if status == 204:
        return status, None
    try:
        doc = json.loads(response.body.decode(), parse_constant=_not_json)
        if not 200 <= status < 300:
            return status, decode(ErrorBody, doc)
        return status, doc if reply is None else decode(reply, doc)
    except (ValueError, RecursionError) as exc:
        raise BadReply(status, exc) from None


def _not_json(token: str) -> Any:
    raise BadRequest(f"body is not valid JSON ({token} is not a JSON number)")


def json_object(body: bytes) -> dict[str, Any]:
    """Parse a request body that must be a JSON object.

    ``json.loads`` reads the non-JSON tokens ``NaN``, ``Infinity`` and
    ``-Infinity`` as floats unless told otherwise; no ``<``/``>`` guard
    behind this door (a budget, a lease cap) holds against a NaN.
    """
    if not body:
        raise BadRequest("empty request body")
    try:
        doc = json.loads(body.decode("utf-8"), parse_constant=_not_json)
    except BadRequest:
        raise
    except (ValueError, RecursionError) as exc:
        # a bad byte or token, an integer of 4300+ digits, or nesting
        # past the interpreter's recursion limit
        raise BadRequest(f"body is not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise BadRequest("body must be a JSON object")
    return doc


class Request(NamedTuple):
    """What a route's handler is called with."""

    params: dict[str, str]  # the pattern's {name} segments
    query: dict[str, list[str]]  # urllib.parse.parse_qs of the query
    body: bytes

    def int_param(self, name: str, default: int) -> int:
        try:
            return int(self.query.get(name, [default])[-1])
        except ValueError:
            raise BadRequest(f"query parameter {name!r} must be an integer")

    def float_param(self, name: str, default: float) -> float:
        try:
            value = float(self.query.get(name, [default])[-1])
        except ValueError:
            raise BadRequest(f"query parameter {name!r} must be a number")
        if not 0 <= value < math.inf:  # written this way round so NaN fails
            raise BadRequest(
                f"query parameter {name!r} must be a finite number >= 0")
        return value


#: The pattern :meth:`Routes.dispatch` names when no row matches.
UNMATCHED = "unmatched"

#: The ``scheme://authority`` of an absolute-form request target.
_ABSOLUTE_FORM = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://[^/]*")


class Routes:
    """One plane's route table and error map (module doc: Server side)."""

    def __init__(self, rows: Iterable[tuple[str, str, Callable]],
                 errors: Optional[Mapping[type, Callable]] = None) -> None:
        self.rows = [(method, pattern, re.compile("/".join(
            f"(?P<{part[1:-1]}>[^/]+)" if part.startswith("{")
            else re.escape(part) for part in pattern.split("/") if part)),
            handler) for method, pattern, handler in rows]
        self.errors = errors or {}

    def dispatch(self, method: str, target: str,
                 body: bytes = b"") -> tuple[str, Reply]:
        """``(pattern, reply)``; :data:`UNMATCHED` if no row matched."""
        path, _, query = target.partition("?")
        absolute = _ABSOLUTE_FORM.match(path)
        if absolute:
            path = path[absolute.end():] or "/"
        joined = "/".join(part for part in path.split("/") if part)
        for row_method, pattern, regex, handler in self.rows:
            found = row_method == method and regex.fullmatch(joined)
            if found:
                break
        else:
            return UNMATCHED, (404, JSON, error_doc(
                "unknown-route", f"no route {method} {path}"))
        try:
            return pattern, handler(Request(
                found.groupdict(), urllib.parse.parse_qs(query), body))
        except Exception as exc:  # noqa: BLE001 - the HTTP 500 boundary
            for cls, render in self.errors.items():
                if isinstance(exc, cls):
                    status, code, message, details = render(exc)
                    return pattern, (status, JSON,
                                     error_doc(code, message, details))
            return pattern, (500, JSON, error_doc(
                "internal", f"{type(exc).__name__}: {exc}"))

    def handle(self, method: str, target: str, body: bytes = b"") -> Reply:
        return self.dispatch(method, target, body)[1]


class _Handler(BaseHTTPRequestHandler):
    """One connection: read a validated body, ask ``app``, answer."""

    server_version = "repro"
    protocol_version = "HTTP/1.1"
    timeout = PEER_TIMEOUT
    disable_nagle_algorithm = True  # TCP_NODELAY: see the module doc
    app: Callable[[str, str, bytes], Reply]  # set by bind_server

    def _serve(self) -> None:
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            self._answer(400, JSON, error_doc(
                "bad-request", f"Content-Length {declared[:40]!r} is not "
                "a non-negative integer"), close=True)
        elif len(declared) > 18 or int(declared) > MAX_BODY:
            # (the length test: int() itself refuses 4300+ digits)
            self._answer(413, JSON, error_doc(
                "too-large", f"request body of {declared[:40]} bytes "
                f"exceeds the {MAX_BODY}-byte limit"), close=True)
        else:
            body = self.rfile.read(int(declared))
            self._answer(*self.app(self.command, self.path, body))

    def _answer(self, status: int, content_type: str, payload: bytes,
                close: bool = False) -> None:
        self.send_response(status)
        if payload or status not in (204, 304):
            self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        if payload:
            self.wfile.write(payload)

    do_GET = do_POST = do_DELETE = _serve  # noqa: N815 - http.server API

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet: each plane's metrics endpoint is its access log."""


def bind_server(handle: Callable[[str, str, bytes], Reply],
                host: str = "127.0.0.1", port: int = 0) -> ThreadingHTTPServer:
    """Bind a threading server that answers with ``handle``.

    ``port=0`` picks a free port (read ``server.server_address``); the
    caller runs ``serve_forever()`` or :func:`serve_in_thread`.  Every
    plane gets the same socket policy (module doc), so there is nothing
    per plane to choose here but the handler.
    """
    handler = type("Handler", (_Handler,), {"app": staticmethod(handle)})
    return ThreadingHTTPServer((host, port), handler)
