"""Minimal keep-alive HTTP/1.1 client for talking to the Linked Data server.

Transport (RFC 9112 message syntax). Each thread holds one socket, with
TCP_NODELAY and a 30 s timeout, and sends each request in one write: the
request line, `Host`, `X-Agent` when the client has an agent name, the
caller's headers, and `Content-Length` whenever a body is sent or the method
is PUT. A reply is read as a status line, headers up to the blank
line, and exactly `Content-Length` body bytes. It is accepted only if the
status line is HTTP/1.x, it carries a `Content-Length` and no
`Transfer-Encoding`, no line is longer than 65,536 bytes and there are at
most 100 headers (the bounds of `http.client`). Any other reply, or one that
ends early, raises a subclass of `http.client.HTTPException`. A reply with
`Connection: close`, or an HTTP/1.0 one, closes the socket after its body. A
request that fails with such an exception, an `OSError`, or a `ValueError`
from a reader that `close_all` closed, is sent once more on a fresh
connection; a second failure raises. `close` closes the calling thread's
socket, `close_all` the sockets of every thread.

`get_graph` keeps, per IRI, the last 200 body and the triples parsed from
it, and returns those very triples for a byte-equal body without parsing
again. This is exact: the parse is a pure function of the body, the IRI
(its base) and the format, and blank-node labels come from a per-parse
counter. Returning the same frozenset also lets a caller see by identity
that the graph is unchanged.
"""

from __future__ import annotations

import http.client
import re
import socket
import threading
from urllib.parse import urlsplit

from .rdfio import parse_document, serialize_triples

TURTLE = "text/turtle"
MAX_LINE = 65536
MAX_HEADERS = 100
# Controls, space and non-ASCII cannot appear in a request target.
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")


class LdClient:
    """One logical client; connections are per-thread so fan-out is safe."""

    def __init__(self, base: str, agent: str = ""):
        self.base = base if base.endswith("/") else base + "/"
        self.agent = agent
        parts = urlsplit(self.base)
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self._netloc = parts.netloc.rpartition("@")[2]
        self._local = threading.local()
        # Every open connection of every thread, for close_all().
        self._open: set[tuple] = set()
        self._open_lock = threading.Lock()
        self._parsed: dict[str, tuple[bytes, frozenset]] = {}

    def _conn(self):
        """This thread's (socket, buffered reader), connecting if needed."""
        conn = getattr(self._local, "conn", None)
        if conn is None or conn[0].fileno() < 0:  # none yet, or closed by close_all
            sock = socket.create_connection((self._host, self._port), timeout=30)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._local.conn = (sock, sock.makefile("rb"))
            with self._open_lock:
                self._open.add(conn)
        return conn

    def _request(self, method: str, path: str, body: bytes | None = None,
                 headers: dict | None = None) -> tuple[int, bytes]:
        target = "/" + path.lstrip("/")
        if _BAD_TARGET.search(target):
            raise http.client.InvalidURL(f"invalid request target {target!r}")
        head = f"{method} {target} HTTP/1.1\r\nHost: {self._netloc}\r\n"
        if self.agent:
            head += f"X-Agent: {self.agent}\r\n"
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if body is not None or method == "PUT":
            head += f"Content-Length: {len(body or b'')}\r\n"
        message = (head + "\r\n").encode("latin-1") + (body or b"")
        for attempt in (0, 1):
            try:
                sock, reader = self._conn()
                sock.sendall(message)
                status, reply, close = _read_reply(reader)
            # ValueError: close_all() closed the reader while this request
            # was in flight on it.
            except (http.client.HTTPException, OSError, ValueError):
                self.close()
                if attempt:
                    raise
                continue
            if close:
                self.close()
            return status, reply
        raise RuntimeError("unreachable")

    def path_of(self, iri: str) -> str:
        if iri.startswith(self.base):
            return iri[len(self.base):]
        return iri

    def get_graph(self, iri: str) -> tuple[int, frozenset]:
        """Fetch and parse one resource; triples are empty on non-200."""
        status, body = self._request("GET", self.path_of(iri),
                                     headers={"Accept": TURTLE})
        if status != 200:
            return status, frozenset()
        cached = self._parsed.get(iri)
        if cached is not None and cached[0] == body:
            return status, cached[1]
        triples = parse_document(body.decode("utf-8"), "turtle", base=iri)
        self._parsed[iri] = (body, triples)
        return status, triples

    def put_graph(self, iri: str, triples) -> int:
        body = serialize_triples(triples, "turtle").encode("utf-8")
        status, _ = self._request("PUT", self.path_of(iri), body=body,
                                  headers={"Content-Type": TURTLE})
        return status

    def put_raw(self, path: str, text: str) -> tuple[int, bytes]:
        return self._request("PUT", path, body=text.encode("utf-8"),
                             headers={"Content-Type": TURTLE})

    def close(self) -> None:
        """Close this thread's connection, if it has one."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            with self._open_lock:
                self._open.discard(conn)
            _close(conn)

    def close_all(self) -> None:
        """Close the connections of every thread, including threads that have
        ended. A thread still using this client connects again on its next
        request; a request caught in flight is sent again on a fresh one."""
        with self._open_lock:
            conns, self._open = self._open, set()
        for conn in conns:
            _close(conn)


def _close(conn: tuple) -> None:
    sock, reader = conn
    reader.close()
    sock.close()


def _read_line(reader, what: str) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise http.client.LineTooLong(what)
    if not line.endswith(b"\n"):
        raise http.client.RemoteDisconnected(f"connection closed in the {what}")
    return line


def _read_reply(reader) -> tuple[int, bytes, bool]:
    """One reply: (status, body, whether the server closes the connection)."""
    line = _read_line(reader, "status line")
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") \
            or len(parts[1]) != 3 or not parts[1].isdigit():
        raise http.client.BadStatusLine(repr(line))
    status = int(parts[1])
    close = parts[0] != b"HTTP/1.1"
    length = None
    for _ in range(MAX_HEADERS + 1):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.partition(b":")
        if not colon:
            raise http.client.HTTPException(f"malformed header line {line!r}")
        name = name.strip().lower()
        value = value.strip()
        if name == b"content-length":
            if length is not None or not value.isdigit():
                raise http.client.HTTPException(f"bad Content-Length {value!r}")
            length = int(value)
        elif name == b"transfer-encoding":
            raise http.client.HTTPException(f"unsupported Transfer-Encoding {value!r}")
        elif name == b"connection":
            close = close or b"close" in (t.strip() for t in value.lower().split(b","))
    else:
        raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")
    if length is None:
        raise http.client.HTTPException("reply without Content-Length")
    body = reader.read(length)
    if len(body) < length:
        raise http.client.IncompleteRead(body, length - len(body))
    return status, body, close
