"""Minimal keep-alive HTTP/1.1 client for talking to the Linked Data server.

Transport (RFC 9112 message syntax). Each thread holds one blocking socket,
with TCP_NODELAY. Its 30 s bound (`TIMEOUT`) is the kernel's `SO_RCVTIMEO`
and `SO_SNDTIMEO`, not a Python-level timeout, so each socket call is one
syscall: with a Python-level timeout CPython polls before every send and
receive, and each call hands the interpreter lock over once more. A call
the kernel ends at the bound fails with EAGAIN, which the client reports as
`TimeoutError`.

Each request leaves in one write: the request line, `Host`, `X-Agent` when
the client has an agent name, the caller's headers, and `Content-Length`
whenever a body is sent or the method is PUT. A reply is read as a status
line, headers up to the blank line, and exactly `Content-Length` body
bytes; a head that arrives whole is split in one pass. It is accepted only
if the status line is HTTP/1.x, it carries a `Content-Length` and no
`Transfer-Encoding`, no line is longer than 65,536 bytes and there are at
most 100 headers (the bounds of `http.client`). Any other reply, or one that
ends early, raises a subclass of `http.client.HTTPException`. A reply with
`Connection: close`, or an HTTP/1.0 one, closes the socket after its body. A
request that fails with such an exception or an `OSError` (a connection
that `close_all` closed included) is sent once more on a fresh connection;
a second failure raises. `close` closes the calling thread's socket,
`close_all` the sockets of every thread.

`get_graph` keeps, per IRI, its request bytes, the last 200 body and the
triples parsed from it, and returns those very triples for a byte-equal
body without parsing again. This is exact: the parse is a pure function of
the body, the IRI (its base) and the format, and blank-node labels come from
a per-parse counter. Returning the same frozenset also lets a caller see by
identity that the graph is unchanged.
"""

from __future__ import annotations

import http.client
import re
import socket
import struct
import threading
from urllib.parse import urlsplit

from .rdfio import parse_document, serialize_triples

TURTLE = "text/turtle"
MAX_LINE = 65536
MAX_HEADERS = 100
TIMEOUT = 30  # seconds, for connecting and for each send and receive
# Controls, space and non-ASCII cannot appear in a request target.
_BAD_TARGET = re.compile(r"[^\x21-\x7e]")
# The blank line that ends a head; a line break is CRLF or a bare LF.
_HEAD_END = re.compile(rb"\n\r?\n")
_RECV_SIZE = 65536


def set_kernel_timeouts(sock: socket.socket, seconds: float) -> None:
    """Bound each send and receive on `sock` by `seconds` in the kernel
    (SO_SNDTIMEO, SO_RCVTIMEO) and make it blocking, with no Python-level
    timeout. A call that reaches the bound fails with EAGAIN: a send or
    `recv` raises `BlockingIOError`, and a `makefile` reader returns what it
    has read so far."""
    bound = struct.pack("ll", int(seconds), int(seconds % 1 * 1_000_000))
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, bound)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, bound)
    sock.settimeout(None)


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
        self._open: set[tuple[socket.socket, ReplyReader]] = set()
        self._open_lock = threading.Lock()
        # IRI -> (GET request bytes, last 200 body or None, its triples)
        self._gets: dict[str, tuple[bytes, bytes | None, frozenset]] = {}

    def _conn(self) -> tuple[socket.socket, ReplyReader]:
        """This thread's (socket, reply reader), connecting if needed."""
        conn = getattr(self._local, "conn", None)
        if conn is None or conn[0].fileno() < 0:  # none yet, or closed by close_all
            sock = socket.create_connection((self._host, self._port), timeout=TIMEOUT)
            set_kernel_timeouts(sock, TIMEOUT)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = self._local.conn = (sock, ReplyReader(sock))
            with self._open_lock:
                self._open.add(conn)
        return conn

    def _message(self, method: str, path: str, body: bytes | None = None,
                 headers: dict | None = None) -> bytes:
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
        return (head + "\r\n").encode("latin-1") + (body or b"")

    def _request(self, method: str, path: str, body: bytes | None = None,
                 headers: dict | None = None) -> tuple[int, bytes]:
        return self._exchange(self._message(method, path, body, headers))

    def _exchange(self, message: bytes) -> tuple[int, bytes]:
        """Send one request and read its reply: (status, body)."""
        for attempt in (0, 1):
            try:
                sock, reader = self._conn()
                sock.sendall(message)
                status, reply, close = reader.read_reply()
            except (http.client.HTTPException, OSError) as exc:
                self.close()
                if not attempt:
                    continue
                if isinstance(exc, BlockingIOError):  # the kernel's bound ran out
                    raise TimeoutError(f"a socket call took over {TIMEOUT} s") from exc
                raise
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
        known = self._gets.get(iri)
        if known is None:
            message = self._message("GET", self.path_of(iri), headers={"Accept": TURTLE})
            known = self._gets[iri] = (message, None, frozenset())
        status, body = self._exchange(known[0])
        if status != 200:
            return status, frozenset()
        if known[1] == body:
            return status, known[2]
        triples = parse_document(body.decode("utf-8"), "turtle", base=iri)
        self._gets[iri] = (known[0], body, triples)
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
            conn[0].close()

    def close_all(self) -> None:
        """Close the connections of every thread, including threads that have
        ended. A thread still using this client connects again on its next
        request; a request caught in flight is sent again on a fresh one."""
        with self._open_lock:
            conns, self._open = self._open, set()
        for sock, _reader in conns:
            sock.close()


class ReplyReader:
    """Reads replies from one socket; holds what it received past the last."""

    __slots__ = ("sock", "rest")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rest = b""

    def read_reply(self) -> tuple[int, bytes, bool]:
        """One reply: (status, body, whether the server closes the connection)."""
        recv, data, searched = self.sock.recv, self.rest, 0
        while (end := _HEAD_END.search(data, searched)) is None:
            if data:
                _check_partial_head(data)
                searched = len(data) - 2  # the blank line may start in what came
            chunk = recv(_RECV_SIZE)
            if not chunk:
                what = "header line" if b"\n" in data else "status line"
                raise http.client.RemoteDisconnected(f"connection closed in the {what}")
            data += chunk
        line, *fields = data[:end.start()].split(b"\n")
        status, close = _status_line(line)
        if len(fields) > MAX_HEADERS:
            raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")
        length = None
        for line in fields:
            if len(line) >= MAX_LINE:
                raise http.client.LineTooLong("header line")
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
        if length is None:
            raise http.client.HTTPException("reply without Content-Length")
        start = end.end()
        stop = start + length
        while len(data) < stop:
            chunk = recv(max(_RECV_SIZE, stop - len(data)))
            if not chunk:
                raise http.client.IncompleteRead(data[start:], stop - len(data))
            data += chunk
        self.rest = data[stop:]
        return status, data[start:stop], close


def _check_partial_head(data: bytes) -> None:
    """Refuse a head, not yet ended, whose status line is bad or that cannot
    end within the bounds: a line longer than MAX_LINE, or more than
    MAX_HEADERS header lines."""
    lines = data.count(b"\n")
    if lines:
        _status_line(data[:data.index(b"\n")])
    if lines > MAX_HEADERS + 1:
        raise http.client.HTTPException(f"got more than {MAX_HEADERS} headers")
    if len(data) - data.rfind(b"\n") - 1 > MAX_LINE:
        raise http.client.LineTooLong("header line" if lines else "status line")


def _status_line(line: bytes) -> tuple[int, bool]:
    """(status, whether the server closes) of a status line without its LF."""
    if len(line) >= MAX_LINE:
        raise http.client.LineTooLong("status line")
    parts = line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/1.") \
            or len(parts[1]) != 3 or not parts[1].isdigit():
        raise http.client.BadStatusLine(repr(line))
    return int(parts[1]), parts[0] != b"HTTP/1.1"
