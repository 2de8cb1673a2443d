"""HTTP read-write Linked Data interface over the live dataset.

Graph Store Protocol with direct addressing: the request path names the
graph. Reads serve the latest snapshot without locking; writes go through
the runtime so they serialize against ticks and land in the operation log.

Reply bodies are cached per (graph IRI, media type): the triple set a body
was serialised from, and the body. A GET serves the cached body when the
snapshot's graph is that very frozenset. This is exact: dataset graphs are
immutable and an unchanged graph is shared by reference across versions
(see `rdf`), a body depends on nothing but the triples and the media type,
and an entry holds its frozenset, so the object's identity is never reused
while the entry lives. There is one cache per attached runtime.

Writes have one form: a PUT to a light command's graph whose payload is
exactly `<#it> rdf:value v`, v in `COMMAND_VALUES` ("on", "off"), sets that
value and answers 204; the graph keeps its server-managed triples (W3C LDP
1.0 4.2.4.1). Any other payload that parses gets 422 (RFC 9110 15.5.21). A
PUT to any other graph, a setpoint's included, gets 403, except that a PUT
to `sim` starts the run with the parameters `<sim>` states once each; a
slot count, slot length or step that is not a positive integer gets 400. No
graph is created or deleted. POST and DELETE get 405 with `Allow: GET, PUT`,
after their body is read so that the connection stays usable. Only the
request path is looked up, under the base IRI, so the internal default
graph is never served.

Each accepted socket is blocking, and its bound is the kernel's
`SO_RCVTIMEO` and `SO_SNDTIMEO` at `TIMEOUT` (30 s), not a Python-level
timeout, so each socket call is one syscall and hands the interpreter lock
over once. The handler is a `socketserver` request handler with its own
keep-alive loop: read a request, dispatch it to `do_<METHOD>` (any other
method gets 501), repeat until the connection closes. A connection whose
client sends nothing for `TIMEOUT`, or closes it, in the middle of a request
or between two ends without a reply; so does one whose send reaches the
bound.

Requests (RFC 9112 message syntax) are parsed byte by byte, and a head
parsed once is looked up after that (`_next_request`). Empty lines before
the request line are skipped (RFC 9112 2.2). The request line is read up
to 65,536 bytes (414 beyond). It is `METHOD TARGET VERSION`; another
shape, HTTP/0.9's `GET TARGET` included, gets 400, a malformed version 400
and HTTP/2 or later 505. A target starting with `//` is read as starting
with one `/`. Header lines follow up to the blank line: at most 100, each at
most 65,536 bytes (431 beyond either). Header names are looked up
lower-cased, the first field of a name wins, and a value has its leading
and trailing blanks stripped. A folded (obs-fold) line, a line without a
colon or whose name is not printable ASCII up to the colon, a second
`Content-Length` and one that is not ASCII digits only (RFC 9110 8.6) get
400: the end of the header block or of the body cannot be trusted after
them (RFC 9112 5.1, 5.2 and 6.3). A `Transfer-Encoding` gets 501 before the
body is read, as no transfer coding is decoded (RFC 9112 6.1). Each such
refusal has a `text/plain` body and `Connection: close`. An HTTP/1.1
connection stays open unless a `Connection` token says `close`; an HTTP/1.0
one closes unless it says `keep-alive`. An HTTP/1.1 request with `Expect:
100-continue` gets `100 Continue` before its body is read.

Every final reply, refusals included, goes through `_reply`: an HTTP/1.1
head with `Server`, `Date` and `Content-Length`, formatted once per distinct
set of fields (`_head`) and written with the body in one `sendall`; `HEAD`
gets the head alone. Only the interim `100 Continue` is written elsewhere.
Every refused GET or write is logged with its status, the 400 and 409
replies of `sim` included.

Logging the `ldsim.server` logger at DEBUG gives one access line per reply:
the client address, the request line, the status and the `X-Agent` header.
"""

from __future__ import annotations

import logging
import re
import socketserver
import sys
import threading
import time
from datetime import datetime
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from types import SimpleNamespace

from .building import CAT_COMMAND
from .engine import COMMAND_VALUES, RunParams, SimulationRuntime, value_payload
from .httpclient import set_kernel_timeouts
from .ns import SIM_PATH, SIM_VOCAB
from .rdf import IRI, Literal
from .rdfio import ParseError, parse_document, serialize_triples
from .sparql import literal_value, parse_datetime

log = logging.getLogger(__name__)

TURTLE = "text/turtle"
NTRIPLES = "application/n-triples"
PARSE_FORMATS = {TURTLE: "turtle", NTRIPLES: "n-triples"}
MAX_LINE = 65536
MAX_HEADERS = 100
ALLOW = "GET, PUT"
TIMEOUT = 30  # seconds a connection's receive or send may wait
# A header name: printable ASCII but the colon, with no blank before the colon.
_FIELD_NAME = re.compile(rb"[!-9;-~]+")
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
_SERVER = f"ldsim/0.1 Python/{sys.version.split()[0]}"
MAX_HEADS = 2048  # request heads a server keeps parsed; a key is at most 8 KiB


@lru_cache(maxsize=2)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


@lru_cache(maxsize=1024)
def _head(status: int, content_type: str, length: int, close: bool, date: str) -> bytes:
    """A final reply's head, formatted once per distinct set of fields."""
    typed = f"Content-Type: {content_type}; charset=utf-8\r\n" if length else ""
    allow = f"Allow: {ALLOW}\r\n" if status == 405 else ""  # RFC 9110 15.5.6
    closing = "Connection: close\r\n" if close else ""
    return (f"HTTP/1.1 {status} {_PHRASES[status]}\r\nServer: {_SERVER}\r\n"
            f"Date: {date}\r\n{typed}"
            f"Content-Length: {length}\r\n{allow}{closing}\r\n").encode("latin-1")


class _Handler(socketserver.BaseRequestHandler):
    # Set per server instance via the class factory below.
    runtime: SimulationRuntime = None  # type: ignore[assignment]
    writable: frozenset[str] = frozenset()
    base: str = ""
    # (graph IRI, media type) -> (triples, body). attach() gives each runtime
    # its own; a handler class built without it shares this one, which is as
    # exact, since an entry is used only while its own frozenset is served.
    bodies: dict[tuple[str, str], tuple[frozenset, bytes]] = {}
    # Accepted request heads, whole and with CRLF line breaks, -> what
    # parsing gave: (request line, command, path, headers, close_connection).
    # Each server has its own; it is emptied when it holds MAX_HEADS.
    heads: dict[bytes, tuple] = {}

    def handle(self) -> None:
        """Serve requests in order until one closes the connection."""
        self.rfile = self.request.makefile("rb")
        # A reply goes straight to the socket's own sendall, with no Python
        # writer around it.
        self.wfile = SimpleNamespace(write=self.request.sendall)
        self.close_connection = False
        with self.rfile:
            while not self.close_connection:
                try:
                    if self._next_request():
                        getattr(self, "do_" + self.command, self._not_implemented)()
                except OSError:  # a send the kernel's bound ended, or a reset
                    return

    def _next_request(self) -> bool:
        """Read the next request's head; False after a refusal or a blank
        request line, and, closing the connection, when the client closed
        it or sent nothing for TIMEOUT.

        Parsing is a pure function of the head's bytes, and a client repeats
        its heads (an agent's GET of one graph is the same bytes each time).
        So a head the read buffer holds whole is looked up in `heads` first,
        and one parsed without a side effect (no `Expect`) is kept there. A
        kept head has CRLF line breaks only, so its first CRLF CRLF is where
        the parser stops too. Empty lines before the request line are
        skipped first (RFC 9112 2.2), so neither sees them."""
        buffered = self.rfile.peek()
        while buffered[:1] == b"\n" or buffered[:2] == b"\r\n":
            self.rfile.read(buffered.index(b"\n") + 1)
            buffered = self.rfile.peek()
        if not buffered:
            self.close_connection = True
            return False
        end = buffered.find(b"\r\n\r\n") + 4
        head = buffered[:end] if end >= 4 else b""
        known = self.heads.get(head)
        if known is not None:
            self.rfile.read(end)
            self.requestline, self.command, self.path, self.headers, \
                self.close_connection = known
            return True
        line = self.rfile.readline(MAX_LINE + 1)
        if not line.endswith(b"\n") and len(line) <= MAX_LINE:
            self.close_connection = True
            return False
        if not self._read_request(line):
            return False
        if head and head.count(b"\n") == head.count(b"\r\n") and "expect" not in self.headers:
            if len(self.heads) >= MAX_HEADS:
                self.heads.clear()
            self.heads[head] = (self.requestline, self.command, self.path, self.headers,
                            self.close_connection)
        return True

    # -- request parsing (the contract is in the module docstring) -------------

    def _read_request(self, line: bytes) -> bool:
        """Fill `command`, `path`, `close_connection` and `headers`; False
        after a refusal or for a blank request line."""
        self.command = None
        self.close_connection = True
        self.headers = {}
        if len(line) > MAX_LINE:
            self.requestline = ""
            return self._refuse_request(414, "request line too long\n")
        self.requestline = line = str(line, "iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        version = (1, 1)
        if len(words) >= 3:
            if words[-1] != "HTTP/1.1":
                match = _VERSION.fullmatch(words[-1])
                if match is None:
                    return self._refuse_request(400, f"bad request version {words[-1]!r}\n")
                version = int(match[1]), int(match[2])
                if version >= (2, 0):
                    return self._refuse_request(505, f"{words[-1]} not supported\n")
            self.close_connection = version < (1, 1)
        if len(words) != 3:
            return self._refuse_request(400, f"bad request syntax {line!r}\n")
        command, path = words[0], words[1]
        if path.startswith("//"):  # not a scheme-relative URL (gh-87389)
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        if not self._read_headers():
            return False
        if "transfer-encoding" in self.headers:
            # No transfer coding is decoded, so the body's end is unknown.
            return self._refuse_request(501, "Transfer-Encoding not supported\n")
        tokens = {token.strip() for token in self.headers.get("connection", "").lower().split(",")}
        if "close" in tokens:
            self.close_connection = True
        elif "keep-alive" in tokens:
            self.close_connection = False
        if version >= (1, 1) and self.headers.get("expect", "").lower() == "100-continue":
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        return True

    def _read_headers(self) -> bool:
        """Fill `headers` up to the blank line; False after a 400 or 431."""
        headers = self.headers
        readline = self.rfile.readline
        for _ in range(MAX_HEADERS + 1):
            line = readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                return self._refuse_request(431, "header line too long\n")
            if line in (b"\r\n", b"\n"):
                return True
            if not line.endswith(b"\n"):  # closed or silent mid-head: no reply
                self.close_connection = True
                return False
            if line[0] in b" \t":
                return self._refuse_request(400, f"folded header line {line!r}\n")
            name, colon, value = line.partition(b":")
            if not colon or _FIELD_NAME.fullmatch(name) is None:
                return self._refuse_request(400, f"malformed header line {line!r}\n")
            name = name.decode("ascii").lower()
            if name not in headers:
                headers[name] = value.strip(b" \t\r\n").decode("iso-8859-1")
            elif name == "content-length":
                return self._refuse_request(400, "more than one Content-Length\n")
        return self._refuse_request(431, f"more than {MAX_HEADERS} headers\n")

    def _refuse_request(self, status: int, message: str) -> bool:
        """Reply `status` to a request that cannot be read on, and close."""
        self.close_connection = True
        self._reply(status, message.encode())
        return False

    def _not_implemented(self) -> None:
        self._refuse_request(501, f"{self.command} not implemented\n")

    # -- helpers ------------------------------------------------------------

    def _target(self) -> str:
        return self.base + self.path.lstrip("/")

    def _agent(self) -> str:
        return self.headers.get("x-agent", "")

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "text/plain") -> None:
        if log.isEnabledFor(logging.DEBUG):
            log.debug('%s "%s" %s - agent=%s', self.client_address[0], self.requestline,
                      status, self._agent())
        head = _head(status, content_type, len(body), self.close_connection,
                     _http_date(int(time.time())))
        # Head and body leave in one write. A body written on its own waits
        # under Nagle's algorithm for the client's delayed ACK of the head,
        # about 40 ms per reply (RFC 896; RFC 1122 4.2.3.2).
        self.wfile.write(head if self.command == "HEAD" else head + body)

    def _refuse(self, status: int, message: bytes) -> None:
        """Record the request as a failed operation and reply `status`."""
        self.runtime.record_failure(self.command, self._target(), status, self._agent())
        self._reply(status, message)

    def _read_body(self) -> bytes | None:
        """The whole request body, read before any reply so that a refused
        body is not left on a keep-alive connection to be parsed as the next
        request. None after a 400 for a malformed Content-Length: the end of
        that body cannot be found, so the connection closes. None with no
        reply, closing too, when the body ends early."""
        field = self.headers.get("content-length", "0")
        length = int(field) if field.isascii() and field.isdigit() else -1
        if length < 0:
            self.close_connection = True
            self._refuse(400, b"malformed Content-Length\n")
            return None
        body = self.rfile.read(length) if length else b""
        if body is None or len(body) < length:
            self.close_connection = True
            return None
        return body

    def _body_triples(self, body: bytes, base: str) -> frozenset | None:
        """The body's triples, parsed by its media type (Turtle if untyped)
        against `base`; None after a 415 or a 400."""
        content_type = (self.headers.get("content-type") or TURTLE).split(";")[0].strip()
        fmt = PARSE_FORMATS.get(content_type)
        if fmt is None:
            self._refuse(415, f"unsupported media type {content_type}\n".encode())
            return None
        try:
            return parse_document(body.decode("utf-8"), fmt, base=base)
        except (ParseError, UnicodeDecodeError) as exc:
            self._refuse(400, f"unparsable payload: {exc}\n".encode())
            return None

    def _command_value(self, target: str, body: bytes) -> Literal | None:
        """The value of a body that parses to the `value_payload` of one of
        `COMMAND_VALUES`; None after a 415, 400 or 422."""
        triples = self._body_triples(body, target)
        if triples is None:
            return None
        for value in COMMAND_VALUES:
            if triples == value_payload(target, value.lexical):
                return value
        self._refuse(422, b'a PUT sets the value: <#it> rdf:value "on" or "off"\n')
        return None

    # -- methods ------------------------------------------------------------

    def do_GET(self) -> None:
        target = self._target()
        snapshot = self.runtime.dataset
        triples = snapshot.graph(target)
        if not triples:
            self._refuse(404, b"no such resource\n")
            return
        content_type = NTRIPLES if NTRIPLES in self.headers.get("accept", "") else TURTLE
        body = self._body(target, triples, content_type)
        self.runtime.record_read(target, 200, len(body), self._agent())
        self._reply(200, body, content_type)

    def _body(self, target: str, triples: frozenset, content_type: str) -> bytes:
        key = (target, content_type)
        cached = self.bodies.get(key)
        if cached is not None and cached[0] is triples:
            return cached[1]
        body = serialize_triples(triples, PARSE_FORMATS[content_type]).encode()
        self.bodies[key] = (triples, body)
        return body

    def do_PUT(self) -> None:
        target = self._target()
        body = self._read_body()
        if body is None:
            return
        if target == self.base + SIM_PATH:
            self._sim_put(body)
            return
        if target not in self.writable:
            self._refuse(403, b"resource not writable\n")
            return
        value = self._command_value(target, body)
        if value is None:
            return
        self.runtime.apply_agent_write(target, value, self._agent(), 204, len(body))
        self._reply(204)

    def _refuse_write(self) -> None:
        """POST and DELETE: read the body, so that it is not parsed as the
        next request, then refuse with 405."""
        if self._read_body() is None:
            return
        self._refuse(405, f"{self.command} not allowed: a PUT sets a value\n".encode())

    do_POST = do_DELETE = _refuse_write

    # -- run control -----------------------------------------------------------

    def _sim_put(self, body: bytes) -> None:
        if self.runtime.started:
            self._refuse(409, b"run already in progress\n")
            return
        triples = self._body_triples(body, self.base)
        if triples is None:
            return
        sim, vocab = IRI(self.base + SIM_PATH), self.base + SIM_VOCAB
        values: dict[str, object] = {}
        try:
            for s, p, o in triples:
                if s == sim and p.value.startswith(vocab) and isinstance(o, Literal):
                    name = p.value[len(vocab):]
                    if name in values:
                        raise ValueError(f"sim:{name} has more than one value")
                    values[name] = literal_value(o)
            initial_time = values["initialTime"]
            if isinstance(initial_time, str):
                initial_time = parse_datetime(initial_time)
            if not isinstance(initial_time, datetime):
                raise TypeError("sim:initialTime is not a date-time")
            params = RunParams(
                initial_time=initial_time,
                timeslot_ms=_positive_int(values["timeslotDuration"]),
                iterations=_positive_int(values["iterations"]),
                step_seconds=_positive_int(values.get("simulatedStep", 60)),
            )
        except KeyError as exc:
            self._refuse(400, f"missing parameter sim:{exc.args[0]}\n".encode())
            return
        except (ValueError, TypeError) as exc:
            self._refuse(400, f"bad run parameter: {exc}\n".encode())
            return
        try:
            self.runtime.start(params)
        except RuntimeError:
            self._refuse(409, b"run already in progress\n")
            return
        self._reply(200, b"run started\n")


def _positive_int(value: object) -> int:
    """A run parameter as a positive int; a lexical integer form is accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{value!r} is not an integer")
    number = int(value)
    if number <= 0:
        raise ValueError(f"{value!r} is not positive")
    return number


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def get_request(self):
        sock, address = super().get_request()
        set_kernel_timeouts(sock, TIMEOUT)
        return sock, address


class LinkedDataServer:
    """Socket lifecycle wrapper; bind first so the base IRI is known before
    the building is built at it."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {"heads": {}})
        self._httpd = _Server((host, port), handler)
        self._handler = handler
        self._thread: threading.Thread | None = None
        host_out, port_out = self._httpd.server_address[:2]
        self.base = f"http://{host_out}:{port_out}/"

    def attach(self, runtime: SimulationRuntime, writable: frozenset[str]) -> None:
        self._handler.runtime = runtime
        self._handler.writable = writable
        self._handler.base = self.base
        self._handler.bodies = {}

    def start(self) -> None:
        if self._handler.runtime is None:
            raise RuntimeError("attach a runtime before starting")
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        kwargs={"poll_interval": 0.05},
                                        daemon=True, name="ld-server")
        self._thread.start()

    def stop(self) -> None:
        # `shutdown` waits for a serve loop, so it would hang one never started.
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(2)
        self._httpd.server_close()


def default_policy(dynamic: dict) -> frozenset[str]:
    """The graphs that accept writes: the light commands'. Setpoints are the
    occupants' input, which only the `setpoints` built-in redraws."""
    return frozenset(res.graph for res in dynamic.values() if res.category == CAT_COMMAND)
