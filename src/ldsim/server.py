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

Writes have one form: a PUT whose payload holds at least one triple replaces
one existing writable graph (an actuatable property's), and answers 204.
Graphs are never created or deleted: every writable graph exists when the
runtime is attached, and a payload without triples gets 400. A PUT to any
other graph gets 403, except that a PUT to `sim` starts the run. POST and
DELETE get 405 with `Allow: GET, PUT`, after their body is read so that the
connection stays usable. Only the request path is looked up, under the base
IRI, so the internal default graph is never served.

Requests (RFC 9112 message syntax) are parsed byte by byte in the handler,
without `http.client.parse_headers`. The request line is read up to 65,536
bytes (414 beyond). It is `METHOD TARGET VERSION`, or `GET TARGET` for
HTTP/0.9, which has no header block and closes the connection. Another shape
gets 400; a malformed version gets 400 and HTTP/2 or later 505, each with an
HTTP/1.1 status line and `Connection: close`. A target starting with `//`
is read as starting with one `/`. Header lines follow up to the blank line:
at most 100, each at most 65,536 bytes (431 beyond either). Header names are
looked up without regard to case, the first field of a name wins, and a
value has its leading and trailing blanks stripped. A folded (obs-fold)
line, a line without a colon or whose name is not printable ASCII up to the
colon, and a second `Content-Length` get 400 with `Connection: close`: the
end of the header block or of the body cannot be trusted after them (RFC
9112 5.1, 5.2 and 6.3). A request with a `Transfer-Encoding` gets 501 with
`Connection: close` before its body is read, as no transfer coding is
decoded (RFC 9112 6.1). An HTTP/1.1 connection stays open unless a
`Connection` token says `close`; an HTTP/1.0 one closes unless it says
`keep-alive`. An HTTP/1.1 request with `Expect: 100-continue` gets `100
Continue` before its body is read. Every final HTTP/1.x reply carries
`Content-Length`.

Logging the `ldsim.server` logger at DEBUG gives one access line per reply:
the client address, the request line, the status and the `X-Agent` header.
"""

from __future__ import annotations

import hashlib
import logging
import re
import threading
import time
from datetime import datetime
from email.utils import formatdate
from functools import lru_cache
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .engine import RunParams, SimulationRuntime
from .ns import SIM_PATH, SIM_VOCAB, defrag
from .rdf import BlankNode, Dataset, Literal, skolemize
from .rdfio import ParseError, parse_document, serialize_triples
from .sparql import literal_value, parse_datetime

log = logging.getLogger(__name__)

TURTLE = "text/turtle"
NTRIPLES = "application/n-triples"
PARSE_FORMATS = {TURTLE: "turtle", NTRIPLES: "n-triples"}
MAX_LINE = 65536
MAX_HEADERS = 100
ALLOW = "GET, PUT"
# A header name: printable ASCII but the colon, with no blank before the colon.
_FIELD_NAME = re.compile(rb"[!-9;-~]+")
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class _Headers(dict):
    """Request header values by lower-cased name; the first field of a name
    wins, as with `email.message.Message.get`."""

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)


@lru_cache(maxsize=2)
def _http_date(second: int) -> str:
    return formatdate(second, usegmt=True)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "ldsim/0.1"

    # Set per server instance via the class factory below.
    runtime: SimulationRuntime = None  # type: ignore[assignment]
    writable: frozenset[str] = frozenset()
    base: str = ""
    # (graph IRI, media type) -> (triples, body). attach() gives each runtime
    # its own; a handler class built without it shares this one, which is as
    # exact, since an entry is used only while its own frozenset is served.
    bodies: dict[tuple[str, str], tuple[frozenset, bytes]] = {}
    # Replaced per request by parse_request; empty until the first one.
    headers = _Headers()

    def log_message(self, format: str, *args) -> None:
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s %s agent=%s", self.client_address[0], format % args,
                      self._agent())

    def date_time_string(self, timestamp: float | None = None) -> str:
        return _http_date(int(time.time() if timestamp is None else timestamp))

    # -- request parsing (the contract is in the module docstring) -------------

    def parse_request(self) -> bool:
        """Fill `command`, `path`, `request_version`, `close_connection` and
        `headers` from `raw_requestline` and the header block. False once an
        error reply has been sent, or for an empty request line."""
        self.command = None
        # An error reply before the version is read still gets a status line.
        self.request_version = "HTTP/1.1"
        self.close_connection = True
        self.headers = _Headers()
        self.requestline = line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = line.split()
        if not words:
            return False
        version = (1, 1)
        if len(words) >= 3:
            if words[-1] != "HTTP/1.1":
                match = _VERSION.fullmatch(words[-1])
                if match is None:
                    self.send_error(HTTPStatus.BAD_REQUEST,
                                    f"Bad request version ({words[-1]!r})")
                    return False
                version = int(match[1]), int(match[2])
                if version >= (2, 0):
                    self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                    f"Invalid HTTP version ({words[-1][5:]})")
                    return False
            self.close_connection = version < (1, 1)
            self.request_version = words[-1]
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({line!r})")
            return False
        command, path = words[0], words[1]
        if len(words) == 2 and command != "GET":
            self.send_error(HTTPStatus.BAD_REQUEST,
                            f"Bad HTTP/0.9 request type ({command!r})")
            return False
        if path.startswith("//"):  # not a scheme-relative URL (gh-87389)
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        if len(words) == 2:  # HTTP/0.9 has no header block
            self.request_version = "HTTP/0.9"
            return True
        if not self._read_headers():
            return False
        if "transfer-encoding" in self.headers:
            # No transfer coding is decoded, so the body's end is unknown.
            self.send_error(HTTPStatus.NOT_IMPLEMENTED, "Transfer-Encoding not supported")
            return False
        connection = self.headers.get("Connection")
        if connection:
            tokens = {token.strip() for token in connection.lower().split(",")}
            if "close" in tokens:
                self.close_connection = True
            elif "keep-alive" in tokens:
                self.close_connection = False
        if version >= (1, 1) and \
                self.headers.get("Expect", "").lower() == "100-continue":
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> bool:
        """Fill `headers` up to the blank line; False after a 400 or 431."""
        headers = self.headers
        readline = self.rfile.readline
        for _ in range(MAX_HEADERS + 1):
            line = readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                                "Line too long", "header line")
                return False
            if line in (b"\r\n", b"\n", b""):
                return True
            if line[0] in b" \t":
                return self._bad_header(f"folded header line {line!r}")
            name, colon, value = line.partition(b":")
            if not colon or _FIELD_NAME.fullmatch(name) is None:
                return self._bad_header(f"malformed header line {line!r}")
            name = name.decode("ascii").lower()
            if name not in headers:
                headers[name] = value.strip(b" \t\r\n").decode("iso-8859-1")
            elif name == "content-length":
                return self._bad_header("more than one Content-Length")
        self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                        "Too many headers", f"got more than {MAX_HEADERS} headers")
        return False

    def _bad_header(self, explain: str) -> bool:
        # send_error's `Connection: close` also sets close_connection.
        self.send_error(HTTPStatus.BAD_REQUEST, "Bad request header", explain)
        return False

    # -- helpers ------------------------------------------------------------

    def _target(self) -> str:
        return self.base + self.path.lstrip("/")

    def _agent(self) -> str:
        return self.headers.get("X-Agent", "")

    def _reply(self, status: int, body: bytes = b"",
               content_type: str = "text/plain") -> None:
        self.send_response(status)
        if body:
            self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if status == 405:  # RFC 9110 15.5.6
            self.send_header("Allow", ALLOW)
        if self.close_connection:
            self.send_header("Connection", "close")
        if self.request_version == "HTTP/0.9":  # no head: end_headers() sends nothing
            self.wfile.write(body)
            return
        # Head and body leave in one write. A body written on its own waits
        # under Nagle's algorithm for the client's delayed ACK of the head,
        # about 40 ms per reply (RFC 896; RFC 1122 4.2.3.2).
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _read_body(self) -> bytes | None:
        """The whole request body, read before any reply so that a refused
        body is not left on a keep-alive connection to be parsed as the next
        request. None after a 400 for a malformed Content-Length: the end of
        that body cannot be found, so the connection closes."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            self._reply(400, b"malformed Content-Length\n")
            return None
        return self.rfile.read(length) if length else b""

    def _parse_payload(self, target: str, body: bytes) -> frozenset | None:
        content_type = (self.headers.get("Content-Type") or TURTLE).split(";")[0].strip()
        if content_type not in PARSE_FORMATS:
            self._reply(415, f"unsupported media type {content_type}\n".encode())
            return None
        try:
            parsed = parse_document(body.decode("utf-8"), PARSE_FORMATS[content_type],
                                    base=target, default_graph=target)
        except (ParseError, UnicodeDecodeError) as exc:
            self._reply(400, f"unparsable payload: {exc}\n".encode())
            return None
        triples = set()
        for s, p, o, _g in parsed.quads():
            if isinstance(s, BlankNode):
                self._reply(400, b"blank node subjects not allowed in payloads\n")
                return None
            if defrag(s.value) != defrag(target):
                self._reply(
                    400, f"payload subject {s.value} outside target resource\n".encode())
                return None
            triples.add((s, p, o))
        if not triples:
            self._reply(400, b"payload without triples: a PUT replaces a graph\n")
            return None
        if any(isinstance(o, BlankNode) for _, _, o in triples):
            ds = skolemize(Dataset({target: frozenset(triples)}), self.base,
                           f"put-{hashlib.sha256(body).hexdigest()[:16]}")
            triples = set(ds.graph(target))
        return frozenset(triples)

    # -- methods ------------------------------------------------------------

    def do_GET(self) -> None:
        target = self._target()
        snapshot = self.runtime.dataset
        triples = snapshot.graph(target)
        if not triples:
            self.runtime.record_failure("GET", target, 404, self._agent())
            self._reply(404, b"no such resource\n")
            return
        content_type = NTRIPLES if NTRIPLES in self.headers.get("Accept", "") else TURTLE
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
            self.runtime.record_failure("PUT", target, 403, self._agent())
            self._reply(403, b"resource not writable\n")
            return
        triples = self._parse_payload(target, body)
        if triples is None:
            return
        self.runtime.apply_agent_write(target, triples, self._agent(), 204)
        self._reply(204)

    def _refuse_write(self) -> None:
        """POST and DELETE: read the body, so that it is not parsed as the
        next request, then refuse with 405."""
        target = self._target()
        if self._read_body() is None:
            return
        self.runtime.record_failure(self.command, target, 405, self._agent())
        self._reply(405, f"{self.command} not allowed: a PUT replaces a graph\n".encode())

    do_POST = do_DELETE = _refuse_write

    # -- run control -----------------------------------------------------------

    def _sim_put(self, body: bytes) -> None:
        if self.runtime.started:
            self._reply(409, b"run already in progress\n")
            return
        target = self.base + SIM_PATH
        content_type = (self.headers.get("Content-Type") or TURTLE).split(";")[0].strip()
        try:
            parsed = parse_document(body.decode("utf-8"),
                                    PARSE_FORMATS.get(content_type, "turtle"),
                                    base=self.base, default_graph=target)
        except (ParseError, UnicodeDecodeError) as exc:
            self._reply(400, f"unparsable payload: {exc}\n".encode())
            return
        vocab = self.base + SIM_VOCAB
        values: dict[str, object] = {}
        try:
            for _s, p, o, _g in parsed.quads():
                if p.value.startswith(vocab) and isinstance(o, Literal):
                    values[p.value[len(vocab):]] = literal_value(o)
            initial_time = values["initialTime"]
            if isinstance(initial_time, str):
                initial_time = parse_datetime(initial_time)
            if not isinstance(initial_time, datetime):
                raise TypeError("sim:initialTime is not a date-time")
            params = RunParams(
                initial_time=initial_time,
                timeslot_ms=_whole_number(values["timeslotDuration"]),
                iterations=_whole_number(values["iterations"]),
                step_seconds=_whole_number(values.get("simulatedStep", 60)),
            )
        except KeyError as exc:
            self._reply(400, f"missing parameter sim:{exc.args[0]}\n".encode())
            return
        except (ValueError, TypeError) as exc:
            self._reply(400, f"bad run parameter: {exc}\n".encode())
            return
        try:
            self.runtime.start(params)
        except RuntimeError:
            self._reply(409, b"run already in progress\n")
            return
        self._reply(200, b"run started\n")


def _whole_number(value: object) -> int:
    """A run parameter as an int; a lexical integer form is accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


class LinkedDataServer:
    """Socket lifecycle wrapper; bind first so the base IRI is known before
    the dataset is rebased onto it."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_Handler,), {})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
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
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(2)


def default_policy(dynamic: dict) -> frozenset[str]:
    """The graphs that accept writes: those of the actuatable properties."""
    return frozenset(res.graph for res in dynamic.values() if res.writable)
