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
"""

from __future__ import annotations

import hashlib
import logging
import threading
from dataclasses import dataclass, field
from datetime import datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .engine import RunParams, SimulationRuntime
from .ns import DEFAULT_GRAPH, SIM_PATH, SIM_VOCAB, defrag
from .rdf import BlankNode, Dataset, Literal, skolemize
from .rdfio import ParseError, parse_document, serialize_triples
from .sparql import literal_value, parse_datetime

log = logging.getLogger(__name__)

TURTLE = "text/turtle"
NTRIPLES = "application/n-triples"
PARSE_FORMATS = {TURTLE: "turtle", NTRIPLES: "n-triples"}


@dataclass(frozen=True)
class ResourcePolicy:
    """Which graphs agents may read and write.

    Everything is readable except the internal default graph; only the
    listed graphs (actuatable properties) accept writes. Graph creation and
    deletion are disabled unless explicitly switched on.
    """

    writable: frozenset[str] = field(default_factory=frozenset)
    allow_create: bool = False
    allow_delete: bool = False

    def readable(self, graph: str) -> bool:
        return graph != DEFAULT_GRAPH

    def is_writable(self, graph: str) -> bool:
        return graph in self.writable


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "ldsim/0.1"

    # Set per server instance via the class factory below.
    runtime: SimulationRuntime = None  # type: ignore[assignment]
    policy: ResourcePolicy = None  # type: ignore[assignment]
    base: str = ""
    # (graph IRI, media type) -> (triples, body). attach() gives each runtime
    # its own; a handler class built without it shares this one, which is as
    # exact, since an entry is used only while its own frozenset is served.
    bodies: dict[tuple[str, str], tuple[frozenset, bytes]] = {}

    def log_message(self, *args) -> None:  # pragma: no cover - silence stdlib
        pass

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
        if not triples or not self.policy.readable(target):
            # 404 for the default graph too, so its existence never leaks.
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
        if not self.policy.is_writable(target):
            self.runtime.record_failure("PUT", target, 403, self._agent())
            self._reply(403, b"resource not writable\n")
            return
        triples = self._parse_payload(target, body)
        if triples is None:
            return
        existed = self.runtime.dataset.has_graph(target)
        status = 204 if existed else 201
        self.runtime.apply_agent_write("PUT", target, triples, self._agent(), status)
        self._reply(status)

    def do_POST(self) -> None:
        target = self._target()
        body = self._read_body()
        if body is None:
            return
        if not (self.policy.allow_create and self.policy.is_writable(target)):
            self.runtime.record_failure("POST", target, 405, self._agent())
            self._reply(405, b"POST disabled by policy\n")
            return
        triples = self._parse_payload(target, body)
        if triples is None:
            return
        existed = self.runtime.dataset.has_graph(target)
        status = 204 if existed else 201
        self.runtime.apply_agent_write("POST", target, triples, self._agent(), status)
        self._reply(status)

    def do_DELETE(self) -> None:
        target = self._target()
        if self._read_body() is None:
            return
        if not (self.policy.allow_delete and self.policy.is_writable(target)):
            self.runtime.record_failure("DELETE", target, 405, self._agent())
            self._reply(405, b"DELETE disabled by policy\n")
            return
        if not self.runtime.dataset.has_graph(target):
            self.runtime.record_failure("DELETE", target, 404, self._agent())
            self._reply(404, b"no such resource\n")
            return
        self.runtime.apply_agent_write("DELETE", target, None, self._agent(), 204)
        self._reply(204)

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

    def attach(self, runtime: SimulationRuntime, policy: ResourcePolicy) -> None:
        self._handler.runtime = runtime
        self._handler.policy = policy
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


def default_policy(dynamic: dict) -> ResourcePolicy:
    writable = frozenset(res.graph for res in dynamic.values() if res.writable)
    return ResourcePolicy(writable=writable)
