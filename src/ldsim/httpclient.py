"""Minimal keep-alive HTTP client for talking to the Linked Data server.

`get_graph` keeps, per IRI, the last 200 body and the triples parsed from
it, and returns those very triples for a byte-equal body without parsing
again. This is exact: the parse is a pure function of the body, the IRI
(its base and default graph) and the format, and blank-node labels come
from a per-parse counter. Returning the same frozenset also lets a caller
see by identity that the graph is unchanged.
"""

from __future__ import annotations

import http.client
import threading
from urllib.parse import urlsplit

from .rdfio import parse_document, serialize_triples

TURTLE = "text/turtle"


class LdClient:
    """One logical client; connections are per-thread so fan-out is safe."""

    def __init__(self, base: str, agent: str = ""):
        self.base = base if base.endswith("/") else base + "/"
        self.agent = agent
        parts = urlsplit(self.base)
        self._host = parts.hostname or "127.0.0.1"
        self._port = parts.port or 80
        self._local = threading.local()
        self._parsed: dict[str, tuple[bytes, frozenset]] = {}

    def _conn(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(self._host, self._port, timeout=30)
            self._local.conn = conn
        return conn

    def _request(self, method: str, path: str, body: bytes | None = None,
                 headers: dict | None = None) -> tuple[int, bytes]:
        headers = dict(headers or {})
        if self.agent:
            headers["X-Agent"] = self.agent
        for attempt in (0, 1):
            conn = self._conn()
            try:
                conn.request(method, "/" + path.lstrip("/"), body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (http.client.HTTPException, ConnectionError, OSError):
                self._local.conn = None
                if attempt:
                    raise
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
        triples = parse_document(body.decode("utf-8"), "turtle", base=iri,
                                 default_graph=iri).graph(iri)
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

    def delete(self, iri: str) -> int:
        status, _ = self._request("DELETE", self.path_of(iri))
        return status

    def post_graph(self, iri: str, triples) -> int:
        body = serialize_triples(triples, "turtle").encode("utf-8")
        status, _ = self._request("POST", self.path_of(iri), body=body,
                                  headers={"Content-Type": TURTLE})
        return status

    def close(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None
