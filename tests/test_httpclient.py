"""The client: its parse cache, where a byte-equal 200 body of one IRI gives
the very triples parsed before and anything else is parsed afresh, and its
HTTP/1.1 transport, against a scripted socket server and the live server."""

import http.client
import re
import socket
import sys
import threading
import time

import pytest

from ldsim import httpclient
from ldsim.bench import sim_start_payload
from ldsim.engine import RunParams, SimEnvironment, SimulationRuntime
from ldsim.httpclient import LdClient
from ldsim.ns import RDF_VALUE, SIM_PATH
from ldsim.rdf import IRI, Dataset, Literal
from ldsim.server import LinkedDataServer

pytestmark = pytest.mark.usefixtures("close_clients")

BASE = "http://example.org/"


class ScriptedClient(LdClient):
    """Replies from a script instead of a connection: path -> (status, body)."""

    def __init__(self):
        super().__init__(BASE)
        self.replies: dict[str, tuple[int, bytes]] = {}

    def _request(self, method, path, body=None, headers=None):
        assert method == "GET"
        return self.replies[path]


def value_body(value: str) -> bytes:
    return f'<#it> <{RDF_VALUE}> "{value}" .\n'.encode()


@pytest.fixture()
def parses(monkeypatch):
    calls = []
    original = httpclient.parse_document

    def counting(text, fmt, **kwargs):
        calls.append(kwargs["base"])
        return original(text, fmt, **kwargs)

    monkeypatch.setattr(httpclient, "parse_document", counting)
    return calls


def test_unchanged_body_returns_the_same_triples(parses):
    client = ScriptedClient()
    client.replies["light"] = (200, value_body("on"))
    status, first = client.get_graph(BASE + "light")
    client.replies["light"] = (200, bytes(value_body("on")))  # equal, not identical
    again = client.get_graph(BASE + "light")
    assert status == 200 and again[0] == 200
    assert again[1] is first
    assert first == {(IRI(BASE + "light#it"), IRI(RDF_VALUE), Literal("on"))}
    assert parses == [BASE + "light"]


def test_changed_body_is_parsed_again(parses):
    client = ScriptedClient()
    for value in ("on", "off", "on"):
        client.replies["light"] = (200, value_body(value))
        _, triples = client.get_graph(BASE + "light")
        assert triples == {(IRI(BASE + "light#it"), IRI(RDF_VALUE), Literal(value))}
    assert len(parses) == 3


def test_non_200_reply_is_never_cached(parses):
    client = ScriptedClient()
    body = value_body("on")
    client.replies["light"] = (404, body)
    assert client.get_graph(BASE + "light") == (404, frozenset())
    assert parses == []
    client.replies["light"] = (200, body)
    status, triples = client.get_graph(BASE + "light")
    assert status == 200 and triples
    assert parses == [BASE + "light"]
    client.replies["light"] = (500, body)
    assert client.get_graph(BASE + "light") == (500, frozenset())
    client.replies["light"] = (200, body)
    assert client.get_graph(BASE + "light")[1] is triples
    assert parses == [BASE + "light"]


def test_cache_is_keyed_per_iri(parses):
    client = ScriptedClient()
    body = value_body("on")  # relative, so each IRI resolves it to its own node
    client.replies["a"] = (200, body)
    client.replies["b"] = (200, body)
    _, a = client.get_graph(BASE + "a")
    _, b = client.get_graph(BASE + "b")
    assert a == {(IRI(BASE + "a#it"), IRI(RDF_VALUE), Literal("on"))}
    assert b == {(IRI(BASE + "b#it"), IRI(RDF_VALUE), Literal("on"))}
    assert client.get_graph(BASE + "a")[1] is a
    assert client.get_graph(BASE + "b")[1] is b
    assert parses == [BASE + "a", BASE + "b"]


# -- transport -------------------------------------------------------------------


class ScriptedServer:
    """A localhost server that answers each request with the next scripted
    reply and records each request with the number of its connection.

    A reply is (segments, drop): the byte segments are sent one by one, a
    little apart, and `drop` closes the connection afterwards without saying
    so. Otherwise a connection is served until the client closes it."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.requests: list[tuple[int, bytes]] = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.base = f"http://127.0.0.1:{self._listener.getsockname()[1]}/"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while self.replies:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # closed by close()
                return
            self.connections += 1
            with conn, conn.makefile("rb") as reader:
                conn.settimeout(10)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    self._serve_connection(conn, reader, self.connections)
                except OSError:
                    pass

    def _serve_connection(self, conn, reader, number: int) -> None:
        while self.replies:
            head = b""
            while not head.endswith(b"\r\n\r\n"):
                line = reader.readline()
                if not line:
                    return
                head += line
            length = re.search(rb"(?im)^content-length: *(\d+)", head)
            body = reader.read(int(length.group(1))) if length else b""
            self.requests.append((number, head + body))
            segments, drop = self.replies.pop(0)
            for segment in segments:
                conn.sendall(segment)
                time.sleep(0.01)
            if drop:
                return

    def close(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept()
        self._listener.close()
        self._thread.join(5)


def reply(body: bytes = b"ok", *headers: bytes, length: bool = True) -> list[bytes]:
    """One reply in one segment, with a Content-Length unless told not to."""
    if length:
        headers += (b"Content-Length: %d" % len(body),)
    return [b"HTTP/1.1 200 OK\r\n" + b"".join(h + b"\r\n" for h in headers)
            + b"\r\n" + body]


@pytest.fixture()
def scripted():
    servers = []

    def start(*replies):
        servers.append(ScriptedServer(*replies))
        return servers[-1], LdClient(servers[-1].base, agent="tester")

    yield start
    for server in servers:
        server.close()


def request_lines(server) -> list[tuple[int, bytes]]:
    return [(number, raw.split(b"\r\n", 1)[0]) for number, raw in server.requests]


def test_connection_close_reply_makes_the_next_request_reconnect(scripted):
    server, client = scripted((reply(b"a", b"Connection: close"), False),
                              (reply(b"b"), False))
    assert client._request("GET", "a") == (200, b"a")
    assert client._request("GET", "b") == (200, b"b")
    assert request_lines(server) == [(1, b"GET /a HTTP/1.1"), (2, b"GET /b HTTP/1.1")]


def test_connection_dropped_while_idle_is_retried_once(scripted):
    server, client = scripted((reply(b"a"), True), (reply(b"b"), False))
    assert client._request("GET", "a") == (200, b"a")
    time.sleep(0.05)  # the server has dropped the idle connection
    assert client._request("GET", "b") == (200, b"b")
    assert request_lines(server) == [(1, b"GET /a HTTP/1.1"), (2, b"GET /b HTTP/1.1")]


def test_second_failure_raises(scripted):
    server, client = scripted((reply(b"a"), True), ([], True), (reply(b"c"), False))
    assert client._request("GET", "a") == (200, b"a")
    time.sleep(0.05)
    with pytest.raises((http.client.HTTPException, OSError)):
        client._request("GET", "b")
    assert server.connections == 2  # one retry, not two


@pytest.mark.parametrize("segments, drop, error", [
    (reply(b"no length", length=False), False, http.client.HTTPException),
    (reply(b"3\r\nabc\r\n0\r\n\r\n", b"Transfer-Encoding: chunked"), False,
     http.client.HTTPException),  # a Content-Length beside it does not count
    ([b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"], True,
     http.client.IncompleteRead),
    ([b"HTTP/2 200\r\nContent-Length: 2\r\n\r\nok"], False, http.client.BadStatusLine),
    (reply(b"ok", b"X-Big: " + b"a" * 70_000), False, http.client.LineTooLong),
    (reply(b"ok", *[b"X-N: %d" % n for n in range(100)]), False,
     http.client.HTTPException),
], ids=["no-length", "chunked", "short-body", "not-http1", "long-line",
        "101-headers"])
def test_unacceptable_reply_raises_without_hanging(scripted, segments, drop, error):
    server, client = scripted((segments, drop), (segments, drop))
    started = time.monotonic()
    with pytest.raises(error):
        client._request("GET", "a")
    assert time.monotonic() - started < 5
    assert server.connections == 2


def test_hundred_headers_are_accepted(scripted):
    _, client = scripted((reply(b"ok", *[b"X-N: %d" % n for n in range(99)]), False))
    assert client._request("GET", "a") == (200, b"ok")


def test_body_split_across_segments_is_read_whole(scripted):
    body = bytes(range(256)) * 12
    head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body)
    segments = [head, body[:1000], body[1000:1001], body[1001:]]
    server, client = scripted((segments, False), (reply(b"next"), False))
    assert client._request("GET", "a") == (200, body)
    assert client._request("GET", "b") == (200, b"next")  # nothing left over
    assert server.connections == 1


def test_request_carries_host_agent_accept_and_length(scripted):
    server, client = scripted(*[(reply(b""), False)] * 3)
    assert client.get_graph(server.base + "a") == (200, frozenset())
    assert client.put_raw("b", "") == (200, b"")
    node = IRI(server.base + "c#it")
    assert client.put_graph(server.base + "c", {(node, IRI(RDF_VALUE), Literal("on"))}) \
        == 200
    heads = []
    for _, raw in server.requests:
        head, body = raw.split(b"\r\n\r\n", 1)
        line, *fields = head.decode().split("\r\n")
        heads.append((line, dict(f.split(": ", 1) for f in fields), body))
    host = server.base[len("http://"):-1]
    (get, get_fields, _), (put, put_fields, _), (_, full_fields, full_body) = heads
    assert get == "GET /a HTTP/1.1"
    assert get_fields == {"Host": host, "X-Agent": "tester", "Accept": "text/turtle"}
    assert put == "PUT /b HTTP/1.1"
    assert put_fields == {"Host": host, "X-Agent": "tester",
                          "Content-Type": "text/turtle", "Content-Length": "0"}
    assert b'"on"' in full_body
    assert full_fields["Content-Length"] == str(len(full_body))
    assert server.connections == 1


@pytest.mark.parametrize("path", ["a b", "a\r\nX-Injected: 1", "café"])
def test_unsendable_target_is_refused_before_connecting(scripted, path):
    server, client = scripted((reply(b"ok"), False))
    with pytest.raises(http.client.InvalidURL):
        client._request("GET", path)
    assert server.connections == 0


# -- against the live server --------------------------------------------------------


@pytest.fixture()
def live():
    server = LinkedDataServer()
    light = server.base + "light"
    dataset = Dataset({
        light: frozenset({(IRI(light + "#it"), IRI(RDF_VALUE), Literal("on"))}),
        server.base + "room": frozenset({(IRI(server.base + "room#it"),
                                          IRI(RDF_VALUE), Literal("dim"))}),
    })
    env = SimEnvironment(dataset=dataset, init_entries=[], update_entries=[],
                         seed=1, base=server.base)
    runtime = SimulationRuntime(env)
    server.attach(runtime, frozenset({light}))
    server.start()
    yield server, runtime
    server.stop()
    if runtime.started:
        runtime.finished.wait(5)


def reference(server, method: str, path: str, body: bytes | None = None):
    """The same request through `http.client`: (status, body)."""
    host, port = server.base[len("http://"):-1].split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request(method, "/" + path, body=body,
                     headers={"Content-Type": "text/turtle"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_error_replies_keep_status_and_body(live):
    server, _ = live
    client = LdClient(server.base, agent="tester")
    start = sim_start_payload(RunParams(timeslot_ms=20, iterations=2)).encode()
    refused = f'<room#it> <{RDF_VALUE}> "on" .'.encode()
    assert client._request("PUT", SIM_PATH, start)[0] == 200
    for method, path, body, status in [("GET", "nothing-here", None, 404),
                                       ("PUT", "room", refused, 403),
                                       ("PUT", SIM_PATH, start, 409)]:
        got = client._request(method, path, body, {"Content-Type": "text/turtle"})
        assert got == reference(server, method, path, body)
        assert got[0] == status and got[1]


def test_client_does_not_use_http_client_parsing(live, monkeypatch):
    # The agent's reads must not go back through `http.client` and its
    # `email`-based header parser. Only calls on this thread are refused;
    # tests/test_server.py holds the server's handler threads to the same.
    client_thread = threading.current_thread()

    def refusing(original):
        def refuse(*args, **kwargs):
            if threading.current_thread() is client_thread:
                raise AssertionError(f"http.client.{original.__name__} used")
            return original(*args, **kwargs)
        return refuse

    for name in ("HTTPConnection", "parse_headers"):
        monkeypatch.setattr(http.client, name, refusing(getattr(http.client, name)))
    server, runtime = live
    client = LdClient(server.base, agent="tester")
    light = server.base + "light"
    node = IRI(light + "#it")
    assert client.get_graph(light) == (200, {(node, IRI(RDF_VALUE), Literal("on"))})
    assert client.put_graph(light, {(node, IRI(RDF_VALUE), Literal("off"))}) == 204
    assert client.get_graph(light) == (200, {(node, IRI(RDF_VALUE), Literal("off"))})
    start = sim_start_payload(RunParams(timeslot_ms=20, iterations=2))
    assert client.put_raw(SIM_PATH, start) == (200, b"run started\n")
    assert runtime.finished.wait(5)


def test_close_all_closes_the_connection_of_every_thread(live):
    server, _ = live
    client = LdClient(server.base, agent="tester")
    light = server.base + "light"
    sockets = []

    def fetch():
        assert client.get_graph(light)[0] == 200
        sockets.append(client._local.conn[0])

    for thread in [threading.Thread(target=fetch) for _ in range(2)]:
        thread.start()
        thread.join()
    fetch()
    assert len({id(sock) for sock in sockets}) == 3
    assert all(sock.fileno() >= 0 for sock in sockets)
    client.close_all()
    assert all(sock.fileno() < 0 for sock in sockets)
    fetch()  # this thread connects again
    assert sockets[-1].fileno() >= 0 and sockets[-1] is not sockets[2]
    client.close_all()


def test_close_all_while_threads_request(live):
    # Connections opened while close_all runs must not escape its set: after
    # the last close_all every socket any thread used is closed.
    server, _ = live
    client = LdClient(server.base, agent="tester")
    light = server.base + "light"
    used, statuses = [], []

    def worker():
        for _ in range(200):
            statuses.append(client.get_graph(light)[0])
            used.append(client._local.conn[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(5):
            time.sleep(0.05)
            client.close_all()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    client.close_all()
    assert statuses == [200] * 800
    assert all(sock.fileno() < 0 for sock in used)
