import http.client
import io
import os
import socket
import subprocess
import sys
import textwrap
import threading
import time
from datetime import datetime, timezone

import pytest

from ldsim.building import GeneratorParams, build_dataset, rebase_partitioned
from ldsim import server as server_module
from ldsim.engine import EnvEntry, RunParams, SimEnvironment, SimulationRuntime
from ldsim.httpclient import LdClient
from ldsim.metrics import audit_write_deltas
from ldsim.ns import RDF_VALUE
from ldsim.rdf import IRI, Literal
from ldsim.rdfio import serialize_triples
from ldsim.server import LinkedDataServer, ResourcePolicy, _Handler, default_policy


def small_params():
    return GeneratorParams(
        rooms=4, floors=1, wings=1, lighting_systems=3,
        systems_with_occupancy=2, systems_with_command=2,
        systems_with_luminance=1, rooms_with_occupancy=2,
        rooms_with_command=2, rooms_with_luminance=1,
        command_points=2, luminance_points=1, hygiene_lights=0, seed=3)


def start_server(policy=None, params=None, seed=7, updates=()):
    server = LinkedDataServer()
    pd = rebase_partitioned(build_dataset(params=params or small_params()), server.base)
    env = SimEnvironment(dataset=pd.dataset, init_entries=[],
                         update_entries=list(updates), seed=seed, base=server.base,
                         dynamic=pd.dynamic)
    runtime = SimulationRuntime(env)
    server.attach(runtime, policy or default_policy(pd.dynamic))
    server.start()
    return server, runtime, pd.dynamic


@pytest.fixture()
def served():
    server, runtime, dynamic = start_server()
    yield server, runtime, dynamic
    server.stop()


def command_resource(dynamic):
    return next(r for r in sorted(dynamic.values(), key=lambda r: r.graph)
                if r.category == "command")


class TestGet:
    def test_room_graph_contains_links(self, served):
        server, runtime, dynamic = served
        client = LdClient(server.base)
        res = command_resource(dynamic)
        status, triples = client.get_graph(res.room)
        assert status == 200
        preds = {p.value for _, p, _ in triples}
        assert any(p.endswith("hasPart") for p in preds)
        assert any(p.endswith("feeds") for p in preds)

    def test_unknown_resource_404(self, served):
        server, _, _ = served
        status, _ = LdClient(server.base).get_graph(server.base + "nothing-here")
        assert status == 404

    def test_default_graph_hidden(self, served):
        server, runtime, _ = served
        # Occupant facts live in the hidden default graph only.
        occupant = server.base + ".well-known/occupant-001"
        status, _ = LdClient(server.base).get_graph(occupant)
        assert status == 404

    def test_content_negotiation(self, served):
        server, _, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base)
        status, body = client._request("GET", client.path_of(res.graph),
                                       headers={"Accept": "application/n-triples"})
        assert status == 200
        assert b"@prefix" not in body
        status, body = client._request("GET", client.path_of(res.graph))
        assert b"@prefix" in body

    def test_sim_resource_reflects_ticks(self, served):
        server, runtime, _ = served
        runtime.initialize(RunParams(
            initial_time=datetime(2020, 5, 22, tzinfo=timezone.utc),
            timeslot_ms=10, iterations=100, step_seconds=60))
        for _ in range(4):
            runtime.tick()
        status, triples = LdClient(server.base).get_graph(server.base + "sim")
        assert status == 200
        values = {o.lexical for s, p, o in triples
                  if p.value.endswith("currentIteration")}
        assert values == {"4"}


def start_params(step_seconds=60):
    return RunParams(initial_time=datetime(2020, 5, 22, 6, tzinfo=timezone.utc),
                     timeslot_ms=10, iterations=100, step_seconds=step_seconds)


class TestBodyCache:
    """GET bodies are cached per graph and media type while the snapshot's
    graph stays the same object; every body must still be what a fresh
    serialisation of the current snapshot gives."""

    @staticmethod
    def fetch(client, iri, accept):
        status, body = client._request("GET", client.path_of(iri),
                                       headers={"Accept": accept})
        assert status == 200
        return body

    def test_get_after_put_returns_new_graph(self, served):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base, agent="tester")
        node = IRI(res.node)
        for value in ("on", "off", "on"):
            client.get_graph(res.graph)
            assert client.put_graph(res.graph, {(node, IRI(RDF_VALUE), Literal(value))}) == 204
            _, triples = client.get_graph(res.graph)
            assert triples == {(node, IRI(RDF_VALUE), Literal(value))}

    def test_get_after_tick_returns_new_graph(self, served):
        server, runtime, _ = served
        runtime.initialize(start_params())
        client = LdClient(server.base)
        for iteration in range(4):
            _, triples = client.get_graph(server.base + "sim")
            assert {o.lexical for _, p, o in triples
                    if p.value.endswith("currentIteration")} == {str(iteration)}
            runtime.tick()

    def test_alternating_formats_each_get_their_own(self, served):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base)
        graph = runtime.dataset.graph(res.graph)
        for _ in range(3):
            for accept, fmt in (("text/turtle", "turtle"),
                                ("application/n-triples", "n-triples")):
                body = self.fetch(client, res.graph, accept)
                assert body == serialize_triples(graph, fmt).encode()

    def test_every_body_is_a_fresh_serialisation(self):
        server, runtime, dynamic = start_server(
            updates=[EnvEntry("sunlight", "builtin"), EnvEntry("occupancy", "builtin")])
        try:
            runtime.initialize(start_params(step_seconds=1800))
            client = LdClient(server.base, agent="tester")
            graphs = sorted(dynamic) + [server.base + "sim", command_resource(dynamic).room]
            commands = [r for r in sorted(dynamic.values(), key=lambda r: r.graph)
                        if r.category == "command"]
            for step in range(6):
                for iri in graphs:
                    for accept, fmt in (("text/turtle", "turtle"),
                                        ("application/n-triples", "n-triples")):
                        body = self.fetch(client, iri, accept)
                        fresh = serialize_triples(runtime.dataset.graph(iri), fmt)
                        assert body == fresh.encode(), (step, iri, fmt)
                res = commands[step % len(commands)]
                value = Literal("on" if step % 2 else "off")
                client.put_graph(res.graph, {(IRI(res.node), IRI(RDF_VALUE), value)})
                runtime.tick()
        finally:
            server.stop()

    def test_unchanged_graph_is_serialised_once(self, served, monkeypatch):
        server, runtime, dynamic = served
        calls = []

        def counting(triples, fmt):
            calls.append(fmt)
            return serialize_triples(triples, fmt)

        monkeypatch.setattr(server_module, "serialize_triples", counting)
        res = command_resource(dynamic)
        client = LdClient(server.base, agent="tester")
        bodies = []
        for _ in range(3):
            bodies.append(self.fetch(client, res.graph, "text/turtle"))
            bodies.append(self.fetch(client, res.graph, "application/n-triples"))
        assert calls == ["turtle", "n-triples"]
        client.put_graph(res.graph, {(IRI(res.node), IRI(RDF_VALUE), Literal("on"))})
        bodies.append(self.fetch(client, res.graph, "text/turtle"))
        assert calls == ["turtle", "n-triples", "turtle"]
        _, ops = runtime.snapshot_log()
        assert [op.payload_bytes for op in ops if op.is_read] == [len(b) for b in bodies]


class TestPut:
    def test_switch_on_and_read_back(self, served):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base, agent="tester")
        node = IRI(res.node)
        status = client.put_graph(res.graph, {(node, IRI(RDF_VALUE), Literal("on"))})
        assert status == 204
        _, triples = client.get_graph(res.graph)
        assert (node, IRI(RDF_VALUE), Literal("on")) in triples

    def test_room_not_writable(self, served):
        server, _, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base)
        status = client.put_graph(res.room, {(IRI(res.room), IRI(RDF_VALUE),
                                              Literal("x"))})
        assert status == 403

    def test_malformed_payload_leaves_dataset(self, served):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        client = LdClient(server.base)
        status, _ = client._request("PUT", client.path_of(res.graph),
                                    body=b"this is not turtle",
                                    headers={"Content-Type": "text/turtle"})
        assert status == 400
        assert runtime.dataset is before

    def test_foreign_subject_rejected(self, served):
        server, _, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base)
        status = client.put_graph(res.graph, {(IRI(server.base + "other"),
                                               IRI(RDF_VALUE), Literal("on"))})
        assert status == 400

    def test_fragment_subject_allowed(self, served):
        server, _, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base)
        assert res.node.startswith(res.graph + "#")
        status = client.put_graph(res.graph, {(IRI(res.node), IRI(RDF_VALUE),
                                               Literal("off"))})
        assert status == 204

    def test_post_and_delete_gated_off(self, served):
        server, _, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base)
        assert client.post_graph(res.graph, {(IRI(res.node), IRI(RDF_VALUE),
                                              Literal("x"))}) == 405
        assert client.delete(res.graph) == 405


class TestPermissivePolicy:
    def test_create_and_delete_classified(self):
        params = small_params()
        pd = build_dataset(params=params)
        server = LinkedDataServer()
        from ldsim.rdf import rebase_dataset as rb

        dataset = rb(pd.dataset, pd.base, server.base)
        env = SimEnvironment(dataset=dataset, init_entries=[], update_entries=[],
                             seed=1, base=server.base, dynamic={})
        runtime = SimulationRuntime(env)
        fresh = server.base + "scratch"
        policy = ResourcePolicy(writable=frozenset({fresh}), allow_create=True,
                                allow_delete=True)
        server.attach(runtime, policy)
        server.start()
        try:
            client = LdClient(server.base, agent="writer")
            node = IRI(fresh)
            assert client.put_graph(fresh, {(node, IRI(RDF_VALUE), Literal("1"))}) == 201
            assert client.post_graph(fresh, {(node, IRI(RDF_VALUE), Literal("2"))}) == 204
            _, triples = client.get_graph(fresh)
            assert len(triples) == 2  # POST merges
            assert client.delete(fresh) == 204
            status, _ = client.get_graph(fresh)
            assert status == 404
            _, ops = runtime.snapshot_log()
            writes = [op for op in ops if not op.is_read and op.ok]
            assert [op.classification for op in writes] == ["create", "replace", "delete"]
            assert audit_write_deltas(ops) == []
        finally:
            server.stop()


class TestSimPut:
    PAYLOAD = """
    @prefix sim: <vocab/sim#> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    <sim> sim:initialTime "2020-05-22T00:00:00+00:00"^^xsd:dateTime ;
          sim:timeslotDuration 20 ;
          sim:iterations 5 ;
          sim:simulatedStep 60 .
    """

    def test_run_starts_and_finishes(self, served):
        server, runtime, _ = served
        client = LdClient(server.base)
        status, body = client.put_raw("sim", self.PAYLOAD)
        assert status == 200, body
        assert runtime.finished.wait(5)
        assert runtime.iteration == 5

    def test_second_put_conflicts(self, served):
        server, runtime, _ = served
        client = LdClient(server.base)
        assert client.put_raw("sim", self.PAYLOAD)[0] == 200
        assert client.put_raw("sim", self.PAYLOAD)[0] == 409
        runtime.finished.wait(5)

    def test_missing_parameter_rejected(self, served):
        server, runtime, _ = served
        payload = '@prefix sim: <vocab/sim#> . <sim> sim:iterations 5 .'
        status, body = LdClient(server.base).put_raw("sim", payload)
        assert status == 400
        assert b"initialTime" in body


    @pytest.mark.parametrize("literal", [
        '"five"',                                    # not an integer
        '"abc"^^xsd:integer',                        # malformed integer
        '"2020-05-22T00:00:00Z"^^xsd:dateTime',      # a date-time, not a count
        '2.5',                                       # a decimal, not a count
    ])
    def test_ill_typed_count_rejected(self, served, literal):
        server, runtime, _ = served
        payload = self.PAYLOAD.replace("sim:iterations 5", f"sim:iterations {literal}")
        status, body = LdClient(server.base).put_raw("sim", payload)
        assert status == 400, body
        assert not runtime.started

    def test_ill_typed_initial_time_rejected(self, served):
        server, runtime, _ = served
        payload = self.PAYLOAD.replace(
            '"2020-05-22T00:00:00+00:00"^^xsd:dateTime', "5")
        status, body = LdClient(server.base).put_raw("sim", payload)
        assert status == 400, body
        assert not runtime.started


def exchange(sock: socket.socket, request: bytes) -> http.client.HTTPResponse:
    """Send one raw request on an open connection and read its whole reply."""
    sock.sendall(request)
    reply = http.client.HTTPResponse(sock)
    reply.begin()
    reply.read()
    return reply


class TestRawConnection:
    """Requests on one keep-alive socket, as a client library sends them."""

    @pytest.mark.parametrize("method, target, content_type, status", [
        ("PUT", "room", "text/turtle", 403),
        ("POST", "graph", "text/turtle", 405),
        ("PUT", "graph", "application/json", 415),
    ])
    def test_refused_body_is_drained(self, served, method, target, content_type,
                                     status):
        server, _, dynamic = served
        res = command_resource(dynamic)
        iri = {"graph": res.graph, "room": res.room}[target]
        body = serialize_triples(
            {(IRI(iri), IRI(RDF_VALUE), Literal("on"))}, "turtle").encode()
        host, port = server.base[len("http://"):-1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            refused = exchange(sock, (
                f"{method} /{iri[len(server.base):]} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
            assert refused.status == status
            path = res.graph[len(server.base):]
            after = exchange(sock, f"GET /{path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            assert after.status == 200

    @pytest.mark.parametrize("length", ["ten", "-5"])
    def test_malformed_content_length_gets_400(self, served, length):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        host, port = server.base[len("http://"):-1].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            reply = exchange(sock, (
                f"PUT /{res.graph[len(server.base):]} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: text/turtle\r\n"
                f"Content-Length: {length}\r\n\r\n").encode())
            assert reply.status == 400
            assert reply.getheader("Connection") == "close"
            assert sock.recv(1) == b""  # closed: the body's end is unknown
        assert runtime.dataset is before


SKOLEM_SCRIPT = textwrap.dedent("""
    from ldsim.engine import SimEnvironment, SimulationRuntime
    from ldsim.httpclient import LdClient
    from ldsim.rdf import Dataset
    from ldsim.server import LinkedDataServer, ResourcePolicy

    server = LinkedDataServer()
    target = server.base + "scratch"
    env = SimEnvironment(dataset=Dataset(), init_entries=[], update_entries=[],
                         seed=1, base=server.base)
    runtime = SimulationRuntime(env)
    server.attach(runtime, ResourcePolicy(writable=frozenset({target}),
                                          allow_create=True))
    server.start()
    try:
        client = LdClient(server.base)
        status, _ = client.put_raw(
            "scratch", "<scratch#it> <http://example.org/p> _:b1, _:b2 .")
        assert status == 201, status
        for _s, _p, o in sorted(runtime.dataset.graph(target), key=repr):
            print(o.value[len(server.base):])
    finally:
        server.stop()
""")


def test_skolem_iris_do_not_depend_on_hash_seed():
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", SKOLEM_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count(".well-known/genid/") == 2
    assert outputs[0] == outputs[1]


class _RecordingSocket:
    """A client connection holding one raw request; logs each send()."""

    def __init__(self, request: bytes):
        self._request = request
        self.sends: list[bytes] = []

    def makefile(self, mode, *args, **kwargs):
        return io.BytesIO(self._request)

    def sendall(self, data):
        self.sends.append(bytes(data))


def serve_raw(served, request: bytes) -> list[bytes]:
    """Handle one raw request with the server's handler; return each send."""
    server, runtime, dynamic = served
    handler = type("RecordedHandler", (_Handler,), {
        "runtime": runtime, "policy": default_policy(dynamic), "base": server.base})
    sock = _RecordingSocket(request)
    handler(sock, ("127.0.0.1", 0), None)
    return sock.sends


class TestReplyWrites:
    """A reply reaches the socket in one write. A body written after the
    head waits for the client's delayed ACK under Nagle, about 40 ms."""

    @pytest.mark.parametrize("method, target, status", [
        ("GET", "graph", 200), ("GET", "nothing-here", 404),
        ("PUT", "graph", 204), ("PUT", "room", 403)])
    def test_reply_is_one_write(self, served, method, target, status):
        server, _, dynamic = served
        res = command_resource(dynamic)
        iri = {"graph": res.graph, "room": res.room}.get(target, server.base + target)
        payload = b""
        if method == "PUT" and target == "graph":
            node = IRI(res.node)
            payload = serialize_triples(
                {(node, IRI(RDF_VALUE), Literal("on"))}, "turtle").encode()
        request = (f"{method} /{iri[len(server.base):]} HTTP/1.1\r\n"
                   f"Content-Type: text/turtle\r\n"
                   f"Content-Length: {len(payload)}\r\n\r\n").encode() + payload
        sends = serve_raw(served, request)
        assert len(sends) == 1, sends
        head, sep, body = sends[0].partition(b"\r\n\r\n")
        assert sep and head.startswith(f"HTTP/1.1 {status} ".encode())
        lengths = [int(line.split(b":", 1)[1]) for line in head.split(b"\r\n")
                   if line.lower().startswith(b"content-length:")]
        assert lengths == [len(body)]
        assert bool(body) == (status != 204)

    def test_http09_gets_bare_body(self, served):
        server, _, dynamic = served
        path = command_resource(dynamic).graph[len(server.base):]
        sends = serve_raw(served, f"GET /{path}\r\n".encode())
        assert len(sends) == 1
        assert sends[0].startswith(b"@prefix")


class TestConcurrency:
    def test_atomic_writes_under_ticks(self, served):
        server, runtime, dynamic = served
        runtime.initialize(RunParams(
            initial_time=datetime(2020, 5, 22, tzinfo=timezone.utc),
            timeslot_ms=5, iterations=10 ** 6, step_seconds=60))
        stop = threading.Event()

        def ticker():
            while not stop.is_set():
                runtime.tick()

        thread = threading.Thread(target=ticker, daemon=True)
        thread.start()
        try:
            res = command_resource(dynamic)
            client = LdClient(server.base, agent="w")
            node = IRI(res.node)
            for i in range(60):
                value = Literal("on" if i % 2 else "off")
                assert client.put_graph(res.graph, {(node, IRI(RDF_VALUE), value)}) == 204
                status, triples = client.get_graph(res.graph)
                assert status == 200
                values = [o for s, p, o in triples if p.value == RDF_VALUE]
                assert values == [value]  # snapshot isolation: never half-applied
        finally:
            stop.set()
            thread.join(2)
        _, ops = runtime.snapshot_log()
        assert audit_write_deltas(ops) == []

    @pytest.mark.perf
    def test_mixed_throughput(self, served):
        server, runtime, dynamic = served
        runtime.initialize(RunParams(
            initial_time=datetime(2020, 5, 22, tzinfo=timezone.utc),
            timeslot_ms=500, iterations=10 ** 6, step_seconds=60))
        stop = threading.Event()

        def ticker():
            next_at = time.monotonic()
            while not stop.is_set():
                next_at += 0.5
                runtime.tick()
                delay = next_at - time.monotonic()
                if delay > 0:
                    stop.wait(delay)

        ticker_thread = threading.Thread(target=ticker, daemon=True)
        ticker_thread.start()
        res = command_resource(dynamic)
        node = IRI(res.node)
        done = []
        errors = []

        def worker(n):
            # Count only served requests, and hand any failure to the test
            # thread: a worker that dies would otherwise show as a low rate.
            try:
                client = LdClient(server.base, agent=f"w{n}")
                count = 0
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    status, _ = client.get_graph(res.graph)
                    assert status == 200, f"GET answered {status}"
                    status = client.put_graph(
                        res.graph, {(node, IRI(RDF_VALUE), Literal("on"))})
                    assert status == 204, f"PUT answered {status}"
                    count += 2
                done.append(count)
            except Exception as exc:
                errors.append(exc)

        workers = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        stop.set()
        ticker_thread.join(2)
        if errors:
            raise errors[0]
        rate = sum(done) / 2.0
        assert rate >= 200, f"only {rate:.0f} requests/s"
