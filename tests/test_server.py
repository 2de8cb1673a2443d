import email.utils
import http.client
import http.server
import io
import logging
import os
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
from datetime import datetime, timezone

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldsim.building import GeneratorParams, build_dataset
from ldsim import server as server_module
from ldsim.engine import EnvEntry, RunParams, SimEnvironment, SimulationRuntime, dry_run
from ldsim.httpclient import LdClient, ReplyReader
from ldsim.metrics import audit_write_deltas
from ldsim.ns import DEFAULT_GRAPH, RDF_TYPE, RDF_VALUE, RDFS
from ldsim.rdf import IRI, Literal
from ldsim.rdfio import serialize_triples
from ldsim.server import LinkedDataServer, _Handler, default_policy
from ldsim.tasks import build_environment, default_run_params, fault_targets, load_task

pytestmark = pytest.mark.usefixtures("close_clients")


def small_params():
    return GeneratorParams(
        rooms=4, floors=1, wings=1, lighting_systems=3,
        systems_with_occupancy=2, systems_with_command=2,
        systems_with_luminance=1, rooms_with_occupancy=2,
        rooms_with_command=2, rooms_with_luminance=1,
        command_points=2, luminance_points=1, hygiene_lights=0, seed=3)


def start_server(params=None, seed=7, updates=()):
    server = LinkedDataServer()
    pd = build_dataset(params=params or small_params(), base=server.base)
    env = SimEnvironment(dataset=pd.dataset, init_entries=[],
                         update_entries=list(updates), seed=seed, base=server.base,
                         dynamic=pd.dynamic)
    runtime = SimulationRuntime(env)
    server.attach(runtime, default_policy(pd.dynamic))
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

    def test_default_graph_is_not_a_target(self, served):
        # Even in absolute form, a target is looked up under the base IRI.
        server, runtime, _ = served
        assert runtime.dataset.has_graph(DEFAULT_GRAPH)
        with connect(server) as sock:
            reply = exchange(sock, f"GET {DEFAULT_GRAPH} HTTP/1.1\r\n\r\n".encode())
        assert reply.status == 404

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
        managed = {tr for tr in runtime.dataset.graph(res.graph) if tr[1] != IRI(RDF_VALUE)}
        for value in ("on", "off", "on"):
            client.get_graph(res.graph)
            assert client.put_graph(res.graph, {(node, IRI(RDF_VALUE), Literal(value))}) == 204
            _, triples = client.get_graph(res.graph)
            assert triples == managed | {(node, IRI(RDF_VALUE), Literal(value))}

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
    def test_write_records_its_body_byte_count(self, served):
        # A PUT's record holds the byte count of its body, as a GET's does.
        # The last body's doubled ';' is Turtle too (rule [7]).
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base, agent="tester")
        path = client.path_of(res.graph)
        bodies = [f"<{res.node}> <{RDF_VALUE}> \"on\" .\n",
                  f"<#it> <{RDF_VALUE}> \"off\" , \"off\" .  # one triple\n",
                  f"<{res.node}> <{RDF_VALUE}> \"on\" ;; <{RDF_VALUE}> \"on\" .\n"]
        assert [client.put_raw(path, body)[0] for body in bodies] == [204, 204, 204]
        _, ops = runtime.snapshot_log()
        assert [op.payload_bytes for op in ops if op.method == "PUT"] == \
            [len(body.encode()) for body in bodies]

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

    def test_iri_with_an_excluded_character_refused(self, served):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        status, body = LdClient(server.base).put_raw(
            res.graph[len(server.base):], f'<{res.node}> <{RDF_VALUE}> <{res.graph}#a b> .')
        assert status == 400 and b"unparsable payload" in body
        assert runtime.dataset is before

    def test_malformed_string_after_a_run_of_blanks_refused_at_once(self, served):
        # Blanks skipped as a prefix of every token pattern were backtracked
        # into exponentially when no token followed, inside one regex call
        # that held the interpreter lock and so stopped the whole server.
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        payload = f'<{res.node}> <{RDF_VALUE}>{" " * 40}"on\n .'
        started = time.monotonic()
        status, body = LdClient(server.base).put_raw(res.graph[len(server.base):], payload)
        assert time.monotonic() - started < 5
        column = payload.index('"on') + 1
        assert status == 400 and f"malformed string (line 1, column {column})".encode() in body
        assert runtime.dataset is before

    def test_foreign_subject_rejected(self, served):
        server, _, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base)
        status = client.put_graph(res.graph, {(IRI(server.base + "other"),
                                               IRI(RDF_VALUE), Literal("on"))})
        assert status == 422

    def test_fragment_subject_allowed(self, served):
        server, _, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base)
        assert res.node.startswith(res.graph + "#")
        status = client.put_graph(res.graph, {(IRI(res.node), IRI(RDF_VALUE),
                                               Literal("off"))})
        assert status == 204

    @pytest.mark.parametrize("payload", ["", "@prefix ex: <http://example.org/> ."])
    def test_payload_without_triples_refused(self, served, payload):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        client = LdClient(server.base, agent="tester")
        status, body = client.put_raw(client.path_of(res.graph), payload)
        assert status == 422 and b"rdf:value" in body
        assert runtime.dataset is before
        [record] = runtime.snapshot_log()[1]
        assert (record.method, record.target, record.status, record.agent) == \
            ("PUT", res.graph, 422, "tester")

    def test_unsupported_media_type_refused_and_recorded(self, served):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        client = LdClient(server.base, agent="tester")
        status, _ = client._request("PUT", client.path_of(res.graph), body=b"{}",
                                    headers={"Content-Type": "application/json"})
        assert status == 415
        assert runtime.dataset is before
        [record] = runtime.snapshot_log()[1]
        assert (record.method, record.status) == ("PUT", 415)


# Drawn PUT bodies: (subject, predicate, object) choices, written out per graph.
SUBJECTS = {"node": "<{g}#it>", "other": "<{g}#other>", "graph": "<{g}>", "blank": "_:b"}
PREDICATES = {"value": f"<{RDF_VALUE}>", "label": f"<{RDFS}label>", "type": f"<{RDF_TYPE}>"}
OBJECTS = {"on": '"on"', "off": '"off"', "junk": '"junk"', "on@en": '"on"@en', "zero": "0",
           "iri": "<{g}#other>"}
BODY_TRIPLES = st.lists(st.tuples(st.sampled_from(sorted(SUBJECTS)),
                                  st.sampled_from(sorted(PREDICATES)),
                                  st.sampled_from(sorted(OBJECTS))), max_size=3)


class TestWriteContract:
    """A PUT sets a light command's value in a graph that exists; none is
    created or deleted, and any other body is refused."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(BODY_TRIPLES)
    def test_put_sets_only_the_value_or_gets_422(self, served, drawn):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        body = " ".join(f"{SUBJECTS[s]} {PREDICATES[p]} {OBJECTS[o]} ."
                        for s, p, o in drawn).format(g=res.graph)
        before = runtime.dataset
        status, _ = LdClient(server.base, agent="tester").put_raw(
            res.graph[len(server.base):], body)
        record = runtime.snapshot_log()[1][-1]
        valid = set(drawn) in ({("node", "value", "on")}, {("node", "value", "off")})
        if not valid:
            assert status == 422, body
            assert runtime.dataset is before
            assert (record.method, record.target, record.status) == ("PUT", res.graph, 422)
            return
        assert status == 204, body
        node, value = IRI(res.node), IRI(RDF_VALUE)
        kept = {tr for tr in before.graph(res.graph) if tr[:2] != (node, value)}
        assert runtime.dataset.graph(res.graph) == kept | {(node, value, Literal(drawn[0][2]))}
        assert runtime.dataset.graph_names() == before.graph_names()
        assert (record.method, record.target, record.status) == ("PUT", res.graph, 204)

    @pytest.mark.parametrize("tid", ["TS1", "TC1", "TC7"])
    def test_refused_writes_leave_the_dry_run_faults(self, tid):
        # One write per writable graph of the model at slot 0 once ended
        # almost every fault of the day: a value no query names, a label
        # without a value, and a zero setpoint each got 204.
        server = LinkedDataServer()
        pd = build_dataset(params=GeneratorParams(seed=42), base=server.base)
        task = load_task(tid, server.base)
        runtime = SimulationRuntime(build_environment(task, pd, 42), task.fault_queries)
        server.attach(runtime, default_policy(pd.dynamic))
        server.start()
        try:
            params = default_run_params(task, 144)  # a day in 10-minute slots
            runtime.initialize(params)
            before = runtime.dataset
            client = LdClient(server.base, agent="cheat")
            value, label = f"<{RDF_VALUE}>", f"<{RDFS}label>"
            statuses = {}
            for res in sorted(pd.dynamic.values(), key=lambda r: r.graph):
                path = client.path_of(res.graph)
                if res.category == "command":
                    bodies = [f'<#it> {value} "junk" .', f'<#it> {label} "x" .',
                              f'<#it> {value} "on", "off" .']
                elif res.category == "setpoint":
                    bodies = [f"<#it> {value} 0 ."]
                else:
                    continue
                for body in bodies:
                    statuses.setdefault(res.category, set()).add(client.put_raw(path, body)[0])
            assert statuses == {"command": {422}, "setpoint": {403}}
            assert runtime.dataset is before
            for _ in range(params.iterations):
                runtime.tick()
            dry = dry_run(runtime.env, params, task.fault_queries)
            assert sum(dry.counts()) > 0
            assert runtime.fault_trace().slots == dry.slots
        finally:
            server.stop()

    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_every_writable_graph_exists_at_attach(self, seed):
        pd = build_dataset(params=GeneratorParams(seed=seed))
        writable = default_policy(pd.dynamic)
        assert writable
        assert all(pd.dataset.has_graph(graph) for graph in writable)

    def test_empty_puts_leave_every_fault_and_graph(self):
        server = LinkedDataServer()
        pd = build_dataset(params=GeneratorParams(seed=42), base=server.base)
        task = load_task("TS1", server.base)
        runtime = SimulationRuntime(build_environment(task, pd, 42), task.fault_queries)
        server.attach(runtime, default_policy(pd.dynamic))
        server.start()
        try:
            runtime.initialize(default_run_params(task, 48))

            def faults():
                return sorted(g for fq in task.fault_queries
                              for g in fault_targets(runtime, fq))

            targets = faults()
            assert len(targets) == 146
            client = LdClient(server.base, agent="emptier")
            assert {client.put_raw(client.path_of(g), "")[0] for g in targets} == {422}
            assert faults() == targets
            assert {client.get_graph(g)[0] for g in targets} == {200}
            _, ops = runtime.snapshot_log()
            writes = [op for op in ops if not op.is_read]
            assert sorted(op.target for op in writes) == targets
            assert {(op.status, op.ok) for op in writes} == {(422, False)}
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
        assert runtime.finished.wait(5)
        refused = [(op.method, op.target, op.status)
                   for op in runtime.snapshot_log()[1] if not op.ok]
        assert refused == [("PUT", server.base + "sim", 409)]

    def test_unsupported_media_type_refused_and_recorded(self, served):
        # The same media-type check as a graph PUT: a JSON body is not
        # read as Turtle.
        server, runtime, _ = served
        client = LdClient(server.base, agent="tester")
        status, body = client._request("PUT", "sim", body=b"{}",
                                       headers={"Content-Type": "application/json"})
        assert status == 415, body
        assert not runtime.started
        refused = [(op.method, op.target, op.status, op.agent)
                   for op in runtime.snapshot_log()[1] if not op.ok]
        assert refused == [("PUT", server.base + "sim", 415, "tester")]

    def test_parameters_of_other_subjects_are_ignored(self, served):
        server, runtime, _ = served
        payload = self.PAYLOAD + "<elsewhere> sim:iterations 7 .\n"
        status, body = LdClient(server.base).put_raw("sim", payload)
        assert status == 200, body
        assert runtime.finished.wait(5)
        assert runtime.iteration == 5

    def test_parameter_with_two_values_rejected(self, served):
        server, runtime, _ = served
        payload = self.PAYLOAD.replace("sim:iterations 5", "sim:iterations 5, 7")
        status, body = LdClient(server.base).put_raw("sim", payload)
        assert status == 400 and b"sim:iterations" in body
        assert not runtime.started

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

    @pytest.mark.parametrize("name, literal", [
        ("iterations", "0"), ("iterations", "-3"),
        ("timeslotDuration", "0"), ("timeslotDuration", "-5"),
        ("simulatedStep", "0"), ("simulatedStep", "-60"),
    ])
    def test_non_positive_parameter_rejected(self, served, name, literal):
        # A count below 1 gave a trace with k < 0, a slot length below 1 a
        # deadline miss in every tick, and a step below 1 a clock that stood
        # still or ran backwards.
        server, runtime, _ = served
        stated = {"iterations": 5, "timeslotDuration": 20, "simulatedStep": 60}[name]
        payload = self.PAYLOAD.replace(f"sim:{name} {stated}", f"sim:{name} {literal}")
        assert payload != self.PAYLOAD
        status, body = LdClient(server.base).put_raw("sim", payload)
        assert status == 400 and b"not positive" in body, body
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


def headers(count: int) -> bytes:
    return b"".join(b"X-Field-%d: %d\r\n" % (i, i) for i in range(count))


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

    @pytest.mark.parametrize("directive", ["@prefix ex: <//[> .", "@base <//[> ."])
    @pytest.mark.parametrize("target", ["graph", "sim"])
    def test_unresolvable_directive_iri_gets_400(self, served, directive, target):
        # urljoin raises ValueError on "//[", which once ended the handler
        # thread without a reply.
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        graph_path = res.graph[len(server.base):]
        path = graph_path if target == "graph" else "sim"
        body = f"{directive}\n<{res.node}> <{RDF_VALUE}> \"on\" .\n".encode()
        with connect(server) as sock:
            refused = exchange(sock, (
                f"PUT /{path} HTTP/1.1\r\nHost: x\r\nX-Agent: tester\r\n"
                f"Content-Type: text/turtle\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
            assert refused.status == 400
            after = exchange(sock, f"GET /{graph_path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            assert after.status == 200
        assert runtime.dataset is before and not runtime.started
        writes = [(op.method, op.target, op.status, op.agent)
                  for op in runtime.snapshot_log()[1] if not op.is_read]
        assert writes == [("PUT", res.graph if target == "graph" else server.base + "sim",
                           400, "tester")]

    @pytest.mark.parametrize("method", ["POST", "DELETE"])
    def test_post_and_delete_refused_with_allow(self, served, method):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        path = res.graph[len(server.base):]
        body = serialize_triples(
            {(IRI(res.node), IRI(RDF_VALUE), Literal("on"))}, "turtle").encode()
        with connect(server) as sock:
            refused = exchange(sock, (
                f"{method} /{path} HTTP/1.1\r\nHost: x\r\nX-Agent: tester\r\n"
                f"Content-Type: text/turtle\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode() + body)
            assert refused.status == 405
            assert refused.getheader("Allow") == "GET, PUT"
            after = exchange(sock, f"GET /{path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            assert after.status == 200
        assert runtime.dataset is before
        _, ops = runtime.snapshot_log()
        assert [(op.method, op.target, op.status, op.ok, op.agent) for op in ops
                if not op.is_read] == [(method, res.graph, 405, False, "tester")]

    @pytest.mark.parametrize("blank", [b"\r\n", b"\n", b"\r\n\r\n"])
    def test_empty_lines_before_the_request_line_are_skipped(self, served, blank):
        # RFC 9112 2.2. Twice on one connection: the second request's head
        # is looked up among the parsed ones, and must read as the first.
        server, _, dynamic = served
        path = command_resource(dynamic).graph[len(server.base):]
        with connect(server) as sock:
            for _ in range(2):
                reply = exchange(sock, blank + f"GET /{path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
                assert reply.status == 200

    def test_transfer_encoding_gets_501_and_closes(self, served):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        before = runtime.dataset
        with connect(server) as sock:
            reply = exchange(sock, (
                f"PUT /{res.graph[len(server.base):]} HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: text/turtle\r\n"
                f"Transfer-Encoding: chunked\r\n\r\n").encode())
            assert reply.status == 501
            assert reply.getheader("Connection") == "close"
            assert sock.recv(1) == b""
        assert runtime.dataset is before
        assert LdClient(server.base).get_graph(res.graph)[1] == before.graph(res.graph)

    @pytest.mark.parametrize("length", ["ten", "-5", "+5", "1_0"])
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
    import sys

    from ldsim.bench import serve_task
    from ldsim.httpclient import LdClient

    served = serve_task("TS1", source=sys.argv[1])
    base = served.server.base
    try:
        client = LdClient(base)
        status, triples = client.get_graph(base + "thing")
        assert status == 200, status
        for _s, _p, o in sorted(triples, key=repr):
            print(o.value[len(base):])
        client.close_all()
    finally:
        served.server.stop()
""")


def test_skolem_iris_do_not_depend_on_hash_seed(tmp_path):
    # A building file's blank nodes are the one place IRIs are minted.
    source = tmp_path / "building.ttl"
    source.write_text("<thing> <vocab/test#p> _:b1, _:b2, [ <vocab/test#q> 1 ] .\n")
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", SKOLEM_SCRIPT, str(source)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count(".well-known/genid/") == 3
    assert outputs[0] == outputs[1]


class _RecordingSocket:
    """A client connection holding one raw request; logs each send()."""

    def __init__(self, request: bytes):
        self._request = request
        self.sends: list[bytes] = []

    def makefile(self, mode, *args, **kwargs):
        return io.BufferedReader(io.BytesIO(self._request))

    def sendall(self, data):
        self.sends.append(bytes(data))


def serve_raw(served, request: bytes) -> list[bytes]:
    """Handle one raw request with the server's handler; return each send."""
    server, runtime, dynamic = served
    handler = type("RecordedHandler", (_Handler,), {
        "runtime": runtime, "writable": default_policy(dynamic), "base": server.base})
    sock = _RecordingSocket(request)
    handler(sock, ("127.0.0.1", 0), None)
    return sock.sends


def assert_one_write(sends: list[bytes], status: int) -> bytes:
    """One send of a `status` reply whose Content-Length is its body's;
    return the head."""
    assert len(sends) == 1, sends
    head, sep, body = sends[0].partition(b"\r\n\r\n")
    assert sep and head.startswith(f"HTTP/1.1 {status} ".encode())
    lengths = [int(line.split(b":", 1)[1]) for line in head.split(b"\r\n")
               if line.lower().startswith(b"content-length:")]
    assert lengths == [len(body)]
    assert bool(body) == (status != 204)
    return head


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
        assert_one_write(serve_raw(served, request), status)

    @pytest.mark.parametrize("request_bytes, status", [
        pytest.param(b"GET /sim HTTP/1.1\r\nX-Agent: a\r\n b\r\n\r\n", 400, id="folded"),
        pytest.param(b"GET /" + b"a" * (65537 - 5), 414, id="long-request-line"),
        pytest.param(b"GET /sim HTTP/1.1\r\n" + headers(101) + b"\r\n", 431, id="101-headers"),
        pytest.param(b"GET /sim HTTP/2.0\r\n\r\n", 505, id="http-2"),
        pytest.param(b"PATCH /sim HTTP/1.1\r\n\r\n", 501, id="patch"),
    ])
    def test_refusal_is_one_write(self, served, request_bytes, status):
        head = assert_one_write(serve_raw(served, request_bytes), status)
        assert b"\r\nContent-Type: text/plain; charset=utf-8\r\n" in head
        assert head.endswith(b"\r\nConnection: close")

    @pytest.mark.parametrize("version, status, body, content_type", [
        ("HTTP/1.1", 200, b"<a> <b> <c> .\n", "text/turtle"),
        ("HTTP/1.1", 200, b"<http://x/a> <http://x/b> \"c\" .\n",
         "application/n-triples"),
        ("HTTP/1.1", 204, b"", "text/plain"),
        ("HTTP/1.1", 400, b"unparsable payload\n", "text/plain"),
        ("HTTP/1.1", 403, b"resource not writable\n", "text/plain"),
        ("HTTP/1.1", 404, b"no such resource\n", "text/plain"),
        ("HTTP/1.1", 405, b"POST not allowed\n", "text/plain"),
        ("HTTP/1.1", 409, b"run already in progress\n", "text/plain"),
        ("HTTP/1.1", 415, b"unsupported media type x\n", "text/plain"),
        ("HTTP/1.1", 414, b"request line too long\n", "text/plain"),
        ("HTTP/1.1", 431, b"more than 100 headers\n", "text/plain"),
        ("HTTP/1.1", 501, b"PATCH not implemented\n", "text/plain"),
        ("HTTP/1.1", 505, b"HTTP/2.0 not supported\n", "text/plain"),
        ("HTTP/1.0", 200, b"<a> <b> <c> .\n", "text/turtle"),
    ])
    def test_reply_bytes_equal_the_stdlib_sequence(self, monkeypatch, version, status,
                                                   body, content_type):
        date = "Sun, 18 Oct 2026 19:00:00 GMT"
        monkeypatch.setattr(server_module, "_http_date", lambda second: date)
        close = version == "HTTP/1.0" or status in (414, 431, 501, 505)
        handler = _Handler.__new__(_Handler)
        handler.close_connection = close
        handler.requestline, handler.command = "GET / " + version, "GET"
        handler.client_address = ("127.0.0.1", 0)
        handler.wfile = io.BytesIO()
        handler._reply(status, body, content_type)
        sent = handler.wfile.getvalue()
        # The bytes http.server's own calls send for the same reply.
        stdlib = http.server.BaseHTTPRequestHandler.__new__(http.server.BaseHTTPRequestHandler)
        stdlib.protocol_version, stdlib.server_version = "HTTP/1.1", "ldsim/0.1"
        stdlib.request_version = version
        stdlib.date_time_string = lambda timestamp=None: date
        stdlib.log_request = lambda *args: None
        stdlib.wfile = io.BytesIO()
        stdlib.send_response(status)
        if body:
            stdlib.send_header("Content-Type", f"{content_type}; charset=utf-8")
        stdlib.send_header("Content-Length", str(len(body)))
        if status == 405:
            stdlib.send_header("Allow", "GET, PUT")
        if close:
            stdlib.send_header("Connection", "close")
        stdlib.end_headers()
        stdlib.wfile.write(body)
        assert sent == stdlib.wfile.getvalue()
        assert sent.startswith(b"HTTP/1.1 ")
        assert (b"\r\nConnection: close\r\n" in sent) == close

    def test_date_header_is_now(self, served):
        head = serve_raw(served, b"GET /nothing-here HTTP/1.1\r\n\r\n")[0]
        dates = [line.split(b":", 1)[1].strip() for line in head.split(b"\r\n")
                 if line.startswith(b"Date:")]
        assert len(dates) == 1
        sent = email.utils.parsedate_to_datetime(dates[0].decode())
        assert abs(sent.timestamp() - time.time()) < 5


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


# -- request parsing ---------------------------------------------------------------


def parse_head(block: bytes, request_line: bytes = b"GET / HTTP/1.1\r\n"):
    """Run the handler's request parser over one request head, with no
    socket; return (whether it accepted the request, the handler)."""
    handler = _Handler.__new__(_Handler)
    handler.rfile = io.BytesIO(block)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    return handler._read_request(request_line), handler


# The header names the server reads, and some it does not.
READ_NAMES = ["Content-Length", "Content-Type", "Accept", "X-Agent", "Connection",
              "Expect"]
OTHER_NAMES = ["Host", "User-Agent", "X-Forwarded-For"]
# Printable ASCII, space and tab: outside these, `email` splits a line at
# characters such as \x0b or \x85 that are not line breaks in HTTP.
VALUE_CHARS = st.characters(min_codepoint=0x20, max_codepoint=0x7e) | st.just("\t")


@st.composite
def header_fields(draw):
    name = draw(st.sampled_from(READ_NAMES + OTHER_NAMES))
    name = "".join(c.upper() if draw(st.booleans()) else c.lower() for c in name)
    blanks = st.text(" \t", max_size=3)
    value = draw(st.text(VALUE_CHARS, max_size=12))
    end = draw(st.sampled_from(["\r\n", "\n"]))
    return name, f"{name}:{draw(blanks)}{value}{draw(blanks)}{end}"


class TestRequestParsing:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(header_fields(), max_size=12), st.sampled_from([b"\r\n", b"\n"]))
    def test_headers_read_as_the_stdlib_reads_them(self, fields, end):
        block = "".join(line for _, line in fields).encode("latin-1") + end
        accepted, handler = parse_head(block)
        lengths = sum(name.lower() == "content-length" for name, _ in fields)
        if lengths > 1:
            assert not accepted
            assert handler.wfile.getvalue().startswith(b"HTTP/1.1 400 ")
            assert handler.close_connection
            return
        assert accepted
        stdlib = http.client.parse_headers(io.BytesIO(block))
        for name in READ_NAMES:
            expected = stdlib.get(name)
            # The stdlib keeps trailing blanks, which are not part of a
            # field value (RFC 9112 5.1).
            expected = None if expected is None else expected.rstrip(" \t")
            assert handler.headers.get(name.lower()) == expected, name

    @pytest.mark.parametrize("request_line, headers, expected", [
        ("HTTP/1.1", [], False),
        ("HTTP/1.1", ["Connection: close"], True),
        ("HTTP/1.1", ["Connection: Upgrade, Close"], True),
        ("HTTP/1.1", ["Connection: keep-alive", "Connection: close"], False),
        ("HTTP/1.0", [], True),
        ("HTTP/1.0", ["Connection: Keep-Alive"], False),
    ])
    def test_connection_header(self, request_line, headers, expected):
        block = "".join(h + "\r\n" for h in headers).encode() + b"\r\n"
        accepted, handler = parse_head(block, f"GET / {request_line}\r\n".encode())
        assert accepted and handler.close_connection == expected

    def test_double_slash_collapses(self):
        accepted, handler = parse_head(b"\r\n", b"GET ///sim HTTP/1.1\r\n")
        assert accepted and handler.path == "/sim"

    def test_get_and_put_do_not_use_stdlib_header_parsing(self, served, monkeypatch):
        test_thread = threading.current_thread()

        def refuse(*args, **kwargs):
            if threading.current_thread() is not test_thread:
                raise AssertionError("http.client.parse_headers used")
            return original(*args, **kwargs)

        original = http.client.parse_headers
        monkeypatch.setattr(http.client, "parse_headers", refuse)
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base, agent="tester")
        node = IRI(res.node)
        managed = {tr for tr in runtime.dataset.graph(res.graph) if tr[1] != IRI(RDF_VALUE)}
        assert client.put_graph(res.graph, {(node, IRI(RDF_VALUE), Literal("on"))}) == 204
        assert client.get_graph(res.graph) == \
            (200, managed | {(node, IRI(RDF_VALUE), Literal("on"))})


def connect(server) -> socket.socket:
    host, port = server.base[len("http://"):-1].split(":")
    return socket.create_connection((host, int(port)), timeout=5)


class TestRequestRefusals:
    """Each request ends where the server stops reading it, so that closing
    the connection does not reset it before the reply is read."""

    @pytest.mark.parametrize("head, status", [
        pytest.param(b"GET /sim HTTP/1.1\r\nX-Agent: a\r\n b\r\n", 400, id="folded"),
        pytest.param(b"GET /sim HTTP/1.1\r\nX-Agent a\r\n", 400, id="no-colon"),
        pytest.param(b"GET /sim HTTP/1.1\r\nX-Agent : a\r\n", 400, id="blank-before-colon"),
        pytest.param(b"PUT /sim HTTP/1.1\r\nContent-Length: 0\r\ncontent-length: 0\r\n",
                     400, id="two-content-lengths"),
        pytest.param(b"GET /sim HTTP/1.1\r\n" + headers(101), 431, id="101-headers"),
        pytest.param(b"GET /sim HTTP/1.1\r\nX-Long: " + b"a" * (65537 - 8), 431,
                     id="long-header-line"),
        pytest.param(b"GET /" + b"a" * (65537 - 5), 414, id="long-request-line"),
        pytest.param(b"GET /sim extra HTTP/1.1\r\n", 400, id="four-words"),
    ])
    def test_refused_and_closed(self, served, head, status):
        with connect(served[0]) as sock:
            reply = exchange(sock, head)
            assert reply.status == status
            assert reply.getheader("Connection") == "close"
            assert sock.recv(1) == b""

    def test_hundred_headers_are_accepted(self, served):
        server, _, dynamic = served
        path = command_resource(dynamic).graph[len(server.base):]
        with connect(server) as sock:
            head = f"GET /{path} HTTP/1.1\r\n".encode() + headers(100) + b"\r\n"
            assert exchange(sock, head).status == 200

    @pytest.mark.parametrize("head, status", [
        pytest.param(b"GET /sim HTTP/1.x\r\n", 400, id="bad-version"),
        pytest.param(b"GET /sim HTTP/2.0\r\n", 505, id="http-2"),
        pytest.param(b"PUT /sim\r\n", 400, id="http-0.9-put"),
        pytest.param(b"GET /x\r\n", 400, id="http-0.9-get"),
    ])
    def test_refused_without_status_line_and_closed(self, served, head, status):
        # Requests without a usable version. `http.server` would answer them
        # as HTTP/0.9, with the error page alone; they get an HTTP/1.1 reply.
        with connect(served[0]) as sock:
            reply = exchange(sock, head)
            assert (reply.version, reply.status) == (11, status)
            assert reply.getheader("Connection") == "close"
            assert sock.recv(1) == b""

    @pytest.mark.parametrize("method", ["PATCH", "HEAD"])
    def test_other_methods_get_501_and_close(self, served, method):
        with connect(served[0]) as sock:
            sock.sendall(f"{method} /sim HTTP/1.1\r\nHost: x\r\n\r\n".encode())
            received = b""
            while chunk := sock.recv(65536):  # until the server closes
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 501 ")
        assert head.endswith(b"\r\nConnection: close")
        length = int(head.split(b"Content-Length: ", 1)[1].split(b"\r\n", 1)[0])
        assert length > 0
        assert len(body) == (0 if method == "HEAD" else length)

    def test_expect_100_continue(self, served):
        server, _, dynamic = served
        res = command_resource(dynamic)
        body = serialize_triples(
            {(IRI(res.node), IRI(RDF_VALUE), Literal("on"))}, "turtle").encode()
        with connect(server) as sock:
            sock.sendall((f"PUT /{res.graph[len(server.base):]} HTTP/1.1\r\n"
                          f"Content-Type: text/turtle\r\nExpect: 100-continue\r\n"
                          f"Content-Length: {len(body)}\r\n\r\n").encode())
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                interim += sock.recv(1)
            assert interim.startswith(b"HTTP/1.1 100 ")
            assert exchange(sock, body).status == 204

    def test_pipelined_requests_are_answered_in_order(self, served):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        path = res.graph[len(server.base):]
        with connect(server) as sock:
            sock.sendall(f"GET /{path} HTTP/1.1\r\n\r\n"
                         f"GET /nothing-here HTTP/1.1\r\n\r\n"
                         f"GET /{path} HTTP/1.1\r\nAccept: application/n-triples\r\n\r\n"
                         .encode())
            reader = ReplyReader(sock)
            replies = [reader.read_reply() for _ in range(3)]
        graph = runtime.dataset.graph(res.graph)
        assert [(status, close) for status, _, close in replies] == \
            [(200, False), (404, False), (200, False)]
        assert replies[0][1] == serialize_triples(graph, "turtle").encode()
        assert replies[2][1] == serialize_triples(graph, "n-triples").encode()


class TestAccessLog:
    def test_debug_logs_request_status_and_agent(self, served, caplog):
        caplog.set_level(logging.DEBUG, logger="ldsim.server")
        server, _, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base, agent="tester")
        client.get_graph(res.graph)
        client.get_graph(server.base + "nothing-here")
        lines = [r.getMessage() for r in caplog.records if r.name == "ldsim.server"]
        path = res.graph[len(server.base):]
        assert any(f'"GET /{path} HTTP/1.1" 200' in line and line.endswith("agent=tester")
                   for line in lines), lines
        assert any('"GET /nothing-here HTTP/1.1" 404' in line for line in lines), lines

    def test_off_above_debug(self, served, caplog):
        caplog.set_level(logging.INFO, logger="ldsim.server")
        server, _, dynamic = served
        LdClient(server.base, agent="tester").get_graph(command_resource(dynamic).graph)
        assert [r for r in caplog.records if r.name == "ldsim.server"] == []


class TestConnectionEnds:
    """A connection whose client closes it, or stays silent for TIMEOUT, in
    the middle of a request ends without a reply and without a record."""

    @pytest.fixture()
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(server_module, "TIMEOUT", 0.2)

    def assert_closed_without_reply(self, sock, runtime) -> None:
        started = time.monotonic()
        assert sock.recv(65536) == b""
        assert time.monotonic() - started < 4
        assert runtime.snapshot_log()[1] == []

    @pytest.mark.parametrize("sent", [
        pytest.param(b"", id="idle"),
        pytest.param(b"GET /sim HTTP/1.1", id="request-line"),
        pytest.param(b"GET /sim HTTP/1.1\r\nHost: x\r\n", id="headers"),
        pytest.param(b"PUT /sim HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", id="body"),
    ])
    def test_silent_client_is_closed_after_the_timeout(self, served, short_timeout, sent):
        server, runtime, _ = served
        with connect(server) as sock:
            sock.sendall(sent)
            self.assert_closed_without_reply(sock, runtime)

    @pytest.mark.parametrize("sent", [
        pytest.param(b"GET /sim HTTP/1.1", id="request-line"),
        pytest.param(b"GET /sim HTTP/1.1\r\nHost: x\r\n", id="headers"),
        pytest.param(b"PUT /sim HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", id="body"),
    ])
    def test_request_cut_short_gets_no_reply(self, served, sent):
        server, runtime, _ = served
        with connect(server) as sock:
            sock.sendall(sent)
            sock.shutdown(socket.SHUT_WR)
            self.assert_closed_without_reply(sock, runtime)

    def test_accepted_socket_has_kernel_bounds(self, served, monkeypatch):
        accepted = []
        original = server_module.set_kernel_timeouts

        def recording(sock, seconds):
            original(sock, seconds)
            accepted.append((sock.gettimeout(), sock.getsockopt(
                socket.SOL_SOCKET, socket.SO_RCVTIMEO, 16)))

        monkeypatch.setattr(server_module, "set_kernel_timeouts", recording)
        server, _, dynamic = served
        with connect(server) as sock:
            path = command_resource(dynamic).graph[len(server.base):]
            assert exchange(sock, f"GET /{path} HTTP/1.1\r\n\r\n".encode()).status == 200
        assert accepted == [(None, struct.pack("ll", server_module.TIMEOUT, 0))]


def next_request(handler_class, data: bytes) -> tuple:
    """Read one request head from `data` as a connection would; return
    whether it was accepted and the parse's state."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BufferedReader(io.BytesIO(data))
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    accepted = handler._next_request()
    return accepted, (handler.requestline, handler.command, handler.path,
                      handler.headers, handler.close_connection), handler.rfile.read()


class TestKnownHeads:
    """A head the read buffer holds whole is parsed once and looked up
    after that; the lookup gives what parsing gives."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        monkeypatch.setattr(_Handler, "heads", {})
        calls = []
        original = _Handler._read_request

        def counting(self, line):
            calls.append(line)
            return original(self, line)

        monkeypatch.setattr(_Handler, "_read_request", counting)
        return calls

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(header_fields(), max_size=12),
           st.sampled_from(["GET /a HTTP/1.1", "PUT //b HTTP/1.0", "PATCH /c HTTP/1.1"]))
    def test_a_known_head_gives_what_parsing_gives(self, parses, fields, request_line):
        _Handler.heads.clear()
        parses.clear()
        head = (request_line + "\r\n" + "".join(
            line.rstrip("\r\n") + "\r\n" for _, line in fields) + "\r\n").encode("latin-1")
        first = next_request(_Handler, head + b"rest")
        again = next_request(_Handler, head + b"rest")
        assert again == first
        assert first[2] == b"rest" or not first[0]  # a refusal stops reading
        kept = first[0] and "expect" not in first[1][3]
        assert len(parses) == (1 if kept else 2)

    @pytest.mark.parametrize("head", [
        pytest.param(b"GET /sim HTTP/1.1\nHost: x\n\n", id="bare-lf"),
        pytest.param(b"PUT /sim HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 0\r\n\r\n",
                     id="expect"),
        pytest.param(b"GET /sim HTTP/1.1\r\n folded\r\n\r\n", id="refused"),
    ])
    def test_head_with_a_side_effect_or_not_crlf_is_not_kept(self, parses, head):
        for _ in range(2):
            next_request(_Handler, head)
        assert len(parses) == 2 and _Handler.heads == {}

    def test_kept_heads_are_bounded(self, parses, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_HEADS", 2)
        for path in "abcde":
            next_request(_Handler, f"GET /{path} HTTP/1.1\r\n\r\n".encode())
            assert 1 <= len(_Handler.heads) <= 2

    def test_repeated_gets_on_a_connection_are_parsed_once(self, served, parses):
        server, runtime, dynamic = served
        res = command_resource(dynamic)
        client = LdClient(server.base, agent="tester")
        replies = {client._request("GET", client.path_of(res.graph)) for _ in range(5)}
        assert replies == {(200, serialize_triples(
            runtime.dataset.graph(res.graph), "turtle").encode())}
        assert len(parses) == 1
