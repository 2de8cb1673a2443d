"""The client's parse cache: a byte-equal 200 body of one IRI gives the very
triples parsed before, and anything else is parsed afresh."""

import pytest

from ldsim import httpclient
from ldsim.httpclient import LdClient
from ldsim.ns import RDF_VALUE
from ldsim.rdf import IRI, Literal

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
