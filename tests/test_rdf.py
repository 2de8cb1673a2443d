import random
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldsim.ns import (
    BRICK,
    DEFAULT_GRAPH,
    RDF,
    RDF_LANG_STRING,
    RDF_TYPE,
    RDFS,
    XSD_INTEGER,
    XSD_STRING,
)
from ldsim.rdf import (
    IRI,
    BlankNode,
    Dataset,
    Literal,
    Quad,
    skolemize,
)
from ldsim.rdfio import ParseError, parse_document, serialize_dataset, serialize_triples
from rdf_helpers import from_quads, isomorphic, symmetric_difference

EX = "http://example.org/"
A = IRI(EX + "a")
B = IRI(EX + "b")
C = IRI(EX + "c")
P = IRI(EX + "p")
G1 = IRI(EX + "g1")
G2 = IRI(EX + "g2")


def quad(s, p, o, g) -> Quad:
    return Quad(s, p, o, g)


@pytest.fixture
def d_two_graphs():
    return from_quads([
        quad(A, P, B, G1),
        quad(A, P, Literal("5", XSD_INTEGER), G1),
        quad(B, P, C, G2),
    ])


class TestDataset:
    def test_set_semantics(self):
        q = quad(A, P, B, G1)
        ds = from_quads([q, q, q])
        assert len(ds) == 1

    def test_contains_and_projection(self, d_two_graphs):
        assert quad(A, P, B, G1) in d_two_graphs
        assert quad(A, P, B, G2) not in d_two_graphs
        assert d_two_graphs.graph_names() == {G1.value, G2.value}

    def test_apply_keeps_original(self, d_two_graphs):
        extra = quad(C, P, A, G2)
        d2 = d_two_graphs.apply(remove=[quad(A, P, B, G1)], add=[extra])
        assert quad(A, P, B, G1) in d_two_graphs
        assert quad(A, P, B, G1) not in d2
        assert extra in d2
        assert len(d_two_graphs) == 3 and len(d2) == 3

    def test_empty_graph_is_dropped(self):
        ds = from_quads([quad(A, P, B, G1)])
        d2 = ds.apply(remove=[quad(A, P, B, G1)], add=[])
        assert not d2.has_graph(G1.value)
        assert len(d2) == 0

    def test_pred_index_tracks_updates(self, d_two_graphs):
        assert len(d_two_graphs.pred_entries(P.value)) == 3
        d2 = d_two_graphs.apply(remove=[quad(B, P, C, G2)], add=[quad(C, P, C, G1)])
        assert (C, C, G1.value) in d2.pred_entries(P.value)
        assert (B, C, G2.value) not in d2.pred_entries(P.value)
        # Parent index unaffected.
        assert (B, C, G2.value) in d_two_graphs.pred_entries(P.value)


_NODES = [IRI(EX + n) for n in ("a", "b", "c")] + [Literal("1"), Literal("2")]
_PREDICATES = [IRI(EX + n) for n in ("p", "q", "r")]
_GRAPHS = [IRI(EX + n) for n in ("g1", "g2", "g3")]
# Short arbitrary strings, so that terms of different kinds often share one.
_short = st.text(max_size=2)
_subjects = st.one_of(st.sampled_from(_NODES[:3]), _short.map(IRI),
                      _short.map(BlankNode))
_objects = st.one_of(st.sampled_from(_NODES), _subjects, st.builds(
    Literal, _short, st.sampled_from([XSD_STRING, XSD_INTEGER]), st.just("")))
_triples = st.tuples(_subjects, st.sampled_from(_PREDICATES), _objects)
_quads = st.builds(lambda t, g: Quad(*t, g), _triples, st.sampled_from(_GRAPHS))
_steps = st.lists(st.one_of(
    st.tuples(st.just("replace"),
              st.dictionaries(st.sampled_from([g.value for g in _GRAPHS]),
                              st.frozensets(_triples, max_size=6), max_size=2)),
    st.tuples(st.just("apply"),
              st.tuples(st.lists(_quads, max_size=6), st.lists(_quads, max_size=6)))),
    max_size=8)


class TestPredicateIndex:
    """The patched index equals one built from scratch, and keeps the entry
    object of every predicate whose entries a change left as they were."""

    @settings(max_examples=150, deadline=None)
    @given(initial=st.lists(_quads, max_size=12), steps=_steps)
    def test_patched_equals_rebuilt(self, initial, steps):
        d = from_quads(initial)
        d.pred_entries(P.value)  # build the index, so that children patch it
        for kind, arg in steps:
            parent = d
            if kind == "replace":
                d = d.replace_graphs(arg)
            else:
                remove, add = arg
                d = d.apply(remove, add)
            fresh = Dataset(dict(d.graphs()))
            for p in _PREDICATES:
                entries = d.pred_entries(p.value)
                expected = {(s, o, g.value) for s, pp, o, g in fresh.quads() if pp == p}
                assert set(entries) == set(fresh.pred_entries(p.value)) == expected
                assert len(entries) == len(expected)
                assert all(e in entries for e in expected)
                assert d.pred_nav(p.value) == fresh.pred_nav(p.value)
                unchanged = set(entries) == set(parent.pred_entries(p.value))
                assert (entries is parent.pred_entries(p.value)) == unchanged

    def test_nav_collapses_scoped_copies(self):
        d = from_quads([quad(A, P, B, G1), quad(A, P, B, G2)])
        fwd, bwd = d.pred_nav(P.value)
        assert list(fwd[A]) == [B] and list(bwd[B]) == [A]
        assert len(d.pred_entries(P.value)) == 2
        d2 = d.apply(remove=[quad(A, P, B, G1)], add=[])
        assert list(d2.pred_nav(P.value)[0][A]) == [B]
        assert set(d2.pred_entries(P.value)) == {(A, B, G2.value)}


# Absolute IRIs with any character an IRIREF may hold, and blank node labels.
_iris = st.builds(lambda tail: EX + tail, st.text(st.characters(
    min_codepoint=0x21, exclude_characters='<>"{}|^`\\'), max_size=8))
_labels = st.from_regex(r"[A-Za-z0-9_]([A-Za-z0-9_.-]*[A-Za-z0-9_-])?", fullmatch=True)


def _copy(text: str) -> str:
    """An equal string built again from its bytes, as a parser builds one."""
    return text.encode().decode()


class TestTerms:
    """Terms are tuples: each kind has its own arity, so kinds never compare
    equal, and equality and hashing are the tuple's."""

    @given(st.text())
    def test_kinds_are_pairwise_unequal(self, text):
        terms = [IRI(text), BlankNode(text), Literal(text)]
        assert all(a != b for i, a in enumerate(terms) for b in terms[i + 1:])
        assert len(set(terms)) == 3

    @given(st.text(), st.text(), st.text())
    def test_equal_terms_hash_equal(self, text, datatype, lang):
        pairs = [(IRI(text), IRI(_copy(text))),
                 (BlankNode(text), BlankNode(_copy(text))),
                 (Literal(text, datatype, lang),
                  Literal(_copy(text), _copy(datatype), _copy(lang)))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)

    @given(st.text(), st.text(), st.text())
    def test_literals_differ_by_datatype(self, text, dt, dt2):
        assert (Literal(text, dt) == Literal(text, dt2)) == (dt == dt2)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(_iris.map(IRI), _labels.map(BlankNode)),
        _iris.map(IRI),
        st.one_of(_iris.map(IRI), _labels.map(BlankNode),
                  st.text().map(Literal),
                  st.builds(Literal, st.text(), _iris, st.just("")),
                  st.builds(lambda text, tag: Literal(text, RDF_LANG_STRING, tag),
                            st.text(), st.from_regex(r"[a-z]{1,8}(-[a-z0-9]{1,8})?",
                                                     fullmatch=True)))),
        max_size=8))
    def test_n_triples_round_trip(self, triples):
        text = serialize_triples(triples, "n-triples")
        assert parse_document(text, "n-triples") == frozenset(triples)


class TestSymmetricDifference:
    def test_self_is_empty(self, d_two_graphs):
        assert len(symmetric_difference(d_two_graphs, d_two_graphs)) == 0

    def test_against_empty(self, d_two_graphs):
        assert symmetric_difference(d_two_graphs, Dataset()) == d_two_graphs

    def test_enumerated(self):
        q1 = quad(A, P, B, G1)
        q2 = quad(B, P, C, G1)
        q3 = quad(C, P, A, G1)
        left = from_quads([q1, q2])
        right = from_quads([q2, q3])
        assert set(symmetric_difference(left, right).quads()) == {q1, q3}

    def test_commutative_and_empty_iff_equal(self):
        rng = random.Random(7)
        for _ in range(25):
            qs1 = {_random_quad(rng) for _ in range(rng.randrange(0, 12))}
            qs2 = {_random_quad(rng) for _ in range(rng.randrange(0, 12))}
            d1, d2 = from_quads(qs1), from_quads(qs2)
            delta12 = symmetric_difference(d1, d2)
            delta21 = symmetric_difference(d2, d1)
            assert set(delta12.quads()) == set(delta21.quads())
            assert (len(delta12) == 0) == (d1 == d2)


def _random_quad(rng: random.Random) -> Quad:
    def iri():
        return IRI(EX + rng.choice("abcdefgh"))

    o = iri() if rng.random() < 0.7 else Literal(str(rng.randrange(5)))
    return quad(iri(), iri(), o, IRI(EX + "g" + str(rng.randrange(3))))


class TestParsing:
    def test_single_triple_with_base(self):
        triples = parse_document("<a> <b> <c> .", "turtle", base="http://x/")
        assert triples == {(IRI("http://x/a"), IRI("http://x/b"), IRI("http://x/c"))}

    def test_empty_document(self):
        assert len(parse_document("", "turtle")) == 0

    def test_relative_iri_without_base_fails(self):
        with pytest.raises(ParseError):
            parse_document("<a> <b> <c> .", "turtle")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_document("<http://x/a> <http://x/b> .", "turtle")
        assert "line 1" in str(err.value)

    def test_literals(self):
        doc = ('<http://x/s> <http://x/p> "hi"@en, "5"^^<http://www.w3.org/2001/'
               'XMLSchema#integer>, 2.5e3, false .')
        objs = {o for _s, _p, o in parse_document(doc, "turtle")}
        assert Literal("5", XSD_INTEGER) in objs
        assert any(o.lang == "en" for o in objs if isinstance(o, Literal))

    def test_language_literal_distinct_from_plain(self):
        assert Literal("x", XSD_STRING) != Literal("x", "y")

    def test_ntriples_line_has_no_graph_term(self):
        with pytest.raises(ParseError, match="expected '.'"):
            parse_document("<http://x/s> <http://x/p> 5 <http://x/g> .", "n-triples")

    def test_blank_nodes_scoped_per_document(self):
        one = parse_document("_:x <http://x/p> _:y .", "n-triples")
        two = parse_document("_:x <http://x/p> _:y .", "n-triples")
        assert one == two  # labels kept verbatim


class TestRoundTrip:
    def test_empty_graph(self):
        triples = Dataset().graph(EX + "g")
        assert parse_document(serialize_triples(triples), "turtle").__len__() == 0

    def test_single_triple(self):
        ds = from_quads([quad(A, P, Literal("on"), G1)])
        text = serialize_triples(ds.graph(G1.value))
        assert parse_document(text, "turtle") == ds.graph(G1.value)

    def test_fixture_graph_isomorphic(self):
        rng = random.Random(11)
        triples = set()
        names = [IRI(EX + f"n{i}") for i in range(8)]
        blanks = [BlankNode(f"b{i}") for i in range(4)]
        while len(triples) < 50:
            s = rng.choice(names + blanks)
            o = rng.choice(names + blanks + [Literal(str(rng.randrange(9)))])
            triples.add((s, rng.choice(names[:3]), o))
        text = serialize_triples(triples)
        assert isomorphic(parse_document(text, "turtle"), triples)

    @pytest.mark.parametrize("triple", [
        pytest.param((P, IRI(RDFS + "subPropertyOf"), IRI(RDF_TYPE)), id="object"),
        pytest.param((IRI(RDF_TYPE), IRI(RDFS + "label"), Literal("type")), id="subject"),
        pytest.param((IRI(RDF_TYPE), IRI(RDF_TYPE), IRI(RDF + "Property")), id="all-three"),
    ])
    def test_rdf_type_outside_the_predicate_round_trips(self, triple):
        # `a` abbreviates rdf:type as a predicate only (Turtle grammar [9]).
        text = serialize_triples({triple})
        assert "@prefix rdf: " in text
        assert parse_document(text, "turtle") == {triple}
        # The TriG of a dataset shares the writer and declares the prefix too.
        assert "@prefix rdf: " in serialize_dataset(Dataset({EX + "g": frozenset({triple})}))

    @pytest.mark.parametrize("fmt", ["turtle", "n-triples"])
    def test_random_graphs_round_trip(self, fmt):
        rng = random.Random(23)
        for _ in range(20):
            triples = {_random_ground_triple(rng) for _ in range(rng.randrange(0, 30))}
            ds = Dataset({EX + "g": frozenset(triples)} if triples else {})
            text = serialize_triples(ds.graph(EX + "g"), fmt)
            assert parse_document(text, fmt) == frozenset(triples)

    def test_serialize_dataset_exact_text(self):
        # The TriG of `ldsim build`: prefixes in use, the default graph's
        # triples bare, then each named graph's block in name order.
        ds = from_quads([
            quad(A, P, B, IRI(DEFAULT_GRAPH)),
            quad(B, P, A, G2),
            quad(A, IRI(RDF_TYPE), IRI(BRICK + "Room"), G1),
            quad(A, P, Literal("2", XSD_INTEGER), G1),
            quad(A, P, Literal("x"), G1),
        ])
        assert serialize_dataset(ds) == textwrap.dedent(f"""\
            @prefix brick: <{BRICK}> .

            <{EX}a> <{EX}p> <{EX}b> .

            <{EX}g1> {{
                <{EX}a> a brick:Room ;
                    <{EX}p> "x", 2 .
            }}

            <{EX}g2> {{
                <{EX}b> <{EX}p> <{EX}a> .
            }}
            """)
        assert serialize_dataset(Dataset()) == ""


def _random_ground_triple(rng: random.Random):
    def iri():
        return IRI(EX + rng.choice("mnopqr") + str(rng.randrange(4)))

    kind = rng.random()
    if kind < 0.5:
        o = iri()
    elif kind < 0.8:
        o = Literal("v " + chr(rng.randrange(32, 120)) + '"\\x')
    else:
        o = Literal(str(rng.randrange(100)), XSD_INTEGER)
    return (iri(), iri(), o)


class TestIsomorphism:
    def test_blank_relabeling(self):
        t1 = {(BlankNode("x"), P, A), (BlankNode("x"), P, BlankNode("y"))}
        t2 = {(BlankNode("m"), P, A), (BlankNode("m"), P, BlankNode("n"))}
        assert isomorphic(t1, t2)

    def test_structure_mismatch(self):
        t1 = {(BlankNode("x"), P, A), (BlankNode("y"), P, B)}
        t2 = {(BlankNode("x"), P, A), (BlankNode("x"), P, B)}
        assert not isomorphic(t1, t2)


class TestSkolemize:
    def test_blanks_become_stable_iris(self):
        triples = parse_document("_:n <http://x/p> _:n .", "n-triples")
        one = skolemize(triples, EX, "doc1")
        two = skolemize(triples, EX, "doc1")
        assert one == two
        [(s, _p, _o)] = one
        assert isinstance(s, IRI) and s.value.startswith(EX + ".well-known/genid/")

    def test_distinct_documents_do_not_collide(self):
        triples = parse_document("_:n <http://x/p> 1 .", "n-triples")
        assert skolemize(triples, EX, "doc1") != skolemize(triples, EX, "doc2")

