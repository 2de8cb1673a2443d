import itertools
import operator
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldsim import sparql
from ldsim.engine import KeyedRandom
from ldsim.metrics import FaultQuery, match_faults
from ldsim.ns import DEFAULT_GRAPH, RDF_LANG_STRING, RDF_TYPE, RDF_VALUE, XSD_BOOLEAN, \
    XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER
from ldsim.rdf import IRI, Dataset, Literal, PredicateEntry, Quad
from ldsim.rdfio import ParseError, parse_document
from ldsim.sparql import (
    EBin,
    EConst,
    EvalContext,
    EVar,
    Filter,
    PathPlus,
    SubsetError,
    Var,
    binding_key,
    closure,
    element_state,
    eval_query,
    eval_stable,
    eval_update,
    parse_query,
    parse_update,
    read_predicates,
    split_query,
)
from rdf_helpers import from_quads, symmetric_difference

EX = "http://example.org/"
VALUE = IRI(RDF_VALUE)


def q(s, p, o, g=EX + "g"):
    return Quad(IRI(EX + s) if isinstance(s, str) else s,
                IRI(EX + p) if isinstance(p, str) else p,
                IRI(EX + o) if isinstance(o, str) else o,
                IRI(g))


class StubRandom:
    """Fixed-value random source for forcing decisions in tests."""

    def __init__(self, value=0.0):
        self.value = value
        self.calls = []

    def unit(self, iteration, op_id, key):
        self.calls.append((iteration, op_id, key))
        return self.value


@pytest.fixture
def lights():
    quads = []
    for i, state in enumerate(["on", "on", "on", "off"]):
        graph = f"{EX}property-L{i}"
        quads.append(Quad(IRI(graph + "#it"), VALUE, Literal(state), IRI(graph)))
    return from_quads(quads)


class TestParser:
    def test_empty_ask(self):
        # Every fault query and rule is a SELECT, the one query form.
        with pytest.raises(ParseError, match="expected SELECT, found 'ASK'"):
            parse_query("ASK {}")
        ast = parse_query("SELECT * {}")
        assert (ast.pattern.elements, ast.projection) == ((), None)

    def test_select_projection_checked(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x { ?y ?p ?o }")

    @pytest.mark.parametrize("text,construct", [
        ("SELECT ?s { ?s ?p ?o OPTIONAL { ?s ?q ?z } }", "OPTIONAL"),
        ("SELECT ?s { { ?s ?p ?o } UNION { ?s ?q ?o } }", "UNION"),
        ("SELECT ?s { ?s ?p ?o BIND(1 AS ?x) }", "BIND"),
        ("SELECT ?s { ?s <http://x/p>* ?o }", "*"),
        ("SELECT ?s { ?s ^<http://x/p>+ ?o }", "inverse path (^)"),
        ("SELECT ?s { ?s <http://x/p>/<http://x/q> ?o }", "sequence path (/)"),
        ("SELECT ?s { ?s (<http://x/p>)+ ?o }", "grouped path ( )"),
        ("SELECT ?s { ?s <http://x/p>? ?o }", "zero-or-one path (?)"),
        ("SELECT ?s { ?s <http://x/p>|<http://x/q> ?o }", "alternative path (|)"),
        ("SELECT ?s { ?s !<http://x/p> ?o }", "negated property set (!)"),
        ("SELECT ?s { ?s a/<http://x/p> ?o }", "sequence path (/)"),
        ("SELECT * FROM <http://x/g> { ?s ?p ?o }", "FROM"),
        ("SELECT ?s FROM NAMED <http://x/g> { ?s ?p ?o }", "FROM NAMED"),
        ("INSERT DATA { <http://x/s> <http://x/p> 1 }", "INSERT DATA"),
    ])
    def test_out_of_subset_named(self, text, construct):
        with pytest.raises(SubsetError) as err:
            try:
                parse_query(text)
            except (ParseError, SubsetError) as first:
                if isinstance(first, SubsetError):
                    raise
                parse_update(text)
        assert construct.lower() in str(err.value).lower()

    def test_update_round(self):
        text = """
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        DELETE { GRAPH ?g { ?it rdf:value ?v } }
        INSERT { GRAPH ?g { ?it rdf:value "on" } }
        WHERE { GRAPH ?g { ?it rdf:value ?v } FILTER(?v = "off") }
        """
        ast = parse_update(text)
        assert len(ast.delete_templates) == 1
        assert len(ast.insert_templates) == 1

    @pytest.mark.parametrize("template", [
        "FILTER(?o > 1)",
        "GRAPH <http://x/g> { GRAPH <http://x/h> { ?s <http://x/p> ?o } }",
        "?s <http://x/p>+ ?o",
    ])
    def test_template_holds_plain_triples_only(self, template):
        with pytest.raises(ParseError):
            parse_update(f"INSERT {{ {template} }} WHERE {{ ?s <http://x/p> ?o }}")

    def test_update_unbound_template_var_rejected(self):
        with pytest.raises(ParseError):
            parse_update("INSERT { <http://x/s> <http://x/p> ?nope } WHERE { }")

    def test_relative_iris_resolved_against_base(self):
        ast = parse_query("SELECT * { <sim> <vocab/sim#currentIteration> ?i }", base=EX)
        pattern = ast.pattern.elements[0]
        assert pattern.s == IRI(EX + "sim")
        assert pattern.p == IRI(EX + "vocab/sim#currentIteration")

    def test_path_parse(self):
        ast = parse_query("PREFIX x: <http://x/> SELECT * { ?a <http://x/p>+ ?b . ?b x:q+ ?c }")
        assert [tp.p for tp in ast.pattern.elements] == [
            PathPlus("http://x/p"), PathPlus("http://x/q")]


# A term as it is written, beside the term it denotes.
ECHARS = {"\t": r"\t", "\b": r"\b", "\n": r"\n", "\r": r"\r", "\f": r"\f",
          '"': r'\"', "'": r"\'", "\\": r"\\"}
_unicode = st.characters(blacklist_categories=("Cs",))


def _uchar(ch: str) -> str:
    return f"\\u{ord(ch):04X}" if ord(ch) < 0x10000 else f"\\U{ord(ch):08X}"


def _written(raw_chars, open_quote: str, close_quote: str):
    pieces = st.one_of(raw_chars.map(lambda ch: (ch, ch)), st.sampled_from(sorted(ECHARS.items())),
                       _unicode.map(lambda ch: (ch, _uchar(ch))))
    return st.lists(pieces, max_size=12).map(lambda ps: (
        "".join(value for value, _ in ps), open_quote + "".join(w for _, w in ps) + close_quote))


SHORT_STRINGS = _written(st.characters(blacklist_characters='"\\\n\r',
                                       blacklist_categories=("Cs",)), '"', '"')
# Raw quotes, line breaks and control characters; a quote is escaped so
# that none ends the string early.
LONG_STRINGS = _written(st.characters(blacklist_characters='"\\', blacklist_categories=("Cs",)),
                        '"""', '"""')
LANG_TAGS = st.from_regex(r"[a-zA-Z]{1,8}(-[a-zA-Z0-9]{1,8}){0,2}", fullmatch=True)
PN_LOCALS = st.from_regex(r"[A-Za-z0-9_]([A-Za-z0-9_.\-]{0,8}[A-Za-z0-9_\-])?", fullmatch=True)
IRI_LOCALS = st.text(st.characters(min_codepoint=0x21, blacklist_characters='<>"{}|^`\\',
                                   blacklist_categories=("Cs",)), max_size=10)


@st.composite
def numbers(draw):
    datatype = draw(st.sampled_from([XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE]))
    lexical = draw(st.sampled_from(["", "+", "-"])) + str(draw(st.integers(0, 99999)))
    if datatype != XSD_INTEGER:
        lexical += "." + str(draw(st.integers(0, 999)))
    if datatype == XSD_DOUBLE:
        lexical += draw(st.sampled_from(["e", "E", "e-", "E+"])) + str(draw(st.integers(0, 99)))
    return Literal(lexical, datatype), lexical


TERMS = st.one_of(
    SHORT_STRINGS.map(lambda sw: (Literal(sw[0]), sw[1])),
    LONG_STRINGS.map(lambda sw: (Literal(sw[0]), sw[1])),
    st.tuples(SHORT_STRINGS, LANG_TAGS).map(lambda c: (
        Literal(c[0][0], RDF_LANG_STRING, c[1].lower()), f"{c[0][1]}@{c[1]}")),
    numbers(),
    IRI_LOCALS.map(lambda local: (IRI(EX + local), f"<{EX}{local}>")),
    PN_LOCALS.map(lambda local: (IRI(EX + local), f"ex:{local}")),
)


# A subject's verbs and objects as written, beside the terms they denote.
VERBS = {"ex:p": IRI(EX + "p"), "ex:q": IRI(EX + "q"), "a": IRI(RDF_TYPE)}
OBJECTS = {"ex:o": IRI(EX + "o"), "1": Literal("1", XSD_INTEGER),
           "true": Literal("true", XSD_BOOLEAN), '"x"@en': Literal("x", RDF_LANG_STRING, "en")}


@st.composite
def predicate_object_lists(draw):
    """(verb, objects) groups and their text, joined by runs of one to
    three ';' and ended by a run of none to three."""
    groups = draw(st.lists(st.tuples(st.sampled_from(sorted(VERBS)),
                                     st.lists(st.sampled_from(sorted(OBJECTS)),
                                              min_size=1, max_size=3)),
                           min_size=1, max_size=4))
    runs = [draw(st.sampled_from([";", " ;", ";;", "; ;", ";;;"])) for _ in groups[1:]]
    written = [f"{verb} " + " , ".join(objects) for verb, objects in groups]
    text = "".join(w + " " + r + " " for w, r in zip(written, runs)) + written[-1]
    return groups, text + draw(st.sampled_from(["", ";", " ;", ";;", " ; ;"]))


def filter_expr(text: str):
    return parse_query(f"SELECT * {{ ?a ?p ?b FILTER({text}) }}").pattern.elements[1].expr


class TestSharedTerminals:
    """Turtle and the SPARQL subset read their common terminals with one
    tokenizer, so a term reads the same in a document and in a pattern."""

    @settings(max_examples=400, deadline=None)
    @given(TERMS)
    def test_a_term_reads_the_same_in_turtle_and_sparql(self, case):
        expected, text = case
        # The statement's dot follows the term directly.
        [(_s, _p, o)] = parse_document(f"@prefix ex: <{EX}> .\nex:s ex:p {text}.\n")
        query = parse_query(f"PREFIX ex: <{EX}>\nSELECT * {{ ex:s ex:p {text}. }}")
        [pattern] = query.pattern.elements
        assert o == pattern.o == expected

    @settings(max_examples=300, deadline=None)
    @given(predicate_object_lists(), st.sampled_from(["", " .", " FILTER(true)"]))
    def test_a_predicate_object_list_reads_the_same_in_turtle_and_sparql(self, case, end):
        groups, text = case
        s = IRI(EX + "s")
        expected = {(s, VERBS[verb], OBJECTS[o]) for verb, objects in groups for o in objects}
        turtle = parse_document(f"@prefix ex: <{EX}> .\nex:s {text} .\n[ {text} ] .\n")
        named = {t for t in turtle if t[0] == s}
        blank = {(s, p, o) for b, p, o in turtle if b != s}
        query = parse_query(f"PREFIX ex: <{EX}>\nSELECT * {{ ex:s {text}{end} }}")
        patterns = {(tp.s, tp.p, tp.o) for tp in query.pattern.elements
                    if not isinstance(tp, Filter)}
        assert named == blank == patterns == expected

    @pytest.mark.parametrize("text, value", [
        (r'"a\rb"', "a\rb"), (r'"a\bb"', "a\bb"), ('"""x\\ny"""', "x\ny"),
        ('"""two\nlines"""', "two\nlines"), (r"'é\U0001F600'", "é\U0001F600"),
    ])
    def test_query_strings_decode_every_escape(self, text, value):
        [pattern] = parse_query(f"SELECT * {{ ?s ?p {text} }}").pattern.elements
        assert pattern.o == Literal(value)

    @pytest.mark.parametrize("text", ['"a\\qb"', '"a\nb"', f"<{EX}a b>", f"<{EX}a{{b}}>",
                                      f"<{EX}a\\u0020b>", '"a\\u00"'])
    def test_malformed_terminals_are_refused_in_both_grammars(self, text):
        with pytest.raises(ParseError):
            parse_document(f"<{EX}s> <{EX}p> {text} .")
        with pytest.raises(ParseError):
            parse_query(f"SELECT * {{ ?s ?p {text} }}")

    def test_a_lexical_error_after_a_run_of_blanks_is_found_at_once(self):
        # Blanks skipped as a prefix of every token pattern were backtracked
        # into exponentially when no token followed. The regex call cannot be
        # interrupted, so a subprocess bounds the wait.
        script = textwrap.dedent("""
            from ldsim.rdfio import ParseError, parse_document
            from ldsim.sparql import parse_query
            for blanks in (" " * 40, "\\t \\n" * 20):
                text = "<http://x/s> <http://x/p>" + blanks + '"abc\\n'
                for parse in (parse_document, lambda t: parse_query("SELECT * { " + t + " }")):
                    try:
                        parse(text)
                    except ParseError as exc:
                        print(exc.line, exc.col)
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["1 66", "1 77", "21 1", "21 1", ""]

    @pytest.mark.parametrize("text", [f"<{EX}s> # <{EX}p> .\n~", '# """\n~'])
    def test_a_lexical_error_after_a_comment_is_placed_at_its_character(self, text):
        # Nothing inside a comment is read as a token.
        for parse in (parse_document, lambda t: parse_query(f"SELECT * {{ {t} }}")):
            with pytest.raises(ParseError,
                               match=r"unexpected character '~' \(line 2, column 1\)"):
                parse(text)

    @pytest.mark.parametrize("text, construct", [
        ("?a + 1 = 0", "arithmetic (+)"), ("?a+2 = 0", "arithmetic (+)"),
        ("?a-1 = 0", "arithmetic (-)"), ("?a - 1 = 0", "arithmetic (-)"),
        ("?a -1 = 0", "arithmetic (-)"), ("?a -1.5 = 0", "arithmetic (-)"),
        ("?a -1 * 2 = 0", "arithmetic (-)"), ("?a * 2 = 0", "arithmetic (*)"),
        ("?a / 2 = 0", "arithmetic (/)"), ("!(?a = 1)", "negation (!)"),
        ("-?a = 0", "unary minus (-)"), ("+?a = 0", "unary plus (+)"),
    ])
    def test_operators_outside_the_filter_subset_are_named(self, text, construct):
        # A signed number right after an operand would add or subtract it
        # (SPARQL 1.1 rule [116]), so `?a -1` is refused as arithmetic.
        with pytest.raises(SubsetError) as refused:
            filter_expr(text)
        assert refused.value.construct == construct

    def test_comparison_with_a_negative_number(self):
        assert filter_expr("?v > -1") == EBin(">", EVar("v"), EConst(-1))

    @pytest.mark.parametrize("op", ["<", "<="])
    def test_less_than_without_spaces_is_a_comparison(self, op):
        assert filter_expr(f"?a{op}?b") == EBin(op, EVar("a"), EVar("b"))

    def test_a_dot_after_a_prefixed_name_ends_the_pattern(self):
        query = parse_query(f"PREFIX ex: <{EX}>\nSELECT * {{ ?s ex:p ex:o. ?s ex:q ex:r }}")
        assert [tp.o for tp in query.pattern.elements] == [IRI(EX + "o"), IRI(EX + "r")]

    def test_two_subjects_need_a_dot_between_them_in_both_grammars(self):
        # SPARQL 1.1 rule [55] (TriplesBlock), as Turtle's rule [2] (statement).
        text = f"<{EX}s> <{EX}p> <{EX}o> <{EX}t> <{EX}q> 1"
        for parse in (parse_document, lambda t: parse_query(f"SELECT * {{ {t} }}")):
            with pytest.raises(ParseError, match=f"expected '.', found '<{EX}t>'"):
                parse(text + " .")

    def test_at_directives_are_turtle_only(self):
        with pytest.raises(ParseError):
            parse_query(f"@prefix ex: <{EX}> .\nSELECT * {{ ?s ex:p ?o }}")


class TestQueryEval:
    def test_select_on_empty_dataset(self):
        ast = parse_query("SELECT * { ?s ?p ?o }")
        assert eval_query(Dataset(), ast) == []

    def test_select_three_lights_on(self, lights):
        ast = parse_query(
            'SELECT ?s { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#value> "on" }')
        solutions = eval_query(lights, ast)
        assert len(solutions) == 3
        assert all(isinstance(sol["s"], IRI) for sol in solutions)

    def test_distinct_solutions(self):
        ds = from_quads([q("a", "p", "b", EX + "g1"), q("a", "p", "b", EX + "g2")])
        ast = parse_query(f"SELECT ?s {{ ?s <{EX}p> ?o }}")
        assert len(eval_query(ds, ast)) == 1

    def test_graph_block_binds_graph_var(self, lights):
        ast = parse_query(
            'SELECT ?g { GRAPH ?g { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#value> "off" } }')
        sols = eval_query(lights, ast)
        assert [sol["g"].value for sol in sols] == [EX + "property-L3"]

    def test_filter_numeric_promotion(self):
        ds = from_quads([
            Quad(IRI(EX + "s"), VALUE, Literal("300", XSD_INTEGER), IRI(EX + "g")),
        ])
        ast = parse_query("SELECT ?s { ?s ?p ?v FILTER(?v < 500.0) }")
        assert len(eval_query(ds, ast)) == 1

    def test_filter_type_error_is_false(self):
        ds = from_quads([
            Quad(IRI(EX + "s"), VALUE, Literal("on"), IRI(EX + "g")),
        ])
        ast = parse_query("SELECT ?s { ?s ?p ?v FILTER(?v < 500) }")
        assert eval_query(ds, ast) == []

    def test_deterministic_given_inputs(self, lights):
        ast = parse_query("SELECT ?s ?v { ?s ?p ?v }")
        first = eval_query(lights, ast)
        second = eval_query(lights, ast)
        assert [binding_key(s) for s in first] == [binding_key(s) for s in second]


class TestPaths:
    @pytest.fixture
    def hierarchy(self):
        return from_quads([
            q("floor", "hasPart", "wing"),
            q("wing", "hasPart", "room"),
            q("room", "hasPart", "desk"),
        ])

    def test_plus_no_outgoing(self, hierarchy):
        fwd = hierarchy.pred_nav(EX + "hasPart")[0]
        assert closure(fwd, None, IRI(EX + "desk")) == set()

    def test_plus_two_step_chain(self):
        ds = from_quads([q("a", "p", "b"), q("b", "p", "c")])
        assert closure(ds.pred_nav(EX + "p")[0], None, IRI(EX + "a")) == {
            IRI(EX + "b"), IRI(EX + "c")}

    def test_transitive_includes_grandparent_pair(self, hierarchy):
        ast = parse_query(f"SELECT ?a ?b {{ ?a <{EX}hasPart>+ ?b }}")
        pairs = {(sol["a"].value, sol["b"].value) for sol in eval_query(hierarchy, ast)}
        assert (EX + "floor", EX + "room") in pairs
        assert len(pairs) == 6  # 3 edges + floor->room, floor->desk, wing->desk

    def test_plus_matches_a_brute_force_closure_in_every_binding_shape(self):
        rng = random.Random(11)
        nodes = [IRI(EX + n) for n in "abcdef"]
        for _ in range(20):
            edges = {(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randrange(12))}
            ds = from_quads(Quad(s, IRI(EX + "p"), o, IRI(EX + "g")) for s, o in edges)
            closure = set(edges)
            while True:
                longer = {(s, o2) for s, o in closure for o1, o2 in edges if o == o1}
                if longer <= closure:
                    break
                closure |= longer

            def pairs(body):
                return {(sol.get("a"), sol.get("b"))
                        for sol in eval_query(ds, parse_query(f"SELECT * {{ {body} }}"))}

            assert pairs(f"?a <{EX}p>+ ?b") == closure
            for n in nodes:
                assert pairs(f"<{n.value}> <{EX}p>+ ?b") == \
                    {(None, o) for s, o in closure if s == n}
                assert pairs(f"?a <{EX}p>+ <{n.value}>") == \
                    {(s, None) for s, o in closure if o == n}

    @pytest.mark.parametrize("path", ["<{p}>+"])
    def test_path_in_graph_view_matches_that_graph_alone(self, path):
        rng = random.Random(5)
        path = path.format(p=EX + "p0")
        for _ in range(20):
            quads = {Quad(IRI(EX + rng.choice("abcdef")), IRI(EX + "p" + str(rng.randrange(2))),
                          IRI(EX + rng.choice("abcdef")), IRI(EX + "g" + str(rng.randrange(3))))
                     for _ in range(rng.randrange(0, 40))}
            ds = from_quads(quads)
            alone = from_quads(qd for qd in quads if qd.g.value == EX + "g0")
            # Neither end bound, the subject bound, the object bound.
            for body in (f"?a {path} ?b", f"<{EX}a> {path} ?b . ?b {path} ?c",
                         f"?a {path} <{EX}b>"):
                want = eval_query(alone, parse_query(f"SELECT * {{ {body} }}"))
                text = f"SELECT * {{ GRAPH <{EX}g0> {{ {body} }} }}"
                assert eval_query(ds, parse_query(text)) == want, text


class TestReadPredicates:
    PREFIX = f"PREFIX ex: <{EX}> "

    @pytest.mark.parametrize("body, expected", [
        ("?a ex:p ?b . ?b ex:q+ ?c", {"p", "q"}),
        ("?a ex:p+ ?b FILTER(?b != ?a)", {"p"}),
        ("GRAPH <http://example.org/g> { ?a ex:p ?b . ?b ex:r ?c }", {"p", "r"}),
        ("GRAPH ?g { ?a ex:p ?b }", {"p"}),
        ("?a ex:p ?b FILTER(?b > 3 && ?b != 5)", {"p"}),
    ])
    def test_fixed_reads(self, body, expected):
        ast = parse_query(self.PREFIX + f"SELECT * {{ {body} }}")
        assert read_predicates(ast) == {EX + name for name in expected}

    @pytest.mark.parametrize("body", [
        "?a ?p ?b",                                       # variable predicate
        "GRAPH ?g { ?a ex:p ?b . ?b ex:q ?c }",           # ranges over graph names
        "GRAPH ?g { ?a ex:p+ ?b }",
        "?a ex:p ?b FILTER(rand() < 0.5)",                # randomness
        "?a ex:p ?b FILTER(?b < <http://example.org/vocab/sim#hourOfDay>())",
    ])
    def test_opts_out(self, body):
        assert read_predicates(parse_query(self.PREFIX + f"SELECT * {{ {body} }}")) is None


class TestUpdateEval:
    def test_no_match_is_identity(self, lights):
        text = ('DELETE { ?s ?p "nope" } INSERT { ?s ?p "yep" } '
                'WHERE { GRAPH ?g { ?s ?p "nope" } }')
        ast = parse_update(text)
        assert eval_update(lights, ast) == lights

    def test_single_value_flip(self):
        graph = EX + "property-X"
        it = IRI(graph + "#it")
        ds = from_quads([Quad(it, VALUE, Literal("off"), IRI(graph))])
        text = f"""
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        DELETE {{ GRAPH <{graph}> {{ <{graph}#it> rdf:value "off" }} }}
        INSERT {{ GRAPH <{graph}> {{ <{graph}#it> rdf:value "on" }} }}
        WHERE  {{ GRAPH <{graph}> {{ <{graph}#it> rdf:value "off" }} }}
        """
        out = eval_update(ds, parse_update(text))
        assert out.graph(graph) == frozenset({(it, VALUE, Literal("on"))})

    def test_threshold_zero_never_fires(self, lights):
        text = ('DELETE { GRAPH ?g { ?s ?p ?v } } INSERT { GRAPH ?g { ?s ?p "x" } } '
                'WHERE { GRAPH ?g { ?s ?p ?v } FILTER(rand() < 0.0) }')
        ctx = EvalContext(rng=StubRandom(0.5), iteration=1, op_id="u1")
        assert eval_update(lights, parse_update(text), ctx) == lights

    def test_rand_keyed_per_binding(self, lights):
        text = ('DELETE { GRAPH ?g { ?s ?p ?v } } INSERT { GRAPH ?g { ?s ?p "x" } } '
                'WHERE { GRAPH ?g { ?s ?p ?v } FILTER(rand() < 1.0) }')
        stub = StubRandom(0.5)
        eval_update(lights, parse_update(text), EvalContext(rng=stub, iteration=3, op_id="u9"))
        assert len(stub.calls) == 4
        assert all(it == 3 and op == "u9" for it, op, _ in stub.calls)
        assert len({key for _, _, key in stub.calls}) == 4

    def test_untouched_graphs_shared(self, lights):
        # Frame property: only graphs named in templates change.
        text = (f'DELETE {{ GRAPH <{EX}property-L3> {{ ?s ?p "off" }} }} '
                f'INSERT {{ GRAPH <{EX}property-L3> {{ ?s ?p "on" }} }} '
                f'WHERE {{ GRAPH <{EX}property-L3> {{ ?s ?p "off" }} }}')
        out = eval_update(lights, parse_update(text))
        delta = symmetric_difference(lights, out)
        assert delta.graph_names() == {EX + "property-L3"}

    def test_default_graph_templates(self):
        ds = from_quads([q("s", "p", "o")])
        text = f"INSERT {{ ?s <{EX}guarded> true }} WHERE {{ ?s <{EX}p> ?o }}"
        out = eval_update(ds, parse_update(text))
        assert len(out.graph(DEFAULT_GRAPH)) == 1


# -- brute-force equivalence oracle -------------------------------------------


def brute_solutions(quads, group, binding=None, ctx=None):
    """Naive pattern matcher: enumerate all quads per pattern, no indexes."""
    from ldsim.sparql import Filter, GraphBlock, TriplePattern

    binding = binding or {}
    elements = list(group.elements)

    def match_term(pattern, value, bnd):
        if isinstance(pattern, Var):
            if pattern.name in bnd:
                return [bnd] if bnd[pattern.name] == value else []
            new = dict(bnd)
            new[pattern.name] = value
            return [new]
        return [bnd] if pattern == value else []

    def rec(elems, bnd, graph_scope):
        if not elems:
            yield bnd
            return
        head, rest = elems[0], elems[1:]
        if isinstance(head, TriplePattern):
            assert isinstance(head.p, (IRI, Var)), "oracle handles plain predicates"
            for s, p, o, g in quads:
                if graph_scope is not None and g.value != graph_scope:
                    continue
                for b1 in match_term(head.s, s, bnd):
                    for b2 in match_term(head.p, p, b1):
                        for b3 in match_term(head.o, o, b2):
                            yield from rec(rest, b3, graph_scope)
        elif isinstance(head, GraphBlock):
            names = {g.value for _, _, _, g in quads if g.value != DEFAULT_GRAPH}
            for name in sorted(names):
                for bg in match_term(head.graph, IRI(name), bnd):
                    for inner in rec(list(head.group.elements), bg, name):
                        yield from rec(rest, inner, graph_scope)
        elif isinstance(head, Filter):
            yield from rec(rest, bnd, graph_scope)  # filters checked at end

    from ldsim.sparql import EvalContext, _filter_true

    filters = [el for el in group.elements if isinstance(el, Filter)]
    ctx = ctx or EvalContext(rng=AlwaysBelow(), iteration=1, op_id="u")
    for sol in rec([e for e in elements if not isinstance(e, Filter)], binding, None):
        if all(_filter_true(f.expr, sol, ctx) for f in filters):
            yield sol


def brute_update(quads, update):
    sols = list(brute_solutions(quads, update.where))
    out = set(quads)
    for sol in sols:
        for tpl in update.delete_templates:
            out.discard(_brute_quad(tpl, sol))
    for sol in sols:
        for tpl in update.insert_templates:
            quad_value = _brute_quad(tpl, sol)
            if quad_value is not None:
                out.add(quad_value)
    return out


def _brute_quad(tpl, sol):
    def term(t):
        return sol[t.name] if isinstance(t, Var) else t

    g = tpl.graph
    if g is None:
        g_term = IRI(DEFAULT_GRAPH)
    elif isinstance(g, Var):
        g_term = sol[g.name]
    else:
        g_term = g
    return Quad(term(tpl.s), term(tpl.p), term(tpl.o), g_term)


UPDATE_POOL = [
    'DELETE { GRAPH ?g { ?s ?p ?o } } INSERT { GRAPH ?g { ?s ?p <http://example.org/z> } } '
    'WHERE { GRAPH ?g { ?s ?p ?o } FILTER(rand() < 1.0) }',
    'INSERT { ?s <http://example.org/mark> true } '
    'WHERE { GRAPH ?g { ?s <http://example.org/p0> ?o } }',
    'DELETE { GRAPH ?g { ?s ?p ?o } } '
    'WHERE { GRAPH ?g { ?s ?p ?o . ?o ?q ?x } }',
]


class AlwaysBelow:
    def unit(self, *_):
        return 0.0


@pytest.mark.parametrize("update_text", UPDATE_POOL)
def test_update_matches_bruteforce_on_random_datasets(update_text):
    rng = random.Random(99)
    ast = parse_update(update_text)
    for _ in range(15):
        quads = set()
        for _ in range(rng.randrange(0, 200)):
            s = IRI(EX + rng.choice("abcd"))
            p = IRI(EX + "p" + str(rng.randrange(3)))
            o = rng.choice([IRI(EX + rng.choice("abcd")), Literal(str(rng.randrange(4)))])
            g = IRI(EX + "g" + str(rng.randrange(3)))
            quads.add(Quad(s, p, o, g))
        ds = from_quads(quads)
        ctx = EvalContext(rng=AlwaysBelow(), iteration=1, op_id="u")
        engine_result = set(eval_update(ds, ast, ctx).quads())
        assert engine_result == brute_update(quads, ast)


def test_select_matches_bruteforce():
    rng = random.Random(3)
    ast = parse_query(
        "SELECT ?s ?g { GRAPH ?g { ?s <http://example.org/p1> ?o . ?o <http://example.org/p2> ?x } }")
    for _ in range(10):
        quads = set()
        for _ in range(rng.randrange(0, 120)):
            quads.add(Quad(IRI(EX + rng.choice("abcdef")),
                           IRI(EX + "p" + str(rng.randrange(3))),
                           IRI(EX + rng.choice("abcdef")),
                           IRI(EX + "g" + str(rng.randrange(2)))))
        ds = from_quads(quads)
        engine_keys = {binding_key(s) for s in eval_query(ds, ast)}
        brute_keys = {binding_key({k: v for k, v in sol.items() if k in ("s", "g")})
                      for sol in brute_solutions(quads, ast.pattern)}
        assert engine_keys == brute_keys


def _brute_graph_pattern(ds: Dataset, pattern, sol: dict) -> list[dict]:
    """`GRAPH ?g { pattern }` extending `sol`, by trying every quad outside
    the default graph."""
    out = []
    for quad in ds.quads():
        if quad.g.value == DEFAULT_GRAPH or quad.p != pattern.p:
            continue
        ext = dict(sol)
        if all(ext.setdefault(term.name, value) == value if isinstance(term, Var)
               else term == value
               for term, value in ((pattern.s, quad.s), (pattern.o, quad.o),
                                   (Var("g"), quad.g))):
            out.append(ext)
    return out


class TestGraphBlockLookup:
    """The one-pattern GRAPH ?g branch looks up a bound subject or object in
    the index; it must give what a scan of every named-graph quad gives."""

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.tuples(st.sampled_from("abc"), st.integers(0, 1),
                             st.one_of(st.sampled_from("abc"), st.integers(0, 2)),
                             st.integers(0, 3)), max_size=30),
           st.sampled_from(["?s", f"<{EX}a>", "?x"]),
           st.sampled_from(["?o", f"<{EX}b>", f'"1"^^<{XSD_INTEGER}>', "?x"]),
           st.dictionaries(st.sampled_from(["s", "o", "x", "g"]),
                           st.sampled_from([IRI(EX + n) for n in "abc"]
                                           + [IRI(EX + "g0"), IRI(DEFAULT_GRAPH),
                                              Literal("1", XSD_INTEGER)])))
    def test_one_pattern_block_equals_brute_force(self, quads, s, o, bound):
        # Graph 3 is the default graph, which GRAPH ?g never matches.
        ds = from_quads(
            Quad(IRI(EX + s_), IRI(EX + f"p{p}"),
                 IRI(EX + o_) if isinstance(o_, str) else Literal(str(o_), XSD_INTEGER),
                 IRI(DEFAULT_GRAPH if g == 3 else EX + f"g{g}"))
            for s_, p, o_, g in quads)
        group = parse_query(f"SELECT * {{ GRAPH ?g {{ {s} <{EX}p0> {o} }} }}").pattern
        pattern = group.elements[0].group.elements[0]
        got = sparql._eval_group(ds, None, group, [bound], EvalContext())
        assert Counter(map(binding_key, got)) == \
            Counter(map(binding_key, _brute_graph_pattern(ds, pattern, bound)))


# -- join planning ---------------------------------------------------------------


def written_order(_d, group, _bound):
    """The reference plan: elements as written, every filter at the end."""
    return ([el for el in group.elements if not isinstance(el, Filter)]
            + [el for el in group.elements if isinstance(el, Filter)])


NODES = [f"<{EX}{n}>" for n in "abcd"]
VARS = ["?v0", "?v1", "?v2", "?v3"]
PREDICATES = [f"<{EX}p{i}>" for i in range(3)]
quad_sets = st.sets(st.tuples(
    st.sampled_from("abcd"), st.integers(0, 2),
    st.one_of(st.sampled_from("abcd"), st.integers(0, 3)),
    st.integers(0, 2)), max_size=40)
subjects = st.sampled_from(VARS + NODES[:2])
objects = st.sampled_from(VARS + NODES[:2] + [f'"{i}"^^<{XSD_INTEGER}>' for i in (1, 2)])
verbs = st.one_of(st.sampled_from(PREDICATES), st.sampled_from(PREDICATES).map(lambda p: p + "+"),
                  st.just("?vp"))
patterns = st.builds("{} {} {} .".format, subjects, verbs, objects)
filters = st.one_of(
    st.builds("FILTER({} {} {})".format, st.sampled_from(VARS),
              st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
              st.sampled_from(VARS + ["1", "2", NODES[0]])),
    st.builds("FILTER({} != {} || {} < 2)".format, st.sampled_from(VARS),
              st.sampled_from(VARS), st.sampled_from(VARS)))
graph_blocks = st.builds(
    lambda g, inner: f"GRAPH <{EX}g{g}> {{ {' '.join(inner)} }}",
    st.integers(0, 2), st.lists(st.one_of(patterns, filters), min_size=1, max_size=3))
groups = st.lists(st.one_of(patterns, patterns, graph_blocks, filters), min_size=1, max_size=6)
# The branches of the fixed-predicate join: one variable at both ends, a
# constant at both ends, and a plain pattern in a graph's view.
same_var_patterns = st.builds("{0} {1} {0} .".format, st.sampled_from(VARS),
                              st.sampled_from(PREDICATES))
constant_patterns = st.builds("{} {} {} .".format, st.sampled_from(NODES[:2]),
                              st.sampled_from(PREDICATES),
                              st.sampled_from(NODES[:2] + [f'"1"^^<{XSD_INTEGER}>']))
plain_patterns = st.builds("{} {} {} .".format, subjects, st.sampled_from(PREDICATES), objects)
graph_patterns = st.one_of(
    st.builds(lambda g, inner: f"GRAPH <{EX}g{g}> {{ {inner} }}",
              st.integers(0, 2), st.one_of(plain_patterns, same_var_patterns)),
    # Joined after its copy outside, the pattern in the view has both ends bound.
    st.builds(lambda g, inner: f"{inner} GRAPH <{EX}g{g}> {{ {inner} }}",
              st.integers(0, 2), plain_patterns))
# Each branch of the fixed-predicate join, and where it runs: over every
# graph, in one graph's view, after a copy of itself that binds both ends
# (in the view), and after variable-predicate patterns have bound its ends
# (the second of them joins with its predicate bound).
JOIN_SHAPES = [f"?v0 {PREDICATES[0]} ?v1 .", f"?v0 {PREDICATES[0]} ?v0 .",
               f"{NODES[0]} {PREDICATES[0]} ?v1 .", f"?v0 {PREDICATES[0]} {NODES[0]} .",
               f"{NODES[0]} {PREDICATES[0]} {NODES[1]} .",
               f'{NODES[1]} {PREDICATES[0]} "1"^^<{XSD_INTEGER}> .']
JOIN_SETTINGS = ["{}", f"GRAPH <{EX}g1> {{{{ {{}} }}}}", f"{{0}} GRAPH <{EX}g1> {{{{ {{0}} }}}}",
                 "?v0 ?vp ?v1 . {} ?v1 ?vp ?v2 ."]
# Few terms, so that ends fan out and triples repeat across graphs.
dense_quad_sets = st.sets(st.tuples(
    st.sampled_from("ab"), st.integers(0, 2),
    st.one_of(st.sampled_from("abc"), st.integers(1, 2)),
    st.integers(0, 2)), min_size=3, max_size=30)
join_cases = st.one_of(same_var_patterns, constant_patterns, graph_patterns)
planned_groups = st.lists(st.one_of(patterns, patterns, graph_blocks, filters, join_cases),
                          min_size=1, max_size=6)


def random_dataset(quads) -> Dataset:
    return from_quads(
        Quad(IRI(EX + s), IRI(EX + f"p{p}"),
             IRI(EX + o) if isinstance(o, str) else Literal(str(o), XSD_INTEGER),
             IRI(EX + f"g{g}"))
        for s, p, o, g in quads)


def solution_bag(ds: Dataset, group) -> Counter:
    ctx = EvalContext(rng=KeyedRandom(7), iteration=1, op_id="plan")
    return Counter(binding_key(sol)
                   for sol in sparql._eval_group(ds, None, group, [{}], ctx))


class TestJoinPlanning:
    @settings(max_examples=300, deadline=None)
    @given(quad_sets, planned_groups)
    def test_planned_bag_equals_written_order(self, quads, elements):
        ds = random_dataset(quads)
        group = parse_query(f"SELECT * {{ {' '.join(elements)} }}").pattern
        planned = solution_bag(ds, group)
        with mock.patch.object(sparql, "_plan", written_order):
            assert solution_bag(ds, group) == planned

    @settings(max_examples=300, deadline=None)
    @given(dense_quad_sets, st.sampled_from(JOIN_SHAPES), st.sampled_from(JOIN_SETTINGS))
    def test_fixed_predicate_join_equals_brute_force(self, quads, shape, setting):
        # The brute-force matcher scans every quad and knows no index, so
        # it checks each branch of the join, not only their agreement.
        ds = random_dataset(quads)
        group = parse_query(f"SELECT * {{ {setting.format(shape)} }}").pattern
        assert set(solution_bag(ds, group)) == {
            binding_key(sol) for sol in brute_solutions(set(ds.quads()), group)}

    @settings(max_examples=150, deadline=None)
    @given(quad_sets, groups, st.booleans())
    @example(quads={("a", 0, 0, 0), ("a", 0, "a", 0)}, nested=False,
             elements=[f"GRAPH <{EX}g0> {{ FILTER(?v3 < 1) }}", "?v0 ?vp ?v3 ."])
    def test_rand_update_same_under_both_orders(self, quads, elements, nested):
        # rand() is keyed on the whole solution, so the planner must hand it
        # the same solutions, including inside a GRAPH block.
        rand_block = (f"GRAPH <{EX}g0> {{ ?v0 <{EX}p1> ?v3 FILTER(rand() < 0.5) }}"
                      if nested else "")
        text = (f"DELETE {{ GRAPH <{EX}g0> {{ ?v0 <{EX}p0> ?v1 }} }} "
                f"INSERT {{ GRAPH <{EX}g1> {{ ?v0 <{EX}mark> ?v1 }} }} "
                f"WHERE {{ ?v0 <{EX}p0> ?v1 . {' '.join(elements)} {rand_block} "
                f"FILTER(rand() < 0.5) }}")
        update = parse_update(text)
        ds = random_dataset(quads)
        ctx = EvalContext(rng=KeyedRandom(11), iteration=3, op_id="u")
        planned = eval_update(ds, update, ctx)
        with mock.patch.object(sparql, "_plan", written_order):
            assert eval_update(ds, update, ctx) == planned

    def test_filter_runs_as_soon_as_its_variables_are_bound(self):
        ds = from_quads([q("a", "p", "b"), q("b", "q", "c")])
        group = parse_query(f"SELECT * {{ ?x <{EX}p> ?y . ?y <{EX}q> ?z "
                            f"FILTER(?z != ?x) FILTER(?x != <{EX}b>) "
                            f"FILTER(rand() < 2) }}").pattern
        plan = list(sparql._plan(ds, group, set()))
        kinds = [type(el).__name__ for el in plan]
        assert kinds == ["TriplePattern", "Filter", "TriplePattern", "Filter", "Filter"]
        assert plan[1].expr.right == sparql.EConst(IRI(EX + "b"))

    def test_bound_first_and_connected(self):
        # The constant object matches once, so it goes first; the pattern
        # sharing no variable waits behind a linked one that fans out more.
        ds = from_quads([q("a", "p", "b"), q("a", "p", "c"), q("a", "p", "d"),
                                 q("b", "q", "x"), q("d", "q", "y"),
                                 q("x", "r", "y"), q("z", "r", "y"),
                                 Quad(IRI(EX + "a"), IRI(EX + "v"), Literal("on"), IRI(EX + "g")),
                                 Quad(IRI(EX + "c"), IRI(EX + "v"), Literal("off"), IRI(EX + "g"))])
        group = parse_query(f"SELECT * {{ ?s <{EX}p> ?o . ?m <{EX}r> ?n . "
                            f"?s <{EX}v> \"on\" . GRAPH <{EX}g> {{ ?o <{EX}q> ?t }} }}").pattern
        first, second, third, fourth = sparql._plan(ds, group, set())
        assert first.o == Literal("on")
        assert second.p == IRI(EX + "p")
        assert isinstance(third, sparql.GraphBlock)
        assert fourth.p == IRI(EX + "r")

    def test_single_match_joins_early_and_lets_its_filter_prune(self):
        # The clock shares no variable, but it matches once, so it joins
        # before the linked pattern that fans out and its filter prunes.
        ds = from_quads([
            q("x", "p", "a"), q("x", "p", "b"), q("y", "p", "c"),
            Quad(IRI(EX + "x"), IRI(EX + "v"), Literal("on"), IRI(EX + "g")),
            Quad(IRI(EX + "clock"), IRI(EX + "hour"), Literal("3", XSD_INTEGER),
                 IRI(EX + "sim"))])
        group = parse_query(f"SELECT * {{ ?s <{EX}v> \"on\" . ?s <{EX}p> ?o . "
                            f"GRAPH <{EX}sim> {{ ?c <{EX}hour> ?h }} FILTER(?h > 8) }}").pattern
        plan = list(sparql._plan(ds, group, set()))
        assert [type(el).__name__ for el in plan] == [
            "TriplePattern", "GraphBlock", "Filter", "TriplePattern"]
        assert plan[0].o == Literal("on") and plan[3].p == IRI(EX + "p")
        assert sparql._eval_group(ds, None, group, [{}], EvalContext()) == []

    def test_graph_name_bound_elsewhere_skips_the_default_graph(self):
        ds = from_quads([
            Quad(IRI(EX + "x"), IRI(EX + "in"), IRI(DEFAULT_GRAPH), IRI(EX + "g")),
            Quad(IRI(EX + "x"), IRI(EX + "in"), IRI(EX + "g"), IRI(EX + "g")),
            q("s", "p", "o", DEFAULT_GRAPH)])
        link, block = f"?x <{EX}in> ?g .", "GRAPH ?g { ?s ?p ?o }"
        for body in (f"{link} {block}", f"{block} {link}"):
            sols = eval_query(ds, parse_query(f"SELECT ?g ?s {{ {body} }}"))
            assert {sol["g"] for sol in sols} == {IRI(EX + "g")}, body

    @pytest.mark.parametrize("inner", [
        "?o <{ex}q> ?t FILTER(rand() < 0.5)",       # keyed on the whole solution
        "?o <{ex}q> ?t FILTER(?s != ?t)",           # reads ?s from outside
        "GRAPH <{ex}h> {{ ?o <{ex}q> ?t FILTER(?t < ?s) }}",
    ])
    def test_graph_block_filter_looking_outside_keeps_written_order(self, inner):
        # Unguarded, the planner would start with the one "on" value.
        ds = from_quads([q("a", "p", "b"), q("c", "p", "d"), q("b", "q", "c"),
                                 Quad(IRI(EX + "a"), IRI(EX + "v"), Literal("on"), IRI(EX + "g"))])
        inner = inner.format(ex=EX)
        group = parse_query(f"SELECT * {{ ?s <{EX}p> ?o . ?s <{EX}v> \"on\" . "
                            f"GRAPH <{EX}g> {{ {inner} }} }}").pattern
        assert list(sparql._plan(ds, group, set())) == list(group.elements)


# -- split fault queries ------------------------------------------------------------

SPLIT_VARS = ["?v0", "?v1", "?v2"]
split_subjects = st.sampled_from(SPLIT_VARS + NODES[:2])
split_objects = st.sampled_from(SPLIT_VARS + NODES[:2] + [f'"{i}"^^<{XSD_INTEGER}>' for i in (1, 2)])
split_elements = st.one_of(
    st.builds("{} {} {} .".format, split_subjects, st.sampled_from(PREDICATES), split_objects),
    st.builds("{} {}+ {} .".format, split_subjects, st.sampled_from(PREDICATES), split_objects),
    st.builds(lambda g, inner: f"GRAPH <{EX}g{g}> {{ {' '.join(inner)} }}", st.integers(0, 2),
              st.lists(st.builds("{} {} {} .".format, split_subjects,
                                 st.sampled_from(PREDICATES), split_objects),
                       min_size=1, max_size=2)),
    st.builds("GRAPH ?g {{ {} {} {} }}".format, split_subjects, st.sampled_from(PREDICATES),
              split_objects))


@st.composite
def split_queries(draw):
    """SELECTs in the subset that `read_predicates` can read: fixed
    predicates, `iri+`, GRAPH <iri>, a one-pattern GRAPH ?g and comparison
    filters over the variables the patterns bind."""
    elements = draw(st.lists(split_elements, min_size=1, max_size=4))
    text = " ".join(elements)
    used = [v for v in SPLIT_VARS + ["?g"] if v in text]
    if used:
        elements += draw(st.lists(st.builds(
            "FILTER({} {} {})".format, st.sampled_from(used),
            st.sampled_from(["!=", "!=", "=", "<", ">="]),
            st.sampled_from(used + ["1", "2", NODES[0]])), max_size=2))
    projection = " ".join(draw(st.lists(st.sampled_from(used), min_size=1, unique=True))) \
        if used and draw(st.booleans()) else "*"
    return parse_query(f"SELECT {projection} {{ {' '.join(elements)} }}")


# A replacement of one graph: (graph number, raw (s, p, o) triples).
replacements = st.lists(st.tuples(st.integers(0, 2), st.sets(st.tuples(
    st.sampled_from("abcd"), st.integers(0, 2),
    st.one_of(st.sampled_from("abcd"), st.integers(0, 3))), max_size=8)), max_size=4)


def _triple(s, p, o):
    return (IRI(EX + s), IRI(EX + f"p{p}"),
            IRI(EX + o) if isinstance(o, str) else Literal(str(o), XSD_INTEGER))


class TestSplitQuery:
    @settings(max_examples=200, deadline=None)
    @given(dense_quad_sets, split_queries(), replacements)
    # A rest with a pattern apart from the stable part, a filter over it
    # alone and one that spans both.
    @example(quads={("a", 0, "b", 0), ("b", 1, "a", 1), ("a", 1, "a", 2), ("b", 2, 1, 0),
                    ("a", 2, 1, 2)},
             query=parse_query(f"SELECT ?v1 {{ <{EX}a> <{EX}p0> ?v0 . ?v1 <{EX}p1> <{EX}a> . "
                               f"?v1 <{EX}p2> 1 FILTER(?v0 != <{EX}c>) FILTER(?v0 != ?v1) }}"),
             steps=[(0, {("a", 0, "c"), ("b", 2, 1)}), (2, set())])
    def test_rest_on_kept_stable_part_equals_whole_query(self, quads, query, steps):
        ctx = EvalContext()
        whole = FaultQuery("q", query)
        elements = [el for el in query.pattern.elements if not isinstance(el, Filter)]
        for n in range(len(elements) + 1):
            for volatile in map(set, itertools.combinations(elements, n)):
                ds = random_dataset(quads)
                stable_group, rest = split_query(query, volatile)
                rows = eval_stable(ds, stable_group, ctx)
                if rows is None:
                    continue
                stable = [el for el in stable_group.elements if not isinstance(el, Filter)]
                states = [element_state(ds, el) for el in stable]
                # The predicates of a stable element whose state is a whole
                # entry keep their triples; every other triple may change.
                kept = set().union(*(_predicates_of(el) for el, state in zip(stable, states)
                                     if all(isinstance(x, PredicateEntry) for x in state)))
                for step in [None] + steps:
                    if step is not None:
                        g, raw = step
                        name = EX + f"g{g}"
                        ds = ds.replace_graphs({name: frozenset(
                            [tr for tr in ds.graph(name) if tr[1].value in kept]
                            + [tr for tr in map(lambda t: _triple(*t), raw)
                               if tr[1].value not in kept])})
                    if any(a is not b for el, state in zip(stable, states)
                           for a, b in zip(state, element_state(ds, el))):
                        break  # a stable element changed: the check splits again
                    fresh = Dataset(dict(ds.graphs()))
                    assert match_faults(ds, FaultQuery("q", rest), ctx, start=rows) == \
                        match_faults(fresh, whole, ctx), (volatile, step)

    @pytest.mark.parametrize("removed, same", [
        (("x", "type", "Thing"), [True, False, True]),
        (("b", "type", "Light"), [False, False, True]),
        (("a", "for", "b"), [True, True, False]),
    ])
    def test_a_state_changes_only_with_the_maps_its_element_reads(self, removed, same):
        ds = from_quads([q("a", "type", "Light"), q("b", "type", "Light"),
                                 q("x", "type", "Thing"), q("a", "for", "b"),
                                 q("a", "for", "c")])
        elements = parse_query(
            f"SELECT * {{ ?l <{EX}type> <{EX}Light> . ?s <{EX}type> ?t . "
            f"<{EX}a> <{EX}for> ?o }}").pattern.elements
        before = [element_state(ds, el) for el in elements]
        after = ds.replace_graphs({EX + "g": ds.graph(EX + "g") - {q(*removed)[:3]}})
        assert [all(map(operator.is_, old, element_state(after, el)))
                for old, el in zip(before, elements)] == same

    def test_stable_part_holds_its_patterns_and_their_filters(self):
        query = parse_query(
            f"SELECT ?it {{ ?sys <{EX}hasPoint> ?os . ?os <{EX}forProperty> ?osp . "
            f"?osp <{EX}value> \"on\" . ?os <{EX}forProperty> ?it . ?it <{EX}value> ?lux . "
            f"<{EX}w> <{EX}sunrise> ?sr FILTER(?lux < 500) FILTER(?sys != ?os) "
            f"FILTER(?sr != ?os) }}")
        volatile = {el for el in query.pattern.elements
                    if isinstance(el, sparql.TriplePattern) and el.p == IRI(EX + "value")}
        stable, rest = split_query(query, volatile)
        # The value patterns changed; the filter over ?lux stays with them.
        assert [el for el in stable.elements if isinstance(el, Filter)] == \
            list(query.pattern.elements[-2:])
        assert len(stable.elements) == 6
        assert [el.o for el in rest.pattern.elements[:2]] == [Literal("on"), Var("lux")]
        assert rest.pattern.elements[2:] == (query.pattern.elements[-3],)
        assert rest.projection == ("it",)

    @pytest.mark.parametrize("body", [
        "?a ex:p ?b FILTER(rand() < 0.5)",
        "?a ex:q ?b . GRAPH <http://example.org/g> { ?b ex:p ?c FILTER(?c != ?a) }",
    ])
    def test_no_split_without_a_cut(self, body):
        query = parse_query(f"PREFIX ex: <{EX}> SELECT * {{ {body} }}")
        assert split_query(query, set()) is None

    def test_a_growing_cross_product_is_not_kept(self):
        ds = from_quads([q("a", "p", "b"), q("c", "p", "d"), q("a", "q", "e"),
                                 q("c", "q", "f"), q("w", "sunrise", "x")])
        ctx = EvalContext()
        # Two fan-out patterns with no shared variable: the volatile
        # pattern that joins them stays out of the stable part.
        apart = parse_query(f"SELECT * {{ ?a <{EX}p> ?b . ?c <{EX}q> ?d . "
                            f"?b <{EX}v> ?c }}")
        stable, _rest = split_query(apart, {apart.pattern.elements[-1]})
        assert len(stable.elements) == 2
        assert eval_stable(ds, stable, ctx) is None
        # A pattern that matches once joins anything without growth.
        once = parse_query(f"SELECT * {{ <{EX}w> <{EX}sunrise> ?sr . ?a <{EX}p> ?b }}")
        assert len(eval_stable(ds, once.pattern, ctx)) == 2


def _predicates_of(el) -> frozenset[str]:
    return read_predicates(sparql.Query(sparql.Group((el,)), None))
