import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldsim import sparql
from ldsim.engine import KeyedRandom
from ldsim.ns import DEFAULT_GRAPH, RDF_VALUE, XSD_INTEGER
from ldsim.rdf import IRI, Dataset, Literal, Quad
from ldsim.rdfio import ParseError
from ldsim.sparql import (
    EvalContext,
    Filter,
    PathLink,
    PathPlus,
    SubsetError,
    Var,
    binding_key,
    eval_path,
    eval_query,
    eval_update,
    parse_query,
    parse_update,
    read_predicates,
)
from rdf_helpers import symmetric_difference

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
    return Dataset.from_quads(quads)


class TestParser:
    def test_empty_ask(self):
        ast = parse_query("ASK {}")
        assert ast.form == "ask"
        assert ast.pattern.elements == ()

    def test_ask_with_from(self):
        text = """
        BASE <http://example.org/>
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        ASK FROM <property-L1>
        WHERE { <property-L1#it> rdf:value "on" . }
        """
        ast = parse_query(text)
        assert ast.from_graphs == (EX + "property-L1",)
        assert len(ast.pattern.elements) == 1

    def test_select_projection_checked(self):
        with pytest.raises(ParseError):
            parse_query("SELECT ?x { ?y ?p ?o }")

    @pytest.mark.parametrize("text,construct", [
        ("SELECT ?s { ?s ?p ?o OPTIONAL { ?s ?q ?z } }", "OPTIONAL"),
        ("SELECT ?s { { ?s ?p ?o } UNION { ?s ?q ?o } }", "UNION"),
        ("SELECT ?s { ?s ?p ?o BIND(1 AS ?x) }", "BIND"),
        ("SELECT ?s { ?s <http://x/p>* ?o }", "*"),
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

    def test_update_unbound_template_var_rejected(self):
        with pytest.raises(ParseError):
            parse_update("INSERT { <http://x/s> <http://x/p> ?nope } WHERE { }")

    def test_relative_iris_resolved_against_base(self):
        ast = parse_query("ASK { <sim> <vocab/sim#currentIteration> ?i }", base=EX)
        pattern = ast.pattern.elements[0]
        assert pattern.s == IRI(EX + "sim")
        assert pattern.p == IRI(EX + "vocab/sim#currentIteration")

    def test_path_parse(self):
        ast = parse_query("ASK { ?a (^<http://x/p>)+ ?b }")
        tp = ast.pattern.elements[0]
        assert tp.p == PathPlus(PathLink.__call__("http://x/p")) or tp.p is not None


class TestQueryEval:
    def test_ask_empty_dataset(self):
        ast = parse_query("ASK { ?s ?p ?o }")
        assert eval_query(Dataset(), ast) is False

    def test_select_three_lights_on(self, lights):
        ast = parse_query(
            'SELECT ?s { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#value> "on" }')
        solutions = eval_query(lights, ast)
        assert len(solutions) == 3
        assert all(isinstance(sol["s"], IRI) for sol in solutions)

    def test_distinct_solutions(self):
        ds = Dataset.from_quads([q("a", "p", "b", EX + "g1"), q("a", "p", "b", EX + "g2")])
        ast = parse_query(f"SELECT ?s {{ ?s <{EX}p> ?o }}")
        assert len(eval_query(ds, ast)) == 1

    def test_from_restricts_view(self, lights):
        text = (f'ASK FROM <{EX}property-L3> '
                f'{{ ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#value> "on" }}')
        assert eval_query(lights, parse_query(text)) is False

    def test_from_missing_graph_is_empty(self, lights):
        text = f"ASK FROM <{EX}nope> {{ ?s ?p ?o }}"
        assert eval_query(lights, parse_query(text)) is False

    def test_graph_block_binds_graph_var(self, lights):
        ast = parse_query(
            'SELECT ?g { GRAPH ?g { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#value> "off" } }')
        sols = eval_query(lights, ast)
        assert [sol["g"].value for sol in sols] == [EX + "property-L3"]

    def test_from_equals_graph_wrapping(self, lights):
        # Metamorphic check: single FROM g == wrapping the pattern in GRAPH g.
        for name in [f"{EX}property-L{i}" for i in range(4)]:
            with_from = parse_query(
                f'ASK FROM <{name}> {{ ?s ?p "on" }}')
            with_graph = parse_query(
                f'ASK {{ GRAPH <{name}> {{ ?s ?p "on" }} }}')
            assert eval_query(lights, with_from) == eval_query(lights, with_graph)

    def test_filter_numeric_promotion(self):
        ds = Dataset.from_quads([
            Quad(IRI(EX + "s"), VALUE, Literal("300", XSD_INTEGER), IRI(EX + "g")),
        ])
        ast = parse_query("SELECT ?s { ?s ?p ?v FILTER(?v < 500.0) }")
        assert len(eval_query(ds, ast)) == 1

    def test_filter_type_error_is_false(self):
        ds = Dataset.from_quads([
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
        return Dataset.from_quads([
            q("floor", "hasPart", "wing"),
            q("wing", "hasPart", "room"),
            q("room", "hasPart", "desk"),
        ])

    def test_plus_no_outgoing(self, hierarchy):
        assert eval_path(hierarchy, PathPlus(PathLink(EX + "hasPart")), IRI(EX + "desk")) == set()

    def test_plus_two_step_chain(self):
        ds = Dataset.from_quads([q("a", "p", "b"), q("b", "p", "c")])
        assert eval_path(ds, PathPlus(PathLink(EX + "p")), IRI(EX + "a")) == {
            IRI(EX + "b"), IRI(EX + "c")}

    def test_inverse_plus_reaches_ancestors(self, hierarchy):
        ast = parse_query(f"SELECT ?up {{ <{EX}room> ^<{EX}hasPart>+ ?up }}")
        ups = {sol["up"] for sol in eval_query(hierarchy, ast)}
        assert ups == {IRI(EX + "wing"), IRI(EX + "floor")}

    def test_transitive_includes_grandparent_pair(self, hierarchy):
        ast = parse_query(f"SELECT ?a ?b {{ ?a <{EX}hasPart>+ ?b }}")
        pairs = {(sol["a"].value, sol["b"].value) for sol in eval_query(hierarchy, ast)}
        assert (EX + "floor", EX + "room") in pairs
        assert len(pairs) == 6  # 3 edges + floor->room, floor->desk, wing->desk

    def test_sequence_path(self, hierarchy):
        ast = parse_query(f"SELECT ?x {{ <{EX}floor> <{EX}hasPart>/<{EX}hasPart> ?x }}")
        assert [s["x"] for s in eval_query(hierarchy, ast)] == [IRI(EX + "room")]


    @pytest.mark.parametrize("path", ["<{p}>+", "^<{p}>+", "<{p}>/<{p}>", "<{p}>/^<{p}>"])
    def test_path_in_graph_view_matches_that_graph_alone(self, path):
        rng = random.Random(5)
        path = path.format(p=EX + "p0")
        for _ in range(20):
            quads = {Quad(IRI(EX + rng.choice("abcdef")), IRI(EX + "p" + str(rng.randrange(2))),
                          IRI(EX + rng.choice("abcdef")), IRI(EX + "g" + str(rng.randrange(3))))
                     for _ in range(rng.randrange(0, 40))}
            ds = Dataset.from_quads(quads)
            alone = Dataset.from_quads(qd for qd in quads if qd.g.value == EX + "g0")
            for body in (f"?a {path} ?b", f"<{EX}a> {path} ?b . ?b {path} ?c",
                         f"?a {path} <{EX}b>"):
                want = eval_query(alone, parse_query(f"SELECT * {{ {body} }}"))
                for text in (f"SELECT * {{ GRAPH <{EX}g0> {{ {body} }} }}",
                             f"SELECT * FROM <{EX}g0> {{ {body} }}"):
                    assert eval_query(ds, parse_query(text)) == want, text


class TestReadPredicates:
    PREFIX = f"PREFIX ex: <{EX}> "

    @pytest.mark.parametrize("body, expected", [
        ("?a ex:p ?b . ?b ex:q+ ?c", {"p", "q"}),
        ("?a ^ex:p/ex:q ?b FILTER(?b != ?a)", {"p", "q"}),
        ("GRAPH <http://example.org/g> { ?a ex:p ?b . ?b ex:r ?c }", {"p", "r"}),
        ("GRAPH ?g { ?a ex:p ?b }", {"p"}),
        ("?a ex:p ?b FILTER(?b > 3 && !(?b = 5))", {"p"}),
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
        ds = Dataset.from_quads([Quad(it, VALUE, Literal("off"), IRI(graph))])
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
        ds = Dataset.from_quads([q("s", "p", "o")])
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
        ds = Dataset.from_quads(quads)
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
        ds = Dataset.from_quads(quads)
        engine_keys = {binding_key(s) for s in eval_query(ds, ast)}
        brute_keys = {binding_key({k: v for k, v in sol.items() if k in ("s", "g")})
                      for sol in brute_solutions(quads, ast.pattern)}
        assert engine_keys == brute_keys


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
                  st.sampled_from(PREDICATES).map(lambda p: "^" + p), st.just("?vp"))
patterns = st.builds("{} {} {} .".format, subjects, verbs, objects)
filters = st.one_of(
    st.builds("FILTER({} {} {})".format, st.sampled_from(VARS),
              st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
              st.sampled_from(VARS + ["1", "2", NODES[0]])),
    st.builds("FILTER(!({} = {}) || {} < 2)".format, st.sampled_from(VARS),
              st.sampled_from(VARS), st.sampled_from(VARS)))
graph_blocks = st.builds(
    lambda g, inner: f"GRAPH <{EX}g{g}> {{ {' '.join(inner)} }}",
    st.integers(0, 2), st.lists(st.one_of(patterns, filters), min_size=1, max_size=3))
groups = st.lists(st.one_of(patterns, patterns, graph_blocks, filters), min_size=1, max_size=6)


def random_dataset(quads) -> Dataset:
    return Dataset.from_quads(
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
    @given(quad_sets, groups)
    def test_planned_bag_equals_written_order(self, quads, elements):
        ds = random_dataset(quads)
        group = parse_query(f"SELECT * {{ {' '.join(elements)} }}").pattern
        planned = solution_bag(ds, group)
        with mock.patch.object(sparql, "_plan", written_order):
            assert solution_bag(ds, group) == planned

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
        ds = Dataset.from_quads([q("a", "p", "b"), q("b", "q", "c")])
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
        ds = Dataset.from_quads([q("a", "p", "b"), q("a", "p", "c"), q("a", "p", "d"),
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
        ds = Dataset.from_quads([
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
        ds = Dataset.from_quads([
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
        ds = Dataset.from_quads([q("a", "p", "b"), q("c", "p", "d"), q("b", "q", "c"),
                                 Quad(IRI(EX + "a"), IRI(EX + "v"), Literal("on"), IRI(EX + "g"))])
        inner = inner.format(ex=EX)
        group = parse_query(f"SELECT * {{ ?s <{EX}p> ?o . ?s <{EX}v> \"on\" . "
                            f"GRAPH <{EX}g> {{ {inner} }} }}").pattern
        assert list(sparql._plan(ds, group, set())) == list(group.elements)
