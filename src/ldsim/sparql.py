"""Parser and evaluator for the query/update subset driving the simulation.

Supported: SELECT (distinct solutions), the one query form, over basic
graph patterns, GRAPH blocks, FILTER expressions, one property path form,
`iri+` (one or more steps over one predicate), and DELETE/INSERT/WHERE
updates, whose templates hold plain triple patterns and GRAPH blocks of
them. Every fault query and agent rule is a SELECT; an ASK query is a parse
error that names SELECT. Everything else, FROM clauses and the rest of the
path algebra (^, /, ( ), *, ?, | and !) included, is refused with an error
naming the construct.

Patterns outside GRAPH blocks match the union of all graphs, and patterns
inside one match that graph alone. Filter evaluation errors make the
enclosing FILTER false.

Queries, updates and agent rule files are read with the tokenizer and
`Reader` of `rdfio`, which Turtle uses too; its docstring gives the
terminals and their escape and IRIREF rules, and `Reader.predicate_objects`
reads the `;` and `,` lists of both grammars. The subset takes IRIs,
prefixed names, variables, strings with a language tag or datatype,
signed numbers, keywords and the operators. It refuses blank nodes, `[`
and the @prefix/@base forms. A FILTER compares terms (variables,
constants, `rand()` and function calls) with = != < <= > >= and joins the
comparisons with && and || in parentheses as needed; arithmetic (+ - * /,
and a signed number right after an operand, as in `?a -1`), negation (!)
and unary minus and plus are refused, while `?v > -1` compares with -1.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from datetime import datetime
from typing import Iterator

from .ns import (
    DEFAULT_GRAPH,
    RDF_TYPE,
    SIM_VOCAB,
    XSD,
    XSD_BOOLEAN,
    XSD_DATETIME,
    XSD_DATETIMESTAMP,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
)
from .rdf import IRI, BlankNode, Dataset, Literal, Quad, Term
from .rdfio import ParseError, Reader, term_nt

log = logging.getLogger(__name__)

OUT_OF_SUBSET = {
    "optional", "union", "minus", "bind", "values", "service", "exists",
    "construct", "describe", "order", "group", "having", "limit", "offset",
    "reduced", "named", "with", "using", "load", "clear", "drop", "create",
    "from",
}
_PATH_SYNTAX = {"^": "inverse path (^)", "/": "sequence path (/)", "(": "grouped path ( )",
                "*": "zero-or-more path (*)", "?": "zero-or-one path (?)",
                "|": "alternative path (|)", "!": "negated property set (!)"}
_UNARY_SYNTAX = {"!": "negation (!)", "-": "unary minus (-)", "+": "unary plus (+)"}


class SubsetError(ValueError):
    """A syntactically valid SPARQL construct outside the supported subset."""

    def __init__(self, construct: str):
        super().__init__(f"unsupported construct: {construct}")
        self.construct = construct


class EvalError(ValueError):
    pass


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Var:
    """Not a tuple like the RDF terms: a 1-tuple Var("x") would equal IRI("x")."""

    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class PathPlus:
    iri: str  # `iri+`: one or more steps over one predicate


@dataclass(frozen=True)
class TriplePattern:
    s: Term | Var
    p: IRI | Var | PathPlus
    o: Term | Var


@dataclass(frozen=True)
class GraphBlock:
    graph: IRI | Var
    group: "Group"


@dataclass(frozen=True)
class Filter:
    expr: "Expr"


@dataclass(frozen=True)
class Group:
    elements: tuple

    def variables(self) -> set[str]:
        out: set[str] = set()
        for el in self.elements:
            if isinstance(el, TriplePattern):
                for t in (el.s, el.p, el.o):
                    if isinstance(t, Var):
                        out.add(t.name)
            elif isinstance(el, GraphBlock):
                if isinstance(el.graph, Var):
                    out.add(el.graph.name)
                out |= el.group.variables()
        return out


@dataclass(frozen=True)
class QuadPattern:
    s: Term | Var
    p: IRI | Var
    o: Term | Var
    graph: IRI | Var | None  # None targets the default graph


@dataclass(frozen=True)
class Query:
    pattern: Group
    projection: tuple[str, ...] | None  # None means all in-scope variables


@dataclass(frozen=True)
class Update:
    delete_templates: tuple[QuadPattern, ...]
    insert_templates: tuple[QuadPattern, ...]
    where: Group


# -- expressions --------------------------------------------------------------


@dataclass(frozen=True)
class EVar:
    name: str


@dataclass(frozen=True)
class EConst:
    value: object


@dataclass(frozen=True)
class EBin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class ECall:
    name: str  # "rand" or a function IRI
    args: tuple


Expr = EVar | EConst | EBin | ECall


# -- parser -------------------------------------------------------------------


class Parser(Reader):
    """Recursive-descent parser of the subset's queries and updates.

    A subject's patterns are read by `Reader.predicate_objects` (SPARQL 1.1
    rule [83]), as Turtle's triples are, with a path allowed as a verb.

    Also the entry point for grammars that embed its group patterns or
    templates, such as agent rule files: `prologue`, `keyword`,
    `expect_keyword`, `group`, `template`, `iri_from`, `error` and
    `unexpected` are public; `lex.peek()`/`lex.next()` give (kind, value,
    offset) tokens, and `lex.text`/`lex.pos` let such a grammar read a
    token of its own.
    """

    def keyword(self) -> str | None:
        tok = self.lex.peek()
        if tok[0] == "word":
            return tok[1].lower()
        return None

    def expect_keyword(self, word: str) -> None:
        tok = self.lex.next()
        if tok[0] != "word" or tok[1].lower() != word:
            raise self.unexpected(word.upper(), tok)

    def check_subset(self, word: str) -> None:
        if word in OUT_OF_SUBSET:
            raise SubsetError(word.upper())

    def prologue(self) -> None:
        while self.keyword() in ("prefix", "base"):
            self.directive()

    # -- entry points -----------------------------------------------------

    def parse_query(self) -> Query:
        self.prologue()
        self.check_subset(self.keyword() or "")
        self.expect_keyword("select")
        projection: list[str] | None = []
        if self.keyword() == "distinct":
            self.lex.next()
        if self.lex.peek()[0] == "*":
            self.lex.next()
            projection = None
        else:
            while self.lex.peek()[0] == "var":
                projection.append(self.lex.next()[1])
            if not projection:
                raise self.error("empty SELECT projection")
        group = self._where()
        if projection is not None:
            missing = set(projection) - group.variables()
            if missing:
                raise self.error(f"projected variable ?{sorted(missing)[0]} not in pattern")
        self._expect_eof()
        return Query(group, tuple(projection) if projection is not None else None)

    def parse_update(self) -> Update:
        self.prologue()
        kw = self.keyword()
        if kw is None:
            raise self.error("expected DELETE or INSERT")
        self.check_subset(kw)
        deletes: tuple[QuadPattern, ...] = ()
        inserts: tuple[QuadPattern, ...] = ()
        if kw == "delete":
            self.lex.next()
            if self.keyword() == "data":
                raise SubsetError("DELETE DATA")
            deletes = self.template()
            if self.keyword() == "insert":
                self.lex.next()
                inserts = self.template()
        elif kw == "insert":
            self.lex.next()
            if self.keyword() == "data":
                raise SubsetError("INSERT DATA")
            inserts = self.template()
        else:
            raise self.error(f"expected DELETE or INSERT, found {kw.upper()}")
        self.expect_keyword("where")
        where = self.group()
        self._expect_eof()
        bound = where.variables()
        for tpl in deletes + inserts:
            for t in (tpl.s, tpl.p, tpl.o, tpl.graph):
                if isinstance(t, Var) and t.name not in bound:
                    raise self.error(f"template variable ?{t.name} not bound by WHERE")
        return Update(deletes, inserts, where)

    def _expect_eof(self) -> None:
        tok = self.lex.peek()
        if tok[0] != "eof":
            if tok[0] == "word":
                self.check_subset(tok[1].lower())
            raise self.unexpected("end of input", tok)

    def _where(self) -> Group:
        """The pattern after an optional WHERE; a FROM clause is refused."""
        kw = self.keyword()
        if kw == "from":
            self.lex.next()
            raise SubsetError("FROM NAMED" if self.keyword() == "named" else "FROM")
        if kw == "where":
            self.lex.next()
        return self.group()

    # -- patterns -----------------------------------------------------------

    def group(self) -> Group:
        self.expect("{")
        elements: list = []
        while True:
            tok = self.lex.peek()
            if tok[0] == "}":
                self.lex.next()
                return Group(tuple(elements))
            if tok[0] == "eof":
                raise self.error("unterminated group")
            if tok[0] == ".":
                self.lex.next()
                continue
            kw = self.keyword()
            if kw == "filter":
                self.lex.next()
                self.expect("(")
                expr = self.expression()
                self.expect(")")
                elements.append(Filter(expr))
                continue
            if kw == "graph":
                self.lex.next()
                name_tok = self.lex.next()
                name = (Var(name_tok[1]) if name_tok[0] == "var"
                        else self.iri_from(name_tok))
                elements.append(GraphBlock(name, self.group()))
                continue
            if kw in OUT_OF_SUBSET:
                raise SubsetError(kw.upper())
            if tok[0] == "{":
                self.group()  # consume so we can name the combinator
                if self.keyword() in ("union", "minus"):
                    raise SubsetError(self.keyword().upper())
                raise SubsetError("nested group")
            elements.extend(self.triple_patterns())
            # Rule [55]: a '.' ends a subject's patterns before the next.
            tok = self.lex.peek()
            if tok[0] not in (".", "}", "{", "word"):
                raise self.unexpected("'.'", tok)

    def triple_patterns(self) -> list[TriplePattern]:
        s = self.pattern_term("subject")
        return [TriplePattern(*t)
                for t in self.predicate_objects(s, self.verb_or_path, self.pattern_term)]

    def pattern_term(self, position: str = "object"):
        tok = self.lex.next()
        if tok[0] == "var":
            return Var(tok[1])
        if tok[0] == "[":
            raise SubsetError("blank node property list")
        term = self.constant(tok)
        if term is None or (position == "subject" and isinstance(term, Literal)):
            raise self.unexpected(position, tok)
        return term

    def verb_or_path(self):
        """A variable, or `a`, an IRI or a prefixed name with an optional `+`."""
        tok = self.lex.next()
        if tok[0] == "var":
            return Var(tok[1])
        if tok[0] in _PATH_SYNTAX:
            raise SubsetError(_PATH_SYNTAX[tok[0]])
        iri = RDF_TYPE if tok[:2] == ("word", "a") else self.iri_from(tok).value
        try:
            nxt = self.lex.peek()[0]
        except ParseError:
            # A lone "?" or "|" is no token of the lexer's.
            nxt = self.lex.text[self.lex.pos:].lstrip()[:1]
            if nxt not in _PATH_SYNTAX:
                raise
        if nxt in _PATH_SYNTAX:
            raise SubsetError(_PATH_SYNTAX[nxt])
        if nxt == "+":
            self.lex.next()
            return PathPlus(iri)
        return IRI(iri)

    # -- templates -----------------------------------------------------------

    def template(self) -> tuple[QuadPattern, ...]:
        """A DELETE or INSERT template or a rule's payload: a group of
        triple patterns and GRAPH blocks of them, with no path (SPARQL 1.1
        rule [48], `QuadPattern`). Patterns outside a GRAPH block target
        the default graph."""
        tok = self.lex.peek()
        out: list[QuadPattern] = []
        for el in self.group().elements:
            graph, patterns = ((el.graph, el.group.elements) if isinstance(el, GraphBlock)
                               else (None, (el,)))
            for tp in patterns:
                if not isinstance(tp, TriplePattern) or isinstance(tp.p, PathPlus):
                    raise self.error("templates allow plain triples and GRAPH blocks "
                                     "of them only", tok)
                out.append(QuadPattern(tp.s, tp.p, tp.o, graph))
        return tuple(out)

    # -- expressions -----------------------------------------------------------

    def expression(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        left = self._and()
        while self.lex.peek()[0] == "||":
            self.lex.next()
            left = EBin("||", left, self._and())
        return left

    def _and(self) -> Expr:
        left = self._relational()
        while self.lex.peek()[0] == "&&":
            self.lex.next()
            left = EBin("&&", left, self._relational())
        return left

    def _relational(self) -> Expr:
        left = self._operand()
        tok = self.lex.peek()
        if tok[0] in ("=", "!=", "<", "<=", ">", ">="):
            self.lex.next()
            return EBin(tok[0], left, self._operand())
        return left

    def _operand(self) -> Expr:
        """A primary term with no arithmetic after it."""
        expr = self._primary()
        kind, value, _offset = self.lex.peek()
        # A signed number right after an operand would add or subtract it
        # (SPARQL 1.1 rule [116]): `?a -1` is `?a - 1`.
        op = value[0][0] if kind == "number" and value[0][0] in "+-" else kind
        if op in ("+", "-", "*", "/"):
            raise SubsetError(f"arithmetic ({op})")
        return expr

    def _primary(self) -> Expr:
        tok = self.lex.next()
        if tok[0] in _UNARY_SYNTAX:
            raise SubsetError(_UNARY_SYNTAX[tok[0]])
        if tok[0] == "(":
            expr = self.expression()
            self.expect(")")
            return expr
        if tok[0] == "var":
            return EVar(tok[1])
        if tok[0] == "word":
            word = tok[1].lower()
            if word == "true":
                return EConst(True)
            if word == "false":
                return EConst(False)
            if word == "rand":
                self.expect("(")
                self.expect(")")
                return ECall("rand", ())
            self.check_subset(word)
            raise self.error(f"unknown function {tok[1]!r}")
        if tok[0] in ("iri", "pname"):
            iri = self.iri_from(tok)
            if self.lex.peek()[0] == "(":
                self.lex.next()
                args = []
                while self.lex.peek()[0] != ")":
                    args.append(self.expression())
                    if self.lex.peek()[0] == ",":
                        self.lex.next()
                self.expect(")")
                return ECall(iri.value, tuple(args))
            return EConst(iri)
        literal = self.constant(tok)
        if literal is None:
            raise self.unexpected("expression", tok)
        return EConst(literal_value(literal))


def parse_query(text: str, base: str | None = None) -> Query:
    return Parser(text, base).parse_query()


def parse_update(text: str, base: str | None = None) -> Update:
    return Parser(text, base).parse_update()


# -- evaluation ----------------------------------------------------------------


@dataclass
class EvalContext:
    """Carries keyed randomness and simulated time into evaluation.

    `rng.unit(iteration, op_id, binding_key)` must be a pure function so that
    seed-matched runs draw identically regardless of agent interference.
    """

    rng: object | None = None
    iteration: int = 0
    op_id: str = ""
    sim_time: datetime | None = None

    def rand(self, binding: dict) -> float:
        if self.rng is None:
            raise EvalError("rand() needs a random source in the context")
        return self.rng.unit(self.iteration, self.op_id, binding_key(binding))


def binding_key(binding: dict) -> str:
    """Canonical string of a solution's sorted variable/term pairs."""
    return "|".join(f"?{name}={term_nt(term)}"
                    for name, term in sorted(binding.items()))


def eval_query(d: Dataset, q: Query, ctx: EvalContext | None = None,
               start: list[dict] | None = None, keys: bool = False):
    """The distinct list of bindings in key order, or with `keys` the
    frozenset of their `binding_key`s. The pattern extends the `start`
    solutions, by default the one empty solution."""
    ctx = ctx or EvalContext()
    solutions = _eval_group(d, None, q.pattern, [{}] if start is None else start, ctx)
    names = q.projection if q.projection is not None else tuple(sorted(q.pattern.variables()))
    seen = {}
    for sol in solutions:
        projected = {n: sol[n] for n in names if n in sol}
        seen[binding_key(projected)] = projected
    if keys:
        return frozenset(seen)
    return [seen[k] for k in sorted(seen)]


def eval_update(d: Dataset, u: Update, ctx: EvalContext | None = None) -> Dataset:
    """Apply one update; deletions precede insertions across all solutions."""
    ctx = ctx or EvalContext()
    solutions = _eval_group(d, None, u.where, [{}], ctx)
    removals: list[Quad] = []
    additions: list[Quad] = []
    for sol in solutions:
        removals.extend(instantiate(u.delete_templates, sol))
        additions.extend(instantiate(u.insert_templates, sol))
    if not removals and not additions:
        return d
    return d.apply(removals, additions)


def instantiate(templates: tuple[QuadPattern, ...], sol: dict) -> Iterator[Quad]:
    """The templates' quads under one solution. A quad with an unbound
    variable, a literal subject, or a predicate or graph that is no IRI is
    skipped with a warning."""
    default = IRI(DEFAULT_GRAPH)
    for tpl in templates:
        s, p, o, g = tpl.s, tpl.p, tpl.o, tpl.graph or default
        if isinstance(s, Var):
            s = sol.get(s.name)
        if isinstance(p, Var):
            p = sol.get(p.name)
        if isinstance(o, Var):
            o = sol.get(o.name)
        if isinstance(g, Var):
            g = sol.get(g.name)
        if s is None or p is None or o is None or g is None:
            log.warning("skipping template quad %s: unbound variable", tpl)
        elif isinstance(s, Literal) or not isinstance(p, IRI) or not isinstance(g, IRI):
            log.warning("skipping template quad %s: malformed instantiation", tpl)
        else:
            yield Quad(s, p, o, g)


class _CrossProduct(Exception):
    """A connected plan would multiply its solutions by an unlinked element."""


def eval_stable(d: Dataset, group: Group, ctx: EvalContext) -> list[dict] | None:
    """The group's solutions from nothing bound, or None when its plan
    would join an element that neither shares a bound variable nor matches
    at most once: a growing cross product, which a whole query may avoid
    by joining its other elements in between."""
    try:
        plan = list(_plan(d, group, set(), connected=True))
    except _CrossProduct:
        return None
    return _join_plan(d, None, plan, [{}], ctx)


def _eval_group(d: Dataset, graph: str | None, group: Group,
                bindings: list[dict], ctx: EvalContext) -> list[dict]:
    """The group's solutions over one named graph, or all graphs if None."""
    if not bindings:
        return []
    # Every solution of a group binds the same variables, so the first
    # incoming one tells the planner what is bound.
    return _join_plan(d, graph, _plan(d, group, set(bindings[0])), bindings, ctx)


def _join_plan(d: Dataset, graph: str | None, plan, solutions: list[dict],
               ctx: EvalContext) -> list[dict]:
    for el in plan:
        if isinstance(el, Filter):
            solutions = _filtered(el.expr, solutions, ctx)
        elif isinstance(el, TriplePattern):
            solutions = _join_pattern(d, graph, el, solutions)
        else:
            solutions = _join_graph_block(d, el, solutions, ctx)
        if not solutions:
            break
    return solutions


def _plan(d: Dataset, group: Group, bound: set[str], connected: bool = False) -> Iterator:
    """The group's elements in join order, with each filter placed where
    its variables are all bound. Lazy, so an evaluation that runs out of
    solutions plans no further.

    Greedy and bound-first (Stocker et al., WWW 2008): the next element is
    the one with the fewest estimated matches per solution (`_cost`), ties
    going to the one written first, among those that share a variable
    with what is bound or match at most once (no growing cross products).
    When none does, the cheapest goes next anyway; with `connected`, it
    raises `_CrossProduct` instead once an element that may match more
    than once has joined, since the solutions would then multiply.
    A filter that calls a function stays last, since `rand()` is keyed on
    the whole solution. A filter inside a GRAPH block sees what the
    elements before the block bound, so a group keeps its written order
    when such a filter calls a function or reads a variable its own group
    does not bind.
    """
    pending = [el for el in group.elements if not isinstance(el, Filter)]
    filters = [el for el in group.elements if isinstance(el, Filter)]
    if not all(_self_contained(el.group) for el in pending if isinstance(el, GraphBlock)):
        yield from pending + filters
        return
    pending = [(el, _element_vars(el)) for el in pending]
    waiting = [(flt, _expr_vars(flt.expr)) for flt in filters if not _has_call(flt.expr)]
    bound = set(bound)
    fanned_out = False  # whether an element joined so far may match more than once
    while True:
        yield from (flt for flt, names in waiting if names <= bound)
        waiting = [(flt, names) for flt, names in waiting if not names <= bound]
        if not pending:
            break
        scored = [(_cost(d, el, bound), el, names) for el, names in pending]
        linked = [entry for entry in scored if entry[0] <= 1 or entry[2] & bound]
        if not linked:
            if connected and fanned_out:
                raise _CrossProduct
            linked = scored
        cost, best, names = min(linked, key=lambda entry: entry[0])
        fanned_out = fanned_out or cost > 1
        pending.remove((best, names))
        bound |= names
        yield best
    yield from (flt for flt, _names in waiting)
    yield from (flt for flt in filters if _has_call(flt.expr))


def _cost(d: Dataset, el, bound: set[str]) -> float:
    """Estimated matches of one element per solution, from index counts:
    exact for a constant subject or object, the average fan-out for a
    bound variable, every entry when neither end is bound. A path counts
    every entry of its predicate, a variable predicate everything, and a
    GRAPH block its cheapest inner pattern."""
    if isinstance(el, GraphBlock):
        return min((_cost(d, inner, bound) for inner in el.group.elements
                    if not isinstance(inner, Filter)), default=math.inf)
    if isinstance(el.p, Var):
        return math.inf
    if isinstance(el.p, PathPlus):
        return len(d.pred_entries(el.p.iri))
    entry = d.pred_entries(el.p.value)
    estimates = [len(entry)]
    for term, side in ((el.s, entry.fwd), (el.o, entry.bwd)):
        if not isinstance(term, Var):
            estimates.append(len(side.get(term, ())))
        elif term.name in bound:
            estimates.append(len(entry) / max(1, len(side)))
    return min(estimates)


def _element_vars(el) -> set[str]:
    if isinstance(el, GraphBlock):
        return Group((el,)).variables()
    return {t.name for t in (el.s, el.p, el.o) if isinstance(t, Var)}


def _expr_vars(expr: Expr) -> set[str]:
    if isinstance(expr, EVar):
        return {expr.name}
    if isinstance(expr, EBin):
        return _expr_vars(expr.left) | _expr_vars(expr.right)
    if isinstance(expr, ECall):
        return set().union(*(_expr_vars(arg) for arg in expr.args))
    return set()


def _self_contained(group: Group) -> bool:
    """Whether each filter in the group, nested ones too, calls no function
    and reads only variables that its own group binds."""
    names = group.variables()
    return all((not _has_call(el.expr) and _expr_vars(el.expr) <= names)
               if isinstance(el, Filter)
               else not isinstance(el, GraphBlock) or _self_contained(el.group)
               for el in group.elements)


def _join_graph_block(d: Dataset, block: GraphBlock, bindings: list[dict],
                      ctx: EvalContext) -> list[dict]:
    out: list[dict] = []
    if isinstance(block.graph, IRI):
        return _eval_group(d, block.graph.value, block.group, bindings, ctx)
    var = block.graph.name
    single = _single_pattern(block.group)
    if single is not None:
        fwd, bwd = d.pred_nav(single.p.value)
    for sol in bindings:
        if var in sol:
            # A bound graph name ranges over the named graphs, as an
            # unbound one does, whichever element bound it first.
            bound = sol[var]
            if isinstance(bound, IRI) and bound.value != DEFAULT_GRAPH \
                    and d.has_graph(bound.value):
                out.extend(_eval_group(d, bound.value, block.group, [sol], ctx))
            continue
        if single is not None:
            # One plain pattern inside: bind the graph from the index instead
            # of trying every named graph, looking up a bound end.
            s_val, o_val = _resolved(single.s, sol), _resolved(single.o, sol)
            if s_val is not None:
                rows = [(s_val, eo, graphs) for eo, graphs in fwd.get(s_val, {}).items()]
            elif o_val is not None:
                rows = [(es, o_val, graphs) for es, graphs in bwd.get(o_val, {}).items()]
            else:
                rows = ((es, eo, graphs) for es, objects in fwd.items()
                        for eo, graphs in objects.items())
            for es, eo, graphs in rows:
                for eg in graphs:
                    if eg == DEFAULT_GRAPH:
                        continue
                    ext = _try_bind(sol, ((single.s, es), (single.o, eo),
                                          (block.graph, IRI(eg))))
                    if ext is not None:
                        out.append(ext)
            continue
        for name in d.graph_names():
            if name == DEFAULT_GRAPH:
                continue
            extended = dict(sol)
            extended[var] = IRI(name)
            out.extend(_eval_group(d, name, block.group, [extended], ctx))
    return out


def _single_pattern(group: Group) -> TriplePattern | None:
    """The group's one element if it is a pattern with a fixed predicate."""
    if len(group.elements) == 1:
        el = group.elements[0]
        if isinstance(el, TriplePattern) and isinstance(el.p, IRI):
            return el
    return None


def read_predicates(q: Query) -> frozenset[str] | None:
    """The predicate IRIs whose index entries decide the query's solutions.

    None when the solutions can depend on more than those entries: a
    variable predicate (it scans every triple), a GRAPH ?g block that is
    not one fixed-predicate pattern (it ranges over graph names), or a
    function call (randomness and simulated time come from the context).
    The same holds for each element of the query's group (`element_state`
    narrows it to the maps an element looks up), so a fault check keeps
    the solutions of the part that did not change (`split_query`).
    """
    read = _group_predicates(q.pattern)
    return None if read is None else frozenset(read)


def _group_predicates(group: Group) -> set[str] | None:
    read: set[str] = set()
    for el in group.elements:
        got = _element_predicates(el)
        if got is None:
            return None
        read |= got
    return read


def _element_predicates(el) -> set[str] | None:
    """The predicates one element reads, as `read_predicates` counts them."""
    if isinstance(el, TriplePattern):
        if isinstance(el.p, Var):
            return None
        return {el.p.iri if isinstance(el.p, PathPlus) else el.p.value}
    if isinstance(el, GraphBlock):
        if isinstance(el.graph, Var) and _single_pattern(el.group) is None:
            return None
        return _group_predicates(el.group)
    return None if _has_call(el.expr) else set()


def element_state(d: Dataset, el) -> tuple:
    """The index objects that decide one element's solutions, to compare
    by identity (see `rdf`: a patch shares every map it does not touch).
    For a pattern with a fixed predicate and a constant subject or object,
    that end's map of the predicate's entry; otherwise the entries of the
    predicates the element reads. `el` is an element of a query whose
    `read_predicates` is not None."""
    if isinstance(el, TriplePattern) and isinstance(el.p, IRI):
        entry = d.pred_entries(el.p.value)
        if not isinstance(el.s, Var):
            return (entry.fwd.get(el.s),)
        if not isinstance(el.o, Var):
            return (entry.bwd.get(el.o),)
        return (entry,)
    return tuple(d.pred_entries(p) for p in sorted(_element_predicates(el)))


def split_query(q: Query, volatile) -> tuple[Group, Query] | None:
    """The query's group cut in two: the stable part, every pattern and
    GRAPH block that is not in `volatile`, plus every filter whose
    variables it binds; and a query over the rest, with the whole query's
    projection. Joining the rest onto the stable part's solutions
    (`eval_query(..., start=)`) gives the query's solutions. `q` is a query
    whose `read_predicates` is not None.

    None when a filter reads a variable its group does not bind (in a
    GRAPH block, one from outside the block, which keeps the written
    order; see `_plan`).
    """
    group = q.pattern
    if not _self_contained(group):
        return None
    stable = [el for el in group.elements
              if not isinstance(el, Filter) and el not in volatile]
    bound = Group(tuple(stable)).variables()
    stable += [el for el in group.elements
               if isinstance(el, Filter) and _expr_vars(el.expr) <= bound]
    rest = tuple(el for el in group.elements if el not in stable)
    names = q.projection if q.projection is not None else tuple(sorted(group.variables()))
    return Group(tuple(stable)), Query(Group(rest), names)


def _has_call(expr: Expr) -> bool:
    if isinstance(expr, ECall):
        return True
    if isinstance(expr, EBin):
        return _has_call(expr.left) or _has_call(expr.right)
    return False


def _in_view(targets: dict, graph: str | None):
    """The keys of a term -> graphs map of the index whose triple lies in
    the view's graph (all keys when the view is every graph)."""
    if graph is None:
        return targets
    return [t for t, held in targets.items() if graph in held]


def _join_pattern(d: Dataset, graph: str | None, tp: TriplePattern,
                  bindings: list[dict]) -> list[dict]:
    """Extend each solution by the matches of one pattern. The same triple
    can sit in several graphs (resource partitioning); solutions do not
    bind the graph here, so distinct rows match once. A fixed predicate's
    maps are fetched once, each end's variable name read once and a bound
    end looked up; a solution the pattern binds nothing new in is kept
    as it is."""
    if isinstance(tp.p, PathPlus):
        return _join_path(d, graph, tp, bindings)
    if isinstance(tp.p, Var):
        return _join_any_predicate(d, graph, tp, bindings)
    fwd, bwd = d.pred_nav(tp.p.value)
    s_name = tp.s.name if isinstance(tp.s, Var) else None
    o_name = tp.o.name if isinstance(tp.o, Var) else None
    out: list[dict] = []
    for sol in bindings:
        s_val = tp.s if s_name is None else sol.get(s_name)
        o_val = tp.o if o_name is None else sol.get(o_name)
        if s_val is not None:
            objects = fwd.get(s_val)
            if objects is None:
                continue
            if o_val is not None:
                held = objects.get(o_val)
                if held is not None and (graph is None or graph in held):
                    out.append(sol)
                continue
            for eo in _in_view(objects, graph):
                ext = dict(sol)
                ext[o_name] = eo
                out.append(ext)
        elif o_val is not None:
            for es in _in_view(bwd.get(o_val, {}), graph):
                ext = dict(sol)
                ext[s_name] = es
                out.append(ext)
        elif s_name == o_name:
            for es, objects in fwd.items():
                held = objects.get(es)
                if held is not None and (graph is None or graph in held):
                    ext = dict(sol)
                    ext[s_name] = es
                    out.append(ext)
        else:
            for es, objects in fwd.items():
                for eo in _in_view(objects, graph):
                    ext = dict(sol)
                    ext[s_name] = es
                    ext[o_name] = eo
                    out.append(ext)
    return out


def _join_any_predicate(d: Dataset, graph: str | None, tp: TriplePattern,
                        bindings: list[dict]) -> list[dict]:
    """A variable predicate: bound to an IRI, the fixed-predicate join;
    otherwise a scan of every triple in the view."""
    out: list[dict] = []
    scan: frozenset | None = None
    for sol in bindings:
        p = sol.get(tp.p.name)
        if isinstance(p, IRI):
            out.extend(_join_pattern(d, graph, TriplePattern(tp.s, p, tp.o), [sol]))
            continue
        if scan is None:
            scan = frozenset((es, ep, eo) for name, triples in d.graphs()
                             if graph is None or name == graph
                             for es, ep, eo in triples)
        for es, ep, eo in scan:
            ext = _try_bind(sol, ((tp.s, es), (tp.p, ep), (tp.o, eo)))
            if ext is not None:
                out.append(ext)
    return out


def _resolved(t, sol: dict):
    if isinstance(t, Var):
        return sol.get(t.name)
    return t


def _try_bind(sol: dict, pairs) -> dict | None:
    ext = None
    for pattern_term, value in pairs:
        if isinstance(pattern_term, Var):
            current = (ext or sol).get(pattern_term.name)
            if current is None:
                if ext is None:
                    ext = dict(sol)
                ext[pattern_term.name] = value
            elif current != value:
                return None
        elif pattern_term != value:
            return None
    return ext if ext is not None else dict(sol)


# -- property paths -------------------------------------------------------------


def closure(side: dict, graph: str | None, node: Term) -> set:
    """Nodes one or more steps from `node` over one direction of a
    predicate's index (`fwd` or `bwd` of `Dataset.pred_nav`), in the view.
    With `graph` None, `side` may be any map of a node to its successors."""
    reached: set = set()
    todo = [node]
    while todo:
        for nxt in _in_view(side.get(todo.pop(), {}), graph):
            if nxt not in reached:
                reached.add(nxt)
                todo.append(nxt)
    return reached


def _join_path(d: Dataset, graph: str | None, tp: TriplePattern,
               bindings: list[dict]) -> list[dict]:
    """`s iri+ o`, walked from whichever end is bound, else from every subject."""
    fwd, bwd = d.pred_nav(tp.p.iri)
    out: list[dict] = []
    for sol in bindings:
        s = _resolved(tp.s, sol)
        o = _resolved(tp.o, sol)
        if s is not None:
            ends = [(s, t) for t in closure(fwd, graph, s)]
        elif o is not None:
            ends = [(t, o) for t in closure(bwd, graph, o)]
        else:
            ends = [(start, t) for start in fwd for t in closure(fwd, graph, start)]
        for es, eo in ends:
            ext = _try_bind(sol, ((tp.s, es), (tp.o, eo)))
            if ext is not None:
                out.append(ext)
    return out


# -- expression evaluation -------------------------------------------------------


def literal_value(lit: Literal):
    dt = lit.datatype
    if dt in (XSD_INTEGER, XSD + "int", XSD + "long", XSD + "short",
              XSD + "nonNegativeInteger", XSD + "positiveInteger", XSD + "byte",
              XSD + "unsignedInt", XSD + "unsignedLong"):
        return int(lit.lexical)
    if dt in (XSD_DECIMAL, XSD_DOUBLE, XSD + "float"):
        return float(lit.lexical)
    if dt == XSD_BOOLEAN:
        return lit.lexical.strip() in ("true", "1")
    if dt in (XSD_DATETIME, XSD_DATETIMESTAMP):
        return parse_datetime(lit.lexical)
    return lit.lexical


def parse_datetime(lexical: str) -> datetime:
    return datetime.fromisoformat(lexical.replace("Z", "+00:00"))


def _term_value(t):
    if isinstance(t, Literal):
        return literal_value(t)
    return t  # IRIs and blanks compare by identity only


_NUMERIC = (int, float)
_ORDERINGS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _eval_expr(expr: Expr, sol: dict, ctx: EvalContext):
    if isinstance(expr, EConst):
        return expr.value
    if isinstance(expr, EVar):
        if expr.name not in sol:
            raise EvalError(f"unbound variable ?{expr.name}")
        return _term_value(sol[expr.name])
    if isinstance(expr, ECall):
        return _eval_call(expr, sol, ctx)
    if expr.op == "&&":
        return (_as_bool(_eval_expr(expr.left, sol, ctx))
                and _as_bool(_eval_expr(expr.right, sol, ctx)))
    if expr.op == "||":
        return (_as_bool(_eval_expr(expr.left, sol, ctx))
                or _as_bool(_eval_expr(expr.right, sol, ctx)))
    left = _eval_expr(expr.left, sol, ctx)
    right = _eval_expr(expr.right, sol, ctx)
    if expr.op in ("=", "!="):
        return _compatible_eq(left, right) == (expr.op == "=")
    _require_ordered(left, right)
    return _ORDERINGS[expr.op](left, right)


def _compatible_eq(left, right) -> bool:
    if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC) \
            and not isinstance(left, bool) and not isinstance(right, bool):
        return float(left) == float(right)
    if type(left) is type(right) or (isinstance(left, str) and isinstance(right, str)):
        return left == right
    if isinstance(left, (IRI, BlankNode)) or isinstance(right, (IRI, BlankNode)):
        return left == right
    raise EvalError(f"incomparable values {left!r} and {right!r}")


def _require_ordered(left, right) -> None:
    ok = (isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC)
          and not isinstance(left, bool) and not isinstance(right, bool))
    ok = ok or (isinstance(left, str) and isinstance(right, str))
    ok = ok or (isinstance(left, datetime) and isinstance(right, datetime))
    if not ok:
        raise EvalError(f"unordered comparison of {left!r} and {right!r}")


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    raise EvalError(f"expected boolean, got {value!r}")


def _eval_call(call: ECall, sol: dict, ctx: EvalContext):
    if call.name == "rand":
        return ctx.rand(sol)
    if SIM_VOCAB in call.name:
        func = call.name.split("#", 1)[1]
        if ctx.sim_time is None:
            raise EvalError("simulated time not available")
        if func == "time":
            return ctx.sim_time
        if func == "iteration":
            return ctx.iteration
        if func == "secondsOfDay":
            t = ctx.sim_time
            return t.hour * 3600 + t.minute * 60 + t.second
        if func == "hourOfDay":
            return ctx.sim_time.hour
    raise EvalError(f"unknown function <{call.name}>")


def _filtered(expr: Expr, solutions: list[dict], ctx: EvalContext) -> list[dict]:
    """The solutions a FILTER keeps. One that calls no function depends on
    its variables' values alone, so it is evaluated once per distinct
    binding of them: joined onto many kept solutions, a time-of-day test
    reads the same hour and bounds in each."""
    if _has_call(expr):
        return [sol for sol in solutions if _filter_true(expr, sol, ctx)]
    names = tuple(_expr_vars(expr))
    verdicts: dict[tuple, bool] = {}
    out = []
    for sol in solutions:
        key = tuple(sol.get(name) for name in names)
        keep = verdicts.get(key)
        if keep is None:
            keep = verdicts[key] = _filter_true(expr, sol, ctx)
        if keep:
            out.append(sol)
    return out


def _filter_true(expr: Expr, sol: dict, ctx: EvalContext) -> bool:
    # Errors make the enclosing FILTER false.
    try:
        return _as_bool(_eval_expr(expr, sol, ctx))
    except EvalError:
        return False
