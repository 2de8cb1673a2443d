"""Parser and evaluator for the query/update subset driving the simulation.

Supported: ASK and SELECT (distinct solutions) over basic graph patterns,
GRAPH blocks, FILTER expressions, FROM clauses, property paths built from
^ (inverse), / (sequence) and + (one or more), and DELETE/INSERT/WHERE
updates. Everything else is rejected with an error naming the construct.

Patterns outside GRAPH blocks match the union of all graphs; FROM clauses
replace that union with the union of the listed graphs. Filter evaluation
errors make the enclosing FILTER false.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from datetime import date, datetime
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
    XSD_TIME,
    is_absolute,
    resolve,
)
from .rdf import IRI, BlankNode, Dataset, Literal, Quad, Term
from .rdfio import ParseError, term_nt

log = logging.getLogger(__name__)

OUT_OF_SUBSET = {
    "optional", "union", "minus", "bind", "values", "service", "exists",
    "construct", "describe", "order", "group", "having", "limit", "offset",
    "reduced", "named", "with", "using", "load", "clear", "drop", "create",
}


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
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class PathLink:
    iri: str


@dataclass(frozen=True)
class PathInv:
    inner: "Path"


@dataclass(frozen=True)
class PathSeq:
    parts: tuple


@dataclass(frozen=True)
class PathPlus:
    inner: "Path"


Path = PathLink | PathInv | PathSeq | PathPlus


@dataclass(frozen=True)
class TriplePattern:
    s: Term | Var
    p: IRI | Var | Path
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
    form: str  # "ask" | "select"
    from_graphs: tuple[str, ...]
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
class ENot:
    inner: "Expr"


@dataclass(frozen=True)
class ENeg:
    inner: "Expr"


@dataclass(frozen=True)
class ECall:
    name: str  # "rand" or a function IRI
    args: tuple


Expr = EVar | EConst | EBin | ENot | ENeg | ECall


# -- tokenizer ----------------------------------------------------------------

_IRIREF_RE = re.compile(r'<([^<>"{}|^`\\\x00-\x20]*)>')
_VAR_RE = re.compile(r"[?$]([A-Za-z_][A-Za-z0-9_]*)")
_NUMBER_RE = re.compile(r"(?:\d+\.\d+|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_PNAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9_\-]*)?:([A-Za-z0-9_][A-Za-z0-9_\-.]*)?")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._peeked = None

    def _lineno(self, pos: int) -> tuple[int, int]:
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return line, col

    def error(self, message: str, pos: int | None = None) -> ParseError:
        line, col = self._lineno(self.pos if pos is None else pos)
        return ParseError(message, line, col)

    def peek(self):
        if self._peeked is None:
            self._peeked = self._next()
        return self._peeked

    def next(self):
        tok = self.peek()
        self._peeked = None
        return tok

    def _next(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self.pos += 1
            elif ch == "#":
                end = text.find("\n", self.pos)
                self.pos = end if end != -1 else len(text)
            else:
                break
        if self.pos >= len(text):
            return ("eof", "", self.pos)
        start = self.pos
        ch = text[start]

        m = _IRIREF_RE.match(text, start)
        if m:
            self.pos = m.end()
            return ("iri", m.group(1), start)
        if ch in "?$":
            m = _VAR_RE.match(text, start)
            if not m:
                raise self.error("bad variable")
            self.pos = m.end()
            return ("var", m.group(1), start)
        if ch in "\"'":
            return self._string(start)
        if ch.isdigit() or (ch == "." and start + 1 < len(text) and text[start + 1].isdigit()):
            m = _NUMBER_RE.match(text, start)
            self.pos = m.end()
            lex = m.group(0)
            if "e" in lex or "E" in lex:
                return ("number", (lex, XSD_DOUBLE), start)
            if "." in lex:
                return ("number", (lex, XSD_DECIMAL), start)
            return ("number", (lex, XSD_INTEGER), start)
        for punct in ("^^", "&&", "||", "!=", "<=", ">="):
            if text.startswith(punct, start):
                self.pos = start + 2
                return (punct, punct, start)
        m = _PNAME_RE.match(text, start)
        if m and ":" in m.group(0):
            self.pos = m.end()
            return ("pname", (m.group(1) or "", m.group(2) or ""), start)
        m = _WORD_RE.match(text, start)
        if m:
            self.pos = m.end()
            return ("word", m.group(0), start)
        if ch in "{}()[].;,=<>!+-*/^":
            self.pos = start + 1
            return (ch, ch, start)
        raise self.error(f"unexpected character {ch!r}")

    def _string(self, start: int):
        text = self.text
        quote = text[start]
        if text.startswith(quote * 3, start):
            end = text.find(quote * 3, start + 3)
            if end == -1:
                raise self.error("unterminated string", start)
            self.pos = end + 3
            return ("string", text[start + 3:end], start)
        end = start + 1
        while end < len(text) and text[end] != quote:
            if text[end] == "\\":
                end += 1
            end += 1
        if end >= len(text):
            raise self.error("unterminated string", start)
        raw = text[start + 1:end]
        self.pos = end + 1
        return ("string", re.sub(r'\\(["\'\\nt])',
                                 lambda m: {"n": "\n", "t": "\t"}.get(m.group(1), m.group(1)),
                                 raw), start)


# -- parser -------------------------------------------------------------------


class Parser:
    """Recursive-descent parser of the subset's queries and updates.

    Also the entry point for grammars that embed its group patterns, such
    as agent rule files: `prologue`, `keyword`, `group`, `iri_from` and
    `error` are public; `lex.peek()`/`lex.next()` give (kind, value,
    offset) tokens, and `lex.text`/`lex.pos` let such a grammar read a
    token of its own.
    """

    def __init__(self, text: str, base: str | None = None):
        self.lex = _Lexer(text)
        self.base = base
        self.prefixes: dict[str, str] = {}

    def error(self, message: str) -> ParseError:
        return self.lex.error(message)

    def expect(self, kind: str):
        tok = self.lex.next()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1]!r}")
        return tok

    def keyword(self) -> str | None:
        tok = self.lex.peek()
        if tok[0] == "word":
            return tok[1].lower()
        return None

    def check_subset(self, word: str) -> None:
        if word in OUT_OF_SUBSET:
            raise SubsetError(word.upper())

    def prologue(self) -> None:
        while True:
            kw = self.keyword()
            if kw == "prefix":
                self.lex.next()
                name = self.expect("pname")
                iri = self.expect("iri")
                self.prefixes[name[1][0]] = self._abs(iri[1])
            elif kw == "base":
                self.lex.next()
                iri = self.expect("iri")
                self.base = self._abs(iri[1])
            else:
                return

    def _abs(self, ref: str) -> str:
        if is_absolute(ref):
            return ref
        try:
            return resolve(ref, self.base)
        except ValueError as exc:
            raise self.error(str(exc)) from None

    def iri_from(self, tok) -> IRI:
        if tok[0] == "iri":
            return IRI(self._abs(tok[1]))
        if tok[0] == "pname":
            prefix, local = tok[1]
            if prefix not in self.prefixes:
                raise self.error(f"undeclared prefix {prefix!r}")
            return IRI(self.prefixes[prefix] + local)
        raise self.error(f"expected IRI, found {tok[1]!r}")

    # -- entry points -----------------------------------------------------

    def parse_query(self) -> Query:
        self.prologue()
        kw = self.keyword()
        if kw is None:
            raise self.error("expected ASK or SELECT")
        self.check_subset(kw)
        if kw == "ask":
            self.lex.next()
            froms = self.from_clauses()
            if self.keyword() == "where":
                self.lex.next()
            group = self.group()
            self._expect_eof()
            return Query("ask", froms, group, None)
        if kw == "select":
            self.lex.next()
            projection: list[str] | None = []
            if self.keyword() == "distinct":
                self.lex.next()
            tok = self.lex.peek()
            if tok[0] == "*":
                self.lex.next()
                projection = None
            else:
                while self.lex.peek()[0] == "var":
                    projection.append(self.lex.next()[1])
                if not projection:
                    raise self.error("empty SELECT projection")
            froms = self.from_clauses()
            if self.keyword() == "where":
                self.lex.next()
            group = self.group()
            if projection is not None:
                missing = set(projection) - group.variables()
                if missing:
                    raise self.error(f"projected variable ?{sorted(missing)[0]} not in pattern")
            self._expect_eof()
            return Query("select", froms, group,
                         tuple(projection) if projection is not None else None)
        raise self.error(f"expected ASK or SELECT, found {kw.upper()}")

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
            deletes = self.quad_templates()
            if self.keyword() == "insert":
                self.lex.next()
                inserts = self.quad_templates()
        elif kw == "insert":
            self.lex.next()
            if self.keyword() == "data":
                raise SubsetError("INSERT DATA")
            inserts = self.quad_templates()
        else:
            raise self.error(f"expected DELETE or INSERT, found {kw.upper()}")
        if self.keyword() != "where":
            raise self.error("expected WHERE")
        self.lex.next()
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
            raise self.error(f"trailing content {tok[1]!r}")

    def from_clauses(self) -> tuple[str, ...]:
        graphs = []
        while self.keyword() == "from":
            self.lex.next()
            if self.keyword() == "named":
                raise SubsetError("FROM NAMED")
            graphs.append(self.iri_from(self.lex.next()).value)
        return tuple(graphs)

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

    def triple_patterns(self) -> list[TriplePattern]:
        out = []
        s = self.pattern_term(position="subject")
        while True:
            p = self.verb_or_path()
            while True:
                o = self.pattern_term(position="object")
                out.append(TriplePattern(s, p, o))
                if self.lex.peek()[0] == ",":
                    self.lex.next()
                    continue
                break
            if self.lex.peek()[0] == ";":
                self.lex.next()
                if self.lex.peek()[0] in (".", "}", ";"):
                    return out
                continue
            return out

    def pattern_term(self, position: str):
        tok = self.lex.next()
        if tok[0] == "var":
            return Var(tok[1])
        if tok[0] in ("iri", "pname"):
            return self.iri_from(tok)
        if tok[0] == "word" and tok[1] in ("true", "false"):
            return Literal(tok[1], XSD_BOOLEAN)
        if position == "subject":
            if tok[0] == "[":
                raise SubsetError("blank node property list")
            raise self.error(f"expected subject, found {tok[1]!r}")
        if tok[0] == "string":
            nxt = self.lex.peek()
            if nxt[0] == "^^":
                self.lex.next()
                return Literal(tok[1], self.iri_from(self.lex.next()).value)
            return Literal(tok[1])
        if tok[0] == "number":
            return Literal(tok[1][0], tok[1][1])
        raise self.error(f"expected term, found {tok[1]!r}")

    def verb_or_path(self):
        tok = self.lex.peek()
        if tok[0] == "var":
            self.lex.next()
            return Var(tok[1])
        if tok[0] == "word" and tok[1] == "a":
            self.lex.next()
            return IRI(RDF_TYPE)
        path = self.path_sequence()
        if isinstance(path, PathLink):
            return IRI(path.iri)
        return path

    def path_sequence(self) -> Path:
        parts = [self.path_elt_or_inverse()]
        while self.lex.peek()[0] == "/":
            self.lex.next()
            parts.append(self.path_elt_or_inverse())
        if len(parts) == 1:
            return parts[0]
        return PathSeq(tuple(parts))

    def path_elt_or_inverse(self) -> Path:
        if self.lex.peek()[0] == "^":
            self.lex.next()
            return PathInv(self.path_elt())
        return self.path_elt()

    def path_elt(self) -> Path:
        tok = self.lex.next()
        if tok[0] == "(":
            inner = self.path_sequence()
            self.expect(")")
        elif tok[0] in ("iri", "pname"):
            inner = PathLink(self.iri_from(tok).value)
        elif tok[0] == "word" and tok[1] == "a":
            inner = PathLink(RDF_TYPE)
        else:
            raise self.error(f"expected path element, found {tok[1]!r}")
        nxt = self.lex.peek()
        if nxt[0] == "+":
            self.lex.next()
            return PathPlus(inner)
        if nxt[0] == "*":
            raise SubsetError("zero-or-more path (*)")
        return inner

    # -- update templates -----------------------------------------------------

    def quad_templates(self) -> tuple[QuadPattern, ...]:
        self.expect("{")
        out: list[QuadPattern] = []
        while True:
            tok = self.lex.peek()
            if tok[0] == "}":
                self.lex.next()
                return tuple(out)
            if tok[0] == ".":
                self.lex.next()
                continue
            if self.keyword() == "graph":
                self.lex.next()
                name_tok = self.lex.next()
                name = (Var(name_tok[1]) if name_tok[0] == "var"
                        else self.iri_from(name_tok))
                out.extend(self._template_triples(name))
            else:
                out.extend(self._template_triples(None))

    def _template_triples(self, graph) -> list[QuadPattern]:
        inside = graph is not None
        if inside:
            self.expect("{")
        out = []
        while True:
            tok = self.lex.peek()
            if inside and tok[0] == "}":
                self.lex.next()
                return out
            if not inside and tok[0] in ("}",):
                return out
            if tok[0] == ".":
                self.lex.next()
                if not inside:
                    return out
                continue
            for tp in self.triple_patterns():
                if not isinstance(tp.p, (IRI, Var)):
                    raise self.error("property paths not allowed in templates")
                out.append(QuadPattern(tp.s, tp.p, tp.o, graph))

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
        left = self._additive()
        tok = self.lex.peek()
        if tok[0] in ("=", "!=", "<", "<=", ">", ">="):
            self.lex.next()
            return EBin(tok[0], left, self._additive())
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while self.lex.peek()[0] in ("+", "-"):
            op = self.lex.next()[0]
            left = EBin(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while self.lex.peek()[0] in ("*", "/"):
            op = self.lex.next()[0]
            left = EBin(op, left, self._unary())
        return left

    def _unary(self) -> Expr:
        tok = self.lex.peek()
        if tok[0] == "!":
            self.lex.next()
            return ENot(self._unary())
        if tok[0] == "-":
            self.lex.next()
            return ENeg(self._unary())
        if tok[0] == "+":
            self.lex.next()
            return self._unary()
        return self._primary()

    def _primary(self) -> Expr:
        tok = self.lex.next()
        if tok[0] == "(":
            expr = self.expression()
            self.expect(")")
            return expr
        if tok[0] == "var":
            return EVar(tok[1])
        if tok[0] == "number":
            lex, dt = tok[1]
            return EConst(int(lex) if dt == XSD_INTEGER else float(lex))
        if tok[0] == "string":
            if self.lex.peek()[0] == "^^":
                self.lex.next()
                dt = self.iri_from(self.lex.next()).value
                return EConst(literal_value(Literal(tok[1], dt)))
            return EConst(tok[1])
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
        raise self.error(f"expected expression, found {tok[1]!r}")


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


def eval_query(d: Dataset, q: Query, ctx: EvalContext | None = None):
    """ASK -> bool; SELECT -> distinct list of bindings."""
    ctx = ctx or EvalContext()
    graphs = list(q.from_graphs) if q.from_graphs else None
    solutions = _eval_group(d, graphs, q.pattern, [{}], ctx)
    if q.form == "ask":
        return bool(solutions)
    names = q.projection if q.projection is not None else tuple(sorted(q.pattern.variables()))
    seen = {}
    for sol in solutions:
        projected = {n: sol[n] for n in names if n in sol}
        seen[binding_key(projected)] = projected
    return [seen[k] for k in sorted(seen)]


def eval_update(d: Dataset, u: Update, ctx: EvalContext | None = None) -> Dataset:
    """Apply one update; deletions precede insertions across all solutions."""
    ctx = ctx or EvalContext()
    solutions = _eval_group(d, None, u.where, [{}], ctx)
    removals: list[Quad] = []
    additions: list[Quad] = []
    for sol in solutions:
        removals.extend(_instantiate(u.delete_templates, sol))
        additions.extend(_instantiate(u.insert_templates, sol))
    if not removals and not additions:
        return d
    return d.apply(removals, additions)


def _instantiate(templates: tuple[QuadPattern, ...], sol: dict) -> Iterator[Quad]:
    for tpl in templates:
        terms = []
        ok = True
        for t in (tpl.s, tpl.p, tpl.o):
            if isinstance(t, Var):
                if t.name not in sol:
                    log.warning("skipping template quad: unbound ?%s", t.name)
                    ok = False
                    break
                terms.append(sol[t.name])
            else:
                terms.append(t)
        if not ok:
            continue
        g = tpl.graph
        if isinstance(g, Var):
            if g.name not in sol:
                log.warning("skipping template quad: unbound graph ?%s", g.name)
                continue
            g_term = sol[g.name]
            if not isinstance(g_term, IRI):
                log.warning("skipping template quad: graph bound to non-IRI")
                continue
        elif g is None:
            g_term = IRI(DEFAULT_GRAPH)
        else:
            g_term = g
        s, p, o = terms
        if isinstance(s, Literal) or not isinstance(p, IRI):
            log.warning("skipping template quad: malformed instantiation")
            continue
        yield Quad(s, p, o, g_term)


def _eval_group(d: Dataset, graphs: list[str] | None, group: Group,
                bindings: list[dict], ctx: EvalContext) -> list[dict]:
    if not bindings:
        return []
    # Every solution of a group binds the same variables, so the first
    # incoming one tells the planner what is bound.
    solutions = bindings
    for el in _plan(d, group, set(bindings[0])):
        if isinstance(el, Filter):
            solutions = [sol for sol in solutions if _filter_true(el.expr, sol, ctx)]
        elif isinstance(el, TriplePattern):
            solutions = _join_pattern(d, graphs, el, solutions)
        else:
            solutions = _join_graph_block(d, el, solutions, ctx)
        if not solutions:
            break
    return solutions


def _plan(d: Dataset, group: Group, bound: set[str]) -> Iterator:
    """The group's elements in join order, with each filter placed where
    its variables are all bound. Lazy, so an evaluation that runs out of
    solutions plans no further.

    Greedy and bound-first (Stocker et al., WWW 2008): the next element is
    the one with the fewest estimated matches per solution (`_cost`), ties
    going to the one written first, among those that share a variable
    with what is bound or match at most once (no growing cross products).
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
    while True:
        yield from (flt for flt, names in waiting if names <= bound)
        waiting = [(flt, names) for flt, names in waiting if not names <= bound]
        if not pending:
            break
        scored = [(_cost(d, el, bound), el, names) for el, names in pending]
        linked = [entry for entry in scored if entry[0] <= 1 or entry[2] & bound] or scored
        best, names = min(linked, key=lambda entry: entry[0])[1:]
        pending.remove((best, names))
        bound |= names
        yield best
    yield from (flt for flt, _names in waiting)
    yield from (flt for flt in filters if _has_call(flt.expr))


def _cost(d: Dataset, el, bound: set[str]) -> float:
    """Estimated matches of one element per solution, from index counts:
    exact for a constant subject or object, the average fan-out for a
    bound variable, every entry when neither end is bound. A path counts
    the entries of all its predicates, a variable predicate everything,
    and a GRAPH block its cheapest inner pattern."""
    if isinstance(el, GraphBlock):
        return min((_cost(d, inner, bound) for inner in el.group.elements
                    if not isinstance(inner, Filter)), default=math.inf)
    if isinstance(el.p, Var):
        return math.inf
    if not isinstance(el.p, IRI):
        return sum(len(d.pred_entries(p)) for p in _path_iris(el.p))
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
    if isinstance(expr, (ENot, ENeg)):
        return _expr_vars(expr.inner)
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
        return _eval_group(d, [block.graph.value], block.group, bindings, ctx)
    var = block.graph.name
    single = _single_pattern(block.group)
    for sol in bindings:
        if var in sol:
            # A bound graph name ranges over the named graphs, as an
            # unbound one does, whichever element bound it first.
            bound = sol[var]
            if isinstance(bound, IRI) and bound.value != DEFAULT_GRAPH \
                    and d.has_graph(bound.value):
                out.extend(_eval_group(d, [bound.value], block.group, [sol], ctx))
            continue
        if single is not None:
            # One plain pattern inside: bind the graph from the index instead
            # of trying every named graph.
            for es, eo, eg in d.pred_entries(single.p.value):
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
            out.extend(_eval_group(d, [name], block.group, [extended], ctx))
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
    """
    read: set[str] = set()

    def collect(group: Group) -> bool:
        for el in group.elements:
            if isinstance(el, TriplePattern):
                if isinstance(el.p, Var):
                    return False
                read.update(_path_iris(el.p))
            elif isinstance(el, GraphBlock):
                if isinstance(el.graph, Var) and _single_pattern(el.group) is None:
                    return False
                if not collect(el.group):
                    return False
            elif isinstance(el, Filter) and _has_call(el.expr):
                return False
        return True

    return frozenset(read) if collect(q.pattern) else None


def _path_iris(path) -> set[str]:
    if isinstance(path, IRI):
        return {path.value}
    if isinstance(path, PathLink):
        return {path.iri}
    if isinstance(path, (PathInv, PathPlus)):
        return _path_iris(path.inner)
    return set().union(*(_path_iris(part) for part in path.parts))


def _has_call(expr: Expr) -> bool:
    if isinstance(expr, ECall):
        return True
    if isinstance(expr, EBin):
        return _has_call(expr.left) or _has_call(expr.right)
    if isinstance(expr, (ENot, ENeg)):
        return _has_call(expr.inner)
    return False


def _in_view(targets: dict, graphs: list[str] | None):
    """The keys of a term -> graphs map of the index whose triple lies in
    one of the view's graphs (all keys when the view is every graph)."""
    if graphs is None:
        return targets
    return [t for t, held in targets.items() if any(g in graphs for g in held)]


def _join_pattern(d: Dataset, graphs: list[str] | None, tp: TriplePattern,
                  bindings: list[dict]) -> list[dict]:
    if isinstance(tp.p, (PathInv, PathSeq, PathPlus)):
        return _join_path(d, graphs, tp, bindings)
    out: list[dict] = []
    # The same triple can sit in several graphs (resource partitioning);
    # solutions do not bind the graph here, so match distinct rows once.
    # Joins look up the bound side where possible, and each predicate's
    # maps once per pattern.
    scan: frozenset | None = None
    navs: dict[IRI, tuple[dict, dict]] = {}
    for sol in bindings:
        p = _resolved(tp.p, sol)
        if isinstance(p, IRI):
            nav = navs.get(p)
            if nav is None:
                nav = navs[p] = d.pred_nav(p.value)
            fwd, bwd = nav
            s_val = _resolved(tp.s, sol)
            o_val = _resolved(tp.o, sol)
            if s_val is not None:
                for eo in _in_view(fwd.get(s_val, {}), graphs):
                    ext = _try_bind(sol, ((tp.o, eo),))
                    if ext is not None:
                        out.append(ext)
            elif o_val is not None:
                for es in _in_view(bwd.get(o_val, {}), graphs):
                    ext = _try_bind(sol, ((tp.s, es),))
                    if ext is not None:
                        out.append(ext)
            else:
                for es, objects in fwd.items():
                    for eo in _in_view(objects, graphs):
                        ext = _try_bind(sol, ((tp.s, es), (tp.o, eo)))
                        if ext is not None:
                            out.append(ext)
        else:
            if scan is None:
                scan = frozenset((es, ep, eo) for name, triples in d.graphs()
                                 if graphs is None or name in graphs
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


def _path_step(d: Dataset, graphs: list[str] | None, path: Path,
               node: Term, forward: bool) -> set:
    """Nodes one application of `path` away from `node`."""
    if isinstance(path, PathLink):
        fwd, bwd = d.pred_nav(path.iri)
        return set(_in_view((fwd if forward else bwd).get(node, {}), graphs))
    if isinstance(path, PathInv):
        return _path_step(d, graphs, path.inner, node, not forward)
    if isinstance(path, PathSeq):
        parts = path.parts if forward else tuple(reversed(path.parts))
        frontier = {node}
        for part in parts:
            nxt: set = set()
            for n in frontier:
                nxt |= _path_step(d, graphs, part, n, forward)
            frontier = nxt
            if not frontier:
                break
        return frontier
    if isinstance(path, PathPlus):
        reached: set = set()
        frontier = _path_step(d, graphs, path.inner, node, forward)
        while frontier:
            fresh = frontier - reached
            reached |= fresh
            frontier = set()
            for n in fresh:
                frontier |= _path_step(d, graphs, path.inner, n, forward)
        return reached
    raise TypeError(f"not a path: {path!r}")


def _path_starts(d: Dataset, graphs: list[str] | None, path: Path,
                 forward: bool) -> set:
    """Candidate nodes that may have an outgoing path instance."""
    if isinstance(path, PathLink):
        fwd, bwd = d.pred_nav(path.iri)
        return {n for n, targets in (fwd if forward else bwd).items()
                if _in_view(targets, graphs)}
    if isinstance(path, PathInv):
        return _path_starts(d, graphs, path.inner, not forward)
    if isinstance(path, PathSeq):
        part = path.parts[0] if forward else path.parts[-1]
        return _path_starts(d, graphs, part, forward)
    if isinstance(path, PathPlus):
        return _path_starts(d, graphs, path.inner, forward)
    raise TypeError(f"not a path: {path!r}")


def _join_path(d: Dataset, graphs: list[str] | None, tp: TriplePattern,
               bindings: list[dict]) -> list[dict]:
    out: list[dict] = []
    for sol in bindings:
        s = _resolved(tp.s, sol)
        o = _resolved(tp.o, sol)
        if s is not None:
            reached = _path_step(d, graphs, tp.p, s, forward=True)
            targets = reached if o is None else (reached & {o})
            for t in targets:
                ext = _try_bind(sol, ((tp.o, t),))
                if ext is not None:
                    out.append(ext)
        elif o is not None:
            reached = _path_step(d, graphs, tp.p, o, forward=False)
            for t in reached:
                ext = _try_bind(sol, ((tp.s, t),))
                if ext is not None:
                    out.append(ext)
        else:
            for start in _path_starts(d, graphs, tp.p, forward=True):
                for t in _path_step(d, graphs, tp.p, start, forward=True):
                    ext = _try_bind(sol, ((tp.s, start), (tp.o, t)))
                    if ext is not None:
                        out.append(ext)
    return out


def eval_path(d: Dataset, path: Path, start: Term) -> set:
    """All terms reachable from `start` over the union of all graphs."""
    return _path_step(d, None, path, start, forward=True)


# -- expression evaluation -------------------------------------------------------


class _TimeOfDay(int):
    """Seconds since midnight; a distinct type so xsd:time orders separately."""


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
    if dt == XSD_TIME:
        h, m, s = lit.lexical.split(":")
        return _TimeOfDay(int(h) * 3600 + int(m) * 60 + int(float(s)))
    if dt == XSD + "date":
        return date.fromisoformat(lit.lexical)
    return lit.lexical


def parse_datetime(lexical: str) -> datetime:
    return datetime.fromisoformat(lexical.replace("Z", "+00:00"))


def _term_value(t):
    if isinstance(t, Literal):
        return literal_value(t)
    return t  # IRIs and blanks compare by identity only


_NUMERIC = (int, float)


def _eval_expr(expr: Expr, sol: dict, ctx: EvalContext):
    if isinstance(expr, EConst):
        return expr.value
    if isinstance(expr, EVar):
        if expr.name not in sol:
            raise EvalError(f"unbound variable ?{expr.name}")
        return _term_value(sol[expr.name])
    if isinstance(expr, ENot):
        return not _as_bool(_eval_expr(expr.inner, sol, ctx))
    if isinstance(expr, ENeg):
        value = _eval_expr(expr.inner, sol, ctx)
        if not isinstance(value, _NUMERIC) or isinstance(value, bool):
            raise EvalError("negation of non-number")
        return -value
    if isinstance(expr, ECall):
        return _eval_call(expr, sol, ctx)
    if isinstance(expr, EBin):
        if expr.op == "&&":
            return (_as_bool(_eval_expr(expr.left, sol, ctx))
                    and _as_bool(_eval_expr(expr.right, sol, ctx)))
        if expr.op == "||":
            return (_as_bool(_eval_expr(expr.left, sol, ctx))
                    or _as_bool(_eval_expr(expr.right, sol, ctx)))
        left = _eval_expr(expr.left, sol, ctx)
        right = _eval_expr(expr.right, sol, ctx)
        if expr.op in ("=", "!="):
            equal = _compatible_eq(left, right)
            return equal if expr.op == "=" else not equal
        if expr.op in ("<", "<=", ">", ">="):
            _require_ordered(left, right)
            if expr.op == "<":
                return left < right
            if expr.op == "<=":
                return left <= right
            if expr.op == ">":
                return left > right
            return left >= right
        if expr.op in ("+", "-", "*", "/"):
            if (not isinstance(left, _NUMERIC) or not isinstance(right, _NUMERIC)
                    or isinstance(left, bool) or isinstance(right, bool)):
                raise EvalError(f"arithmetic on non-numbers: {expr.op}")
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if right == 0:
                raise EvalError("division by zero")
            return left / right
    raise EvalError(f"cannot evaluate {expr!r}")


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
    ok = ok or (isinstance(left, date) and isinstance(right, date)
                and not isinstance(left, datetime) and not isinstance(right, datetime))
    ok = ok or (isinstance(left, _TimeOfDay) and isinstance(right, _TimeOfDay))
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


def _filter_true(expr: Expr, sol: dict, ctx: EvalContext) -> bool:
    # Errors make the enclosing FILTER false.
    try:
        return _as_bool(_eval_expr(expr, sol, ctx))
    except EvalError:
        return False
