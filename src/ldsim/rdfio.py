"""Parsing and serialization for Turtle, TriG and N-Triples.

One hand-written tokenizer and recursive-descent parser covers the three
formats; N-Triples is handled as a restricted case of the block grammar.
Pipeline: text -> tokens -> quad sink -> Dataset. Blank node labels are
scoped to a single document.
"""

from __future__ import annotations

import re
from typing import Iterable

from .ns import (
    DEFAULT_GRAPH,
    PREFIXES,
    RDF_FIRST,
    RDF_LANG_STRING,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    is_absolute,
    resolve,
)
from .rdf import IRI, BlankNode, Dataset, Literal, Quad, Term

FORMATS = ("turtle", "trig", "n-triples")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d+(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
                        r"|\d+(?:[eE][+-]?\d+)?)")
_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_PN_LOCAL_RE = re.compile(r"(?:[0-9A-Za-z_\-%-￿]|\.(?=[0-9A-Za-z_\-%-￿.])"
                          r"|\\[_~.\-!$&'()*+,;=/?#@%])*")
_PN_PREFIX_RE = re.compile(r"(?:[A-Za-z0-9_\--￿]|\.(?=[A-Za-z0-9_\--￿]))*")
_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}


class _Tokenizer:
    """Emits (kind, value, line, col) tuples with one-token lookahead."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self._peeked: tuple | None = None

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def _advance(self, n: int) -> None:
        chunk = self.text[self.pos:self.pos + n]
        newlines = chunk.count("\n")
        if newlines:
            self.line += newlines
            self.col = n - chunk.rfind("\n")
        else:
            self.col += n
        self.pos += n

    def _skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
            elif ch == "#":
                end = self.text.find("\n", self.pos)
                self._advance((end if end != -1 else len(self.text)) - self.pos)
            else:
                return

    def peek(self) -> tuple:
        if self._peeked is None:
            self._peeked = self._next()
        return self._peeked

    def next(self) -> tuple:
        tok = self.peek()
        self._peeked = None
        return tok

    def _next(self) -> tuple:
        self._skip_ws()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return ("eof", "", line, col)
        text, pos = self.text, self.pos
        ch = text[pos]

        if ch == "<":
            end = pos + 1
            while end < len(text) and text[end] not in ">\n":
                end += 1
            if end >= len(text) or text[end] != ">":
                raise self.error("unterminated IRI")
            raw = text[pos + 1:end]
            self._advance(end + 1 - pos)
            return ("iri", _unescape_numeric(raw, self), line, col)

        if ch in "\"'":
            return self._string(line, col)

        if ch == "_" and text.startswith("_:", pos):
            m = _PN_LOCAL_RE.match(text, pos + 2)
            label = m.group(0)
            if not label:
                raise self.error("empty blank node label")
            self._advance(2 + len(label))
            return ("blank", label, line, col)

        if ch == "@":
            m = re.match(r"@([A-Za-z][A-Za-z0-9-]*)", text[pos:])
            if not m:
                raise self.error("bad @ token")
            word = m.group(1)
            self._advance(len(m.group(0)))
            if word.lower() in ("prefix", "base"):
                return ("atkw", word.lower(), line, col)
            return ("lang", word, line, col)

        if ch == "^" and text.startswith("^^", pos):
            self._advance(2)
            return ("dt", "^^", line, col)

        if ch in ".;,[](){}":
            # A dot may start a decimal number.
            if ch == "." and pos + 1 < len(text) and text[pos + 1].isdigit():
                pass
            else:
                self._advance(1)
                return (ch, ch, line, col)

        m = _NUMBER_RE.match(text, pos)
        if m and (ch.isdigit() or ch in "+-." ):
            lex = m.group(0)
            self._advance(len(lex))
            if "e" in lex or "E" in lex:
                return ("number", (lex, XSD_DOUBLE), line, col)
            if "." in lex:
                return ("number", (lex, XSD_DECIMAL), line, col)
            return ("number", (lex, XSD_INTEGER), line, col)

        # Prefixed name or bare word. The prefix part may be empty (":x").
        m = _PN_PREFIX_RE.match(text, pos)
        head = m.group(0) if m else ""
        after = pos + len(head)
        if after < len(text) and text[after] == ":":
            m2 = _PN_LOCAL_RE.match(text, after + 1)
            local = m2.group(0) if m2 else ""
            self._advance(after + 1 + len(local) - pos)
            return ("pname", (head, _unescape_local(local)), line, col)
        if head:
            self._advance(len(head))
            return ("word", head, line, col)
        raise self.error(f"unexpected character {ch!r}")

    def _string(self, line: int, col: int) -> tuple:
        text, pos = self.text, self.pos
        quote = text[pos]
        if text.startswith(quote * 3, pos):
            end = text.find(quote * 3, pos + 3)
            while end != -1 and _escaped(text, end):
                end = text.find(quote * 3, end + 1)
            if end == -1:
                raise self.error("unterminated long string")
            raw = text[pos + 3:end]
            self._advance(end + 3 - pos)
            return ("string", _unescape(raw, self), line, col)
        end = pos + 1
        while end < len(text):
            if text[end] == "\\":
                end += 2
                continue
            if text[end] == quote:
                break
            if text[end] == "\n":
                raise self.error("newline in string")
            end += 1
        if end >= len(text):
            raise self.error("unterminated string")
        raw = text[pos + 1:end]
        self._advance(end + 1 - pos)
        return ("string", _unescape(raw, self), line, col)


def _escaped(text: str, at: int) -> bool:
    backslashes = 0
    i = at - 1
    while i >= 0 and text[i] == "\\":
        backslashes += 1
        i -= 1
    return backslashes % 2 == 1


def _unescape_numeric(raw: str, tok: _Tokenizer) -> str:
    if "\\" not in raw:
        return raw
    return _unescape(raw, tok, numeric_only=True)


def _unescape(raw: str, tok: _Tokenizer, numeric_only: bool = False) -> str:
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise tok.error("dangling escape")
        e = raw[i + 1]
        if e == "u":
            out.append(chr(int(raw[i + 2:i + 6], 16)))
            i += 6
        elif e == "U":
            out.append(chr(int(raw[i + 2:i + 10], 16)))
            i += 10
        elif not numeric_only and e in _ESCAPES:
            out.append(_ESCAPES[e])
            i += 2
        else:
            raise tok.error(f"bad escape \\{e}")
    return "".join(out)


def _unescape_local(local: str) -> str:
    if "\\" not in local:
        return local
    return re.sub(r"\\(.)", r"\1", local)


class _Parser:
    def __init__(self, text: str, fmt: str, base: str | None, default_graph: str):
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        self.tok = _Tokenizer(text)
        self.base = base
        self.default_graph = IRI(default_graph)
        self.prefixes: dict[str, str] = {}
        self.quads: list[Quad] = []
        self.blank_count = 0
        self.line_based = fmt == "n-triples"
        self.allow_graphs = fmt == "trig"

    # -- helpers -----------------------------------------------------------

    def error(self, message: str, tok: tuple | None = None) -> ParseError:
        if tok:
            return ParseError(message, tok[2], tok[3])
        return self.tok.error(message)

    def expect(self, kind: str) -> tuple:
        tok = self.tok.next()
        if tok[0] != kind:
            raise self.error(f"expected {kind!r}, found {tok[1]!r}", tok)
        return tok

    def fresh_blank(self) -> BlankNode:
        self.blank_count += 1
        return BlankNode(f"g{self.blank_count}")

    def resolve_iri(self, ref: str, tok: tuple) -> IRI:
        try:
            return IRI(resolve(ref, self.base))
        except ValueError as exc:
            raise self.error(str(exc), tok) from None

    def expand_pname(self, prefix: str, local: str, tok: tuple) -> IRI:
        if prefix not in self.prefixes:
            raise self.error(f"undeclared prefix {prefix!r}:", tok)
        return IRI(self.prefixes[prefix] + local)

    # -- document ----------------------------------------------------------

    def parse(self) -> Dataset:
        if self.line_based:
            self._statements(self.default_graph)
        else:
            while True:
                tok = self.tok.peek()
                if tok[0] == "eof":
                    break
                if tok[0] == "atkw" or (tok[0] == "word" and tok[1].lower() in ("prefix", "base")):
                    self._directive()
                elif self.allow_graphs and self._graph_block():
                    continue
                else:
                    self._triples(self.default_graph)
                    self._statement_dot()
        return Dataset.from_quads(self.quads)

    def _statement_dot(self) -> None:
        tok = self.tok.next()
        if tok[0] != ".":
            raise self.error("expected '.'", tok)

    def _directive(self) -> None:
        tok = self.tok.next()
        sparql_style = tok[0] == "word"
        kind = tok[1].lower()
        if kind == "prefix":
            name = self.expect("pname")
            prefix, local = name[1]
            if local:
                raise self.error("prefix declaration with local part", name)
            iri = self.expect("iri")
            self.prefixes[prefix] = resolve(iri[1], self.base) if not is_absolute(iri[1]) else iri[1]
        elif kind == "base":
            iri = self.expect("iri")
            self.base = resolve(iri[1], self.base) if not is_absolute(iri[1]) else iri[1]
        else:
            raise self.error(f"unknown directive {kind!r}", tok)
        if not sparql_style:
            self._statement_dot()

    # -- TriG graph blocks ---------------------------------------------------

    def _graph_block(self) -> bool:
        tok = self.tok.peek()
        if tok[0] == "{":
            self.tok.next()
            self._block_body(self.default_graph)
            return True
        if tok[0] == "word" and tok[1].lower() == "graph":
            self.tok.next()
            name = self._graph_name()
            self.expect("{")
            self._block_body(name)
            return True
        if tok[0] in ("iri", "pname"):
            # Could be `name { ... }` or the subject of plain triples.
            save = self.tok.next()
            nxt = self.tok.peek()
            if nxt[0] == "{":
                self.tok.next()
                self._block_body(self._to_graph_name(save))
                return True
            self._triples(self.default_graph, presubject=save)
            self._statement_dot()
            return True
        return False

    def _graph_name(self) -> IRI:
        tok = self.tok.next()
        return self._to_graph_name(tok)

    def _to_graph_name(self, tok: tuple) -> IRI:
        if tok[0] == "iri":
            return self.resolve_iri(tok[1], tok)
        if tok[0] == "pname":
            return self.expand_pname(tok[1][0], tok[1][1], tok)
        raise self.error("graph name must be an IRI", tok)

    def _block_body(self, graph: IRI) -> None:
        while True:
            tok = self.tok.peek()
            if tok[0] == "}":
                self.tok.next()
                return
            if tok[0] == "eof":
                raise self.error("unterminated graph block", tok)
            self._triples(graph)
            nxt = self.tok.peek()
            if nxt[0] == ".":
                self.tok.next()
            elif nxt[0] != "}":
                raise self.error("expected '.' or '}'", nxt)

    # -- triples -------------------------------------------------------------

    def _statements(self, graph: IRI) -> None:
        while True:
            tok = self.tok.peek()
            if tok[0] == "eof":
                return
            s = self._term(position="subject")
            p = self._verb()
            o = self._term(position="object")
            self.quads.append(Quad(s, p, o, graph))
            self._statement_dot()

    def _triples(self, graph: IRI, presubject: tuple | None = None) -> None:
        if presubject is not None:
            subject = self._term_from(presubject, graph, position="subject")
            self._predicate_object_list(subject, graph)
            return
        if self.tok.peek()[0] == "[":
            self.tok.next()
            subject = self._blank_property_list(graph)
            if self.tok.peek()[0] in (".", "}"):
                return
            self._predicate_object_list(subject, graph)
            return
        subject = self._term(graph=graph, position="subject")
        self._predicate_object_list(subject, graph)

    def _predicate_object_list(self, subject: Term, graph: IRI) -> None:
        while True:
            p = self._verb()
            while True:
                o = self._term(graph=graph, position="object")
                self.quads.append(Quad(subject, p, o, graph))
                if self.tok.peek()[0] == ",":
                    self.tok.next()
                    continue
                break
            if self.tok.peek()[0] == ";":
                self.tok.next()
                # Allow trailing semicolons before '.' or '}'.
                if self.tok.peek()[0] in (".", "}", ";"):
                    while self.tok.peek()[0] == ";":
                        self.tok.next()
                    return
                continue
            return

    def _verb(self) -> IRI:
        tok = self.tok.next()
        if tok[0] == "word" and tok[1] == "a":
            return IRI(RDF_TYPE)
        if tok[0] == "iri":
            return self.resolve_iri(tok[1], tok)
        if tok[0] == "pname":
            return self.expand_pname(tok[1][0], tok[1][1], tok)
        raise self.error("expected predicate", tok)

    def _term(self, graph: IRI | None = None, position: str = "object") -> Term:
        return self._term_from(self.tok.next(), graph, position)

    def _term_from(self, tok: tuple, graph: IRI | None, position: str) -> Term:
        kind, value = tok[0], tok[1]
        if kind == "iri":
            return self.resolve_iri(value, tok)
        if kind == "pname":
            return self.expand_pname(value[0], value[1], tok)
        if kind == "blank":
            return BlankNode(value)
        if kind == "[":
            if self.line_based:
                raise self.error("blank node property lists not allowed here", tok)
            return self._blank_property_list(graph)
        if kind == "(":
            if self.line_based:
                raise self.error("collections not allowed here", tok)
            return self._collection(graph)
        if position == "subject":
            raise self.error("expected subject", tok)
        if kind == "string":
            nxt = self.tok.peek()
            if nxt[0] == "lang":
                self.tok.next()
                return Literal(value, RDF_LANG_STRING, nxt[1].lower())
            if nxt[0] == "dt":
                self.tok.next()
                dt = self.tok.next()
                if dt[0] == "iri":
                    return Literal(value, self.resolve_iri(dt[1], dt).value)
                if dt[0] == "pname":
                    return Literal(value, self.expand_pname(dt[1][0], dt[1][1], dt).value)
                raise self.error("expected datatype IRI", dt)
            return Literal(value)
        if kind == "number":
            lex, datatype = value
            return Literal(lex, datatype)
        if kind == "word" and value in ("true", "false"):
            return Literal(value, XSD_BOOLEAN)
        raise self.error("expected RDF term", tok)

    def _blank_property_list(self, graph: IRI | None) -> BlankNode:
        node = self.fresh_blank()
        if self.tok.peek()[0] == "]":
            self.tok.next()
            return node
        self._predicate_object_list(node, graph or self.default_graph)
        self.expect("]")
        return node

    def _collection(self, graph: IRI | None) -> Term:
        g = graph or self.default_graph
        items = []
        while self.tok.peek()[0] != ")":
            items.append(self._term(graph=graph, position="object"))
        self.tok.next()
        if not items:
            return IRI(RDF_NIL)
        head = self.fresh_blank()
        node = head
        for i, item in enumerate(items):
            self.quads.append(Quad(node, IRI(RDF_FIRST), item, g))
            if i + 1 < len(items):
                nxt = self.fresh_blank()
                self.quads.append(Quad(node, IRI(RDF_REST), nxt, g))
                node = nxt
            else:
                self.quads.append(Quad(node, IRI(RDF_REST), IRI(RDF_NIL), g))
        return head


def parse_document(text: str, fmt: str = "turtle", base: str | None = None,
                   default_graph: str = DEFAULT_GRAPH) -> Dataset:
    """Parse a document into a dataset.

    For the triple formats every quad carries `default_graph`; the quad
    formats place unlabeled statements there as well.
    """
    return _Parser(text, fmt, base, default_graph).parse()


# -- serialization ------------------------------------------------------------

_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_string(s: str) -> str:
    out = []
    for ch in s:
        if ch in _STRING_ESCAPES:
            out.append(_STRING_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(ch)
    return "".join(out)


def term_nt(t: Term) -> str:
    """N-Triples form of a term; also the canonical sort key everywhere."""
    if isinstance(t, IRI):
        return f"<{t.value}>"
    if isinstance(t, BlankNode):
        return f"_:{t.label}"
    if isinstance(t, Literal):
        body = f'"{_escape_string(t.lexical)}"'
        if t.lang:
            return f"{body}@{t.lang}"
        if t.datatype != XSD_STRING:
            return f"{body}^^<{t.datatype}>"
        return body
    raise TypeError(f"not a term: {t!r}")


_LOCAL_SAFE_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*\Z")


def _pname_or_iri(t: IRI, prefixes: dict[str, str]) -> str:
    if t.value == RDF_TYPE:
        return "a"
    for prefix, ns in prefixes.items():
        if t.value.startswith(ns):
            local = t.value[len(ns):]
            if _LOCAL_SAFE_RE.match(local):
                return f"{prefix}:{local}"
    return f"<{t.value}>"


def _turtle_term(t: Term, prefixes: dict[str, str]) -> str:
    if isinstance(t, IRI):
        return _pname_or_iri(t, prefixes)
    if isinstance(t, Literal) and t.datatype in (XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN):
        return t.lexical
    if isinstance(t, Literal) and t.datatype not in (XSD_STRING, RDF_LANG_STRING):
        dt = _pname_or_iri(IRI(t.datatype), prefixes)
        return f'"{_escape_string(t.lexical)}"^^{dt}'
    return term_nt(t)


def _used_prefixes(triples: Iterable, prefixes: dict[str, str]) -> dict[str, str]:
    shorthand = (XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN, RDF_LANG_STRING)
    used = {}
    values = set()
    for s, p, o in triples:
        for t in (s, p, o):
            if isinstance(t, IRI):
                values.add(t.value)
            elif isinstance(t, Literal) and t.datatype not in shorthand:
                values.add(t.datatype)
    for prefix, ns in prefixes.items():
        if any(v.startswith(ns) and v != RDF_TYPE for v in values):
            used[prefix] = ns
    return used


def _turtle_body(triples: list, used: dict[str, str]) -> list[str]:
    lines = []
    by_subject: dict[str, list] = {}
    for s, p, o in triples:
        by_subject.setdefault(term_nt(s), []).append((s, p, o))
    for _, group in sorted(by_subject.items()):
        s = group[0][0]
        by_pred: dict[str, list] = {}
        for _, p, o in group:
            by_pred.setdefault(term_nt(p), []).append((p, o))
        pred_parts = []
        for pkey in sorted(by_pred, key=lambda k: (k != f"<{RDF_TYPE}>", k)):
            objs = by_pred[pkey]
            p = objs[0][0]
            rendered = sorted(_turtle_term(o, used) for _, o in objs)
            pred_parts.append(f"{_pname_or_iri(p, used)} {', '.join(rendered)}")
        lines.append(f"{_turtle_term(s, used)} " + " ;\n    ".join(pred_parts) + " .")
    return lines


def serialize_triples(triples: Iterable, fmt: str = "turtle") -> str:
    """Serialize triples deterministically (sorted output)."""
    triples = list(triples)
    if fmt == "n-triples":
        return "".join(line + "\n" for line in sorted(
            f"{term_nt(s)} {term_nt(p)} {term_nt(o)} ." for s, p, o in triples))
    if fmt != "turtle":
        raise ValueError(f"unsupported serialization format {fmt!r}")
    used = _used_prefixes(triples, PREFIXES)
    lines = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(used.items())]
    if lines:
        lines.append("")
    lines.extend(_turtle_body(triples, used))
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_dataset(ds: Dataset) -> str:
    """TriG: default-graph triples bare, named graphs in blocks."""
    all_triples = [(s, p, o) for s, p, o, _ in ds.quads()]
    used = _used_prefixes(all_triples, PREFIXES)
    parts = []
    header = "\n".join(f"@prefix {p}: <{ns}> ." for p, ns in sorted(used.items()))
    if header:
        parts.append(header)
    default = ds.graph(DEFAULT_GRAPH)
    if default:
        parts.append("\n".join(_turtle_body(sorted(default, key=_triple_key), used)))
    for name in sorted(ds.graph_names()):
        if name == DEFAULT_GRAPH:
            continue
        body = _turtle_body(sorted(ds.graph(name), key=_triple_key), used)
        indented = "".join(f"    {line}\n" for line in "\n".join(body).splitlines())
        parts.append(f"<{name}> {{\n{indented}}}")
    return "\n\n".join(parts) + ("\n" if parts else "")


def _triple_key(t) -> tuple:
    return (term_nt(t[0]), term_nt(t[1]), term_nt(t[2]))

