"""Parsing of Turtle and N-Triples, their serialization and that of TriG,
and the one tokenizer that the SPARQL subset shares with them.

`Lexer` turns a document, query, update or agent rule file into
(kind, value, offset) tokens. Its terminals are the productions Turtle
(RDF 1.1 Turtle §6.5) and SPARQL 1.1 (§19.8) have in common:

- `iri`: an IRIREF, whose characters exclude controls, the space and
  ``<>"{}|^`\\``; its UCHAR escapes (`\\uXXXX`, `\\UXXXXXXXX`) are decoded
  and may not spell an excluded character either. A `<` that opens no
  IRIREF is the operator `<` or `<=`.
- `pname` (prefix, local): a PN_PREFIX that starts with a letter (or none),
  a colon and a PN_LOCAL that does not end in a dot, its `\\` escapes
  removed.
- `string`: quoted with `"` or `'`, or tripled for a long string, with the
  ECHAR (`\\t \\b \\n \\r \\f \\" \\' \\\\`) and UCHAR escapes decoded. A
  short string holds no raw line break; any other escape is an error.
- `number` (lexical, datatype): a signed integer, decimal or double.
- `blank` (`_:label`), `var` (`?x` or `$x`), `lang` (a LANGTAG, which
  covers `@prefix` and `@base`) and `word` (keywords, `a`, booleans).
- The operators `&& || != <= >= = < > ! + - * / ^ ^^` and the punctuation
  `. ; , [ ] ( ) { }`, each a kind of its own.

Whitespace and `#` comments are skipped. `Reader` reads what the grammars
share above the tokens: PREFIX/BASE and @prefix/@base directives, IRIREF
resolution against the base, prefixed-name expansion, literals, and the
predicate-object list (Turtle 1.1 rule [7], SPARQL 1.1 rules [77] and
[83]), each grammar reading its own verbs and terms in it; every failure
is a `ParseError` at its token. Turtle takes every kind but `var`, the
operators and `{ }`, and N-Triples is read as Turtle without directives,
`;`, `,`, `[` and `(`; a token a grammar has no use for is an error.
Pipeline: text -> tokens -> a set of triples. Blank node labels are
scoped to a single document.

TriG is written, not read: `serialize_dataset` gives the dataset file that
`ldsim build` writes, and a served building is built from the seed or a
Turtle file instead of being loaded from it.
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
    resolve,
)
from .rdf import IRI, BlankNode, Dataset, Literal, Term

FORMATS = ("turtle", "n-triples")


class ParseError(ValueError):
    """A syntax error at an offset of a text, reported by line and column."""

    def __init__(self, message: str, text: str, offset: int):
        self.line = text.count("\n", 0, offset) + 1
        self.col = offset - text.rfind("\n", 0, offset)
        super().__init__(f"{message} (line {self.line}, column {self.col})")


# -- tokens -------------------------------------------------------------------

# PN_CHARS_BASE, PN_CHARS_U and PN_CHARS as character-class bodies.
_BASE = ("A-Za-z\u00c0-\u00d6\u00d8-\u00f6\u00f8-\u02ff\u0370-\u037d\u037f-\u1fff"
         "\u200c\u200d\u2070-\u218f\u2c00-\u2fef\u3001-\ud7ff\uf900-\ufdcf\ufdf0-\ufffd"
         "\U00010000-\U000effff")
_U = _BASE + "_"
_CHARS = _U + "\\-0-9\u00b7\u0300-\u036f\u203f\u2040"
_PLX = r"%[0-9A-Fa-f]{2}|\\[_~.\-!$&'()*+,;=/?#@%]"
_UCHAR = r"\\(?:u[0-9A-Fa-f]{4}|U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4})"
_ESC = r"\\[tbnrf\"'\\]|" + _UCHAR
_EXCLUDED = r'<>"{}|^`\\\x00-\x20'  # what an IRIREF may not hold
# Whitespace and comments are skipped by a match of their own, which cannot
# fail; run as a prefix of _TOKEN_RE it would be backtracked into when no
# token follows, exponentially in the length of a run of blanks.
_SKIP_RE = re.compile(r"(?:[ \t\r\n]|#[^\r\n]*)*")
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("iri", f"<(?:[^{_EXCLUDED}]|{_UCHAR})*>"),
    ("pname", f"(?:[{_BASE}](?:[{_CHARS}.]*[{_CHARS}])?)?:"
              f"(?:(?:[{_U}:0-9]|{_PLX})(?:(?:[{_CHARS}.:]|{_PLX})*(?:[{_CHARS}:]|{_PLX}))?)?"),
    ("blank", f"_:[{_U}0-9](?:[{_CHARS}.]*[{_CHARS}])?"),
    ("var", f"[?$][{_U}0-9][{_U}0-9\u00b7\u0300-\u036f\u203f\u2040]*"),
    ("number", r"[+-]?(?:[0-9]+\.[0-9]*[eE][+-]?[0-9]+|\.?[0-9]+[eE][+-]?[0-9]+"
               r"|[0-9]*\.[0-9]+|[0-9]+)"),
    ("long", (r'"""(?:(?:"|"")?(?:[^"\\]|ESC))*"""|'
              r"'''(?:(?:'|'')?(?:[^'\\]|ESC))*'''").replace("ESC", _ESC)),
    ("string", (r'"(?:[^"\\\n\r]|ESC)*"|'
                r"'(?:[^'\\\n\r]|ESC)*'").replace("ESC", _ESC)),
    ("lang", "@[A-Za-z]+(?:-[A-Za-z0-9]+)*"),
    ("word", "[A-Za-z][A-Za-z0-9_]*"),
    ("op", r"\^\^|&&|\|\||[!<>]=|[.;,\[\](){}=<>!+\-*/^]"),
    ("eof", r"\Z"))))
_LEAD = {"blank": 2, "var": 1, "lang": 1, "word": 0, "eof": 0}
_MALFORMED = {'"': "string", "'": "string", "_": "blank node label", "@": "language tag",
              "?": "variable", "$": "variable"}
_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
            '"': '"', "'": "'", "\\": "\\"}
_EXCLUDED_RE = re.compile(f"[{_EXCLUDED}]")
_ESCAPE_RE = re.compile(r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.)")
_LIST_END = frozenset((".", "]", "}"))


def _unescape(raw: str) -> str:
    """Decodes the ECHAR and UCHAR escapes the token pattern admitted."""
    if "\\" not in raw:
        return raw
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m[0][1]) or chr(int(m[0][2:], 16)), raw)


class Lexer:
    """The tokens of one text as (kind, value, offset) tuples, with
    one-token lookahead. `pos` is where the next scan starts; a grammar
    may move it to read a token of its own after `next()`."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self._peeked: tuple | None = None

    def peek(self) -> tuple:
        if self._peeked is None:
            self._peeked = self._scan()
        return self._peeked

    def next(self) -> tuple:
        tok = self.peek()
        self._peeked = None
        return tok

    def _scan(self) -> tuple:
        text = self.text
        start = _SKIP_RE.match(text, self.pos).end()
        m = _TOKEN_RE.match(text, start)
        if m is None:
            ch = text[start]
            what = f"malformed {_MALFORMED[ch]}" if ch in _MALFORMED else \
                f"unexpected character {ch!r}"
            raise ParseError(what, text, start)
        kind = m.lastgroup
        self.pos = end = m.end()
        if kind == "op":
            return (m[kind], m[kind], start)
        if kind == "pname":
            prefix, _, local = m[kind].partition(":")
            if "\\" in local:
                local = re.sub(r"\\(.)", r"\1", local)
            return ("pname", (prefix, local), start)
        if kind == "iri":
            iri = text[start + 1:end - 1]
            if "\\" in iri:
                # Escaped, an excluded character would be served unreadably.
                iri = _unescape(iri)
                if _EXCLUDED_RE.search(iri):
                    raise ParseError("IRI escape of an excluded character", text, start)
            return ("iri", iri, start)
        if kind == "string":
            return ("string", _unescape(text[start + 1:end - 1]), start)
        if kind == "long":
            return ("string", _unescape(text[start + 3:end - 3]), start)
        if kind == "number":
            lexical = m[kind]
            return ("number", (lexical, XSD_DOUBLE if "e" in lexical or "E" in lexical
                               else XSD_DECIMAL if "." in lexical else XSD_INTEGER), start)
        return (kind, text[start + _LEAD[kind]:end], start)


class Reader:
    """Token reading for Turtle, N-Triples and the SPARQL subset:
    errors placed at a token, the directives and IRIs both grammars share,
    literals, and the predicate-object list of Turtle 1.1 rule [7] and
    SPARQL 1.1 rules [77] and [83] (`predicate_objects`)."""

    def __init__(self, text: str, base: str | None = None):
        self.lex = Lexer(text)
        self.base = base
        self.prefixes: dict[str, str] = {}

    def error(self, message: str, tok: tuple | None = None) -> ParseError:
        """A ParseError at `tok`, or where the lexer stands."""
        return ParseError(message, self.lex.text, self.lex.pos if tok is None else tok[2])

    def unexpected(self, wanted: str, tok: tuple) -> ParseError:
        """'expected <wanted>, found <the token's source text>' at `tok`."""
        found = _TOKEN_RE.match(self.lex.text, tok[2])[0] or "end of input"
        return self.error(f"expected {wanted}, found {found!r}", tok)

    def expect(self, kind: str) -> tuple:
        tok = self.lex.next()
        if tok[0] != kind:
            raise self.unexpected(repr(kind), tok)
        return tok

    def directive(self) -> None:
        """A PREFIX or BASE directive, or @prefix or @base and its dot,
        whose keyword is the next token."""
        tok = self.lex.next()
        if tok[1].lower() == "prefix":
            name = self.expect("pname")
            if name[1][1]:
                raise self.error("prefix declaration with local part", name)
            self.prefixes[name[1][0]] = self.iri_from(self.expect("iri")).value
        else:
            self.base = self.iri_from(self.expect("iri")).value
        if tok[0] == "lang":
            self.expect(".")

    def iri_from(self, tok: tuple) -> IRI:
        """An `iri` token resolved against the base, or a `pname` expanded."""
        if tok[0] == "iri":
            try:
                return IRI(resolve(tok[1], self.base))
            except ValueError as exc:
                raise self.error(str(exc), tok) from None
        if tok[0] == "pname":
            prefix, local = tok[1]
            if prefix not in self.prefixes:
                raise self.error(f"undeclared prefix {prefix!r}", tok)
            return IRI(self.prefixes[prefix] + local)
        raise self.unexpected("IRI", tok)

    def constant(self, tok: tuple) -> IRI | Literal | None:
        """The IRI or literal `tok` opens, reading a literal's language tag
        or datatype too; None for a token that opens neither."""
        kind, value = tok[0], tok[1]
        if kind == "iri" or kind == "pname":
            return self.iri_from(tok)
        if kind == "string":
            nxt = self.lex.peek()
            if nxt[0] == "lang":
                self.lex.next()
                return Literal(value, RDF_LANG_STRING, nxt[1].lower())
            if nxt[0] == "^^":
                self.lex.next()
                return Literal(value, self.iri_from(self.lex.next()).value)
            return Literal(value)
        if kind == "number":
            return Literal(*value)
        if kind == "word" and value in ("true", "false"):
            return Literal(value, XSD_BOOLEAN)
        return None

    def predicate_objects(self, subject, verb, term) -> list[tuple]:
        """`verb objects (';' (verb objects)?)*` of `subject`, where
        `objects` is `term (',' term)*`: its (subject, verb, object)
        triples in order. `verb()` and `term()` read one verb and one
        object. A run of ';' ends the list before a token that opens no
        verb: '.', ']', '}' or a keyword other than `a`, such as FILTER."""
        lex = self.lex
        out = []
        while True:
            p = verb()
            out.append((subject, p, term()))
            while lex.peek()[0] == ",":
                lex.next()
                out.append((subject, p, term()))
            if lex.peek()[0] != ";":
                return out
            while lex.peek()[0] == ";":
                lex.next()
            kind, value, _offset = lex.peek()
            if kind in _LIST_END or (kind == "word" and value != "a"):
                return out


# -- Turtle and N-Triples -----------------------------------------------------


class _Parser(Reader):
    def __init__(self, text: str, fmt: str, base: str | None):
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        super().__init__(text, base)
        self.triples: list[tuple] = []
        self.blank_count = 0
        self.line_based = fmt == "n-triples"

    def fresh_blank(self) -> BlankNode:
        self.blank_count += 1
        return BlankNode(f"g{self.blank_count}")

    def parse(self) -> list[tuple]:
        while (tok := self.lex.peek())[0] != "eof":
            if self.line_based:
                s, p = self._term("subject"), self._verb()
                self.triples.append((s, p, self._term()))
            elif tok[0] in ("word", "lang") and tok[1].lower() in ("prefix", "base"):
                self.directive()
                continue
            else:
                self._triples()
            self.expect(".")
        return self.triples

    # -- triples -------------------------------------------------------------

    def _triples(self) -> None:
        if self.lex.peek()[0] == "[":
            self.lex.next()
            subject = self._blank_property_list()
            if self.lex.peek()[0] == ".":
                return
        else:
            subject = self._term("subject")
        self.triples += self.predicate_objects(subject, self._verb, self._term)

    def _verb(self) -> IRI:
        tok = self.lex.next()
        if tok[0] == "word" and tok[1] == "a":
            return IRI(RDF_TYPE)
        return self.iri_from(tok)

    def _term(self, position: str = "object") -> Term:
        tok = self.lex.next()
        kind = tok[0]
        if kind == "blank":
            return BlankNode(tok[1])
        if kind == "[" and not self.line_based:
            return self._blank_property_list()
        if kind == "(" and not self.line_based:
            return self._collection()
        term = self.constant(tok)
        if term is None or (position == "subject" and isinstance(term, Literal)):
            raise self.unexpected(position, tok)
        return term

    def _blank_property_list(self) -> BlankNode:
        node = self.fresh_blank()
        if self.lex.peek()[0] != "]":
            self.triples += self.predicate_objects(node, self._verb, self._term)
        self.expect("]")
        return node

    def _collection(self) -> Term:
        items = []
        while self.lex.peek()[0] != ")":
            items.append(self._term())
        self.lex.next()
        if not items:
            return IRI(RDF_NIL)
        head = self.fresh_blank()
        node = head
        for i, item in enumerate(items):
            self.triples.append((node, IRI(RDF_FIRST), item))
            if i + 1 < len(items):
                nxt = self.fresh_blank()
                self.triples.append((node, IRI(RDF_REST), nxt))
                node = nxt
            else:
                self.triples.append((node, IRI(RDF_REST), IRI(RDF_NIL)))
        return head


def parse_document(text: str, fmt: str = "turtle", base: str | None = None) -> frozenset:
    """The triples of a Turtle or N-Triples document."""
    return frozenset(_Parser(text, fmt, base).parse())


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

