"""RDF terms, quads and immutable datasets.

A dataset is stored as a mapping from graph name to a frozenset of triples,
which makes graph replacement and graph-confined deltas cheap: unchanged
graphs are shared between dataset versions and compared by identity first.

Each dataset has one predicate index, built on first use: a
`PredicateEntry` per predicate IRI, with subject -> objects and object ->
subjects maps and the graphs holding each triple. `replace_graphs` patches
a built index into the child dataset. The entry-identity contract, which
fault-check memoisation relies on: an entry is never mutated, and a child
holds the very same entry object as its parent for every predicate whose
(s, o, graph) entries the change left as they were, so two versions whose
entries for a predicate are the same object hold the same triples of it.
A predicate the change touched gets a new entry object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .ns import XSD_STRING


@dataclass(frozen=True, slots=True)
class IRI:
    value: str

    def __repr__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True)
class BlankNode:
    label: str

    def __repr__(self) -> str:
        return f"_:{self.label}"


@dataclass(frozen=True, slots=True)
class Literal:
    """A literal compared by lexical form plus datatype, not by value."""

    lexical: str
    datatype: str = XSD_STRING
    lang: str = ""

    def __repr__(self) -> str:
        if self.lang:
            return f'"{self.lexical}"@{self.lang}'
        if self.datatype != XSD_STRING:
            return f'"{self.lexical}"^^<{self.datatype}>'
        return f'"{self.lexical}"'


Term = IRI | BlankNode | Literal
Triple = tuple  # (subject, predicate, object)


class Quad(NamedTuple):
    s: Term
    p: IRI
    o: Term
    g: IRI


class PredicateEntry:
    """The triples of one predicate across all graphs, indexed both ways.

    `fwd` maps subject -> object -> graph names and `bwd` maps object ->
    subject -> graph names, so a triple held by several graphs (resource
    partitioning copies triples) is one key with several graphs. The graph
    names of a pair are one sorted tuple, shared by both maps. Iteration
    yields (s, o, graph) entries; `len` counts them and `in` tests one.

    An entry is never mutated once a dataset has published it: `patched`
    returns a new entry that shares every subject and object map the patch
    does not touch.
    """

    __slots__ = ("fwd", "bwd", "size")

    def __init__(self, fwd: dict, bwd: dict, size: int):
        self.fwd = fwd
        self.bwd = bwd
        self.size = size

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[tuple[Term, Term, str]]:
        for s, objects in self.fwd.items():
            for o, graphs in objects.items():
                for g in graphs:
                    yield s, o, g

    def __contains__(self, entry: tuple) -> bool:
        s, o, g = entry
        return g in self.fwd.get(s, {}).get(o, ())

    def patched(self, removed: list, added: list) -> "PredicateEntry":
        """A new entry without the `removed` and with the `added` (s, o, graph)
        entries; each removed entry must be present and each added one not."""
        held: dict[tuple, set] = {}
        for entries, keep in ((removed, False), (added, True)):
            for s, o, g in entries:
                graphs = held.get((s, o))
                if graphs is None:
                    graphs = held[s, o] = set(self.fwd.get(s, {}).get(o, ()))
                if keep:
                    graphs.add(g)
                else:
                    graphs.discard(g)
        fwd, bwd = dict(self.fwd), dict(self.bwd)
        copied_fwd: set = set()
        copied_bwd: set = set()
        for (s, o), graphs in held.items():
            graphs = tuple(sorted(graphs))
            _put(fwd, copied_fwd, s, o, graphs)
            _put(bwd, copied_bwd, o, s, graphs)
        return PredicateEntry(fwd, bwd, self.size - len(removed) + len(added))


def _put(side: dict, copied: set, key, other, graphs: tuple) -> None:
    """Set side[key][other] to `graphs`, or delete it when empty. The inner
    map of `key` is copied on its first change, so the parent's stays as
    it was."""
    if key in copied:
        inner = side.setdefault(key, {})
    else:
        copied.add(key)
        inner = side[key] = dict(side.get(key, ()))
    if graphs:
        inner[other] = graphs
    else:
        del inner[other]
        if not inner:
            del side[key]


_NO_ENTRIES = PredicateEntry({}, {}, 0)


class Dataset:
    """An immutable set of quads grouped by graph name."""

    __slots__ = ("_graphs", "_index")

    def __init__(self, graphs: dict[str, frozenset] | None = None):
        self._graphs: dict[str, frozenset] = graphs or {}
        self._index: dict[str, PredicateEntry] | None = None

    @classmethod
    def from_quads(cls, quads: Iterable[Quad]) -> "Dataset":
        by_graph: dict[str, set] = {}
        for s, p, o, g in quads:
            by_graph.setdefault(g.value, set()).add((s, p, o))
        return cls({g: frozenset(ts) for g, ts in by_graph.items()})

    # -- views ------------------------------------------------------------

    def graph_names(self) -> frozenset[str]:
        return frozenset(self._graphs)

    def graph(self, name: str) -> frozenset:
        return self._graphs.get(name, frozenset())

    def has_graph(self, name: str) -> bool:
        return name in self._graphs

    def graphs(self) -> Iterator[tuple[str, frozenset]]:
        return iter(self._graphs.items())

    def quads(self) -> Iterator[Quad]:
        for g, triples in self._graphs.items():
            gi = IRI(g)
            for s, p, o in triples:
                yield Quad(s, p, o, gi)

    def __len__(self) -> int:
        return sum(len(ts) for ts in self._graphs.values())

    def __contains__(self, quad: Quad) -> bool:
        return (quad.s, quad.p, quad.o) in self._graphs.get(quad.g.value, ())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Dataset) and self._graphs == other._graphs

    def __hash__(self):  # pragma: no cover - datasets are not hashed
        raise TypeError("Dataset is unhashable")

    def __repr__(self) -> str:
        return f"Dataset({len(self._graphs)} graphs, {len(self)} quads)"

    # -- predicate index ---------------------------------------------------

    def pred_entries(self, predicate: str) -> PredicateEntry:
        """The index entry of one predicate IRI: its (s, o, graph-name)
        entries. An absent predicate gives one shared empty entry."""
        if self._index is None:
            self._index = _built_index(self._graphs)
        return self._index.get(predicate, _NO_ENTRIES)

    def pred_nav(self, predicate: str) -> tuple[dict, dict]:
        """(subject -> objects, object -> subjects) maps over all graphs.
        Each object or subject is a key of the inner map, once however many
        graphs hold the triple."""
        entry = self.pred_entries(predicate)
        return entry.fwd, entry.bwd

    # -- derivation --------------------------------------------------------

    def replace_graphs(self, updates: dict[str, Iterable]) -> "Dataset":
        """New dataset with the given graphs replaced (empty set removes).

        A built index is patched into the child: a predicate whose entries
        the change did not touch keeps the very same entry object."""
        changed: list[tuple[str, frozenset, frozenset]] = []
        for name, triples in updates.items():
            before = self._graphs.get(name, frozenset())
            after = frozenset(triples)
            if after is not before and after != before:
                changed.append((name, before, after))
        if not changed:
            return self
        graphs = dict(self._graphs)
        for name, _before, after in changed:
            if after:
                graphs[name] = after
            else:
                graphs.pop(name, None)
        child = Dataset(graphs)
        if self._index is not None:
            child._index = _patched_index(self._index, _entries_by_predicate(changed))
        return child

    def apply(self, remove: Iterable[Quad], add: Iterable[Quad]) -> "Dataset":
        """Remove then add quads, returning a new dataset."""
        touched: dict[str, set] = {}

        def staging(g: str) -> set:
            if g not in touched:
                touched[g] = set(self._graphs.get(g, ()))
            return touched[g]

        for s, p, o, g in remove:
            staging(g.value).discard((s, p, o))
        for s, p, o, g in add:
            staging(g.value).add((s, p, o))
        return self.replace_graphs({g: ts for g, ts in touched.items()})


def _built_index(graphs: dict[str, frozenset]) -> dict[str, PredicateEntry]:
    """A predicate index built from scratch."""
    by_predicate: dict[str, dict] = {}
    for g, triples in graphs.items():
        for s, p, o in triples:
            objects = by_predicate.setdefault(p.value, {}).setdefault(s, {})
            objects[o] = objects.get(o, ()) + (g,)
    index = {}
    for p, fwd in by_predicate.items():
        bwd: dict = {}
        size = 0
        for s, objects in fwd.items():
            for o, names in objects.items():
                if len(names) > 1:
                    names = objects[o] = tuple(sorted(names))
                bwd.setdefault(o, {})[s] = names
                size += len(names)
        index[p] = PredicateEntry(fwd, bwd, size)
    return index


def _entries_by_predicate(changed) -> dict[str, tuple[list, list]]:
    """(removed, added) (s, o, graph) entries per predicate, from
    (graph, before, after) triple sets."""
    out: dict[str, tuple[list, list]] = {}
    for g, before, after in changed:
        for s, p, o in before - after:
            out.setdefault(p.value, ([], []))[0].append((s, o, g))
        for s, p, o in after - before:
            out.setdefault(p.value, ([], []))[1].append((s, o, g))
    return out


def _patched_index(index: dict[str, PredicateEntry],
                   changes: dict[str, tuple[list, list]]) -> dict[str, PredicateEntry]:
    out = dict(index)
    for p, (removed, added) in changes.items():
        entry = index.get(p, _NO_ENTRIES).patched(removed, added)
        if entry.size:
            out[p] = entry
        else:
            out.pop(p, None)
    return out


# -- blank node handling ----------------------------------------------------


def skolem_iri(base: str, doc_key: str, label: str) -> str:
    return f"{base}.well-known/genid/{doc_key}-{label}"


def skolemize(d: Dataset, base: str, doc_key: str) -> Dataset:
    """Replace blank nodes with stable IRIs derived from a document key.

    Server-held datasets need deterministic node identity across loads so
    that graph deltas and fault matching are well-defined.
    """

    def conv(t: Term) -> Term:
        if isinstance(t, BlankNode):
            return IRI(skolem_iri(base, doc_key, t.label))
        return t

    out: dict[str, frozenset] = {}
    for g, triples in d.graphs():
        out[g] = frozenset((conv(s), p, conv(o)) for s, p, o in triples)
    return Dataset(out)


def rebase_dataset(d: Dataset, old: str, new: str) -> Dataset:
    """Rewrite every IRI under one base prefix to another."""
    if old == new:
        return d

    def conv(t: Term) -> Term:
        if isinstance(t, IRI) and t.value.startswith(old):
            return IRI(new + t.value[len(old):])
        return t

    out: dict[str, frozenset] = {}
    for g, triples in d.graphs():
        name = new + g[len(old):] if g.startswith(old) else g
        out[name] = frozenset((conv(s), conv(p), conv(o)) for s, p, o in triples)
    return Dataset(out)
