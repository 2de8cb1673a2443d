"""Dataset and graph comparisons that only the tests need."""

from __future__ import annotations

from typing import Iterable

from ldsim.rdf import BlankNode, Dataset, Quad, Term, Triple


def from_quads(quads: Iterable[Quad]) -> Dataset:
    """A dataset holding the given quads."""
    by_graph: dict[str, set] = {}
    for s, p, o, g in quads:
        by_graph.setdefault(g.value, set()).add((s, p, o))
    return Dataset({g: frozenset(ts) for g, ts in by_graph.items()})


def symmetric_difference(d1: Dataset, d2: Dataset) -> Dataset:
    """Quads in exactly one of the two datasets."""
    out: dict[str, frozenset] = {}
    for name in d1.graph_names() | d2.graph_names():
        a = d1.graph(name)
        b = d2.graph(name)
        if a is b or a == b:
            continue
        diff = a ^ b
        if diff:
            out[name] = diff
    return Dataset(out)


def isomorphic(a: Iterable[Triple], b: Iterable[Triple]) -> bool:
    """Graph equality up to blank node relabeling.

    Backtracking over signature-partitioned blank nodes; intended for the
    small graphs exchanged over the wire, not for whole buildings.
    """
    ta, tb = set(a), set(b)
    ground_a = {t for t in ta if not _has_blank(t)}
    ground_b = {t for t in tb if not _has_blank(t)}
    if ground_a != ground_b or len(ta) != len(tb):
        return False
    ba, bb = _blanks(ta), _blanks(tb)
    if len(ba) != len(bb):
        return False
    return _match(sorted(ba), list(bb), {}, ta - ground_a, tb - ground_b)


def _has_blank(t: Triple) -> bool:
    return isinstance(t[0], BlankNode) or isinstance(t[2], BlankNode)


def _blanks(triples: set) -> set[str]:
    out = set()
    for s, _, o in triples:
        if isinstance(s, BlankNode):
            out.add(s.label)
        if isinstance(o, BlankNode):
            out.add(o.label)
    return out


def _apply_mapping(triples: set, mapping: dict[str, str]) -> set:
    def conv(t: Term) -> Term:
        if isinstance(t, BlankNode) and t.label in mapping:
            return BlankNode(mapping[t.label])
        return t

    return {(conv(s), p, conv(o)) for s, p, o in triples}


def _match(pending: list[str], candidates: list[str], mapping: dict[str, str],
           ta: set, tb: set) -> bool:
    if not pending:
        return _apply_mapping(ta, mapping) == tb
    label = pending[0]
    for cand in candidates:
        mapping[label] = cand
        rest = [c for c in candidates if c != cand]
        if _match(pending[1:], rest, mapping, ta, tb):
            return True
        del mapping[label]
    return False
