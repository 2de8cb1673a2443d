"""Baseline condition-action agents.

Two variants: a link-traversal agent seeded with the building root, and a
prefetch agent primed with the static building model. Both poll dynamic
resources, optionally close their knowledge base under simple RDFS/part-of
rules, and PUT a rule's payload for every solution of its condition.
"""

from __future__ import annotations

import logging
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .httpclient import LdClient
from .ns import BF, DEFAULT_GRAPH, RDF_TYPE, RDF_VALUE, RDFS_SUBCLASS, SIM_PATH, SIM_VOCAB, \
    SOSA, SSN, defrag
from .rdf import IRI, Dataset, Literal
from .sparql import Group, Parser, Query, TriplePattern, Var, eval_query

log = logging.getLogger(__name__)

INFERRED_GRAPH = "urn:ldsim:inferred"
HAS_PART = BF + "hasPart"
IS_PART_OF = BF + "isPartOf"
# The predicates `reason` reads, and the only ones its inferences carry.
REASONED_PREDICATES = (RDFS_SUBCLASS, RDF_TYPE, HAS_PART, IS_PART_OF)

_RULE_NAME_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*")

DEFAULT_FOLLOW = (
    BF + "hasPart", BF + "hasPoint", BF + "feeds", BF + "isLocatedIn",
    SSN + "forProperty", SOSA + "observes", SOSA + "actsOnProperty",
)


# -- rule files -----------------------------------------------------------------


@dataclass(frozen=True)
class RuleAction:
    """PUT `payload`, instantiated per solution, to the graph of `target`."""

    target: Var | IRI
    payload: tuple[TriplePattern, ...]


@dataclass(frozen=True)
class Rule:
    name: str
    condition: Group
    action: RuleAction
    once: bool = False
    group: str | None = None

    @property
    def fire_key(self) -> str:
        return self.group or self.name

    def solutions(self, view: Dataset) -> list[dict]:
        """The distinct solutions of the WHEN pattern over a knowledge base."""
        return eval_query(view, Query("select", (), self.condition, None))


def parse_rules(text: str, base: str | None = None) -> list[Rule]:
    """RULE <name> [ONCE] [GROUP <g>] WHEN { pattern } THEN PUT ?v { payload }

    The target may also be an IRI; the payload holds at least one triple."""
    parser = Parser(text, base)
    parser.prologue()
    rules: list[Rule] = []
    while True:
        kw = parser.keyword()
        if kw is None:
            tok = parser.lex.peek()
            if tok[0] == "eof":
                return rules
            raise parser.error(f"expected RULE, found {tok[1]!r}")
        if kw != "rule":
            raise parser.error(f"expected RULE, found {kw.upper()}")
        parser.lex.next()
        name = _rule_name(parser)
        once = False
        group = None
        while parser.keyword() in ("once", "group"):
            word = parser.lex.next()[1].lower()
            if word == "once":
                once = True
            else:
                group = _rule_name(parser)
        if parser.keyword() != "when":
            raise parser.error("expected WHEN")
        parser.lex.next()
        condition = parser.group()
        if parser.keyword() != "then":
            raise parser.error("expected THEN")
        parser.lex.next()
        if parser.keyword() != "put":
            raise parser.error("expected PUT")
        parser.lex.next()
        tok = parser.lex.next()
        target = Var(tok[1]) if tok[0] == "var" else parser.iri_from(tok)
        payload = tuple(parser.group().elements)
        if not payload:
            raise parser.error("empty payload: a PUT replaces a graph")
        if not all(isinstance(tp, TriplePattern) for tp in payload):
            raise parser.error("payload templates allow plain triples only")
        condition_vars = condition.variables()
        for term in _action_vars(target, payload):
            if term not in condition_vars:
                raise parser.error(f"action variable ?{term} not bound by WHEN")
        rules.append(Rule(name=name, condition=condition,
                          action=RuleAction(target, payload),
                          once=once, group=group))


def _rule_name(parser: Parser) -> str:
    # Names may hold hyphens and digits, which the query lexer splits into
    # several tokens (a number token even carries its datatype), so the
    # name is matched on the source text from the next token on.
    lex = parser.lex
    start = lex.next()[2]
    m = _RULE_NAME_RE.match(lex.text, start)
    if not m:
        raise parser.error("expected a rule name")
    lex.pos = m.end()
    return m.group(0)


def _action_vars(target, payload) -> set[str]:
    out = set()
    if isinstance(target, Var):
        out.add(target.name)
    for tp in payload:
        for term in (tp.s, tp.p, tp.o):
            if isinstance(term, Var):
                out.add(term.name)
    return out


# -- knowledge base and reasoning -------------------------------------------------


class KnowledgeBase:
    """Union of retrieved graphs, one per source IRI."""

    def __init__(self):
        self.dataset = Dataset()
        # The last reasoned view with the dataset it extends, and the last
        # inferred graph with the REASONED_PREDICATES entries it came from.
        self._view: tuple[Dataset, Dataset] | None = None
        self._inferred: tuple[tuple, frozenset] | None = None

    def ingest(self, source: str, triples) -> None:
        self.dataset = self.dataset.replace_graphs({source: frozenset(triples)})

    def with_inferences(self, enabled: bool) -> Dataset:
        """The knowledge base, closed by `reason` when `enabled`.

        Datasets are immutable, so an unchanged dataset gets the same view.
        Inferences read and carry only the REASONED_PREDICATES, and index
        entries are shared across versions while their triples stay the
        same (see `rdf`), so the same entry objects give the same inferred
        graph without reasoning again."""
        if not enabled:
            return self.dataset
        kb = self.dataset
        if self._view is not None and self._view[0] is kb:
            return self._view[1]
        entries = tuple(kb.pred_entries(p) for p in REASONED_PREDICATES)
        if self._inferred is None or any(
                a is not b for a, b in zip(self._inferred[0], entries)):
            self._inferred = (entries, reason(kb).graph(INFERRED_GRAPH))
        view = kb.replace_graphs({INFERRED_GRAPH: self._inferred[1]})
        self._view = (kb, view)
        return view


def reason(kb: Dataset) -> Dataset:
    """Forward-chaining closure: subclass transitivity plus type propagation,
    and part-of transitivity with hasPart/isPartOf inversion."""
    inferred: set = set()
    entries = {p: kb.pred_entries(p) for p in REASONED_PREDICATES}

    subclass = {(s, o) for s, o, _ in entries[RDFS_SUBCLASS]
                if isinstance(s, IRI) and isinstance(o, IRI)}
    closed = _transitive(subclass)
    inferred |= {(s, IRI(RDFS_SUBCLASS), o) for s, o in closed - subclass}

    supers: dict = {}
    for sub, sup in closed:
        supers.setdefault(sub, set()).add(sup)
    for s, cls, _ in entries[RDF_TYPE]:
        for sup in supers.get(cls, ()):
            inferred.add((s, IRI(RDF_TYPE), sup))

    parts = {(s, o) for s, o, _ in entries[HAS_PART]}
    parts |= {(o, s) for s, o, _ in entries[IS_PART_OF]}
    closed_parts = _transitive(parts)
    for whole, part in closed_parts:
        inferred.add((whole, IRI(HAS_PART), part))
        inferred.add((part, IRI(IS_PART_OF), whole))

    # An inferred triple is stated in some graph iff its predicate's entry holds it.
    new = frozenset((s, p, o) for s, p, o in inferred
                    if o not in entries[p.value].fwd.get(s, ()))
    if not new:
        return kb
    return kb.replace_graphs({INFERRED_GRAPH: new})


def _transitive(pairs: set) -> set:
    closed = set(pairs)
    adjacency: dict = {}
    for a, b in pairs:
        adjacency.setdefault(a, set()).add(b)
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for c in adjacency.get(b, ()):
                if (a, c) not in closed:
                    closed.add((a, c))
                    changed = True
    return closed


# -- traversal ---------------------------------------------------------------------


def traverse(client: LdClient, seed_iri: str, follow_predicates=DEFAULT_FOLLOW,
             kb: KnowledgeBase | None = None, fanout: int = 8) -> tuple[KnowledgeBase, int, set[str]]:
    """BFS over dereferenceable IRIs in object position of the follow set.

    Returns the knowledge base, the number of GET requests issued, and the
    set of graphs holding live values (polled again on later epochs).
    """
    kb = kb or KnowledgeBase()
    follow = set(follow_predicates)
    base = client.base
    seen = {defrag(seed_iri)}
    frontier = [defrag(seed_iri)]
    reads = 0
    dynamic: set[str] = set()
    with ThreadPoolExecutor(max_workers=fanout) as pool:
        while frontier:
            results = list(pool.map(lambda iri: (iri, *_fetch(client, iri)), frontier))
            next_frontier: list[str] = []
            for iri, status, triples in results:
                reads += 1
                if status != 200:
                    log.info("traversal: skipping %s (%s)", iri, status)
                    continue
                kb.ingest(iri, triples)
                if any(p.value == RDF_VALUE for _, p, _ in triples):
                    dynamic.add(iri)
                for _s, p, o in triples:
                    if p.value in follow and isinstance(o, IRI) \
                            and o.value.startswith(base):
                        candidate = defrag(o.value)
                        if candidate not in seen:
                            seen.add(candidate)
                            next_frontier.append(candidate)
            frontier = next_frontier
    return kb, reads, dynamic


def _fetch(client: LdClient, iri: str) -> tuple[int, frozenset]:
    try:
        return client.get_graph(iri)
    except OSError as exc:  # retried once inside the client already
        log.info("fetch %s failed: %s", iri, exc)
        return 0, frozenset()


# -- the condition-action loop -------------------------------------------------------


@dataclass
class AgentConfig:
    mode: str  # "traversal" | "prefetch"
    rules: list[Rule]
    seed_iri: str = ""
    reasoning: bool = False
    follow_predicates: tuple[str, ...] = DEFAULT_FOLLOW
    poll_interval: float = 0.0  # seconds between loops; 0 = as fast as possible
    fanout: int = 8


@dataclass
class AgentStats:
    reads: int = 0
    writes: int = 0
    loops: int = 0
    errors: int = 0


class RuleAgent:
    """One perception-action loop: poll, reason, match conditions, act."""

    def __init__(self, client: LdClient, config: AgentConfig,
                 prefetch_dataset: Dataset | None = None):
        self.client = client
        self.config = config
        self.kb = KnowledgeBase()
        self.stats = AgentStats()
        self.dynamic: set[str] = set()
        self._fired: set[tuple[str, str]] = set()
        if config.mode == "prefetch":
            if prefetch_dataset is None:
                raise ValueError("prefetch mode needs the building dataset")
            self._prime(prefetch_dataset)
        elif config.mode != "traversal":
            raise ValueError(f"unknown agent mode {config.mode!r}")

    def _prime(self, dataset: Dataset) -> None:
        for name, triples in dataset.graphs():
            if name == DEFAULT_GRAPH:
                continue
            self.kb.ingest(name, triples)
            if any(p.value == RDF_VALUE for _, p, _ in triples):
                self.dynamic.add(name)

    def _sim_graph(self) -> str:
        return self.client.base + SIM_PATH

    def run(self, stop: threading.Event) -> AgentStats:
        try:
            if self.config.mode == "traversal":
                self.kb, reads, self.dynamic = traverse(
                    self.client, self.config.seed_iri or self.client.base + "building",
                    self.config.follow_predicates, self.kb, self.config.fanout)
                self.stats.reads += reads
            # One pool for the whole run: connections are per thread, so fresh
            # threads each epoch would each open a connection of their own.
            with ThreadPoolExecutor(max_workers=self.config.fanout) as pool:
                while not stop.is_set():
                    if not self._epoch(stop, pool):
                        break
                    if self.config.poll_interval:
                        stop.wait(self.config.poll_interval)
        finally:
            self.client.close_all()
        return self.stats

    def _epoch(self, stop: threading.Event, pool: ThreadPoolExecutor) -> bool:
        targets = sorted(self.dynamic) + [self._sim_graph()]
        results = list(pool.map(lambda iri: (iri, *_fetch(self.client, iri)), targets))
        for iri, status, triples in results:
            self.stats.reads += 1
            if status == 200:
                self.kb.ingest(iri, triples)
            else:
                self.stats.errors += 1
        if stop.is_set():
            return False
        view = self.kb.with_inferences(self.config.reasoning)
        acted: set[tuple[str, str]] = set()
        for rule in self.config.rules:
            for solution in rule.solutions(view):
                request = self._instantiate(rule, solution)
                if request is None:
                    continue
                target, payload = request
                key = (rule.fire_key, target)
                if key in acted or (rule.once and key in self._fired):
                    continue
                acted.add(key)
                self._fired.add(key)
                self._act(target, payload)
        self.stats.loops += 1
        running = self._still_running()
        return running

    def _instantiate(self, rule: Rule, solution: dict):
        target_term = rule.action.target
        if isinstance(target_term, Var):
            bound = solution.get(target_term.name)
            if not isinstance(bound, IRI):
                return None
            target = defrag(bound.value)
        else:
            target = defrag(target_term.value)
        triples = []
        for tp in rule.action.payload:
            def term(t):
                return solution[t.name] if isinstance(t, Var) else t

            triples.append((term(tp.s), term(tp.p), term(tp.o)))
        return target, frozenset(triples)

    def _act(self, target: str, payload: frozenset) -> None:
        try:
            status = self.client.put_graph(target, payload)
        except OSError:
            self.stats.errors += 1
            return
        if 200 <= status < 300:
            self.stats.writes += 1
        else:
            self.stats.errors += 1

    def _still_running(self) -> bool:
        sim = self.kb.dataset.graph(self._sim_graph())
        for _s, p, o in sim:
            if p.value.endswith(SIM_VOCAB + "running") and isinstance(o, Literal):
                return o.lexical == "true"
        return True
