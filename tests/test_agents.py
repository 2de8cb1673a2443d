"""Rule files, forward-chaining reasoning and rule matching of the agents."""

import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldsim import agents
from ldsim.agents import HAS_PART, INFERRED_GRAPH, IS_PART_OF, KnowledgeBase, parse_rules, \
    reason
from ldsim.building import GeneratorParams, build_dataset
from ldsim.engine import RunParams, SimEnvironment, SimulationRuntime
from ldsim.httpclient import LdClient
from ldsim.ns import DEFAULT_GRAPH, RDF_TYPE, RDF_VALUE, RDFS_SUBCLASS, SIM_PATH
from ldsim.rdf import IRI, Dataset, Literal, Quad
from ldsim.rdfio import ParseError
from ldsim.server import LinkedDataServer, default_policy
from ldsim.sparql import Group, QuadPattern, TriplePattern, Var
from ldsim.tasks import TASK_IDS, build_environment, load_task
from rdf_helpers import from_quads

EX = "http://example.org/"
PREFIX = f"PREFIX ex: <{EX}>\n"


def ex(name: str) -> IRI:
    return IRI(EX + name)


class TestParseRules:
    def test_once_group_and_hyphenated_names(self):
        rules = parse_rules(PREFIX + """
            RULE lights-off-at-night ONCE GROUP night-shift-2
            WHEN { ?it ex:state "on" }
            THEN PUT ?it { ?it ex:state "off" }
            RULE plain
            WHEN { ?x ex:p ?y . FILTER(?y != ex:z) }
            THEN PUT ?x { ?x ex:p ex:z }
            """)
        night, plain = rules
        assert night.name == "lights-off-at-night"
        assert night.once and night.group == "night-shift-2"
        assert night.fire_key == "night-shift-2"
        assert night.action.target == Var("it")
        assert night.action.payload == (
            QuadPattern(Var("it"), ex("state"), Literal("off"), None),)
        assert night.condition.elements == (
            TriplePattern(Var("it"), ex("state"), Literal("on")),)
        assert (plain.name, plain.once, plain.group) == ("plain", False, None)
        assert plain.fire_key == "plain"
        assert plain.action.payload == (QuadPattern(Var("x"), ex("p"), ex("z"), None),)

    def test_group_before_once(self):
        (rule,) = parse_rules(PREFIX + "RULE r GROUP g ONCE WHEN { ?a ex:p ?b } "
                                       "THEN PUT ?a { ?a ex:q ?b }")
        assert rule.once and rule.group == "g"

    def test_iri_target_resolved_against_base(self):
        (rule,) = parse_rules("RULE r WHEN { ?a <p> ?b } THEN PUT <doc> { ?a <q> ?b }",
                              base=EX)
        assert rule.action.target == ex("doc")
        assert rule.condition.elements[0].p == ex("p")

    @pytest.mark.parametrize("action", [
        "PUT ?other { ?it ex:state \"off\" }",
        "PUT ?it { ?it ex:state ?other }",
        "PUT ex:d { ?other ex:p 1 }",
    ])
    def test_action_variable_not_bound_by_when(self, action):
        with pytest.raises(ParseError, match=r"action variable \?other not bound by WHEN"):
            parse_rules(PREFIX + f"RULE r WHEN {{ ?it ex:state \"on\" }} THEN {action}")

    @pytest.mark.parametrize("text, message", [
        ("QUERY r", "expected RULE"),
        ("RULE r THEN PUT ?x", "expected WHEN"),
        ("RULE r WHEN { ?x ex:p ?y } PUT ?x", "expected THEN"),
        ("RULE r WHEN { ?x ex:p ?y } THEN PATCH ?x", "expected PUT"),
        ("RULE r WHEN { ?x ex:p ?y } THEN POST ?x { ?x ex:p ?y }", "expected PUT"),
        ("RULE r WHEN { ?x ex:p ?y } THEN DELETE ?x", "expected PUT"),
        ("RULE r WHEN { ?x ex:p ?y } THEN PUT ?x", "expected '{'"),
        ("RULE r WHEN { ?x ex:p ?y } THEN PUT ?x RULE s", "expected '{'"),
        ("RULE r WHEN { ?x ex:p ?y } THEN PUT ?x { }", "empty payload"),
        ("RULE r WHEN { ?x ex:p ?y } THEN PUT ?x { GRAPH ?x { ?x ex:p ?y } }",
         "plain triples only"),
        ("RULE r WHEN { ?a ex:p ?b } THEN PUT ?a { ?a ex:q+ ?b }", "plain triples"),
    ])
    def test_malformed_rules_rejected(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_rules(PREFIX + text)

    def test_empty_file_has_no_rules(self):
        assert parse_rules(PREFIX) == []

    def test_every_shipped_rule_file_parses(self):
        for tid in TASK_IDS:
            task = load_task(tid, EX)
            rules = parse_rules(task.rules_text, base=EX)
            assert rules, tid
            assert all(rule.action.payload for rule in rules)


def dataset(*triples, graph=EX + "g") -> Dataset:
    return from_quads(Quad(s, p, o, IRI(graph)) for s, p, o in triples)


class TestReason:
    def test_closes_subclass_and_propagates_types(self):
        sub = IRI(RDFS_SUBCLASS)
        kind = IRI(RDF_TYPE)
        kb = dataset((ex("A"), sub, ex("B")), (ex("B"), sub, ex("C")),
                     (ex("C"), sub, ex("D")), (ex("x"), kind, ex("A")))
        inferred = reason(kb).graph(INFERRED_GRAPH)
        assert inferred == {
            (ex("A"), sub, ex("C")), (ex("A"), sub, ex("D")), (ex("B"), sub, ex("D")),
            (ex("x"), kind, ex("B")), (ex("x"), kind, ex("C")), (ex("x"), kind, ex("D"))}

    def test_closes_has_part_and_is_part_of(self):
        has, of = IRI(HAS_PART), IRI(IS_PART_OF)
        kb = dataset((ex("building"), has, ex("wing")), (ex("wing"), has, ex("floor")),
                     (ex("room"), of, ex("floor")))
        closed = reason(kb)
        inferred = closed.graph(INFERRED_GRAPH)
        wholes = {"building": ("wing", "floor", "room"), "wing": ("floor", "room"),
                  "floor": ("room",)}
        for whole, parts in wholes.items():
            for part in parts:
                for triple in ((ex(whole), has, ex(part)), (ex(part), of, ex(whole))):
                    assert triple in inferred or triple in kb.graph(EX + "g")
        # Nothing stated is restated, and nothing else is inferred.
        assert not inferred & kb.graph(EX + "g")
        assert len(inferred) == 2 * 6 - 3

    def test_closed_knowledge_base_is_returned_as_is(self):
        kb = dataset((ex("a"), IRI(HAS_PART), ex("b")), (ex("b"), IRI(IS_PART_OF), ex("a")),
                     (ex("x"), IRI(RDF_TYPE), ex("A")))
        assert reason(kb) is kb

    def test_reasoned_view_answers_a_subclass_rule(self):
        sub = IRI(RDFS_SUBCLASS)
        kb = dataset((ex("Shower"), sub, ex("Washroom")), (ex("Washroom"), sub, ex("Hygiene")),
                     (ex("r1"), IRI(RDF_TYPE), ex("Shower")))
        (rule,) = parse_rules(PREFIX + "RULE r WHEN { ?room a ex:Hygiene } "
                                       "THEN PUT ?room { ?room ex:lit false }")
        assert rule.solutions(kb) == []
        assert rule.solutions(reason(kb)) == [{"room": ex("r1")}]


NODES = st.sampled_from([ex(name) for name in "abcde"])
PREDICATES = st.sampled_from([IRI(RDFS_SUBCLASS), IRI(RDF_TYPE), IRI(HAS_PART),
                              IRI(IS_PART_OF), IRI(RDF_VALUE)])
SOURCES = st.sampled_from([EX + "g1", EX + "g2", EX + "g3"])
INGESTS = st.lists(st.tuples(SOURCES, st.frozensets(st.tuples(NODES, PREDICATES, NODES),
                                                    max_size=5)), max_size=12)


class TestMemoisedReasoning:
    @settings(max_examples=150, deadline=None)
    @given(INGESTS)
    def test_memoised_view_equals_fresh_reason(self, steps):
        kb = KnowledgeBase()
        for source, triples in steps:
            kb.ingest({source: triples})
            fresh = reason(Dataset(dict(kb.dataset.graphs())))
            for _ in range(2):
                view = kb.with_inferences(True)
                assert view == fresh
                rebuilt = Dataset(dict(view.graphs()))
                for p in (RDFS_SUBCLASS, RDF_TYPE, HAS_PART, IS_PART_OF):
                    assert set(view.pred_entries(p)) == set(rebuilt.pred_entries(p))
        assert kb.with_inferences(False) is kb.dataset

    def test_reasons_again_only_when_its_predicates_change(self, monkeypatch):
        calls = []
        monkeypatch.setattr(agents, "reason", lambda kb: calls.append(kb) or reason(kb))
        kb = KnowledgeBase()
        kb.ingest({EX + "model": {(ex("A"), IRI(RDFS_SUBCLASS), ex("B")),
                                  (ex("x"), IRI(RDF_TYPE), ex("A"))}})
        first = kb.with_inferences(True)
        assert kb.with_inferences(True) is first
        kb.ingest({EX + "light": {(ex("x"), IRI(RDF_VALUE), Literal("on"))}})
        second = kb.with_inferences(True)
        assert (ex("x"), IRI(RDF_TYPE), ex("B")) in second.graph(INFERRED_GRAPH)
        assert (ex("x"), IRI(RDF_VALUE), Literal("on")) in second.graph(EX + "light")
        assert len(calls) == 1
        kb.ingest({EX + "light": {(ex("y"), IRI(RDF_TYPE), ex("A"))}})
        assert (ex("y"), IRI(RDF_TYPE), ex("B")) in \
            kb.with_inferences(True).graph(INFERRED_GRAPH)
        assert len(calls) == 2


@pytest.fixture(scope="module")
def afternoon():
    """The agent's view of the default building in TC7 at 15:00, after a day
    of sunlight, occupancy and setpoint changes in 20-minute steps."""
    pd = build_dataset(params=GeneratorParams())
    task = load_task("TC7", pd.base)
    runtime = SimulationRuntime(build_environment(task, pd, 42), task.fault_queries)
    runtime.initialize(RunParams(
        initial_time=datetime(2020, 5, 22, 0, 0, tzinfo=timezone.utc),
        timeslot_ms=10, iterations=60, step_seconds=1200))
    for _ in range(45):
        runtime.tick()
    view = Dataset({name: triples for name, triples in runtime.dataset.graphs()
                    if name != DEFAULT_GRAPH})
    return pd.base, view


class TestRuleMatching:
    @pytest.mark.parametrize("tid", ["TS3", "TC2", "TC4", "TC5", "TC6", "TC7"])
    def test_solutions_do_not_depend_on_written_order(self, afternoon, tid):
        base, view = afternoon
        view = reason(view)
        rng = random.Random(tid)
        for rule in parse_rules(load_task(tid, base).rules_text, base=base):
            expected = rule.solutions(view)
            elements = list(rule.condition.elements)
            orders = [elements[::-1]] + [rng.sample(elements, len(elements))
                                         for _ in range(4)]
            for order in orders:
                shuffled = replace(rule, condition=Group(tuple(order)))
                assert shuffled.solutions(view) == expected, rule.name

    def test_every_sensor_rule_matches_in_the_afternoon(self, afternoon):
        base, view = afternoon
        matched = {tid: sum(len(rule.solutions(view)) for rule in
                            parse_rules(load_task(tid, base).rules_text, base=base))
                   for tid in ("TC4", "TC5", "TC6", "TC7")}
        assert all(matched.values()), matched


SMALL_BUILDING = GeneratorParams(
    rooms=4, floors=1, wings=1, lighting_systems=3,
    systems_with_occupancy=2, systems_with_command=2,
    systems_with_luminance=1, rooms_with_occupancy=2,
    rooms_with_command=2, rooms_with_luminance=1,
    command_points=2, luminance_points=1, hygiene_lights=0, seed=3)


class FakeClient:
    """Answers every GET with a one-triple graph naming the IRI; `broken`
    IRIs raise `OSError`."""

    base = EX

    def __init__(self, broken=()):
        self.broken = set(broken)

    def get_graph(self, iri):
        if iri in self.broken:
            raise OSError("connection refused")
        return 200, graph_of(iri)


class CountingPool:
    """A thread pool that counts the tasks submitted to it."""

    def __init__(self, workers):
        self.pool = ThreadPoolExecutor(max_workers=workers)
        self.submitted = 0

    def submit(self, fn, *args):
        self.submitted += 1
        return self.pool.submit(fn, *args)


def graph_of(iri):
    return frozenset({(IRI(iri), IRI(RDF_VALUE), Literal(iri))})


class TestFetchAll:
    @pytest.mark.parametrize("count, fanout", [(7, 3), (0, 3), (2, 5), (5, 1)])
    def test_results_in_input_order_with_one_task_per_thread(self, count, fanout):
        iris = [f"{EX}g{i}" for i in range(count)]
        pool = CountingPool(fanout)
        try:
            results = agents._fetch_all(pool, FakeClient(), iris, fanout)
        finally:
            pool.pool.shutdown()
        assert results == [(iri, 200, graph_of(iri)) for iri in iris]
        assert pool.submitted == fanout

    def test_failed_get_yields_status_zero_in_its_place(self):
        iris = [f"{EX}g{i}" for i in range(5)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = agents._fetch_all(pool, FakeClient(broken={iris[3]}), iris, 2)
        assert [iri for iri, _, _ in results] == iris
        assert results[3] == (iris[3], 0, frozenset())
        assert all(status == 200 for i, (_, status, _) in enumerate(results) if i != 3)

    @pytest.mark.usefixtures("close_clients")
    def test_traversal_does_not_depend_on_fanout(self):
        server = LinkedDataServer()
        pd = build_dataset(params=SMALL_BUILDING, base=server.base)
        env = SimEnvironment(dataset=pd.dataset, init_entries=[], update_entries=[],
                             seed=7, base=server.base, dynamic=pd.dynamic)
        server.attach(SimulationRuntime(env), default_policy(pd.dynamic))
        server.start()
        try:
            walks = []
            for fanout in (1, 4):
                client = LdClient(server.base)
                with ThreadPoolExecutor(max_workers=fanout) as pool:
                    kb, reads, dynamic = agents.traverse(client, pool, fanout,
                                                         server.base + "building")
                client.close_all()
                walks.append((kb.dataset, reads, dynamic))
        finally:
            server.stop()
        assert walks[0][2] == set(pd.dynamic)  # links are followed both ways
        assert walks[0] == walks[1]


class TestEpochIngest:
    def test_an_epoch_updates_the_knowledge_base_once(self, monkeypatch):
        primed = Dataset({f"{EX}g{i}": frozenset({(ex(f"g{i}"), IRI(RDF_VALUE), Literal("old"))})
                          for i in range(5)})
        broken = EX + "g3"
        config = agents.AgentConfig(mode="prefetch", rules=[], fanout=2)
        agent = agents.RuleAgent(FakeClient(broken={broken}), config, prefetch_dataset=primed)
        per_graph = agent.kb.dataset
        for iri in sorted(agent.dynamic) + [EX + SIM_PATH]:
            if iri != broken:
                per_graph = per_graph.replace_graphs({iri: graph_of(iri)})
        calls = []
        replace_graphs = Dataset.replace_graphs
        monkeypatch.setattr(Dataset, "replace_graphs",
                            lambda ds, updates: calls.append(set(updates))
                            or replace_graphs(ds, updates))
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert agent._epoch(threading.Event(), pool)
        assert len(calls) == 1 and broken not in calls[0]
        assert agent.kb.dataset == per_graph
        assert agent.kb.dataset.graph(broken) == primed.graph(broken)
        assert (agent.stats.reads, agent.stats.errors) == (6, 1)
