import hashlib
import random

import pytest

from ldsim.building import (
    ACTUATABLE,
    CAT_COMMAND,
    CAT_LUMINANCE,
    CAT_OCCUPANCY,
    CAT_OUTSIDE,
    CAT_SETPOINT,
    HAS_PART,
    GeneratorParams,
    build_dataset,
    building_counts,
    derive,
    generate_synthetic,
    validate_counts,
)
from ldsim.ns import DEFAULT_BASE, DEFAULT_GRAPH, RDF_TYPE, RDF_VALUE
from ldsim.rdf import IRI, Dataset, Literal, Quad
from ldsim.rdfio import serialize_dataset, serialize_triples
from rdf_helpers import from_quads, symmetric_difference

BASE = DEFAULT_BASE
EX = "http://example.org/"


@pytest.fixture(scope="module")
def table1_build():
    return build_dataset(params=GeneratorParams())


def scoped(triples) -> Dataset:
    """The partition law written out: a triple in its subject's graph, and
    in its object's when that is an IRI."""
    return from_quads(
        Quad(s, p, o, g) for s, p, o in triples
        for g in ((s, o) if isinstance(o, IRI) else (s,)))


class TestPartition:
    """A graph without points: the derivation is the partition alone."""

    def test_iri_object_scoped_twice(self):
        a, p, b = IRI(EX + "a"), IRI(EX + "p"), IRI(EX + "b")
        ds = derive(frozenset({(a, p, b)}), EX).dataset
        assert set(ds.quads()) == {
            (a, p, b, a), (a, p, b, b)}

    def test_literal_object_scoped_once(self):
        a, p = IRI(EX + "a"), IRI(EX + "p")
        ds = derive(frozenset({(a, p, Literal("5"))}), EX).dataset
        assert ds.graph_names() == {a.value}

    def test_partition_laws_on_random_graphs(self):
        # Union of graphs deduplicates to the input; graph names are exactly
        # subjects plus IRI objects.
        rng = random.Random(17)
        for _ in range(10):
            triples = set()
            for _ in range(rng.randrange(1, 400)):
                s = IRI(EX + "n" + str(rng.randrange(40)))
                p = IRI(EX + "p" + str(rng.randrange(5)))
                o = (IRI(EX + "n" + str(rng.randrange(40)))
                     if rng.random() < 0.6 else Literal(str(rng.randrange(10))))
                triples.add((s, p, o))
            ds = derive(frozenset(triples), EX).dataset
            merged = {(s, p, o) for s, p, o, _ in ds.quads()}
            assert merged == triples
            expected_names = ({s.value for s, _, _ in triples}
                              | {o.value for _, _, o in triples if isinstance(o, IRI)})
            assert ds.graph_names() == expected_names


class TestSynthetic:
    def test_default_counts(self, table1_build):
        rows = validate_counts(table1_build, GeneratorParams())
        assert all(expected == actual for _, expected, actual in rows), rows

    def test_expected_scopes(self, table1_build):
        counts = building_counts(table1_build.dataset)
        assert counts["lighting_systems"] == 278
        assert counts["systems_with_occupancy"] == 156
        assert counts["systems_with_command"] == 105
        assert counts["systems_with_luminance"] == 48
        assert counts["command_points"] == 146
        assert counts["luminance_points"] == 64

    def test_same_seed_identical(self):
        g1 = generate_synthetic(GeneratorParams(seed=5))
        g2 = generate_synthetic(GeneratorParams(seed=5))
        assert g1 == g2

    def test_seed_changes_assignment(self):
        g1 = generate_synthetic(GeneratorParams(seed=5))
        g2 = generate_synthetic(GeneratorParams(seed=6))
        assert g1 != g2

    def test_minimal_building(self):
        params = GeneratorParams(
            rooms=1, floors=1, wings=1, lighting_systems=1,
            systems_with_occupancy=0, systems_with_command=1,
            systems_with_luminance=0, rooms_with_occupancy=0,
            rooms_with_command=1, rooms_with_luminance=0,
            command_points=1, luminance_points=0, hygiene_lights=0)
        pd = build_dataset(params=params)
        assert all(expected == actual for _, expected, actual in validate_counts(pd, params))
        assert sum(1 for r in pd.dynamic.values() if r.category == CAT_COMMAND) == 1

    def test_infeasible_params_rejected(self):
        params = GeneratorParams(systems_with_luminance=200,
                                 systems_with_command=100)
        with pytest.raises(ValueError, match="infeasible"):
            generate_synthetic(params)

    def test_validation_detects_missing_light(self, table1_build):
        params = GeneratorParams()
        broken = GeneratorParams(command_points=145)
        failed = [name for name, expected, actual in validate_counts(table1_build, broken)
                  if expected != actual]
        assert failed == ["command_points"]
        assert all(expected == actual
                   for _, expected, actual in validate_counts(table1_build, params))

    def test_graph_size_distribution(self):
        part = scoped(generate_synthetic(GeneratorParams()))
        sizes = [len(part.graph(name)) for name in part.graph_names()]
        outliers = sum(1 for s in sizes if s < 5 or s > 50)
        assert outliers / len(sizes) <= 0.01

    def test_part_hierarchy_reaches_floor_from_room(self, table1_build):
        from ldsim.sparql import closure

        d = table1_build.dataset
        room = IRI(BASE + "Room_001")
        up = closure(d.pred_nav(HAS_PART)[0], None, IRI(BASE + "Floor_0"))
        assert any(t.value.startswith(BASE + "Wing_") for t in up if isinstance(t, IRI))
        assert any(t.value.startswith(BASE + "Room_") for t in up if isinstance(t, IRI))
        assert room in up or IRI(BASE + "Room_002") in up  # rooms alternate wings


class TestAugmentation:
    def test_property_scheme_and_initial_values(self, table1_build):
        pd = table1_build
        res = pd.dynamic[BASE + "property-Luminance_Command_001"]
        assert res.node == BASE + "property-Luminance_Command_001#it"
        triples = pd.dataset.graph(res.graph)
        assert (IRI(res.node), IRI(RDF_TYPE), IRI(ACTUATABLE)) in triples
        values = [o for s, p, o in triples
                  if p.value == RDF_VALUE and s == IRI(res.node)]
        assert values == [Literal("off")]

    def test_category_split(self, table1_build):
        # 64 occupancy sensors pair with the sensed lights; 108 more sit in
        # occupancy-only systems.
        by_cat = {}
        for res in table1_build.dynamic.values():
            by_cat[res.category] = by_cat.get(res.category, 0) + 1
        assert by_cat == {CAT_OCCUPANCY: 172, CAT_COMMAND: 146,
                          CAT_LUMINANCE: 64, CAT_SETPOINT: 64, CAT_OUTSIDE: 1}

    def test_zero_point_building_adds_nothing(self):
        g = frozenset({
            (IRI(EX + "b"), IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
             IRI("http://buildsys.org/ontologies/Brick#Building"))})
        pd = derive(g, EX)
        assert pd.dynamic == {}
        assert pd.dataset == scoped(g)

    def test_augment_only_adds_property_graphs_and_links(self, table1_build):
        part = scoped(generate_synthetic(GeneratorParams()))
        delta = symmetric_difference(part, table1_build.dataset)
        assert delta.graph(DEFAULT_GRAPH) == table1_build.dataset.graph(DEFAULT_GRAPH)
        for name in delta.graph_names() - {DEFAULT_GRAPH}:
            prop_graph = name.startswith(BASE + "property-")
            if not prop_graph:
                # Only point graphs gain the link triples to their property.
                assert all(o.value.startswith(BASE + "property-")
                           for _, _, o in delta.graph(name)), name

    def test_writable_iff_actuatable(self, table1_build):
        for res in table1_build.dynamic.values():
            typed = (IRI(res.node), IRI(RDF_TYPE), IRI(ACTUATABLE))
            assert (typed in table1_build.dataset.graph(res.graph)) == \
                (res.category in (CAT_COMMAND, CAT_SETPOINT))


class TestPipeline:
    def test_occupants_match_sensed_rooms(self, table1_build):
        facts = table1_build.dataset.graph(DEFAULT_GRAPH)
        assert len(facts) == 2 * 66  # type + workplace per occupant
        rooms = {o.value for _, p, o in facts if p.value.endswith("worksIn")}
        assert len(rooms) == 66

    def test_relative_turtle_file_builds_the_generated_building(self, tmp_path):
        # `--input`: the synthetic building written as Turtle with relative
        # IRIs is, built at another base, the building generated there.
        params = GeneratorParams(seed=42)
        text = serialize_triples(generate_synthetic(params)).replace(f"<{BASE}", "<")
        assert BASE not in text
        path = tmp_path / "building.ttl"
        path.write_text(text)
        other = "http://127.0.0.1:9999/"
        from_file = build_dataset(source=path, base=other)
        generated = build_dataset(params=params, base=other)
        assert from_file.base == generated.base == other
        assert from_file.dataset == generated.dataset
        assert from_file.dynamic == generated.dynamic
        assert from_file.source_triples == generated.source_triples == 5254


class TestDerivation:
    # SHA-256 of `serialize_dataset` and of the dynamic table (one tab-separated
    # line per resource, sorted by graph) per seed, as first recorded for the
    # building derived through staged quads. The derivation must not move them.
    DIGESTS = {
        0: ("b80d0eaf5b883e4e9e62f016924201854f407072c98f6190183bf481e36b68e6",
            "d9396688647b7de5350e493825fddb95a53212257f21ac26af48d16402867543"),
        1: ("cdf3f4309a63efbfee90901a3a05b104a56096cc7a269d072873e2e168ad7ec8",
            "c5cbc570ccb148926a91ad851065e3556ded110acf0f8fd8cffa9a3c1f7c16eb"),
        42: ("2e4dc190116660825a8ed8e89e194ca2657118d7aefd341bb59bed3dc6e7dadf",
             "e30ca311205855e7cef10bafbe118d081d7d0924933526f4a0957143352c18e8"),
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_dataset_and_dynamic_table_digests(self, seed):
        pd = build_dataset(params=GeneratorParams(seed=seed))
        table = "".join(f"{r.graph}\t{r.node}\t{r.point}\t{r.system}\t{r.room}\t{r.category}\n"
                        for _, r in sorted(pd.dynamic.items()))
        assert (hashlib.sha256(serialize_dataset(pd.dataset).encode()).hexdigest(),
                hashlib.sha256(table.encode()).hexdigest()) == self.DIGESTS[seed]

    @pytest.mark.parametrize("from_file", [False, True], ids=["seed", "input"])
    def test_each_distinct_term_is_one_object(self, from_file, tmp_path):
        source = None
        if from_file:
            source = tmp_path / "building.ttl"
            source.write_text(serialize_triples(generate_synthetic(GeneratorParams())))
        pd = build_dataset(source=source, params=GeneratorParams())
        terms = [t for _, triples in pd.dataset.graphs() for triple in triples for t in triple]
        assert len({id(t) for t in terms}) == len(set(terms)) > 2900
