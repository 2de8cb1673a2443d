"""Build the benchmark dataset: partition a building graph into per-resource
named graphs, attach time-varying sensor/actuator property resources, and
generate a synthetic building when the original description is unavailable.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .ns import (
    BF,
    BRICK,
    DEFAULT_BASE,
    DEFAULT_GRAPH,
    RDF_TYPE,
    RDF_VALUE,
    RDFS,
    RDFS_SUBCLASS,
    SOSA,
    SSN,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_TIME,
)
from .rdf import IRI, BlankNode, Dataset, Literal, Quad, Triple, skolemize
from .rdfio import parse_document, serialize_dataset

log = logging.getLogger(__name__)

LIGHTING_SYSTEM = BRICK + "Lighting_System"
OCCUPANCY_SENSOR = BRICK + "Occupancy_Sensor"
LUMINANCE_COMMAND = BRICK + "Luminance_Command"
LUMINANCE_SENSOR = BRICK + "Luminance_Sensor"
LUMINANCE_SETPOINT = BRICK + "Luminance_Setpoint"
ROOM = BRICK + "Room"
FLOOR = BRICK + "Floor"
WING = BRICK + "Wing"
BUILDING = BRICK + "Building"
HAS_PART = BF + "hasPart"
HAS_POINT = BF + "hasPoint"
FEEDS = BF + "feeds"
IS_LOCATED_IN = BF + "isLocatedIn"
LABEL = RDFS + "label"

OBSERVABLE = SOSA + "ObservableProperty"
ACTUATABLE = SOSA + "ActuatableProperty"
OBSERVES = SOSA + "observes"
ACTS_ON = SOSA + "actsOnProperty"
FOR_PROPERTY = SSN + "forProperty"

CAT_OCCUPANCY = "occupancy"
CAT_COMMAND = "command"
CAT_LUMINANCE = "luminance"
CAT_SETPOINT = "setpoint"
CAT_OUTSIDE = "outside-luminance"

_POINT_CATEGORIES = {
    OCCUPANCY_SENSOR: CAT_OCCUPANCY,
    LUMINANCE_COMMAND: CAT_COMMAND,
    LUMINANCE_SENSOR: CAT_LUMINANCE,
    LUMINANCE_SETPOINT: CAT_SETPOINT,
}

INITIAL_VALUES = {
    CAT_OCCUPANCY: Literal("off"),
    CAT_COMMAND: Literal("off"),
    CAT_LUMINANCE: Literal("0.0", XSD_DECIMAL),
    CAT_SETPOINT: Literal("500", XSD_INTEGER),
    CAT_OUTSIDE: Literal("0.0", XSD_DECIMAL),
}


@dataclass(frozen=True)
class GeneratorParams:
    """Target counts for the synthetic building (defaults match building 3)."""

    rooms: int = 281
    floors: int = 2
    wings: int = 3
    lighting_systems: int = 278
    systems_with_occupancy: int = 156
    systems_with_command: int = 105
    systems_with_luminance: int = 48
    rooms_with_occupancy: int = 66
    rooms_with_command: int = 38
    rooms_with_luminance: int = 20
    command_points: int = 146
    luminance_points: int = 64
    hygiene_lights: int = 6
    seed: int = 0

    def check(self) -> None:
        checks = [
            (self.systems_with_luminance <= self.systems_with_occupancy,
             "luminance systems exceed occupancy systems"),
            (self.systems_with_luminance <= self.systems_with_command,
             "luminance systems exceed command systems"),
            (self.rooms_with_luminance <= self.rooms_with_occupancy,
             "luminance rooms exceed occupancy rooms"),
            (self.rooms_with_luminance <= self.rooms_with_command,
             "luminance rooms exceed command rooms"),
            (self.rooms_with_occupancy + self.rooms_with_command
             - self.rooms_with_luminance <= self.rooms,
             "category rooms exceed total rooms"),
            (self.systems_with_occupancy + self.systems_with_command
             - self.systems_with_luminance <= self.lighting_systems,
             "category systems exceed total systems"),
            (self.rooms_with_occupancy <= self.systems_with_occupancy or
             self.rooms_with_occupancy == 0,
             "more occupancy rooms than occupancy systems"),
            (self.rooms_with_command <= self.systems_with_command,
             "more command rooms than command systems"),
            (self.luminance_points >= self.systems_with_luminance,
             "fewer luminance points than luminance systems"),
            (self.command_points >= self.systems_with_command,
             "fewer command points than command systems"),
            (self.command_points - self.luminance_points
             >= self.systems_with_command - self.systems_with_luminance,
             "command points cannot cover command-only systems"),
            (self.hygiene_lights <= self.command_points - self.luminance_points
             or self.hygiene_lights == 0,
             "hygiene lights exceed command-only points"),
            (self.floors >= 1 and self.wings >= self.floors and self.rooms >= 1,
             "structure counts out of range"),
        ]
        for ok, message in checks:
            if not ok:
                raise ValueError(f"infeasible generator params: {message}")


@dataclass
class DynamicResource:
    graph: str
    node: str
    point: str
    system: str
    room: str
    category: str


@dataclass
class PartitionedDataset:
    dataset: Dataset
    dynamic: dict[str, DynamicResource]
    base: str
    source_triples: int = 0


def partition(triples: Iterable[Triple]) -> Dataset:
    """Scope every triple by its subject, and by its object when it is an IRI.

    Input triples must not contain blank nodes (skolemize first); blank
    nodes cannot name graphs.
    """
    quads: list[Quad] = []
    for s, p, o in triples:
        if isinstance(s, BlankNode) or isinstance(o, BlankNode):
            raise ValueError("partition requires a skolemized graph")
        quads.append(Quad(s, p, o, s))
        if isinstance(o, IRI):
            quads.append(Quad(s, p, o, o))
    return Dataset.from_quads(quads)


def _point_category(classes) -> str | None:
    for o in classes:
        if isinstance(o, IRI) and o.value in _POINT_CATEGORIES:
            return _POINT_CATEGORIES[o.value]
    return None


def _typed(d: Dataset, cls: str) -> set[IRI]:
    return {s for s, o, _ in d.pred_entries(RDF_TYPE)
            if isinstance(o, IRI) and o.value == cls and isinstance(s, IRI)}


def property_graph_iri(base: str, point: IRI) -> str:
    local = point.value[len(base):] if point.value.startswith(base) else \
        point.value.rsplit("/", 1)[-1]
    return f"{base}property-{local}"


def augment_datapoints(d: Dataset, base: str = DEFAULT_BASE) -> PartitionedDataset:
    """Attach one actuatable/observable property resource per recognized point.

    One pass over the triples collects types, feeds and points, so that
    building a dataset does not build its predicate index.
    """
    types: dict = {}
    feeds: dict[IRI, IRI] = {}
    points: set = set()
    for _g, triples in d.graphs():
        for s, p, o in triples:
            if p.value == RDF_TYPE:
                types.setdefault(s, set()).add(o)
            elif p.value == FEEDS and isinstance(o, IRI):
                feeds.setdefault(s, o)
            elif p.value == HAS_POINT:
                points.add((s, o))
    systems = {s for s, classes in types.items() if IRI(LIGHTING_SYSTEM) in classes}

    dynamic: dict[str, DynamicResource] = {}
    additions: list[Quad] = []
    for sys_iri, point in sorted(points, key=lambda e: (e[0].value, e[1].value)):
        if not isinstance(point, IRI):
            continue
        category = _point_category(types.get(point, ()))
        if category is None:
            log.warning("point %s has no recognized category, skipped", point.value)
            continue
        in_lighting = sys_iri in systems
        if category == CAT_LUMINANCE and not in_lighting:
            category = CAT_OUTSIDE
        graph = property_graph_iri(base, point)
        if graph in dynamic:
            continue
        node = IRI(graph + "#it")
        # A light command or a setpoint is an actuatable property of the
        # model; `server.default_policy` decides which graphs take HTTP writes.
        actuatable = category in (CAT_COMMAND, CAT_SETPOINT)
        prop_type = IRI(ACTUATABLE if actuatable else OBSERVABLE)
        link = IRI(ACTS_ON if actuatable else OBSERVES)
        g_prop = IRI(graph)
        g_point = IRI(point.value)
        additions += [
            Quad(point, IRI(FOR_PROPERTY), node, g_prop),
            Quad(point, IRI(FOR_PROPERTY), node, g_point),
            Quad(point, link, node, g_prop),
            Quad(point, link, node, g_point),
            Quad(node, IRI(RDF_TYPE), prop_type, g_prop),
            Quad(node, IRI(RDF_VALUE), INITIAL_VALUES[category], g_prop),
        ]
        room = feeds.get(sys_iri, IRI(""))
        dynamic[graph] = DynamicResource(
            graph=graph, node=node.value, point=point.value,
            system=sys_iri.value if isinstance(sys_iri, IRI) else "",
            room=room.value, category=category)
    return PartitionedDataset(d.apply([], additions), dynamic, base)


# -- synthetic building -------------------------------------------------------


def generate_synthetic(params: GeneratorParams,
                       base: str = DEFAULT_BASE) -> frozenset[Triple]:
    """Deterministic building graph realizing the target category counts.

    Layout: floors have wings, wings have rooms; lighting systems feed rooms
    (spare systems feed wings). Systems with luminance sensors also carry
    occupancy sensors, commands and setpoints grouped into per-light triples
    of (sensor, command, setpoint) so sensed lights are co-located with both
    sensor kinds.
    """
    params.check()
    rng = random.Random(params.seed)
    t: set = set()
    b = base

    def iri(local: str) -> IRI:
        return IRI(b + local)

    def add(s, p, o):
        t.add((s, IRI(p) if isinstance(p, str) else p, o))

    building = iri("building")
    add(building, RDF_TYPE, IRI(BUILDING))
    add(building, LABEL, Literal("Synthetic office building"))

    floors = [iri(f"Floor_{i}") for i in range(params.floors)]
    for i, floor in enumerate(floors):
        add(building, HAS_PART, floor)
        add(floor, RDF_TYPE, IRI(FLOOR))
        add(floor, LABEL, Literal(f"Floor {i}"))
        add(floor, b + "vocab/building#openHour", Literal("8", XSD_INTEGER))
        close = 23 if i == 0 else 19
        add(floor, b + "vocab/building#closeHour", Literal(str(close), XSD_INTEGER))

    wings = [iri(f"Wing_{i}") for i in range(params.wings)]
    for i, wing in enumerate(wings):
        add(floors[i % params.floors], HAS_PART, wing)
        add(wing, RDF_TYPE, IRI(WING))
        add(wing, LABEL, Literal(f"Wing {i}"))

    rooms = [iri(f"Room_{i:03d}") for i in range(1, params.rooms + 1)]
    for i, room in enumerate(rooms):
        add(wings[i % params.wings], HAS_PART, room)
        add(room, RDF_TYPE, IRI(ROOM))
        add(room, LABEL, Literal(f"Room {i + 1:03d}"))
        add(room, b + "vocab/building#roomNumber", Literal(str(i + 1), XSD_INTEGER))
        add(room, b + "vocab/building#floorArea",
            Literal(f"{10 + (i * 7) % 30}.5", XSD_DECIMAL))

    # Room roles. Full rooms host the sensed lights; the others carry a
    # single point category each.
    shuffled = rooms[:]
    rng.shuffle(shuffled)
    n_full_rooms = params.rooms_with_luminance
    n_occ_rooms = params.rooms_with_occupancy - n_full_rooms
    n_cmd_rooms = params.rooms_with_command - n_full_rooms
    full_rooms = shuffled[:n_full_rooms]
    occ_rooms = shuffled[n_full_rooms:n_full_rooms + n_occ_rooms]
    cmd_rooms = shuffled[n_full_rooms + n_occ_rooms:
                         n_full_rooms + n_occ_rooms + n_cmd_rooms]

    counters = {"sys": 0, "occ": 0, "cmd": 0, "lum": 0, "sp": 0}

    def new_system(target: IRI) -> IRI:
        counters["sys"] += 1
        sys_iri = iri(f"Lighting_System_{counters['sys']:03d}")
        add(sys_iri, RDF_TYPE, IRI(LIGHTING_SYSTEM))
        add(sys_iri, FEEDS, target)
        add(sys_iri, LABEL, Literal(f"Lighting system {counters['sys']:03d}"))
        add(sys_iri, b + "vocab/building#model", Literal("LX-200"))
        add(sys_iri, b + "vocab/building#manufacturer", Literal("Acme Lighting"))
        return sys_iri

    def new_point(sys_iri: IRI, room: IRI, kind: str, cls: str) -> IRI:
        counters[kind] += 1
        name = {"occ": "Occupancy_Sensor", "cmd": "Luminance_Command",
                "lum": "Luminance_Sensor", "sp": "Luminance_Setpoint"}[kind]
        pt = iri(f"{name}_{counters[kind]:03d}")
        add(sys_iri, HAS_POINT, pt)
        add(pt, RDF_TYPE, IRI(cls))
        add(pt, LABEL, Literal(f"{name.replace('_', ' ')} {counters[kind]:03d}"))
        add(pt, IS_LOCATED_IN, room)
        add(pt, b + "vocab/building#channel", Literal(str(counters[kind]), XSD_INTEGER))
        return pt

    # Full systems: per-light groups of (occupancy sensor, luminance sensor,
    # command, setpoint), so every sensed light is co-located with both
    # sensor kinds.
    n_full = params.systems_with_luminance
    triplets = params.luminance_points
    per_system = _spread(triplets, n_full)
    for idx in range(n_full):
        room = full_rooms[idx % len(full_rooms)]
        sys_iri = new_system(room)
        for _ in range(per_system[idx]):
            new_point(sys_iri, room, "occ", OCCUPANCY_SENSOR)
            ls = new_point(sys_iri, room, "lum", LUMINANCE_SENSOR)
            cmd = new_point(sys_iri, room, "cmd", LUMINANCE_COMMAND)
            sp = new_point(sys_iri, room, "sp", LUMINANCE_SETPOINT)
            add(cmd, b + "vocab/building#switchFor", ls)
            add(sp, b + "vocab/building#setpointFor", ls)

    # Occupancy-only systems.
    n_occ_only = params.systems_with_occupancy - n_full
    for idx in range(n_occ_only):
        room = occ_rooms[idx % len(occ_rooms)] if occ_rooms else full_rooms[idx % len(full_rooms)]
        sys_iri = new_system(room)
        new_point(sys_iri, room, "occ", OCCUPANCY_SENSOR)

    # Command-only systems, hygiene rooms first so their light count is exact.
    n_cmd_only = params.systems_with_command - n_full
    cmd_only_points = params.command_points - triplets
    cmd_spread = _spread(cmd_only_points, n_cmd_only)
    hygiene_rooms = _hygiene_rooms(cmd_rooms, params.hygiene_lights, cmd_spread)
    room_cycle = [r for r in cmd_rooms if r not in {r for r, _ in hygiene_rooms}]
    hygiene_plan = list(hygiene_rooms)
    cursor = 0
    for idx in range(n_cmd_only):
        points = cmd_spread[idx]
        room = None
        for i, (hroom, want) in enumerate(hygiene_plan):
            if want == points:
                room = hroom
                hygiene_plan[i] = (hroom, -1)
                break
            if want > 0 and points < want:
                room = hroom
                hygiene_plan[i] = (hroom, want - points)
                break
        if room is None:
            if room_cycle:
                room = room_cycle[cursor % len(room_cycle)]
                cursor += 1
            else:
                room = full_rooms[idx % len(full_rooms)]
        sys_iri = new_system(room)
        for _ in range(points):
            new_point(sys_iri, room, "cmd", LUMINANCE_COMMAND)

    # Spare systems without relevant points feed the wings.
    n_bare = (params.lighting_systems - n_full - n_occ_only - n_cmd_only)
    for idx in range(n_bare):
        new_system(wings[idx % params.wings])

    _add_room_type_vocabulary(add, b, [room for room, _ in hygiene_rooms])
    _add_class_documentation(add)
    _add_weather_resources(add, b)
    return frozenset(t)


def _spread(total: int, buckets: int) -> list[int]:
    """Distribute `total` over `buckets`, each at least 1 where possible."""
    if buckets == 0:
        return []
    basewidth = total // buckets
    extra = total - basewidth * buckets
    return [basewidth + (1 if i < extra else 0) for i in range(buckets)]


def _hygiene_rooms(cmd_rooms: list[IRI], hygiene_lights: int,
                   cmd_spread: list[int]) -> list[tuple[IRI, int]]:
    """Pick rooms for personal-hygiene use, with light counts summing exactly."""
    if hygiene_lights == 0 or not cmd_rooms:
        return []
    want = min(3, len(cmd_rooms), hygiene_lights)
    counts = _spread(hygiene_lights, want)
    return list(zip(cmd_rooms[:want], counts))


HYGIENE_TYPES = ("DisabledToilet", "Toilet", "Shower")
COMMENT = RDFS + "comment"
IS_DEFINED_BY = RDFS + "isDefinedBy"


def _add_room_type_vocabulary(add, base: str, hygiene_rooms: list[IRI]) -> None:
    rt = base + "vocab/room-types/"
    doc = IRI(base + "vocab/room-types")
    add(doc, LABEL, Literal("Room type vocabulary"))
    for name, label in (("PersonalHygieneRoom", "Personal hygiene room"),
                        ("Toilet", "Toilet"), ("Shower", "Shower"),
                        ("DisabledToilet", "Accessible toilet")):
        cls = IRI(rt + name)
        add(cls, LABEL, Literal(label))
        add(cls, COMMENT, Literal(f"Rooms used as: {label.lower()}"))
        add(cls, IS_DEFINED_BY, doc)
    add(IRI(rt + "Toilet"), RDFS_SUBCLASS, IRI(rt + "PersonalHygieneRoom"))
    add(IRI(rt + "Shower"), RDFS_SUBCLASS, IRI(rt + "PersonalHygieneRoom"))
    add(IRI(rt + "DisabledToilet"), RDFS_SUBCLASS, IRI(rt + "Toilet"))
    for i, room in enumerate(hygiene_rooms):
        add(room, RDF_TYPE, IRI(rt + HYGIENE_TYPES[i % len(HYGIENE_TYPES)]))


_CLASS_DOCS = {
    BUILDING: ("Building", BRICK + "Location"),
    FLOOR: ("Floor", BRICK + "Location"),
    WING: ("Wing", BRICK + "Location"),
    ROOM: ("Room", BRICK + "Location"),
    BRICK + "Location": ("Location", None),
    BRICK + "Equipment": ("Equipment", None),
    BRICK + "Point": ("Point", None),
    LIGHTING_SYSTEM: ("Lighting system", BRICK + "Equipment"),
    OCCUPANCY_SENSOR: ("Occupancy sensor", BRICK + "Point"),
    LUMINANCE_COMMAND: ("Luminance command", BRICK + "Point"),
    LUMINANCE_SENSOR: ("Luminance sensor", BRICK + "Point"),
    LUMINANCE_SETPOINT: ("Luminance setpoint", BRICK + "Point"),
}


def _add_class_documentation(add) -> None:
    """Class axioms and annotations, so class graphs are well-sized resources."""
    ontology = IRI(BRICK.rstrip("#"))
    add(ontology, LABEL, Literal("Brick building vocabulary"))
    for cls_iri, (label, parent) in _CLASS_DOCS.items():
        cls = IRI(cls_iri)
        add(cls, LABEL, Literal(label))
        add(cls, COMMENT, Literal(f"Building automation concept: {label.lower()}"))
        add(cls, IS_DEFINED_BY, ontology)
        if parent:
            add(cls, RDFS_SUBCLASS, IRI(parent))


def _add_weather_resources(add, base: str) -> None:
    bldg = base + "vocab/building#"
    report = IRI(base + "weather-report")
    add(IRI(base + "building"), bldg + "weatherReport", report)
    add(report, LABEL, Literal("Daily weather report"))
    add(report, bldg + "sunrise", Literal("06:00:00", XSD_TIME))
    add(report, bldg + "sunset", Literal("21:00:00", XSD_TIME))
    add(report, bldg + "sunriseHour", Literal("6", XSD_INTEGER))
    add(report, bldg + "sunsetHour", Literal("21", XSD_INTEGER))

    station = IRI(base + "weather-station")
    sensor = IRI(base + "Outside_Luminance_Sensor")
    add(IRI(base + "building"), HAS_PART, station)
    add(station, RDF_TYPE, IRI(BRICK + "Equipment"))
    add(station, LABEL, Literal("Rooftop weather station"))
    add(station, bldg + "model", Literal("WS-1"))
    add(station, HAS_POINT, sensor)
    add(sensor, RDF_TYPE, IRI(LUMINANCE_SENSOR))
    add(sensor, LABEL, Literal("Outside luminance sensor"))
    add(sensor, IS_LOCATED_IN, station)
    add(sensor, bldg + "channel", Literal("0", XSD_INTEGER))


# -- occupants ----------------------------------------------------------------


def occupant_quads(pd: PartitionedDataset) -> list[Quad]:
    """Hidden default-graph facts: one occupant per room with occupancy sensing."""
    bldg = pd.base + "vocab/building#"
    rooms = sorted({res.room for res in pd.dynamic.values()
                    if res.category == CAT_OCCUPANCY and res.room})
    quads = []
    g = IRI(DEFAULT_GRAPH)
    for i, room in enumerate(rooms, start=1):
        occ = IRI(f"{pd.base}.well-known/occupant-{i:03d}")
        quads.append(Quad(occ, IRI(RDF_TYPE), IRI(bldg + "Occupant"), g))
        quads.append(Quad(occ, IRI(bldg + "worksIn"), IRI(room), g))
    return quads


# -- validation ---------------------------------------------------------------


def building_counts(d: Dataset) -> dict[str, int]:
    systems = _typed(d, LIGHTING_SYSTEM)
    points_by_sys: dict[IRI, set[str]] = {}
    rooms_by_cat: dict[str, set[str]] = {c: set() for c in _POINT_CATEGORIES.values()}
    feeds = {s: o for s, o, _ in d.pred_entries(FEEDS) if isinstance(o, IRI)}
    point_types: dict[IRI, str] = {}
    for s, o, _ in d.pred_entries(RDF_TYPE):
        if isinstance(o, IRI) and o.value in _POINT_CATEGORIES:
            point_types[s] = _POINT_CATEGORIES[o.value]
    n_points = {c: 0 for c in _POINT_CATEGORIES.values()}
    # hasPoint triples are scoped into both endpoint graphs; count pairs once.
    for sys_iri, point in {(s, o) for s, o, _ in d.pred_entries(HAS_POINT)}:
        if sys_iri not in systems or point not in point_types:
            continue
        category = point_types[point]
        n_points[category] += 1
        points_by_sys.setdefault(sys_iri, set()).add(category)
        room = feeds.get(sys_iri)
        if room is not None:
            rooms_by_cat[category].add(room.value)
    rooms = _typed(d, ROOM)
    return {
        "rooms": len(rooms),
        "floors": len(_typed(d, FLOOR)),
        "wings": len(_typed(d, WING)),
        "lighting_systems": len(systems),
        "systems_with_occupancy": sum(1 for c in points_by_sys.values() if CAT_OCCUPANCY in c),
        "systems_with_command": sum(1 for c in points_by_sys.values() if CAT_COMMAND in c),
        "systems_with_luminance": sum(1 for c in points_by_sys.values() if CAT_LUMINANCE in c),
        "rooms_with_occupancy": len(rooms_by_cat[CAT_OCCUPANCY] & {r.value for r in rooms}),
        "rooms_with_command": len(rooms_by_cat[CAT_COMMAND] & {r.value for r in rooms}),
        "rooms_with_luminance": len(rooms_by_cat[CAT_LUMINANCE] & {r.value for r in rooms}),
        "command_points": n_points[CAT_COMMAND],
        "luminance_points": n_points[CAT_LUMINANCE],
    }


def validate_counts(pd: PartitionedDataset,
                    params: GeneratorParams) -> list[tuple[str, int, int]]:
    """(name, expected, actual) per count the generator parameters fix."""
    actual = building_counts(pd.dataset)
    return [(name, getattr(params, name), actual[name])
            for name in ("rooms", "floors", "wings", "lighting_systems",
                         "systems_with_occupancy", "systems_with_command",
                         "systems_with_luminance", "rooms_with_occupancy",
                         "rooms_with_command", "rooms_with_luminance",
                         "command_points", "luminance_points")]


# -- pipeline -----------------------------------------------------------------


def build_dataset(source: str | Path | None = None,
                  params: GeneratorParams | None = None,
                  base: str = DEFAULT_BASE) -> PartitionedDataset:
    """Full pipeline: building graph -> partition -> augment -> occupants.

    The building graph is the Turtle file `source`, read with `base` as its
    base IRI, or else the synthetic building of `params`, generated at
    `base`. Every IRI of a building is minted at the base it is served at;
    a file's absolute IRIs are kept as written.
    """
    if source is not None:
        text = Path(source).read_text()
        triples = skolemize(parse_document(text, "turtle", base=base), base, "src")
    else:
        triples = generate_synthetic(params or GeneratorParams(), base)
    pd = augment_datapoints(partition(triples), base)
    pd.source_triples = len(triples)
    pd.dataset = pd.dataset.apply([], occupant_quads(pd))
    return pd


def write_dataset(pd: PartitionedDataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(pd.dataset))
