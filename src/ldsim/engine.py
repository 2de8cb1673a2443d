"""Discrete-time simulation engine.

Owns the run lifecycle: one tick per timeslot advances simulated time,
applies the registered environmental updates (built-in processes and
update files, in order), publishes an immutable dataset snapshot and
matches each fault query against it (`metrics.FaultCheck`). Randomness is
counter-based (a hash of seed, iteration, update id and binding key),
never a sequential stream, so agent writes cannot desynchronize
seed-matched runs.

A tick publishes one dataset version: the `sim` graph and the graphs of
each run of consecutive built-ins are staged in one dict and replaced
together, so the predicate index is patched once per tick; an update file
first sees everything staged before it. Built-ins keep a write record
keyed by graph identity: per sensor graph, the frozenset they last wrote
or checked and its value. While the snapshot holds that very frozenset
the value is unchanged, so a sensor whose value and graph are as recorded
costs no scan; a graph that anything else replaced fails the identity
test and is read again. An agent's write takes the same path, so a graph
keeps its other triples, but it leaves no write record.
"""

from __future__ import annotations

import hashlib
import logging
import math
import sys
import threading
import time as _time
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone

from .building import (
    CAT_COMMAND,
    CAT_LUMINANCE,
    CAT_OCCUPANCY,
    CAT_OUTSIDE,
    CAT_SETPOINT,
    DynamicResource,
)
from .metrics import FaultCheck, FaultQuery
from .ns import (
    DEFAULT_BASE,
    DEFAULT_GRAPH,
    OWL_TIME,
    RDF_VALUE,
    SIM_PATH,
    SIM_VOCAB,
    XSD_BOOLEAN,
    XSD_DATETIMESTAMP,
    XSD_DECIMAL,
    XSD_INTEGER,
)
from .rdf import IRI, Dataset, Literal, Quad
from .sparql import EvalContext, Update, eval_update
from .trace import FaultTrace, OperationRecord

log = logging.getLogger(__name__)

_RDF_VALUE = IRI(RDF_VALUE)
# The range of a light command's `rdf:value`: all an agent may write.
COMMAND_VALUES = _ON, _OFF = Literal("on"), Literal("off")
_SIM_FIELDS = ("currentIteration", "iterations", "timeslotDuration", "running",
               "currentTime")
_TIME_FIELDS = ("inXSDDateTimeStamp", "inDateTime", "year", "month", "day", "hour",
                "minute")


# -- keyed randomness -----------------------------------------------------------


class KeyedRandom:
    """Counter-based random source: a pure function of seed and key parts,
    with `base` read as `DEFAULT_BASE`, so no draw depends on the address."""

    def __init__(self, seed: int, base: str = DEFAULT_BASE):
        self.seed = seed
        self.base = base

    def unit(self, *key) -> float:
        material = "\x1f".join(map(str, (self.seed, *key)))
        if self.base != DEFAULT_BASE:
            material = material.replace(self.base, DEFAULT_BASE)
        digest = hashlib.sha256(material.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64


# -- sunlight -------------------------------------------------------------------

SUNRISE_HOUR = 6.0
SUNSET_HOUR = 21.0
ZENITH_HOUR = 13.5
PEAK_LUX = 40000.0


def hours_of_day(t: datetime) -> float:
    return t.hour + t.minute / 60.0 + t.second / 3600.0


def baseline_illuminance(hour: float) -> float:
    """Quadratic daylight curve: zero at sunrise/sunset, peak at the zenith."""
    half_day = (SUNSET_HOUR - SUNRISE_HOUR) / 2.0
    return PEAK_LUX * max(0.0, 1.0 - ((hour - ZENITH_HOUR) / half_day) ** 2)


def coverage_at(hour: float, profile: tuple[float, float]) -> float:
    """Cloud coverage interpolated linearly from sunrise to sunset."""
    at_sunrise, at_sunset = profile
    if hour <= SUNRISE_HOUR:
        return at_sunrise
    if hour >= SUNSET_HOUR:
        return at_sunset
    frac = (hour - SUNRISE_HOUR) / (SUNSET_HOUR - SUNRISE_HOUR)
    return at_sunrise + (at_sunset - at_sunrise) * frac


def outside_illuminance(sim_time: datetime | float,
                        profile: tuple[float, float]) -> float:
    hour = sim_time if isinstance(sim_time, (int, float)) else hours_of_day(sim_time)
    return baseline_illuminance(hour) * (1.0 - coverage_at(hour, profile))


def room_illuminance(outside: float, occlusion: float) -> float:
    return outside * occlusion


# -- occupancy ------------------------------------------------------------------

HOME = "home"
ARRIVING = "arriving"
AT_DESK = "at-desk"
AT_LUNCH = "at-lunch"
GONE = "gone"


@dataclass(frozen=True)
class OccupancyConfig:
    """Rates are per simulated minute; the step compounds them per slot."""

    arrive_from_hour: float = 8.0
    arrive_rate: float = 1 / 60
    commute_minutes: int = 10
    lunch_from_hour: float = 12.0
    lunch_until_hour: float = 14.0
    lunch_rate: float = 1 / 20
    lunch_min_minutes: int = 45
    lunch_return_rate: float = 1 / 15
    leave_from_hour: float = 16.0
    leave_rate: float = 1 / 30
    closing_hour: float = 21.0


OCCUPANCY = OccupancyConfig()
SETPOINT_RATE = 0.01  # per slot, the chance that a setpoint is redrawn
SETPOINT_RANGE = (200, 800)


@dataclass(frozen=True)
class Occupant:
    iri: str
    room: str
    state: str = HOME
    since: int = 0
    lunched: bool = False


def occupancy_step(occupants: tuple[Occupant, ...], iteration: int, hour: float,
                   step_minutes: float, rng: KeyedRandom,
                   cfg: OccupancyConfig) -> tuple[Occupant, ...]:
    """One slot of the per-occupant state machine.

    Each occupant consumes at most one keyed draw per slot, keyed by its
    IRI, and only in a branch that compares against it. A draw is a pure
    function of its key, so skipping an unread one changes no other draw,
    and transitions are stable across seed-matched runs.
    """

    def scaled(rate: float) -> float:
        # At least one per-minute event in the slot (Page et al., 2008).
        return 1.0 - (1.0 - rate) ** step_minutes

    def draw(occ: Occupant) -> float:
        return rng.unit(iteration, "occupancy", occ.iri)

    out = []
    for occ in occupants:
        state, since, lunched = occ.state, occ.since, occ.lunched
        if hour >= cfg.closing_hour and state not in (HOME, GONE):
            state = GONE
        elif state == GONE and hour < cfg.arrive_from_hour:
            state, lunched = HOME, False
        elif state == HOME:
            if cfg.arrive_from_hour <= hour < cfg.closing_hour \
                    and draw(occ) < scaled(cfg.arrive_rate):
                state, since = ARRIVING, iteration
        elif state == ARRIVING:
            if (iteration - since) * step_minutes >= cfg.commute_minutes:
                state, since = AT_DESK, iteration
        elif state == AT_DESK:
            lunch_open = not lunched and cfg.lunch_from_hour <= hour < cfg.lunch_until_hour
            leaving = hour >= cfg.leave_from_hour
            if lunch_open or leaving:
                unit = draw(occ)
                if lunch_open and unit < scaled(cfg.lunch_rate):
                    state, since = AT_LUNCH, iteration
                elif leaving and unit < scaled(cfg.leave_rate):
                    state = GONE
        elif state == AT_LUNCH:
            if ((iteration - since) * step_minutes >= cfg.lunch_min_minutes
                    and draw(occ) < scaled(cfg.lunch_return_rate)):
                state, since, lunched = AT_DESK, iteration, True
        if (state, since, lunched) == (occ.state, occ.since, occ.lunched):
            out.append(occ)
        else:
            out.append(replace(occ, state=state, since=since, lunched=lunched))
    return tuple(out)


def occupied_rooms(occupants: tuple[Occupant, ...]) -> frozenset[str]:
    return frozenset(o.room for o in occupants if o.state == AT_DESK)


# -- environment and run parameters ----------------------------------------------


@dataclass(frozen=True)
class EnvEntry:
    """One registered environmental step: a built-in process or an update."""

    id: str
    kind: str  # "builtin" | "update"
    update: Update | None = None


@dataclass
class SimEnvironment:
    dataset: Dataset
    init_entries: list[EnvEntry]
    update_entries: list[EnvEntry]
    seed: int
    base: str
    dynamic: dict[str, DynamicResource] = field(default_factory=dict)


@dataclass(frozen=True)
class RunParams:
    initial_time: datetime = datetime(2020, 5, 22, 0, 0, tzinfo=timezone.utc)
    timeslot_ms: int = 500
    iterations: int = 1440
    step_seconds: int = 60


class SimulationRuntime:
    """One live simulation: tick executor plus serialized agent writes.

    Reads are wait-free (the `dataset` attribute always holds a complete
    snapshot); writes and ticks share one lock so every dataset version is
    either pre-tick plus agent operations or post-tick.
    """

    def __init__(self, env: SimEnvironment, fault_checks: tuple = ()):
        self.env = env
        self.rng = KeyedRandom(env.seed, env.base)
        self.dataset = env.dataset
        self.params: RunParams | None = None
        self.iteration = 0
        self.started = False
        self.finished = threading.Event()
        self.deadline_misses = 0
        self.tick_seconds: list[float] = []
        self.fault_check_seconds: list[float] = []  # the fault-check phase of each tick
        self.fault_slots: list[dict[str, frozenset[str]]] = []
        self._fault_checks = [FaultCheck(fq, self.rng) for fq in fault_checks]
        self.ops: list[OperationRecord] = []
        self._last_read: dict[tuple[str, str], OperationRecord] = {}
        self.coverage: tuple[float, float] = (0.0, 0.0)
        self.occlusion: dict[str, float] = {}
        self.occupants: tuple[Occupant, ...] = ()
        self._lock = threading.RLock()
        self._by_category: dict[str, list[DynamicResource]] = {}
        for res in env.dynamic.values():
            self._by_category.setdefault(res.category, []).append(res)
        for resources in self._by_category.values():
            resources.sort(key=lambda r: r.graph)
        # Per sensor graph: the frozenset a built-in last wrote or checked
        # there and the node's only `rdf:value` in it. The record holds the
        # frozenset, so its identity is never reused while it is kept.
        self._written: dict[str, tuple[frozenset, Literal]] = {}
        self._last_inputs: dict[str, object] = {}  # per built-in, its last call's
        sim = self._sim_graph_name()
        self._sim_terms = {"sim": IRI(sim), "time": IRI(sim + "#time"),
                           "desc": IRI(sim + "#time-desc")}
        self._sim_terms.update((name, IRI(env.base + SIM_VOCAB + name))
                               for name in _SIM_FIELDS)
        self._sim_terms.update((name, IRI(OWL_TIME + name)) for name in _TIME_FIELDS)

    # -- lifecycle --------------------------------------------------------

    def sim_time(self, iteration: int | None = None) -> datetime:
        assert self.params is not None
        t = self.iteration if iteration is None else iteration
        return self.params.initial_time + timedelta(
            seconds=t * self.params.step_seconds)

    @property
    def step_minutes(self) -> float:
        assert self.params is not None
        return self.params.step_seconds / 60.0

    def start(self, params: RunParams, pace: bool = True) -> None:
        with self._lock:
            if self.started:
                raise RuntimeError("run already in progress")
            self.initialize(params)
        threading.Thread(target=self._run_loop, args=(pace,), daemon=True,
                         name="tick-loop").start()

    def run_sync(self, params: RunParams, pace: bool = False) -> None:
        with self._lock:
            if self.started:
                raise RuntimeError("run already in progress")
            self.initialize(params)
        self._run_loop(pace)

    def initialize(self, params: RunParams) -> None:
        """Draw run-scoped randomness, apply init updates, record slot 0.

        `started` turns true only once slot 0's snapshot and faults are
        published, since callers that wait for it then read `dataset`."""
        self.params = params
        self.iteration = 0
        self.coverage = (self.rng.unit(0, "coverage", "sunrise"),
                         self.rng.unit(0, "coverage", "sunset"))
        rooms = sorted({res.room for res in self.env.dynamic.values() if res.room})
        self.occlusion = {room: 0.05 + 0.05 * self.rng.unit(0, "occlusion", room)
                          for room in rooms}
        self.occupants = self._load_occupants()
        ctx_time = self.sim_time(0)
        ds = self._apply_entries(self.env.dataset, self.env.init_entries, {}, 0, ctx_time)
        ds = self._snapshot_initial_values(ds)
        ds = ds.replace_graphs({self._sim_graph_name(): self._sim_graph(0)})
        self.dataset = ds
        self.fault_slots.append(self._check_faults(ds, 0, ctx_time))
        self.started = True

    def _load_occupants(self) -> tuple[Occupant, ...]:
        works_in = self.env.base + "vocab/building#worksIn"
        out = []
        for s, o, g in sorted(self.env.dataset.pred_entries(works_in),
                              key=lambda e: e[0].value):
            if g == DEFAULT_GRAPH and isinstance(o, IRI):
                out.append(Occupant(iri=s.value, room=o.value))
        return tuple(out)

    def _snapshot_initial_values(self, ds: Dataset) -> Dataset:
        """Record each light command's starting value in the hidden default graph."""
        initial_value = IRI(self.env.base + "vocab/building#initialValue")
        additions = []
        for res in self._by_category.get(CAT_COMMAND, ()):
            node = IRI(res.node)
            for s, p, o in ds.graph(res.graph):
                if s == node and p.value == RDF_VALUE:
                    additions.append(Quad(node, initial_value, o, IRI(DEFAULT_GRAPH)))
        return ds.apply([], additions)

    # -- sim resource -------------------------------------------------------

    def _sim_graph_name(self) -> str:
        return self.env.base + SIM_PATH

    def _sim_graph(self, iteration: int) -> frozenset:
        assert self.params is not None
        k = self._sim_terms
        sim, time_node, desc_node = k["sim"], k["time"], k["desc"]
        t = self.sim_time(iteration)
        running = iteration < self.params.iterations
        return frozenset([
            (sim, k["currentIteration"], Literal(str(iteration), XSD_INTEGER)),
            (sim, k["iterations"], Literal(str(self.params.iterations), XSD_INTEGER)),
            (sim, k["timeslotDuration"],
             Literal(str(self.params.timeslot_ms), XSD_INTEGER)),
            (sim, k["running"], Literal("true" if running else "false", XSD_BOOLEAN)),
            (sim, k["currentTime"], time_node),
            (time_node, k["inXSDDateTimeStamp"],
             Literal(t.isoformat(), XSD_DATETIMESTAMP)),
            (time_node, k["inDateTime"], desc_node),
            (desc_node, k["year"], Literal(str(t.year), XSD_INTEGER)),
            (desc_node, k["month"], Literal(str(t.month), XSD_INTEGER)),
            (desc_node, k["day"], Literal(str(t.day), XSD_INTEGER)),
            (desc_node, k["hour"], Literal(str(t.hour), XSD_INTEGER)),
            (desc_node, k["minute"], Literal(str(t.minute), XSD_INTEGER)),
        ])

    # -- tick ---------------------------------------------------------------

    def tick(self) -> None:
        started_at = _time.monotonic()
        with self._lock:
            assert self.params is not None and self.started
            t = self.iteration + 1
            sim_time = self.sim_time(t)
            staged = {self._sim_graph_name(): self._sim_graph(t)}
            ds = self._apply_entries(self.dataset, self.env.update_entries, staged,
                                     t, sim_time)
            self.dataset = ds
            self.iteration = t
            checking_at = _time.monotonic()
            self.fault_slots.append(self._check_faults(ds, t, sim_time))
            self.fault_check_seconds.append(_time.monotonic() - checking_at)
        self.tick_seconds.append(_time.monotonic() - started_at)

    def _apply_entries(self, ds: Dataset, entries: list[EnvEntry], staged: dict,
                       iteration: int, sim_time: datetime) -> Dataset:
        """`ds` with the `staged` graphs and then the entries applied, in
        order. Built-ins add their graphs to `staged`; an update first
        publishes what is staged, since it must see the earlier results."""
        for entry in entries:
            if entry.kind == "update":
                ds = ds.replace_graphs(staged)
                staged = {}
                ctx = EvalContext(rng=self.rng, iteration=iteration, op_id=entry.id,
                                  sim_time=sim_time)
                try:
                    ds = eval_update(ds, entry.update, ctx)
                except Exception as exc:
                    raise RuntimeError(f"environment update {entry.id!r} failed "
                                       f"at iteration {iteration}: {exc}") from exc
            elif entry.id == "sunlight":
                self._sunlight(ds, staged, sim_time)
            elif entry.id == "occupancy":
                self._occupancy(ds, staged, iteration, sim_time)
            elif entry.id == "setpoints":
                self._setpoints(ds, staged, iteration)
            else:
                raise RuntimeError(f"unknown builtin process {entry.id!r}")
        return ds.replace_graphs(staged)

    # -- built-in processes ----------------------------------------------------

    def _set_value(self, ds: Dataset, staged: dict, name: str, value: Literal) -> None:
        """Stage graph `name` with `value` as the only `rdf:value` of its
        `#it` node, unless it already is; its other triples stay. The graph
        is read from `staged` if a built-in staged it, else from `ds`; one
        that is as the write record says is not scanned."""
        graph = staged[name] if name in staged else ds.graph(name)
        record = self._written.get(name)
        if record is not None and record[0] is graph and record[1] == value:
            return
        node = IRI(name + "#it")
        current = {tr for tr in graph if tr[0] == node and tr[1] == _RDF_VALUE}
        written = (node, _RDF_VALUE, value)
        if current != {written}:
            graph = staged[name] = graph - current | {written}
        self._written[name] = (graph, value)

    def _as_before(self, builtin: str, inputs, ds: Dataset, categories: tuple) -> bool:
        """Whether `builtin` was last called with equal `inputs` and every
        graph of its categories is still the frozenset its write record
        holds, so that none of its sensors needs a look; notes the inputs."""
        graph = ds.graph
        same = self._last_inputs.get(builtin) == inputs and all(
            graph(res.graph) is self._written.get(res.graph, (None,))[0]
            for category in categories for res in self._by_category.get(category, ()))
        self._last_inputs[builtin] = inputs
        return same

    def _sunlight(self, ds: Dataset, staged: dict, sim_time: datetime) -> None:
        outside = outside_illuminance(sim_time, self.coverage)
        if self._as_before("sunlight", outside, ds, (CAT_OUTSIDE, CAT_LUMINANCE)):
            return
        for res in self._by_category.get(CAT_OUTSIDE, ()):
            self._set_value(ds, staged, res.graph, _lux(outside))
        for res in self._by_category.get(CAT_LUMINANCE, ()):
            occl = self.occlusion.get(res.room, 0.05)
            self._set_value(ds, staged, res.graph, _lux(room_illuminance(outside, occl)))

    def _occupancy(self, ds: Dataset, staged: dict, iteration: int,
                   sim_time: datetime) -> None:
        self.occupants = occupancy_step(
            self.occupants, iteration, hours_of_day(sim_time), self.step_minutes,
            self.rng, OCCUPANCY)
        present = occupied_rooms(self.occupants)
        if self._as_before("occupancy", present, ds, (CAT_OCCUPANCY,)):
            return
        for res in self._by_category.get(CAT_OCCUPANCY, ()):
            self._set_value(ds, staged, res.graph, _ON if res.room in present else _OFF)

    def _setpoints(self, ds: Dataset, staged: dict, iteration: int) -> None:
        low, high = SETPOINT_RANGE
        for res in self._by_category.get(CAT_SETPOINT, ()):
            if self.rng.unit(iteration, "setpoints", res.node) < SETPOINT_RATE:
                draw = self.rng.unit(iteration, "setpoints-value", res.node)
                value = Literal(str(low + int(draw * (high - low + 1))), XSD_INTEGER)
                self._set_value(ds, staged, res.graph, value)

    # -- faults -----------------------------------------------------------------

    def _check_faults(self, ds: Dataset, iteration: int,
                      sim_time: datetime) -> dict[str, frozenset[str]]:
        return {check.fq.id: check.match(ds, iteration, sim_time)
                for check in self._fault_checks}

    def fault_trace(self) -> FaultTrace:
        """Slots 0..k; those a run stopped before reaching are empty, as
        `read_faults_tsv` reads them."""
        assert self.params is not None
        k = self.params.iterations
        slots = list(self.fault_slots)
        return FaultTrace(k=k, slots=slots + [{}] * (k + 1 - len(slots)))

    # -- agent operations ----------------------------------------------------------

    def record_read(self, target: str, status: int, nbytes: int, agent: str) -> None:
        """Log one read; one equal to the agent's last of the graph (same slot,
        status and size) is that frozen record again. New ones are interned."""
        slot = self.iteration
        with self._lock:
            record = self._last_read.get((target, agent))
            if record is None or (record.timeslot, record.status,
                                  record.payload_bytes) != (slot, status, nbytes):
                record = OperationRecord(timeslot=slot, method="GET",
                                         target=sys.intern(target), status=status,
                                         payload_bytes=nbytes, agent=sys.intern(agent))
                self._last_read[record.target, record.agent] = record
            self.ops.append(record)

    def apply_agent_write(self, target: str, value: Literal, agent: str,
                          status: int = 0, nbytes: int = 0) -> OperationRecord:
        """Atomically set `value` as the `rdf:value` of graph `target`'s node
        (a PUT), as a built-in sets a sensor's, and record it with the byte
        count of the body it was parsed from."""
        if value not in COMMAND_VALUES:
            raise ValueError(f"{value!r} is not a light command's value")
        with self._lock:
            staged: dict = {}
            self._set_value(self.dataset, staged, target, value)
            self._written.pop(target, None)  # a built-in reads the graph again
            self.dataset = self.dataset.replace_graphs(staged)
            delta = tuple(staged)
            record = OperationRecord(
                timeslot=self.iteration, method="PUT", target=target, status=status,
                payload_bytes=nbytes, agent=agent, delta_graphs=delta)
            self.ops.append(record)
            return record

    def record_failure(self, method: str, target: str, status: int, agent: str) -> None:
        with self._lock:
            self.ops.append(OperationRecord(
                timeslot=self.iteration, method=method, target=target,
                status=status, agent=agent))

    def snapshot_log(self) -> tuple[dict, list[OperationRecord]]:
        """Run metadata plus the complete ordered operation log."""
        meta = {
            "iterations": self.params.iterations if self.params else 0,
            "seed": self.env.seed,
            "deadline_misses": self.deadline_misses,
            "finished": self.finished.is_set(),
            "tick_p50_ms": tick_percentile(self.tick_seconds, 50.0) * 1000,
            "tick_p95_ms": tick_percentile(self.tick_seconds, 95.0) * 1000,
            "fault_check_p95_ms": tick_percentile(self.fault_check_seconds, 95.0) * 1000,
        }
        return meta, list(self.ops)

    # -- loop ------------------------------------------------------------------

    def _run_loop(self, pace: bool) -> None:
        assert self.params is not None
        slot = self.params.timeslot_ms / 1000.0
        deadline = _time.monotonic()
        for _ in range(self.params.iterations):
            deadline += slot
            self.tick()
            now = _time.monotonic()
            if pace:
                if now > deadline:
                    self.deadline_misses += 1
                    deadline = now
                else:
                    _time.sleep(deadline - now)
        self.finished.set()


def dry_run(env: SimEnvironment, params: RunParams,
            fault_queries: tuple[FaultQuery, ...]) -> FaultTrace:
    """Run the environment with no agent operations and record faults."""
    runtime = SimulationRuntime(env, fault_queries)
    runtime.run_sync(params, pace=False)
    return runtime.fault_trace()


def value_payload(graph: str, value: str) -> frozenset:
    """The one triple a value write PUTs to a light command's graph."""
    return frozenset({(IRI(graph + "#it"), _RDF_VALUE, Literal(value))})


def tick_percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile of the samples; 0.0 for none."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    # pct * n first: ceil(0.07 * 100) is 8, but 7% of 100 samples is rank 7.
    return ordered[max(1, math.ceil(pct * len(ordered) / 100.0)) - 1]


def _lux(value: float) -> Literal:
    return Literal(f"{value:.1f}", XSD_DECIMAL)
