"""Discrete-time simulation engine.

Owns the run lifecycle: one tick per timeslot advances simulated time,
applies the registered environmental updates (built-in processes and
update files, in order), evaluates fault queries at the slot boundary and
publishes an immutable dataset snapshot. Randomness is counter-based
(a hash of seed, iteration, update id and binding key), never a sequential
stream, so agent writes cannot desynchronize seed-matched runs.
"""

from __future__ import annotations

import hashlib
import logging
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
from .metrics import FaultQuery, match_faults
from .ns import (
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
from .sparql import EvalContext, Update, eval_update, read_predicates
from .trace import FaultTrace, OperationRecord

log = logging.getLogger(__name__)

_RDF_VALUE = IRI(RDF_VALUE)


# -- keyed randomness -----------------------------------------------------------


class KeyedRandom:
    """Counter-based random source: a pure function of seed and key parts."""

    def __init__(self, seed: int):
        self.seed = seed

    def unit(self, *key) -> float:
        material = "\x1f".join(str(part) for part in (self.seed, *key))
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
    """Thresholds are per simulated minute; the step scales them per slot."""

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

    Each occupant consumes exactly one keyed draw per slot, keyed by its IRI,
    so transitions are stable across seed-matched runs.
    """

    def scaled(rate: float) -> float:
        return min(1.0, rate * step_minutes)

    out = []
    for occ in occupants:
        draw = rng.unit(iteration, "occupancy", occ.iri)
        state, since, lunched = occ.state, occ.since, occ.lunched
        if hour >= cfg.closing_hour and state not in (HOME, GONE):
            state = GONE
        elif state == GONE and hour < cfg.arrive_from_hour:
            state, lunched = HOME, False
        elif state == HOME:
            if cfg.arrive_from_hour <= hour < cfg.closing_hour \
                    and draw < scaled(cfg.arrive_rate):
                state, since = ARRIVING, iteration
        elif state == ARRIVING:
            if (iteration - since) * step_minutes >= cfg.commute_minutes:
                state, since = AT_DESK, iteration
        elif state == AT_DESK:
            if (not lunched and cfg.lunch_from_hour <= hour < cfg.lunch_until_hour
                    and draw < scaled(cfg.lunch_rate)):
                state, since = AT_LUNCH, iteration
            elif hour >= cfg.leave_from_hour and draw < scaled(cfg.leave_rate):
                state = GONE
        elif state == AT_LUNCH:
            if ((iteration - since) * step_minutes >= cfg.lunch_min_minutes
                    and draw < scaled(cfg.lunch_return_rate)):
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
    occupancy_cfg: OccupancyConfig = field(default_factory=OccupancyConfig)
    setpoint_rate: float = 0.01
    setpoint_range: tuple[int, int] = (200, 800)


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
        self.fault_checks = tuple(fault_checks)
        self.rng = KeyedRandom(env.seed)
        self.dataset = env.dataset
        self.params: RunParams | None = None
        self.iteration = 0
        self.started = False
        self.finished = threading.Event()
        self.deadline_misses = 0
        self.tick_seconds: list[float] = []
        self.fault_check_seconds: list[float] = []  # the fault-check phase of each tick
        self.fault_slots: list[dict[str, frozenset[str]]] = []
        # Per fault check: the predicates it reads (None: evaluate every
        # slot), and the index entries and result of its last evaluation.
        self._fault_memo: list[tuple[frozenset[str] | None, tuple | None, frozenset]] = [
            (read_predicates(fc.query), None, frozenset()) for fc in self.fault_checks]
        self.ops: list[OperationRecord] = []
        self.coverage: tuple[float, float] = (0.0, 0.0)
        self.occlusion: dict[str, float] = {}
        self.occupants: tuple[Occupant, ...] = ()
        self._lock = threading.RLock()
        self._thread: threading.Thread | None = None
        self._by_category: dict[str, list[DynamicResource]] = {}
        for res in env.dynamic.values():
            self._by_category.setdefault(res.category, []).append(res)
        for resources in self._by_category.values():
            resources.sort(key=lambda r: r.graph)

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
        self._thread = threading.Thread(target=self._run_loop, args=(pace,),
                                        daemon=True, name="tick-loop")
        self._thread.start()

    def run_sync(self, params: RunParams, pace: bool = False) -> None:
        with self._lock:
            if self.started:
                raise RuntimeError("run already in progress")
            self.initialize(params)
        self._run_loop(pace)

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

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
        ds = self.env.dataset
        ctx_time = self.sim_time(0)
        for entry in self.env.init_entries:
            ds = self._apply_entry(ds, entry, 0, ctx_time)
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
        sim = IRI(self._sim_graph_name())
        vocab = self.env.base + SIM_VOCAB
        t = self.sim_time(iteration)
        time_node = IRI(sim.value + "#time")
        desc_node = IRI(sim.value + "#time-desc")
        running = iteration < self.params.iterations
        return frozenset([
            (sim, IRI(vocab + "currentIteration"),
             Literal(str(iteration), XSD_INTEGER)),
            (sim, IRI(vocab + "iterations"),
             Literal(str(self.params.iterations), XSD_INTEGER)),
            (sim, IRI(vocab + "timeslotDuration"),
             Literal(str(self.params.timeslot_ms), XSD_INTEGER)),
            (sim, IRI(vocab + "running"),
             Literal("true" if running else "false", XSD_BOOLEAN)),
            (sim, IRI(vocab + "currentTime"), time_node),
            (time_node, IRI(OWL_TIME + "inXSDDateTimeStamp"),
             Literal(t.isoformat(), XSD_DATETIMESTAMP)),
            (time_node, IRI(OWL_TIME + "inDateTime"), desc_node),
            (desc_node, IRI(OWL_TIME + "year"), Literal(str(t.year), XSD_INTEGER)),
            (desc_node, IRI(OWL_TIME + "month"), Literal(str(t.month), XSD_INTEGER)),
            (desc_node, IRI(OWL_TIME + "day"), Literal(str(t.day), XSD_INTEGER)),
            (desc_node, IRI(OWL_TIME + "hour"), Literal(str(t.hour), XSD_INTEGER)),
            (desc_node, IRI(OWL_TIME + "minute"), Literal(str(t.minute), XSD_INTEGER)),
        ])

    # -- tick ---------------------------------------------------------------

    def tick(self) -> None:
        started_at = _time.monotonic()
        with self._lock:
            assert self.params is not None and self.started
            t = self.iteration + 1
            sim_time = self.sim_time(t)
            ds = self.dataset.replace_graphs(
                {self._sim_graph_name(): self._sim_graph(t)})
            for entry in self.env.update_entries:
                ds = self._apply_entry(ds, entry, t, sim_time)
            self.dataset = ds
            self.iteration = t
            checking_at = _time.monotonic()
            self.fault_slots.append(self._check_faults(ds, t, sim_time))
            self.fault_check_seconds.append(_time.monotonic() - checking_at)
        self.tick_seconds.append(_time.monotonic() - started_at)

    def _apply_entry(self, ds: Dataset, entry: EnvEntry, iteration: int,
                     sim_time: datetime) -> Dataset:
        if entry.kind == "update":
            ctx = EvalContext(rng=self.rng, iteration=iteration, op_id=entry.id,
                              sim_time=sim_time)
            try:
                return eval_update(ds, entry.update, ctx)
            except Exception as exc:
                raise RuntimeError(f"environment update {entry.id!r} failed "
                                   f"at iteration {iteration}: {exc}") from exc
        if entry.id == "sunlight":
            return self._sunlight(ds, sim_time)
        if entry.id == "occupancy":
            return self._occupancy(ds, iteration, sim_time)
        if entry.id == "setpoints":
            return self._setpoints(ds, iteration)
        raise RuntimeError(f"unknown builtin process {entry.id!r}")

    # -- built-in processes ----------------------------------------------------

    def _set_value(self, ds: Dataset, values: dict, staged: dict,
                   res: DynamicResource, value: Literal) -> None:
        """Stage `res.graph` with `value` as the node's only `rdf:value`,
        unless it already is; `values` is the snapshot's `rdf:value`
        subject -> object -> graphs map."""
        node = IRI(res.node)
        current = [o for o, graphs in values.get(node, {}).items() if res.graph in graphs]
        if current == [value]:
            return
        staged[res.graph] = (ds.graph(res.graph)
                             - {(node, _RDF_VALUE, o) for o in current}
                             | {(node, _RDF_VALUE, value)})

    def _sunlight(self, ds: Dataset, sim_time: datetime) -> Dataset:
        outside = outside_illuminance(sim_time, self.coverage)
        values = ds.pred_nav(RDF_VALUE)[0]
        staged: dict = {}
        for res in self._by_category.get(CAT_OUTSIDE, ()):
            self._set_value(ds, values, staged, res, _lux(outside))
        for res in self._by_category.get(CAT_LUMINANCE, ()):
            occl = self.occlusion.get(res.room, 0.05)
            self._set_value(ds, values, staged, res,
                            _lux(room_illuminance(outside, occl)))
        return ds.replace_graphs(staged) if staged else ds

    def _occupancy(self, ds: Dataset, iteration: int, sim_time: datetime) -> Dataset:
        self.occupants = occupancy_step(
            self.occupants, iteration, hours_of_day(sim_time), self.step_minutes,
            self.rng, self.env.occupancy_cfg)
        present = occupied_rooms(self.occupants)
        values = ds.pred_nav(RDF_VALUE)[0]
        staged: dict = {}
        for res in self._by_category.get(CAT_OCCUPANCY, ()):
            value = Literal("on" if res.room in present else "off")
            self._set_value(ds, values, staged, res, value)
        return ds.replace_graphs(staged) if staged else ds

    def _setpoints(self, ds: Dataset, iteration: int) -> Dataset:
        low, high = self.env.setpoint_range
        values = ds.pred_nav(RDF_VALUE)[0]
        staged: dict = {}
        for res in self._by_category.get(CAT_SETPOINT, ()):
            if self.rng.unit(iteration, "setpoints", res.node) < self.env.setpoint_rate:
                draw = self.rng.unit(iteration, "setpoints-value", res.node)
                value = Literal(str(low + int(draw * (high - low + 1))), XSD_INTEGER)
                self._set_value(ds, values, staged, res, value)
        return ds.replace_graphs(staged) if staged else ds

    # -- faults -----------------------------------------------------------------

    def _check_faults(self, ds: Dataset, iteration: int,
                      sim_time: datetime) -> dict[str, frozenset[str]]:
        out = {}
        for i, fc in enumerate(self.fault_checks):
            reads, last_entries, last_result = self._fault_memo[i]
            if reads is not None:
                # Entries are immutable and shared across versions while
                # their triples stay the same (see `rdf`), so the same
                # entry objects mean the same solutions.
                entries = tuple(ds.pred_entries(p) for p in reads)
                if last_entries is not None and all(
                        a is b for a, b in zip(last_entries, entries)):
                    out[fc.id] = last_result
                    continue
            ctx = EvalContext(rng=self.rng, iteration=iteration,
                              op_id=f"fault:{fc.id}", sim_time=sim_time)
            out[fc.id] = match_faults(ds, fc, ctx)
            if reads is not None:
                self._fault_memo[i] = (reads, entries, out[fc.id])
        return out

    def fault_trace(self) -> FaultTrace:
        assert self.params is not None
        return FaultTrace(
            k=self.params.iterations,
            slots=list(self.fault_slots),
            lengths={fc.id: fc.length for fc in self.fault_checks})

    # -- agent operations ----------------------------------------------------------

    def record_read(self, target: str, status: int, nbytes: int, agent: str) -> None:
        # Interned, every read of one graph by one agent shares the strings.
        record = OperationRecord(timeslot=self.iteration, method="GET",
                                 target=sys.intern(target), classification="read",
                                 status=status, payload_bytes=nbytes,
                                 agent=sys.intern(agent))
        with self._lock:
            self.ops.append(record)

    def apply_agent_write(self, target: str, triples: frozenset, agent: str,
                          status: int = 0) -> OperationRecord:
        """Atomically replace one graph with `triples` (a PUT) and record it."""
        with self._lock:
            new_ds = self.dataset.replace_graphs({target: triples})
            delta = (target,) if new_ds is not self.dataset else ()
            self.dataset = new_ds
            record = OperationRecord(
                timeslot=self.iteration, method="PUT", target=target,
                classification="replace", status=status,
                payload_bytes=len(triples), agent=agent, delta_graphs=delta)
            self.ops.append(record)
            return record

    def record_failure(self, method: str, target: str, status: int, agent: str) -> None:
        cls = "read" if method == "GET" else "replace"
        with self._lock:
            self.ops.append(OperationRecord(
                timeslot=self.iteration, method=method, target=target,
                classification=cls, status=status, agent=agent))

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


def tick_percentile(samples: list[float], pct: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(pct / 100.0 * len(ordered) + 0.5)) - 1)
    return ordered[max(0, index)]


def _lux(value: float) -> Literal:
    return Literal(f"{value:.1f}", XSD_DECIMAL)
