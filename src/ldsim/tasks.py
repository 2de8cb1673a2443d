"""The ten benchmark tasks: initialization updates, environmental updates,
fault queries and per-task metadata, plus the privileged oracle agent used
as the acceptance baseline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

from .building import CAT_COMMAND, CAT_LUMINANCE, CAT_OCCUPANCY, CAT_OUTSIDE, \
    CAT_SETPOINT, HAS_PART, PartitionedDataset
from .engine import EnvEntry, RunParams, SimEnvironment, SimulationRuntime, \
    hours_of_day
from .metrics import FaultQuery
from .ns import RDF_VALUE, defrag
from .rdf import IRI, Literal
from .sparql import EvalContext, closure, eval_query, parse_query, parse_update

TASK_IDS = ("TS1", "TS2", "TS3", "TC1", "TC2", "TC3", "TC4", "TC5", "TC6", "TC7")

@dataclass
class TaskSpec:
    id: str
    init_entries: list[EnvEntry]
    update_entries: list[EnvEntry]
    fault_queries: tuple[FaultQuery, ...]
    duration: int
    requires_reasoning: bool
    ideal_writes: int
    rules_text: str = ""


def read_properties(path: Path) -> dict[str, str]:
    """Plain `key = value` files; '#' starts a comment line."""
    out: dict[str, str] = {}
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}: malformed line {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _ordered(props: dict[str, str], prefix: str) -> list[str]:
    """The values of `prefix.1`, `prefix.2`, ... in numeric order."""
    pattern = re.compile(rf"^{re.escape(prefix)}\.(\d+)$")
    found = []
    for key, value in props.items():
        m = pattern.match(key)
        if m:
            found.append((int(m.group(1)), value))
    return [value for _, value in sorted(found)]


def load_task(task_id: str, base: str) -> TaskSpec:
    """Resolve one task directory into parsed updates and queries."""
    if task_id not in TASK_IDS:
        raise ValueError(f"unknown task {task_id!r}")
    task_dir = Path(resources.files("ldsim") / "taskdefs" / task_id)
    props = read_properties(task_dir / "task.properties")

    def entries(prefix: str) -> list[EnvEntry]:
        out = []
        for value in _ordered(props, prefix):
            if value.startswith("builtin:"):
                out.append(EnvEntry(id=value.split(":", 1)[1], kind="builtin"))
            else:
                text = (task_dir / value).read_text()
                out.append(EnvEntry(id=Path(value).stem, kind="update",
                                    update=parse_update(text, base=base)))
        return out

    fault_queries = tuple(
        FaultQuery(id=Path(value).stem,
                   query=parse_query((task_dir / value).read_text(), base=base))
        for value in _ordered(props, "fault"))

    rules_path = task_dir / "agent.rules"
    return TaskSpec(
        id=task_id,
        init_entries=entries("init"),
        update_entries=entries("update"),
        fault_queries=fault_queries,
        duration=int(props.get("duration", 1440)),
        requires_reasoning=props.get("reasoning", "false") == "true",
        ideal_writes=int(props.get("ideal.writes", 0)),
        rules_text=rules_path.read_text() if rules_path.exists() else "",
    )


def build_environment(task: TaskSpec, pd: PartitionedDataset, seed: int) -> SimEnvironment:
    return SimEnvironment(
        dataset=pd.dataset,
        init_entries=task.init_entries,
        update_entries=task.update_entries,
        seed=seed,
        base=pd.base,
        dynamic=pd.dynamic,
    )


def default_run_params(task: TaskSpec, iterations: int | None = None,
                       timeslot_ms: int = 500) -> RunParams:
    """24 simulated hours regardless of slot count."""
    k = iterations or task.duration
    return RunParams(
        initial_time=datetime(2020, 5, 22, 0, 0, tzinfo=timezone.utc),
        timeslot_ms=timeslot_ms,
        iterations=k,
        step_seconds=max(1, 86400 // k),
    )


# -- ground truth for the oracle ----------------------------------------------


def fault_targets(runtime: SimulationRuntime, fq: FaultQuery) -> list[str]:
    """Graph IRIs of the ?it nodes currently matching one fault query."""
    ctx = EvalContext(rng=runtime.rng, iteration=runtime.iteration,
                      op_id=f"probe:{fq.id}", sim_time=runtime.sim_time())
    solutions = eval_query(runtime.dataset, fq.query, ctx)
    out = []
    for sol in solutions:
        it = sol.get("it")
        if isinstance(it, IRI):
            out.append(defrag(it.value))
    return sorted(set(out))


def current_value(runtime: SimulationRuntime, graph: str) -> str | None:
    node = IRI(graph + "#it")
    for s, p, o in runtime.dataset.graph(graph):
        if s == node and p.value == RDF_VALUE and isinstance(o, Literal):
            return o.lexical
    return None


# -- oracle agent ---------------------------------------------------------------


@dataclass(frozen=True)
class OracleAction:
    """One scripted phase: reads then writes, issued during timeslot `at`."""

    at: int
    reads: tuple[str, ...] = ()
    writes: tuple[tuple[str, str], ...] = ()  # (property graph, value)


def _resources(runtime: SimulationRuntime, category: str) -> list:
    return sorted((r for r in runtime.env.dynamic.values()
                   if r.category == category), key=lambda r: r.graph)


def _co_located(runtime: SimulationRuntime, category: str, with_category: str) -> list:
    """Resources of one category whose system also carries another category."""
    systems = {r.system for r in runtime.env.dynamic.values()
               if r.category == with_category}
    return [r for r in _resources(runtime, category) if r.system in systems]


def _slot_of_hour(runtime: SimulationRuntime, hour: int) -> int:
    assert runtime.params is not None
    k = runtime.params.iterations
    for t in range(k + 1):
        if hours_of_day(runtime.sim_time(t)) >= hour:
            return t
    return k


def oracle_schedule(task: TaskSpec, runtime: SimulationRuntime) -> list[OracleAction]:
    """Minimal operation schedule reaching zero residual faults, in slot order.

    The oracle reads ground truth from the runtime (bypassing discovery) but
    still acts over HTTP; reads listed here are issued as real requests.
    """
    commands = [r.graph for r in _resources(runtime, CAT_COMMAND)]
    sensed_cmds = [r.graph for r in _co_located(runtime, CAT_COMMAND, CAT_LUMINANCE)]
    occupancy = [r.graph for r in _co_located(runtime, CAT_OCCUPANCY, CAT_COMMAND)]
    luminance = [r.graph for r in _resources(runtime, CAT_LUMINANCE)]
    setpoints = [r.graph for r in _resources(runtime, CAT_SETPOINT)]
    outside = [r.graph for r in _resources(runtime, CAT_OUTSIDE)]
    k = runtime.params.iterations if runtime.params else task.duration
    mid = max(1, k // 2)

    def values(graphs: list[str]) -> dict[str, str]:
        return {g: current_value(runtime, g) or "off" for g in graphs}

    if task.id == "TS1":
        return [OracleAction(at=0, writes=tuple((g, "off") for g in commands))]
    if task.id == "TS2":
        toggled = tuple((g, "off" if v == "on" else "on")
                        for g, v in values(commands).items())
        return [OracleAction(at=0, reads=tuple(commands), writes=toggled)]
    if task.id == "TS3":
        hygiene = fault_targets(runtime, task.fault_queries[0])
        return [OracleAction(at=0, writes=tuple((g, "off") for g in hygiene))]
    if task.id == "TC1":
        initial = values(commands)
        fix_night = tuple((g, "off") for g, v in initial.items() if v == "on")
        sunrise = _slot_of_hour(runtime, 6)
        sunset = _slot_of_hour(runtime, 21)
        return [
            OracleAction(at=0, reads=tuple(commands), writes=fix_night),
            OracleAction(at=sunrise, writes=tuple((g, "on") for g in commands)),
            OracleAction(at=sunset, writes=tuple((g, "off") for g in commands)),
        ]
    if task.id == "TC2":
        return _tc2_schedule(task, runtime, commands, values)
    if task.id == "TC3":
        return [OracleAction(at=0, reads=tuple(outside + commands),
                             writes=tuple((g, "on") for g in commands))]
    # The sensed-light tasks turn the sensed lights on at slot 0 and differ
    # only in the sensors read then and at mid-run.
    sensed = {"TC4": (luminance, luminance), "TC5": (occupancy, occupancy),
              "TC6": (occupancy + luminance, occupancy),
              "TC7": (occupancy + luminance + setpoints, occupancy)}
    if task.id in sensed:
        first, later = sensed[task.id]
        return [OracleAction(at=0, reads=tuple(first),
                             writes=tuple((g, "on") for g in sensed_cmds)),
                OracleAction(at=mid, reads=tuple(later))]
    raise ValueError(f"no oracle for task {task.id!r}")


def _tc2_schedule(task: TaskSpec, runtime: SimulationRuntime,
                  commands: list[str], values) -> list[OracleAction]:
    base = runtime.env.base
    ds = runtime.dataset
    bldg = base + "vocab/building#"
    floors: dict[str, tuple[int, int]] = {}
    for s, o, _g in ds.pred_entries(bldg + "openHour"):
        floors[s.value] = (int(o.lexical), 0)
    for s, o, _g in ds.pred_entries(bldg + "closeHour"):
        open_h, _ = floors.get(s.value, (8, 0))
        floors[s.value] = (open_h, int(o.lexical))

    parts = ds.pred_nav(HAS_PART)[0]
    per_floor: dict[str, list[str]] = {}
    room_of = {r.graph: r.room for r in runtime.env.dynamic.values()}
    for floor in floors:
        rooms = {t.value for t in closure(parts, None, IRI(floor))
                 if isinstance(t, IRI)}
        per_floor[floor] = [g for g in commands if room_of.get(g, "") in rooms]

    initial = values(commands)
    actions = [OracleAction(at=0, reads=tuple(commands),
                            writes=tuple((g, "off") for g, v in initial.items()
                                         if v == "on"))]
    events: dict[int, list[tuple[str, str]]] = {}
    for floor, (open_h, close_h) in floors.items():
        open_slot = _slot_of_hour(runtime, open_h)
        close_slot = _slot_of_hour(runtime, close_h)
        events.setdefault(open_slot, []).extend(
            (g, "on") for g in per_floor[floor])
        events.setdefault(close_slot, []).extend(
            (g, "off") for g in per_floor[floor])
    for at in sorted(events):
        actions.append(OracleAction(at=at, writes=tuple(events[at])))
    return actions
