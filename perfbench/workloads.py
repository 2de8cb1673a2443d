"""The four benchmark workloads, driven through ldsim's public calls.

Each workload builds its inputs from the seed, runs its measured phase for
the requested number of seconds (a dry run always completes the full day)
and checks its outputs. It returns an `Outcome`: the end-to-end metrics,
the correctness gates it failed, and the values the traced run reports.

Port dependence (a known defect of ldsim, not fixed here): `rand()` in
task updates and the engine's occupancy and occlusion draws are keyed on
IRIs, and `run_benchmark` builds the dataset at the server's base, which
holds an ephemeral port. Dry-run totals therefore change with the port
(TC1: 105,911 at localhost:8080 against 100,885 and 105,552 at two
127.0.0.1 ports). The dry workloads pin `DEFAULT_BASE`, and the only
scored live workload uses TS3, which draws no randomness. `http-mix` serves
TC6, whose draws do depend on the port, but it scores nothing.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from ldsim import agents, bench, building, engine, httpclient, metrics, ns, rdf, \
    server, sparql, tasks

HERE = Path(__file__).resolve().parent
EXPECTED_TOTALS = json.loads((HERE / "expected_totals.json").read_text())

SETUP_REPEATS = 3
AGENT_SLOT_MS = 500  # the engine's default timeslot
# At 30 req/s and 500 ms slots, TC6 ticks held the interpreter during about
# 5% of the mix, and 40 ms Nagle/delayed-ACK stalls came in cascades that
# feed on lateness: latency swung from 3 to 45 ms at p95 across seeds. Two-
# second slots and 20 req/s keep held requests rare.
MIX_SLOT_MS = 2000
MIX_RATE = 20.0  # requests per second, sustained without a growing backlog
MIX_CONNECTIONS = 2
MIX_PUT_SHARE = 1 / 3
MIX_DYNAMIC_SHARE = 0.75
AGENT = "prefetch"
MIX_AGENT = "mix"


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    tick_ms: float = 0.0  # mean host time per tick


def quantile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def min_samples(pct: float) -> int:
    """Samples needed for ten of them to lie beyond the percentile."""
    return math.ceil(10 / (1 - pct / 100.0) - 1e-9)


def timing(name: str, samples_s: list[float], problems: list[str],
           info: dict) -> dict[str, float]:
    """Median and p95 of one timing, in ms; too few samples is a failure."""
    info[f"{name}_samples"] = len(samples_s)
    if len(samples_s) < min_samples(95):
        problems.append(f"{name}: {len(samples_s)} samples, a p95 needs "
                        f"{min_samples(95)}")
        if not samples_s:
            return {}
    out = {f"{name}_p50_ms": quantile(samples_s, 50) * 1000.0,
           f"{name}_p95_ms": quantile(samples_s, 95) * 1000.0}
    info.update(out)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def deadline_met_ratio(tick_s: list[float], slot_s: float, misses: int = 0) -> float:
    """Ticks that fit their slot; a paced run counts its own misses."""
    over = sum(1 for t in tick_s if t > slot_s)
    return 1.0 - max(over, misses) / max(1, len(tick_s))


def mean_ms(samples_s: list[float]) -> float:
    return 1000.0 * sum(samples_s) / max(1, len(samples_s))


# -- dry runs ----------------------------------------------------------------


def _prepare(task_id: str, seed: int, base: str, generator=None):
    params = generator or building.GeneratorParams(seed=seed)
    pd = building.build_dataset(params=params, base=base)
    task = tasks.load_task(task_id, base)
    env = tasks.build_environment(task, pd, seed)
    return pd, task, env


def _repeat_setup(make):
    """Run a set-up several times; keep the last result and every duration."""
    durations = []
    result = None
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        result = make()
        durations.append(time.perf_counter() - started)
    return result, durations


def _final_slot_check(runtime, task, problems: list[str]) -> None:
    """Re-match the last slot on a copy of the final snapshot whose indexes
    are built from scratch, so a stale incremental index or a stale cached
    fault result shows up as a mismatch."""
    k = runtime.params.iterations
    fresh = rdf.Dataset(dict(runtime.dataset.graphs()))
    recorded = runtime.fault_trace().slots[k]
    for fq in task.fault_queries:
        ctx = sparql.EvalContext(rng=runtime.rng, iteration=k, op_id=f"fault:{fq.id}",
                                 sim_time=runtime.sim_time(k))
        again = metrics.match_faults(fresh, fq, ctx)
        if again != recorded.get(fq.id):
            problems.append(f"slot {k} {fq.id}: {len(again)} faults on a fresh index, "
                            f"{len(recorded.get(fq.id, ()))} recorded")


def dry(task_id: str, seed: int, seconds: float, generator=None,
        slots: int | None = None) -> Outcome:
    """Full-day, unpaced, seed-matched dry runs of one task at DEFAULT_BASE.

    `generator` (a smaller building) and `slots` (a coarser day) are for
    the self-test; the recorded fault totals hold for the defaults only.
    """
    problems: list[str] = []
    (pd, task, env), setups = _repeat_setup(
        lambda: _prepare(task_id, seed, ns.DEFAULT_BASE, generator))
    params = tasks.default_run_params(task, slots)
    expected = None
    if generator is None and slots is None:
        expected = EXPECTED_TOTALS.get(task_id, {}).get(str(seed))
    runs: list[float] = []
    ticks: list[float] = []
    totals: list[int] = []
    began = time.perf_counter()
    while not runs or time.perf_counter() - began < seconds:
        runtime = engine.SimulationRuntime(env, task.fault_queries)
        started = time.perf_counter()
        runtime.run_sync(params, pace=False)
        runs.append(time.perf_counter() - started)
        ticks += runtime.tick_seconds
        totals.append(sum(runtime.fault_trace().counts()))
        _final_slot_check(runtime, task, problems)
    if expected is not None and any(total != expected for total in totals):
        problems.append(f"{task_id} seed {seed}: fault totals {sorted(set(totals))}, "
                        f"expected {expected}")
    if len(set(totals)) > 1:
        problems.append(f"{task_id} seed {seed}: dry runs disagree: {totals}")
    info = {"dry_runs": len(runs), "fault_total": totals[0],
            "expected_total": expected, "fault_queries": len(task.fault_queries),
            "slots": params.iterations + 1}
    tick = timing("tick", ticks, problems, info)
    metric = {
        "setup_s": statistics.median(setups),
        # The user of a dry run waits for all of it.
        "latency_p50_ms": statistics.median(runs) * 1000.0,
        "deadline_met_ratio": deadline_met_ratio(ticks, params.timeslot_ms / 1000.0),
        "peak_rss_mb": peak_rss_mb(),
    }
    layer = {f"bench.{k}": v for k, v in tick.items()}
    return Outcome(metric, attempted=len(runs), failed=1 if problems else 0,
                   problems=problems, layer=layer, info=info, tick_ms=mean_ms(ticks))


# -- live runs ------------------------------------------------------------------


class LiveSystem:
    """A served task: dataset built at the server's base, runtime attached."""

    def __init__(self, task_id: str, seed: int, slots: int, slot_ms: int, generator=None):
        self.server = server.LinkedDataServer()
        self.pd, self.task, self.env = _prepare(task_id, seed, self.server.base,
                                                generator)
        self.params = tasks.default_run_params(self.task, slots, slot_ms)
        self.runtime = engine.SimulationRuntime(self.env, self.task.fault_queries)
        self.server.attach(self.runtime, server.default_policy(self.pd.dynamic))
        self.server.start()

    def dry_run(self):
        """The seed-matched dry run a scored run is normalised by."""
        runtime = engine.SimulationRuntime(self.env, self.task.fault_queries)
        runtime.run_sync(self.params, pace=False)
        return runtime.fault_trace()

    @property
    def base(self) -> str:
        return self.server.base

    def start_run(self) -> float:
        """Start the paced run over HTTP, as `run_benchmark` does."""
        control = httpclient.LdClient(self.base, agent="control")
        try:
            status, body = control.put_raw("sim", bench.sim_start_payload(self.params))
        finally:
            control.close()
        if status != 200:
            raise RuntimeError(f"failed to start run: {status} {body!r}")
        return time.perf_counter()

    def wait(self) -> bool:
        budget = self.params.iterations * self.params.timeslot_ms / 1000.0 * 3 + 30
        return self.runtime.finished.wait(budget)

    def stop(self) -> None:
        self.server.stop()


def live_ticks(live: LiveSystem) -> dict[str, float]:
    """Tick percentiles of a paced run; too few ticks for a gated p95."""
    ticks = live.runtime.tick_seconds
    return {"bench.tick_p50_ms": quantile(ticks, 50) * 1000.0,
            "bench.tick_p95_ms": quantile(ticks, 95) * 1000.0}


def _live_setup(task_id: str, seed: int, seconds: float, slot_ms: int, generator):
    """Set a live system up repeatedly; its run lasts `seconds` of slots."""
    slots = max(1, round(seconds * 1000.0 / slot_ms))
    systems = []

    def make():
        systems.append(LiveSystem(task_id, seed, slots, slot_ms, generator))
        return systems[-1]

    live, durations = _repeat_setup(make)
    for spare in systems[:-1]:
        spare.stop()
    return live, durations


@dataclass
class MixRequest:
    due: float  # seconds after the start of the run
    method: str
    graph: str
    value: str = ""
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    triples: frozenset = frozenset()
    error: str = ""


def mix_schedule(seed: int, seconds: float, dynamic: list, writable: list,
                 static: list) -> list[MixRequest]:
    rng = random.Random(seed)
    out = []
    for i in range(int(MIX_RATE * seconds)):
        due = i / MIX_RATE
        if rng.random() < MIX_PUT_SHARE:
            out.append(MixRequest(due, "PUT", rng.choice(writable),
                                  rng.choice(("on", "off"))))
        elif rng.random() < MIX_DYNAMIC_SHARE:
            out.append(MixRequest(due, "GET", rng.choice(dynamic)))
        else:
            out.append(MixRequest(due, "GET", rng.choice(static)))
    return out


def _send_open_loop(client, schedule: list[MixRequest], t0: float) -> None:
    """Senders take requests in due order and never send one early."""
    cursor = iter(schedule)
    lock = threading.Lock()

    def sender():
        while True:
            with lock:
                req = next(cursor, None)
            if req is None:
                break
            delay = t0 + req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            req.sent = time.perf_counter()
            try:
                if req.method == "GET":
                    req.status, req.triples = client.get_graph(req.graph)
                else:
                    node = rdf.IRI(req.graph + "#it")
                    req.status = client.put_graph(req.graph, {
                        (node, rdf.IRI(ns.RDF_VALUE), rdf.Literal(req.value))})
            except Exception as exc:  # a failed request, reported by the caller
                req.error = repr(exc)
            req.done = time.perf_counter()
        client.close()

    threads = [threading.Thread(target=sender, name=f"mix-{i}")
               for i in range(MIX_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _check_mix(schedule: list[MixRequest], live: LiveSystem) -> int:
    """Failed requests: a GET must return 200 with the node's value (or the
    unchanged static graph), a PUT must return 204."""
    dynamic = live.pd.dynamic
    final = live.runtime.dataset
    failed = 0
    for req in schedule:
        if req.method == "PUT":
            ok = req.status == 204
        elif req.status != 200:
            ok = False
        elif req.graph in dynamic:
            node = rdf.IRI(dynamic[req.graph].node)
            values = [o for s, p, o in req.triples
                      if s == node and p.value == ns.RDF_VALUE]
            ok = len(values) == 1 and isinstance(values[0], rdf.Literal)
        else:
            ok = req.triples == final.graph(req.graph)
        failed += not ok
    return failed


def http_mix(seed: int, seconds: float, generator=None) -> Outcome:
    """Open-loop GET/PUT mix against a served, paced TC6 run."""
    problems: list[str] = []
    live, setups = _live_setup("TC6", seed, seconds, MIX_SLOT_MS, generator)
    try:
        dynamic = sorted(live.pd.dynamic)
        writable = sorted(g for g, res in live.pd.dynamic.items()
                          if res.category == building.CAT_COMMAND)
        static = sorted(g for g in live.pd.dataset.graph_names()
                        if g not in live.pd.dynamic and g != ns.DEFAULT_GRAPH
                        and g.startswith(live.base))
        schedule = mix_schedule(seed, seconds, dynamic, writable, static)
        client = httpclient.LdClient(live.base, agent=MIX_AGENT)
        t0 = live.start_run()
        _send_open_loop(client, schedule, t0)
        finished = live.wait()
        run_s = time.perf_counter() - t0
        _meta, ops = live.runtime.snapshot_log()
        failed = _check_mix(schedule, live)
    finally:
        live.stop()
    if not finished:
        problems.append("paced run did not finish in its budget")
    if failed:
        problems.append(f"{failed} of {len(schedule)} requests failed their check")
    errors = [r.error for r in schedule if r.error]
    if errors:
        problems.append(f"{len(errors)} requests raised; first: {errors[0]}")
    for problem in metrics.audit_write_deltas(ops):
        problems.append(f"write audit: {problem}")
    latency = [r.done - (t0 + r.due) for r in schedule]
    gets = [r.done - (t0 + r.due) for r in schedule if r.method == "GET"]
    puts = [r.done - (t0 + r.due) for r in schedule if r.method == "PUT"]
    lag = [r.sent - (t0 + r.due) for r in schedule]
    span = max(r.done for r in schedule) - t0
    slot_s = live.params.timeslot_ms / 1000.0
    info = {"requests": len(schedule), "gets": len(gets), "puts": len(puts),
            "rate_per_s": MIX_RATE, "connections": MIX_CONNECTIONS,
            "slot_ms": live.params.timeslot_ms}
    info.update(run_s=run_s, ops_per_s=len(schedule) / span)
    metric = {
        "setup_s": statistics.median(setups),
        **timing("latency", latency, problems, info),
        "deadline_met_ratio": deadline_met_ratio(live.runtime.tick_seconds, slot_s,
                                                 live.runtime.deadline_misses),
        "peak_rss_mb": peak_rss_mb(),
    }
    layer = {
        **live_ticks(live),
        "bench.gen_lag_p95_ms": quantile(lag, 95) * 1000.0,
        "bench.get_p50_ms": quantile(gets, 50) * 1000.0,
        "bench.get_p95_ms": quantile(gets, 95) * 1000.0,
        "bench.put_p50_ms": quantile(puts, 50) * 1000.0,
        "bench.put_p90_ms": quantile(puts, 90) * 1000.0,
    }
    return Outcome(metric, attempted=len(schedule), failed=failed, problems=problems,
                   layer=layer, info=info, tick_ms=mean_ms(live.runtime.tick_seconds))


class TimedClient:
    """Times each GET the agent makes and notes whether the graph changed
    since the agent last fetched it."""

    def __init__(self, client):
        self._get = client.get_graph
        client.get_graph = self.get_graph
        self.latency: list[float] = []
        self.refetches = 0
        self.changed = 0
        self._last: dict[str, frozenset] = {}
        self._lock = threading.Lock()

    def get_graph(self, iri: str):
        started = time.perf_counter()
        status, triples = self._get(iri)
        elapsed = time.perf_counter() - started
        with self._lock:
            self.latency.append(elapsed)
            if status == 200:
                if iri in self._last:
                    self.refetches += 1
                    self.changed += self._last[iri] != triples
                self._last[iri] = triples
        return status, triples


def make_agent(live: LiveSystem, fanout: int):
    """The prefetch agent exactly as `run_benchmark` builds it, but with the
    given fan-out."""
    base, task = live.base, live.task
    follow = list(agents.DEFAULT_FOLLOW) + [base + "vocab/building#weatherReport"]
    if task.requires_reasoning:
        follow += [ns.RDF_TYPE, ns.RDFS_SUBCLASS]
    config = agents.AgentConfig(
        mode=AGENT, rules=agents.parse_rules(task.rules_text, base=base),
        seed_iri=base + "building", reasoning=task.requires_reasoning,
        follow_predicates=tuple(follow), poll_interval=0.0, fanout=fanout)
    client = httpclient.LdClient(base, agent=AGENT)
    return agents.RuleAgent(client, config, prefetch_dataset=live.pd.dataset), client


def agent_ts3(seed: int, seconds: float, generator=None) -> Outcome:
    """A scored live TS3 run of the prefetch agent with two fetch threads."""
    problems: list[str] = []
    live, setups = _live_setup("TS3", seed, seconds, AGENT_SLOT_MS, generator)
    crashed: list[BaseException] = []
    stop = threading.Event()
    worker = None
    try:
        started = time.perf_counter()
        dry_trace = live.dry_run()
        dry_s = time.perf_counter() - started
        agent, client = make_agent(live, fanout=MIX_CONNECTIONS)
        timed = TimedClient(client)

        def agent_main():
            try:
                agent.run(stop)
            except Exception as exc:  # reported as a failed gate
                crashed.append(exc)

        worker = threading.Thread(target=agent_main, name="agent")
        worker.start()
        t0 = live.start_run()
        finished = live.wait()
        run_s = time.perf_counter() - t0
    finally:
        stop.set()
        if worker is not None:
            worker.join(60)
        live.stop()
    if worker.is_alive():
        problems.append("agent did not stop within 60 s")
    trace = live.runtime.fault_trace()
    _meta, ops = live.runtime.snapshot_log()
    notes = []
    if not finished:
        notes.append("run did not finish in budget")
    if live.runtime.deadline_misses:
        notes.append(f"{live.runtime.deadline_misses} tick deadline misses")
    if crashed:
        notes.append(f"agent crashed: {crashed[0]!r}")
    agent_ops = [op for op in ops if op.agent == AGENT]
    report = metrics.compute_metrics(trace, dry_trace, agent_ops, valid=not notes,
                                     notes="; ".join(notes))
    if not report.valid:
        problems.append(f"invalid report: {report.notes}")
    if report.writes != live.task.ideal_writes:
        problems.append(f"{report.writes} agent writes, ideal is {live.task.ideal_writes}")
    for problem in metrics.audit_write_deltas(ops):
        problems.append(f"write audit: {problem}")
    k = live.params.iterations
    reads = sum(1 for op in agent_ops if op.is_read and op.ok and op.timeslot < k)
    writes = [op for op in agent_ops if not op.is_read]
    failed = sum(1 for op in agent_ops if not op.ok)
    slot_s = live.params.timeslot_ms / 1000.0
    info = {"nfc": report.normalized_fault_count, "reads": report.reads,
            "writes": report.writes, "loops": agent.stats.loops,
            "fault_total": report.total_faults, "dry_total": report.dry_total_faults,
            "slot_ms": live.params.timeslot_ms, "dry_run_s": dry_s}
    info.update(run_s=run_s)
    metric = {
        "setup_s": statistics.median(setups) + dry_s,
        **timing("latency", timed.latency, problems, info),
        "deadline_met_ratio": deadline_met_ratio(live.runtime.tick_seconds, slot_s,
                                                 live.runtime.deadline_misses),
        "peak_rss_mb": peak_rss_mb(),
    }
    layer = {
        **live_ticks(live),
        "agents.reads_per_s": reads / run_s,
        "agents.nfc": report.normalized_fault_count or 0.0,
        "agents.changed_reads_ratio": timed.changed / max(1, timed.refetches),
        "agents.useful_writes_ratio":
            sum(1 for op in writes if op.delta_graphs) / max(1, len(writes)),
    }
    return Outcome(metric, attempted=max(1, len(agent_ops)), failed=failed,
                   problems=problems, layer=layer, info=info,
                   tick_ms=mean_ms(live.runtime.tick_seconds))


WORKLOADS = {
    "dry-tc2": lambda seed, seconds, **size: dry("TC2", seed, seconds, **size),
    "dry-tc6": lambda seed, seconds, **size: dry("TC6", seed, seconds, **size),
    "http-mix": http_mix,
    "agent-ts3": agent_ts3,
}
