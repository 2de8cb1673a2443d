"""Benchmark orchestration and the command line interface.

`serve_task` stands a task up at a new server: it builds the building at the
server's base, loads the task and attaches a fresh runtime. `ldsim serve`
calls it and waits for a run to be started over HTTP. `run_benchmark` calls
it too, then executes the seed-matched dry run used for normalization,
attaches an agent, kicks the run off over HTTP and scores the recorded
trace.
"""

from __future__ import annotations

import argparse
import logging
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .agents import DEFAULT_FOLLOW, AgentConfig, AgentStats, RuleAgent, parse_rules
from .building import (
    GeneratorParams,
    PartitionedDataset,
    build_dataset,
    validate_counts,
    write_dataset,
)
from .engine import RunParams, SimulationRuntime, dry_run, value_payload
from .httpclient import LdClient
from .metrics import (
    MetricsReport,
    audit_write_deltas,
    compute_metrics,
    read_metrics_tsv,
    write_metrics_tsv,
)
from .ns import DEFAULT_BASE, DEFAULT_GRAPH, RDF_TYPE, RDFS_SUBCLASS, SIM_PATH, SIM_VOCAB
from .server import LinkedDataServer, default_policy
from .tasks import (
    TASK_IDS,
    TaskSpec,
    build_environment,
    default_run_params,
    load_task,
    oracle_schedule,
)
from .trace import FaultTrace, read_faults_tsv, read_ops_tsv, write_faults_tsv, write_ops_tsv

log = logging.getLogger(__name__)

AGENT_KINDS = ("noop", "oracle", "prefetch", "traversal")


@dataclass
class BenchResult:
    task_id: str
    agent: str
    seed: int
    report: MetricsReport
    meta: dict
    trace: FaultTrace
    dry: FaultTrace
    ops: list
    agent_stats: AgentStats | None = None
    paths: dict = field(default_factory=dict)


def sim_start_payload(params: RunParams) -> str:
    return (
        f"@prefix sim: <{SIM_VOCAB}> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        f'<{SIM_PATH}> sim:initialTime "{params.initial_time.isoformat()}"^^xsd:dateTime ;\n'
        f"      sim:timeslotDuration {params.timeslot_ms} ;\n"
        f"      sim:iterations {params.iterations} ;\n"
        f"      sim:simulatedStep {params.step_seconds} .\n"
    )


class OracleRunner:
    """Executes the privileged schedule over HTTP at the scripted slots."""

    def __init__(self, task: TaskSpec, runtime: SimulationRuntime, client: LdClient):
        self.task = task
        self.runtime = runtime
        self.client = client
        self.stats = AgentStats()

    def run(self, stop: threading.Event) -> None:
        while not self.runtime.started and not stop.is_set():
            stop.wait(0.01)
        if stop.is_set():
            return
        # Slot k comes after the last tick, and before `finished` is set: a
        # write there could change no fault.
        k = self.runtime.params.iterations
        for action in oracle_schedule(self.task, self.runtime):
            while self.runtime.iteration < action.at and not stop.is_set():
                stop.wait(0.005)
            if stop.is_set() or self.runtime.iteration >= k:
                return
            for graph in action.reads:
                status, _ = self.client.get_graph(graph)
                if status == 200:
                    self.stats.reads += 1
                else:
                    self.stats.errors += 1
            for graph, value in action.writes:
                status = self.client.put_graph(graph, value_payload(graph, value))
                if 200 <= status < 300:
                    self.stats.writes += 1
                else:
                    self.stats.errors += 1


@dataclass
class ServedTask:
    server: LinkedDataServer
    pd: PartitionedDataset
    task: TaskSpec
    runtime: SimulationRuntime


def serve_task(task_id: str, seed: int = 42, source: str | Path | None = None,
               host: str = "127.0.0.1", port: int = 0) -> ServedTask:
    """Serve one task at a new server, waiting for `PUT <sim>` to start a run.

    The building is built at the server's base, from the synthetic building
    of `seed` or from the Turtle file `source`, so `ldsim build --seed S
    --base B` writes what this serves at B. The caller stops the server.
    """
    server = LinkedDataServer(host=host, port=port)
    try:
        pd = build_dataset(source=source, params=GeneratorParams(seed=seed),
                           base=server.base)
        task = load_task(task_id, server.base)
        env = build_environment(task, pd, seed)
        runtime = SimulationRuntime(env, task.fault_queries)
        server.attach(runtime, default_policy(pd.dynamic))
        server.start()
    except BaseException:
        server.stop()
        raise
    return ServedTask(server, pd, task, runtime)


def _make_agent(kind: str, served: ServedTask):
    base, task = served.server.base, served.task
    client = LdClient(base, agent=kind)
    if kind == "oracle":
        return OracleRunner(task, served.runtime, client)
    rules = parse_rules(task.rules_text, base=base)
    follow = list(DEFAULT_FOLLOW) + [base + "vocab/building#weatherReport"]
    if task.requires_reasoning:
        follow += [RDF_TYPE, RDFS_SUBCLASS]
    config = AgentConfig(
        mode=kind, rules=rules, seed_iri=base + "building",
        reasoning=task.requires_reasoning, follow_predicates=tuple(follow))
    prefetch = served.pd.dataset if kind == "prefetch" else None
    return RuleAgent(client, config, prefetch_dataset=prefetch)


def run_benchmark(task_id: str, agent: str = "noop", seed: int = 42,
                  iterations: int | None = None, timeslot_ms: int = 500,
                  out_dir: str | Path | None = None) -> BenchResult:
    if agent not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {agent!r}")
    served = serve_task(task_id, seed)
    server, task, runtime = served.server, served.task, served.runtime
    clients: list[LdClient] = []
    try:
        params = default_run_params(task, iterations, timeslot_ms)
        dry = dry_run(runtime.env, params, task.fault_queries)

        stop = threading.Event()
        worker = None
        agent_obj = None
        crashed: list[BaseException] = []
        if agent != "noop":
            agent_obj = _make_agent(agent, served)
            clients.append(agent_obj.client)

            def _agent_main():
                try:
                    agent_obj.run(stop)
                except BaseException as exc:  # noqa: BLE001 - flagged on the report
                    crashed.append(exc)
                    log.exception("agent failed")

            worker = threading.Thread(target=_agent_main, daemon=True, name="agent")
            worker.start()

        control = LdClient(server.base, agent="control")
        clients.append(control)
        status, body = control.put_raw(SIM_PATH, sim_start_payload(params))
        if status != 200:
            raise RuntimeError(f"failed to start run: {status} {body!r}")
        budget = params.iterations * (params.timeslot_ms / 1000.0) * 3 + 60
        finished = runtime.finished.wait(budget)
        stop.set()
        if worker is not None:
            worker.join(10)

        trace = runtime.fault_trace()
        meta, ops = runtime.snapshot_log()
        notes = []
        if not finished:
            notes.append("run did not finish in budget")
        if meta["deadline_misses"]:
            notes.append(f"{meta['deadline_misses']} tick deadline misses")
        if crashed:
            notes.append(f"agent crashed: {crashed[0]!r}")
        agent_ops = [op for op in ops if op.agent == agent] if agent != "noop" else []
        report = compute_metrics(trace, dry, agent_ops, valid=not notes,
                                 notes="; ".join(notes))
        result = BenchResult(
            task_id=task_id, agent=agent, seed=seed, report=report, meta=meta,
            trace=trace, dry=dry, ops=ops,
            agent_stats=None if agent_obj is None else agent_obj.stats)
        if out_dir is not None:
            result.paths = persist_result(result, out_dir)
        return result
    finally:
        for client in clients:
            client.close_all()
        server.stop()


def persist_result(result: BenchResult, out_dir: str | Path) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_id = f"{result.task_id}-{result.agent}-{result.seed}"
    paths = {
        "ops": out / f"{run_id}.ops.tsv",
        "faults": out / f"{run_id}.faults.tsv",
        "dry_faults": out / f"{run_id}.dry.faults.tsv",
        "metrics": out / f"{run_id}.metrics.tsv",
    }
    write_ops_tsv(result.ops, paths["ops"])
    write_faults_tsv(result.trace, paths["faults"])
    write_faults_tsv(result.dry, paths["dry_faults"])
    write_metrics_tsv(result.report, paths["metrics"])
    return paths


# -- CLI -------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ldsim",
                                     description="Smart-building read-write "
                                                 "Linked Data benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build the benchmark dataset")
    p_build.add_argument("--input", help="monolithic Turtle building description "
                                         "(default: the synthetic building of --seed)")
    p_build.add_argument("--seed", type=int, default=42)
    p_build.add_argument("--base", default=DEFAULT_BASE)
    p_build.add_argument("--out", required=True, help="TriG output path")

    p_validate = sub.add_parser("validate", help="compare dataset counts "
                                                 "against the expected statistics")
    p_validate.add_argument("--input", help="monolithic Turtle building description")
    p_validate.add_argument("--seed", type=int, default=42)

    p_serve = sub.add_parser("serve", help="serve one task, built from the seed "
                                           "at the server's base, until interrupted; "
                                           "PUT <sim> starts a run")
    p_serve.add_argument("--task", choices=TASK_IDS, required=True)
    p_serve.add_argument("--seed", type=int, default=42)
    p_serve.add_argument("--input", help="monolithic Turtle building description, "
                                         "its relative IRIs read against the base")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--host", default="127.0.0.1")

    p_run = sub.add_parser("run", help="run one benchmark end to end")
    p_run.add_argument("--task", choices=TASK_IDS, required=True)
    p_run.add_argument("--agent", choices=AGENT_KINDS, default="prefetch")
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument("--iterations", type=int)
    p_run.add_argument("--timeslot-ms", type=int, default=500)
    p_run.add_argument("--out", default="results")

    p_metrics = sub.add_parser("metrics", help="recompute metrics from trace files")
    p_metrics.add_argument("--faults", required=True)
    p_metrics.add_argument("--dry-faults")
    p_metrics.add_argument("--ops", required=True)
    p_metrics.add_argument("--agent", default=None)
    p_metrics.add_argument("--compare", help="metrics TSV that must match exactly")

    p_audit = sub.add_parser("audit", help="check the one-graph-per-write contract")
    p_audit.add_argument("--ops", required=True)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")

    if args.command == "build":
        pd = build_dataset(source=args.input, params=GeneratorParams(seed=args.seed),
                           base=args.base)
        write_dataset(pd, args.out)
        print(f"dataset: {args.out} ({len(pd.dataset)} quads, "
              f"{len(pd.dataset.graph_names())} graphs)")
        return 0

    if args.command == "validate":
        params = GeneratorParams(seed=args.seed)
        pd = build_dataset(source=args.input, params=params)
        rows = validate_counts(pd, params)
        for name, expected, actual in rows:
            print(f"{'ok' if expected == actual else 'FAIL':4} {name:32} "
                  f"expected={expected} actual={actual}")
        print(f"source triples: {pd.source_triples}")
        print(f"resource IRIs: {len(pd.dataset.graph_names() - {DEFAULT_GRAPH})}")
        print(f"dynamic resources: {len(pd.dynamic)}")
        return 0 if all(expected == actual for _, expected, actual in rows) else 1

    if args.command == "serve":
        served = serve_task(args.task, args.seed, source=args.input, host=args.host,
                            port=args.port)
        try:
            print(f"serving {args.task} at {served.server.base} "
                  "(PUT <sim> to start a run)", flush=True)
            threading.Event().wait()  # until SIGINT raises KeyboardInterrupt
        except KeyboardInterrupt:
            print("stopping")
        finally:
            served.server.stop()
        return 0

    if args.command == "run":
        result = run_benchmark(args.task, agent=args.agent, seed=args.seed,
                               iterations=args.iterations,
                               timeslot_ms=args.timeslot_ms,
                               out_dir=args.out)
        for name, value in result.report.rows():
            print(f"{name}\t{value}")
        if result.agent_stats is not None:
            print(f"agent\t{result.agent_stats}")
        return 0 if result.report.valid else 1

    if args.command == "metrics":
        trace = read_faults_tsv(args.faults)
        dry = read_faults_tsv(args.dry_faults) if args.dry_faults else None
        ops = read_ops_tsv(args.ops)
        if args.agent:
            ops = [op for op in ops if op.agent == args.agent]
        report = compute_metrics(trace, dry, ops)
        for name, value in report.rows():
            print(f"{name}\t{value}")
        if args.compare:
            stored = read_metrics_tsv(args.compare)
            recomputed = dict(report.rows())
            for key in ("fault_rate", "average_fault_count",
                        "normalized_fault_count", "read_write_ratio"):
                if stored.get(key) != recomputed.get(key):
                    print(f"MISMATCH {key}: stored={stored.get(key)} "
                          f"recomputed={recomputed.get(key)}")
                    return 1
            print("offline recomputation matches stored metrics")
        return 0

    if args.command == "audit":
        problems = audit_write_deltas(read_ops_tsv(args.ops))
        for problem in problems:
            print(problem)
        print("audit:", "FAIL" if problems else "ok")
        return 1 if problems else 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
