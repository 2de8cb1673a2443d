"""Run one ldsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dry-tc2 --seed 1 --seconds 16 --trace 0

Run it from the repository root; it imports ldsim from `src/`. The metric
names and units come from `BENCHMARK.json`. Lines starting with `#` describe
the run (machine, sample counts, correctness problems); the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones. With `--trace 1` the
workload runs twice, untraced and then traced, and the metrics are the
per-layer ones from the traced run. The exit code is 0 only when every
correctness gate passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "ldsim").is_dir():
    sys.exit(f"perfbench: no ldsim sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer counts that must be nonzero in a traced run of each workload, so
# that a wrapper that no longer sees its calls cannot read zero unnoticed.
SETUP_CALLS = ("building.build_dataset.calls", "tasks.load_task.calls")
ENGINE_CALLS = ("rdf.pred_nav.calls", "rdf.pred_entries.calls",
                "rdf.replace_graphs.calls", "sparql.eval_query.calls",
                "sparql.eval_update.calls", "metrics.match_faults.calls",
                "engine.tick.calls")
HTTP_CALLS = ("engine.apply_agent_write.calls", "engine.record_read.calls",
              "rdfio.serialize_triples.calls", "rdfio.parse_document.calls",
              "server.do_GET.calls", "server.do_PUT.calls",
              "httpclient.get_graph.calls", "httpclient.put_graph.calls")
EXPECTED_NONZERO = {
    "dry-tc2": SETUP_CALLS + ENGINE_CALLS,
    "dry-tc6": SETUP_CALLS + ENGINE_CALLS,
    "http-mix": SETUP_CALLS + ENGINE_CALLS + HTTP_CALLS,
    "agent-ts3": SETUP_CALLS + ENGINE_CALLS + HTTP_CALLS
    + ("agents.reason.calls", "agents.match_ms"),
}

def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.machine(),
            "python": platform.python_version()}


def src_lines() -> int:
    """Non-blank lines of src/ldsim/*.py, tracked for simplicity work."""
    return sum(1 for path in sorted((ROOT / "src" / "ldsim").glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def layer_values(summary: spans.Summary, traced: workloads.Outcome,
                 plain: workloads.Outcome, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced run; layers a workload does not
    exercise read zero."""
    values: dict[str, float] = {}
    for name, *_target in spans.TARGETS:
        values[f"{name}.calls"] = summary.calls(name)
        values[f"{name}.ms"] = summary.ms(name)
    values["rdf.replace_graphs.graphs"] = summary.extra("rdf.replace_graphs")
    values["metrics.match_faults.keys"] = summary.extra("metrics.match_faults")
    values["rdfio.serialize_triples.bytes"] = summary.extra("rdfio.serialize_triples")
    values["sparql.eval_query.self_ms"] = summary.self_ms("sparql.eval_query")
    values["sparql.eval_query.fault_self_ms"] = summary.self_ms(
        "sparql.eval_query", parent="metrics.match_faults")
    values["engine.tick.env_ms"] = summary.ms("engine.tick") - summary.ms(
        "metrics.match_faults", parent="engine.tick")
    values["httpclient.get_graph.self_ms"] = summary.self_ms("httpclient.get_graph")
    values["httpclient.put_graph.self_ms"] = summary.self_ms("httpclient.put_graph")
    values["agents.match_ms"] = summary.ms("sparql.eval_query", parent="agents.run")
    for name in ("building.build_dataset", "tasks.load_task"):
        values[f"{name}.ms"] /= max(1, values[f"{name}.calls"])
    for layer in spans.LAYERS:
        values[f"{layer}.share"] = summary.layer_self_ms(layer) / (wall_s * 1000.0)
    values["bench.trace_overhead_ratio"] = traced.tick_ms / plain.tick_ms
    values["bench.latency_p95_ms"] = traced.metrics.get("latency_p95_ms", 0.0)
    values.update(traced.layer)
    return values


def measure(workload: str, run, trace: bool) -> dict:
    """Run one workload (a callable returning an Outcome) and build the
    result object; `trace` selects the per-layer metrics."""
    if not trace:
        outcome = run()
        outcomes = [outcome]
        values = outcome.metrics
        section = SPEC["end_to_end"]
    else:
        plain = run()
        tracer = spans.Tracer()
        started = time.perf_counter()
        with tracer:
            outcome = run()
        wall_s = time.perf_counter() - started
        outcomes = [plain, outcome]
        values = layer_values(spans.Summary(tracer.rows()), outcome, plain, wall_s)
        for name in EXPECTED_NONZERO[workload]:
            if not values[name] > 0:
                outcome.problems.append(f"traced run: {name} is zero")
        section = SPEC["per_layer"]
    problems = [p for o in outcomes for p in o.problems]
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {},
    }
    for spec in section:
        value = float(values.get(spec["name"], 0.0))
        if not math.isfinite(value):
            raise ValueError(f"{spec['name']} is not finite: {value}")
        result["metrics"][spec["name"]] = {"value": value, "unit": spec["unit"]}
    return {"result": result, "problems": problems, "info": outcome.info}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    fn = workloads.WORKLOADS[args.workload]
    out = measure(args.workload, lambda: fn(args.seed, args.seconds), bool(args.trace))
    print("# machine " + json.dumps({**machine(), "src_lines": src_lines()}))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 **out["info"]}))
    for problem in out["problems"]:
        print(f"# problem {problem}")
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
