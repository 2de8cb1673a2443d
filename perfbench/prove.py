"""Run the benchmark on several seeds per workload and report its spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads dry-tc2,http-mix]
                               [--record perfbench/baseline.json --label set-1]

Each run is its own process, started with the command `BENCHMARK.json`
names. For every end-to-end metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (q3 - q1) / median,
and marks a spread above a third of the metric's bound. `--record` appends
the runs as one set to a JSON file; once the file holds two sets, the
drift of each median from the first set to the last is printed too.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int) -> tuple[dict, list[str]]:
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    notes = [line for line in lines if line.startswith("#")]
    if done.returncode != 0 or not lines or lines[-1].startswith("#"):
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n"
                           + done.stdout + done.stderr)
    return json.loads(lines[-1]), notes


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--record", type=Path)
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    recorded = {}
    steady = True
    machine = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, notes = run_once(workload, seed)
            machine = machine or next((json.loads(n.split(" ", 2)[2]) for n in notes
                                       if n.startswith("# machine ")), None)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
            steady &= result["correct"]
        summary = {}
        for spec in SPEC["end_to_end"]:
            stats = summarise([r["metrics"][spec["name"]] for r in runs])
            summary[spec["name"]] = stats
            wide = spec["name"] != "setup_s" and stats["spread"] > spec["bound"] / 3
            steady &= not wide
            print(f"  {workload} {spec['name']}: median {stats['median']:.5g} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} "
                  f"spread {stats['spread']:.4f} (bound {spec['bound']})"
                  + ("  WIDE" if wide else ""), flush=True)
        recorded[workload] = {"runs": runs, "summary": summary}
    if args.record:
        data = json.loads(args.record.read_text()) if args.record.exists() else {"sets": []}
        data["sets"].append({"label": args.label, "seeds": seeds,
                             "run_seconds": SPEC["run_seconds"], "machine": machine,
                             "workloads": recorded})
        args.record.write_text(json.dumps(data, indent=1) + "\n")
        if len(data["sets"]) >= 2:
            first, last = data["sets"][0], data["sets"][-1]
            for workload in recorded:
                if workload not in first["workloads"]:
                    continue
                for spec in SPEC["end_to_end"]:
                    a = first["workloads"][workload]["summary"][spec["name"]]["median"]
                    b = last["workloads"][workload]["summary"][spec["name"]]["median"]
                    worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
                    over = worse > spec["bound"]
                    steady &= not over
                    print(f"  drift {workload} {spec['name']}: {worse:+.4f} "
                          f"(bound {spec['bound']})" + ("  OVER" if over else ""))
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
