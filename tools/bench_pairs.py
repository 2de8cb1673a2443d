"""Record alternated before/after pairs of the benchmark in a BENCH file.

    python3 tools/bench_pairs.py --base cf87da8 --head HEAD \
        --pairs 5,agent-ts3=10 --trace agent-ts3 --out BENCH_11.json

Both revisions are `git clone`d into a temporary directory (a copied tree
skewed timings), and each run is `perfbench/run.py --seconds S --trace 0` in
its own process with the command `BENCHMARK.json` names. `--pairs` gives the
number of pairs per workload: a bare number for every workload of
`BENCHMARK.json`, `name=n` for one; workloads it names with 0, or does not
name when no bare number is given, are skipped. Pair i runs seed
`--first-seed + i` on both sides, the base first on even pairs and the head
first on odd ones. `--trace` adds one `--trace 1` run per side of a workload,
whose per-layer metrics are stored as they are.

The output holds each side's revision, commit and machine (the `# machine`
line of its first paired run, so `src_lines` counts that side's tree),
every run's metrics and notes, and per workload and end-to-end metric each
side's median and quartiles, how many pairs the head won (ties count for
neither side), whether the medians differ by more than the base's
interquartile range, and the no-regression check: whether the head's
median is within the metric's bound of the base's (`within_bound`), and
whether the base spread too widely to tell (`unresolved`). Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")


def parse_run(stdout: str) -> dict:
    """One `perfbench/run.py` output: its result object, and the `# machine`,
    `# run` and `# problem` lines."""
    lines = stdout.strip().splitlines()
    run: dict = {"correct": False, "failed": None, "attempted": None, "metrics": {},
                 "machine": None, "info": None, "problems": []}
    for line in lines:
        if line.startswith("# machine "):
            run["machine"] = json.loads(line[len("# machine "):])
        elif line.startswith("# run "):
            run["info"] = json.loads(line[len("# run "):])
        elif line.startswith("# problem "):
            run["problems"].append(line[len("# problem "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        run.update(correct=result["correct"], failed=result["failed"],
                   attempted=result["attempted"],
                   metrics={k: v["value"] for k, v in result["metrics"].items()})
    return run


def quartiles(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict[str, dict]:
    """Per end-to-end metric: each side's median and quartiles over its
    correct runs, the head's wins over the pairs where both sides are
    correct, and whether the medians differ by more than the base's IQR.

    `within_bound`: the head's median is worse than the base's, in the
    metric's `better` direction, by at most `bound` times the base's.
    `unresolved`: the base's IQR is wider than `bound` times its median,
    unless every head run beats every base run."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [p for p in pairs if all(p[side]["correct"] for side in SIDES)]
        row: dict = {"better": spec["better"], "bound": spec["bound"],
                     "pairs": len(both), "head_wins": 0, "base_wins": 0}
        for p in both:
            a, b = p["base"]["metrics"][name], p["head"]["metrics"][name]
            if a != b:
                row["head_wins" if (b < a) == lower else "base_wins"] += 1
        values = {side: [p[side]["metrics"][name] for p in pairs if p[side]["correct"]]
                  for side in SIDES}
        for side in SIDES:
            row[side] = quartiles(values[side]) if values[side] else None
        if row["base"] and row["head"]:
            base, head = row["base"]["median"], row["head"]["median"]
            iqr = row["base"]["q3"] - row["base"]["q1"]
            row["change"] = (head - base) / base if base else None
            row["beyond_base_iqr"] = abs(head - base) > iqr
            row["within_bound"] = (head - base if lower else base - head) \
                <= spec["bound"] * abs(base)
            separated = (max(values["head"]) < min(values["base"]) if lower
                         else min(values["head"]) > max(values["base"]))
            row["unresolved"] = iqr > spec["bound"] * abs(base) and not separated
        out[name] = row
    return out


def pair_counts(text: str, workloads: list[str]) -> dict[str, int]:
    """`5,agent-ts3=10` -> pairs per workload; unnamed ones get the bare number."""
    default, counts = 0, {}
    for part in filter(None, text.split(",")):
        name, eq, number = part.rpartition("=")
        if not eq:
            default = int(number)
        elif name not in workloads:
            raise SystemExit(f"unknown workload {name!r}")
        else:
            counts[name] = int(number)
    return {w: counts.get(w, default) for w in workloads if counts.get(w, default) > 0}


def clone(rev: str, into: Path) -> str:
    """A checkout of `rev` under `into`; returns the full commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", commit], check=True)
    return commit


def run(tree: Path, command: list[str], workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=1800)
    out = parse_run(done.stdout)
    out["exit"] = done.returncode
    if done.returncode != 0 and not out["problems"]:
        out["problems"].append(done.stderr.strip()[-2000:])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--head", default="HEAD", help="the revision with the change")
    parser.add_argument("--pairs", default="10", help="e.g. 5,agent-ts3=10")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="append", default=[], metavar="WORKLOAD")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = pair_counts(args.pairs, [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    bench: dict = {"command": spec["command"], "seconds": seconds,
                   "workloads": {}, "trace": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, rev in zip(SIDES, (args.base, args.head)):
            bench[side] = {"rev": rev, "commit": clone(rev, trees[side]), "machine": None}
        for workload, n in counts.items():
            pairs = []
            for i in range(n):
                seed = args.first_seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair: dict = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run(trees[side], spec["command"], workload, seed, seconds, 0)
                    bench[side]["machine"] = bench[side]["machine"] or pair[side]["machine"]
                    print(f"{workload} seed {seed} {side}: correct={pair[side]['correct']} "
                          + " ".join(f"{k}={v:.4g}" for k, v in pair[side]["metrics"].items()),
                          flush=True)
                pairs.append(pair)
            summary = summarise(pairs, spec["end_to_end"])
            bench["workloads"][workload] = {"pairs": pairs, "summary": summary}
            for name, row in summary.items():
                print(f"  {workload} {name}: head won {row['head_wins']}/{row['pairs']}, "
                      f"base {row['base']}, head {row['head']}", flush=True)
        for workload in args.trace:
            bench["trace"][workload] = {
                side: run(trees[side], spec["command"], workload, args.first_seed, seconds, 1)
                for side in SIDES}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    correct = all(p[side]["correct"] for w in bench["workloads"].values()
                  for p in w["pairs"] for side in SIDES)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
