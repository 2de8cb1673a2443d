"""Measure what a served set-up costs in one process, repeat by repeat.

    PYTHONPATH=src python3 tools/setup_cost.py [--task TS3] [--seed 1] \
        [--repeats 3] [--slots 32] [--source building.ttl]

It stands the task up `--repeats` times with `bench.serve_task`, as
perfbench's set-up repeats do: every served task stays alive until the
last repeat ends, so a later repeat's collections walk the earlier
datasets too. After each set-up it runs the seed-matched dry run of
`--slots` slots (32 is `agent-ts3`'s 16 s at 500 ms slots), which builds
the dataset's predicate index on its first query.

Each repeat prints one JSON line: the wall time of `build_dataset`,
`load_task`, the whole `serve_task`, the first index build and the dry run
that holds it; the process CPU time of the repeat; and the cyclic garbage
collector's time and collection count per generation, taken from
`gc.callbacks`. A last line sums the repeats.

It imports `ldsim` from `PYTHONPATH`, so the same command measures any
checkout's `src`. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import time

from ldsim import bench, engine, rdf, tasks


class Clock:
    """Wall time spent in wrapped functions, and the collector's time and
    collection count per generation, summed since the last `take`."""

    def __init__(self):
        self._gc_started = 0.0
        self.reset()

    def reset(self) -> None:
        self.spent: dict[str, float] = {}
        self.gc_s = [0.0, 0.0, 0.0]
        self.collections = [0, 0, 0]

    def wrap(self, module, name: str, label: str):
        inner = getattr(module, name)

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.spent[label] = self.spent.get(label, 0.0) + time.perf_counter() - started

        setattr(module, name, timed)
        return inner

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            generation = info["generation"]
            self.gc_s[generation] += time.perf_counter() - self._gc_started
            self.collections[generation] += 1

    def take(self) -> dict:
        out = {f"{label}_ms": seconds * 1000.0 for label, seconds in self.spent.items()}
        out["gc_ms"] = [round(s * 1000.0, 3) for s in self.gc_s]
        out["collections"] = list(self.collections)
        self.reset()
        return out


def measure(task_id: str, seed: int, repeats: int, slots: int, source) -> list[dict]:
    clock = Clock()
    # serve_task calls these by their names in `bench`; the dry run builds
    # the index through `rdf._built_index`.
    wrapped = [(bench, "build_dataset", "build"), (bench, "load_task", "load_task"),
               (rdf, "_built_index", "index")]
    originals = [(module, name, clock.wrap(module, name, label))
                 for module, name, label in wrapped]
    served_tasks = []
    rows = []
    gc.callbacks.append(clock.on_gc)
    try:
        for repeat in range(repeats):
            cpu = time.process_time()
            started = time.perf_counter()
            served = bench.serve_task(task_id, seed, source=source)
            served_tasks.append(served)
            serve_s = time.perf_counter() - started
            params = tasks.default_run_params(served.task, slots)
            began = time.perf_counter()
            engine.dry_run(served.runtime.env, params, served.task.fault_queries)
            dry_s = time.perf_counter() - began
            row = {"repeat": repeat, "serve_ms": serve_s * 1000.0,
                   "dry_run_ms": dry_s * 1000.0,
                   "cpu_ms": (time.process_time() - cpu) * 1000.0}
            row.update(clock.take())
            rows.append(row)
    finally:
        gc.callbacks.remove(clock.on_gc)
        for module, name, inner in originals:
            setattr(module, name, inner)
        for served in served_tasks:
            served.server.stop()
    return rows


def total(rows: list[dict]) -> dict:
    out: dict = {"repeats": len(rows)}
    for key, value in rows[0].items():
        if key == "repeat":
            continue
        if isinstance(value, list):
            out[key] = [round(sum(row[key][g] for row in rows), 3) for g in range(3)]
        else:
            out[key] = sum(row[key] for row in rows)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--task", default="TS3")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--slots", type=int, default=32)
    parser.add_argument("--source", default=None,
                        help="a Turtle building file in place of the seed's building")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.slots < 1:
        parser.error("--repeats and --slots must be at least 1")
    rows = measure(args.task, args.seed, args.repeats, args.slots, args.source)
    for row in rows:
        print(json.dumps(_rounded(row)))
    print(json.dumps(_rounded({"total": True, **total(rows)})))
    return 0


def _rounded(row: dict) -> dict:
    return {k: round(v, 3) if isinstance(v, float) else v for k, v in row.items()}


if __name__ == "__main__":
    raise SystemExit(main())
