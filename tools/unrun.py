"""List the statements of `src/ldsim` that a benchmark session never runs.

    python3 tools/unrun.py [--tasks TS1,TC2] [--agents noop,oracle] \
        [--perfbench-seconds 10]

In one process, with every thread traced by `sys.settrace`, it runs `ldsim
build`, `ldsim validate`, a run of the first task served as `ldsim serve`
serves it (`bench.serve_task`, started by `PUT <sim>`) and, for each task
and agent (all ten tasks and all four agents by default), a `run_benchmark`
whose trace files then go through `ldsim metrics --compare` and `ldsim
audit`. Every run is 8 slots of 300 ms at seed 42. With
`--perfbench-seconds S` it also runs each workload of `perfbench/` for S
seconds. The commands' own output is discarded.

A statement is one `ast` statement of a module. Docstrings and `def` and
`class` lines are left out, and a compound statement (`if`, `for`, `try`,
...) counts as run when its header ran. The report is a table of the
statements and the never-run ones per module, then the first line of each
never-run statement, per module. Runs that are not valid, commands that
fail and workload gates that fail are listed as `# problem` lines and make
the exit code 1. Give `http-mix` at least 10 s: a 2 s run has 40 latency
samples, and its p95 gate needs 200. Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ldsim"
ITERATIONS, TIMESLOT_MS = 8, 300
_UNCOUNTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)
_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(source: str) -> dict[int, range]:
    """The counted statements of a module: first line -> the lines of the
    statement, or of its header for a compound statement."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False)
                  is not None}
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _UNCOUNTED) \
                or id(node) in docstrings:
            continue
        end = node.end_lineno
        for name in ("body", "handlers", "orelse", "finalbody"):
            inner = getattr(node, name, None)
            if inner:
                end = min(end, inner[0].lineno - 1)
        out[node.lineno] = range(node.lineno, max(node.lineno, end) + 1)
    return out


def never_run(source: str, lines_run: set[int]) -> tuple[int, list[int]]:
    """The number of counted statements, and the first lines of those of
    which no line ran."""
    counted = statements(source)
    return len(counted), sorted(first for first, lines in counted.items()
                                if lines_run.isdisjoint(lines))


def spans(lines: list[int]) -> str:
    """[3, 4, 5, 9] -> '3-5, 9'."""
    parts: list[list[int]] = []
    for line in lines:
        if parts and line == parts[-1][1] + 1:
            parts[-1][1] = line
        else:
            parts.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in parts)


class Tracer:
    """Records (file, line) for every line run under `SRC`, in every thread."""

    def __init__(self):
        self.hits: set[tuple[str, int]] = set()
        self._prefix = str(SRC) + "/"

    def _line(self, frame, event, _arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def _call(self, frame, _event, _arg):
        if frame.f_code.co_filename.startswith(self._prefix):
            return self._line
        return None

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)


def session(args, out_dir: Path, problems: list[str]) -> None:
    """The traced commands and runs; what goes wrong is added to `problems`."""
    from ldsim import bench
    from ldsim.httpclient import LdClient
    from ldsim.ns import SIM_PATH
    from ldsim.tasks import default_run_params

    def command(*argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()) as seen:
            code = bench.main(list(argv))
        if code != 0:
            problems.append(f"ldsim {' '.join(argv)} exited {code}: {seen.getvalue()[-500:]}")

    command("build", "--out", str(out_dir / "building.trig"))
    command("validate")
    served = bench.serve_task(args.tasks[0], seed=42)
    control = LdClient(served.server.base, agent="control")
    try:
        params = default_run_params(served.task, ITERATIONS, TIMESLOT_MS)
        status, body = control.put_raw(SIM_PATH, bench.sim_start_payload(params))
        if status != 200:
            problems.append(f"served {args.tasks[0]} did not start: {status} {body!r}")
        elif not served.runtime.finished.wait(60):
            problems.append(f"served {args.tasks[0]} did not finish")
    finally:
        control.close_all()
        served.server.stop()
    for task in args.tasks:
        for agent in args.agents:
            result = bench.run_benchmark(task, agent=agent, seed=42, iterations=ITERATIONS,
                                         timeslot_ms=TIMESLOT_MS, out_dir=out_dir / "runs")
            if not result.report.valid:
                problems.append(f"{task} {agent} invalid: {result.report.notes}")
            paths = {key: str(path) for key, path in result.paths.items()}
            command("metrics", "--faults", paths["faults"], "--dry-faults",
                    paths["dry_faults"], "--ops", paths["ops"], "--agent", agent,
                    "--compare", paths["metrics"])
            command("audit", "--ops", paths["ops"])
    if args.perfbench_seconds > 0:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        for name, run in workloads.WORKLOADS.items():
            outcome = run(42, args.perfbench_seconds)
            problems.extend(f"{name}: {problem}" for problem in outcome.problems)


def report(hits: set[tuple[str, int]]) -> list[str]:
    rows, details = [], []
    total = total_never = 0
    for path in sorted(SRC.glob("*.py")):
        lines_run = {line for name, line in hits if name == str(path)}
        count, lines = never_run(path.read_text(), lines_run)
        total += count
        total_never += len(lines)
        rows.append(f"{path.name:<16}{count:>11}{len(lines):>11}")
        if lines:
            details.append(f"{path.name}: {spans(lines)}")
    return ([f"{'module':<16}{'statements':>11}{'never run':>11}"] + rows
            + [f"{'total':<16}{total:>11}{total_never:>11}", ""] + details)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tasks", type=lambda text: text.split(","),
                        help="comma-separated task ids (default: all ten)")
    parser.add_argument("--agents", type=lambda text: text.split(","),
                        help="comma-separated agent kinds (default: all four)")
    parser.add_argument("--perfbench-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if "ldsim" in sys.modules:
        parser.error("ldsim is already imported, so its module-level lines would not be seen")

    problems: list[str] = []
    tracer = Tracer()
    tracer.start()  # before the first import of ldsim
    try:
        from ldsim.bench import AGENT_KINDS
        from ldsim.tasks import TASK_IDS

        args.tasks = args.tasks or list(TASK_IDS)
        args.agents = args.agents or list(AGENT_KINDS)
        with tempfile.TemporaryDirectory() as tmp:
            session(args, Path(tmp), problems)
    finally:
        tracer.stop()
    print("\n".join(report(tracer.hits)))
    for problem in problems:
        print(f"# problem {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
