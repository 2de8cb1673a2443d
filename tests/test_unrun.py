"""`tools/unrun.py`: its statement counting, and one traced session of
TS1, served and with the noop agent, in a subprocess."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "unrun.py"
SRC = ROOT / "src" / "ldsim"
_spec = importlib.util.spec_from_file_location("unrun", TOOL)
unrun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun)

SOURCE = '''"""Module docstring."""
import os


def f(x):
    """Function docstring."""
    if x:
        return (1 +
                2)
    try:
        y = 3
    except ValueError:
        y = 4
    return y


class C:
    """Class docstring."""

    name: str = "c"
'''


def test_statements_leave_out_docstrings_and_definitions():
    assert unrun.statements(SOURCE) == {
        2: range(2, 3),    # import os
        7: range(7, 8),    # the if header alone
        8: range(8, 10),   # a statement over two lines
        10: range(10, 11),
        11: range(11, 12),
        13: range(13, 14),
        14: range(14, 15),
        20: range(20, 21),
    }


def test_a_statement_ran_if_any_of_its_lines_ran():
    assert unrun.never_run(SOURCE, {2, 7, 9, 10, 11, 14, 20}) == (8, [13])


def test_spans():
    assert unrun.spans([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert unrun.spans([]) == ""


def first_body_line(path: Path, name: str) -> int:
    tree = ast.parse(path.read_text())
    node = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name)
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return body[0].lineno


def test_one_traced_session_reports_every_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(TOOL), "--tasks", "TS1", "--agents", "noop"],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    table, _, details = done.stdout.partition("\n\n")
    header, *rows, total = table.splitlines()
    assert header.split() == ["module", "statements", "never", "run"]
    counts = {name: (int(count), int(never))
              for name, count, never in (row.split() for row in rows)}
    assert set(counts) == {path.name for path in SRC.glob("*.py")}
    for name, (count, never) in counts.items():
        assert count == len(unrun.statements((SRC / name).read_text())), name
        assert 0 <= never <= count, name
    assert total.split() == ["total", str(sum(c for c, _ in counts.values())),
                             str(sum(n for _, n in counts.values()))]

    listed = {}
    for line in filter(None, details.splitlines()):
        assert not line.startswith("# problem"), line
        name, _, spans = line.partition(": ")
        lines = set()
        for span in spans.split(", "):
            first, _, last = span.partition("-")
            lines.update(range(int(first), int(last or first) + 1))
        listed[name] = lines
    for name, lines in listed.items():
        assert lines <= set(unrun.statements((SRC / name).read_text())), name
        assert len(lines) == counts[name][1], name
    # The dry run and the served set-up run in every session; a path walk
    # needs TC2 or TS3.
    assert first_body_line(SRC / "engine.py", "dry_run") not in listed.get("engine.py", set())
    assert first_body_line(SRC / "bench.py", "serve_task") not in listed.get("bench.py", set())
    assert first_body_line(SRC / "sparql.py", "_join_path") in listed["sparql.py"]
