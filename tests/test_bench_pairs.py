"""The summary of `tools/bench_pairs.py`, on synthetic `perfbench/run.py`
output; no subprocess is started."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "deadline_met_ratio", "unit": "ratio", "better": "higher", "bound": 0.1},
]
MACHINE = {"nproc": 2, "cpu": "test", "python": "3.11.7", "src_lines": 10}


def output(latency: float, met: float = 1.0, correct: bool = True,
           machine: dict = MACHINE) -> str:
    """The stdout of one run, as `perfbench/run.py` prints it."""
    result = {"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "latency_p50_ms": {"value": latency, "unit": "ms"},
        "deadline_met_ratio": {"value": met, "unit": "ratio"}}}
    lines = ["# machine " + json.dumps(machine),
             "# run " + json.dumps({"workload": "agent-ts3", "seed": 1, "reads": 5})]
    if not correct:
        lines.append("# problem 5 agent writes, ideal is 6")
    return "\n".join(lines + [json.dumps(result)]) + "\n"


def pair(base: str, head: str, seed: int = 1) -> dict:
    return {"seed": seed, "first": "base", "base": bench_pairs.parse_run(base),
            "head": bench_pairs.parse_run(head)}


def test_parse_run_reads_result_and_notes():
    run = bench_pairs.parse_run(output(0.25, correct=False))
    assert run["correct"] is False and run["failed"] == 0 and run["attempted"] == 10
    assert run["metrics"] == {"latency_p50_ms": 0.25, "deadline_met_ratio": 1.0}
    assert run["machine"] == MACHINE and run["info"]["reads"] == 5
    assert run["problems"] == ["5 agent writes, ideal is 6"]


def test_parse_run_without_result_line_is_incorrect():
    run = bench_pairs.parse_run("# machine " + json.dumps(MACHINE) + "\nTraceback\n")
    assert run["correct"] is False and run["metrics"] == {}


def test_summary_counts_wins_by_direction_and_ties_for_neither():
    pairs = [pair(output(0.27, 0.9), output(0.18, 1.0)),
             pair(output(0.28, 1.0), output(0.17, 1.0)),
             pair(output(0.26, 1.0), output(0.30, 0.8)),
             pair(output(0.25, 1.0), output(0.25, 1.0))]
    summary = bench_pairs.summarise(pairs, END_TO_END)
    latency = summary["latency_p50_ms"]
    assert (latency["pairs"], latency["head_wins"], latency["base_wins"]) == (4, 2, 1)
    ratio = summary["deadline_met_ratio"]
    assert (ratio["head_wins"], ratio["base_wins"]) == (1, 1)
    assert latency["base"] == {"median": 0.265, "q1": 0.2525, "q3": 0.2775}
    assert latency["head"]["median"] == pytest.approx(0.215)
    assert latency["change"] == pytest.approx(0.215 / 0.265 - 1)
    assert latency["beyond_base_iqr"] is True


def test_summary_leaves_incorrect_runs_out():
    pairs = [pair(output(0.27), output(0.18)), pair(output(0.28), output(0.01, correct=False)),
             pair(output(0.26), output(0.19))]
    latency = bench_pairs.summarise(pairs, END_TO_END)["latency_p50_ms"]
    assert (latency["pairs"], latency["head_wins"]) == (2, 2)
    assert latency["base"]["median"] == 0.27
    assert latency["head"]["median"] == pytest.approx(0.185)


def test_medians_within_the_base_iqr_are_not_beyond_it():
    pairs = [pair(output(b), output(h))
             for b, h in [(0.20, 0.21), (0.30, 0.22), (0.25, 0.26), (0.22, 0.24)]]
    latency = bench_pairs.summarise(pairs, END_TO_END)["latency_p50_ms"]
    assert latency["beyond_base_iqr"] is False


@pytest.mark.parametrize("heads, within", [
    ([1.20, 1.25, 1.10], True),    # median 1.20: 20% worse, bound 25%
    ([1.30, 1.26, 1.40], False),   # median 1.30: 30% worse
    ([0.50, 0.60, 0.70], True),    # better
])
def test_within_bound_for_a_lower_is_better_metric(heads, within):
    pairs = [pair(output(b), output(h)) for b, h in zip([0.99, 1.0, 1.01], heads)]
    latency = bench_pairs.summarise(pairs, END_TO_END)["latency_p50_ms"]
    assert latency["within_bound"] is within
    assert latency["unresolved"] is False


@pytest.mark.parametrize("heads, within", [
    ([0.95, 0.92, 0.99], True),    # median 0.95: 5% worse, bound 10%
    ([0.85, 0.88, 0.80], False),   # median 0.85: 15% worse
])
def test_within_bound_for_a_higher_is_better_metric(heads, within):
    pairs = [pair(output(0.2, met=1.0), output(0.2, met=h)) for h in heads]
    ratio = bench_pairs.summarise(pairs, END_TO_END)["deadline_met_ratio"]
    assert ratio["within_bound"] is within


def test_a_base_spread_past_the_bound_is_unresolved():
    # Base IQR 0.15 (q1 0.175, q3 0.325) against a median of 0.25.
    bases = [0.10, 0.20, 0.30, 0.40]
    near = [pair(output(b), output(h)) for b, h in zip(bases, [0.26, 0.24, 0.25, 0.27])]
    assert bench_pairs.summarise(near, END_TO_END)["latency_p50_ms"]["unresolved"] is True
    # Every head run beats every base run: the spread does not hide that.
    apart = [pair(output(b), output(h)) for b, h in zip(bases, [0.05, 0.06, 0.07, 0.08])]
    latency = bench_pairs.summarise(apart, END_TO_END)["latency_p50_ms"]
    assert latency["unresolved"] is False and latency["within_bound"] is True


@pytest.mark.parametrize("text, expected", [
    ("5", {"dry-tc2": 5, "agent-ts3": 5}),
    ("5,agent-ts3=10", {"dry-tc2": 5, "agent-ts3": 10}),
    ("agent-ts3=10", {"agent-ts3": 10}),
    ("3,dry-tc2=0", {"agent-ts3": 3}),
])
def test_pair_counts(text, expected):
    assert bench_pairs.pair_counts(text, ["dry-tc2", "agent-ts3"]) == expected


def test_pair_counts_refuses_an_unknown_workload():
    with pytest.raises(SystemExit):
        bench_pairs.pair_counts("nope=3", ["dry-tc2"])


def test_each_side_records_its_own_machine(monkeypatch, tmp_path):
    # The sides' trees differ, so each side's `src_lines` must be its own,
    # whichever side runs first in a pair.
    lines = {"base": 120, "head": 100}
    monkeypatch.setattr(bench_pairs, "clone", lambda rev, into: rev * 2)

    names = [m["name"] for m in json.loads(
        (TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]]

    def fake_run(tree, command, workload, seed, seconds, trace):
        machine = dict(MACHINE, src_lines=lines[tree.name])
        run = bench_pairs.parse_run(output(0.2, machine=machine))
        return run | {"exit": 0, "metrics": dict.fromkeys(names, 1.0)}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--base", "b", "--head", "h", "--pairs", "dry-tc2=2",
                             "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert "machine" not in bench
    for side, rev in (("base", "b"), ("head", "h")):
        assert bench[side] == {"rev": rev, "commit": rev * 2,
                               "machine": dict(MACHINE, src_lines=lines[side])}
