"""Self-test of the benchmark: each workload at a tiny size.

    python3 -m pytest -q perfbench

Checks that every metric named in BENCHMARK.json is reported with its unit
and a finite value, that a traced run attributes time to every layer the
workload is meant to exercise (and none to the HTTP and agent layers on the
dry workloads), and that deterministic counts repeat exactly.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)
import workloads  # noqa: E402
from ldsim.building import GeneratorParams  # noqa: E402

TINY = GeneratorParams(
    rooms=12, floors=1, wings=1, lighting_systems=10, systems_with_occupancy=4,
    systems_with_command=6, systems_with_luminance=2, rooms_with_occupancy=4,
    rooms_with_command=6, rooms_with_luminance=2, command_points=8,
    luminance_points=2, hygiene_lights=2, seed=5)

SIZES = {
    "dry-tc2": (0.0, {"slots": 24}),
    "dry-tc6": (0.0, {"slots": 24}),
    "http-mix": (2.0, {}),
    "agent-ts3": (3.0, {}),
}

ENGINE_LAYERS = ("building", "tasks", "rdf", "sparql", "metrics", "engine")
HTTP_LAYERS = ("rdfio", "server", "httpclient")
EXERCISED = {
    "dry-tc2": ENGINE_LAYERS,
    "dry-tc6": ENGINE_LAYERS,
    "http-mix": ENGINE_LAYERS + HTTP_LAYERS,
    "agent-ts3": ENGINE_LAYERS + HTTP_LAYERS + ("agents",),
}

# Gates that a tiny size fails by construction: too few samples for a p95,
# and a building with fewer hygiene lights than TS3's ideal write count.
SIZE_PROBLEMS = ("samples, a p", "agent writes, ideal is")


def tiny_run(name: str):
    seconds, size = SIZES[name]
    return lambda: workloads.WORKLOADS[name](5, seconds, generator=TINY, **size)


def check_section(result: dict, section: str) -> None:
    reported = result["metrics"]
    for spec in run.SPEC[section]:
        assert spec["name"] in reported, spec["name"]
        entry = reported[spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert math.isfinite(entry["value"]), spec["name"]
    assert result["attempted"] >= 1


def unexpected(problems: list[str]) -> list[str]:
    return [p for p in problems if not any(s in p for s in SIZE_PROBLEMS)]


@pytest.mark.parametrize("name", sorted(SIZES))
def test_workload_reports_every_metric(name):
    plain = run.measure(name, tiny_run(name), trace=False)
    check_section(plain["result"], "end_to_end")
    assert all(v["value"] > 0 for v in plain["result"]["metrics"].values())
    assert unexpected(plain["problems"]) == []

    traced = run.measure(name, tiny_run(name), trace=True)
    check_section(traced["result"], "per_layer")
    assert unexpected(traced["problems"]) == []
    values = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    for layer in EXERCISED[name]:
        assert values[f"{layer}.share"] > 0, layer
    if name.startswith("dry-"):
        for layer in HTTP_LAYERS + ("agents",):
            assert values[f"{layer}.share"] == 0, layer


def test_dry_counts_repeat_exactly():
    def counts():
        out = run.measure("dry-tc2", tiny_run("dry-tc2"), trace=True)
        values = out["result"]["metrics"]
        return {k: v["value"] for k, v in values.items()
                if k.endswith((".calls", ".graphs", ".keys"))}

    first, second = counts(), counts()
    assert first == second
    slots = SIZES["dry-tc2"][1]["slots"] + 1
    # Two fault queries per slot, plus the benchmark's re-check of the last.
    assert first["metrics.match_faults.calls"] == 2 * (slots + 1)
    assert first["engine.tick.calls"] == slots - 1
