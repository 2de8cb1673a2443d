"""End-to-end runs through `run_benchmark` and the `ldsim` command line."""

import pytest

from ldsim.bench import main, run_benchmark
from ldsim.building import GeneratorParams, build_dataset, rebase_partitioned, \
    write_manifest
from ldsim.ns import DEFAULT_BASE

# 24 slots of 100 ms keep a run short; the prefetch agent is left out
# because it misses tick deadlines at much shorter slots.
SLOTS = 24
SLOT_MS = 100


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    results = {agent: run_benchmark("TS1", agent=agent, seed=42, iterations=SLOTS,
                                    timeslot_ms=SLOT_MS, out_dir=out)
               for agent in ("noop", "oracle")}
    return out, results


@pytest.mark.parametrize("agent", ["noop", "oracle"])
def test_run_writes_valid_report_and_four_files(runs, agent):
    out, results = runs
    result = results[agent]
    assert result.report.valid, result.report.notes
    assert result.trace.k == SLOTS and len(result.trace.slots) == SLOTS + 1
    assert set(result.paths) == {"ops", "faults", "dry_faults", "metrics"}
    for path in result.paths.values():
        assert path.is_file() and path.parent == out
    assert not list(out.glob(f"TS1-{agent}-42.env.tsv"))


def test_noop_run_matches_its_dry_run(runs):
    report = runs[1]["noop"].report
    assert report.writes == 0
    assert report.total_faults == report.dry_total_faults > 0
    assert report.normalized_fault_count == 1.0


def test_oracle_run_fixes_faults(runs):
    report = runs[1]["oracle"].report
    assert report.writes == 146
    assert report.total_faults < report.dry_total_faults


def test_cli_recomputes_and_audits_stored_run(runs, capsys):
    paths = runs[1]["oracle"].paths
    assert main(["metrics", "--faults", str(paths["faults"]),
                 "--dry-faults", str(paths["dry_faults"]), "--ops", str(paths["ops"]),
                 "--agent", "oracle", "--compare", str(paths["metrics"])]) == 0
    assert "matches stored metrics" in capsys.readouterr().out
    assert main(["audit", "--ops", str(paths["ops"])]) == 0
    assert "audit: ok" in capsys.readouterr().out


def test_rebase_partitioned_round_trip(tmp_path):
    params = GeneratorParams(
        rooms=4, floors=1, wings=1, lighting_systems=3,
        systems_with_occupancy=2, systems_with_command=2,
        systems_with_luminance=1, rooms_with_occupancy=2,
        rooms_with_command=2, rooms_with_luminance=1,
        command_points=2, luminance_points=1, hygiene_lights=0, seed=3)
    original = build_dataset(params=params)
    other = "http://127.0.0.1:9999/"
    moved = rebase_partitioned(original, other)
    assert moved.base == other and moved.dataset != original.dataset
    assert all(graph.startswith(other) for graph in moved.dynamic)
    back = rebase_partitioned(moved, DEFAULT_BASE)
    assert back.dataset == original.dataset
    write_manifest(original, tmp_path / "a.tsv")
    write_manifest(back, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_text() == (tmp_path / "b.tsv").read_text()
    assert rebase_partitioned(original, DEFAULT_BASE) is original
