"""End-to-end runs through `run_benchmark` and the `ldsim` command line."""

import functools
import gc
import warnings
from dataclasses import replace

import pytest

from ldsim import bench, httpclient, server
from ldsim.agents import AgentConfig
from ldsim.bench import main, run_benchmark
from ldsim.building import GeneratorParams, build_dataset, rebase_partitioned, \
    write_manifest
from ldsim.engine import SimulationRuntime
from ldsim.metrics import write_metrics_tsv
from ldsim.ns import DEFAULT_BASE
from ldsim.tasks import TASK_IDS, load_task, oracle_schedule

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


def test_cli_reports_a_doctored_run(runs, tmp_path, capsys):
    result = runs[1]["oracle"]
    paths = result.paths
    doctored = tmp_path / "doctored.metrics.tsv"
    write_metrics_tsv(replace(result.report, fault_rate=result.report.fault_rate + 0.5),
                      doctored)
    assert main(["metrics", "--faults", str(paths["faults"]),
                 "--dry-faults", str(paths["dry_faults"]), "--ops", str(paths["ops"]),
                 "--agent", "oracle", "--compare", str(doctored)]) == 1
    assert "MISMATCH fault_rate" in capsys.readouterr().out
    lines = paths["ops"].read_text().splitlines()
    put = next(i for i, line in enumerate(lines) if "\tPUT\t" in line)
    fields = lines[put].split("\t")
    fields[-1] += "," + fields[2] + "-other"
    lines[put] = "\t".join(fields)
    two_graphs = tmp_path / "two-graphs.ops.tsv"
    two_graphs.write_text("\n".join(lines) + "\n")
    assert main(["audit", "--ops", str(two_graphs)]) == 1
    out = capsys.readouterr().out
    assert f"op {put - 1}: delta names 2 graphs" in out
    assert "audit: FAIL" in out


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


def test_one_seed_gives_one_dry_run_on_any_port():
    # Each run binds its own ephemeral port, so its IRIs differ from run to run.
    runs = [run_benchmark("TC5", agent="noop", seed=42, iterations=SLOTS,
                          timeslot_ms=SLOT_MS) for _ in range(2)]
    counts = [result.dry.counts() for result in runs]
    assert counts[0] == counts[1] and sum(counts[0]) > 0


@pytest.mark.parametrize("task_id", TASK_IDS)
def test_oracle_beats_noop_on_every_task(task_id):
    # A noop run repeats its dry run, so its NFC is 1.0 by construction.
    # Slots of 200 ms, as in the test below: at 100 ms a TC2 tick beside the
    # oracle's burst of writes has overrun its slot on a loaded machine.
    report = run_benchmark(task_id, agent="oracle", seed=42, iterations=16,
                           timeslot_ms=200).report
    assert report.valid, report.notes
    assert report.normalized_fault_count < 1.0


def test_oracle_plans_from_the_initialised_snapshot():
    # TC1's night fixes depend on the lights its init randomises, so an
    # oracle that planned before slot 0 was published would miss them.
    result = run_benchmark("TC1", agent="oracle", seed=42, iterations=24,
                           timeslot_ms=200)
    assert result.report.valid, result.report.notes
    runner = result.agent_stats
    initialised = SimulationRuntime(runner.runtime.env, runner.task.fault_queries)
    initialised.initialize(runner.runtime.params)
    planned = sum(len(action.writes)
                  for action in oracle_schedule(runner.task, initialised))
    assert planned > 2 * 146  # night fixes beside the sunrise and sunset writes
    assert runner.writes >= planned


def test_prefetch_run_reuses_unchanged_bodies_and_parses(monkeypatch):
    # Slots stay at the 500 ms default: the prefetch agent misses tick
    # deadlines at much shorter ones.
    counts = {"serialised": 0, "parsed": 0}

    def counting(key, function):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(server, "serialize_triples",
                        counting("serialised", server.serialize_triples))
    monkeypatch.setattr(httpclient, "parse_document",
                        counting("parsed", httpclient.parse_document))
    result = run_benchmark("TS3", agent="prefetch", seed=42, iterations=8,
                           timeslot_ms=500)
    assert result.report.valid, result.report.notes
    assert result.report.writes == load_task("TS3", DEFAULT_BASE).ideal_writes == 6
    gets = sum(1 for op in result.ops
               if op.agent == "prefetch" and op.is_read and op.ok)
    assert result.agent_stats.loops >= 3
    assert 0 < counts["serialised"] * 2 < gets
    assert 0 < counts["parsed"] * 2 < gets


def accepted_connections(monkeypatch, agent: str, fanout: int) -> int:
    """How many connections the server accepts in a short TS3 run of `agent`."""
    accepted = []
    setup = server._Handler.setup

    def counting_setup(handler):
        accepted.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(server._Handler, "setup", counting_setup)
    monkeypatch.setattr(bench, "AgentConfig", functools.partial(AgentConfig, fanout=fanout))
    result = run_benchmark("TS3", agent=agent, seed=42, iterations=8, timeslot_ms=500)
    assert result.report.valid, result.report.notes
    assert result.agent_stats.loops >= 3  # a pool per epoch would open 2 * 3 + 2
    return len(accepted)


# Connections are per thread, so one fetch pool serves the whole run: the
# server accepts the pool's, the agent's own (for writes) and the control
# client's connections, however many epochs the agent runs.


def test_prefetch_run_keeps_its_connections_across_epochs(monkeypatch):
    assert accepted_connections(monkeypatch, "prefetch", fanout=2) <= 2 + 2


def test_traversal_run_keeps_its_connections_across_epochs(monkeypatch):
    # The traversal before the first epoch uses the run's pool too.
    assert accepted_connections(monkeypatch, "traversal", fanout=2) <= 2 + 2


def test_prefetch_run_closes_every_socket():
    # The fetch pool's threads end with the run; the sockets they leave in
    # their thread-locals must have been closed by then, not by the GC.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_benchmark("TS3", agent="prefetch", seed=42, iterations=4,
                               timeslot_ms=500)
        assert result.agent_stats.loops >= 1
        del result
        gc.collect()
    leaks = [str(w.message) for w in caught
             if issubclass(w.category, ResourceWarning) and "socket" in str(w.message)]
    assert leaks == []
