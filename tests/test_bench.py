"""End-to-end runs through `run_benchmark` and the `ldsim` command line."""

import contextlib
import functools
import gc
import os
import re
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

from ldsim import bench, httpclient, server
from ldsim.agents import AgentConfig
from ldsim.bench import main, run_benchmark
from ldsim.building import GeneratorParams, build_dataset, generate_synthetic
from ldsim.engine import SimulationRuntime, dry_run
from ldsim.metrics import write_metrics_tsv
from ldsim.ns import DEFAULT_BASE, SIM_PATH, SIM_VOCAB, XSD_BOOLEAN
from ldsim.rdf import IRI, Literal
from ldsim.rdfio import serialize_dataset, serialize_triples
from ldsim.tasks import TASK_IDS, build_environment, default_run_params, load_task, \
    oracle_schedule

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


def test_validate_prints_a_row_per_count_and_fails_on_a_mismatch(tmp_path, capsys):
    default = GeneratorParams()
    assert main(["validate", "--seed", "42"]) == 0
    rows = capsys.readouterr().out.splitlines()[:12]
    assert rows[0] == f"ok   {'rooms':32} expected={default.rooms} actual={default.rooms}"
    assert all(row.startswith("ok   ") for row in rows)
    source = tmp_path / "building.ttl"
    small = replace(default, rooms=4, floors=1, wings=1, lighting_systems=3,
                    systems_with_occupancy=2, systems_with_command=2,
                    systems_with_luminance=1, rooms_with_occupancy=2,
                    rooms_with_command=2, rooms_with_luminance=1,
                    command_points=2, luminance_points=1, hygiene_lights=0)
    source.write_text(serialize_triples(generate_synthetic(small)))
    assert main(["validate", "--input", str(source)]) == 1
    rows = capsys.readouterr().out.splitlines()[:12]
    assert rows[0] == f"FAIL {'rooms':32} expected={default.rooms} actual=4"


@pytest.mark.parametrize("from_file", [False, True], ids=["seed", "input"])
def test_served_building_is_what_build_writes(from_file, tmp_path, capsys):
    # `serve` builds at its own base what `build --base` writes there, from
    # the seed or from a Turtle file of relative IRIs (`--input`).
    source, argv = None, ["build", "--seed", "42"]
    if from_file:
        source = tmp_path / "building.ttl"
        source.write_text(serialize_triples(generate_synthetic(GeneratorParams(seed=42)))
                          .replace(f"<{DEFAULT_BASE}", "<"))
        argv += ["--input", str(source)]
    served = bench.serve_task("TC6", seed=42, source=source)
    try:
        base = served.server.base
        expected = build_dataset(params=GeneratorParams(seed=42), base=base)
        assert served.runtime.dataset == expected.dataset
        assert served.pd.dynamic == expected.dynamic
        out = tmp_path / "building.trig"
        assert main(argv + ["--base", base, "--out", str(out)]) == 0
        assert out.read_text() == serialize_dataset(served.runtime.dataset)
    finally:
        served.server.stop()


def test_served_day_repeats_the_dry_run_at_the_default_base():
    served = bench.serve_task("TC6", seed=42)
    control = httpclient.LdClient(served.server.base, agent="control")
    try:
        params = default_run_params(served.task, 48, 20)
        status, body = control.put_raw(SIM_PATH, bench.sim_start_payload(params))
        assert status == 200, body
        assert served.runtime.finished.wait(60)
        counts = served.runtime.fault_trace().counts()
    finally:
        control.close_all()
        served.server.stop()
    task = load_task("TC6", DEFAULT_BASE)
    env = build_environment(task, build_dataset(params=GeneratorParams(seed=42)), 42)
    dry = dry_run(env, default_run_params(task, 48, 20), task.fault_queries)
    assert counts == dry.counts() and sum(counts) > 0


def test_a_failed_set_up_releases_its_server():
    # A server stopped before it ever served must not wait for its loop.
    raised = []

    def set_up():
        try:
            bench.serve_task("TS9")
        except ValueError as exc:
            raised.append(exc)

    worker = threading.Thread(target=set_up, daemon=True)
    worker.start()
    worker.join(30)
    assert not worker.is_alive()
    assert raised and "unknown task" in str(raised[0])


@contextlib.contextmanager
def serve_command(task_id):
    """`ldsim serve` of one task in a subprocess, with the base it serves."""
    src = str(Path(bench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ldsim.bench", "serve", "--task", task_id, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        served = re.fullmatch(rf"serving {task_id} at (http://127\.0\.0\.1:\d+/) "
                              r"\(PUT <sim> to start a run\)\n", line)
        assert served, line
        yield proc, served[1]
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
        assert (proc.returncode, out) == (0, "stopping\n"), err
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.poll() is not None


def test_serve_command_serves_until_interrupted():
    with serve_command("TC6") as (_, base):
        client = httpclient.LdClient(base)
        try:
            status, triples = client.get_graph(base + "building")
        finally:
            client.close_all()
        assert status == 200 and triples


def test_serve_command_is_idle_after_its_run():
    # Once a run had finished, the wait for SIGINT returned at once and
    # kept a core busy.
    if not Path("/proc/self/stat").exists():
        pytest.skip("needs /proc/<pid>/stat")

    def cpu_seconds(pid):
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    with serve_command("TS1") as (proc, base):
        client = httpclient.LdClient(base)
        try:
            params = default_run_params(load_task("TS1", base), 3, 50)
            assert client.put_raw(SIM_PATH, bench.sim_start_payload(params))[0] == 200
            running = (IRI(base + SIM_PATH), IRI(base + SIM_VOCAB + "running"),
                       Literal("false", XSD_BOOLEAN))
            while running not in client.get_graph(base + SIM_PATH)[1]:
                time.sleep(0.05)
        finally:
            client.close_all()
        time.sleep(0.5)  # the last slot's pause, then the run is over
        before = cpu_seconds(proc.pid)
        time.sleep(1)
        assert cpu_seconds(proc.pid) - before < 0.25


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
    result = run_benchmark(task_id, agent="oracle", seed=42, iterations=16,
                           timeslot_ms=200)
    report = result.report
    assert report.valid, report.notes
    assert report.normalized_fault_count < 1.0
    # Slot 16 follows the last tick: an op there could change no fault.
    assert all(op.timeslot < 16 for op in result.ops)


def test_oracle_plans_from_the_initialised_snapshot():
    # TC1's night fixes depend on the lights its init randomises, so an
    # oracle that planned before slot 0 was published would miss them.
    result = run_benchmark("TC1", agent="oracle", seed=42, iterations=24,
                           timeslot_ms=200)
    assert result.report.valid, result.report.notes
    # The served run's seed-matched twin at DEFAULT_BASE: the draws are keyed
    # there whatever the port, so it plans the same writes.
    task = load_task("TC1", DEFAULT_BASE)
    env = build_environment(task, build_dataset(params=GeneratorParams(seed=42)), 42)
    initialised = SimulationRuntime(env, task.fault_queries)
    initialised.initialize(default_run_params(task, 24, 200))
    planned = sum(len(action.writes) for action in oracle_schedule(task, initialised))
    assert planned > 2 * 146  # night fixes beside the sunrise and sunset writes
    assert result.agent_stats.writes >= planned


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


def test_traversal_run_reaches_the_building_and_acts():
    # Systems and points link to rooms only as subjects, so the walk reaches
    # a command only by following both ends of a link.
    result = run_benchmark("TC1", agent="traversal", seed=42, iterations=16,
                           timeslot_ms=250)
    assert result.report.valid, result.report.notes
    assert result.report.writes > 0
    assert result.report.normalized_fault_count < 1.0


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
