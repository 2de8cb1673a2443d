from datetime import datetime, timezone

import pytest

from ldsim.building import GeneratorParams, build_dataset
from ldsim.engine import (
    EnvEntry,
    KeyedRandom,
    Occupant,
    OccupancyConfig,
    RunParams,
    SimEnvironment,
    SimulationRuntime,
    baseline_illuminance,
    hours_of_day,
    occupancy_step,
    occupied_rooms,
    outside_illuminance,
    room_illuminance,
)
from ldsim.metrics import FaultQuery
from ldsim.ns import DEFAULT_BASE, RDF_VALUE, XSD_DECIMAL, XSD_INTEGER
from ldsim.rdf import IRI, Literal
from ldsim.sparql import parse_query, parse_update
from rdf_helpers import symmetric_difference

BASE = DEFAULT_BASE


def small_params() -> GeneratorParams:
    return GeneratorParams(
        rooms=4, floors=1, wings=1, lighting_systems=3,
        systems_with_occupancy=2, systems_with_command=2,
        systems_with_luminance=1, rooms_with_occupancy=2,
        rooms_with_command=2, rooms_with_luminance=1,
        command_points=2, luminance_points=1, hygiene_lights=0, seed=3)


@pytest.fixture(scope="module")
def small_build():
    return build_dataset(params=small_params())


def make_env(pd, seed=42, updates=(), init=()):
    return SimEnvironment(
        dataset=pd.dataset, init_entries=list(init), update_entries=list(updates),
        seed=seed, base=BASE, dynamic=pd.dynamic)


def run_params(iterations=10, step_seconds=60, start_hour=0):
    return RunParams(
        initial_time=datetime(2020, 5, 22, start_hour, 0, tzinfo=timezone.utc),
        timeslot_ms=10, iterations=iterations, step_seconds=step_seconds)


class TestKeyedRandom:
    def test_pure(self):
        assert KeyedRandom(7).unit(3, "u", "k") == KeyedRandom(7).unit(3, "u", "k")

    def test_component_sensitivity(self):
        base_draw = KeyedRandom(7).unit(3, "u", "k")
        assert KeyedRandom(7).unit(4, "u", "k") != base_draw
        assert KeyedRandom(7).unit(3, "v", "k") != base_draw
        assert KeyedRandom(7).unit(3, "u", "j") != base_draw
        assert KeyedRandom(8).unit(3, "u", "k") != base_draw

    def test_iteration_draws_distinct(self):
        rng = KeyedRandom(1)
        draws = {rng.unit(i, "u", "k") for i in range(10_000)}
        assert len(draws) == 10_000

    def test_uniform_mean(self):
        rng = KeyedRandom(123)
        n = 100_000
        mean = sum(rng.unit(i, "m", "x") for i in range(n)) / n
        assert 0.49 <= mean <= 0.51


class TestSunlight:
    def test_zero_at_sunrise_and_sunset(self):
        assert outside_illuminance(6.0, (0.0, 0.0)) == 0.0
        assert outside_illuminance(21.0, (0.0, 0.0)) == 0.0
        assert outside_illuminance(3.0, (0.0, 0.0)) == 0.0
        assert outside_illuminance(23.0, (0.5, 0.7)) == 0.0

    def test_peak_forty_thousand(self):
        assert outside_illuminance(13.5, (0.0, 0.0)) == 40000.0
        assert outside_illuminance(13.5, (0.25, 0.25)) == 30000.0

    def test_hand_evaluated_midmorning(self):
        # 09:45 with constant coverage 0.5: 40000 * 0.75 * 0.5.
        assert outside_illuminance(9.75, (0.5, 0.5)) == pytest.approx(15000.0)

    def test_peak_position(self):
        hours = [h / 4 for h in range(0, 97)]
        values = [baseline_illuminance(h) for h in hours]
        assert max(values) == values[hours.index(13.5)]

    def test_room_illuminance(self):
        assert room_illuminance(0.0, 0.07) == 0.0
        assert room_illuminance(40000.0, 0.1) == 4000.0
        assert room_illuminance(20000.0, 0.05) == 1000.0

    def test_room_never_exceeds_4000(self):
        for h in range(6 * 60, 21 * 60, 7):
            outside = outside_illuminance(h / 60.0, (0.0, 1.0))
            assert room_illuminance(outside, 0.1) <= 4000.0


class ForcedRandom(KeyedRandom):
    def __init__(self, value):
        super().__init__(0)
        self.value = value

    def unit(self, *key):
        return self.value


class TestOccupancy:
    def occupants(self):
        return tuple(Occupant(iri=f"urn:o{i}", room=f"urn:r{i % 2}") for i in range(4))

    def test_night_everyone_home(self):
        occ = occupancy_step(self.occupants(), 1, 3.0, 1.0, ForcedRandom(0.0),
                             OccupancyConfig())
        assert occupied_rooms(occ) == frozenset()

    def test_forced_arrival_fills_rooms(self):
        cfg = OccupancyConfig()
        occ = self.occupants()
        rng = ForcedRandom(0.0)  # every gate fires
        hour = 8.0
        for it in range(1, 30):
            occ = occupancy_step(occ, it, hour, 1.0, rng, cfg)
            hour += 1 / 60
        assert occupied_rooms(occ) == {"urn:r0", "urn:r1"}
        assert all(o.state == "at-desk" for o in occ)

    def test_no_arrival_without_draw(self):
        occ = occupancy_step(self.occupants(), 1, 9.0, 1.0, ForcedRandom(0.99),
                             OccupancyConfig())
        assert all(o.state == "home" for o in occ)

    def test_closing_time_clears_building(self):
        occ = tuple(Occupant(iri=f"urn:o{i}", room="urn:r0", state="at-desk")
                    for i in range(3))
        occ = occupancy_step(occ, 1, 23.0, 1.0, ForcedRandom(0.99), OccupancyConfig())
        assert all(o.state == "gone" for o in occ)

    def test_lunch_cycle(self):
        cfg = OccupancyConfig()
        occ = (Occupant(iri="urn:o1", room="urn:r0", state="at-desk", since=0),)
        rng = ForcedRandom(0.0)
        occ = occupancy_step(occ, 100, 12.0, 1.0, rng, cfg)
        assert occ[0].state == "at-lunch"
        # Returns only after the minimum lunch duration.
        occ = occupancy_step(occ, 110, 12.2, 1.0, rng, cfg)
        assert occ[0].state == "at-lunch"
        occ = occupancy_step(occ, 150, 12.9, 1.0, rng, cfg)
        assert occ[0].state == "at-desk" and occ[0].lunched


    def test_unchanged_occupants_are_kept_and_each_draws_once(self):
        class Counting(ForcedRandom):
            def __init__(self):
                super().__init__(0.99)
                self.keys = []

            def unit(self, *key):
                self.keys.append(key)
                return self.value

        before = self.occupants() + (
            Occupant(iri="urn:o9", room="urn:r0", state="arriving", since=0),)
        rng = Counting()
        after = occupancy_step(before, 20, 9.0, 1.0, rng, OccupancyConfig())
        assert all(a is b for a, b in zip(after[:4], before[:4]))
        assert after[4] == Occupant(iri="urn:o9", room="urn:r0", state="at-desk", since=20)
        assert sorted(rng.keys) == sorted((20, "occupancy", o.iri) for o in before)


class TestRuntime:
    def test_started_only_once_slot_zero_is_published(self, small_build):
        # Callers wait for `started` and then plan from `dataset`.
        seen = []

        class Watched(SimulationRuntime):
            def __setattr__(self, name, value):
                if name == "started" and value:
                    seen.append((self.dataset is not self.env.dataset,
                                 len(self.fault_slots)))
                super().__setattr__(name, value)

        runtime = Watched(make_env(small_build, init=[EnvEntry("sunlight", "builtin")]))
        assert not runtime.started
        runtime.start(run_params(iterations=2), pace=False)
        runtime.join(10)
        assert runtime.finished.is_set()
        assert seen == [(True, 1)]

    def test_tick_without_updates_touches_only_time(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        before = runtime.dataset
        runtime.tick()
        delta = symmetric_difference(before, runtime.dataset)
        assert delta.graph_names() == {BASE + "sim"}

    def test_two_runs_same_seed_identical_per_slot(self, small_build):
        entries = [EnvEntry("sunlight", "builtin"), EnvEntry("occupancy", "builtin")]
        a = SimulationRuntime(make_env(small_build, updates=entries))
        b = SimulationRuntime(make_env(small_build, updates=entries))
        params = run_params(iterations=30, step_seconds=1800, start_hour=6)
        a.initialize(params)
        b.initialize(params)
        assert a.dataset == b.dataset
        for _ in range(30):
            a.tick()
            b.tick()
            assert a.dataset == b.dataset

    def test_sim_graph_contents(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params(step_seconds=60, start_hour=13))
        for _ in range(30):
            runtime.tick()
        sim = runtime.dataset.graph(BASE + "sim")
        values = {p.value.rsplit("#", 1)[-1]: o for s, p, o in sim
                  if s == IRI(BASE + "sim") or "time-desc" in getattr(s, "value", "")}
        assert values["currentIteration"] == Literal("30", XSD_INTEGER)
        assert values["hour"] == Literal("13", XSD_INTEGER)
        assert values["minute"] == Literal("30", XSD_INTEGER)

    def test_sunlight_written_at_zenith(self, small_build):
        entries = [EnvEntry("sunlight", "builtin")]
        runtime = SimulationRuntime(make_env(small_build, updates=entries))
        runtime.initialize(run_params(iterations=30, step_seconds=60, start_hour=13))
        for _ in range(30):
            runtime.tick()
        outside = outside_illuminance(13.5, runtime.coverage)
        station = small_build.base + "property-Outside_Luminance_Sensor"
        triples = runtime.dataset.graph(station)
        value = next(o for s, p, o in triples if p.value == RDF_VALUE)
        assert value == Literal(f"{outside:.1f}", value.datatype)
        # Room sensors carry the occluded value.
        lum = next(r for r in small_build.dynamic.values() if r.category == "luminance")
        room_value = next(o for s, p, o in runtime.dataset.graph(lum.graph)
                          if p.value == RDF_VALUE)
        expected = room_illuminance(outside, runtime.occlusion[lum.room])
        assert room_value.lexical == f"{expected:.1f}"

    def test_sensor_write_replaces_only_the_value(self, small_build):
        runtime = SimulationRuntime(make_env(
            small_build, updates=[EnvEntry("sunlight", "builtin")]))
        runtime.initialize(run_params(iterations=5, start_hour=1))
        sensor = next(r for r in small_build.dynamic.values() if r.category == "luminance")
        node, value = IRI(sensor.node), IRI(RDF_VALUE)
        dark = Literal("0.0", XSD_DECIMAL)  # the night-time value, held among others
        other = (node, IRI(BASE + "vocab/building#note"), Literal("kept"))
        stale = {(node, value, dark), (node, value, Literal("2.0", XSD_DECIMAL))}
        kept = {tr for tr in runtime.dataset.graph(sensor.graph) if tr[1] != value}
        runtime.apply_agent_write(sensor.graph, frozenset(kept | stale | {other}),
                                  "a1", 204)
        runtime.tick()
        after = runtime.dataset.graph(sensor.graph)
        assert after == kept | {other, (node, value, dark)}

    def test_unchanged_sensor_values_leave_graphs_shared(self, small_build):
        runtime = SimulationRuntime(make_env(small_build, updates=[
            EnvEntry("sunlight", "builtin"), EnvEntry("occupancy", "builtin")]))
        runtime.initialize(run_params(iterations=5, start_hour=1))
        runtime.tick()  # night: no light, nobody in
        before = runtime.dataset
        runtime.tick()
        delta = symmetric_difference(before, runtime.dataset)
        assert delta.graph_names() == {BASE + "sim"}
        for res in small_build.dynamic.values():
            assert runtime.dataset.graph(res.graph) is before.graph(res.graph)

    def test_update_file_entry_applied_each_tick(self, small_build):
        text = ("PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
                "DELETE { GRAPH ?g { ?it rdf:value \"off\" } }\n"
                "INSERT { GRAPH ?g { ?it rdf:value \"on\" } }\n"
                "WHERE { GRAPH ?g { ?it rdf:value \"off\" . "
                "?it a <http://www.w3.org/ns/sosa/ActuatableProperty> } }")
        entry = EnvEntry("flip", "update", parse_update(text, base=BASE))
        runtime = SimulationRuntime(make_env(small_build, updates=[entry]))
        runtime.initialize(run_params(iterations=2))
        runtime.tick()
        commands = [r for r in small_build.dynamic.values() if r.category == "command"]
        for res in commands:
            values = {o.lexical for s, p, o in runtime.dataset.graph(res.graph)
                      if p.value == RDF_VALUE}
            assert values == {"on"}

    def test_failing_update_aborts_with_diagnostics(self, small_build):
        runtime = SimulationRuntime(make_env(small_build, updates=[
            EnvEntry("not-a-builtin", "builtin")]))
        runtime.initialize(run_params())
        with pytest.raises(RuntimeError, match="not-a-builtin"):
            runtime.tick()

    def test_agent_write_classification_and_delta(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        command = next(r for r in small_build.dynamic.values()
                       if r.category == "command")
        node = IRI(command.node)
        on = frozenset({(node, IRI(RDF_VALUE), Literal("on"))})
        record = runtime.apply_agent_write(command.graph, on, "a1", 204)
        assert (record.method, record.classification) == ("PUT", "replace")
        assert record.delta_graphs == (command.graph,)
        assert runtime.dataset.graph(command.graph) == on
        # Same payload again: no delta, still recorded.
        record2 = runtime.apply_agent_write(command.graph, on, "a1", 204)
        assert record2.delta_graphs == ()
        assert runtime.snapshot_log()[1] == [record, record2]

    def test_read_and_write_slot_attribution(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        for _ in range(5):
            runtime.tick()
        command = next(r for r in small_build.dynamic.values()
                       if r.category == "command")
        for _ in range(3):
            runtime.record_read(command.graph, 200, 100, "a1")
        on = frozenset({(IRI(command.node), IRI(RDF_VALUE), Literal("on"))})
        runtime.apply_agent_write(command.graph, on, "a1", 204)
        meta, ops = runtime.snapshot_log()
        slot5 = [op for op in ops if op.timeslot == 5]
        assert len(slot5) == 4
        assert sum(1 for op in slot5 if op.is_read) == 3

    def test_fault_trace_recorded_per_slot(self, small_build):
        query = parse_query(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
            "SELECT ?it { ?it rdf:value \"off\" . "
            "?it a <http://www.w3.org/ns/sosa/ActuatableProperty> }")
        fq = FaultQuery(id="lights-off", query=query)
        runtime = SimulationRuntime(make_env(small_build), fault_checks=(fq,))
        runtime.initialize(run_params(iterations=3))
        runtime.tick()
        trace = runtime.fault_trace()
        # Both commands and both setpoints... setpoints hold integers, so only
        # the two command properties match "off".
        assert len(trace.slots[0]["lights-off"]) == 2
        assert len(trace.slots[1]["lights-off"]) == 2

    def test_env_change_digests_match_across_seeded_runs(self, small_build):
        entries = [EnvEntry("sunlight", "builtin"), EnvEntry("occupancy", "builtin"),
                   EnvEntry("setpoints", "builtin")]
        runs = []
        for _ in range(2):
            runtime = SimulationRuntime(make_env(small_build, updates=entries))
            runtime.initialize(run_params(iterations=40, step_seconds=1200, start_hour=5))
            snapshots = [runtime.dataset]
            for _ in range(40):
                runtime.tick()
                snapshots.append(runtime.dataset)
            runs.append(snapshots)
        assert runs[0] == runs[1]
        deltas = [[symmetric_difference(before, after)
                   for before, after in zip(run, run[1:])] for run in runs]
        assert deltas[0] == deltas[1]
        # Sunlight changes graphs other than the run-control graph.
        assert any(delta.graph_names() - {BASE + "sim"} for delta in deltas[0])


class TestRunLoop:
    def test_run_sync_finishes_and_counts(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.run_sync(run_params(iterations=8), pace=False)
        assert runtime.iteration == 8
        assert runtime.finished.is_set()
        assert len(runtime.fault_slots) == 9

    def test_phase_timings_reported(self, small_build):
        query = parse_query("SELECT ?s { ?s <http://www.w3.org/1999/02/22-rdf-syntax-ns#value> ?v "
                            "FILTER(rand() < 0.5) }")
        runtime = SimulationRuntime(make_env(small_build), (FaultQuery("q", query),))
        runtime.run_sync(run_params(iterations=8), pace=False)
        assert len(runtime.fault_check_seconds) == len(runtime.tick_seconds) == 8
        assert all(0 < f <= t for f, t in zip(runtime.fault_check_seconds,
                                                runtime.tick_seconds))
        meta, _ops = runtime.snapshot_log()
        assert 0 < meta["tick_p50_ms"] <= meta["tick_p95_ms"]
        assert 0 < meta["fault_check_p95_ms"] <= max(runtime.tick_seconds) * 1000
        assert meta["fault_check_p95_ms"] == max(runtime.fault_check_seconds) * 1000

    def test_start_twice_rejected(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.start(run_params(iterations=5), pace=False)
        with pytest.raises(RuntimeError, match="in progress"):
            runtime.start(run_params(iterations=5))
        runtime.join(5)
        assert runtime.finished.is_set()

    def test_sim_time_advances_by_step(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(RunParams(
            initial_time=datetime(2020, 5, 22, 0, 0, tzinfo=timezone.utc),
            timeslot_ms=10, iterations=5, step_seconds=90))
        runtime.tick()
        runtime.tick()
        assert runtime.sim_time() == datetime(2020, 5, 22, 0, 3, tzinfo=timezone.utc)
        assert hours_of_day(runtime.sim_time()) == pytest.approx(0.05)
