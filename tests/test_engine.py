import sys
import threading
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldsim.building import GeneratorParams, build_dataset
from ldsim.engine import (
    AT_DESK,
    AT_LUNCH,
    ARRIVING,
    GONE,
    HOME,
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
    tick_percentile,
)
from ldsim.metrics import FaultQuery, compute_metrics, operation_counts, read_write_ratio
from ldsim.ns import DEFAULT_BASE, RDF_VALUE, XSD_DECIMAL, XSD_INTEGER
from ldsim.rdf import IRI, Dataset, Literal
from ldsim.sparql import parse_query, parse_update
from ldsim.trace import read_faults_tsv, read_ops_tsv, write_faults_tsv, write_ops_tsv
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

    def test_base_is_rewritten_to_default_base(self):
        other = "http://127.0.0.1:5/"
        assert KeyedRandom(7, other).unit(3, "u", other + "room") == \
            KeyedRandom(7).unit(3, "u", DEFAULT_BASE + "room")
        assert KeyedRandom(7, other).unit(3, "u", "k") == KeyedRandom(7).unit(3, "u", "k")

    @pytest.mark.parametrize("seed, base, key, value", [
        (42, DEFAULT_BASE, (7, "setpoints", DEFAULT_BASE + "property-Setpoint_001#it"),
         0.030961821591071487),
        (42, DEFAULT_BASE, (0, "coverage", "sunrise"), 0.6962195493354075),
        (1, DEFAULT_BASE, (1439, "fault:x", f'?it=<{DEFAULT_BASE}a>|?v="1"'),
         0.6197231910309827),
        (42, "http://127.0.0.1:8042/",
         (7, "setpoints", "http://127.0.0.1:8042/property-Setpoint_001#it"),
         0.030961821591071487),
        (3, "http://127.0.0.1:8042/",
         (12, "occupancy", "http://127.0.0.1:8042/person-7", "http://127.0.0.1:8042/x"),
         0.33367502762601914),
        (3, "http://127.0.0.1:8042/", (), 0.3047981572769873),
    ])
    def test_golden_draws(self, seed, base, key, value):
        # Recorded before the key material was built with one join; every
        # stored dry total depends on these draws staying bit for bit.
        assert KeyedRandom(seed, base).unit(*key) == value

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


class Recording(KeyedRandom):
    """Records the key of every draw and returns the draw of `inner`."""

    def __init__(self, inner: KeyedRandom):
        super().__init__(inner.seed)
        self.inner = inner
        self.keys = []

    def unit(self, *key):
        self.keys.append(key)
        return self.inner.unit(*key)


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

    @pytest.mark.parametrize("draw, state", [(0.64, "at-lunch"), (0.65, "at-desk")])
    def test_rates_compound_per_slot(self, draw, state):
        # At 20-minute slots the 1/20 per-minute lunch rate gives a slot
        # probability of 1 - (19/20) ** 20 = 0.6415, not 20/20 = 1.
        occ = (Occupant(iri="urn:o1", room="urn:r0", state="at-desk", since=0),)
        occ = occupancy_step(occ, 36, 12.0, 20.0, ForcedRandom(draw), OccupancyConfig())
        assert occ[0].state == state


    def test_unchanged_occupants_are_kept_and_each_draws_at_most_once(self):
        before = self.occupants() + (
            Occupant(iri="urn:o8", room="urn:r1", state="at-desk", since=0),
            Occupant(iri="urn:o9", room="urn:r0", state="arriving", since=0))
        rng = Recording(ForcedRandom(0.99))
        after = occupancy_step(before, 20, 9.0, 1.0, rng, OccupancyConfig())
        assert all(a is b for a, b in zip(after[:5], before[:5]))
        assert after[5] == Occupant(iri="urn:o9", room="urn:r0", state="at-desk", since=20)
        # Only the four at home compare a draw at 9:00: the one at a desk is
        # outside the lunch and leaving windows, the arriving one reads none.
        assert sorted(rng.keys) == sorted((20, "occupancy", o.iri) for o in before[:4])

    @settings(max_examples=300, deadline=None)
    @given(
        states=st.lists(st.tuples(st.sampled_from([HOME, ARRIVING, AT_DESK, AT_LUNCH, GONE]),
                                  st.integers(0, 200), st.booleans()), max_size=8),
        iteration=st.integers(0, 300),
        hour=st.one_of(st.floats(0.0, 24.0, exclude_max=True),
                       st.sampled_from([7.99, 8.0, 12.0, 14.0, 16.0, 21.0])),
        step_minutes=st.one_of(st.sampled_from([0.5, 1.0, 20.0, 45.0]),
                               st.floats(0.1, 120.0)),
        seed=st.integers(0, 2 ** 32),
        # The second lunch window overlaps the leaving hours, where a draw
        # too high for lunch can still be low enough to leave.
        cfg=st.sampled_from([OccupancyConfig(),
                             OccupancyConfig(lunch_until_hour=17.0, leave_from_hour=13.0,
                                             leave_rate=1 / 5)]))
    def test_lazy_draws_match_one_draw_per_occupant(self, states, iteration, hour,
                                                    step_minutes, seed, cfg):
        before = tuple(Occupant(iri=f"urn:o{i}", room="urn:r0", state=state, since=since,
                                lunched=lunched)
                       for i, (state, since, lunched) in enumerate(states))
        rng = Recording(KeyedRandom(seed))
        lazy = occupancy_step(before, iteration, hour, step_minutes, rng, cfg)
        assert lazy == _eager_occupancy_step(before, iteration, hour, step_minutes,
                                             KeyedRandom(seed), cfg)
        assert len(rng.keys) == len(set(rng.keys))
        assert set(rng.keys) <= {(iteration, "occupancy", o.iri) for o in before}


def _eager_occupancy_step(occupants, iteration, hour, step_minutes, rng, cfg):
    """The reference: every occupant draws once, whether a branch reads it."""

    def scaled(rate):
        return 1.0 - (1.0 - rate) ** step_minutes

    out = []
    for occ in occupants:
        draw = rng.unit(iteration, "occupancy", occ.iri)
        state, since, lunched = occ.state, occ.since, occ.lunched
        if hour >= cfg.closing_hour and state not in (HOME, GONE):
            state = GONE
        elif state == GONE and hour < cfg.arrive_from_hour:
            state, lunched = HOME, False
        elif state == HOME:
            if cfg.arrive_from_hour <= hour < cfg.closing_hour \
                    and draw < scaled(cfg.arrive_rate):
                state, since = ARRIVING, iteration
        elif state == ARRIVING:
            if (iteration - since) * step_minutes >= cfg.commute_minutes:
                state, since = AT_DESK, iteration
        elif state == AT_DESK:
            if (not lunched and cfg.lunch_from_hour <= hour < cfg.lunch_until_hour
                    and draw < scaled(cfg.lunch_rate)):
                state, since = AT_LUNCH, iteration
            elif hour >= cfg.leave_from_hour and draw < scaled(cfg.leave_rate):
                state = GONE
        elif state == AT_LUNCH:
            if ((iteration - since) * step_minutes >= cfg.lunch_min_minutes
                    and draw < scaled(cfg.lunch_return_rate)):
                state, since, lunched = AT_DESK, iteration, True
        out.append(replace(occ, state=state, since=since, lunched=lunched))
    return tuple(out)


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
        assert runtime.finished.wait(10)
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
        runtime.dataset = runtime.dataset.replace_graphs(
            {sensor.graph: frozenset(kept | stale | {other})})
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

    @pytest.mark.parametrize("builtin, category, stale", [
        ("occupancy", "occupancy", Literal("on")),
        ("sunlight", "luminance", Literal("99.0", XSD_DECIMAL)),
    ])
    def test_graph_replaced_behind_the_write_record_is_put_back(
            self, small_build, builtin, category, stale):
        # At night nobody is in and there is no light, so the built-in's
        # inputs do not change; a graph an agent replaced is read again.
        runtime = SimulationRuntime(make_env(
            small_build, updates=[EnvEntry(builtin, "builtin")]))
        runtime.initialize(run_params(iterations=5, start_hour=1))
        runtime.tick()
        sensor = min((r for r in small_build.dynamic.values() if r.category == category),
                     key=lambda r: r.graph)
        value = IRI(RDF_VALUE)
        settled = runtime.dataset.graph(sensor.graph)
        present = occupied_rooms(runtime.occupants)
        replaced = frozenset(tr for tr in settled if tr[1] != value) \
            | {(IRI(sensor.node), value, stale)}
        runtime.dataset = runtime.dataset.replace_graphs({sensor.graph: replaced})
        before = runtime.dataset
        runtime.tick()
        assert occupied_rooms(runtime.occupants) == present
        assert runtime.dataset.graph(sensor.graph) == settled
        delta = symmetric_difference(before, runtime.dataset)
        assert delta.graph_names() == {BASE + "sim", sensor.graph}

    def test_agent_write_to_a_sensor_is_put_back(self, small_build):
        # The write goes through the built-ins' own path but leaves them no
        # write record, so the sensor is read again though nothing changed.
        runtime = SimulationRuntime(make_env(
            small_build, updates=[EnvEntry("occupancy", "builtin")]))
        runtime.initialize(run_params(iterations=5, start_hour=1))
        runtime.tick()
        sensor = min((r for r in small_build.dynamic.values() if r.category == "occupancy"),
                     key=lambda r: r.graph)
        settled = runtime.dataset.graph(sensor.graph)
        assert (IRI(sensor.node), IRI(RDF_VALUE), Literal("off")) in settled
        record = runtime.apply_agent_write(sensor.graph, Literal("on"), "a1", 204)
        assert record.delta_graphs == (sensor.graph,)
        runtime.tick()
        assert runtime.dataset.graph(sensor.graph) == settled

    def test_builtins_publish_one_version_per_tick(self, small_build, monkeypatch):
        entries = [EnvEntry("sunlight", "builtin"), EnvEntry("occupancy", "builtin"),
                   EnvEntry("setpoints", "builtin")]
        runtime = SimulationRuntime(make_env(small_build, updates=entries))
        runtime.initialize(run_params(iterations=5, start_hour=12))
        calls = []
        replace_graphs = Dataset.replace_graphs
        monkeypatch.setattr(Dataset, "replace_graphs",
                            lambda ds, updates: calls.append(set(updates))
                            or replace_graphs(ds, updates))
        runtime.tick()
        station = small_build.base + "property-Outside_Luminance_Sensor"
        assert len(calls) == 1 and {BASE + "sim", station} <= calls[0]

    def test_update_sees_the_builtins_staged_before_it(self, small_build):
        station = small_build.base + "property-Outside_Luminance_Sensor"
        seen = BASE + "seen"
        copy = parse_update(f"INSERT {{ GRAPH <{seen}> {{ ?it <{seen}> ?v }} }} "
                            f"WHERE {{ GRAPH <{station}> {{ ?it <{RDF_VALUE}> ?v }} }}")
        runtime = SimulationRuntime(make_env(small_build, updates=[
            EnvEntry("sunlight", "builtin"), EnvEntry("copy", "update", copy)]))
        runtime.initialize(run_params(iterations=5, start_hour=13))
        runtime.tick()
        lux = {o for s, p, o in runtime.dataset.graph(station) if p.value == RDF_VALUE}
        assert {o for s, p, o in runtime.dataset.graph(seen)} == lux

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

    def test_agent_write_method_and_delta(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        command = next(r for r in small_build.dynamic.values()
                       if r.category == "command")
        node = IRI(command.node)
        managed = {tr for tr in runtime.dataset.graph(command.graph)
                   if tr[1] != IRI(RDF_VALUE)}
        assert managed  # the type and the links of the property stay
        record = runtime.apply_agent_write(command.graph, Literal("on"), "a1", 204)
        assert record.method == "PUT"
        assert record.delta_graphs == (command.graph,)
        assert runtime.dataset.graph(command.graph) == \
            managed | {(node, IRI(RDF_VALUE), Literal("on"))}
        # Same value again: no delta, still recorded.
        record2 = runtime.apply_agent_write(command.graph, Literal("on"), "a1", 204)
        assert record2.delta_graphs == ()
        assert runtime.snapshot_log()[1] == [record, record2]

    @pytest.mark.parametrize("value", [
        Literal("junk"), Literal("on", lang="en"), Literal("0", XSD_INTEGER), IRI(BASE + "on"),
        "on"])
    def test_agent_write_outside_the_command_range_raises(self, small_build, value):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        command = next(r for r in small_build.dynamic.values() if r.category == "command")
        before = runtime.dataset
        with pytest.raises(ValueError):
            runtime.apply_agent_write(command.graph, value, "a1", 204)
        assert runtime.dataset is before and runtime.snapshot_log()[1] == []

    def test_read_and_write_slot_attribution(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        for _ in range(5):
            runtime.tick()
        command = next(r for r in small_build.dynamic.values()
                       if r.category == "command")
        for _ in range(3):
            runtime.record_read(command.graph, 200, 100, "a1")
        runtime.apply_agent_write(command.graph, Literal("on"), "a1", 204)
        meta, ops = runtime.snapshot_log()
        slot5 = [op for op in ops if op.timeslot == 5]
        assert len(slot5) == 4
        assert sum(1 for op in slot5 if op.is_read) == 3

    def test_equal_reads_in_one_slot_share_a_record(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        graph = next(iter(small_build.dynamic.values())).graph
        runtime.record_read(graph, 200, 100, "a1")
        runtime.record_read(graph, 200, 100, "a1")
        first, second = runtime.snapshot_log()[1]
        assert first is second

    @pytest.mark.parametrize("change", ["status", "bytes", "agent", "slot"])
    def test_a_different_read_gets_a_new_record(self, small_build, change):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        graph = next(iter(small_build.dynamic.values())).graph
        read = {"target": graph, "status": 200, "nbytes": 100, "agent": "a1"}
        runtime.record_read(**read)
        if change == "slot":
            runtime.tick()
        else:
            read.update({"status": {"status": 404}, "bytes": {"nbytes": 99},
                         "agent": {"agent": "a2"}}[change])
        runtime.record_read(**read)
        runtime.record_read(**read)
        first, second, third = runtime.snapshot_log()[1]
        assert first is not second and first != second
        assert second is third

    def test_concurrent_reads_of_shared_keys_are_each_logged_as_made(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        graphs = sorted(r.graph for r in small_build.dynamic.values())[:2]
        made = [[(graphs[i % 2], n * 10_000 + i // 4) for i in range(2_000)]
                for n in range(4)]

        def reader(reads):
            for graph, nbytes in reads:
                runtime.record_read(graph, 200, nbytes, "a1")

        threads = [threading.Thread(target=reader, args=(reads,)) for reads in made]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        ops = runtime.snapshot_log()[1]
        for n, reads in enumerate(made):
            assert [(op.target, op.payload_bytes) for op in ops
                    if op.payload_bytes // 10_000 == n] == reads

    def test_shared_records_count_and_persist_as_distinct_ones(self, small_build,
                                                               tmp_path):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(run_params())
        command = next(r for r in small_build.dynamic.values()
                       if r.category == "command")
        for slot in range(3):
            for agent in ("a1", "a1", "a2"):
                runtime.record_read(command.graph, 200, 100, agent)
            runtime.apply_agent_write(command.graph, Literal("on"), "a1", 204)
            runtime.tick()
        ops = runtime.snapshot_log()[1]
        assert len({id(op) for op in ops}) < len(ops)
        distinct = [replace(op) for op in ops]
        assert all(a == b and a is not b for a, b in zip(ops, distinct))
        for agent in (None, "a1", "a2"):
            assert operation_counts([op for op in ops if agent in (None, op.agent)]) == \
                operation_counts([op for op in distinct if agent in (None, op.agent)])
        assert read_write_ratio(*operation_counts(ops)) == 3.0
        write_ops_tsv(ops, tmp_path / "shared.tsv")
        write_ops_tsv(distinct, tmp_path / "distinct.tsv")
        assert (tmp_path / "shared.tsv").read_text() == \
            (tmp_path / "distinct.tsv").read_text()
        assert read_ops_tsv(tmp_path / "shared.tsv") == distinct

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

    def test_unfinished_run_scores_and_round_trips(self, small_build, tmp_path):
        # A run cut off before its last slot is scored, so it can be
        # reported invalid; the slots it never reached hold no faults.
        query = parse_query(f'SELECT ?it {{ ?it <{RDF_VALUE}> "off" }}')
        runtime = SimulationRuntime(make_env(small_build),
                                    fault_checks=(FaultQuery("off", query),))
        runtime.initialize(run_params(iterations=4))
        runtime.tick()
        runtime.tick()
        trace = runtime.fault_trace()
        assert trace.k == 4 and len(trace.slots) == 5
        assert trace.slots[3:] == [{}, {}] and trace.slots[2]["off"]
        report = compute_metrics(trace, trace, [], valid=False)
        assert report.per_slot_counts[3:] == [0, 0]
        assert report.normalized_fault_count == 1.0
        write_faults_tsv(trace, tmp_path / "cut.faults.tsv")
        back = read_faults_tsv(tmp_path / "cut.faults.tsv")
        assert (back.k, back.slots) == (trace.k, trace.slots)
        assert compute_metrics(back, back, [], valid=False) == report

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

    @pytest.mark.parametrize("samples,pct,expected", [
        ([1.0, 2.0], 50.0, 1.0),
        ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 50.0, 3.0),
        ([float(i) for i in range(1, 101)], 7.0, 7.0),
        ([3.0], 95.0, 3.0),
        ([], 50.0, 0.0),
    ])
    def test_tick_percentile_examples(self, samples, pct, expected):
        assert tick_percentile(samples, pct) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=1, max_size=60), st.integers(1, 100))
    def test_tick_percentile_is_the_nearest_rank(self, values, pct):
        # Nearest rank: the smallest sample with at least pct% of all
        # samples at or below it.
        samples = [float(v) for v in values]
        expected = min(x for x in samples
                       if 100 * sum(y <= x for y in samples) >= pct * len(samples))
        assert tick_percentile(samples, float(pct)) == expected

    def test_start_twice_rejected(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.start(run_params(iterations=5), pace=False)
        with pytest.raises(RuntimeError, match="in progress"):
            runtime.start(run_params(iterations=5))
        assert runtime.finished.wait(5)

    def test_sim_time_advances_by_step(self, small_build):
        runtime = SimulationRuntime(make_env(small_build))
        runtime.initialize(RunParams(
            initial_time=datetime(2020, 5, 22, 0, 0, tzinfo=timezone.utc),
            timeslot_ms=10, iterations=5, step_seconds=90))
        runtime.tick()
        runtime.tick()
        assert runtime.sim_time() == datetime(2020, 5, 22, 0, 3, tzinfo=timezone.utc)
        assert hours_of_day(runtime.sim_time()) == pytest.approx(0.05)
