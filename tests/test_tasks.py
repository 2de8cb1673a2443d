import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldsim import metrics
from ldsim.building import GeneratorParams, build_dataset
from ldsim.engine import SimulationRuntime, dry_run, value_payload
from ldsim.ns import DEFAULT_BASE
from ldsim.metrics import average_fault_count, fault_rate, match_faults, total_faults
from ldsim.rdf import IRI, Dataset, Literal
from ldsim.sparql import EvalContext, PathPlus, TriplePattern, eval_query
from ldsim.tasks import (
    TASK_IDS,
    build_environment,
    default_run_params,
    load_task,
    oracle_schedule,
)

FOR_PROPERTY = "http://www.w3.org/ns/ssn/forProperty"


@pytest.fixture(scope="module")
def pd():
    return build_dataset(params=GeneratorParams())


@pytest.fixture(scope="module")
def tasks(pd):
    return {tid: load_task(tid, pd.base) for tid in TASK_IDS}


class TestLoading:
    def test_all_tasks_load(self, tasks):
        assert set(tasks) == set(TASK_IDS)

    def test_ts1_shape(self, tasks):
        ts1 = tasks["TS1"]
        assert ts1.update_entries == []
        assert len(ts1.fault_queries) == 1
        assert ts1.ideal_writes == 146
        assert not ts1.requires_reasoning

    def test_tc7_shape(self, tasks):
        tc7 = tasks["TC7"]
        builtin_ids = [e.id for e in tc7.update_entries if e.kind == "builtin"]
        assert builtin_ids == ["sunlight", "occupancy", "setpoints"]
        assert tc7.ideal_writes == 64

    def test_reasoning_flags(self, tasks):
        assert {tid for tid, t in tasks.items() if t.requires_reasoning} == \
            {"TS3", "TC2"}

    def test_unknown_task_rejected(self, pd):
        with pytest.raises(ValueError, match="unknown task"):
            load_task("TS9", pd.base)

    def test_all_queries_within_subset(self, tasks):
        for task in tasks.values():
            for fq in task.fault_queries:
                assert fq.query.pattern.elements  # parsed as a SELECT
            assert task.rules_text


def short_dry(task, pd, seed=42, iterations=96):
    env = build_environment(task, pd, seed)
    return dry_run(env, default_run_params(task, iterations), task.fault_queries)


class TestDryRunProfiles:
    def test_ts1_every_light_faulty_forever(self, pd, tasks):
        trace = short_dry(tasks["TS1"], pd)
        assert fault_rate(trace) == 1.0
        assert average_fault_count(trace) == 146.0

    def test_ts2_untouched_lights_faulty(self, pd, tasks):
        trace = short_dry(tasks["TS2"], pd)
        assert average_fault_count(trace) == 146.0

    def test_ts3_exactly_six(self, pd, tasks):
        trace = short_dry(tasks["TS3"], pd)
        assert average_fault_count(trace) == 6.0

    def test_tc_tasks_have_nonzero_dry_faults(self, pd, tasks):
        for tid in ("TC1", "TC2", "TC3", "TC4", "TC5", "TC6", "TC7"):
            trace = short_dry(tasks[tid], pd)
            assert total_faults(trace) > 0, tid

    def test_tc1_respects_day_night_windows(self, pd, tasks):
        trace = short_dry(tasks["TC1"], pd, iterations=96)  # 15 min slots
        counts = trace.counts()
        # Random initialization keeps roughly half the lights wrong per phase.
        night = counts[1:24]  # 00:15 .. 06:00
        day = counts[25:83]
        assert all(40 <= c <= 106 for c in night)
        assert all(40 <= c <= 106 for c in day)
        assert counts[12] + day[10] == 146  # complementary fault sets

    def test_tc5_faults_only_with_occupants(self, pd, tasks):
        trace = short_dry(tasks["TC5"], pd, iterations=96)
        counts = trace.counts()
        assert all(c == 0 for c in counts[:32])  # nobody before 08:00
        assert sum(counts[32:]) > 0
        assert max(counts) <= 64

    def test_tc4_scope_is_sensed_lights(self, pd, tasks):
        trace = short_dry(tasks["TC4"], pd, iterations=48)
        assert 0 < max(trace.counts()) <= 64


def rebased_slots(trace, base):
    """The trace's solution keys with `base` rewritten to DEFAULT_BASE."""
    return [{fq_id: frozenset(key.replace(base, DEFAULT_BASE) for key in keys)
             for fq_id, keys in slot.items()} for slot in trace.slots]


class TestSameSeedAnyBase:
    """The occupancy, occlusion, setpoint and rand() draws are keyed with
    the base rewritten, so a building built at any address has the same
    environment."""

    @settings(max_examples=5, deadline=None)
    @given(port=st.integers(1, 65535), tid=st.sampled_from(["TC5", "TC7"]),
           iterations=st.sampled_from([32, 48, 96]))
    def test_dry_trace_does_not_depend_on_the_port(self, pd, port, tid, iterations):
        base = f"http://127.0.0.1:{port}/"
        traces = []
        for where in (pd, build_dataset(params=GeneratorParams(), base=base)):
            task = load_task(tid, where.base)
            traces.append(rebased_slots(short_dry(task, where, iterations=iterations),
                                        where.base))
        assert traces[0] == traces[1]
        assert any(keys for slot in traces[0] for keys in slot.values())


class TestFullDayOracle:
    """Full-day dry-run totals at seed 42 on the seed-42 building: the
    regression table that behaviour-preserving changes must reproduce."""

    @pytest.fixture(scope="class")
    def pd42(self):
        return build_dataset(params=GeneratorParams(seed=42))

    @pytest.mark.parametrize("tid, total", [
        ("TS1", 210386), ("TS2", 210386), ("TS3", 8646), ("TC1", 105911),
        ("TC2", 108551), ("TC3", 108075), ("TC4", 35146), ("TC5", 12640),
        ("TC6", 2030), ("TC7", 2871)])
    def test_total(self, pd42, tid, total):
        task = load_task(tid, pd42.base)
        trace = dry_run(build_environment(task, pd42, 42), default_run_params(task),
                        task.fault_queries)
        assert len(trace.slots) == 1441
        assert sum(trace.counts()) == total


class TestMemoisedFaultChecks:
    """Every recorded slot equals a fault check on a freshly indexed copy of
    the snapshot, while agent writes land between ticks. Sensor graphs are
    replaced between ticks too, and the built-ins then put them back, so TC6
    and TC7 check a tick's one staged version against a fresh index."""

    @staticmethod
    def assert_slot_matches_fresh_index(runtime, task, t):
        fresh = Dataset(dict(runtime.dataset.graphs()))
        for fq in task.fault_queries:
            ctx = EvalContext(rng=runtime.rng, iteration=t, op_id=f"fault:{fq.id}",
                              sim_time=runtime.sim_time(t))
            assert runtime.fault_slots[-1][fq.id] == match_faults(fresh, fq, ctx), \
                (task.id, t, fq.id)

    @pytest.mark.parametrize("tid", TASK_IDS)
    def test_slots_match_fresh_index(self, pd, tasks, tid):
        task = tasks[tid]
        runtime = SimulationRuntime(build_environment(task, pd, 42), task.fault_queries)
        runtime.initialize(default_run_params(task, 48))
        commands = sorted(res.graph for res in pd.dynamic.values()
                          if res.category == "command")
        sensors = sorted(res.graph for res in pd.dynamic.values()
                         if res.category in ("occupancy", "luminance", "setpoint"))
        for t in range(1, 49):
            if t % 3 == 0:
                value = "on" if t % 2 else "off"
                for graph in commands[t % 7::29]:
                    runtime.apply_agent_write(graph, Literal(value), "test", 204)
                runtime.dataset = runtime.dataset.replace_graphs(
                    {graph: value_payload(graph, value) for graph in sensors[t % 5::37]})
            runtime.tick()
            self.assert_slot_matches_fresh_index(runtime, task, t)

    @pytest.mark.parametrize("tid", ["TC1", "TC2", "TC6"])
    def test_stable_triple_removed_then_restored(self, pd, tasks, tid):
        # Mid-run, the `?pt ssn:forProperty ?it` link of every third light
        # leaves every graph that holds it, and later comes back: a
        # predicate of the kept stable part changes, and changes back.
        task = tasks[tid]
        runtime = SimulationRuntime(build_environment(task, pd, 42), task.fault_queries)
        runtime.initialize(default_run_params(task, 48))
        lights = sorted((res for res in pd.dynamic.values() if res.category == "command"),
                        key=lambda res: res.graph)[::3]
        links = {(IRI(res.point), IRI(res.node)) for res in lights}
        holders = {g for s, o, g in runtime.dataset.pred_entries(FOR_PROPERTY)
                   if (s, o) in links}
        originals = {g: runtime.dataset.graph(g) for g in holders}
        cut = {g: frozenset(tr for tr in triples
                            if tr[1].value != FOR_PROPERTY or (tr[0], tr[2]) not in links)
               for g, triples in originals.items()}
        named = {t: set() for t in range(1, 49)}
        for t in range(1, 49):
            if t in (16, 32):
                runtime.dataset = runtime.dataset.replace_graphs(
                    cut if t == 16 else originals)
            runtime.tick()
            self.assert_slot_matches_fresh_index(runtime, task, t)
            named[t] = {res.node for res in lights for keys in runtime.fault_slots[-1].values()
                        for key in keys if res.node in key}
        assert not any(named[t] for t in range(16, 32))
        if tid != "TC6":  # TC6 has few faults; TC1 and TC2 keep about half the lights
            assert any(named[t] for t in range(1, 16)) and any(named[t] for t in range(32, 49))

    @pytest.mark.parametrize("tid", ["TC2", "TC6"])
    def test_full_day_solves_each_stable_part_at_most_twice(self, pd, tasks, tid, monkeypatch):
        # The gain of the split check: a dry day joins the unchanged
        # patterns of each fault query once or twice, not once a slot.
        owner, solved = {}, {fq.query: 0 for fq in tasks[tid].fault_queries}
        split_query, eval_stable = metrics.split_query, metrics.eval_stable

        def counting_split(query, volatile):
            split = split_query(query, volatile)
            if split is not None:
                owner[id(split[0])] = (split[0], query)
            return split

        def counting_eval(d, group, ctx):
            solved[owner[id(group)][1]] += 1
            return eval_stable(d, group, ctx)

        monkeypatch.setattr(metrics, "split_query", counting_split)
        monkeypatch.setattr(metrics, "eval_stable", counting_eval)
        task = tasks[tid]
        trace = dry_run(build_environment(task, pd, 42), default_run_params(task),
                        task.fault_queries)
        assert len(trace.slots) == 1441
        assert all(1 <= n <= 2 for n in solved.values()), solved


class TestTransitivePathGuard:
    def test_tc2_membership_needs_path_operator(self, pd, tasks):
        # Rooms hang off wings, wings off floors: a single hop finds nothing.
        tc2 = tasks["TC2"]
        env = build_environment(tc2, pd, seed=1)
        runtime = SimulationRuntime(env, tc2.fault_queries)
        runtime.initialize(default_run_params(tc2, iterations=48))
        for _ in range(24):  # reach open hours
            runtime.tick()
        query = tc2.fault_queries[0].query
        with_path = eval_query(runtime.dataset, query)
        flattened = _strip_plus(query)
        without_path = eval_query(runtime.dataset, flattened)
        assert len(with_path) > 0
        assert len(without_path) == 0


def _strip_plus(query):
    from ldsim.sparql import Group, Query

    elements = []
    for el in query.pattern.elements:
        if isinstance(el, TriplePattern) and isinstance(el.p, PathPlus):
            elements.append(TriplePattern(el.s, IRI(el.p.iri), el.o))
        else:
            elements.append(el)
    return Query(Group(tuple(elements)), query.projection)


def schedule_counts(actions):
    """(reads, writes) a schedule issues."""
    return (sum(len(a.reads) for a in actions), sum(len(a.writes) for a in actions))


TC2_SCHEDULE_SCRIPT = textwrap.dedent("""
    from ldsim.building import GeneratorParams, build_dataset
    from ldsim.engine import SimulationRuntime
    from ldsim.tasks import build_environment, default_run_params, load_task, oracle_schedule

    pd = build_dataset(params=GeneratorParams(seed=1))
    task = load_task("TC2", pd.base)
    runtime = SimulationRuntime(build_environment(task, pd, 1), task.fault_queries)
    runtime.initialize(default_run_params(task, 48))
    print(repr(oracle_schedule(task, runtime)))
""")


class TestOracleSchedules:
    def runtime_for(self, task, pd, seed=42, iterations=48):
        env = build_environment(task, pd, seed)
        runtime = SimulationRuntime(env, task.fault_queries)
        runtime.initialize(default_run_params(task, iterations))
        return runtime

    # Loop counts are the oracle's phases.
    @pytest.mark.parametrize("tid,reads,writes,loops", [
        ("TS1", 0, 146, 1),
        ("TS2", 146, 146, 1),
        ("TS3", 0, 6, 1),
        ("TC3", 147, 146, 1),
        ("TC4", 128, 64, 2),
        ("TC5", 128, 64, 2),
        ("TC6", 192, 64, 2),
        ("TC7", 256, 64, 2),
    ])
    def test_exact_operation_counts(self, pd, tasks, tid, reads, writes, loops):
        task = tasks[tid]
        runtime = self.runtime_for(task, pd)
        actions = oracle_schedule(task, runtime)
        assert schedule_counts(actions) == (reads, writes)
        assert writes == task.ideal_writes
        assert len(actions) == loops

    def test_tc1_covers_lower_bounds(self, pd, tasks):
        runtime = self.runtime_for(tasks["TC1"], pd)
        actions = oracle_schedule(tasks["TC1"], runtime)
        reads, writes = schedule_counts(actions)
        assert reads == 146
        assert writes >= 146
        assert len(actions) == 3

    def test_tc2_covers_lower_bounds(self, pd, tasks):
        runtime = self.runtime_for(tasks["TC2"], pd)
        reads, writes = schedule_counts(oracle_schedule(tasks["TC2"], runtime))
        assert reads == 146
        assert writes >= 146

    def test_tc2_schedule_does_not_depend_on_hash_seed(self):
        # Floors are read from the index, whose order follows string hashes.
        # Under hash seeds 1 and 2 one order was written either way; under 3
        # the other.
        outputs = []
        for hash_seed in ("1", "2", "3"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            done = subprocess.run([sys.executable, "-c", TC2_SCHEDULE_SCRIPT], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert "OracleAction(" in outputs[0]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("tid", ["TS1", "TS2", "TS3", "TC1", "TC2", "TC3",
                                     "TC4", "TC5", "TC6", "TC7"])
    def test_oracle_reaches_zero_residual_faults(self, pd, tasks, tid):
        task = tasks[tid]
        iterations = 48
        runtime = self.runtime_for(task, pd, iterations=iterations)
        actions = oracle_schedule(task, runtime)
        assert [a.at for a in actions] == sorted(a.at for a in actions)
        queue = list(actions)
        boundary_slots = {a.at for a in actions if a.at > 0}
        while runtime.iteration < iterations:
            while queue and queue[0].at <= runtime.iteration:
                for graph, value in queue.pop(0).writes:
                    runtime.apply_agent_write(graph, Literal(value), "oracle", 204)
            runtime.tick()
        # Residual faults allowed only in the boundary slots themselves
        # (the fix lands in the same slot, checked at the next boundary).
        for t, slot in enumerate(runtime.fault_slots):
            if t == 0 or t in boundary_slots:
                continue
            assert not any(slot.values()), (tid, t, slot)

