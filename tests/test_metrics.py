import pytest

from ldsim import metrics, sparql
from ldsim.engine import KeyedRandom, dry_run
from ldsim.metrics import (
    FaultCheck,
    FaultQuery,
    audit_write_deltas,
    average_fault_count,
    compute_metrics,
    fault_rate,
    match_faults,
    normalized_fault_count,
    operation_counts,
    read_metrics_tsv,
    read_write_ratio,
    total_faults,
    write_metrics_tsv,
)
from ldsim.ns import RDF_VALUE
from ldsim.rdf import IRI, Dataset, Literal, Quad
from ldsim.sparql import EvalContext, eval_query, parse_query
from ldsim.trace import (
    FaultTrace,
    OperationRecord,
    read_faults_tsv,
    read_ops_tsv,
    write_faults_tsv,
    write_ops_tsv,
)

EX = "http://example.org/"


def trace_from_counts(counts, fq_id="f"):
    slots = [{fq_id: frozenset(f"k{i}" for i in range(c))} if c else {}
             for c in counts]
    return FaultTrace(k=len(counts) - 1, slots=slots)


def read_op(slot=0, ok=True):
    return OperationRecord(timeslot=slot, method="GET", target=EX + "g",
                           status=200 if ok else 404)


def write_op(slot=0, ok=True, target=EX + "g", delta=None):
    return OperationRecord(
        timeslot=slot, method="PUT", target=target, status=204 if ok else 403,
        delta_graphs=(target,) if delta is None else delta)


class TestMatchFaults:
    def test_no_lights_on(self):
        ds = Dataset.from_quads([
            Quad(IRI(EX + "p1"), IRI(RDF_VALUE), Literal("off"), IRI(EX + "p1g"))])
        fq = FaultQuery("f", parse_query('SELECT ?s { ?s ?p "on" }'))
        assert match_faults(ds, fq) == frozenset()

    def test_each_solution_is_an_instance(self):
        quads = [Quad(IRI(EX + f"p{i}"), IRI(RDF_VALUE), Literal("on"), IRI(EX + f"g{i}"))
                 for i in range(146)]
        fq = FaultQuery("f", parse_query('SELECT ?s { ?s ?p "on" }'))
        assert len(match_faults(Dataset.from_quads(quads), fq)) == 146

    def test_each_solution_is_keyed_once(self, monkeypatch):
        quads = [Quad(IRI(EX + f"p{i}"), IRI(RDF_VALUE), Literal(v), IRI(EX + f"g{i}"))
                 for i, v in enumerate(["on", "off", "on", "on"])]
        fq = FaultQuery("f", parse_query('SELECT ?s ?v { ?s ?p ?v }'))
        ds = Dataset.from_quads(quads)
        keyed = []
        original = sparql.binding_key
        monkeypatch.setattr(sparql, "binding_key",
                            lambda binding: keyed.append(binding) or original(binding))
        found = match_faults(ds, fq)
        assert len(keyed) == 4
        assert found == frozenset(map(original, eval_query(ds, fq.query)))


class TestFaultCheck:
    """A check equals `match_faults` at every slot, and calls it only when
    an index entry its query reads has changed."""

    @staticmethod
    def lights(*on, n=16):
        return {EX + f"g{i}": frozenset({(IRI(EX + f"l{i}"), IRI(RDF_VALUE),
                                          Literal("on" if i in on else "off"))})
                for i in range(n)}

    def test_unchanged_read_entries_reuse_the_last_result(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1].id)
            return match_faults(*args, **kwargs)

        monkeypatch.setattr(metrics, "match_faults", counting)
        fq = FaultQuery("on", parse_query(f'SELECT ?s {{ ?s <{RDF_VALUE}> "on" }}'))
        check = FaultCheck(fq)
        ds = Dataset(self.lights(1))
        first = check.match(ds, 0)
        assert first == match_faults(ds, fq) and len(first) == 1
        # A graph without `rdf:value` keeps that predicate's entry object.
        ds = ds.replace_graphs({EX + "label": {(IRI(EX + "l1"), IRI(EX + "label"),
                                                Literal("x"))}})
        assert check.match(ds, 1) is first and calls == ["on"]
        ds = ds.replace_graphs(self.lights(1, 2))
        second = check.match(ds, 2)
        assert second == match_faults(Dataset(dict(ds.graphs())), fq) and len(second) == 2
        assert calls == ["on", "on"]

    def test_a_query_with_rand_is_matched_whole_at_every_slot(self):
        # rand() reads the slot, not the index, so no entry says it is unchanged.
        fq = FaultQuery("q", parse_query(
            f"SELECT ?s {{ ?s <{RDF_VALUE}> ?v FILTER(rand() < 0.5) }}"))
        rng = KeyedRandom(7)
        check = FaultCheck(fq, rng)
        ds = Dataset(self.lights())
        seen = set()
        for t in range(8):
            got = check.match(ds, t)
            assert got == match_faults(ds, fq, EvalContext(rng=rng, iteration=t, op_id="fault:q"))
            seen.add(got)
        assert len(seen) > 1


class TestSlidingWindow:
    def test_length_one_is_raw(self):
        trace = trace_from_counts([1, 0, 2])
        assert trace.counts() == [1, 0, 2]

    def test_one_key_of_two_queries_is_two_instances(self):
        # Two fault queries can give one key in one slot.
        trace = FaultTrace(k=1, slots=[{}, {"a": frozenset({"true"}), "b": frozenset({"true"})}])
        assert trace.counts() == [0, 2]
        assert total_faults(trace) == average_fault_count(trace) == 2


class TestFaultRate:
    def test_all_empty(self):
        assert fault_rate(trace_from_counts([0] * 11)) == 0.0

    def test_every_slot_faulty_is_one(self):
        assert fault_rate(trace_from_counts([1] * 11)) == 1.0

    def test_three_of_ten_eligible(self):
        counts = [0] * 12
        for t in (2, 5, 9):
            counts[t] = 1
        # k=11, l=1: eligible window is slots 1..10, so 3/10.
        assert fault_rate(trace_from_counts(counts)) == pytest.approx(0.3)

    def test_too_short_run_rejected(self):
        with pytest.raises(ValueError):
            fault_rate(trace_from_counts([1]))


class TestAverageFaultCount:
    def test_single_faulty_slot(self):
        assert average_fault_count(trace_from_counts([0, 4])) == 4.0

    def test_hand_computed_window(self):
        # Eligible window counts {2, 0, 6}: average over faulty slots = 4.
        assert average_fault_count(trace_from_counts([0, 2, 0, 6])) == 4.0

    def test_empty_trace_is_zero(self):
        assert average_fault_count(trace_from_counts([0, 0, 0])) == 0.0


class TestNormalizedFaultCount:
    def test_dry_vs_itself_is_one(self):
        dry = trace_from_counts([3, 3, 3, 3])
        assert normalized_fault_count(dry, dry) == 1.0

    def test_perfect_agent_is_zero(self):
        dry = trace_from_counts([5, 5, 5, 5])
        run = trace_from_counts([5, 0, 0, 0])  # slot 0 outside the window
        assert normalized_fault_count(run, dry) == 0.0

    def test_half_fixed_is_half(self):
        dry = trace_from_counts([4, 4, 4, 4, 4])
        run = trace_from_counts([4, 2, 2, 2, 2])
        assert normalized_fault_count(run, dry) == 0.5

    def test_zero_denominator_unavailable(self):
        dry = trace_from_counts([0, 0, 0])
        run = trace_from_counts([0, 1, 0])
        assert normalized_fault_count(run, dry) is None


class TestReadWriteRatio:
    def test_writes_only(self):
        ops = [write_op() for _ in range(146)]
        assert read_write_ratio(*operation_counts(ops)) == 0.0

    def test_balanced(self):
        ops = [read_op() for _ in range(146)] + [write_op() for _ in range(146)]
        assert read_write_ratio(*operation_counts(ops)) == 1.0

    def test_scripted_client(self):
        ops = [read_op() for _ in range(12)] + [write_op() for _ in range(4)]
        assert read_write_ratio(*operation_counts(ops)) == 3.0

    def test_zero_writes_unavailable(self):
        assert read_write_ratio(*operation_counts([read_op()])) is None

    def test_failures_not_counted(self):
        ops = [read_op(ok=False), write_op(), read_op()]
        assert read_write_ratio(*operation_counts(ops)) == 1.0


class TestAudit:
    def test_clean_ops_pass(self):
        ops = [write_op(), read_op(), write_op(delta=())]
        assert audit_write_deltas(ops) == []

    def test_multi_graph_delta_flagged(self):
        bad = write_op(delta=(EX + "g", EX + "other"))
        assert audit_write_deltas([bad])

    def test_off_target_delta_flagged(self):
        bad = write_op(delta=(EX + "other",))
        assert audit_write_deltas([bad])


class TestDryRun:
    @pytest.fixture()
    def setup(self):
        from ldsim.building import GeneratorParams, build_dataset
        from ldsim.engine import RunParams, SimEnvironment
        from datetime import datetime, timezone

        pd = build_dataset(params=GeneratorParams(
            rooms=4, floors=1, wings=1, lighting_systems=3,
            systems_with_occupancy=2, systems_with_command=2,
            systems_with_luminance=1, rooms_with_occupancy=2,
            rooms_with_command=2, rooms_with_luminance=1,
            command_points=2, luminance_points=1, hygiene_lights=0, seed=3))
        env = SimEnvironment(dataset=pd.dataset, init_entries=[], update_entries=[],
                             seed=11, base=pd.base, dynamic=pd.dynamic)
        params = RunParams(initial_time=datetime(2020, 5, 22, tzinfo=timezone.utc),
                           timeslot_ms=10, iterations=6, step_seconds=60)
        fq = FaultQuery("off-lights", parse_query(
            'PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> '
            'SELECT ?it { ?it rdf:value "off" . '
            '?it a <http://www.w3.org/ns/sosa/ActuatableProperty> }'))
        return env, params, fq

    def test_unfixed_faults_every_slot(self, setup):
        env, params, fq = setup
        trace = dry_run(env, params, (fq,))
        assert trace.counts() == [2] * 7
        assert fault_rate(trace) == 1.0
        assert average_fault_count(trace) == 2.0

    def test_same_seed_identical_traces(self, setup):
        env, params, fq = setup
        one = dry_run(env, params, (fq,))
        two = dry_run(env, params, (fq,))
        assert one.slots == two.slots


class TestPersistence:
    def test_faults_tsv_round_trip(self, tmp_path):
        slots = [{"f": frozenset({"?x=<a>", "?x=<b>"})}, {}, {"f": frozenset({"?x=<b>"})}]
        trace = FaultTrace(k=2, slots=slots)
        path = tmp_path / "run.faults.tsv"
        write_faults_tsv(trace, path)
        back = read_faults_tsv(path)
        assert back.k == trace.k
        assert back.slots == trace.slots

    def test_ops_tsv_round_trip(self, tmp_path):
        ops = [write_op(slot=3), read_op(slot=4),
               OperationRecord(5, "POST", EX + "t", 201, 17, "a2", (EX + "t", EX + "u"))]
        path = tmp_path / "run.ops.tsv"
        write_ops_tsv(ops, path)
        assert path.read_text() == (
            "timeslot\tmethod\ttarget\tstatus\tpayload_bytes\tagent\tdelta_graphs\n"
            f"3\tPUT\t{EX}g\t204\t0\t\t{EX}g\n"
            f"4\tGET\t{EX}g\t200\t0\t\t\n"
            f"5\tPOST\t{EX}t\t201\t17\ta2\t{EX}t,{EX}u\n")
        assert read_ops_tsv(path) == ops

    def test_offline_recompute_matches_online(self, tmp_path):
        dry = trace_from_counts([4, 4, 4, 4])
        run = trace_from_counts([4, 2, 0, 2])
        ops = [read_op(), read_op(), write_op()]
        online = compute_metrics(run, dry, ops)
        write_faults_tsv(run, tmp_path / "r.faults.tsv")
        write_faults_tsv(dry, tmp_path / "d.faults.tsv")
        write_ops_tsv(ops, tmp_path / "r.ops.tsv")
        offline = compute_metrics(read_faults_tsv(tmp_path / "r.faults.tsv"),
                                  read_faults_tsv(tmp_path / "d.faults.tsv"),
                                  read_ops_tsv(tmp_path / "r.ops.tsv"))
        assert offline == online
        write_metrics_tsv(online, tmp_path / "r.metrics.tsv")
        stored = read_metrics_tsv(tmp_path / "r.metrics.tsv")
        assert stored["fault_rate"] == repr(online.fault_rate)
        assert stored["normalized_fault_count"] == repr(online.normalized_fault_count)

    def test_metrics_report_totals(self):
        dry = trace_from_counts([4, 4, 4])
        run = trace_from_counts([4, 1, 3])
        report = compute_metrics(run, dry, [read_op(), write_op()])
        assert report.total_faults == 4 and report.dry_total_faults == 8
        assert report.normalized_fault_count == 0.5
        assert report.reads == 1 and report.writes == 1
        assert total_faults(run) == 4
